#!/usr/bin/env python3
"""Run one ivmat benchmark workload and print its metrics as one JSON line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload poly-dispatch --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics with the span tracer installed. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it, and ``bench/out/``, hold the environment record and the outcome
counts per operation kind. See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads; every process the benchmark starts inherits it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 5     # fresh processes timed for setup_s, per run
SPLIT_SAMPLES = 3     # subprocesses timed for cli.interp_ms and cli.import_ms
PARSE_REPEATS = 5


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)   # every timed call, in order
    per_op: dict = field(default_factory=dict)      # op index -> its latencies
    outcomes: dict = field(default_factory=dict)    # kind -> {outcome: count}
    failures: dict = field(default_factory=dict)    # kind -> first failure reason
    cycles: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(c.get("failed", 0) for c in self.outcomes.values())

    @property
    def elapsed(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.elapsed


def run_cycle(workload, judge, m: Measurement, judged: dict, tracer=None) -> None:
    """Time each operation of one cycle, judge it and add it to ``m``.

    Only the calls are timed; checks run between them. A later cycle reuses
    the verdict of an operation whose outcome digest has not changed.
    """
    from workloads import digest

    clock = time.perf_counter
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.begin_op()
            tracer.resume()
        t0 = clock()
        try:
            result, exc = op(), None
        except Exception as err:  # judged below; a failure, not a crash
            result, exc = None, err
        dt = clock() - t0
        if tracer is not None:
            tracer.pause()
        key = digest(result, exc)
        if index in judged and judged[index][0] == key:
            outcome, reason = judged[index][1:]
        else:
            outcome, reason = judge(op, result, exc)
            judged[index] = (key, outcome, reason)
        m.latencies.append(dt)
        m.per_op.setdefault(index, []).append(dt)
        counts = m.outcomes.setdefault(op.kind, {"ok": 0, "declined": 0, "failed": 0})
        counts[outcome] += 1
        if reason is not None:
            m.failures.setdefault(op.kind, reason)
    m.cycles += 1


def measure(workload, judge, seconds: float, cycles: int | None = None) -> Measurement:
    """Closed loop, one client: repeat whole cycles of the workload's ops.

    Runs the whole number of cycles whose timed op time is closest to
    ``seconds`` (at least one), or exactly ``cycles`` when given.
    """
    m = Measurement()
    judged: dict[int, tuple] = {}
    while True:
        run_cycle(workload, judge, m, judged)
        if cycles is not None:
            if m.cycles >= cycles:
                return m
        elif m.elapsed >= seconds - 0.5 * m.elapsed / m.cycles:
            return m


def measure_traced(workload, judge, seconds: float, tracer):
    """Untraced and traced cycles in turn, after one discarded cycle.

    The discarded cycle runs every check; alternating then lets both sides
    see the same host speed, so their ratio is the tracing overhead.
    Returns (untraced, traced).
    """
    judged: dict[int, tuple] = {}
    run_cycle(workload, judge, Measurement(), judged)
    untraced, traced = Measurement(), Measurement()
    while True:
        run_cycle(workload, judge, untraced, judged)
        run_cycle(workload, judge, traced, judged, tracer)
        total = untraced.elapsed + traced.elapsed
        if total >= seconds - 0.5 * total / untraced.cycles:
            return untraced, traced


def warm_up(workload) -> None:
    """Call each distinct function once, so lazy imports and caches are ready."""
    seen = set()
    for op in workload.ops:
        if op.func in seen:
            continue
        seen.add(op.func)
        try:
            op()
        except Exception:  # outcomes are judged in the timed loop only
            pass


def build(name: str, seed: int, workdir: str, in_process: bool):
    from workloads import WORKLOADS

    if name == "cli-cold":
        workload = WORKLOADS[name](seed, workdir, SRC, in_process=in_process)
        if not in_process:
            return workload  # every CLI call starts a cold process by design
    else:
        workload = WORKLOADS[name](seed)
    warm_up(workload)
    return workload


def setup_samples(name: str, seed: int) -> list[float]:
    """Wall time from process start to the end of set-up, in fresh processes."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code})")
    return samples


def _subprocess_ms(argv: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SPLIT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def startup_split(seed: int, workdir: str) -> dict:
    """CLI cost split: interpreter start, import, in-process main and parse.

    Program-wide, so every traced run measures it on the cli-cold files of
    its seed, with the tracer off.
    """
    from ivmat import problems
    from workloads import judge

    files = build("cli-cold", seed, os.path.join(workdir, "split"), in_process=True)
    main = measure(files, judge, 0.0, cycles=1)
    parse = []
    for path in files.paths:
        for _ in range(PARSE_REPEATS):
            t0 = time.perf_counter()
            problems.parse_problem(path)
            parse.append(time.perf_counter() - t0)
    return {
        "cli.interp_ms": (_subprocess_ms([sys.executable, "-c", "pass"]), "ms"),
        "cli.import_ms": (_subprocess_ms([sys.executable, "-c", "import ivmat.cli"]), "ms"),
        "cli.main_ms": (1e3 * statistics.median(main.latencies), "ms"),
        "problems.parse_ms": (1e3 * statistics.median(parse), "ms"),
    }


def _blas_runtime_threads():
    """Thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(name: str, seed: int, workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": name, "seed": seed, "sizes": workload.sizes,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "git_commit": _git_commit(),
    }


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    """One measured run; returns (result line dict, record dict)."""
    from workloads import judge

    workload = build(name, seed, workdir, in_process=trace)
    if not trace:
        m = measure(workload, judge, seconds)
        who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setup = setup_samples(name, seed)
        p50, p90 = statistics.quantiles([1e3 * t for t in m.latencies], n=10,
                                        method="inclusive")[4::4]
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (m.ops_per_s, "1/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "success_rate": (1.0 - m.failed / m.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        extra = {"setup_samples_s": setup}
    else:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            untraced, m = measure_traced(workload, judge, seconds, tracer)
        finally:
            tracer.uninstall()
        values = tracer.metrics(wall_s=m.elapsed)
        values["trace.overhead"] = (m.ops_per_s / untraced.ops_per_s - 1.0, "ratio")
        values.update(startup_split(seed, workdir))
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        extra = {"spans_file": os.path.relpath(spans_path, ROOT),
                 "untraced_ops": untraced.attempted}

    metrics = {}
    for metric, unit in declared_metrics(trace):
        value, got_unit = values[metric]
        if got_unit != unit:
            raise RuntimeError(f"{metric}: unit {got_unit} differs from BENCHMARK.json")
        metrics[metric] = {"value": value, "unit": unit}
    line = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}
    record = {"environment": environment(name, seed, workload), "trace": trace,
              "samples": m.attempted, "cycles": m.cycles, "outcomes": m.outcomes,
              "first_failure_per_kind": m.failures, **extra, "result": line,
              "latencies_ms": [[op.kind] + [1e3 * t for t in m.per_op[i]]
                               for i, op in enumerate(workload.ops)]}
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-cold", "poly-dispatch", "interval-loops", "enum-small",
                                 "known-defects"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ivmat")):
        print(f"error: no ivmat source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    warnings.simplefilter("ignore", RuntimeWarning)  # det overflow is judged, not printed

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.setup_only:
            build(args.workload, args.seed, workdir, in_process=False)
            print("ready", flush=True)
            return 0
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, default=str)
    print("# environment " + json.dumps(record["environment"], default=str))
    print("# outcomes " + json.dumps(record["outcomes"]))
    if record["first_failure_per_kind"]:
        print("# failures " + json.dumps(record["first_failure_per_kind"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
