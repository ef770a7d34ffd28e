"""Self-test of the benchmark: short smoke runs of every workload.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
Each smoke run keeps only the first few operations of a cycle.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from ivmat import linsolve, ranges  # noqa: E402
from ivmat.intervals import Interval, IntervalMatrix, IntervalVector  # noqa: E402

WORKLOAD_NAMES = tuple(name for name in workloads.WORKLOADS if name != "known-defects")
FULL_BUILD = run.build
SMOKE_OPS = {"cli-cold": 2, "poly-dispatch": 14, "interval-loops": 6, "enum-small": 12}


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """Run one workload on a truncated cycle; returns (result line, record)."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "SPLIT_SAMPLES", 1)
    build = run.build

    def truncated(name, seed, workdir, in_process):
        workload = build(name, seed, workdir, in_process)
        workload.ops = workload.ops[:SMOKE_OPS[name]]
        return workload

    monkeypatch.setattr(run, "build", truncated)

    def go(name, seed=1, trace=False):
        return run.run(name, seed, 0.0, trace, str(tmp_path / f"work-{name}-{seed}"))
    return go


def _declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(smoke, name, trace):
    line, record = smoke(name, trace=trace)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert line["attempted"] >= 1
    assert record["environment"]["blas_threads_pinned"] == 1
    if trace:
        coverage = line["metrics"]["trace.self_coverage"]["value"]
        assert 0.9 <= coverage <= 1.0 + 1e-9, "layer self times must add up to the traced wall time"
    else:
        assert line["metrics"]["setup_s"]["value"] > 0


def _input_key(workload):
    if isinstance(workload, workloads.CliCold):
        with open(workload.paths[0]) as fh:
            return fh.read()
    for op in workload.ops:
        for arg in op.args:
            if isinstance(arg, IntervalMatrix):
                return arg.lo.tobytes()
            if isinstance(arg, linsolve.IntervalLinearSystem):
                return arg.A.lo.tobytes()
    raise AssertionError("no matrix input found")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_two_seeds_give_different_inputs_and_the_same_metric_names(smoke, tmp_path, name):
    def make(seed):
        cls = workloads.WORKLOADS[name]
        if name == "cli-cold":
            return cls(seed, str(tmp_path / f"files-{seed}"), run.SRC)
        return cls(seed)

    assert _input_key(make(1)) != _input_key(make(2))
    assert _input_key(make(3)) == _input_key(make(3))
    first, _ = smoke(name, seed=1)
    second, _ = smoke(name, seed=2)
    assert list(first["metrics"]) == list(second["metrics"])


def _shift_range(fn):
    def wrong(*args, **kwargs):
        res = fn(*args, **kwargs)
        res.value = Interval(res.value.lo, res.value.hi + 1.0 + abs(res.value.hi))
        return res
    return wrong


def _shrink_hull(fn):
    def wrong(*args, **kwargs):
        res = fn(*args, **kwargs)
        mid = res.hull.mid
        res.hull = IntervalVector(mid, mid)
        return res
    return wrong


def _shift_matrix(fn):
    def wrong(*args, **kwargs):
        hull = fn(*args, **kwargs)
        return IntervalMatrix(hull.lo + 1.0, hull.hi + 1.0)
    return wrong


def _corrupt_json(fn):
    def wrong(self, argv):
        stdout = fn(self, argv)
        payload = json.loads(stdout[stdout.find("{"):])
        payload["result"] = {"value": [0.0, 0.0], "strategy": "injected", "hull": [],
                             "method": "injected", "exactness": "injected"} \
            if isinstance(payload["result"], dict) else [{"class": "X", "verdict": "no"}]
        return json.dumps(payload)
    return wrong


INJECTIONS = {
    "poly-dispatch": (ranges, "det_range", _shift_range),
    "interval-loops": (linsolve, "interval_gauss_elim", _shrink_hull),
    "enum-small": (ranges, "cube_hull_diag_interval", _shift_matrix),
    "cli-cold": (workloads.CliCold, "run_process", _corrupt_json),
}
INJECTED_OPS = {"poly-dispatch": "det_range", "interval-loops": "interval_gauss_elim",
                "enum-small": "cube_hull_diag_interval", "cli-cold": "run_process"}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_an_injected_wrong_result_counts_as_failed(monkeypatch, smoke, name):
    owner, attr, corrupt = INJECTIONS[name]
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))

    def only_injected(*args, **kwargs):
        workload = FULL_BUILD(*args, **kwargs)
        workload.ops = [op for op in workload.ops if op.func == INJECTED_OPS[name]][:3]
        return workload

    monkeypatch.setattr(run, "build", only_injected)
    line, record = smoke(name)
    assert line["failed"] >= 1
    assert line["correct"] is False
    assert line["metrics"]["success_rate"]["value"] < 1.0


def test_outcome_rules():
    op = workloads.Op("k", np, "zeros")
    assert workloads.judge(op, None, workloads.NoApplicableTheorem("x"))[0] == "declined"
    assert workloads.judge(op, None, ValueError("x"))[0] == "failed"
    strict = workloads.Op("k", np, "zeros", declines=())
    assert workloads.judge(strict, None, workloads.CapExceeded("x"))[0] == "failed"
    assert workloads.judge(op, 1, None)[0] == "ok"


def test_poly_dispatch_leaves_out_only_the_known_defects():
    gated, full = workloads.PolyDispatch(1), workloads.KnownDefects(1)
    assert gated.sizes["known_defect_ops_left_out"] > 0
    assert [op.tag for op in gated.ops] == \
        [op.tag for op in full.ops if not workloads.is_known_defect(*op.tag)]


def test_known_defects_still_fail(monkeypatch, smoke):
    def unscaled_defects(*args, **kwargs):
        workload = FULL_BUILD(*args, **kwargs)
        workload.ops = [op for op in workload.ops
                        if workloads.is_known_defect(*op.tag) and op.tag[3] == 0]
        return workload

    monkeypatch.setattr(run, "build", unscaled_defects)
    line, record = smoke("known-defects")
    assert line["correct"] is False
    failures = record["first_failure_per_kind"]
    assert "interval endpoints must be finite" in failures["det_range n=200"]
    assert failures["classify_all n=10"].startswith("CapExceeded")
