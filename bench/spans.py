"""Span tracer that wraps the public functions of every ivmat module.

The tracer replaces each public function, in every ivmat module namespace
that holds it, with a wrapper that records one span: id, parent, function,
start, end and whether an exception left it. Spans stay in memory in flat
arrays and are written out at the end of the run; the per-layer metrics are
derived from them. A layer is the ivmat module that defines the function.

Nothing in ``src/`` changes: the wrappers are installed as module attributes
from inside the benchmark process and removed afterwards.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

import numpy as np

from ivmat.errors import (
    CapExceeded,
    NoApplicableCase,
    NoApplicableTheorem,
    PreconditionViolated,
    SingularInside,
)
from ivmat.intervals import IntervalMatrix, IntervalVector, SymmetricIntervalMatrix

LAYERS = ("cli", "problems", "classify", "ranges", "linsolve", "parametric",
          "oracle", "kernel", "intervals")

# Scalar interval arithmetic runs once per matrix entry inside the
# elimination loops; a span per call would cost more than the call itself.
# Its time stays in the caller's self time.
UNTRACED = frozenset({"iadd", "isub", "imul", "idiv"})

# Private functions traced because a per-layer metric names them.
PRIVATE_PROBES = (("linsolve", "_eliminate"),)

DECLINE_ERRORS = (NoApplicableTheorem, PreconditionViolated, NoApplicableCase,
                  CapExceeded, SingularInside)

NO_ERROR, DECLINED, RAISED = 0, 1, 2


def _branching(lo, hi) -> int:
    return int(np.count_nonzero(np.asarray(hi) > np.asarray(lo)))


def _box_bounds(A):
    if isinstance(A, SymmetricIntervalMatrix):
        iu = np.triu_indices(A.n)
        return A.lo[iu], A.hi[iu]
    return A.lo, A.hi


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _oracle_realizations(fname: str, args, kwargs) -> int:
    """Realizations an oracle call evaluated, counted from its input."""
    if fname in ("det_range", "find_singular_member"):
        return 1 << _branching(*_box_bounds(args[0]))
    if fname == "solution_hull":
        A, b = args[0], args[1]
        return 1 << (_branching(A.lo, A.hi) + _branching(b.lo, b.hi))
    if fname == "range_sampling":
        cfg = _arg(args, kwargs, 2, "cfg")
        samples = cfg.samples if cfg is not None else 500
        return (1 << _branching(*_box_bounds(args[1]))) + samples
    if fname == "cube_range":
        A = args[0]
        cfg = _arg(args, kwargs, 1, "cfg")
        step = cfg.grid_step if cfg is not None else 1e-2
        widths = np.diag(A.hi) - np.diag(A.lo)
        points = [max(2, int(round(w / step)) + 1) for w in widths if w > 0]
        return int(np.prod(points)) if points else 1
    return 0


_WEIGHTS: dict[int, np.ndarray] = {}


def _fingerprint(value):
    """Cheap content key of a recognition test's input (two projections)."""
    if isinstance(value, SymmetricIntervalMatrix):
        value = value.base
    if isinstance(value, (IntervalMatrix, IntervalVector)):
        return (_fingerprint(value.lo), _fingerprint(value.hi))
    if isinstance(value, np.ndarray):
        flat = np.ascontiguousarray(value, dtype=float).ravel()
        w = _WEIGHTS.get(flat.size)
        if w is None:
            w = np.random.default_rng(flat.size).standard_normal(flat.size)
            _WEIGHTS[flat.size] = w
        return (value.shape, float(flat.sum()), float(flat @ w))
    return repr(value)


class Tracer:
    """Wraps ivmat's public functions and records spans while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.parent = array("q")
        self.func = array("l")
        self.start = array("d")
        self.end = array("d")
        self.err = array("b")
        self.data: dict[int, object] = {}
        self.op_first_span = array("q")
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function; recording starts with ``resume``."""
        wrappers: dict[int, object] = {}
        for name in LAYERS:
            module = importlib.import_module(f"ivmat.{name}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not owner.startswith("ivmat."):
                    continue
                layer = owner.split(".", 1)[1]
                if layer not in LAYERS:
                    continue
                private = (layer, obj.__name__) in PRIVATE_PROBES
                if (obj.__name__.startswith("_") and not private) or obj.__name__ in UNTRACED:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                self._bindings.append((module, attr, obj, wrappers[id(obj)]))

    def resume(self) -> None:
        """Put the wrappers in place of the originals."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def pause(self) -> None:
        """Restore the originals, so checks between operations are not traced."""
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def uninstall(self) -> None:
        self.pause()
        self._bindings.clear()

    def _wrap(self, fn, layer: str):
        fid = len(self.names)
        fname = fn.__name__
        self.names.append(f"{layer}.{fname}")
        self.layer_of.append(LAYERS.index(layer))
        recognition = layer == "classify" and fname.startswith("is_")
        oracle_call = layer == "oracle"
        orthants = layer == "parametric" and fname == "hull_orthant_lp"
        parent, func, start, end, err = (self.parent, self.func, self.start,
                                         self.end, self.err)
        stack, data, clock = self._stack, self.data, time.perf_counter

        def wrapper(*args, **kwargs):
            key = (fid, _fingerprint(args[0])) if recognition and args else None
            sid = len(start)
            parent.append(stack[-1])
            func.append(fid)
            err.append(NO_ERROR)
            end.append(0.0)
            stack.append(sid)
            if key is not None:
                data[sid] = key
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                stack.pop()
                err[sid] = DECLINED if isinstance(exc, DECLINE_ERRORS) else RAISED
                raise
            end[sid] = clock()
            stack.pop()
            if oracle_call:
                data[sid] = _oracle_realizations(fname, args, kwargs)
            elif orthants:
                data[sid] = int(result.details.get("orthants", 0))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- recording -----------------------------------------------------------

    def begin_op(self) -> None:
        """Mark the start of one top-level benchmark operation."""
        self.op_first_span.append(len(self.start))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid in range(len(self.start)):
                fh.write(json.dumps({
                    "id": sid, "parent": self.parent[sid],
                    "name": self.names[self.func[sid]],
                    "start": self.start[sid], "end": self.end[sid],
                    "error": self.err[sid]}) + "\n")

    # -- derived metrics -------------------------------------------------------

    def _index(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans; wall_s is the timed op time."""
        count = len(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        func = np.asarray(self.func, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        err = np.asarray(self.err, dtype=np.int8)
        dur = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=count)
        self_time = dur - child_time
        layer = np.asarray(self.layer_of, dtype=np.int64)[func]
        parent_layer = np.full(count, -1, dtype=np.int64)
        parent_layer[nested] = layer[parent[nested]]

        out: dict[str, tuple[float, str]] = {}
        n_layers = len(LAYERS)
        calls = np.bincount(layer, minlength=n_layers)
        self_s = np.bincount(layer, weights=self_time, minlength=n_layers)
        leaving = (err != NO_ERROR) & (parent_layer != layer)
        errors = np.bincount(layer[leaving], minlength=n_layers)
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_s[i]), "s")
            out[f"{name}.errors"] = (int(errors[i]), "count")

        def span_ids(name: str) -> np.ndarray:
            fid = self._index(name)
            return np.flatnonzero(func == fid) if fid >= 0 else np.zeros(0, np.int64)

        def inclusive(name: str) -> float:
            return float(dur[span_ids(name)].sum())

        out["linsolve.elim_s"] = (inclusive("linsolve._eliminate"), "s")
        out["intervals.imatmul_s"] = (inclusive("intervals.imatmul"), "s")
        out["ranges.cube_s"] = (inclusive("ranges.cube_hull_diag_interval"), "s")

        # Recognition calls per op, and the share repeating a test already run
        # on the same input within the same op.
        ops = len(self.op_first_span)
        bounds = list(self.op_first_span) + [count]
        recog_total = repeats = 0
        for k in range(ops):
            seen = set()
            for sid in range(bounds[k], bounds[k + 1]):
                key = self.data.get(sid)
                if isinstance(key, tuple):
                    recog_total += 1
                    if key in seen:
                        repeats += 1
                    seen.add(key)
        out["classify.tests_per_op"] = (recog_total / ops if ops else 0.0, "count")
        out["classify.repeat_ratio"] = (repeats / recog_total if recog_total else 0.0, "ratio")

        oracle_layer = LAYERS.index("oracle")
        oracle_spans = np.flatnonzero(layer == oracle_layer)
        realizations = sum(int(self.data.get(int(s), 0)) for s in oracle_spans
                           if err[s] == NO_ERROR)
        outer = oracle_spans[parent_layer[oracle_spans] != oracle_layer]
        oracle_time = float(dur[outer].sum())
        out["oracle.realizations"] = (realizations, "count")
        out["oracle.realizations_per_s"] = (
            realizations / oracle_time if oracle_time > 0 else 0.0, "1/s")

        vertices = len(span_ids("parametric.eval_parametric"))
        vertices += sum(int(self.data.get(int(s), 0))
                        for s in span_ids("parametric.hull_orthant_lp"))
        out["parametric.vertices"] = (vertices, "count")
        out["kernel.lp_calls"] = (len(span_ids("kernel.lp_solve")), "count")

        ranges_layer = LAYERS.index("ranges")
        declined = (layer == ranges_layer) & (parent_layer != ranges_layer) & (err == DECLINED)
        out["ranges.declined"] = (int(declined.sum()), "count")

        solve_id = self._index("linsolve.solve_hull")
        fallbacks = set()
        for sid in span_ids("oracle.solution_hull"):
            p = int(parent[sid])
            while p >= 0:
                if func[p] == solve_id:
                    fallbacks.add(p)
                    break
                p = int(parent[p])
        out["linsolve.oracle_fallbacks"] = (len(fallbacks), "count")

        out["trace.spans"] = (count, "count")
        out["trace.self_coverage"] = (
            float(self_time.sum()) / wall_s if wall_s > 0 else 0.0, "ratio")
        return out
