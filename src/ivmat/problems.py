"""Problem file parsing: one JSON format with a top-level kind tag.

Interval entries are two-element arrays [lo, hi]; a bare number is
shorthand for a degenerate interval. Parametric coefficient matrices and
rhs vectors are real (numbers only); the parameter box carries the
intervals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .intervals import IntervalMatrix, IntervalVector, as_symmetric
from .linsolve import IntervalLinearSystem
from .parametric import ParametricSystem

FORMAT_VERSION = 1


@dataclass
class ProblemFile:
    kind: str  # "matrix" | "system" | "parametric"
    matrix: IntervalMatrix | None = None
    system: IntervalLinearSystem | None = None
    parametric: ParametricSystem | None = None


def _entry_bounds(value, where: str) -> tuple[float, float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value), float(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        lo, hi = float(value[0]), float(value[1])
        if lo > hi:
            raise ParseError(f"{where}: lo={lo} > hi={hi}")
        return lo, hi
    raise ParseError(f"{where}: expected a number or [lo, hi], got {value!r}")


def _interval_matrix(rows, where: str) -> IntervalMatrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{where}: expected a list of rows")
    width = len(rows[0])
    if not width:
        raise ParseError(f"{where}[0]: empty row")
    lo = np.empty((len(rows), width))
    hi = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{where}[{i}]: row length {len(row)} != {width}")
        for j, value in enumerate(row):
            lo[i, j], hi[i, j] = _entry_bounds(value, f"{where}[{i}][{j}]")
    return IntervalMatrix(lo, hi)


def _interval_vector(values, where: str) -> IntervalVector:
    if not isinstance(values, list) or not values:
        raise ParseError(f"{where}: expected a nonempty list")
    lo = np.empty(len(values))
    hi = np.empty(len(values))
    for i, value in enumerate(values):
        lo[i], hi[i] = _entry_bounds(value, f"{where}[{i}]")
    return IntervalVector(lo, hi)


def _real_matrix(rows, where: str) -> np.ndarray:
    m = _interval_matrix(rows, where)
    if np.any(m.rad > 0):
        raise ParseError(f"{where}: expected real (degenerate) entries")
    return m.mid


def _real_vector(values, where: str) -> np.ndarray:
    v = _interval_vector(values, where)
    if np.any(v.rad > 0):
        raise ParseError(f"{where}: expected real (degenerate) entries")
    return v.mid


def parse_problem(path: str) -> ProblemFile:
    """Load and validate a problem file; raises ParseError with a location."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"format_version must be {FORMAT_VERSION}, got {version!r}")
    kind = data.get("kind")
    try:
        if kind == "matrix":
            if "entries" not in data:
                raise ParseError("matrix problem needs an 'entries' field")
            matrix = _interval_matrix(data["entries"], "entries")
            if data.get("symmetric", False):
                as_symmetric(matrix)  # validation only
            return ProblemFile("matrix", matrix=matrix)
        if kind == "system":
            for fieldname in ("A", "b"):
                if fieldname not in data:
                    raise ParseError(f"system problem needs an {fieldname!r} field")
            A = _interval_matrix(data["A"], "A")
            b = _interval_vector(data["b"], "b")
            return ProblemFile("system", system=IntervalLinearSystem(A, b))
        if kind == "parametric":
            for fieldname in ("A_k", "b_k", "p"):
                if fieldname not in data:
                    raise ParseError(f"parametric problem needs an {fieldname!r} field")
            if not isinstance(data["A_k"], list) or not isinstance(data["b_k"], list):
                raise ParseError("A_k and b_k must be lists")
            mats = [_real_matrix(m, f"A_k[{k}]") for k, m in enumerate(data["A_k"])]
            vecs = [_real_vector(v, f"b_k[{k}]") for k, v in enumerate(data["b_k"])]
            box = _interval_vector(data["p"], "p")
            return ProblemFile("parametric",
                               parametric=ParametricSystem(mats, vecs, box))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown kind {kind!r}; expected matrix, system, or parametric")
