"""The benchmark's four workloads: inputs, one cycle of operations, checks.

Each workload builds its inputs from the seed alone and exposes ``ops``, the
operations of one cycle. The runner repeats whole cycles, so every run has
the same mix of operation kinds. Every operation is judged after its timed
call: ``ok`` when it returned and its result passed the check, ``declined``
when it raised a documented error because the theorem does not cover the
input, ``failed`` otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import inputs as I
from ivmat import classify, cli, linsolve, oracle, parametric, ranges
from ivmat.errors import (
    CapExceeded,
    IvmatError,
    NoApplicableCase,
    NoApplicableTheorem,
    PreconditionViolated,
    SingularInside,
)
from ivmat.intervals import Interval, IntervalMatrix, IntervalVector
from ivmat.linsolve import IntervalLinearSystem
from ivmat.ranges import RangeResult, UpperBound

DECLINES = (NoApplicableTheorem, PreconditionViolated, NoApplicableCase, CapExceeded)

# Tolerances of ``ivmat verify``: determinant, solve and cube comparisons.
TOL_DET = 1e-8
TOL_SOLVE = 1e-7
TOL_CUBE = 1e-3
# Relative slack for containment and endpoint reproduction checks.
SLACK = 1e-9

CLI_CAP = 1 << 20


class CheckFailed(Exception):
    """The result of an operation contradicts its check."""


class CliDeclined(Exception):
    """The CLI exited 1 with an ``error:`` message: a documented decline."""


class CliFailed(Exception):
    """The CLI exited with a code other than 0 or a documented decline."""


@dataclass
class Op:
    """One timed call; the function is looked up on its module at call time."""

    kind: str
    module: Any
    func: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    check: Callable[[Any, BaseException | None], None] = lambda result, exc: None
    declines: tuple = DECLINES
    tag: tuple = ()   # what the workload needs to find the operation again

    def __call__(self):
        return getattr(self.module, self.func)(*self.args, **self.kwargs)


def judge(op: Op, result, exc) -> tuple[str, str | None]:
    """Outcome of one operation and, for a failure, the reason."""
    if exc is not None and not isinstance(exc, op.declines):
        return "failed", f"{type(exc).__name__}: {exc}"
    try:
        op.check(result, exc)
    except CheckFailed as bad:
        return "failed", str(bad)
    except Exception as bad:  # a malformed result can break the check itself
        return "failed", f"check raised {type(bad).__name__}: {bad}"
    return ("declined" if exc is not None else "ok"), None


def digest(result, exc) -> bytes:
    """Content digest of an outcome; an equal digest means an equal check verdict."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, exc if exc is not None else result)
    return h.digest()


def _feed(h, x) -> None:
    if isinstance(x, BaseException):
        h.update(f"!{type(x).__name__}:{x}".encode())
    elif isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, dict):
        h.update(b"{")
        for key, value in x.items():
            _feed(h, key)
            _feed(h, value)
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for value in x:
            _feed(h, value)
        h.update(b"]")
    elif hasattr(x, "__dataclass_fields__"):
        h.update(type(x).__name__.encode())
        for name in x.__dataclass_fields__:
            _feed(h, getattr(x, name))
    elif hasattr(type(x), "__slots__") and not isinstance(x, (str, bytes)):
        h.update(type(x).__name__.encode())
        for name in type(x).__slots__:
            _feed(h, getattr(x, name))
    else:
        h.update(repr(x).encode())


# -- check helpers --------------------------------------------------------


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _mag(*arrays) -> float:
    return max(float(np.max(np.abs(np.asarray(a, dtype=float)))) for a in arrays)


def _in_box(A, M, what: str) -> None:
    M = np.asarray(M, dtype=float)
    slack = 1e-12 * _mag(A.lo, A.hi)
    _require(M.shape == A.lo.shape and np.all(M >= A.lo - slack)
             and np.all(M <= A.hi + slack), f"{what} lies outside the box")


def _close(a: float, b: float, tol: float, scale: float, what: str) -> None:
    _require(abs(a - b) <= tol * scale, f"{what}: {a!r} != {b!r}")


def _interval_ok(value: Interval) -> None:
    _require(np.isfinite(value.lo) and np.isfinite(value.hi) and value.lo <= value.hi,
             "range is not a finite interval")


def _contains(lo, hi, points, what: str) -> None:
    points = np.asarray(points, dtype=float)
    slack = SLACK * max(_mag(lo, hi), _mag(points))
    _require(np.all(points >= np.asarray(lo) - slack)
             and np.all(points <= np.asarray(hi) + slack),
             f"{what} lie outside the returned hull")


def _reproduces(A, result: RangeResult, f, what: str) -> None:
    """Attainers lie in the box and f at them gives the range endpoints."""
    _interval_ok(result.value)
    scale = max(abs(result.value.lo), abs(result.value.hi), 1e-300)
    for end, value in (("min", result.value.lo), ("max", result.value.hi)):
        attainer = result.attainers[end]
        _in_box(A, attainer, f"{what} {end} attainer")
        _close(float(f(attainer)), value, TOL_DET, scale, f"{what} {end} endpoint")


def _sym_eig(i):
    return lambda m: np.linalg.eigvalsh(m)[::-1][i]


def _real_eig(i):
    return lambda m: np.sort(np.linalg.eigvals(m).real)[::-1][i]


def _rho(m):
    return np.max(np.abs(np.linalg.eigvals(m)))


def _sigma(i):
    return lambda m: np.linalg.svd(m, compute_uv=False)[i]


def _det(m):
    return np.linalg.det(m)


def _members(rng: np.random.Generator, A, count: int) -> np.ndarray:
    return A.lo + (A.hi - A.lo) * rng.random((count,) + A.lo.shape)


def _interval_matmul(a_lo, a_hi, b_lo, b_hi):
    """Interval matrix product, vectorized; reference for the LU check."""
    products = np.stack([a_lo[:, :, None] * b_lo[None, :, :],
                         a_lo[:, :, None] * b_hi[None, :, :],
                         a_hi[:, :, None] * b_lo[None, :, :],
                         a_hi[:, :, None] * b_hi[None, :, :]])
    return products.min(axis=0).sum(axis=1), products.max(axis=0).sum(axis=1)


# -- poly-dispatch ----------------------------------------------------------

POLY_SIZES = (3, 10, 50, 200)
POLY_CALLS = ("classify_all", "det_range", "solve_hull", "eig_ranges",
              "inverse_bounds", "nonneg_ranges", "sigma_min_range")
RHS_PATTERNS = ("nonneg", "nonpos", "mixed")
# Under the default cap of 2^20, classify_all enumerates all 2^9 (2^10 - 1)
# principal minors of the P-matrix sign vertices at n = 10 (about 10 s)
# whenever every sign vertex is a P-matrix, which some seeds' boxes are and
# others are not. Below that count the test answers "unknown" at once, so the
# workload measures recognition and dispatch; enum-small times the
# enumeration itself.
POLY_CLASSIFY_CAP = 1 << 16


def is_known_defect(call: str, cname: str, n: int, scale_exp: int) -> bool:
    """Operations that fail on the code the benchmark was written against.

    The gated ``poly-dispatch`` leaves them out, since a gated run must have
    no failed operation; ``known-defects`` runs them, so they keep showing
    (README, "Known baseline failures").
    """
    if scale_exp != 0:
        return True   # verdicts and oracle references change under 1e-8 and 1e8
    if call == "classify_all" and cname == "m-mid-not-h":
        return True   # CapExceeded instead of "unknown"
    return call == "det_range" and n == 200   # np.linalg.det overflows


def _poly_makers(n: int):
    g = I.gen
    makers = [("m", g.make_m_instance), ("h", g.make_h_instance),
              ("invnonneg", g.make_inverse_nonneg_instance),
              ("diagpsd", g.make_diag_psd_instance), ("nonneg", g.make_nonneg_instance),
              ("generic", I.make_generic_box)]
    if n <= 4:  # the only sizes where these generators succeed
        makers += [("tp", g.make_tp_instance), ("inversem", g.make_inverse_m_instance)]
    else:
        makers += [("m-mid-not-h", I.make_m_midpoint_not_h)]
    return makers


def _point_rhs(rng: np.random.Generator, n: int, pattern: str) -> np.ndarray:
    x = rng.uniform(0.1, 1.0, n)
    if pattern == "nonpos":
        return -x
    if pattern == "mixed":
        return x * rng.choice([-1.0, 1.0], n)
    return x


def _verdict(call: str, result, exc):
    if exc is not None:
        return type(exc).__name__
    if call == "classify_all":
        return tuple((r.matrix_class, r.verdict) for r in result)
    if call == "solve_hull":
        return (result.method, result.exactness)
    if call == "eig_ranges":
        return tuple(r.strategy for r in result)
    if call == "nonneg_ranges":
        return tuple(sorted((k, v.strategy) for k, v in result.items()))
    return result.strategy


class PolyDispatch:
    """Recognition and LAPACK dispatch over a seeded pool at n in {3, 10, 50, 200}.

    Right-hand sides are real vectors whose sign pattern rotates over the
    pool. The operations ``is_known_defect`` names are left out. With
    ``known_defects`` set, every operation runs and every instance also
    appears scaled by 1e-8 and 1e8, where a verdict that differs from the
    unscaled copy's is a failure.
    """

    name = "poly-dispatch"

    def __init__(self, seed: int, known_defects: bool = False):
        scales = I.SCALE_EXPONENTS if known_defects else (0,)
        rng = np.random.default_rng([seed, 2])
        self.check_rng = np.random.default_rng([seed, 102])
        self.verdicts: dict = {}
        self.oracle_cache: dict = {}
        self.ops: list[Op] = []
        count = left_out = 0
        for n in POLY_SIZES:
            for cname, make in _poly_makers(n):
                base = make(rng, n)
                x = _point_rhs(rng, n, RHS_PATTERNS[count % len(RHS_PATTERNS)])
                count += 1
                for exp in scales:
                    factor = 10.0 ** exp
                    inst = I.Instance(f"{cname}-n{n}", n, I.scaled(base, exp),
                                      IntervalVector(x * factor, x * factor), exp)
                    for call in POLY_CALLS:
                        if not known_defects and is_known_defect(call, cname, n, exp):
                            left_out += 1
                            continue
                        self.ops.append(self._op(call, inst))
        self.sizes = {"n": list(POLY_SIZES), "scale_exponents": list(scales),
                      "base_instances": count, "ops_per_cycle": len(self.ops),
                      "known_defect_ops_left_out": left_out}

    def _op(self, call: str, inst: I.Instance) -> Op:
        def check(result, exc):
            self._check(call, inst, result, exc)

        kind = f"{call} n={inst.n}"
        tag = (call, inst.name.rsplit("-n", 1)[0], inst.n, inst.scale_exp)
        if call == "solve_hull":
            return Op(kind, linsolve, "solve_hull", (inst.system,), {"method": "auto"},
                      check, DECLINES + (SingularInside,), tag)
        if call == "classify_all":
            # classify_all must answer "unknown" past its cap, never raise.
            return Op(kind, classify, "classify_all", (inst.A,),
                      {"cap_evals": POLY_CLASSIFY_CAP}, check, (), tag)
        return Op(kind, ranges, call, (inst.A,), {}, check, DECLINES, tag)

    def _oracle(self, inst: I.Instance, fname: str, *args):
        """Oracle reference for an n = 3 instance, computed once per run."""
        key = (inst.name, inst.scale_exp, fname)
        if key not in self.oracle_cache:
            try:
                self.oracle_cache[key] = getattr(oracle, fname)(*args)
            except IvmatError as exc:
                self.oracle_cache[key] = exc
        ref = self.oracle_cache[key]
        if isinstance(ref, IvmatError):
            raise CheckFailed(f"the oracle reference raised {type(ref).__name__}: {ref}")
        return ref

    def _oracle_det(self, inst: I.Instance) -> Interval:
        return self._oracle(inst, "det_range", inst.A)

    def _check(self, call: str, inst: I.Instance, result, exc) -> None:
        verdict = _verdict(call, result, exc)
        key = (inst.name, call)
        if inst.scale_exp == 0:
            self.verdicts[key] = verdict
        elif key in self.verdicts and self.verdicts[key] != verdict:
            raise CheckFailed(f"verdict changes at scale 1e{inst.scale_exp}: "
                              f"{self.verdicts[key]} -> {verdict}")
        if exc is not None:
            return
        getattr(self, f"_check_{call}")(inst, result)

    def _check_classify_all(self, inst, reports) -> None:
        A = inst.A
        for rep in reports:
            _require(rep.verdict in ("yes", "no", "unknown"),
                     f"{rep.matrix_class}: verdict {rep.verdict!r}")
            witness = rep.certificate.get("witness")
            if isinstance(witness, np.ndarray) and witness.shape == A.lo.shape:
                _in_box(A, witness, f"{rep.matrix_class} witness")
            if inst.n == 3 and rep.matrix_class == "Regular" and rep.is_yes:
                det = self._oracle_det(inst)
                _require(det.lo > 0 or det.hi < 0,
                         "Regular: yes, but the oracle determinant range holds zero")

    def _check_det_range(self, inst, res) -> None:
        _reproduces(inst.A, res, _det, "det")
        if inst.n == 3:
            ref = self._oracle_det(inst)
            scale = max(abs(ref.lo), abs(ref.hi), 1e-300)
            _close(res.value.lo, ref.lo, TOL_DET, scale, "det lower vs oracle")
            _close(res.value.hi, ref.hi, TOL_DET, scale, "det upper vs oracle")

    def _check_solve_hull(self, inst, res) -> None:
        hull = res.hull
        _require(np.all(np.isfinite(hull.lo)) and np.all(np.isfinite(hull.hi))
                 and np.all(hull.lo <= hull.hi), "hull is not a finite box")
        if inst.n == 3:
            ref = self._oracle(inst, "solution_hull", inst.A, inst.b)
            if res.exactness == linsolve.EXACT:
                scale = _mag(ref.lo, ref.hi)
                for i in range(inst.n):
                    _close(hull.lo[i], ref.lo[i], TOL_SOLVE, scale, f"x[{i}] lower vs oracle")
                    _close(hull.hi[i], ref.hi[i], TOL_SOLVE, scale, f"x[{i}] upper vs oracle")
            else:
                _contains(hull.lo, hull.hi, np.stack([ref.lo, ref.hi]), "oracle hull bounds")
            return
        members = _members(self.check_rng, inst.A, 4)
        xs = np.linalg.solve(members, np.broadcast_to(inst.b.mid, (4, inst.n))[..., None])[..., 0]
        _contains(hull.lo, hull.hi, xs, "sampled member solutions")

    def _check_eig_ranges(self, inst, results) -> None:
        symmetric = classify.is_symmetric_family(inst.A)
        for i, res in enumerate(results):
            f = _sym_eig(i) if symmetric else _real_eig(i)
            _reproduces(inst.A, res, f, f"eig {i + 1}")

    def _check_inverse_bounds(self, inst, res) -> None:
        H = res.value
        _require(np.all(np.isfinite(H.lo)) and np.all(np.isfinite(H.hi))
                 and np.all(H.lo <= H.hi), "inverse hull is not a finite box")
        for name, att in res.attainers.items():
            for member in (att if att.ndim == 3 else [att]):
                _in_box(inst.A, member, f"inverse {name} attainer")
        if "min" in res.attainers:
            inverses = [np.linalg.inv(res.attainers[k]) for k in ("min", "max")]
            _contains(H.lo, H.hi, np.stack(inverses), "attainer inverses")
        if inst.n == 3:
            members = _members(self.check_rng, inst.A, 20)
            _contains(H.lo, H.hi, np.linalg.inv(members), "sampled member inverses")

    def _check_nonneg_ranges(self, inst, out) -> None:
        fns = {"rho": _rho, "sigma_max": _sigma(0),
               "lambda_max": lambda m: np.linalg.eigvalsh(m)[-1]}
        for key, res in out.items():
            if isinstance(res, UpperBound):
                _in_box(inst.A, res.attainer, f"{key} attainer")
                _close(float(fns[key](res.attainer)), res.value, TOL_DET,
                       max(abs(res.value), 1e-300), f"{key} upper bound")
            else:
                _reproduces(inst.A, res, fns[key], key)

    def _check_sigma_min_range(self, inst, res) -> None:
        _reproduces(inst.A, res, _sigma(-1), "sigma_min")


# -- interval-loops ---------------------------------------------------------

# Instances per cycle for each size (three calls each). Every size appears
# in every cycle. The repeats put the median inside the block of n = 10 LU
# calls and the 90th percentile inside the block of n = 20 LU and cube calls
# (with n = 30 elimination), so neither falls between two single calls of
# different kinds, and a 20 s run holds over two hundred operations.
LOOP_REPS = ((10, 32), (20, 3), (30, 1), (40, 1), (50, 1))


class IntervalLoops:
    """Scalar-Python interval arithmetic: elimination, LU and cube hulls."""

    name = "interval-loops"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.check_rng = np.random.default_rng([seed, 103])
        g = I.gen
        self.ops: list[Op] = []
        for n, reps in LOOP_REPS:
            for _ in range(reps):
                A = g.make_h_instance(rng, n)
                system = IntervalLinearSystem(A, g.make_rhs(rng, n, "mixed"))
                D = g.make_diag_psd_instance(rng, n)
                self.ops += [
                    Op(f"interval_gauss_elim n={n}", linsolve, "interval_gauss_elim",
                       (system,), check=self._gauss_check(system)),
                    Op(f"interval_lu n={n}", linsolve, "interval_lu", (A,),
                       check=self._lu_check(A)),
                    Op(f"cube_hull_diag_interval n={n}", ranges, "cube_hull_diag_interval",
                       (D,), check=self._cube_check(D)),
                ]
        self.sizes = {"n_reps_per_cycle": [list(p) for p in LOOP_REPS],
                      "ops_per_cycle": len(self.ops)}

    def _gauss_check(self, system):
        def check(res, exc):
            members = _members(self.check_rng, system.A, 8)
            rhs = system.b.lo + (system.b.hi - system.b.lo) * self.check_rng.random((8, system.n))
            xs = np.linalg.solve(members, rhs[..., None])[..., 0]
            _contains(res.hull.lo, res.hull.hi, xs, "sampled member solutions")
        return check

    def _lu_check(self, A):
        def check(factors, exc):
            L, U = factors
            n = A.rows
            _require(np.all(np.diag(L.lo) == 1.0) and np.all(np.diag(L.hi) == 1.0),
                     "L is not unit diagonal")
            _require(not np.any(np.triu(L.lo, 1)) and not np.any(np.triu(L.hi, 1))
                     and not np.any(np.tril(U.lo, -1)) and not np.any(np.tril(U.hi, -1)),
                     "factors are not triangular")
            lo, hi = _interval_matmul(L.lo, L.hi, U.lo, U.hi)
            _contains(lo, hi, np.stack([A.lo, A.hi]), f"input entries (n={n})")
        return check

    def _cube_check(self, D):
        def check(hull, exc):
            members = np.broadcast_to(D.mid, (8,) + D.lo.shape).copy()
            idx = np.arange(D.rows)
            diag_lo, diag_hi = np.diag(D.lo), np.diag(D.hi)
            members[:, idx, idx] = diag_lo + (diag_hi - diag_lo) * self.check_rng.random((8, D.rows))
            _contains(hull.lo, hull.hi, members @ members @ members, "sampled member cubes")
        return check


# -- enum-small ---------------------------------------------------------------

ENUM_N = (3, 4)
PARAM_K = (4, 8, 12)
ORTHANT_K = (2, 3, 4)
SIGN_N = (12, 16, 20)
P_TEST_N = (6, 8)   # H boxes with a positive diagonal: every sign vertex is P
PARAM_N = 4


def make_singular_box(rng: np.random.Generator, n: int) -> IntervalMatrix:
    """Box around a singular midpoint, so it holds a singular member."""
    mid = rng.uniform(-1.0, 1.0, (n, n))
    mid[-1] = rng.uniform(-1.0, 1.0, n - 1) @ mid[:-1]
    return IntervalMatrix.from_midrad(mid, rng.uniform(0.0, 0.05, (n, n)))


CUBE_WIDTH = 0.4   # grid oracle: 41 points on each varying diagonal entry


def make_cube_box(rng: np.random.Generator, n: int) -> IntervalMatrix:
    """Diagonal-PSD box whose first three diagonal entries vary by CUBE_WIDTH.

    The grid oracle takes at most three varying entries; a fixed width fixes
    its grid at 41^3 points, whatever the seed. The generator's lower
    endpoint stays positive semidefinite, since its margin is at least 0.3.
    """
    D = I.gen.make_diag_psd_instance(rng, n)
    mid = D.mid
    rad = np.zeros((n, n))
    rad[np.diag_indices(min(n, 3))] = 0.5 * CUBE_WIDTH
    return IntervalMatrix.from_midrad(mid, rad)


class EnumSmall:
    """Exponential paths: oracle enumeration, inverse-M, parametric, sign vectors.

    Oracle operations come first in each cycle; the formula operations on
    the same instance are then compared with their results.
    """

    name = "enum-small"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        self.check_rng = np.random.default_rng([seed, 104])
        g = I.gen
        self.reference: dict = {}
        oracle_ops, formula_ops = [], []
        for n in ENUM_N:
            invm = I.Instance(f"inversem-n{n}", n, g.make_inverse_m_instance(rng, n),
                              g.make_rhs(rng, n, "mixed"))
            stable = I.Instance(f"signstable-n{n}", n, g.make_sign_stable_instance(rng, n))
            singular = make_singular_box(rng, n)
            cube = I.Instance(f"cube-n{n}", n, make_cube_box(rng, n))
            oracle_ops += [
                self._oracle_op(f"oracle.det_range n={n}", "det_range", invm, (invm.A,)),
                self._oracle_op(f"oracle.det_range n={n}", "det_range", stable, (stable.A,)),
                self._oracle_op(f"oracle.solution_hull n={n}", "solution_hull", invm,
                                (invm.A, invm.b)),
                Op(f"oracle.find_singular_member n={n}", oracle, "find_singular_member",
                   (singular,), check=self._singular_check(singular)),
                self._oracle_op(f"oracle.cube_range n={n}", "cube_range", cube, (cube.A,)),
                Op(f"oracle.range_sampling n={n}", oracle, "range_sampling",
                   (_det, stable.A), check=self._pair_check(stable, "det_range", TOL_DET)),
            ]
            formula_ops += [
                Op(f"is_inverse_m_interval n={n}", classify, "is_inverse_m_interval",
                   (invm.A,), check=self._inverse_m_check(invm.A)),
                Op(f"hull_bounds_inverse_m n={n}", linsolve, "hull_bounds_inverse_m",
                   (invm.system,),
                   check=self._pair_check(invm, "solution_hull", TOL_SOLVE, "hull")),
                Op(f"det_range inverse-m n={n}", ranges, "det_range", (invm.A,),
                   check=self._pair_check(invm, "det_range", TOL_DET, "value")),
                Op(f"det_range sign-stable n={n}", ranges, "det_range", (stable.A,),
                   check=self._pair_check(stable, "det_range", TOL_DET, "value")),
                Op(f"cube_hull_diag_interval n={n}", ranges, "cube_hull_diag_interval",
                   (cube.A,), check=self._cube_pair_check(cube)),
            ]
        for n in P_TEST_N:
            H = g.make_h_instance(rng, n, mixed_diag_signs=False)
            formula_ops.append(Op(f"is_p_matrix_special n={n}", classify, "is_p_matrix_special",
                                  (H,), check=self._p_check))
        param_ops = []
        for k in PARAM_K:
            P = I.make_rank_one_family(rng, PARAM_N, k, symmetric=True)
            param_ops.append(Op(f"is_pd_parametric k={k}", parametric, "is_pd_parametric",
                                (P,), check=self._pd_check(P)))
        for k in PARAM_K:
            P = I.make_rank_one_family(rng, PARAM_N, k)
            param_ops.append(Op(f"hull_rank_one k={k}", parametric, "hull_rank_one",
                                (P,), check=self._param_hull_check(P, attainers=True)))
        for k in ORTHANT_K:
            P = I.make_single_equation_family(rng, PARAM_N, k)
            param_ops.append(Op(f"hull_orthant_lp k={k}", parametric, "hull_orthant_lp",
                                (P,), check=self._param_hull_check(P, attainers=False)))
        sign_ops = []
        for n in SIGN_N:
            N = g.make_nonneg_instance(rng, n)
            M = g.make_m_instance(rng, n)
            sign_ops += [
                Op(f"norm_range inf1 n={n}", ranges, "norm_range", (N,), {"which": "inf1"},
                   check=self._norm_check(N)),
                Op(f"rr_range n={n}", ranges, "rr_range", (M,), check=self._rr_check(M)),
            ]
        self.ops = oracle_ops + formula_ops + param_ops + sign_ops
        self.sizes = {"oracle_n": list(ENUM_N), "param_n": PARAM_N,
                      "param_k": list(PARAM_K), "orthant_k": list(ORTHANT_K),
                      "sign_vector_n": list(SIGN_N), "p_test_n": list(P_TEST_N),
                      "ops_per_cycle": len(self.ops)}

    # The oracle result of each (instance, function) is kept as the reference
    # the formula operations on the same instance are compared with.
    def _oracle_op(self, kind, fname, inst, args) -> Op:
        def check(result, exc):
            if fname == "det_range":
                _interval_ok(result)
                members = _members(self.check_rng, inst.A, 8)
                dets = np.linalg.det(members)
                _contains([result.lo], [result.hi], dets[:, None], "sampled member determinants")
            elif fname == "solution_hull":
                members = _members(self.check_rng, inst.A, 8)
                rhs = _members(self.check_rng, inst.b, 8)
                xs = np.linalg.solve(members, rhs[..., None])[..., 0]
                _contains(result.lo, result.hi, xs, "sampled member solutions")
            else:
                _require(np.all(result.lo <= result.hi), "grid range is not a box")
            self.reference[(inst.name, fname)] = result
        return Op(kind, oracle, fname, args, check=check)

    def _reference(self, inst, fname):
        key = (inst.name, fname)
        if key not in self.reference:
            if fname == "solution_hull":
                self.reference[key] = oracle.solution_hull(inst.A, inst.b)
            else:
                self.reference[key] = getattr(oracle, fname)(inst.A)
        return self.reference[key]

    def _pair_check(self, inst, fname, tol, attr=None):
        def check(result, exc):
            ref = self._reference(inst, fname)
            got = getattr(result, attr) if attr else result
            lo, hi = np.atleast_1d(got.lo), np.atleast_1d(got.hi)
            ref_lo, ref_hi = np.atleast_1d(ref.lo), np.atleast_1d(ref.hi)
            scale = max(_mag(ref_lo, ref_hi), 1e-300)
            _require(np.all(np.abs(lo - ref_lo) <= tol * scale)
                     and np.all(np.abs(hi - ref_hi) <= tol * scale),
                     f"differs from oracle.{fname} beyond {tol:g}")
        return check

    def _cube_pair_check(self, inst):
        def check(hull, exc):
            ref = self._reference(inst, "cube_range")
            worst = max(float(np.max(np.abs(hull.lo - ref.lo))),
                        float(np.max(np.abs(hull.hi - ref.hi))))
            _require(worst <= TOL_CUBE, f"cube hull deviates {worst:.3e} from the grid oracle")
        return check

    def _singular_check(self, A):
        def check(witness, exc):
            _require(witness is not None, "no singular member found in a box around "
                                          "a singular midpoint")
            _in_box(A, witness, "singular witness")
            _require(abs(np.linalg.det(witness)) <= 1e-9 * _mag(A.lo, A.hi) ** A.rows,
                     "witness is not singular")
        return check

    def _inverse_m_check(self, A):
        def check(report, exc):
            _require(report.is_yes, f"inverse-M instance reported {report.verdict!r}")
            expected = 1 << int(np.count_nonzero(A.hi > A.lo))
            _require(report.certificate.get("vertices_checked") == expected,
                     "not every vertex was checked")
            for member in _members(self.check_rng, A, 8):
                inv = np.linalg.inv(member)
                off = inv[~np.eye(A.rows, dtype=bool)]
                _require(np.all(off <= SLACK * _mag(inv)) and np.all(member.sum(axis=1) > 0),
                         "a sampled member is not an inverse M-matrix")
        return check

    @staticmethod
    def _p_check(report, exc):
        # An H-matrix box with a positive diagonal holds only P-matrices.
        _require(report.is_yes, f"P-matrix box reported {report.verdict!r}")

    def _param_points(self, P, count: int) -> np.ndarray:
        box = P.box
        return box.lo + (box.hi - box.lo) * self.check_rng.random((count, box.n))

    @staticmethod
    def _assemble(P, p):
        A = sum(pk * Ak for pk, Ak in zip(p, P.coeff_matrices))
        b = sum(pk * bk for pk, bk in zip(p, P.rhs_vectors))
        return A, b

    def _pd_check(self, P):
        def check(report, exc):
            lam = report.certificate.get("lambda_min")
            for p in self._param_points(P, 8):
                A, _ = self._assemble(P, p)
                sampled = np.linalg.eigvalsh(A)[0]
                _require(sampled >= lam - SLACK * _mag(A),
                         "a sampled parameter beats the reported vertex minimum")
            _require(report.is_yes == (lam > 0), "verdict disagrees with lambda_min")
        return check

    def _param_hull_check(self, P, attainers: bool):
        def check(res, exc):
            xs = [np.linalg.solve(*self._assemble(P, p)) for p in self._param_points(P, 8)]
            _contains(res.hull.lo, res.hull.hi, np.stack(xs), "sampled parameter solutions")
            if attainers:
                scale = _mag(res.hull.lo, res.hull.hi)
                for i in range(P.n):
                    x_lo = np.linalg.solve(*self._assemble(P, res.details["attainers_min"][i]))
                    x_hi = np.linalg.solve(*self._assemble(P, res.details["attainers_max"][i]))
                    _close(x_lo[i], res.hull.lo[i], TOL_SOLVE, scale, f"x[{i}] lower attainer")
                    _close(x_hi[i], res.hull.hi[i], TOL_SOLVE, scale, f"x[{i}] upper attainer")
        return check

    @staticmethod
    def _norm_check(N):
        # For a nonnegative matrix the inf-to-1 norm is the sum of its entries.
        def check(res, exc):
            _interval_ok(res.value)
            scale = float(N.hi.sum())
            _close(res.value.lo, float(N.lo.sum()), SLACK, scale, "inf1 norm lower")
            _close(res.value.hi, float(N.hi.sum()), SLACK, scale, "inf1 norm upper")
        return check

    @staticmethod
    def _rr_check(M):
        # An M-matrix has a nonnegative inverse, whose inf-to-1 norm is its sum.
        def check(res, exc):
            _interval_ok(res.value)
            lo = 1.0 / float(np.linalg.inv(M.lo).sum())
            hi = 1.0 / float(np.linalg.inv(M.hi).sum())
            _close(res.value.lo, lo, SLACK, hi, "regularity radius lower")
            _close(res.value.hi, hi, SLACK, hi, "regularity radius upper")
        return check


# -- cli-cold -----------------------------------------------------------------

CLI_SIZES = (2, 3, 4)


def _iv(x):
    if isinstance(x, Interval):
        return [x.lo, x.hi]
    if isinstance(x, IntervalVector):
        return [[float(lo), float(hi)] for lo, hi in zip(x.lo, x.hi)]
    return [[[float(lo), float(hi)] for lo, hi in zip(rl, rh)] for rl, rh in zip(x.lo, x.hi)]


def _range_fields(r):
    if isinstance(r, UpperBound):
        return [r.value, r.strategy]
    return [_iv(r.value), r.strategy]


# command -> (argv words, input kind, library call, fields of the library
# result, the same fields of the CLI JSON result)
CLI_COMMANDS = {
    "classify": (["classify"], "h",
                 lambda A: classify.classify_all(A, cap_evals=CLI_CAP),
                 lambda r: [[x.matrix_class, x.verdict] for x in r],
                 lambda j: [[d["class"], d["verdict"]] for d in j]),
    "range det": (["range", "det"], "m",
                  lambda A: ranges.det_range(A, cap_evals=CLI_CAP),
                  _range_fields, lambda j: [j["value"], j["strategy"]]),
    "range eig": (["range", "eig"], "diagpsd", lambda A: ranges.eig_ranges(A),
                  lambda rs: [_range_fields(r) for r in rs],
                  lambda j: [[d["value"], d["strategy"]] for d in j]),
    "range inverse": (["range", "inverse"], "invnonneg",
                      lambda A: ranges.inverse_bounds(A, cap_evals=CLI_CAP),
                      _range_fields, lambda j: [j["value"], j["strategy"]]),
    "range cube": (["range", "cube"], "diagpsd",
                   lambda A: ranges.cube_hull_diag_interval(A), _iv, lambda j: j["hull"]),
    "range norm": (["range", "norm"], "nonneg", lambda A: ranges.norm_range(A, which="inf"),
                   _range_fields, lambda j: [j.get("value", j.get("upper")), j["strategy"]]),
    "solve": (["solve"], "system",
              lambda S: linsolve.solve_hull(S, method="auto", cap_evals=CLI_CAP,
                                            cfg=oracle.OracleConfig(vertex_cap=CLI_CAP)),
              lambda r: [_iv(r.hull), r.method, r.exactness],
              lambda j: [j["hull"], j["method"], j["exactness"]]),
    "param hull": (["param", "hull"], "rank-one", lambda P: parametric.hull_rank_one(P),
                   lambda r: [_iv(r.hull), r.method], lambda j: [j["hull"], j["method"]]),
    "param pd": (["param", "pd"], "pd", lambda P: parametric.is_pd_parametric(P),
                 lambda r: [r.matrix_class, r.verdict], lambda j: [j["class"], j["verdict"]]),
    "verify det": (["verify", "--op", "det"], "m", None, None, lambda j: j["ok"]),
}
CLI_EXTRA_ARGS = {"solve": ["--method", "auto"]}


def _same(a, b) -> bool:
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= 1e-12 * max(abs(float(a)), abs(float(b)), 1e-300)
    return a == b


def _json_payload(stdout: str) -> dict:
    start = stdout.find("\n{") + 1 if not stdout.startswith("{") else 0
    return json.loads(stdout[start:])


class CliCold:
    """Sequential ``python -m ivmat.cli`` processes over seeded problem files.

    Each call pays interpreter start and imports. In a traced run the same
    commands go through ``ivmat.cli.main`` in-process instead.
    """

    name = "cli-cold"

    def __init__(self, seed: int, workdir: str, src_dir: str, in_process: bool = False):
        rng = np.random.default_rng([seed, 1])
        os.makedirs(workdir, exist_ok=True)
        g = I.gen
        self.src_dir = src_dir
        self.expected: dict = {}
        self.ops: list[Op] = []
        self.paths: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        for i, (command, (words, kind, _, _, _)) in enumerate(CLI_COMMANDS.items()):
            n = CLI_SIZES[i % len(CLI_SIZES)]
            if kind == "system":
                A = g.make_h_instance(rng, n)
                obj = IntervalLinearSystem(A, g.make_rhs(rng, n, "mixed"))
                payload = I.system_payload(obj.A, obj.b)
            elif kind in ("rank-one", "pd"):
                obj = I.make_rank_one_family(rng, n, 3, symmetric=kind == "pd")
                payload = I.parametric_payload(obj)
            else:
                maker = {"h": g.make_h_instance, "m": g.make_m_instance,
                         "diagpsd": g.make_diag_psd_instance,
                         "invnonneg": g.make_inverse_nonneg_instance,
                         "nonneg": g.make_nonneg_instance}[kind]
                obj = maker(rng, n)
                payload = I.matrix_payload(obj)
            path = I.write_problem(workdir, f"{i:02d}-{kind}-n{n}.json", payload)
            self.paths.append(path)
            argv = words + [path] + CLI_EXTRA_ARGS.get(command, []) + ["--format", "json"]
            self.ops.append(Op(f"{command} n={n}", self, "run_main" if in_process else "run_process",
                               (argv,), check=self._check(command, obj),
                               declines=(CliDeclined,)))
        self.sizes = {"n": list(CLI_SIZES), "commands": list(CLI_COMMANDS),
                      "ops_per_cycle": len(self.ops)}

    def run_process(self, argv):
        proc = subprocess.run([sys.executable, "-m", "ivmat.cli"] + argv, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return self._outcome(proc.returncode, proc.stdout, proc.stderr)

    def run_main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return self._outcome(code, out.getvalue(), err.getvalue())

    @staticmethod
    def _outcome(code, stdout, stderr):
        if code == 1 and stderr.startswith("error:"):
            raise CliDeclined(stderr.strip())
        if code != 0:
            raise CliFailed(f"exit {code}: {stderr.strip()[-300:]}")
        return stdout

    def _check(self, command, obj):
        _, _, call, lib_fields, json_fields = CLI_COMMANDS[command]

        def check(stdout, exc):
            if call is None:
                _require(exc is None and json_fields(_json_payload(stdout)["result"]) is True,
                         f"{command}: verification failed")
                return
            if command not in self.expected:
                try:
                    self.expected[command] = ("ok", lib_fields(call(obj)))
                except DECLINES as declined:
                    self.expected[command] = ("declined", type(declined).__name__)
            status, want = self.expected[command]
            if exc is not None:
                _require(status == "declined", f"{command}: CLI declined, library answered")
                return
            _require(status == "ok", f"{command}: CLI answered, library declined ({want})")
            got = json_fields(_json_payload(stdout)["result"])
            _require(_same(got, want), f"{command}: JSON output differs from the library")
        return check


class KnownDefects(PolyDispatch):
    """The whole ``poly-dispatch`` pool, scaled copies and known defects included.

    Run by hand: on the code the benchmark was written against about one
    operation in ten fails, so ``correct`` is false.
    """

    name = "known-defects"

    def __init__(self, seed: int):
        super().__init__(seed, known_defects=True)


WORKLOADS = {"cli-cold": CliCold, "poly-dispatch": PolyDispatch,
             "interval-loops": IntervalLoops, "enum-small": EnumSmall,
             "known-defects": KnownDefects}
