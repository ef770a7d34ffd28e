"""Linear parametric interval matrices A(p) = sum_k A_k p_k and systems.

Tractable cases only: vertex positive definiteness, rank-one coefficient
structure (solution extrema at parameter vertices), and the
single-equation-per-parameter structure whose solution set decomposes into
2^K orthants, each described by linear inequalities and processed by LP.
Past ``cap_evals`` parameter vertices or orthants, each raises CapExceeded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernel
from .classify import STRICT_RTOL, ClassReport, NO, YES
from .errors import (
    CrossDependency,
    EmptySolutionSet,
    OutOfBox,
    PreconditionViolated,
    RankTooHigh,
    SingularMatrix,
    SingularVertex,
    UnboundedSolutionSet,
)
from .intervals import DEFAULT_CAP, IntervalVector, _is_symmetric, _tol, vertex_chunks
from .linsolve import EXACT, HullResult

@dataclass
class ParametricSystem:
    """A(p) x = b(p) with A(p) = sum A_k p_k, b(p) = sum b_k p_k, p in a box.

    Constant terms are modeled as parameters with degenerate intervals;
    such parameters never branch in the vertex/orthant enumerations.
    """

    coeff_matrices: list[np.ndarray]
    rhs_vectors: list[np.ndarray]
    box: IntervalVector

    def __post_init__(self):
        self.coeff_matrices = [np.asarray(a, dtype=float) for a in self.coeff_matrices]
        self.rhs_vectors = [np.asarray(v, dtype=float) for v in self.rhs_vectors]
        if len(self.coeff_matrices) != len(self.rhs_vectors):
            raise ValueError("coefficient matrices and rhs vectors differ in count")
        if len(self.coeff_matrices) != self.box.n:
            raise ValueError("parameter box length does not match the term count")
        if not self.coeff_matrices:
            raise ValueError("at least one parametric term is required")
        n = self.coeff_matrices[0].shape[0]
        for a in self.coeff_matrices:
            if a.shape != (n, n):
                raise ValueError("all coefficient matrices must be square and same size")
        for v in self.rhs_vectors:
            if v.shape != (n,):
                raise ValueError("all rhs vectors must have the matrix dimension")

    @property
    def n(self) -> int:
        return self.coeff_matrices[0].shape[0]

    @property
    def num_params(self) -> int:
        return len(self.coeff_matrices)

    def varying_indices(self) -> np.ndarray:
        return np.flatnonzero(self.box.rad > 0)


def eval_parametric(P: ParametricSystem, p) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (A(p), b(p)); p must lie in the parameter box."""
    p = np.asarray(p, dtype=float)
    if p.shape != (P.num_params,):
        raise ValueError("parameter vector has the wrong length")
    if not P.box.contains_point(p, tol=_tol(STRICT_RTOL, p)):
        raise OutOfBox("parameter vector lies outside its box")
    A = sum(pk * Ak for pk, Ak in zip(p, P.coeff_matrices))
    b = sum(pk * bk for pk, bk in zip(p, P.rhs_vectors))
    return np.asarray(A, dtype=float), np.asarray(b, dtype=float)


def is_pd_parametric(P: ParametricSystem, cap_evals: int = DEFAULT_CAP) -> ClassReport:
    """Positive definiteness of A(p) over the whole box via vertex checks.

    A(p), being affine in p, is positive definite on the box exactly when
    it is at every parameter vertex.
    """
    for idx, Ak in enumerate(P.coeff_matrices):
        if not _is_symmetric(Ak):
            raise PreconditionViolated(
                f"coefficient matrix {idx} is not symmetric, so A(p) is not "
                "symmetric for all p")
    worst = None
    vertices = vertex_chunks(P.box.lo, P.box.hi, cap_evals)
    for p in itertools.chain.from_iterable(vertices):
        A, _ = eval_parametric(P, p)
        lam = float(kernel.sym_eigenvalues(A)[-1])
        if worst is None or lam < worst[0]:
            worst = (lam, p.copy())
        if lam <= _tol(STRICT_RTOL, A):
            return ClassReport("PositiveDefiniteParametric", NO, {
                "witness_vertex": p.copy(),
                "lambda_min": lam,
            }, cost_note="exponential in the parameter count")
    return ClassReport("PositiveDefiniteParametric", YES, {
        "worst_vertex": worst[1],
        "lambda_min": worst[0],
    }, cost_note="exponential in the parameter count")


def hull_rank_one(P: ParametricSystem, cap_evals: int = DEFAULT_CAP) -> HullResult:
    """Exact hull under rank-one coefficients with no cross dependencies.

    Every varying parameter must have a coefficient matrix of numerical
    rank at most one and must not appear in both the matrix and the rhs;
    solution extrema are then attained at parameter vertices.
    """
    for idx in P.varying_indices():
        Ak = P.coeff_matrices[int(idx)]
        bk = P.rhs_vectors[int(idx)]
        if np.any(Ak != 0.0):
            svals = kernel.singular_values(Ak)
            if len(svals) > 1 and svals[1] > _tol(1e-10, svals):
                raise RankTooHigh(
                    f"coefficient matrix of parameter {idx} has rank above one")
            if np.any(bk != 0.0):
                raise CrossDependency(
                    f"parameter {idx} appears in both the matrix and the rhs")
    n = P.n
    hull_lo = np.full(n, np.inf)
    hull_hi = np.full(n, -np.inf)
    attain_lo = [None] * n
    attain_hi = [None] * n
    vertices = vertex_chunks(P.box.lo, P.box.hi, cap_evals)
    for p in itertools.chain.from_iterable(vertices):
        A, b = eval_parametric(P, p)
        try:
            x = kernel.solve(A, b)
        except SingularMatrix as exc:
            raise SingularVertex(
                f"A(p) is singular at the parameter vertex {p}") from exc
        for i in range(n):
            if x[i] < hull_lo[i]:
                hull_lo[i] = x[i]
                attain_lo[i] = p.copy()
            if x[i] > hull_hi[i]:
                hull_hi[i] = x[i]
                attain_hi[i] = p.copy()
    return HullResult(IntervalVector(hull_lo, hull_hi), "rank-one-vertex", EXACT, {
        "attainers_min": attain_lo,
        "attainers_max": attain_hi,
    })


def _single_equation_rows(P: ParametricSystem) -> dict[int, int]:
    """Map each varying parameter to the single equation row it touches."""
    rows: dict[int, int] = {}
    for idx in P.varying_indices():
        idx = int(idx)
        Ak = P.coeff_matrices[idx]
        bk = P.rhs_vectors[idx]
        touched = set(np.flatnonzero(np.any(Ak != 0.0, axis=1)))
        touched |= set(np.flatnonzero(bk != 0.0))
        if not touched:
            continue  # parameter has no effect
        if len(touched) > 1:
            raise PreconditionViolated(
                f"parameter {idx} is involved in equations {sorted(touched)}; "
                "the orthant decomposition needs exactly one")
        rows[idx] = int(touched.pop())
    return rows


def hull_orthant_lp(P: ParametricSystem, cap_evals: int = DEFAULT_CAP) -> HullResult:
    """Exact hull when each varying parameter touches a single equation.

    The solution set is the union over sign vectors z of polyhedra
    described by linear inequalities in x; per orthant and coordinate the
    extrema come from an LP. Orthant boundaries overlap, which is harmless
    for min/max. Infeasible orthants are skipped; all-infeasible raises
    EmptySolutionSet.
    """
    rows = _single_equation_rows(P)
    varying = sorted(rows)
    k = len(varying)
    orthants = vertex_chunks(-np.ones(k), np.ones(k), cap_evals)
    n = P.n
    mid_p = P.box.mid
    A_mid = sum(pk * Ak for pk, Ak in zip(mid_p, P.coeff_matrices))
    b_mid = sum(pk * bk for pk, bk in zip(mid_p, P.rhs_vectors))
    rad = P.box.rad

    hull_lo = np.full(n, np.inf)
    hull_hi = np.full(n, -np.inf)
    feasible = False
    for signs in itertools.chain.from_iterable(orthants):
        z = dict(zip(varying, signs))
        S_A = np.zeros((n, n))
        S_b = np.zeros(n)
        for idx in varying:
            S_A += rad[idx] * z[idx] * P.coeff_matrices[idx]
            S_b += rad[idx] * z[idx] * P.rhs_vectors[idx]
        rows_ub = [A_mid - S_A, -A_mid - S_A]
        rhs_ub = [b_mid - S_b, -b_mid - S_b]
        orthant_rows = []
        orthant_rhs = []
        for idx in varying:
            r = rows[idx]
            orthant_rows.append(-z[idx] * P.coeff_matrices[idx][r])
            orthant_rhs.append(-z[idx] * P.rhs_vectors[idx][r])
        a_ub = np.vstack(rows_ub + ([np.array(orthant_rows)] if orthant_rows else []))
        b_ub = np.concatenate(rhs_ub + ([np.array(orthant_rhs)] if orthant_rhs else []))
        for i in range(n):
            c = np.zeros(n)
            c[i] = 1.0
            low = kernel.lp_solve(c, a_ub=a_ub, b_ub=b_ub)
            if low.status == "infeasible":
                break
            if low.status == "unbounded":
                raise UnboundedSolutionSet(
                    "solution set is unbounded; no interval hull exists")
            high = kernel.lp_solve(c, a_ub=a_ub, b_ub=b_ub, maximize=True)
            if high.status == "unbounded":
                raise UnboundedSolutionSet(
                    "solution set is unbounded; no interval hull exists")
            feasible = True
            hull_lo[i] = min(hull_lo[i], low.objective)
            hull_hi[i] = max(hull_hi[i], high.objective)
    if not feasible:
        raise EmptySolutionSet("every orthant subproblem is infeasible")
    return HullResult(IntervalVector(hull_lo, hull_hi), "orthant-lp", EXACT, {
        "orthants": 1 << k,
    })
