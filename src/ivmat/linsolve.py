"""Interval hulls and enclosures for interval linear systems.

Closed-form hulls exist per matrix class and right-hand-side sign case;
interval Gaussian elimination provides an enclosure for H-matrices that is
the exact hull for M-matrices with sign-restricted right-hand sides; the
comparison-matrix (hbrnk) bound covers every H-matrix system with an
enclosure. Results carry an exactness flag that is never claimed beyond
what the backing argument supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import classify, kernel, oracle
from .errors import (
    CapExceeded,
    IvmatError,
    NoApplicableCase,
    PivotContainsZero,
    PreconditionViolated,
)
from .intervals import (
    DEFAULT_CAP,
    IntervalMatrix,
    IntervalVector,
    _tol,
    checkerboard_box,
    checkerboard_leq,
    checkerboard_rhs,
    checkerboard_vertices,
    idiv,
    imatmul,
    imul,
    isub,
    magnitude,
    sign_flip_at,
    vertex_chunks,
)

EXACT = "exact-hull"
ENCLOSURE = "enclosure"


@dataclass
class IntervalLinearSystem:
    A: IntervalMatrix
    b: IntervalVector

    def __post_init__(self):
        if not self.A.is_square:
            raise ValueError("system matrix must be square")
        if self.A.rows != self.b.n:
            raise ValueError("matrix and right-hand side dimensions differ")

    @property
    def n(self) -> int:
        return self.A.rows


@dataclass
class HullResult:
    hull: IntervalVector
    method: str
    exactness: str  # "exact-hull" | "enclosure"
    details: dict = field(default_factory=dict)


def _rhs_sign_case(b: IntervalVector) -> str | None:
    tol = _tol(classify.STRICT_RTOL, b.lo, b.hi)
    if np.all(b.lo >= -tol):
        return "nonneg"
    if np.all(b.hi <= tol):
        return "nonpos"
    if np.all((b.lo <= tol) & (b.hi >= -tol)):
        return "zero"
    return None


def hull_inverse_nonnegative(sys: IntervalLinearSystem) -> HullResult:
    """Exact hull for an inverse nonnegative matrix and sign-cased rhs.

    The three cases fix which endpoint matrix and endpoint rhs attain each
    bound; componentwise mixed-sign right-hand sides have no closed form
    here and raise NoApplicableCase.
    """
    if not classify.is_inverse_nonnegative_interval(sys.A).is_yes:
        raise PreconditionViolated("matrix is not inverse nonnegative")
    case = _rhs_sign_case(sys.b)
    A, b = sys.A, sys.b
    if case == "nonneg":
        lower = kernel.solve(A.hi, b.lo)
        upper = kernel.solve(A.lo, b.hi)
        detail = {"min": (A.hi.copy(), b.lo.copy()), "max": (A.lo.copy(), b.hi.copy())}
    elif case == "nonpos":
        lower = kernel.solve(A.lo, b.lo)
        upper = kernel.solve(A.hi, b.hi)
        detail = {"min": (A.lo.copy(), b.lo.copy()), "max": (A.hi.copy(), b.hi.copy())}
    elif case == "zero":
        lower = kernel.solve(A.lo, b.lo)
        upper = kernel.solve(A.lo, b.hi)
        detail = {"min": (A.lo.copy(), b.lo.copy()), "max": (A.lo.copy(), b.hi.copy())}
    else:
        raise NoApplicableCase(
            "rhs mixes signs componentwise; route to hbrnk (H-matrix) or the oracle")
    return HullResult(IntervalVector(lower, upper),
                      f"inverse-nonnegative (b {case})", EXACT, detail)


def hull_totally_positive(sys: IntervalLinearSystem) -> HullResult:
    """Exact hull for a totally positive matrix via checkerboard endpoints."""
    if not classify.is_totally_positive_interval(sys.A).is_yes:
        raise PreconditionViolated("matrix is not totally positive")
    A, b = sys.A, sys.b
    down_a, up_a = checkerboard_vertices(A)
    down_b, up_b = checkerboard_rhs(b)
    tol = _tol(classify.STRICT_RTOL, b.lo, b.hi)
    zero = np.zeros(sys.n)
    if checkerboard_leq(zero, down_b, tol):
        case = "checkerboard nonneg"
        v1 = kernel.solve(up_a, down_b)
        v2 = kernel.solve(down_a, up_b)
    elif checkerboard_leq(up_b, zero, tol):
        case = "checkerboard nonpos"
        v1 = kernel.solve(down_a, down_b)
        v2 = kernel.solve(up_a, up_b)
    elif _rhs_sign_case(b) == "zero":
        case = "zero in b"
        v1 = kernel.solve(down_a, down_b)
        v2 = kernel.solve(down_a, up_b)
    else:
        raise NoApplicableCase(
            "rhs matches none of the checkerboard sign cases")
    hull = checkerboard_box(v1, v2, tol=_tol(1e-9, v1, v2))
    return HullResult(hull, f"totally-positive ({case})", EXACT, {
        "checkerboard_lower": down_a, "checkerboard_upper": up_a,
        "rhs_lower": down_b, "rhs_upper": up_b,
    })


def hull_hbrnk(sys: IntervalLinearSystem) -> HullResult:
    """Comparison-matrix enclosure (hbrnk) for an H-matrix system.

    Componentwise: with M the inverse comparison matrix, u = M |b|,
    d_i = M_ii, the i-th solution component lies in
    (b_i + beta_i [-1, 1]) / (a_ii + alpha_i [-1, 1]). An enclosure in
    general: on some H-matrix (even M-matrix) systems it is strictly wider
    than the hull. When the midpoint matrix is diagonal the bound is the
    exact hull (the oracle-equality suite pins this down), and the result
    is flagged accordingly.
    """
    h = classify.is_h_matrix_interval(sys.A)
    if not h.is_yes:
        raise PreconditionViolated("matrix is not an H-matrix")
    A, b = sys.A, sys.b
    C = h.certificate["comparison_matrix"]
    M = kernel.inverse(C)
    mag_b = magnitude(b.lo, b.hi)
    u = M @ mag_b
    d = np.diag(M)
    alpha = np.diag(C) - 1.0 / d
    beta = u / d - mag_b
    den_lo, den_hi = np.diag(A.lo) - alpha, np.diag(A.hi) + alpha
    straddles = ~((den_lo > 0) | (den_hi < 0))
    if straddles.any():
        i = int(np.argmax(straddles))
        raise PivotContainsZero(
            f"hbrnk denominator [{den_lo[i]:.3e}, {den_hi[i]:.3e}] of component {i} "
            "contains zero; the H-matrix certificate does not hold numerically")
    x_lo, x_hi = idiv(b.lo - beta, b.hi + beta, den_lo, den_hi)
    mid = A.mid
    offdiag_mid = mid - np.diag(np.diag(mid))
    diagonal_midpoint = bool(np.max(np.abs(offdiag_mid), initial=0.0)
                             <= _tol(classify.STRICT_RTOL, mid))
    return HullResult(IntervalVector(x_lo, x_hi), "hbrnk",
                      EXACT if diagonal_midpoint else ENCLOSURE, {
                          "alpha": alpha, "beta": beta,
                      })


def _eliminate(A: IntervalMatrix, b: IntervalVector | None):
    """Interval forward elimination in natural order (no pivoting).

    Pivot step k updates the whole trailing block and rhs at once (an outer
    product of the multiplier column and pivot row), so every entry sees the
    same operations in the same order as the entrywise recurrence.
    """
    n = A.rows
    u_lo, u_hi = A.lo.copy(), A.hi.copy()
    l_lo, l_hi = np.eye(n), np.eye(n)
    b_lo, b_hi = (None, None) if b is None else (b.lo.copy(), b.hi.copy())
    for k in range(n):
        if u_lo[k, k] <= 0.0 <= u_hi[k, k]:
            raise PivotContainsZero(f"pivot {k} contains zero")
        m_lo, m_hi = idiv(u_lo[k + 1:, k], u_hi[k + 1:, k], u_lo[k, k], u_hi[k, k])
        l_lo[k + 1:, k], l_hi[k + 1:, k] = m_lo, m_hi
        p_lo, p_hi = imul(m_lo[:, None], m_hi[:, None], u_lo[k, k + 1:], u_hi[k, k + 1:])
        u_lo[k + 1:, k + 1:], u_hi[k + 1:, k + 1:] = isub(
            u_lo[k + 1:, k + 1:], u_hi[k + 1:, k + 1:], p_lo, p_hi)
        u_lo[k + 1:, k] = u_hi[k + 1:, k] = 0.0
        if b_lo is not None:
            p_lo, p_hi = imul(m_lo, m_hi, b_lo[k], b_hi[k])
            b_lo[k + 1:], b_hi[k + 1:] = isub(b_lo[k + 1:], b_hi[k + 1:], p_lo, p_hi)
    return (l_lo, l_hi), (u_lo, u_hi), (b_lo, b_hi)


def interval_gauss_elim(sys: IntervalLinearSystem) -> HullResult:
    """Interval Gaussian elimination enclosure for an H-matrix system.

    No pivoting is needed and no pivot interval contains zero for verified
    H input. The result is flagged exact-hull when the matrix is an
    interval M-matrix and the rhs is sign-restricted (entirely nonnegative,
    entirely nonpositive, or containing zero componentwise).
    """
    if not classify.is_h_matrix_interval(sys.A).is_yes:
        raise PreconditionViolated("matrix is not an H-matrix")
    n = sys.n
    _, (u_lo, u_hi), (b_lo, b_hi) = _eliminate(sys.A, sys.b)
    x_lo = np.empty(n)
    x_hi = np.empty(n)
    for i in range(n - 1, -1, -1):
        p_lo, p_hi = imul(u_lo[i, i + 1:], u_hi[i, i + 1:], x_lo[i + 1:], x_hi[i + 1:])
        # b_i - p_{i+1} - p_{i+2} - ..., subtracted in ascending j order
        acc_lo = np.subtract.reduce(np.concatenate(([b_lo[i]], p_hi)))
        acc_hi = np.subtract.reduce(np.concatenate(([b_hi[i]], p_lo)))
        x_lo[i], x_hi[i] = idiv(acc_lo, acc_hi, u_lo[i, i], u_hi[i, i])
    exact = (classify.is_m_matrix_interval(sys.A).is_yes
             and _rhs_sign_case(sys.b) is not None)
    return HullResult(IntervalVector(x_lo, x_hi), "gaussian-elimination",
                      EXACT if exact else ENCLOSURE, {})


def interval_lu(A: IntervalMatrix) -> tuple[IntervalMatrix, IntervalMatrix]:
    """Interval LU factors of an H-matrix: unit lower diagonal and A inside LU."""
    if not classify.is_h_matrix_interval(A).is_yes:
        raise PreconditionViolated("matrix is not an H-matrix")
    (l_lo, l_hi), (u_lo, u_hi), _ = _eliminate(A, None)
    L = IntervalMatrix(l_lo, l_hi)
    U = IntervalMatrix(u_lo, u_hi)
    product = imatmul(L, U)
    if not product.contains_matrix(A, tol=_tol(1e-9, A.lo, A.hi)):
        raise IvmatError("LU product does not enclose the input matrix")
    return L, U


def hull_bounds_inverse_m(sys: IntervalLinearSystem,
                          cap_evals: int = DEFAULT_CAP) -> HullResult:
    """Exact hull for an inverse-M matrix system, at enumeration scale.

    For coordinate i the extreme rhs is known in closed form (flip only the
    i-th component of b to its near endpoint); the extreme matrix is then
    found by enumerating vertex matrices, where solution-set extrema occur.
    """
    if not classify.is_inverse_m_interval(sys.A, cap_evals=cap_evals).is_yes:
        raise PreconditionViolated("matrix is not inverse-M")
    n = sys.n
    b_mid, b_rad = sys.b.mid, sys.b.rad
    rhs_low = np.array([b_mid + sign_flip_at(n, i) * b_rad for i in range(n)])
    rhs_high = np.array([b_mid - sign_flip_at(n, i) * b_rad for i in range(n)])
    hull_lo = np.full(n, np.inf)
    hull_hi = np.full(n, -np.inf)
    for block in vertex_chunks(sys.A.lo, sys.A.hi, cap_evals):
        low_stack = np.broadcast_to(rhs_low.T, (len(block), n, n))
        high_stack = np.broadcast_to(rhs_high.T, (len(block), n, n))
        xs_low = np.linalg.solve(block, low_stack)
        xs_high = np.linalg.solve(block, high_stack)
        for i in range(n):
            hull_lo[i] = min(hull_lo[i], float(xs_low[:, i, i].min()))
            hull_hi[i] = max(hull_hi[i], float(xs_high[:, i, i].max()))
    return HullResult(IntervalVector(hull_lo, hull_hi),
                      "inverse-m-vertex-enumeration", EXACT, {
                          "rhs_for_lower": rhs_low,
                          "rhs_for_upper": rhs_high,
                      })


def solve_hull(sys: IntervalLinearSystem, method: str = "auto",
               cap_evals: int = DEFAULT_CAP,
               cfg: oracle.OracleConfig | None = None) -> HullResult:
    """Solve dispatcher used by the CLI.

    "auto" prefers the closed-form exact hulls, then the hbrnk enclosure
    for H-matrices, then the inverse-M enumeration, and finally the
    brute-force oracle (with an explicit exponential-cost warning). Each
    method tests its own precondition; "auto" falls through on a refusal.
    """
    def oracle_hull(s, warning="exponential vertex enumeration"):
        hull = oracle.solution_hull(s.A, s.b, cfg or oracle.DEFAULT_CONFIG)
        return HullResult(hull, "oracle-vertex-enumeration", EXACT, {"warning": warning})

    methods = {
        "invnonneg": hull_inverse_nonnegative,
        "tp": hull_totally_positive,
        "hbrnk": hull_hbrnk,
        "ge": interval_gauss_elim,
        "inversem": lambda s: hull_bounds_inverse_m(s, cap_evals=cap_evals),
        "oracle": oracle_hull,
    }
    if method in methods:
        return methods[method](sys)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    for name in ("invnonneg", "tp", "hbrnk", "inversem"):
        try:
            return methods[name](sys)
        except (PreconditionViolated, NoApplicableCase, CapExceeded):
            pass
    return oracle_hull(sys, "no polynomial class matched; exponential vertex enumeration used")
