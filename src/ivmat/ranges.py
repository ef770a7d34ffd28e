"""Exact ranges of matrix characteristics over interval matrices.

Each operation verifies the structural class it needs (delegating to
``classify``), computes the range from the matching endpoint formula, and
records the strategy plus the member matrices attaining each endpoint.
When no supported class matches, the error says so and the caller may fall
back to the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import classify, kernel
from .errors import (
    CapExceeded,
    EigenvectorSignAmbiguity,
    NoApplicableTheorem,
    PreconditionViolated,
    SingularMatrix,
)
from .intervals import (
    DEFAULT_CAP,
    Interval,
    IntervalMatrix,
    SymmetricIntervalMatrix,
    _tol,
    checkerboard_vertices,
    sign_flip_family,
    vertex_chunks,
)

# an eigenvector entry below this, relative to the largest, has no sign
_EIGVEC_ENTRY_RTOL = 1e-10


@dataclass
class RangeResult:
    value: Interval | IntervalMatrix
    strategy: str
    attainers: dict = field(default_factory=dict)


@dataclass
class UpperBound:
    """One-sided result: only the maximum of the characteristic is claimed."""

    value: float
    strategy: str
    attainer: np.ndarray


def _ordered_range(values_and_attainers) -> tuple[Interval, dict]:
    pairs = sorted(values_and_attainers, key=lambda p: p[0])
    lo_val, lo_att = pairs[0]
    hi_val, hi_att = pairs[-1]
    return Interval(lo_val, hi_val), {"min": lo_att, "max": hi_att}


def _sign_stable_pattern(A: IntervalMatrix, cap_evals: int):
    """Constant sign pattern of member inverses, or None.

    Certifies over all vertex matrices when the enumeration fits the cap;
    otherwise falls back to the midpoint inverse alone and says so. An
    inverse entry of at most STRICT_RTOL times the largest has no sign.
    """
    try:
        chunks = vertex_chunks(A.lo, A.hi, cap_evals)
    except CapExceeded:
        try:
            inv_mid = kernel.inverse(A.mid)
        except SingularMatrix:
            return None, None
        if np.any(np.abs(inv_mid) <= _tol(classify.STRICT_RTOL, inv_mid)):
            return None, None
        return np.sign(inv_mid), "midpoint-certified"
    pattern = None
    for block in chunks:
        if not kernel._nonsingular(block).all():
            return None, None
        invs = np.linalg.inv(block)
        if np.any(np.abs(invs) <= _tol(classify.STRICT_RTOL, invs)):
            return None, None
        signs = np.sign(invs)
        if pattern is None:
            pattern = signs[0]
        if np.any(signs != pattern):
            return None, None
    return pattern, "vertex-certified"


def det_range(A: IntervalMatrix, cap_evals: int = DEFAULT_CAP) -> RangeResult:
    """Exact determinant range for the supported classes.

    Dispatch order: interval M-matrix, totally positive, inverse
    nonnegative, inverse-M, diagonally interval with a positive
    semidefinite lower endpoint, sign-stable. The first verified class
    wins; the formulas agree wherever two classes overlap.
    """
    if not A.is_square:
        raise ValueError("determinant range requires a square matrix")

    if classify.is_m_matrix_interval(A).is_yes:
        value, att = _ordered_range([(kernel.det(A.lo), A.lo.copy()),
                                     (kernel.det(A.hi), A.hi.copy())])
        return RangeResult(value, "m-matrix-endpoints", att)

    if classify.is_totally_positive_interval(A).is_yes:
        down, up = checkerboard_vertices(A)
        value, att = _ordered_range([(kernel.det(down), down),
                                     (kernel.det(up), up)])
        return RangeResult(value, "totally-positive-checkerboard", att)

    if classify.is_inverse_nonnegative_interval(A).is_yes:
        value, att = _ordered_range([(kernel.det(A.lo), A.lo.copy()),
                                     (kernel.det(A.hi), A.hi.copy())])
        return RangeResult(value, "inverse-nonnegative-endpoints", att)

    try:
        inverse_m = classify.is_inverse_m_interval(A, cap_evals=cap_evals)
    except CapExceeded:
        inverse_m = None
    if inverse_m is not None and inverse_m.is_yes:
        low_diag = A.hi.copy()
        np.fill_diagonal(low_diag, np.diag(A.lo))
        high_diag = A.lo.copy()
        np.fill_diagonal(high_diag, np.diag(A.hi))
        value, att = _ordered_range([(kernel.det(low_diag), low_diag),
                                     (kernel.det(high_diag), high_diag)])
        return RangeResult(value, "inverse-m-diagonal-extremes", att)

    if (classify.is_diagonally_interval(A)
            and classify.has_symmetric_midpoint(A)):
        lo_eigs = kernel.sym_eigenvalues(A.lo)
        if lo_eigs[-1] >= -_tol(classify.STRICT_RTOL, A.lo):
            value, att = _ordered_range([(kernel.det(A.lo), A.lo.copy()),
                                         (kernel.det(A.hi), A.hi.copy())])
            return RangeResult(value, "diagonally-interval-psd-endpoints", att)

    pattern, mode = _sign_stable_pattern(A, cap_evals)
    if pattern is not None:
        det_sign = np.sign(kernel.det(A.mid))
        cofactor_signs = det_sign * pattern.T
        att_min = np.where(cofactor_signs > 0, A.lo, A.hi)
        att_max = np.where(cofactor_signs > 0, A.hi, A.lo)
        value, att = _ordered_range([(kernel.det(att_min), att_min),
                                     (kernel.det(att_max), att_max)])
        return RangeResult(value, f"sign-stable-{mode}", att)

    raise NoApplicableTheorem(
        "no supported class matched for the determinant range; "
        "fall back to the vertex-enumeration oracle if the size permits")


def _require_diag_interval_symmetric(A) -> SymmetricIntervalMatrix:
    S = classify._symmetric(A)
    if not classify.is_diagonally_interval(S.base):
        raise PreconditionViolated("radius is not diagonal")
    return S


def eig_ranges_diag_interval(A) -> list[RangeResult]:
    """All eigenvalue ranges of a diagonally interval symmetric family.

    The i-th range is [lambda_i at the lower endpoint, lambda_i at the
    upper endpoint]; both endpoints are attained simultaneously.
    """
    S = _require_diag_interval_symmetric(A)
    lo_vals = kernel.sym_eigenvalues(S.lo)
    hi_vals = kernel.sym_eigenvalues(S.hi)
    # every range is attained at the same two endpoints, so all results share
    # one read-only copy of each
    lo, hi = S.lo.copy(), S.hi.copy()
    lo.flags.writeable = False
    hi.flags.writeable = False
    return [RangeResult(Interval(float(lo_vals[i]), float(hi_vals[i])),
                        f"diagonally-interval-endpoints-lambda{i + 1}",
                        {"min": lo, "max": hi})
            for i in range(S.n)]


def spectral_radius_max_diag_interval(A) -> UpperBound:
    """Exact maximum of the spectral radius over a diagonally interval
    symmetric family: max of lambda_1 at the upper endpoint and
    -lambda_n at the lower endpoint."""
    S = _require_diag_interval_symmetric(A)
    hi_top = float(kernel.sym_eigenvalues(S.hi)[0])
    lo_bottom = float(kernel.sym_eigenvalues(S.lo)[-1])
    if hi_top >= -lo_bottom:
        return UpperBound(hi_top, "diagonally-interval-spectral-radius", S.hi.copy())
    return UpperBound(-lo_bottom, "diagonally-interval-spectral-radius", S.lo.copy())


def lambda_min_range_inverse_nonneg(A) -> RangeResult:
    """Smallest-eigenvalue range of a symmetric inverse nonnegative family."""
    S = classify._symmetric(A)
    if not classify.is_inverse_nonnegative_interval(S.base).is_yes:
        raise PreconditionViolated("matrix is not inverse nonnegative")
    lo_val = float(kernel.sym_eigenvalues(S.lo)[-1])
    hi_val = float(kernel.sym_eigenvalues(S.hi)[-1])
    return RangeResult(Interval(lo_val, hi_val),
                       "inverse-nonnegative-endpoints-lambda-min",
                       {"min": S.lo.copy(), "max": S.hi.copy()})


def eig_ranges_totally_positive(A: IntervalMatrix) -> list[RangeResult]:
    """All eigenvalue ranges of a totally positive interval matrix.

    The extreme indices come from the endpoint/checkerboard matrices; a
    middle index i uses the midpoint left and right eigenvectors, whose
    entry signs are constant across members, to build the two attainers.
    Raises EigenvectorSignAmbiguity instead of guessing when an eigenvector
    entry is numerically zero.
    """
    if not classify.is_totally_positive_interval(A).is_yes:
        raise PreconditionViolated("matrix is not totally positive")
    n = A.rows
    down, up = checkerboard_vertices(A)
    results: list[RangeResult | None] = [None] * n

    lo_vals = kernel.real_eigenvalues_sorted(A.lo)
    hi_vals = kernel.real_eigenvalues_sorted(A.hi)
    results[0] = RangeResult(Interval(float(lo_vals[0]), float(hi_vals[0])),
                             "totally-positive-endpoints-lambda1",
                             {"min": A.lo.copy(), "max": A.hi.copy()})
    if n > 1:
        down_vals = kernel.real_eigenvalues_sorted(down)
        up_vals = kernel.real_eigenvalues_sorted(up)
        results[n - 1] = RangeResult(
            Interval(float(down_vals[-1]), float(up_vals[-1])),
            f"totally-positive-checkerboard-lambda{n}",
            {"min": down, "max": up})

    if n > 2:
        mid = A.mid
        right_vals, right_vecs = np.linalg.eig(mid)
        left_vals, left_vecs = np.linalg.eig(mid.T)
        right_order = np.argsort(right_vals.real)[::-1]
        left_order = np.argsort(left_vals.real)[::-1]
        for i in range(1, n - 1):
            x = right_vecs[:, right_order[i]].real
            y = left_vecs[:, left_order[i]].real
            if (np.min(np.abs(x)) < _tol(_EIGVEC_ENTRY_RTOL, x)
                    or np.min(np.abs(y)) < _tol(_EIGVEC_ENTRY_RTOL, y)):
                raise EigenvectorSignAmbiguity(
                    f"midpoint eigenvector for index {i + 1} has an entry "
                    "too close to zero to sign")
            if float(x @ y) < 0:
                y = -y
            # d lambda / d a_ij = y_i x_j: rows signed by the left
            # eigenvector, columns by the right one
            signed = np.outer(np.sign(y), np.sign(x)) * A.rad
            low_att = mid - signed
            high_att = mid + signed
            lo_val = float(kernel.real_eigenvalues_sorted(low_att)[i])
            hi_val = float(kernel.real_eigenvalues_sorted(high_att)[i])
            value, att = _ordered_range([(lo_val, low_att), (hi_val, high_att)])
            results[i] = RangeResult(value,
                                     f"totally-positive-eigenvector-signs-lambda{i + 1}",
                                     att)
    return results  # type: ignore[return-value]


def eig_ranges(A) -> list[RangeResult]:
    """Eigenvalue ranges via whichever theorem applies."""
    base = A.base if isinstance(A, SymmetricIntervalMatrix) else A
    if classify.is_diagonally_interval(base) and classify.is_symmetric_family(base):
        return eig_ranges_diag_interval(base)
    try:
        return eig_ranges_totally_positive(base)
    except PreconditionViolated:
        raise NoApplicableTheorem(
            "eigenvalue ranges need a diagonally interval symmetric family "
            "or a totally positive matrix") from None


def nonneg_ranges(A: IntervalMatrix) -> dict[str, RangeResult | UpperBound]:
    """Spectral radius, largest eigenvalue, and largest singular value.

    Full ranges (endpoints attained at the two endpoint matrices) when the
    matrix is nonnegative; upper bounds alone when only the midpoint is
    nonnegative. The largest-eigenvalue entry is reported only for
    symmetric families.
    """
    if not A.is_square:
        raise ValueError("nonnegative ranges require a square matrix")
    if A.rows == 0:
        raise ValueError("nonnegative ranges are undefined for the empty (0x0) matrix")
    symmetric = classify.is_symmetric_family(A)
    out: dict[str, RangeResult | UpperBound] = {}
    if classify.is_nonnegative(A):
        lo, hi = A.lo, A.hi
        out["rho"] = RangeResult(
            Interval(kernel.perron_root(lo), kernel.perron_root(hi)),
            "nonnegative-endpoints-rho", {"min": lo.copy(), "max": hi.copy()})
        out["sigma_max"] = RangeResult(
            Interval(kernel.sigma_max_nonneg(lo), kernel.sigma_max_nonneg(hi)),
            "nonnegative-endpoints-sigma-max", {"min": lo.copy(), "max": hi.copy()})
        if symmetric:
            out["lambda_max"] = RangeResult(
                Interval(float(kernel.sym_eigenvalues(lo)[0]),
                         float(kernel.sym_eigenvalues(hi)[0])),
                "nonnegative-endpoints-lambda-max",
                {"min": lo.copy(), "max": hi.copy()})
        return out
    if classify.is_midpoint_nonnegative(A):
        hi = A.hi
        out["rho"] = UpperBound(kernel.perron_root(hi),
                                "midpoint-nonnegative-upper-rho", hi.copy())
        out["sigma_max"] = UpperBound(kernel.sigma_max_nonneg(hi),
                                      "midpoint-nonnegative-upper-sigma-max",
                                      hi.copy())
        if symmetric:
            out["lambda_max"] = UpperBound(float(kernel.sym_eigenvalues(hi)[0]),
                                           "midpoint-nonnegative-upper-lambda-max",
                                           hi.copy())
        return out
    raise PreconditionViolated(
        "neither the lower endpoint nor the midpoint is nonnegative")


def _certified_inverses(A: IntervalMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """The lower and upper endpoint inverses the inverse nonnegativity test
    certified, or None when A is not inverse nonnegative.

    The report goes when this returns: a frame that raises stays alive until
    a cyclic collection, and a decline's witness must not stay with it.
    """
    report = classify.is_inverse_nonnegative_interval(A)
    if not report.is_yes:
        return None
    return (report.certificate["inverse_lower_endpoint"],
            report.certificate["inverse_upper_endpoint"])


def _monotone_attainers(A: IntervalMatrix, what: str) -> tuple[
        np.ndarray, np.ndarray, str, tuple[np.ndarray, np.ndarray] | None]:
    """The members attaining a range that is monotone over the box: the
    endpoints of an inverse nonnegative matrix, or the checkerboard vertices
    of a totally positive one, with the strategy prefix naming the case and
    the certified endpoint inverses (None on the totally positive path)."""
    inverses = _certified_inverses(A)
    if inverses is not None:
        return A.lo.copy(), A.hi.copy(), "inverse-nonnegative-endpoints", inverses
    if classify.is_totally_positive_interval(A).is_yes:
        down, up = checkerboard_vertices(A)
        return down, up, "totally-positive-checkerboard", None
    raise PreconditionViolated(
        f"{what} range needs an inverse nonnegative or totally positive matrix")


def sigma_min_range(A: IntervalMatrix) -> RangeResult:
    """Smallest-singular-value range for inverse nonnegative or totally
    positive interval matrices.

    On the inverse nonnegative path sigma_min(A) = 1 / sigma_max(A^-1) is
    taken from the certified endpoint inverses (``kernel.sigma_min_from_inverse``).
    """
    lo, hi, strategy, inverses = _monotone_attainers(A, "sigma-min")
    if inverses is None:
        values = [float(kernel.singular_values(m)[-1]) for m in (lo, hi)]
    else:
        values = [kernel.sigma_min_from_inverse(m, inv) for m, inv in zip((lo, hi), inverses)]
    return RangeResult(Interval(*values), f"{strategy}-sigma-min", {"min": lo, "max": hi})


def norm_range(A: IntervalMatrix, which: str = "inf",
               cap_evals: int = DEFAULT_CAP) -> RangeResult | UpperBound:
    """Range of a monotone matrix norm over a (midpoint-)nonnegative matrix."""
    if classify.is_nonnegative(A):
        return RangeResult(
            Interval(kernel.matrix_norm(A.lo, which, cap_evals=cap_evals),
                     kernel.matrix_norm(A.hi, which, cap_evals=cap_evals)),
            f"nonnegative-endpoints-norm-{which}",
            {"min": A.lo.copy(), "max": A.hi.copy()})
    if classify.is_midpoint_nonnegative(A):
        return UpperBound(kernel.matrix_norm(A.hi, which, cap_evals=cap_evals),
                          f"midpoint-nonnegative-upper-norm-{which}", A.hi.copy())
    raise PreconditionViolated(
        "norm range needs a nonnegative matrix (or nonnegative midpoint "
        "for the upper bound)")


def rr_range(A: IntervalMatrix, cap_evals: int = DEFAULT_CAP) -> RangeResult:
    """Regularity-radius range for inverse nonnegative or totally positive
    interval matrices.

    The radius of a member is 1 / ||A^-1||_{inf,1}. For an entrywise
    nonnegative inverse that norm is the sum of its entries, O(n^2); any
    other inverse takes the 2^(n-1) sign-vector enumeration, capped.
    """
    lo, hi, strategy, inverses = _monotone_attainers(A, "regularity-radius")
    if inverses is None:  # inverted as the enumeration reaches each, so its cap comes first
        inverses = (kernel.inverse(m) for m in (lo, hi))
    radii = [1.0 / (float(inv.sum()) if np.all(inv >= 0.0)
                    else kernel.sign_vector_norm(inv, cap_evals=cap_evals))
             for inv in inverses]
    return RangeResult(Interval(*radii), f"{strategy}-rr", {"min": lo, "max": hi})


def inverse_bounds(A: IntervalMatrix, cap_evals: int = DEFAULT_CAP) -> RangeResult:
    """Componentwise hull of member inverses.

    Inverse nonnegative: the hull is [upper endpoint inverse, lower
    endpoint inverse]. Inverse-M: componentwise extrema over the 2 n^2
    matrices mid +/- diag(z^i) rad diag(z^j) with single sign flips.
    """
    inverses = _certified_inverses(A)
    if inverses is not None:
        inv_lo, inv_hi = inverses
        hull = IntervalMatrix(np.minimum(inv_hi, inv_lo), np.maximum(inv_hi, inv_lo))
        return RangeResult(hull, "inverse-nonnegative-endpoint-inverses",
                           {"min": A.hi.copy(), "max": A.lo.copy()})
    if classify.is_inverse_m_interval(A, cap_evals=cap_evals).is_yes:
        plus, minus = sign_flip_family(A)
        inv_plus = np.linalg.inv(plus)
        inv_minus = np.linalg.inv(minus)
        hull = IntervalMatrix(inv_plus.min(axis=0), inv_minus.max(axis=0))
        return RangeResult(hull, "inverse-m-sign-flip-family", {
            "min_family": plus,
            "max_family": minus,
        })
    raise PreconditionViolated(
        "inverse bounds need an inverse nonnegative or inverse-M matrix")


def power_hull(A: IntervalMatrix, k: int) -> IntervalMatrix:
    """Hull of k-th powers of a nonnegative interval matrix.

    Equals [lower endpoint ^ k, upper endpoint ^ k]; not every matrix in
    between is attained as a power, but the hull is exact.
    """
    if not A.is_square:
        raise ValueError("power hull requires a square matrix")
    if k < 1 or int(k) != k:
        raise ValueError("power must be a positive integer")
    if not classify.is_nonnegative(A):
        raise PreconditionViolated("power hull needs a nonnegative matrix")
    return IntervalMatrix(np.linalg.matrix_power(A.lo, int(k)),
                          np.linalg.matrix_power(A.hi, int(k)))


def cube_hull_diag_interval(A: IntervalMatrix) -> IntervalMatrix:
    """Entrywise exact hull of third powers of a diagonally interval matrix.

    A member is B + D with B the midpoint, its diagonal zeroed, and
    D = diag(d), d_i in [lo_ii, hi_ii]. Expanding (B + D)^3, entry (i, j) is

        (B^3)_ij + (B D B)_ij + (B^2)_ij (d_i + d_j) + B_ij (d_i^2 + d_i d_j + d_j^2)

    for i != j, and (B^3)_ii + (B D B)_ii + 2 (B^2)_ii d_i + d_i^3 on the
    diagonal. (B D B)_ij is linear in the d_m with m not in {i, j}, so its
    extremes, B diag(d_mid) B -/+ |B| diag(d_rad) |B|, add to those of the
    residual quadratic in (d_i, d_j) (cubic in d_i on the diagonal). The
    residual is extremised over its closed-form candidates for all entries
    at once: the four corners, the four edge stationary points and the
    interior point d_i = d_j = -(B^2)_ij / (3 B_ij) off the diagonal; the
    two endpoints and +/-sqrt(-2 (B^2)_ii / 3) on it. A few n x n matmuls,
    so O(n^3).
    """
    if not A.is_square:
        raise ValueError("cube hull requires a square matrix")
    if not classify.is_diagonally_interval(A):
        raise PreconditionViolated("radius is not diagonal")
    B = A.mid
    np.fill_diagonal(B, 0.0)
    lo, hi = np.diag(A.lo), np.diag(A.hi)
    B2 = B @ B
    center = B2 @ B + (B * (0.5 * (lo + hi))) @ B
    spread = (np.abs(B) * (0.5 * (hi - lo))) @ np.abs(B)

    u_lo, u_hi, v_lo, v_hi = lo[:, None], hi[:, None], lo[None, :], hi[None, :]
    r_min = np.full(B.shape, np.inf)
    r_max = np.full(B.shape, -np.inf)

    def take(u, v):
        """Fold in the residual at candidate (d_i, d_j) = (u, v) where the box holds it."""
        inside = (u_lo <= u) & (u <= u_hi) & (v_lo <= v) & (v <= v_hi)
        r = B2 * (u + v) + B * (u * u + u * v + v * v)
        np.minimum(r_min, np.where(inside, r, np.inf), out=r_min)
        np.maximum(r_max, np.where(inside, r, -np.inf), out=r_max)

    # B_ij = 0 or (B^2)_ii > 0 gives inf or nan candidates, which no box holds
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for u in (u_lo, u_hi):
            for v in (v_lo, v_hi):
                take(u, v)
            take(u, -(B2 + B * u) / (2.0 * B))
        for v in (v_lo, v_hi):
            take(-(B2 + B * v) / (2.0 * B), v)
        w = -B2 / (3.0 * B)
        take(w, w)

        c = np.diag(B2)
        root = np.sqrt(-2.0 * c / 3.0)
        d = np.stack([lo, hi, root, -root])
        vals = np.where((lo <= d) & (d <= hi), d * d * d + 2.0 * c * d, np.nan)
    idx = np.diag_indices_from(B)
    r_min[idx], r_max[idx] = np.nanmin(vals, axis=0), np.nanmax(vals, axis=0)
    return IntervalMatrix(center - spread + r_min, center + spread + r_max)
