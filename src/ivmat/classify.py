"""Recognition tests for special classes of interval matrices.

Every test returns a ClassReport whose verdict is backed by a re-checkable
certificate (a positive vector, the endpoint matrices inspected, a violated
inequality) or, for "no", a witness realization violating the defining
property. Verdicts are never guessed: tests whose exponential fallback
exceeds the evaluation cap answer "unknown".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel, oracle
from .errors import CapExceeded, PreconditionViolated, SingularMatrix
from .intervals import (
    DEFAULT_CAP,
    IntervalMatrix,
    SymmetricIntervalMatrix,
    _is_symmetric,
    _tol,
    as_symmetric,
    checkerboard_vertices,
    comparison_matrix,
    sign_flip_family,
    vertex_chunks,
)

STRICT_RTOL = 1e-10
_RESIDUAL_RTOL = 1e-12  # a decline's A x = e must re-check to this
_STACK_BUDGET = 1 << 16  # matrix entries per slice of a stacked P-test

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass
class ClassReport:
    matrix_class: str
    verdict: str  # "yes" | "no" | "unknown"
    certificate: dict = field(default_factory=dict)
    cost_note: str = "polynomial"

    @property
    def is_yes(self) -> bool:
        return self.verdict == YES

    @property
    def is_no(self) -> bool:
        return self.verdict == NO


def _first(mask: np.ndarray) -> tuple[int, int]:
    """Row-major index of the first True entry; call only after ``mask.any()``."""
    return np.unravel_index(int(mask.argmax()), mask.shape)


def _mig_attainer(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Member value of smallest absolute value, entrywise."""
    return np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))


def _mag_attainer(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Member value of largest absolute value, entrywise."""
    return np.where(np.abs(lo) >= np.abs(hi), lo, hi)


def is_m_matrix_real(a) -> ClassReport:
    """M-matrix test for a real matrix: Z-pattern plus v > 0 with A v > 0.

    The certificate vector is the solution of A v = e; for a Z-matrix,
    A is an M-matrix exactly when that solve succeeds with v > 0.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    tol = _tol(STRICT_RTOL, a)
    positive = a - np.diag(np.diag(a)) > tol
    if positive.any():
        i, j = _first(positive)
        return ClassReport("M", NO, {
            "reason": "positive off-diagonal entry",
            "entry": (int(i), int(j)),
            "value": float(a[i, j]),
        })
    try:
        v = kernel.solve(a, np.ones(n))
    except SingularMatrix:
        return ClassReport("M", NO, {"reason": "singular Z-matrix"})
    if np.all(v > _tol(STRICT_RTOL, v)):
        return ClassReport("M", YES, {"v": v})
    return ClassReport("M", NO, {
        "reason": "solution of A v = e has a nonpositive component",
        "v": v,
    })


def is_m_matrix_interval(A: IntervalMatrix) -> ClassReport:
    """Interval M-matrix test: lower endpoint is M and upper off-diagonal <= 0."""
    if not A.is_square:
        raise ValueError("M-matrix test requires a square matrix")
    tol = _tol(STRICT_RTOL, A.lo, A.hi)
    positive = A.hi - np.diag(np.diag(A.hi)) > tol
    if positive.any():
        i, j = _first(positive)
        witness = A.mid.copy()
        witness[i, j] = A.hi[i, j]
        return ClassReport("M", NO, {
            "reason": "member with positive off-diagonal entry",
            "entry": (int(i), int(j)),
            "witness": witness,
        })
    lower = is_m_matrix_real(A.lo)
    if lower.is_yes:
        return ClassReport("M", YES, {"v": lower.certificate["v"]})
    return ClassReport("M", NO, {
        "reason": "lower endpoint is not an M-matrix",
        "witness": A.lo.copy(),
        "endpoint_report": lower.certificate,
    })


def is_h_matrix_interval(A: IntervalMatrix) -> ClassReport:
    """Interval H-matrix test: the comparison matrix is an M-matrix."""
    C = comparison_matrix(A)
    inner = is_m_matrix_real(C)
    if inner.is_yes:
        return ClassReport("H", YES, {
            "v": inner.certificate["v"],
            "comparison_matrix": C,
        })
    witness = _mag_attainer(A.lo, A.hi)
    np.fill_diagonal(witness, np.diag(_mig_attainer(A.lo, A.hi)))
    return ClassReport("H", NO, {
        "reason": "comparison matrix is not an M-matrix",
        "comparison_matrix": C,
        "witness": witness,
        "inner_report": inner.certificate,
    })


def _solves_ones(a: np.ndarray, x: np.ndarray) -> bool:
    """Whether a @ x = e holds to rounding: each component within
    _RESIDUAL_RTOL of the magnitude of its terms."""
    residual = np.abs(a @ x - 1.0)
    return bool(np.all(residual <= _RESIDUAL_RTOL * (np.abs(a) @ np.abs(x))))


def is_inverse_nonnegative_interval(A: IntervalMatrix) -> ClassReport:
    """Inverse nonnegativity test via the two endpoint matrices.

    A is inverse nonnegative exactly when both endpoints are. Each endpoint
    is factored once. A decline is first sought from x = A^-1 e (e all ones),
    an O(n^2) solve from the same factors: by Collatz's characterisation a
    monotone A (A^-1 >= 0) has A x >= 0 => x >= 0, so a component
    x_i < -4 n STRICT_RTOL max|x| names a member, the endpoint, whose inverse
    is not nonnegative. The probe declines only when its certificate
    re-checks, witness @ x = e to within _RESIDUAL_RTOL. Otherwise the full
    inverse is computed from the same factors and every entry checked against
    -STRICT_RTOL max|inverse|, which decides the verdict exactly as before the
    probe existed (same ``dgetrf``, same ``dgetrs``).

    The probe never declines what the full check accepts. If every entry of
    the computed inverse is >= -t, t = STRICT_RTOL max|inverse|, every row
    sum is >= -n t. An entry is its row sum minus the other n - 1 entries,
    so max|inverse| <= max|row sums| + n t, whence t < 2 STRICT_RTOL max|x|
    for n STRICT_RTOL < 1/2 and the row sums are > -2 n STRICT_RTOL max|x|.
    The factor 4 leaves the same again for the rounding gap between x and the
    row sums of the computed inverse.
    """
    if not A.is_square:
        raise ValueError("inverse nonnegativity test requires a square matrix")
    n = A.rows
    endpoints = {"lower": A.lo, "upper": A.hi}
    inverses = {}
    for name, endpoint in endpoints.items():
        try:
            factors = kernel.lu_factor(endpoint)
        except SingularMatrix:
            return ClassReport("InverseNonnegative", NO, {
                "reason": f"{name} endpoint is singular",
                "witness": endpoint.copy(),
            })
        x = kernel.lu_solve(factors, np.ones(n))
        negative = x < -4 * n * _tol(STRICT_RTOL, x)
        if negative.any() and _solves_ones(endpoint, x):
            i = int(negative.argmax())
            return ClassReport("InverseNonnegative", NO, {
                "reason": f"{name} endpoint is not monotone: "
                          "A x = e has a negative component",
                "component": i,
                "x": x,
                "witness": endpoint.copy(),
            })
        inv = kernel.lu_solve(factors, np.eye(n))
        negative = inv < -_tol(STRICT_RTOL, inv)
        if negative.any():
            i, j = _first(negative)
            return ClassReport("InverseNonnegative", NO, {
                "reason": f"{name} endpoint inverse has a negative entry",
                "entry": (int(i), int(j)),
                "witness": endpoint.copy(),
                "inverse_entry": float(inv[i, j]),
            })
        inverses[name] = inv
    return ClassReport("InverseNonnegative", YES, {
        "inverse_lower_endpoint": inverses["lower"],
        "inverse_upper_endpoint": inverses["upper"],
    })


def _neville_first_failure(a: np.ndarray, tol: float) -> tuple[tuple, tuple, float] | None:
    """Row and column windows and value of the first pivot <= tol of the
    Neville elimination of ``a``, column by column, or None. Step j subtracts
    from each row i > j the multiple of row i - 1 that zeros its column-j
    entry; pivot (i, j), the entry it zeros, is the minor on rows i-j..i and
    columns 0..j over the one on rows i-j..i-1 and columns 0..j-1. The next
    pivot column is checked before the trailing block is updated, so an
    early failure costs O(n)."""
    b = np.array(a, dtype=float)
    for j in range(len(b)):
        pivots = b[j:, j]
        fails = ~(pivots > tol)  # a NaN pivot from overflow is not positive
        if fails.any():
            i = int(fails.argmax())
            return (i, i + j + 1), (0, j + 1), float(pivots[i])
        if j:  # finish step j - 1 on the columns after j
            b[j:, j + 1:] -= m[:, None] * b[j - 1:-1, j + 1:]
        if j + 1 < len(b):
            m = pivots[1:] / pivots[:-1]
            b[j + 1:, j + 1] -= m * b[j:-1, j + 1]
    return None


def is_totally_positive_real(a) -> ClassReport:
    """Total positivity of a square real matrix by Neville elimination.

    A is totally positive (every minor positive) iff the Neville elimination
    of A and of A^T needs no row exchange and every pivot is positive
    (Gasca & Pena, LAA 165, 1992), in O(n^3). A pivot passes when it exceeds
    STRICT_RTOL max|a|, so a power-of-two scaling changes no verdict. A no
    names the first failing pivot, of A then of A^T, and the windows of the
    contiguous minor it shows nonpositive."""
    a = np.asarray(a, dtype=float)
    tol = _tol(STRICT_RTOL, a)
    for b, transposed in ((a, False), (a.T, True)):
        found = _neville_first_failure(b, tol)
        if found is not None:
            rows, cols, pivot = found
            if transposed:
                rows, cols = cols, rows
            return ClassReport("TotallyPositive", NO, {
                "reason": "nonpositive Neville elimination pivot",
                "rows": rows,
                "cols": cols,
                "pivot": pivot,
            })
    return ClassReport("TotallyPositive", YES, {"pivots_checked": True})


def is_totally_positive_interval(A: IntervalMatrix) -> ClassReport:
    """Interval total positivity via the two checkerboard vertex matrices."""
    if not A.is_square:
        raise ValueError("total positivity test requires a square matrix")
    down, up = checkerboard_vertices(A)
    for name, vertex in (("lower checkerboard vertex", down),
                         ("upper checkerboard vertex", up)):
        rep = is_totally_positive_real(vertex)
        if rep.is_no:
            return ClassReport("TotallyPositive", NO, {
                "reason": f"{name} is not totally positive",
                "witness": vertex,
                "vertex_report": rep.certificate,
            })
    return ClassReport("TotallyPositive", YES, {
        "checkerboard_lower": down,
        "checkerboard_upper": up,
    })


def is_b_matrix_interval(A: IntervalMatrix) -> ClassReport:
    """Interval B-matrix test via endpoint inequalities.

    Requires sum_j lo[i,j] > 0 for all i and
    sum_{j != k} lo[i,j] > (n-1) hi[i,k] for all i and k != i.
    """
    if not A.is_square:
        raise ValueError("B-matrix test requires a square matrix")
    n = A.rows
    tol = _tol(STRICT_RTOL, A.lo, A.hi)
    row_lo_sums = A.lo.sum(axis=1)
    # column 0 holds the row-sum test of row i and column 1 + k its dominance
    # test against column k, so the first failure in row-major order is the
    # first one a row-by-row scan meets
    fails = np.empty((n, n + 1), dtype=bool)
    fails[:, 0] = row_lo_sums <= tol
    fails[:, 1:] = row_lo_sums[:, None] - A.lo <= (n - 1) * A.hi + tol
    np.fill_diagonal(fails[:, 1:], False)
    bad = np.flatnonzero(fails)
    if bad.size:
        i, col = divmod(int(bad[0]), n + 1)
        witness = A.mid.copy()
        witness[i, :] = A.lo[i, :]
        if col == 0:
            return ClassReport("BMatrix", NO, {
                "reason": "nonpositive lower row sum",
                "row": i,
                "witness": witness,
            })
        k = col - 1
        witness[i, k] = A.hi[i, k]
        return ClassReport("BMatrix", NO, {
            "reason": "row-mean dominance fails",
            "row": i,
            "column": k,
            "witness": witness,
        })
    return ClassReport("BMatrix", YES, {"row_lower_sums": row_lo_sums})


def is_nonnegative(A: IntervalMatrix) -> bool:
    return bool(np.all(A.lo >= -_tol(STRICT_RTOL, A.lo, A.hi)))


def is_midpoint_nonnegative(A: IntervalMatrix) -> bool:
    return bool(np.all(A.mid >= -_tol(STRICT_RTOL, A.lo, A.hi)))


def is_diagonally_interval(A: IntervalMatrix) -> bool:
    if not A.is_square:
        return False
    offdiag_rad = A.rad - np.diag(np.diag(A.rad))
    return bool(np.max(offdiag_rad, initial=0.0) <= 0.0)


def has_symmetric_midpoint(A: IntervalMatrix) -> bool:
    return A.is_square and _is_symmetric(A.mid)


def is_symmetric_family(A: IntervalMatrix) -> bool:
    """Midpoint and radius both symmetric, so symmetric members span the box:
    the test ``as_symmetric`` applies."""
    return has_symmetric_midpoint(A) and _is_symmetric(A.rad)


def classify_structure(A: IntervalMatrix) -> set[str]:
    """Cheap structural flags used for range dispatch."""
    flags = set()
    if is_nonnegative(A):
        flags.add("Nonnegative")
    if is_midpoint_nonnegative(A):
        flags.add("MidpointNonnegative")
    if is_diagonally_interval(A):
        flags.add("DiagonallyInterval")
    if has_symmetric_midpoint(A):
        flags.add("SymmetricMidpoint")
    return flags


def _real_inverse_m_check(block: np.ndarray, tol: float) -> np.ndarray:
    """Vectorized inverse-M test over stacked matrices.

    A nonsingular V is an inverse M-matrix iff V^{-1} has nonpositive
    off-diagonal and V e > 0 (then v = V e certifies V^{-1} as an M-matrix).
    Returns a boolean mask; singular entries (``kernel._nonsingular``) come
    out False. Each inverse's off-diagonal is compared with STRICT_RTOL times
    that inverse's own magnitude, the row sums of V with ``tol``.
    """
    ok = kernel._nonsingular(block)
    invs = np.linalg.inv(block[ok])
    offdiag = invs[:, ~np.eye(block.shape[-1], dtype=bool)]
    result = np.zeros(len(block), dtype=bool)
    result[ok] = (np.all(offdiag <= STRICT_RTOL * np.abs(invs).max(axis=(1, 2))[:, None], axis=1)
                  & np.all(block[ok].sum(axis=2) > tol, axis=1))
    return result


def is_inverse_m_interval(A: IntervalMatrix,
                          cap_evals: int = DEFAULT_CAP) -> ClassReport:
    """Inverse M-matrix test by exhaustive vertex enumeration.

    The interval matrix is inverse-M exactly when every vertex matrix is;
    no polynomial reduction is known, so the cost is exponential and the
    test refuses (CapExceeded) beyond the evaluation cap.
    """
    if not A.is_square:
        raise ValueError("inverse-M test requires a square matrix")
    tol = _tol(STRICT_RTOL, A.lo, A.hi)
    negative = A.lo < -tol
    if negative.any():
        i, j = _first(negative)
        witness = A.mid.copy()
        witness[i, j] = A.lo[i, j]
        return ClassReport("InverseM", NO, {
            "reason": "member with a negative entry (inverse M-matrices are nonnegative)",
            "entry": (int(i), int(j)),
            "witness": witness,
        })
    checked = 0
    for block in vertex_chunks(A.lo, A.hi, cap_evals):
        good = _real_inverse_m_check(block, tol)
        if not good.all():
            bad = int(np.flatnonzero(~good)[0])
            return ClassReport("InverseM", NO, {
                "reason": "vertex matrix is not an inverse M-matrix",
                "witness": block[bad].copy(),
            }, cost_note="exponential (vertex enumeration)")
        checked += len(block)
    return ClassReport("InverseM", YES, {"vertices_checked": checked},
                       cost_note="exponential (vertex enumeration)")


@dataclass
class ConjectureProbe:
    consistent: bool
    reduced_verdict: str
    exhaustive_verdict: str
    counterexample: dict | None = None


def conjecture_check_inverse_m(A: IntervalMatrix,
                               cap_evals: int = DEFAULT_CAP) -> ConjectureProbe:
    """Probe the 2 n^2 sign-flip reduction for the inverse-M class.

    Evaluates the reduced criterion (inverse-M at mid +/- diag(z^i) rad
    diag(z^j) for all i, j) and the exhaustive vertex criterion, reporting a
    counterexample when the verdicts differ. Experimental; not a decision
    procedure.
    """
    if not A.is_square:
        raise ValueError("conjecture probe requires a square matrix")
    tol = _tol(STRICT_RTOL, A.lo, A.hi)
    block = np.concatenate(sign_flip_family(A))
    reduced_ok = bool(np.all(_real_inverse_m_check(block, tol)))
    exhaustive = is_inverse_m_interval(A, cap_evals=cap_evals)
    reduced_verdict = YES if reduced_ok else NO
    consistent = reduced_verdict == exhaustive.verdict
    counterexample = None
    if not consistent:
        counterexample = {
            "lo": A.lo.copy(),
            "hi": A.hi.copy(),
            "reduced_verdict": reduced_verdict,
            "exhaustive_verdict": exhaustive.verdict,
            "exhaustive_certificate": exhaustive.certificate,
        }
    return ConjectureProbe(consistent, reduced_verdict, exhaustive.verdict,
                           counterexample)


def _first_nonpositive_pivot(stack: np.ndarray, tol: float) -> tuple[int, tuple, float] | None:
    """The first matrix of ``stack`` (m, n, n) with a pivot <= tol, a
    principal subset with a nonpositive minor, and the pivot; or None.

    A is P iff a_00 > 0 and A[1:, 1:] and A / a_00 are P (Tsatsomeros & Li,
    BIT 40, 2000). Node q of level k, g = {t < k : bit t of q}, is the Schur
    complement of A[g] in A[g + {k..n-1}], with pivot det A[g + {k}] / det A[g],
    and the parent of nodes q and q + 2^k of level k + 1. The result is the
    failure of least (matrix, level, node). A part of the trees whose levels
    hold at most ``_STACK_BUDGET`` entries in all is searched level by level;
    a larger one is halved, by matrices, then by nodes, depth first."""
    n = stack.shape[-1]
    below = [sum((n - j) ** 2 << (j - k) for j in range(k, n)) for k in range(n)]
    found = []  # (matrix, level, node, pivot): the first failure of a part

    def search(level, rows, k, nodes):
        while k < n and not (found and (rows[0], k) > min(found)[:2]):
            s, w = level.shape[:2]
            if s * w > 1 and s * w * below[k] > _STACK_BUDGET:
                if s > 1:
                    h = (s + 1) // 2
                    search(level[:h], rows[:h], k, nodes)
                    search(level[h:], rows[h:], k, nodes)
                else:
                    h = (w + 1) // 2
                    search(level[:, :h], rows, k, nodes[:h])
                    search(level[:, h:], rows, k, nodes[h:])
                return
            pivots = level[:, :, 0, 0]
            fails = ~(pivots > tol)  # a NaN pivot from overflow is not positive
            failing = fails.any(axis=1)
            if failing.any():
                i = int(failing.argmax())
                q = int(fails[i].argmax())
                found.append((int(rows[i]), k, int(nodes[q]), float(pivots[i, q])))
                level, rows = level[:i], rows[:i]
                if not i:
                    return
            rest = level[:, :, 1:, 1:]
            schur = rest - level[:, :, 1:, :1] * (level[:, :, :1, 1:] / level[:, :, :1, :1])
            level = np.concatenate((rest, schur), axis=1)
            nodes = np.concatenate((nodes, nodes + (1 << k)))
            k += 1

    search(stack[:, None], np.arange(len(stack)), 0, np.zeros(1, dtype=np.int64))
    if not found:
        return None
    i, k, q, pivot = min(found)
    return i, tuple(t for t in range(k) if q >> t & 1) + (k,), pivot


def _sign_vertices(mid: np.ndarray, rad: np.ndarray, cap_evals: int):
    """Stacked (Z, mid - diag(z) rad diag(z)) over z in {+-1}^n with z[0] = 1
    (z and -z give the same member), in chunks: z = -v for the vertices v of
    the box lo = -1, hi = (-1, 1, ..., 1)."""
    hi = np.ones(len(mid))
    hi[:1] = -1.0
    return ((-V, mid - V[:, :, None] * V[:, None, :] * rad)
            for V in vertex_chunks(-np.ones(len(mid)), hi, cap_evals))


def _singular_member(A: IntervalMatrix, h: ClassReport | None, mid_is_m: bool):
    """A singular member, searched for only where one must exist: an M-matrix
    midpoint without the H property means the box is not regular."""
    return oracle.find_singular_member(A) if mid_is_m and h.is_no else None


def _p_report(A: IntervalMatrix, cap_evals: int, h: ClassReport | None,
              witness) -> ClassReport:
    """P verdict; ``h`` is the H report when the midpoint is an M-matrix (P-ness
    is then the H property, and ``witness`` a singular member), else None."""
    if h is not None:
        path = "H-matrix reduction (midpoint is an M-matrix)"
        if h.is_yes:
            return ClassReport("PMatrixSpecialCase", YES, {"path": path, "v": h.certificate["v"]})
        return ClassReport("PMatrixSpecialCase", NO, {
            "path": path,
            "reason": "not an H-matrix, hence not regular, hence not P",
            "witness": witness,
        })
    n = A.rows
    tol = _tol(STRICT_RTOL, A.lo, A.hi)
    mid, rad = A.mid, A.rad
    diagonal = any(np.all(np.abs(m - np.diag(np.diag(m))) <= tol) for m in (mid, rad))
    if diagonal:
        path, what, cost = ("lower-endpoint reduction (diagonal midpoint or radius)",
                            "lower endpoint", "exponential in n (principal minors)")
        evals, over = 1 << n, "principal-minor enumeration exceeds the cap"
    else:
        path, what, cost = ("sign-vertex enumeration", "sign-vertex matrix",
                            "exponential (sign-vertex P-checks)")
        evals, over = (1 << max(n - 1, 0)) * ((1 << n) - 1), "sign-vertex P-checks exceed the cap"
    if evals > cap_evals:
        return ClassReport("PMatrixSpecialCase", UNKNOWN, {"reason": over},
                           cost_note="exponential (capped)")
    for Z, stack in [(None, A.lo[None])] if diagonal else _sign_vertices(mid, rad, cap_evals):
        found = _first_nonpositive_pivot(stack, tol)
        if found is not None:
            i, subset, pivot = found
            signs = {} if Z is None else {"sign_vector": Z[i].copy()}
            return ClassReport("PMatrixSpecialCase", NO, {
                "path": path,
                "reason": f"{what} has a nonpositive principal minor",
                "witness": stack[i].copy(),
                **signs,
                "principal_subset": subset,
                "pivot": pivot,
            }, cost_note=cost)
    return ClassReport("PMatrixSpecialCase", YES, {"path": path}, cost_note=cost)


def is_p_matrix_special(A: IntervalMatrix, cap_evals: int = DEFAULT_CAP) -> ClassReport:
    """Interval P-matrix test on its polynomially decidable special cases.

    Dispatch: if the midpoint is an M-matrix, P-ness coincides with the
    H-matrix property; if the midpoint or the radius is diagonal, it reduces
    to a P-test of the lower endpoint; otherwise falls back to the
    exponential sign-vertex criterion, capped. Beyond the cap the verdict
    is unknown, never a guess.

    A real matrix is P when its 2^n - 1 recursive Schur-complement pivots,
    one per principal minor, all exceed STRICT_RTOL max(|lo|, |hi|): O(2^n n^2)
    work. A no names a principal subset with a nonpositive minor and its pivot.
    """
    if not A.is_square:
        raise ValueError("P-matrix test requires a square matrix")
    mid_is_m = is_m_matrix_real(A.mid).is_yes
    h = is_h_matrix_interval(A) if mid_is_m else None
    return _p_report(A, cap_evals, h, _singular_member(A, h, mid_is_m))


def _symmetric(A) -> SymmetricIntervalMatrix:
    # an asymmetric box is a refused precondition, an empty one invalid input
    kernel._nonempty(A.lo)
    try:
        return as_symmetric(A)
    except ValueError as exc:
        raise PreconditionViolated(str(exc)) from exc


def _pd_report(S: SymmetricIntervalMatrix, h: ClassReport, mid_is_m: bool,
               cap_evals: int) -> ClassReport:
    """PD verdict from the family's H report and its midpoint's M verdict."""
    mid = S.mid
    mid_eigs = kernel.sym_eigenvalues(mid)
    mid_pd = bool(mid_eigs[-1] > _tol(STRICT_RTOL, mid))
    if h.is_yes and mid_pd:
        return ClassReport("PositiveDefiniteSufficient", YES, {
            "v": h.certificate["v"],
            "midpoint_eigenvalues": mid_eigs,
        })
    if mid_pd and mid_is_m and h.is_no:
        witness = None
        lam = None
        for _, members in _sign_vertices(mid, S.rad, cap_evals):
            for member in members:
                val = float(kernel.sym_eigenvalues(member)[-1])
                if lam is None or val < lam:
                    lam, witness = val, member.copy()
        return ClassReport("PositiveDefiniteSufficient", NO, {
            "reason": "midpoint is a positive definite M-matrix but the "
                      "family is not an H-matrix (hence not regular)",
            "witness": witness,
            "witness_lambda_min": lam,
        })
    return ClassReport("PositiveDefiniteSufficient", UNKNOWN, {
        "h_verdict": h.verdict,
        "midpoint_positive_definite": mid_pd,
    })


def is_positive_definite_sufficient(A, cap_evals: int = DEFAULT_CAP) -> ClassReport:
    """Positive definiteness of the symmetric member family, where decidable.

    Yes when the matrix is an H-matrix with positive definite midpoint;
    definitive no when the midpoint is a positive definite M-matrix and the
    H-test fails (the family is then not regular); unknown otherwise. The
    witness of a no is the sign-vertex member of least smallest eigenvalue;
    its search raises CapExceeded beyond ``cap_evals`` sign vertices.
    """
    S = _symmetric(A)
    return _pd_report(S, is_h_matrix_interval(S.base), is_m_matrix_real(S.mid).is_yes,
                      cap_evals)


def _regular_report(h: ClassReport, mid_is_m: bool, witness) -> ClassReport:
    if h.is_yes:
        return ClassReport("Regular", YES, {
            "v": h.certificate["v"],
            "path": "H-matrix (sufficient for regularity)",
        })
    if mid_is_m:
        return ClassReport("Regular", NO, {
            "path": "regularity iff H (midpoint is an M-matrix)",
            "witness": witness,
        })
    return ClassReport("Regular", UNKNOWN, {
        "reason": "midpoint is not an M-matrix and the H-test failed; "
                  "regularity is undecided by this test",
    })


def is_regular_via_h(A: IntervalMatrix) -> ClassReport:
    """Regularity through the H-matrix property.

    Exact (iff) when the midpoint is an M-matrix; otherwise the H-property
    is still sufficient, and a failed H-test leaves regularity unknown.
    """
    if not A.is_square:
        raise ValueError("regularity test requires a square matrix")
    h = is_h_matrix_interval(A)
    mid_is_m = is_m_matrix_real(A.mid).is_yes
    return _regular_report(h, mid_is_m, _singular_member(A, h, mid_is_m))


def classify_all(A: IntervalMatrix, cap_evals: int = DEFAULT_CAP) -> list[ClassReport]:
    """Run every applicable recognition test once; used by the CLI.

    The H report and the midpoint's M verdict are shared by the P, Regular
    and PD reports, and so is the one singular-member search they may need.
    """
    m = is_m_matrix_interval(A)
    h = is_h_matrix_interval(A)
    reports = [m, h, is_inverse_nonnegative_interval(A),
               is_totally_positive_interval(A), is_b_matrix_interval(A)]
    mid_is_m = is_m_matrix_real(A.mid).is_yes
    witness = _singular_member(A, h, mid_is_m)
    reports += [_p_report(A, cap_evals, h if mid_is_m else None, witness),
                _regular_report(h, mid_is_m, witness)]
    try:
        reports.append(is_inverse_m_interval(A, cap_evals=cap_evals))
    except CapExceeded:
        reports.append(ClassReport("InverseM", UNKNOWN, {
            "reason": "vertex enumeration exceeds the cap",
        }, cost_note="exponential (capped)"))
    if is_symmetric_family(A):
        reports.append(_pd_report(_symmetric(A), h, mid_is_m, cap_evals))
    structure = classify_structure(A)
    for flag in ("Nonnegative", "MidpointNonnegative", "DiagonallyInterval",
                 "SymmetricMidpoint"):
        reports.append(ClassReport(flag, YES if flag in structure else NO, {}))
    return reports
