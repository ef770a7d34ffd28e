"""Interval records, array interval arithmetic, interval vectors/matrices,
and vertex machinery.

``Interval`` is a validated (lo, hi) record and does no arithmetic. All
interval arithmetic is ``isub``, ``imul`` and ``idiv``, applied to whole
arrays of endpoints; ``imatmul`` and the elimination in ``linsolve`` are
built from them.

Conventions used throughout the package:

* intervals are closed and finite; endpoint formulas are evaluated in plain
  floating point (no directed rounding), and numerical slack is handled by
  tolerances at the call sites;
* an entry with ``lo == hi`` is *degenerate* and never contributes a branch
  to vertex enumeration;
* the alternating sign vector ``s = (1, -1, 1, ...)`` uses 1-based parity,
  i.e. ``s[i] = (-1)**i`` for 0-based index ``i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded

DEFAULT_CAP = 1 << 20  # max realizations an enumeration evaluates
SYMMETRY_RTOL = 1e-12  # asymmetry allowed, relative to the matrix scale
_CHUNK = 1 << 14


def _tol(rtol: float, *arrays) -> float:
    """``rtol`` times the largest magnitude in ``arrays``, with no floor: the
    one tolerance rule, so a power-of-two scaling scales a tolerance exactly."""
    return rtol * max(float(np.max(np.abs(a), initial=0.0)) for a in arrays)


def _is_symmetric(a, slack: float = 0.0) -> bool:
    """The package's one symmetry predicate: a square array whose asymmetry
    is at most ``slack`` plus SYMMETRY_RTOL times its own magnitude."""
    a = np.asarray(a, dtype=float)
    return bool(np.max(np.abs(a - a.T), initial=0.0) <= slack + _tol(SYMMETRY_RTOL, a))


def _validate_bounds(lo: np.ndarray, hi: np.ndarray, ndim: int, what: str) -> None:
    if lo.ndim != ndim or hi.ndim != ndim:
        raise ValueError(f"{what} bounds must be {ndim}-dimensional")
    if lo.shape != hi.shape:
        raise ValueError(f"{what} bounds differ in shape: {lo.shape} vs {hi.shape}")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError(f"{what} bounds must be finite")
    if np.any(lo > hi):
        where = np.argwhere(lo > hi)[0]
        raise ValueError(f"{what} has lo > hi at index {tuple(where)}")


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with finite endpoints; a record, no arithmetic."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval has lo={self.lo} > hi={self.hi}")

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


# Elementwise interval arithmetic on (lo, hi) pairs of broadcastable arrays
# (or scalars); the only interval arithmetic in the package.

def isub(alo, ahi, blo, bhi):
    return alo - bhi, ahi - blo


def imul(alo, ahi, blo, bhi):
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    return (np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
            np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)))


def idiv(alo, ahi, blo, bhi):
    """Interval division; the divisor must not contain zero, nor be so close
    to it (subnormal) that its reciprocal overflows and 0 * inf gives NaN."""
    if np.any((np.asarray(blo) <= 0.0) & (np.asarray(bhi) >= 0.0)):
        raise ZeroDivisionError("interval divisor contains zero")
    with np.errstate(over="ignore"):
        rlo, rhi = 1.0 / bhi, 1.0 / blo
    if not (np.all(np.isfinite(rlo)) and np.all(np.isfinite(rhi))):
        raise ZeroDivisionError("interval divisor has a reciprocal that overflows")
    return imul(alo, ahi, rlo, rhi)


def mignitude(lo, hi):
    """Elementwise smallest absolute value over [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return np.where((lo <= 0.0) & (hi >= 0.0), 0.0,
                    np.minimum(np.abs(lo), np.abs(hi)))


def magnitude(lo, hi):
    """Elementwise largest absolute value over [lo, hi]."""
    return np.maximum(np.abs(lo), np.abs(hi))


class IntervalVector:
    """Interval vector stored as paired lower/upper bound arrays."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
        hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
        _validate_bounds(lo, hi, 1, "interval vector")
        lo.flags.writeable = False
        hi.flags.writeable = False
        self._lo = lo
        self._hi = hi

    @classmethod
    def point(cls, v) -> "IntervalVector":
        v = np.asarray(v, dtype=float)
        return cls(v, v)

    @classmethod
    def from_midrad(cls, mid, rad) -> "IntervalVector":
        mid = np.asarray(mid, dtype=float)
        rad = np.asarray(rad, dtype=float)
        if np.any(rad < 0):
            raise ValueError("radius must be nonnegative")
        return cls(mid - rad, mid + rad)

    @property
    def lo(self) -> np.ndarray:
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        return self._hi

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self._lo + self._hi)

    @property
    def rad(self) -> np.ndarray:
        return 0.5 * (self._hi - self._lo)

    @property
    def n(self) -> int:
        return self._lo.shape[0]

    def __len__(self) -> int:
        return self.n

    def entry(self, i: int) -> Interval:
        return Interval(float(self._lo[i]), float(self._hi[i]))

    def contains_point(self, v, tol: float = 0.0) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.all(self._lo - tol <= v) and np.all(v <= self._hi + tol))

    def contains_vector(self, other: "IntervalVector", tol: float = 0.0) -> bool:
        return bool(np.all(self._lo - tol <= other.lo)
                    and np.all(other.hi <= self._hi + tol))

    def __repr__(self) -> str:
        parts = ", ".join(f"[{float(l)!r}, {float(h)!r}]"
                          for l, h in zip(self._lo, self._hi))
        return f"IntervalVector({parts})"


class IntervalMatrix:
    """Rectangular interval matrix stored as paired lower/upper bound arrays."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).copy()
        hi = np.asarray(hi, dtype=float).copy()
        _validate_bounds(lo, hi, 2, "interval matrix")
        lo.flags.writeable = False
        hi.flags.writeable = False
        self._lo = lo
        self._hi = hi

    @classmethod
    def point(cls, a) -> "IntervalMatrix":
        a = np.asarray(a, dtype=float)
        return cls(a, a)

    @classmethod
    def from_midrad(cls, mid, rad) -> "IntervalMatrix":
        mid = np.asarray(mid, dtype=float)
        rad = np.asarray(rad, dtype=float)
        if np.any(rad < 0):
            raise ValueError("radius must be nonnegative")
        return cls(mid - rad, mid + rad)

    @property
    def lo(self) -> np.ndarray:
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        return self._hi

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self._lo + self._hi)

    @property
    def rad(self) -> np.ndarray:
        return 0.5 * (self._hi - self._lo)

    @property
    def shape(self) -> tuple[int, int]:
        return self._lo.shape

    @property
    def rows(self) -> int:
        return self._lo.shape[0]

    @property
    def cols(self) -> int:
        return self._lo.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Interval:
        return Interval(float(self._lo[i, j]), float(self._hi[i, j]))

    def contains_point(self, a, tol: float = 0.0) -> bool:
        a = np.asarray(a, dtype=float)
        return bool(np.all(self._lo - tol <= a) and np.all(a <= self._hi + tol))

    def contains_matrix(self, other: "IntervalMatrix", tol: float = 0.0) -> bool:
        return bool(np.all(self._lo - tol <= other.lo)
                    and np.all(other.hi <= self._hi + tol))

    def __repr__(self) -> str:
        return f"IntervalMatrix(lo={self._lo!r}, hi={self._hi!r})"


class SymmetricIntervalMatrix:
    """View of a square interval matrix restricted to its symmetric members.

    Requires both the midpoint and the radius to be symmetric so the set
    of symmetric members is nonempty and spans all entries.
    """

    __slots__ = ("_base",)

    def __init__(self, base: IntervalMatrix):
        if not base.is_square:
            raise ValueError("symmetric interval matrix must be square")
        if base.rows == 0:
            raise ValueError("expected a nonempty matrix, got the empty matrix of shape (0, 0)")
        if not _is_symmetric(base.mid):
            raise ValueError("midpoint is not symmetric")
        if not _is_symmetric(base.rad):
            raise ValueError("radius is not symmetric")
        self._base = base

    @property
    def base(self) -> IntervalMatrix:
        return self._base

    @property
    def lo(self) -> np.ndarray:
        return self._base.lo

    @property
    def hi(self) -> np.ndarray:
        return self._base.hi

    @property
    def mid(self) -> np.ndarray:
        return self._base.mid

    @property
    def rad(self) -> np.ndarray:
        return self._base.rad

    @property
    def n(self) -> int:
        return self._base.rows

    def contains_point(self, a, tol: float = 0.0) -> bool:
        return _is_symmetric(a, tol) and self._base.contains_point(a, tol)

    def __repr__(self) -> str:
        return f"SymmetricIntervalMatrix({self._base!r})"


def as_symmetric(A) -> SymmetricIntervalMatrix:
    if isinstance(A, SymmetricIntervalMatrix):
        return A
    return SymmetricIntervalMatrix(A)


def comparison_matrix(A: IntervalMatrix) -> np.ndarray:
    """Real matrix with mignitudes on the diagonal and negated magnitudes off it."""
    if not A.is_square:
        raise ValueError("comparison matrix requires a square matrix")
    C = -magnitude(A.lo, A.hi)
    diag = mignitude(np.diag(A.lo), np.diag(A.hi))
    np.fill_diagonal(C, diag)
    return C


def alternating_signs(n: int) -> np.ndarray:
    """The vector (1, -1, 1, -1, ...) of length n."""
    s = np.ones(n)
    s[1::2] = -1.0
    return s


def sign_flip_at(n: int, i: int) -> np.ndarray:
    """All-ones vector with a single -1 at position i."""
    z = np.ones(n)
    z[i] = -1.0
    return z


def sign_flip_family(A: IntervalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of mid + diag(z^i) rad diag(z^j) and mid - diag(z^i) rad diag(z^j),
    z^i = ``sign_flip_at(n, i)``, each in row-major (i, j) order."""
    n = A.rows
    Z = 1.0 - 2.0 * np.eye(n)
    signed = (Z[:, None, :, None] * Z[None, :, None, :] * A.rad).reshape(n * n, n, n)
    return A.mid + signed, A.mid - signed


def sign_similarity(A: IntervalMatrix, s: np.ndarray) -> IntervalMatrix:
    """Interval matrix of diag(s) @ A @ diag(s) taken memberwise."""
    pattern = np.outer(s, s)
    lo = np.where(pattern > 0, A.lo, -A.hi)
    hi = np.where(pattern > 0, A.hi, -A.lo)
    return IntervalMatrix(lo, hi)


def checkerboard_vertices(A: IntervalMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Members mid -/+ diag(s) rad diag(s) for the alternating sign vector s.

    Entry (i, j) of the first matrix is lo when i+j is even (0-based) and hi
    otherwise; the second matrix takes the opposite choice.
    """
    if not A.is_square:
        raise ValueError("checkerboard vertices require a square matrix")
    s = alternating_signs(A.rows)
    signed = np.outer(s, s) * A.rad
    return A.mid - signed, A.mid + signed


def checkerboard_rhs(b: IntervalVector) -> tuple[np.ndarray, np.ndarray]:
    """Vectors mid -/+ diag(s) rad for the alternating sign vector s."""
    s = alternating_signs(b.n)
    return b.mid - s * b.rad, b.mid + s * b.rad


def checkerboard_leq(u: np.ndarray, v: np.ndarray, tol: float = 0.0) -> bool:
    """Checkerboard order test: diag(s) u <= diag(s) v componentwise."""
    s = alternating_signs(len(u))
    return bool(np.all(s * u <= s * v + tol))


def checkerboard_box(v1, v2, tol: float = 0.0) -> IntervalVector:
    """Interval vector spanned by v1 <= v2 in the checkerboard order.

    Component i is [v1[i], v2[i]] for even 0-based i and [v2[i], v1[i]]
    for odd i. Rejects inputs not ordered by the checkerboard order.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if not checkerboard_leq(v1, v2, tol):
        raise ValueError("v1 is not <= v2 in the checkerboard order")
    # min/max: a tol-sized inversion on a near-degenerate component keeps lo <= hi
    return IntervalVector(np.minimum(v1, v2), np.maximum(v1, v2))


def vertex_block(lo: np.ndarray, hi: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Stacked vertices of the box [lo, hi]: bit b of a mask picks the upper
    bound of the b-th entry with lo < hi (in flat order)."""
    flat_lo = lo.ravel()
    flat_hi = hi.ravel()
    block = np.broadcast_to(flat_lo, (len(masks), flat_lo.size)).copy()
    for bit, p in enumerate(np.flatnonzero(flat_hi > flat_lo)):
        chosen = ((masks >> np.uint64(bit)) & np.uint64(1)).astype(bool)
        block[chosen, p] = flat_hi[p]
    return block.reshape((len(masks),) + lo.shape)


def vertex_chunks(lo: np.ndarray, hi: np.ndarray, cap_evals: int = DEFAULT_CAP):
    """Every vertex of the box [lo, hi] exactly once, as stacked chunks.

    The vertex at overall position i is the one of mask i in ``vertex_block``;
    degenerate entries (lo == hi) never branch. Raises CapExceeded at once
    when the 2^k vertices, k the number of branching entries, exceed
    ``cap_evals``.
    """
    k = int(np.count_nonzero(hi > lo))
    if k >= 63 or (1 << k) > cap_evals:
        raise CapExceeded(f"2^{k} vertex realizations exceed the cap of {cap_evals}")
    total = 1 << k
    return (vertex_block(lo, hi, np.arange(start, min(start + _CHUNK, total),
                                           dtype=np.uint64))
            for start in range(0, total, _CHUNK))


def imatmul(A: IntervalMatrix, B: IntervalMatrix) -> IntervalMatrix:
    """Interval matrix product in standard interval arithmetic."""
    if A.cols != B.rows:
        raise ValueError("dimension mismatch in interval matrix product")
    lo = np.zeros((A.rows, B.cols))
    hi = np.zeros((A.rows, B.cols))
    # one outer product per k, summed in k order (no pairwise .sum reordering)
    for k in range(A.cols):
        p_lo, p_hi = imul(A.lo[:, k, None], A.hi[:, k, None], B.lo[k], B.hi[k])
        lo += p_lo
        hi += p_hi
    return IntervalMatrix(lo, hi)
