"""Brute-force ground truth: vertex enumeration and seeded member sampling.

Vertex enumeration is exact where a multilinearity/monotonicity argument
applies (determinant ranges; solution hulls of regular systems, whose
componentwise extrema occur at vertex matrices and vertex right-hand
sides). Everything else is an inner approximation used for containment
and endpoint-attainment checks, never for equality claims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, SingularInside
from .intervals import (
    Interval,
    IntervalMatrix,
    IntervalVector,
    SymmetricIntervalMatrix,
    _tol,
    vertex_block,
    vertex_chunks,
)


@dataclass
class OracleConfig:
    vertex_cap: int = 1 << 24  # max enumerated realizations per call
    samples: int = 500
    grid_step: float = 1e-2
    seed: int = 0


DEFAULT_CONFIG = OracleConfig()
_GRID_BUDGET = 1 << 16  # matrix entries per chunk of cube_range grid members


def _expand_symmetric(flat: np.ndarray, n: int) -> np.ndarray:
    """Symmetric n x n matrices (stacked along leading axes) from their upper triangles."""
    iu = np.triu_indices(n)
    full = np.empty(flat.shape[:-1] + (n, n))
    full[..., iu[0], iu[1]] = flat
    full[..., iu[1], iu[0]] = flat
    return full


def sample_members(A: IntervalMatrix | IntervalVector, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Uniform per-entry samples from the box; shape (count, *A.shape)."""
    lo, hi = A.lo, A.hi
    u = rng.random((count,) + lo.shape)
    return lo + (hi - lo) * u


def sample_symmetric_members(A: SymmetricIntervalMatrix, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the symmetric member family."""
    lo, hi = A.lo, A.hi
    n = A.n
    u = rng.random((count, n, n))
    iu = np.triu_indices(n)
    return _expand_symmetric(lo[iu] + (hi[iu] - lo[iu]) * u[:, iu[0], iu[1]], n)


def det_range(A: IntervalMatrix, cfg: OracleConfig = DEFAULT_CONFIG) -> Interval:
    """Exact determinant range by vertex enumeration.

    Exact because the determinant is affine in each entry, so its extrema
    over the box occur at vertex matrices.
    """
    if not A.is_square:
        raise ValueError("determinant range requires a square matrix")
    best_lo = np.inf
    best_hi = -np.inf
    for block in vertex_chunks(A.lo, A.hi, cfg.vertex_cap):
        dets = np.linalg.det(block)
        best_lo = min(best_lo, float(dets.min()))
        best_hi = max(best_hi, float(dets.max()))
    return Interval(best_lo, best_hi)


def _regularity_check(A: IntervalMatrix, cfg: OracleConfig) -> None:
    rng = det_range(A, cfg)
    tol = _tol(1e-12, [rng.lo, rng.hi])
    if rng.lo <= tol and rng.hi >= -tol:
        raise SingularInside(
            f"vertex determinant range [{rng.lo:.3e}, {rng.hi:.3e}] contains zero")


def solution_hull(A: IntervalMatrix, b: IntervalVector,
                  cfg: OracleConfig = DEFAULT_CONFIG) -> IntervalVector:
    """Exact hull of {x : Mx = r, M in A, r in b} for regular A.

    Enumerates all vertex (matrix, rhs) pairs; exact because componentwise
    extrema of the solution set are attained there.
    """
    if not A.is_square or A.rows != b.n:
        raise ValueError("system dimensions do not agree")
    _regularity_check(A, cfg)
    n = A.rows
    joint_lo = np.concatenate([A.lo.ravel(), b.lo])
    joint_hi = np.concatenate([A.hi.ravel(), b.hi])
    hull_lo = np.full(n, np.inf)
    hull_hi = np.full(n, -np.inf)
    for block in vertex_chunks(joint_lo, joint_hi, cfg.vertex_cap):
        mats = block[:, :n * n].reshape(-1, n, n)
        rhs = block[:, n * n:]
        xs = np.linalg.solve(mats, rhs[..., None])[..., 0]
        hull_lo = np.minimum(hull_lo, xs.min(axis=0))
        hull_hi = np.maximum(hull_hi, xs.max(axis=0))
    return IntervalVector(hull_lo, hull_hi)


def range_sampling(f, A: IntervalMatrix | SymmetricIntervalMatrix,
                   cfg: OracleConfig = DEFAULT_CONFIG) -> Interval:
    """Inner approximation of the range of f: vertices plus sampled members.

    For a SymmetricIntervalMatrix the enumeration and sampling stay inside
    the symmetric member family. Vertices are folded in one enumeration
    chunk at a time, never listed.
    """
    rng = np.random.default_rng(cfg.seed)
    if isinstance(A, SymmetricIntervalMatrix):
        iu = np.triu_indices(A.n)
        chunks = (_expand_symmetric(chunk, A.n) for chunk in
                  vertex_chunks(A.lo[iu], A.hi[iu], cfg.vertex_cap))
        samples = sample_symmetric_members(A, cfg.samples, rng)
    else:
        chunks = vertex_chunks(A.lo, A.hi, cfg.vertex_cap)
        samples = sample_members(A, cfg.samples, rng)
    members = itertools.chain(itertools.chain.from_iterable(chunks), samples)
    vals = (float(f(m)) for m in members)
    lo = hi = next(vals)
    for v in vals:
        lo, hi = min(lo, v), max(hi, v)
    return Interval(lo, hi)


def minors_positive(a: np.ndarray) -> tuple[bool, bool]:
    """Exhaustive minor checks: (all minors > 0, all principal minors > 0).

    Limited to n <= 6; the number of square submatrices grows as 4^n.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("expected a square matrix")
    if n > 6:
        raise CapExceeded("exhaustive minor enumeration is limited to n <= 6")
    all_pos = True
    principal_pos = True
    idx = range(n)
    for k in range(1, n + 1):
        for rows in itertools.combinations(idx, k):
            for cols in itertools.combinations(idx, k):
                minor = float(np.linalg.det(a[np.ix_(rows, cols)]))
                if minor <= 0.0:
                    all_pos = False
                    if rows == cols:
                        principal_pos = False
        if not all_pos and not principal_pos:
            break
    return all_pos, principal_pos


def cube_range(A: IntervalMatrix, cfg: OracleConfig = DEFAULT_CONFIG) -> IntervalMatrix:
    """Entrywise range of the third power over a diagonally interval matrix.

    Dense grid (including endpoints) over the non-degenerate diagonal
    entries, at most three of them, cubed in chunks of at most
    ``_GRID_BUDGET`` matrix entries.
    """
    if not A.is_square:
        raise ValueError("cube range requires a square matrix")
    offdiag_rad = A.rad - np.diag(np.diag(A.rad))
    if np.max(offdiag_rad) > 0:
        raise ValueError("matrix is not diagonally interval")
    n = A.rows
    diag_lo = np.diag(A.lo)
    diag_hi = np.diag(A.hi)
    varying = np.flatnonzero(diag_hi > diag_lo)
    if len(varying) > 3:
        raise CapExceeded("grid oracle supports at most 3 varying diagonal entries")
    axes = []
    for i in varying:
        width = diag_hi[i] - diag_lo[i]
        npts = max(2, int(round(width / cfg.grid_step)) + 1)
        axes.append(np.linspace(diag_lo[i], diag_hi[i], npts))
    total = int(np.prod([len(ax) for ax in axes])) if axes else 1
    if total > cfg.vertex_cap:
        raise CapExceeded(f"{total} grid points exceed the cap of {cfg.vertex_cap}")
    base = A.mid
    if len(varying) == 0:
        cube = np.linalg.matrix_power(base, 3)
        return IntervalMatrix(cube, cube)
    shape = tuple(len(ax) for ax in axes)
    step = max(1, _GRID_BUDGET // (n * n))
    lo = np.full((n, n), np.inf)
    hi = np.full((n, n), -np.inf)
    for start in range(0, total, step):
        # grid points start.. in the row-major order of an "ij" meshgrid
        points = np.unravel_index(np.arange(start, min(start + step, total)), shape)
        mats = np.broadcast_to(base, (len(points[0]), n, n)).copy()
        for i, ax, pos in zip(varying, axes, points):
            mats[:, i, i] = ax[pos]
        cubes = np.matmul(np.matmul(mats, mats), mats)
        np.minimum(lo, cubes.min(axis=0), out=lo)
        np.maximum(hi, cubes.max(axis=0), out=hi)
    return IntervalMatrix(lo, hi)


def find_singular_member(A: IntervalMatrix | SymmetricIntervalMatrix,
                         cfg: OracleConfig = DEFAULT_CONFIG) -> np.ndarray | None:
    """A singular member matrix, or None when every vertex determinant has one sign.

    Looks for a near-zero vertex determinant first, then bisects the segment
    between two opposite-sign vertices (every convex combination of members
    is a member). For a SymmetricIntervalMatrix the search stays symmetric.
    Determinants are taken per enumeration chunk; only the vertices the
    result needs are rebuilt, from their enumeration indices.
    """
    symmetric = isinstance(A, SymmetricIntervalMatrix)
    if symmetric:
        iu = np.triu_indices(A.n)
        box_lo, box_hi = A.lo[iu], A.hi[iu]
    else:
        box_lo, box_hi = A.lo, A.hi

    def vertices(block):
        return _expand_symmetric(block, A.n) if symmetric else block

    dets = np.concatenate([
        np.linalg.det(vertices(block))
        for block in vertex_chunks(box_lo, box_hi, cfg.vertex_cap)])

    def vertex(index):
        mask = np.array([index], dtype=np.uint64)
        return vertices(vertex_block(box_lo, box_hi, mask))[0]

    tol = _tol(1e-12, dets)
    near = np.flatnonzero(np.abs(dets) <= tol)
    if len(near):
        return vertex(int(near[0]))
    pos = np.flatnonzero(dets > 0)
    neg = np.flatnonzero(dets < 0)
    if not len(pos) or not len(neg):
        return None
    v_pos = vertex(int(pos[0]))
    v_neg = vertex(int(neg[0]))
    t_lo, t_hi = 0.0, 1.0  # det at t_lo positive, at t_hi negative
    for _ in range(200):
        t = 0.5 * (t_lo + t_hi)
        d = float(np.linalg.det((1 - t) * v_pos + t * v_neg))
        if abs(d) <= tol:
            break
        if d > 0:
            t_lo = t
        else:
            t_hi = t
    t = 0.5 * (t_lo + t_hi)
    return (1 - t) * v_pos + t * v_neg
