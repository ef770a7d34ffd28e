"""Seeded input generators for the benchmark workloads.

The class generators (M, H, inverse nonnegative, totally positive,
inverse-M, diagonal-PSD, nonnegative, sign-stable, right-hand sides) come
from ``tests/conftest.py`` unchanged. This module adds what they lack:
out-of-class boxes, the 10^k scaled copies, the rank-one and
single-equation parametric families, and the CLI problem files.

Every generator takes a ``numpy.random.Generator``; each workload derives
its generator from the benchmark's ``--seed`` alone, so the same seed gives
the same inputs.
"""

from __future__ import annotations

import importlib.util
import json
import os
from dataclasses import dataclass

import numpy as np

from ivmat import classify
from ivmat.intervals import IntervalMatrix, IntervalVector
from ivmat.linsolve import IntervalLinearSystem
from ivmat.parametric import ParametricSystem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_conftest():
    path = os.path.join(ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("ivmat_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_conftest()

SCALE_EXPONENTS = (0, -8, 8)


@dataclass
class Instance:
    """One generated input; scaled copies share the name of the unscaled one."""

    name: str
    n: int
    A: IntervalMatrix
    b: IntervalVector | None = None
    scale_exp: int = 0

    @property
    def system(self) -> IntervalLinearSystem:
        return IntervalLinearSystem(self.A, self.b)


def make_generic_box(rng: np.random.Generator, n: int) -> IntervalMatrix:
    """Mixed-sign box with no structure: a member of none of the classes."""
    mid = rng.uniform(-1.0, 1.0, (n, n))
    rad = rng.uniform(0.0, 0.1, (n, n))
    return IntervalMatrix.from_midrad(mid, rad)


def make_m_midpoint_not_h(rng: np.random.Generator, n: int) -> IntervalMatrix:
    """Box whose midpoint is an M-matrix but which is not an H-matrix (n >= 5).

    The midpoint is a diagonally dominant Z-matrix; off-diagonal radii of
    twice the midpoint magnitude make the comparison matrix lose dominance,
    which for an M midpoint means the box holds a singular member.
    """
    if n < 5:
        raise ValueError("the M-midpoint, non-H family is generated for n >= 5")
    for _ in range(100):
        off = -rng.uniform(0.05, 0.5, (n, n))
        np.fill_diagonal(off, 0.0)
        diag = np.abs(off).sum(axis=1) * rng.uniform(1.05, 1.3, n)
        mid = off.copy()
        mid[np.diag_indices(n)] = diag
        rad = 2.0 * np.abs(off)
        A = IntervalMatrix.from_midrad(mid, rad)
        if (classify.is_m_matrix_real(mid).is_yes
                and classify.is_h_matrix_interval(A).is_no):
            return A
    raise AssertionError("failed to generate an M-midpoint, non-H box")


def scaled(A: IntervalMatrix, exp: int) -> IntervalMatrix:
    factor = 10.0 ** exp
    return IntervalMatrix(A.lo * factor, A.hi * factor)


def _dominant_base(rng: np.random.Generator, n: int, symmetric: bool) -> np.ndarray:
    G = rng.uniform(-0.5, 0.5, (n, n))
    if symmetric:
        G = 0.5 * (G + G.T)
    G[np.diag_indices(n)] = np.abs(G).sum(axis=1) + rng.uniform(1.0, 2.0, n)
    return G


def make_rank_one_family(rng: np.random.Generator, n: int, k: int,
                         symmetric: bool = False) -> ParametricSystem:
    """A(p) = A_0 + sum_k p_k u_k v_k^T with k varying parameters; b constant.

    The first parameter is fixed at 1 and carries A_0 and b; the rank-one
    terms are small next to the dominant diagonal of A_0, so A(p) stays
    nonsingular (and positive definite when ``symmetric``) on the box.
    """
    A0 = _dominant_base(rng, n, symmetric)
    mats = [A0]
    vecs = [rng.uniform(-1.0, 1.0, n)]
    for _ in range(k):
        u = rng.uniform(-1.0, 1.0, n)
        v = u if symmetric else rng.uniform(-1.0, 1.0, n)
        mats.append(np.outer(u, v) * (0.5 / n))
        vecs.append(np.zeros(n))
    lo = np.concatenate([[1.0], -rng.uniform(0.1, 1.0, k)])
    hi = np.concatenate([[1.0], rng.uniform(0.1, 1.0, k)])
    return ParametricSystem(mats, vecs, IntervalVector(lo, hi))


def make_single_equation_family(rng: np.random.Generator, n: int,
                                k: int) -> ParametricSystem:
    """Each of the k varying parameters touches exactly one equation row."""
    A0 = _dominant_base(rng, n, symmetric=False)
    mats = [A0]
    vecs = [rng.uniform(-1.0, 1.0, n)]
    rows = rng.choice(n, size=k, replace=k > n)
    for r in rows:
        Ak = np.zeros((n, n))
        Ak[r] = rng.uniform(-0.3, 0.3, n)
        bk = np.zeros(n)
        bk[r] = rng.uniform(-0.5, 0.5)
        mats.append(Ak)
        vecs.append(bk)
    lo = np.concatenate([[1.0], -rng.uniform(0.1, 1.0, k)])
    hi = np.concatenate([[1.0], rng.uniform(0.1, 1.0, k)])
    return ParametricSystem(mats, vecs, IntervalVector(lo, hi))


# -- CLI problem files ---------------------------------------------------


def _entries(A: IntervalMatrix) -> list:
    return [[[float(A.lo[i, j]), float(A.hi[i, j])] for j in range(A.cols)]
            for i in range(A.rows)]


def matrix_payload(A: IntervalMatrix) -> dict:
    return {"format_version": 1, "kind": "matrix", "entries": _entries(A)}


def system_payload(A: IntervalMatrix, b: IntervalVector) -> dict:
    return {"format_version": 1, "kind": "system", "A": _entries(A),
            "b": [[float(b.lo[i]), float(b.hi[i])] for i in range(b.n)]}


def parametric_payload(P: ParametricSystem) -> dict:
    return {"format_version": 1, "kind": "parametric",
            "A_k": [a.tolist() for a in P.coeff_matrices],
            "b_k": [v.tolist() for v in P.rhs_vectors],
            "p": [[float(P.box.lo[i]), float(P.box.hi[i])] for i in range(P.box.n)]}


def write_problem(directory: str, name: str, payload: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path
