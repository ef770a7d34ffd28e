"""Dense real linear algebra primitives used by every theorem-backed routine.

Factorizations are LAPACK-backed; ``lu_factor`` and ``lu_solve`` call the LU
routines ``dgetrf``/``dgetrs`` of SciPy's compiled LAPACK module directly.
This module adds the package-wide notion of numerical singularity (pivot
magnitude relative to the matrix inf-norm), the exponential
max-of-sign-vectors norm, and a thin LP wrapper with explicit
optimal/infeasible/unbounded statuses.

Spectral values are computed without vectors where no caller needs them:
``sym_eigenvalues`` calls ``eigvalsh``, and ``perron_root`` and
``sigma_max_nonneg`` find rho(A) and sigma_max(A) of a nonnegative matrix
(the Perron root of A and of A^T A) by a Collatz-Wielandt power-iteration
bracket, O(n^2) per step, instead of a full nonsymmetric eigensolve or SVD.
``sigma_min_from_inverse`` takes sigma_min(A) = 1 / sigma_max(A^-1) from the
same bracket when the inverse is already known and nonnegative. They agree
with LAPACK to within a few ulps, not bit for bit. Below ``_PERRON_MIN_N``
(32, where the bracket's per-step Python overhead stops costing more than
the LAPACK call, measured at one BLAS thread), and whenever the bracket
cannot run or does not converge, they return the LAPACK result unchanged.

``lu_factor`` and ``lu_solve`` are the two halves of ``solve`` and
``inverse``, so a caller can solve several right-hand sides, or decide from a
cheap one whether it needs the others, from one ``dgetrf``.

SciPy is loaded on first use, and only as much of it as is called. The
first pivoted LU loads the compiled module ``scipy.linalg._flapack`` from its
file, without running the ``scipy`` or ``scipy.linalg`` package code, which
imports far more than the LU needs. The module is not entered in
``sys.modules``, so a later ``import scipy.linalg`` loads as it would
otherwise; when ``scipy.linalg`` is already loaded, its ``_flapack`` is
reused. If the file cannot be found or loaded, or lacks either routine, the
LU falls back to ``scipy.linalg.lapack``, which exports the same routine
objects. The first LP imports ``scipy.optimize``. A command that needs
neither (eigenvalue, norm or cube ranges) loads no SciPy code at all.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CycleLimit, NonConvergence, NotSymmetric, SingularMatrix
from .intervals import DEFAULT_CAP, _is_symmetric, _tol, vertex_chunks

PIVOT_RTOL = 1e-12
_IMAG_RTOL = 1e-8  # imaginary parts up to this, relative, count as rounding
# Size from which the Perron-root bracket beats the LAPACK eigensolve/SVD
_PERRON_MIN_N = 32
_PERRON_STEPS = 100
_STALL_RTOL = 2e-13  # a stalled bracket this narrow is rounding noise
_EPS = float(np.finfo(float).eps)
_FLAPACK = "scipy.linalg._flapack"


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _nonempty(a: np.ndarray) -> np.ndarray:
    if a.size == 0:
        raise ValueError(f"expected a nonempty matrix, got the empty matrix of shape {a.shape}")
    return a


def inf_norm(a: np.ndarray) -> float:
    """Induced inf-norm (maximum absolute row sum)."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a).sum(axis=1)))


def _load_flapack():
    """``scipy.linalg._flapack``: SciPy's own if loaded, else loaded from its
    file alone, or None."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    stem = os.path.join(scipy_spec.submodule_search_locations[0], "linalg", "_flapack")
    path = next((stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(stem + suffix)), None)
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(
        _FLAPACK, path, loader=importlib.machinery.ExtensionFileLoader(_FLAPACK, path))
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    finally:
        # CPython enters a single-phase extension in sys.modules as it creates
        # it; leave the entry to the import of scipy.linalg
        sys.modules.pop(_FLAPACK, None)
    if not all(hasattr(module, r) for r in ("dgetrf", "dgetrs")):
        return None
    return module


@functools.cache
def _lapack():
    """The module whose ``dgetrf``/``dgetrs`` the LU calls (see the module doc)."""
    module = _load_flapack()
    if module is None:
        from scipy.linalg import lapack as module
    return module


def lu_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted LU factors ``(lu, piv)`` of a square matrix by ``dgetrf``.

    Raises SingularMatrix when the smallest pivot is at or below
    ``PIVOT_RTOL`` times the inf-norm: the package's one singularity test.
    """
    a = _nonempty(np.asarray_chkfinite(_as_square(a)))
    # tol first: inf_norm's n x n temporary is freed before dgetrf allocates
    tol = PIVOT_RTOL * inf_norm(a)
    lu, piv = _lapack().dgetrf(a)[:2]
    pivot = np.min(np.abs(np.diag(lu)))
    if pivot <= tol:
        raise SingularMatrix(
            f"pivot magnitude {pivot:.3e} at or below tolerance {tol:.3e}")
    return lu, piv


def lu_solve(factors: tuple[np.ndarray, np.ndarray], rhs) -> np.ndarray:
    """Solve a x = rhs by ``dgetrs`` from the ``lu_factor`` factors of a."""
    lu, piv = factors
    rhs = np.asarray_chkfinite(rhs)
    if rhs.ndim > 2 or rhs.shape[:1] != lu.shape[:1]:
        raise ValueError(f"Shapes of lu {lu.shape} and b {rhs.shape} are incompatible")
    return _lapack().dgetrs(lu, piv, rhs)[0]


def det(a) -> float:
    """Determinant: the signed product of the ``dgetrf`` pivots, carried as a
    mantissa and a binary exponent, so det(2^k a) = 2^(k n) det(a) bit for
    bit wherever both are normal floats; inf where it overflows a float."""
    a = _as_square(a)
    if not a.size:
        return 1.0
    lu, piv = _lapack().dgetrf(a)[:2]
    mantissas, exponents = np.frexp(np.diag(lu))
    m, e = (-1.0) ** int(np.count_nonzero(piv != np.arange(len(piv)))), int(exponents.sum())
    for start in range(0, len(mantissas), 1000):  # 1000 mantissas >= 2^-1000
        m, k = math.frexp(m * float(np.prod(mantissas[start:start + 1000])))
        e += k
    return math.ldexp(m, e) if e <= 1024 or not m else math.copysign(math.inf, m)


def _nonsingular(block: np.ndarray) -> np.ndarray:
    """Mask of the stacked matrices whose |det| exceeds PIVOT_RTOL times the
    largest in the block, compared as log-determinants, so none overflows."""
    sign, logdet = np.linalg.slogdet(block)
    return (sign != 0) & (logdet > np.max(logdet, initial=-np.inf) + np.log(PIVOT_RTOL))


def inverse(a) -> np.ndarray:
    """Matrix inverse; raises SingularMatrix on pivot-tolerance failure."""
    a = _as_square(a)
    return lu_solve(lu_factor(a), np.eye(a.shape[0]))


def solve(a, b) -> np.ndarray:
    """Solve a x = b; raises SingularMatrix on pivot-tolerance failure."""
    a = _as_square(a)
    b = np.asarray(b, dtype=float)
    return lu_solve(lu_factor(a), b)


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    a = _as_square(a)
    if not _is_symmetric(a):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return a


def sym_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""
    a = _check_symmetric(a)
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def sym_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending (no eigenvectors)."""
    return np.linalg.eigvalsh(_check_symmetric(a))[::-1].copy()


def singular_values(a) -> np.ndarray:
    """Singular values sorted descending."""
    a = _nonempty(np.asarray(a, dtype=float))
    return np.linalg.svd(a, compute_uv=False)


def eigenvalues_general(a) -> np.ndarray:
    """All eigenvalues of a general square matrix (complex, unsorted), as
    2^e eig(2^-e a), 2^e <= max|a| < 2^(e+1): exact under 2^k scaling."""
    a = _as_square(a)
    e = int(np.frexp(np.max(np.abs(a), initial=0.0))[1]) - 1
    try:
        return np.linalg.eigvals(np.ldexp(a, -e)) * 2.0 ** e
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc


def real_eigenvalues_sorted(a) -> np.ndarray:
    """Eigenvalues of a matrix known to have a real spectrum, descending.

    Raises NonConvergence if an imaginary part exceeds ``_IMAG_RTOL`` max|a|.
    """
    vals = eigenvalues_general(a)
    if np.max(np.abs(vals.imag)) > _tol(_IMAG_RTOL, a):
        raise NonConvergence("matrix does not have a (numerically) real spectrum")
    return np.sort(vals.real)[::-1].copy()


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(eigenvalues_general(a))))


def _collatz_wielandt(step, n: int) -> float | None:
    """Perron root of the nonnegative operator ``step``, bracketed from x = 1.

    For x > 0 each step gives min_i (Ax)_i / x_i <= rho <= max_i (Ax)_i / x_i.
    Returns the midpoint of the bracket once the gap is within 4 ulps of the
    upper end, or once it has stopped halving (3 steps) within _STALL_RTOL,
    so the midpoint is within 1e-13 relative of rho up to the rounding of
    the step. Returns None
    when a component of Ax is not positive or the step budget runs out.
    """
    x = np.ones(n)
    last_halving, stalled = np.inf, 0
    for _ in range(_PERRON_STEPS):
        y = step(x)
        ratio = y / x
        lo, hi = float(ratio.min()), float(ratio.max())
        if not lo > 0.0:  # also catches NaN
            return None
        gap = hi - lo
        if gap <= 4.0 * _EPS * hi:
            return 0.5 * (lo + hi)
        if gap <= 0.5 * last_halving:
            last_halving, stalled = gap, 0
        else:
            stalled += 1
            if stalled >= 3 and gap <= _STALL_RTOL * hi:
                return 0.5 * (lo + hi)
        x = y / hi
    return None


def _bracketable(a: np.ndarray) -> bool:
    """Whether the Perron bracket may run on ``a``: at least _PERRON_MIN_N in
    size and exactly entrywise nonnegative."""
    return a.shape[0] >= _PERRON_MIN_N and bool(np.all(a >= 0.0))


def perron_root(a) -> float:
    """Spectral radius of a nonnegative square matrix.

    From _PERRON_MIN_N up, a Collatz-Wielandt bracket (power iteration on
    ``a @ x``) replaces the full eigensolve. It falls back to
    ``spectral_radius`` below that size, on any negative entry, on a
    nonpositive component of ``a @ x`` and when the step budget runs out.
    """
    a = _nonempty(_as_square(a))
    root = _collatz_wielandt(lambda x: a @ x, a.shape[0]) if _bracketable(a) else None
    return spectral_radius(a) if root is None else root


def _sigma_max_bracket(a: np.ndarray) -> float | None:
    """sigma_max of ``a`` from the Collatz-Wielandt bracket of a^T a (the step
    ``a.T @ (a @ x)``, a^T a is never formed), or None where the bracket may
    not run or does not converge."""
    if not _bracketable(a):
        return None
    root = _collatz_wielandt(lambda x: a.T @ (a @ x), a.shape[0])
    return None if root is None else float(np.sqrt(root))


def sigma_max_nonneg(a) -> float:
    """Largest singular value of a nonnegative square matrix.

    sigma_max^2 is the Perron root of a^T a, bracketed as in ``perron_root``;
    the same fallbacks lead to ``singular_values(a)[0]``.
    """
    a = _nonempty(_as_square(a))
    sigma = _sigma_max_bracket(a)
    return float(singular_values(a)[0]) if sigma is None else sigma


def sigma_min_from_inverse(a, inv) -> float:
    """Smallest singular value of ``a``, given its inverse ``inv``.

    sigma_min(a) = 1 / sigma_max(inv), and for a nonnegative ``inv`` from
    _PERRON_MIN_N up that comes from the bracket of ``sigma_max_nonneg``.
    Below that size, on any negative entry of ``inv`` and when the bracket
    does not converge it is ``singular_values(a)[-1]``, LAPACK's value bit
    for bit.
    """
    a = _nonempty(_as_square(a))
    sigma = _sigma_max_bracket(_as_square(inv))
    return float(singular_values(a)[-1]) if sigma is None else 1.0 / sigma


def sign_vector_norm(a, cap_evals: int = DEFAULT_CAP) -> float:
    """max over z in {+-1}^n of the 1-norm of A z, by exact enumeration.

    This is the norm induced by the vector inf- and 1-norms. The z / -z
    symmetry fixes the first sign, leaving 2^(n-1) sign vectors; more than
    ``cap_evals`` raises CapExceeded (no polynomial general algorithm is
    attempted).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    n = a.shape[1]
    hi = np.ones(n)
    hi[:1] = -1.0
    best = 0.0
    for Z in vertex_chunks(-np.ones(n), hi, cap_evals):
        best = max(best, float(np.abs(Z @ a.T).sum(axis=1).max()))
    return best


_NORMS = ("inf", "one", "frobenius", "chebyshev", "inf1")


def matrix_norm(a, which: str = "inf", cap_evals: int = DEFAULT_CAP) -> float:
    """Matrix norm: inf, one, frobenius, chebyshev, or inf1 (enumeration)."""
    a = np.asarray(a, dtype=float)
    if which == "inf":
        return inf_norm(a)
    if which == "one":
        return float(np.max(np.abs(a).sum(axis=0)))
    if which == "frobenius":
        return float(np.sqrt(np.sum(a * a)))
    if which == "chebyshev":
        return float(np.max(np.abs(a)))
    if which == "inf1":
        return sign_vector_norm(a, cap_evals=cap_evals)
    raise ValueError(f"unknown norm {which!r}; expected one of {_NORMS}")


def regularity_radius(a, cap_evals: int = DEFAULT_CAP) -> float:
    """Chebyshev distance to the nearest singular matrix: 1 / inf1-norm of the inverse."""
    return 1.0 / sign_vector_norm(inverse(a), cap_evals=cap_evals)


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None = None
    x: np.ndarray | None = None


def lp_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None,
             maximize: bool = False) -> LpResult:
    """Solve a dense LP; variables are free unless bounds are given.

    Returns an LpResult with status "optimal" (objective and argument set),
    "infeasible", or "unbounded". Solver iteration/numerical failures raise
    CycleLimit.
    """
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    if bounds is None:
        bounds = [(None, None)] * len(c)
    obj = -c if maximize else c
    res = linprog(obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 0:
        value = float(res.fun)
        if maximize:
            value = -value
        return LpResult("optimal", value, np.asarray(res.x, dtype=float))
    if res.status == 2:
        return LpResult("infeasible")
    if res.status == 3:
        return LpResult("unbounded")
    raise CycleLimit(f"LP solver failed: {res.message}")
