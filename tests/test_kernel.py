import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivmat import kernel
from ivmat.errors import CapExceeded, NotSymmetric, SingularMatrix


class TestDet:
    def test_examples(self):
        assert kernel.det(np.eye(3)) == pytest.approx(1.0)
        assert kernel.det([[2.0, -1.0], [-1.0, 2.0]]) == pytest.approx(3.0)
        assert kernel.det([[1.0, -1.0], [-1.0, 1.0]]) == pytest.approx(0.0, abs=1e-14)

    def test_multiplicative_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4))
            lhs = kernel.det(a @ b)
            rhs = kernel.det(a) * kernel.det(b)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


class TestInverse:
    def test_examples(self):
        assert np.allclose(kernel.inverse(np.diag([3.0, 3.0])), np.diag([1 / 3, 1 / 3]))
        inv = kernel.inverse([[2.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(inv, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
        with pytest.raises(SingularMatrix):
            kernel.inverse([[1.0, -1.0], [-1.0, 1.0]])

    def test_identity_residual(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        assert np.allclose(a @ kernel.inverse(a), np.eye(5), atol=1e-10)

    def test_near_singular_pivot_tolerance(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(SingularMatrix):
            kernel.inverse(a)


def _reference_solve(a, rhs):
    """The scipy.linalg wrappers kernel's LU solve replaced; same LAPACK routines."""
    import scipy.linalg

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(np.asarray(a, dtype=float))
    return scipy.linalg.lu_solve((lu, piv), np.asarray(rhs, dtype=float))


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestLapackLU:
    @pytest.mark.parametrize("n", [1, 3, 10, 50, 200])
    @pytest.mark.parametrize("layout", ["C", "F", "int"])
    def test_bit_equal_to_scipy_wrappers(self, n, layout):
        rng = np.random.default_rng([41, n])
        if layout == "int":
            a = rng.integers(-5, 6, (n, n)) + 10 * n * np.eye(n, dtype=int)
        else:
            a = rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n)
        if layout == "F":
            a = np.asfortranarray(a)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                    rng.integers(-3, 4, n)):
            assert _same_bits(kernel.solve(a, rhs), _reference_solve(a, rhs))
        assert _same_bits(kernel.inverse(a), _reference_solve(a, np.eye(n)))

    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, where, bad):
        a, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.ones(2)
        (a if where == "matrix" else b)[0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            kernel.solve(a, b)
        if where == "matrix":
            with pytest.raises(ValueError, match="infs or NaNs"):
                kernel.inverse(a)

    def test_rhs_of_wrong_shape_raises(self):
        # dgetrs would read a 3-D right-hand side as a flat column block
        for b in (np.ones(3), np.ones((3, 2)), np.ones(0), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="incompatible"):
                kernel.solve(np.eye(2), b)

    @pytest.mark.parametrize("a", [
        [[1.0, 2.0], [2.0, 4.0]],          # exact-zero pivot
        [[1.0, 0.0], [0.0, 1e-13]],        # pivot 1e-13 of the inf-norm
        np.zeros((3, 3)),
    ])
    def test_small_pivot_is_singular(self, a):
        with pytest.raises(SingularMatrix, match="pivot magnitude"):
            kernel.inverse(a)
        with pytest.raises(SingularMatrix, match="pivot magnitude"):
            kernel.solve(a, np.ones(len(a)))

    def test_pivot_above_tolerance_solves(self):
        x = kernel.solve([[1.0, 0.0], [0.0, 1e-11]], [1.0, 1.0])
        assert _same_bits(x, np.array([1.0, 1e11]))

    def test_empty_matrix_raises_without_lapack_output(self, capfd):
        for call in (lambda: kernel.inverse(np.zeros((0, 0))),
                     lambda: kernel.solve(np.zeros((0, 0)), np.zeros(0)),
                     lambda: kernel.singular_values(np.zeros((0, 0)))):
            with pytest.raises(ValueError, match="empty matrix"):
                call()
        assert capfd.readouterr().err == ""

    def test_read_only_input_is_left_alone(self):
        rng = np.random.default_rng(43)
        for a in (rng.standard_normal((4, 4)) + 4 * np.eye(4),
                  np.asfortranarray(rng.standard_normal((4, 4)) + 4 * np.eye(4))):
            b = rng.standard_normal((4, 2))
            a_copy, b_copy = a.copy(), b.copy()
            a.setflags(write=False)
            b.setflags(write=False)
            assert _same_bits(kernel.solve(a, b), _reference_solve(a_copy, b_copy))
            assert _same_bits(kernel.inverse(a), _reference_solve(a_copy, np.eye(4)))
            assert _same_bits(a, a_copy) and _same_bits(b, b_copy)


# Runs the LU at n = 3 and 50 after {setup}, records which module the kernel
# took dgetrf/dgetrs from and what sys.modules held, then imports scipy.linalg
# and compares every output bit with its LU wrappers and its dgetrf.
_LOADER_PROBE = """
import json, sys
import numpy as np
from ivmat import kernel
{setup}
out = []
for n in (3, 50):
    rng = np.random.default_rng([44, n])
    a = rng.standard_normal((n, n)) + np.sqrt(n) * np.eye(n)
    b = rng.standard_normal(n)
    out.append((a, b, kernel.inverse(a), kernel.solve(a, b), kernel.lu_factor(a)))
seen = {{"lapack": kernel._lapack().__name__,
         "loaded": [m in sys.modules for m in ("scipy.linalg", "scipy.linalg._flapack")]}}
import scipy.linalg
same = []
for a, b, inv, x, (lu, piv) in out:
    factors = scipy.linalg.lu_factor(a)
    lu_ref, piv_ref, info = scipy.linalg.lapack.dgetrf(a)
    same += [inv.tobytes() == scipy.linalg.lu_solve(factors, np.eye(len(a))).tobytes(),
             x.tobytes() == scipy.linalg.lu_solve(factors, b).tobytes(),
             info == 0 and lu.tobytes() == lu_ref.tobytes() == factors[0].tobytes()
             and piv.tobytes() == piv_ref.tobytes()]
seen["same"] = same
seen["reused"] = kernel._lapack() is sys.modules["scipy.linalg._flapack"]
print(json.dumps(seen))
"""

# Each way the private load can fail returns None; the last one stays in
# place while the LU runs, so the LU takes scipy.linalg.lapack.
_FAILED_LOADS = """
import importlib.machinery, importlib.util, os, tempfile
suffixes, find_spec = importlib.machinery.EXTENSION_SUFFIXES, importlib.util.find_spec
failed = []
with tempfile.TemporaryDirectory() as root:
    os.mkdir(os.path.join(root, "linalg"))
    with open(os.path.join(root, "linalg", "_flapack" + suffixes[0]), "w") as f:
        f.write("not a shared object")
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [root]
    for spec in (None, fake):
        importlib.util.find_spec = lambda name, *a: spec if name == "scipy" else find_spec(name, *a)
        failed.append(kernel._load_flapack())
importlib.util.find_spec = find_spec
importlib.machinery.EXTENSION_SUFFIXES = [".missing"]
failed.append(kernel._load_flapack())
assert failed == [None] * 3 and "scipy.linalg._flapack" not in sys.modules, failed
"""


def _run_loader_probe(setup: str = "") -> dict:
    import subprocess
    import sys
    res = subprocess.run([sys.executable, "-c", _LOADER_PROBE.format(setup=setup)],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    return json.loads(res.stdout)


class TestLapackLoader:
    """Which module ``dgetrf``/``dgetrs`` come from, each case in a fresh
    process: in-process tests may have imported scipy.linalg already."""

    def test_private_load_then_scipy_linalg(self):
        seen = _run_loader_probe()
        assert seen["lapack"] == "scipy.linalg._flapack"
        assert seen["loaded"] == [False, False]
        assert seen["same"] == [True] * 6

    def test_reuses_module_of_loaded_scipy_linalg(self):
        seen = _run_loader_probe("import scipy.linalg")
        assert seen["reused"] and seen["lapack"] == "scipy.linalg._flapack"
        assert seen["loaded"] == [True, True]
        assert seen["same"] == [True] * 6

    def test_failed_private_load_falls_back_to_scipy_linalg(self):
        seen = _run_loader_probe(_FAILED_LOADS)
        assert seen["lapack"] == "scipy.linalg.lapack"
        assert seen["loaded"] == [True, True]
        assert seen["same"] == [True] * 6


class TestSymmetricEigen:
    def test_examples(self):
        assert np.allclose(kernel.sym_eigenvalues(np.diag([3.0, 1.0])), [3.0, 1.0])
        assert np.allclose(kernel.sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]]), [3.0, 1.0])
        assert np.allclose(kernel.sym_eigenvalues([[1.0, 0.2], [0.2, 1.0]]), [1.2, 0.8])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            kernel.sym_eigenvalues([[1.0, 2.0], [0.0, 1.0]])

    def test_residual_bound(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        vals, vecs = kernel.sym_eigh(a)
        scale = kernel.inf_norm(a)
        for i in range(6):
            residual = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
            assert residual <= 1e-9 * scale

    @given(st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_values_only_match_eigvalsh_bitwise(self, n, seed):
        a = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
        a = a + a.T
        assert _same_bits(kernel.sym_eigenvalues(a), np.linalg.eigvalsh(a)[::-1])
        if n > 1:
            a[0, -1] += 1e-6
            with pytest.raises(NotSymmetric):
                kernel.sym_eigenvalues(a)


def _nonneg_matrix(n, seed, density, exp):
    """A seeded nonnegative n x n matrix with the given share of nonzero
    entries, scaled by 10^exp."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
    return a * 10.0 ** exp


_nonneg = st.builds(_nonneg_matrix, st.integers(1, 60), st.integers(0, 2**32 - 1),
                    st.sampled_from([0.05, 0.3, 1.0]), st.integers(-6, 6))


def _rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


class _Bracket:
    """Counts bracket results: None is a fallback to LAPACK."""

    def __init__(self, monkeypatch):
        self.results = []
        run = kernel._collatz_wielandt

        def spy(step, n):
            self.results.append(run(step, n))
            return self.results[-1]

        monkeypatch.setattr(kernel, "_collatz_wielandt", spy)

    @property
    def fell_back(self):
        return bool(self.results) and self.results[-1] is None


def _lapack_sigma(a):
    return float(kernel.singular_values(a)[0])


def _cyclic(n, weights):
    return np.roll(np.eye(n), 1, axis=1) * weights


def _bipartite(b):
    n = b.shape[0]
    z = np.zeros((n, n))
    return np.block([[z, b], [b.T, z]])


class TestPerronKernels:
    @given(_nonneg)
    @settings(max_examples=80, deadline=None)
    def test_agree_with_lapack(self, a):
        assert _rel(kernel.perron_root(a), kernel.spectral_radius(a)) <= 1e-13
        assert _rel(kernel.sigma_max_nonneg(a), _lapack_sigma(a)) <= 1e-13

    @given(st.integers(kernel._PERRON_MIN_N, 60), st.integers(0, 2**32 - 1),
           st.integers(-20, 20))
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scaling_is_exact(self, n, seed, k):
        # positive entries, so the bracket runs (LAPACK itself is not exactly
        # scale-equivariant, so the fallbacks are not held to this)
        a = np.random.default_rng(seed).uniform(0.01, 1.0, (n, n))
        f = 2.0 ** k
        assert kernel.perron_root(a * f) == f * kernel.perron_root(a)
        assert kernel.sigma_max_nonneg(a * f) == f * kernel.sigma_max_nonneg(a)

    @given(st.integers(1, kernel._PERRON_MIN_N - 1), st.integers(0, 2**32 - 1),
           st.sampled_from([0.05, 0.3, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_below_crossover_is_lapack_bitwise(self, n, seed, density):
        a = _nonneg_matrix(n, seed, density, 0)
        assert kernel.perron_root(a) == kernel.spectral_radius(a)
        assert kernel.sigma_max_nonneg(a) == _lapack_sigma(a)

    @pytest.mark.parametrize("n", [kernel._PERRON_MIN_N, 50, 200])
    def test_bracket_runs_on_positive_matrices(self, n, monkeypatch):
        a = np.random.default_rng([5, n]).uniform(0.0, 1.0, (n, n)) + 1e-3
        bracket = _Bracket(monkeypatch)
        assert _rel(kernel.perron_root(a), kernel.spectral_radius(a)) <= 1e-13
        assert _rel(kernel.sigma_max_nonneg(a), _lapack_sigma(a)) <= 1e-13
        assert len(bracket.results) == 2 and None not in bracket.results

    # n >= the crossover, so only the fallbacks decline the bracket
    @pytest.mark.parametrize("name", ["upper-ones", "weighted-cycle", "bipartite",
                                      "zero", "negative-entry"])
    def test_fallbacks(self, name, monkeypatch):
        n = 40
        rng = np.random.default_rng(17)
        a = {
            # reducible: the bracket closes only like 1/steps
            "upper-ones": np.triu(np.ones((n, n))),
            # periodic: the iterates cycle, the bracket never closes
            "weighted-cycle": _cyclic(n, rng.uniform(0.5, 2.0, n)),
            "bipartite": _bipartite(rng.uniform(0.1, 1.0, (n // 2, n // 2))),
            # a @ 1 is not positive
            "zero": np.zeros((n, n)),
            # classify.is_nonnegative admits this; the bracket must not
            "negative-entry": np.where(np.eye(n, k=3) > 0, -1e-13, rng.uniform(0.1, 1.0, (n, n))),
        }[name]
        bracket = _Bracket(monkeypatch)
        rho = kernel.perron_root(a)
        if name == "negative-entry":
            assert not bracket.results
        else:
            assert bracket.fell_back
        assert rho == kernel.spectral_radius(a)
        expected = {"upper-ones": 1.0, "zero": 0.0,
                    "weighted-cycle": float(np.prod(np.diag(np.roll(a, -1, axis=1)))) ** (1 / n),
                    "bipartite": _lapack_sigma(a[: n // 2, n // 2:])}.get(name)
        if expected is not None:
            assert rho == pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert _rel(kernel.sigma_max_nonneg(a), _lapack_sigma(a)) <= 1e-13
        if name in ("zero", "negative-entry"):
            assert kernel.sigma_max_nonneg(a) == _lapack_sigma(a)

    def test_unweighted_cycle_closes_at_once(self, monkeypatch):
        # 1 is the Perron vector of a permutation matrix
        bracket = _Bracket(monkeypatch)
        assert kernel.perron_root(_cyclic(40, 1.0)) == 1.0
        assert kernel.sigma_max_nonneg(_cyclic(40, 1.0)) == 1.0
        assert None not in bracket.results

    @pytest.mark.parametrize("value", [0.0, 3.0])
    def test_one_by_one(self, value, monkeypatch):
        bracket = _Bracket(monkeypatch)
        assert kernel.perron_root([[value]]) == value
        assert kernel.sigma_max_nonneg([[value]]) == value
        assert not bracket.results

    def test_empty_matrix_raises_value_error(self):
        for f in (kernel.perron_root, kernel.sigma_max_nonneg):
            with pytest.raises(ValueError, match="empty matrix"):
                f(np.zeros((0, 0)))

    def test_needs_a_square_matrix(self):
        for f in (kernel.perron_root, kernel.sigma_max_nonneg):
            with pytest.raises(ValueError, match="square"):
                f(np.ones((40, 41)))


class TestSingularValues:
    def test_examples(self):
        assert np.allclose(kernel.singular_values(np.diag([3.0, 1.0])), [3.0, 1.0])
        assert np.allclose(kernel.singular_values([[2.0, -1.0], [-1.0, 2.0]]), [3.0, 1.0])
        assert np.allclose(kernel.singular_values(np.zeros((2, 2))), [0.0, 0.0])

    def test_matches_gram_eigenvalues(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        svals = kernel.singular_values(a)
        gram = np.sqrt(np.maximum(kernel.sym_eigenvalues(a.T @ a), 0.0))
        assert np.allclose(svals, gram, atol=1e-8)


class TestSpectralRadius:
    @pytest.mark.parametrize("a,expected", [
        ([[0.0, 1.0], [1.0, 0.0]], 1.0),
        ([[1.0, 2.0], [2.0, 1.0]], 3.0),
        (np.diag([-5.0, 2.0]), 5.0),
    ])
    def test_examples(self, a, expected):
        assert kernel.spectral_radius(a) == pytest.approx(expected)


class TestNorms:
    def test_examples(self):
        assert kernel.matrix_norm(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0,
                                  "inf1") == pytest.approx(2.0)
        assert kernel.matrix_norm([[1.0, 0.0], [0.0, 2.0]],
                                  "frobenius") == pytest.approx(np.sqrt(5.0))
        assert kernel.matrix_norm([[-3.0, 1.0], [0.0, 2.0]],
                                  "chebyshev") == pytest.approx(3.0)
        assert kernel.matrix_norm([[-3.0, 1.0], [0.0, 2.0]],
                                  "inf") == pytest.approx(4.0)
        assert kernel.matrix_norm([[-3.0, 1.0], [0.0, 2.0]],
                                  "one") == pytest.approx(3.0)

    def test_inf1_matches_direct_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            best = max(np.abs(a @ z).sum()
                       for z in np.array(np.meshgrid(*[[-1, 1]] * 4)).T.reshape(-1, 4))
            assert kernel.matrix_norm(a, "inf1") == pytest.approx(best)

    def test_inf1_monotone(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            b = np.abs(a) + rng.uniform(0, 1, (3, 3))
            assert (kernel.matrix_norm(a, "inf1")
                    <= kernel.matrix_norm(b, "inf1") + 1e-12)

    def test_inf1_cap(self):
        with pytest.raises(CapExceeded):
            kernel.matrix_norm(np.eye(30), "inf1")

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            kernel.matrix_norm(np.eye(2), "two")


class TestRegularityRadius:
    def test_examples(self):
        assert kernel.regularity_radius([[2.0, -1.0], [-1.0, 2.0]]) == pytest.approx(0.5)
        assert kernel.regularity_radius(np.diag([3.0, 3.0])) == pytest.approx(1.5)
        assert kernel.regularity_radius(np.eye(2)) == pytest.approx(0.5)

    def test_distance_interpretation(self):
        # a rank-one perturbation of Chebyshev size rr reaches a singular matrix
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            inv = kernel.inverse(a)
            r = kernel.regularity_radius(a)
            best = max(((np.abs(inv @ z).sum(), z) for z in
                        np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).T.reshape(-1, 3)),
                       key=lambda p: p[0])
            z = best[1]
            y = np.sign(inv @ z)
            singular = a - np.outer(z, y) / (y @ inv @ z)
            assert np.max(np.abs(singular - a)) == pytest.approx(r, rel=1e-9)
            assert abs(kernel.det(singular)) < 1e-9 * abs(kernel.det(a))


class TestDerivativeIdentities:
    def test_det_gradient(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        grad = kernel.det(a) * kernel.inverse(a).T
        h = 1e-6
        for i in range(3):
            for j in range(3):
                ap, am = a.copy(), a.copy()
                ap[i, j] += h
                am[i, j] -= h
                fd = (kernel.det(ap) - kernel.det(am)) / (2 * h)
                assert fd == pytest.approx(grad[i, j], rel=1e-5, abs=1e-7)

    def test_inverse_derivative(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        inv = kernel.inverse(a)
        h = 1e-6
        for k in range(3):
            for l in range(3):
                ap, am = a.copy(), a.copy()
                ap[k, l] += h
                am[k, l] -= h
                fd = (kernel.inverse(ap) - kernel.inverse(am)) / (2 * h)
                formula = -np.outer(inv[:, k], inv[l, :])
                assert np.allclose(fd, formula, atol=1e-5)

    def test_simple_eigenvalue_derivative(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 3))
        a = a + a.T + np.diag([9.0, 4.0, 0.0])
        vals, vecs = kernel.sym_eigh(a)
        h = 1e-6
        for i in range(3):
            x = vecs[:, i]
            for j in range(3):
                for k in range(3):
                    ap, am = a.copy(), a.copy()
                    ap[j, k] += h
                    am[j, k] -= h
                    lp = np.sort(np.linalg.eigvals(ap).real)[::-1][i]
                    lm = np.sort(np.linalg.eigvals(am).real)[::-1][i]
                    fd = (lp - lm) / (2 * h)
                    assert fd == pytest.approx(x[j] * x[k], abs=1e-5)


class TestLp:
    def test_bounded_maximum(self):
        res = kernel.lp_solve([1.0], a_ub=[[1.0]], b_ub=[3.0], maximize=True)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)
        assert res.x[0] == pytest.approx(3.0)

    def test_simplex_face(self):
        res = kernel.lp_solve([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0],
                              bounds=[(0, None)] * 2, maximize=True)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)

    def test_unbounded(self):
        res = kernel.lp_solve([1.0], a_ub=[[-1.0]], b_ub=[0.0], maximize=True)
        assert res.status == "unbounded"

    def test_infeasible(self):
        res = kernel.lp_solve([1.0], a_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
        assert res.status == "infeasible"
