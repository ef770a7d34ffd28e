import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    make_diag_psd_instance,
    make_inverse_m_instance,
    make_inverse_nonneg_instance,
    make_m_instance,
    make_nonneg_instance,
    make_sign_stable_instance,
    make_tp_instance,
)
from ivmat import kernel, oracle, ranges
from ivmat.errors import NoApplicableTheorem, PreconditionViolated
from ivmat.intervals import IntervalMatrix, SymmetricIntervalMatrix
from ivmat.ranges import UpperBound

INV_NONNEG = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
TP_EXAMPLE = IntervalMatrix([[0.9, 0.1], [0.1, 0.9]], [[1.1, 0.2], [0.2, 1.1]])
NONNEG_EXAMPLE = IntervalMatrix([[0, 1], [1, 0]], [[1, 2], [2, 1]])


class TestDetRange:
    def test_m_matrix_example(self):
        res = ranges.det_range(IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]]))
        assert res.strategy == "m-matrix-endpoints"
        assert res.value.lo == pytest.approx(3.0)
        assert res.value.hi == pytest.approx(9.0)

    def test_tp_example(self):
        res = ranges.det_range(TP_EXAMPLE)
        assert res.strategy == "totally-positive-checkerboard"
        assert res.value.lo == pytest.approx(0.77)
        assert res.value.hi == pytest.approx(1.2)

    def test_inverse_m_2x2_example(self):
        # at n=2 this family is also totally positive and the fixed dispatch
        # order matches TP first; the checkerboard vertices coincide with the
        # low-diagonal/high-offdiagonal extreme matrices, so values agree
        mid = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        A = IntervalMatrix.from_midrad(mid, np.full((2, 2), 0.05))
        res = ranges.det_range(A)
        reference = oracle.det_range(A)
        assert res.value.lo == pytest.approx(reference.lo, abs=1e-12)
        assert res.value.hi == pytest.approx(reference.hi, abs=1e-12)
        assert res.value.lo == pytest.approx(0.7 / 3.0, abs=1e-9)
        assert res.value.hi == pytest.approx(1.3 / 3.0, abs=1e-9)

    def test_inverse_m_branch_on_non_tp_instance(self):
        W = np.array([[4.0, -1.0, -2.0], [-1.0, 4.0, -1.0], [-2.0, -1.0, 4.0]])
        A = IntervalMatrix.from_midrad(kernel.inverse(W), np.full((3, 3), 0.002))
        res = ranges.det_range(A)
        assert res.strategy == "inverse-m-diagonal-extremes"
        reference = oracle.det_range(A)
        assert res.value.lo == pytest.approx(reference.lo, rel=1e-10)
        assert res.value.hi == pytest.approx(reference.hi, rel=1e-10)

    def test_sign_stable_negative_det(self):
        A = IntervalMatrix.from_midrad(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                       np.full((2, 2), 0.05))
        res = ranges.det_range(A)
        assert res.strategy.startswith("sign-stable")
        reference = oracle.det_range(A)
        assert res.value.lo == pytest.approx(reference.lo, abs=1e-12)
        assert res.value.hi == pytest.approx(reference.hi, abs=1e-12)

    def test_sign_stable_midpoint_certified_under_tiny_cap(self):
        # with the enumeration cap too small for vertex certification the
        # midpoint inverse decides the signs; the oracle still agrees
        A = IntervalMatrix.from_midrad(np.array([[1.0, 2.0], [3.0, 4.0]]),
                                       np.full((2, 2), 0.05))
        res = ranges.det_range(A, cap_evals=2)
        assert res.strategy == "sign-stable-midpoint-certified"
        reference = oracle.det_range(A)
        assert res.value.lo == pytest.approx(reference.lo, abs=1e-12)
        assert res.value.hi == pytest.approx(reference.hi, abs=1e-12)

    def test_diag_psd_path(self):
        rng = np.random.default_rng(41)
        A = make_diag_psd_instance(rng, 3)
        res = ranges.det_range(A)
        reference = oracle.det_range(A)
        assert res.value.lo == pytest.approx(reference.lo, rel=1e-10)
        assert res.value.hi == pytest.approx(reference.hi, rel=1e-10)

    def test_attainers_are_members_reproducing_endpoints(self):
        res = ranges.det_range(TP_EXAMPLE)
        assert TP_EXAMPLE.contains_point(res.attainers["min"], tol=1e-12)
        assert TP_EXAMPLE.contains_point(res.attainers["max"], tol=1e-12)
        assert kernel.det(res.attainers["min"]) == pytest.approx(res.value.lo)
        assert kernel.det(res.attainers["max"]) == pytest.approx(res.value.hi)

    def test_no_applicable_theorem(self):
        A = IntervalMatrix([[0, 1], [-1, 10]], [[10, 1], [-1, 10]])
        with pytest.raises(NoApplicableTheorem):
            ranges.det_range(A)


class TestEigDiagInterval:
    def test_diagonal_matrix_example(self):
        A = IntervalMatrix(np.diag([1.0, 3.0]), np.diag([2.0, 4.0]))
        res = ranges.eig_ranges_diag_interval(A)
        assert res[0].value.lo == pytest.approx(3.0)
        assert res[0].value.hi == pytest.approx(4.0)
        assert res[1].value.lo == pytest.approx(1.0)
        assert res[1].value.hi == pytest.approx(2.0)

    def test_running_example(self):
        A = IntervalMatrix.from_midrad([[2.0, 1.0], [1.0, 2.0]], np.diag([0.5, 0.5]))
        res = ranges.eig_ranges_diag_interval(A)
        # closed forms at the endpoints: 1.5 +- 1 and 2.5 +- 1
        assert res[0].value.lo == pytest.approx(2.5)
        assert res[0].value.hi == pytest.approx(3.5)
        assert res[1].value.lo == pytest.approx(0.5)
        assert res[1].value.hi == pytest.approx(1.5)

    def test_point_matrix_degenerate(self):
        P = IntervalMatrix.point([[2.0, 1.0], [1.0, 2.0]])
        for res in ranges.eig_ranges_diag_interval(P):
            assert res.value.lo == res.value.hi

    def test_sampling_containment(self):
        rng = np.random.default_rng(42)
        A = make_diag_psd_instance(rng, 3)
        res = ranges.eig_ranges_diag_interval(A)
        S = SymmetricIntervalMatrix(A)
        for i, r in enumerate(res):
            sampled = oracle.range_sampling(
                lambda m, i=i: float(kernel.sym_eigenvalues(m)[i]), S,
                oracle.OracleConfig(samples=200))
            assert r.value.lo - 1e-9 <= sampled.lo
            assert sampled.hi <= r.value.hi + 1e-9

    def test_rejects_dense_radius(self):
        A = IntervalMatrix.from_midrad(np.eye(2), np.full((2, 2), 0.1))
        with pytest.raises(PreconditionViolated):
            ranges.eig_ranges_diag_interval(A)

    def test_attainers_share_one_read_only_copy(self):
        # one copy of each endpoint for all n ranges; n copies of each took
        # about 128 MB at n = 200
        A = make_diag_psd_instance(np.random.default_rng(43), 200)
        tracemalloc.start()
        try:
            res = ranges.eig_ranges_diag_interval(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        for r in res:
            assert set(r.attainers) == {"min", "max"}
            assert np.array_equal(r.attainers["min"], A.lo)
            assert np.array_equal(r.attainers["max"], A.hi)
            assert not r.attainers["min"].flags.writeable
            assert not r.attainers["max"].flags.writeable
        assert len({id(r.attainers) for r in res}) == len(res)


class TestSpectralRadiusDiagInterval:
    def test_examples(self):
        A = IntervalMatrix.from_midrad([[2.0, 1.0], [1.0, 2.0]], np.diag([0.5, 0.5]))
        ub = ranges.spectral_radius_max_diag_interval(A)
        assert ub.value == pytest.approx(3.5)
        B = IntervalMatrix.point(-np.eye(2))
        assert ranges.spectral_radius_max_diag_interval(B).value == pytest.approx(1.0)
        C = IntervalMatrix([[-4.0]], [[-3.0]])
        assert ranges.spectral_radius_max_diag_interval(C).value == pytest.approx(4.0)

    def test_attainer_realizes_bound(self):
        A = IntervalMatrix.from_midrad([[2.0, 1.0], [1.0, 2.0]], np.diag([0.5, 0.5]))
        ub = ranges.spectral_radius_max_diag_interval(A)
        assert kernel.spectral_radius(ub.attainer) == pytest.approx(ub.value)


class TestLambdaMin:
    def test_examples(self):
        res = ranges.lambda_min_range_inverse_nonneg(INV_NONNEG)
        assert res.value.lo == pytest.approx(1.0)
        assert res.value.hi == pytest.approx(3.0)
        P = IntervalMatrix.point(np.diag([5.0]))
        res = ranges.lambda_min_range_inverse_nonneg(P)
        assert res.value.lo == res.value.hi == pytest.approx(5.0)
        D = IntervalMatrix(np.eye(2), 2 * np.eye(2))
        res = ranges.lambda_min_range_inverse_nonneg(D)
        assert res.value.lo == pytest.approx(1.0)
        assert res.value.hi == pytest.approx(2.0)

    def test_sampling_containment(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            A = make_inverse_nonneg_instance(rng, 3)
            sym = IntervalMatrix.from_midrad(0.5 * (A.mid + A.mid.T),
                                             0.5 * (A.rad + A.rad.T))
            from ivmat import classify
            if not classify.is_inverse_nonnegative_interval(sym).is_yes:
                continue
            res = ranges.lambda_min_range_inverse_nonneg(sym)
            sampled = oracle.range_sampling(
                lambda m: float(kernel.sym_eigenvalues(m)[-1]),
                SymmetricIntervalMatrix(sym), oracle.OracleConfig(samples=200))
            assert res.value.lo - 1e-9 <= sampled.lo
            assert sampled.hi <= res.value.hi + 1e-9


class TestEigTotallyPositive:
    def test_running_example(self):
        res = ranges.eig_ranges_totally_positive(TP_EXAMPLE)
        assert res[0].value.lo == pytest.approx(1.0)
        assert res[0].value.hi == pytest.approx(1.3)
        assert res[1].value.lo == pytest.approx(0.7)
        assert res[1].value.hi == pytest.approx(1.0)

    def test_point_matrix_degenerate(self):
        P = IntervalMatrix.point([[1.0, 0.2], [0.2, 1.0]])
        for res in ranges.eig_ranges_totally_positive(P):
            assert res.value.lo == pytest.approx(res.value.hi)

    def test_nonsymmetric_2x2_against_quadratic_formula(self):
        lo = np.array([[1.0, 0.3], [0.2, 1.0]])
        hi = lo + np.array([[0.2, 0.05], [0.05, 0.2]])
        A = IntervalMatrix(lo, hi)
        res = ranges.eig_ranges_totally_positive(A)

        def quad_eigs(m):
            tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            disc = np.sqrt(tr * tr / 4.0 - det)
            return tr / 2.0 + disc, tr / 2.0 - disc

        assert res[0].value.lo == pytest.approx(quad_eigs(lo)[0])
        assert res[0].value.hi == pytest.approx(quad_eigs(hi)[0])
        down, up = res[1].attainers["min"], res[1].attainers["max"]
        assert res[1].value.lo == pytest.approx(quad_eigs(down)[1])
        assert res[1].value.hi == pytest.approx(quad_eigs(up)[1])

    def test_middle_eigenvalue_regression_orientation(self):
        # caught by the sampling oracle: the attainer signs must pair the
        # left eigenvector with row indices and the right one with columns
        lo = np.array([[0.99856547, 0.28467394, 0.04394498],
                       [0.84921477, 0.62697491, 0.14106879],
                       [0.18273074, 0.92338066, 0.8339779]])
        hi = np.array([[1.01189901, 0.29148982, 0.05151516],
                       [0.85947763, 0.64741645, 0.16572294],
                       [0.18494403, 0.94788985, 0.83762337]])
        A = IntervalMatrix(lo, hi)
        res = ranges.eig_ranges_totally_positive(A)
        rng = np.random.default_rng(99)
        members = oracle.sample_members(A, 500, rng)
        spectra = np.sort(np.linalg.eigvals(members).real, axis=1)[:, ::-1]
        assert res[1].value.lo - 1e-9 <= spectra[:, 1].min()
        assert spectra[:, 1].max() <= res[1].value.hi + 1e-9

    def test_middle_eigenvalue_3x3(self):
        rng = np.random.default_rng(44)
        A = make_tp_instance(rng, 3)
        res = ranges.eig_ranges_totally_positive(A)
        sampled = oracle.range_sampling(
            lambda m: float(kernel.real_eigenvalues_sorted(m)[1]), A,
            oracle.OracleConfig(samples=300))
        assert res[1].value.lo - 1e-9 <= sampled.lo
        assert sampled.hi <= res[1].value.hi + 1e-9
        # endpoints attained at the reported sign-pattern matrices
        att_lo = res[1].attainers["min"]
        assert kernel.real_eigenvalues_sorted(att_lo)[1] == pytest.approx(
            res[1].value.lo)

    def test_rejects_non_tp(self):
        with pytest.raises(PreconditionViolated):
            ranges.eig_ranges_totally_positive(IntervalMatrix.point(np.eye(2)))


class TestNonnegRanges:
    def test_rho_example(self):
        out = ranges.nonneg_ranges(NONNEG_EXAMPLE)
        assert out["rho"].value.lo == pytest.approx(1.0)
        assert out["rho"].value.hi == pytest.approx(3.0)

    def test_midpoint_only_upper(self):
        A = IntervalMatrix([[-1.0]], [[3.0]])
        out = ranges.nonneg_ranges(A)
        assert isinstance(out["rho"], UpperBound)
        assert out["rho"].value == pytest.approx(3.0)

    def test_sigma_max_example(self):
        out = ranges.nonneg_ranges(NONNEG_EXAMPLE)
        assert out["sigma_max"].value.lo == pytest.approx(1.0)
        assert out["sigma_max"].value.hi == pytest.approx(3.0)

    def test_lambda_max_for_symmetric_family(self):
        out = ranges.nonneg_ranges(NONNEG_EXAMPLE)
        assert out["lambda_max"].value.lo == pytest.approx(1.0)
        assert out["lambda_max"].value.hi == pytest.approx(3.0)

    def test_rejects_mixed_midpoint(self):
        with pytest.raises(PreconditionViolated):
            ranges.nonneg_ranges(IntervalMatrix([[-3.0]], [[1.0]]))

    def test_sampling_containment(self):
        rng = np.random.default_rng(45)
        A = make_nonneg_instance(rng, 3)
        out = ranges.nonneg_ranges(A)
        sampled = oracle.range_sampling(kernel.spectral_radius, A,
                                        oracle.OracleConfig(samples=300))
        assert out["rho"].value.lo - 1e-9 <= sampled.lo
        assert sampled.hi <= out["rho"].value.hi + 1e-9


    def test_empty_matrix_raises_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            ranges.nonneg_ranges(IntervalMatrix(np.zeros((0, 0)), np.zeros((0, 0))))

    @pytest.mark.parametrize("n", [kernel._PERRON_MIN_N, 50, 200])
    def test_perron_endpoints_match_lapack(self, n):
        A = make_nonneg_instance(np.random.default_rng([46, n]), n)
        out = ranges.nonneg_ranges(A)
        for key, f in (("rho", kernel.spectral_radius),
                       ("sigma_max", lambda m: kernel.singular_values(m)[0])):
            for end, m in (("lo", A.lo), ("hi", A.hi)):
                assert getattr(out[key].value, end) == pytest.approx(f(m), rel=1e-13)


class TestSpectralDispatch:
    """Nonnegative endpoints take the Perron bracket from the crossover size
    up, and symmetric eigenvalue ranges never compute eigenvectors."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []
        for name in ("eigvals", "svd", "eigh", "eigvalsh"):
            def spy(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    def test_n200_positive_box_makes_no_lapack_spectral_call(self, monkeypatch):
        A = make_nonneg_instance(np.random.default_rng(48), 200)
        calls = self._spy(monkeypatch)
        out = ranges.nonneg_ranges(A)
        assert set(out) == {"rho", "sigma_max"} and calls == []

    def test_n200_midpoint_nonnegative_box(self, monkeypatch):
        A = make_nonneg_instance(np.random.default_rng(49), 200)
        A = IntervalMatrix(A.lo - 0.5 * (A.hi - A.lo), A.hi)
        calls = self._spy(monkeypatch)
        out = ranges.nonneg_ranges(A)
        assert isinstance(out["rho"], UpperBound) and calls == []

    def test_n3_takes_lapack(self, monkeypatch):
        A = make_nonneg_instance(np.random.default_rng(48), 3)
        calls = self._spy(monkeypatch)
        ranges.nonneg_ranges(A)
        assert sorted(calls) == ["eigvals", "eigvals", "svd", "svd"]

    @pytest.mark.parametrize("n", [3, 200])
    def test_diag_interval_eigenvalues_need_no_eigenvectors(self, n, monkeypatch):
        A = make_diag_psd_instance(np.random.default_rng(50), n)
        calls = self._spy(monkeypatch)
        assert len(ranges.eig_ranges_diag_interval(A)) == n
        assert calls == ["eigvalsh", "eigvalsh"]


class TestSigmaMin:
    def test_examples(self):
        res = ranges.sigma_min_range(INV_NONNEG)
        assert res.value.lo == pytest.approx(1.0)
        assert res.value.hi == pytest.approx(3.0)
        res = ranges.sigma_min_range(IntervalMatrix.point(np.eye(2)))
        assert res.value.lo == res.value.hi == pytest.approx(1.0)

    def test_tp_checkerboard_path(self):
        res = ranges.sigma_min_range(TP_EXAMPLE)
        assert res.strategy == "totally-positive-checkerboard-sigma-min"
        down, up = res.attainers["min"], res.attainers["max"]
        assert res.value.lo == pytest.approx(float(kernel.singular_values(down)[-1]))
        assert res.value.hi == pytest.approx(float(kernel.singular_values(up)[-1]))
        sampled = oracle.range_sampling(
            lambda m: float(kernel.singular_values(m)[-1]), TP_EXAMPLE,
            oracle.OracleConfig(samples=300))
        assert res.value.lo - 1e-9 <= sampled.lo
        assert sampled.hi <= res.value.hi + 1e-9


class TestSigmaMinFromInverses:
    """sigma_min of inverse nonnegative boxes is 1 / sigma_max of the endpoint
    inverses the recognition test certified, from the crossover size up."""

    @staticmethod
    def _svd_calls(monkeypatch):
        calls = []
        svd = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    @pytest.mark.parametrize("n", [50, 200])
    def test_matches_svd(self, n):
        for make in (make_m_instance, make_inverse_nonneg_instance):
            A = make(np.random.default_rng([90, n]), n)
            res = ranges.sigma_min_range(A)
            assert res.strategy == "inverse-nonnegative-endpoints-sigma-min"
            assert res.value.lo == pytest.approx(kernel.singular_values(A.lo)[-1], rel=1e-12)
            assert res.value.hi == pytest.approx(kernel.singular_values(A.hi)[-1], rel=1e-12)

    def test_n200_takes_no_svd(self, monkeypatch):
        A = make_m_instance(np.random.default_rng(91), 200)
        calls = self._svd_calls(monkeypatch)
        ranges.sigma_min_range(A)
        assert calls == []

    @pytest.mark.parametrize("n", [3, 10, kernel._PERRON_MIN_N - 1])
    def test_below_crossover_is_lapack_bit_for_bit(self, n):
        A = make_m_instance(np.random.default_rng([92, n]), n)
        res = ranges.sigma_min_range(A)
        assert res.value.lo == float(np.linalg.svd(A.lo, compute_uv=False)[-1])
        assert res.value.hi == float(np.linalg.svd(A.hi, compute_uv=False)[-1])

    def test_tp_path_is_lapack_bit_for_bit(self):
        res = ranges.sigma_min_range(TP_EXAMPLE)
        for end, key in (("lo", "min"), ("hi", "max")):
            member = res.attainers[key]
            assert getattr(res.value, end) == float(np.linalg.svd(member, compute_uv=False)[-1])

    def test_negative_inverse_entry_is_lapack_bit_for_bit(self, monkeypatch):
        a = make_m_instance(np.random.default_rng(93), 200).lo
        inv = kernel.inverse(a)
        inv[3, 7] = -1e-300  # certified down to -tol, but not bracketable
        calls = self._svd_calls(monkeypatch)
        got = kernel.sigma_min_from_inverse(a, inv)
        assert calls == [(200, 200)]
        assert got == float(np.linalg.svd(a, compute_uv=False)[-1])

    def test_unconverged_bracket_is_lapack_bit_for_bit(self, monkeypatch):
        a = make_m_instance(np.random.default_rng(94), 50).lo
        monkeypatch.setattr(kernel, "_collatz_wielandt", lambda step, n: None)
        got = kernel.sigma_min_from_inverse(a, kernel.inverse(a))
        assert got == float(np.linalg.svd(a, compute_uv=False)[-1])


class TestNormRange:
    def test_examples(self):
        A = IntervalMatrix([[1, 0], [0, 2]], [[2, 0], [0, 2]])
        res = ranges.norm_range(A, "frobenius")
        assert res.value.lo == pytest.approx(np.sqrt(5.0))
        assert res.value.hi == pytest.approx(np.sqrt(8.0))
        B = IntervalMatrix([[1, 1], [0, 0]], [[2, 2], [1, 1]])
        res = ranges.norm_range(B, "inf")
        assert res.value.lo == pytest.approx(2.0)
        assert res.value.hi == pytest.approx(4.0)
        C = IntervalMatrix([[0.0]], [[3.0]])
        res = ranges.norm_range(C, "chebyshev")
        assert res.value.lo == pytest.approx(0.0)
        assert res.value.hi == pytest.approx(3.0)

    def test_upper_only_with_nonneg_midpoint(self):
        A = IntervalMatrix([[-1.0]], [[3.0]])
        res = ranges.norm_range(A, "inf")
        assert isinstance(res, UpperBound)
        assert res.value == pytest.approx(3.0)


class TestRrRange:
    def test_examples(self):
        res = ranges.rr_range(INV_NONNEG)
        assert res.value.lo == pytest.approx(0.5)
        assert res.value.hi == pytest.approx(1.5)
        res = ranges.rr_range(IntervalMatrix.point(np.eye(2)))
        assert res.value.lo == res.value.hi == pytest.approx(0.5)

    def test_tp_path(self):
        res = ranges.rr_range(TP_EXAMPLE)
        down, up = res.attainers["min"], res.attainers["max"]
        assert res.value.lo == pytest.approx(kernel.regularity_radius(down))
        assert res.value.hi == pytest.approx(kernel.regularity_radius(up))
        sampled = oracle.range_sampling(kernel.regularity_radius, TP_EXAMPLE,
                                        oracle.OracleConfig(samples=200))
        assert res.value.lo - 1e-9 <= sampled.lo
        assert sampled.hi <= res.value.hi + 1e-9


class TestRrClosedForm:
    """A nonnegative inverse has ||A^-1||_{inf,1} = e^T A^-1 e: no sign-vector
    enumeration on inverse nonnegative boxes."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_matches_enumeration(self, n):
        for make in (make_m_instance, make_inverse_nonneg_instance):
            A = make(np.random.default_rng([95, n]), n)
            res = ranges.rr_range(A)
            assert res.strategy == "inverse-nonnegative-endpoints-rr"
            assert res.value.lo == pytest.approx(kernel.regularity_radius(A.lo), rel=1e-12)
            assert res.value.hi == pytest.approx(kernel.regularity_radius(A.hi), rel=1e-12)

    def test_n40_is_finite_under_the_default_cap(self):
        A = make_m_instance(np.random.default_rng(96), 40)
        res = ranges.rr_range(A)
        assert 0.0 < res.value.lo <= res.value.hi < np.inf
        assert res.value.lo == pytest.approx(1.0 / kernel.inverse(A.lo).sum(), rel=1e-12)


class TestInverseBounds:
    def test_inverse_nonneg_example(self):
        res = ranges.inverse_bounds(INV_NONNEG)
        hull = res.value
        assert np.allclose(hull.lo, np.eye(2) / 3.0)
        assert np.allclose(hull.hi, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)

    def test_point_matrix(self):
        P = IntervalMatrix.point([[2.0, -1.0], [-1.0, 2.0]])
        res = ranges.inverse_bounds(P)
        inv = kernel.inverse(P.mid)
        assert np.allclose(res.value.lo, inv) and np.allclose(res.value.hi, inv)

    def test_inverse_m_family_vs_vertex_oracle(self):
        mid = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        A = IntervalMatrix.from_midrad(mid, np.full((2, 2), 0.02))
        res = ranges.inverse_bounds(A)
        assert res.strategy == "inverse-m-sign-flip-family"
        # exhaustive vertex inverses stay inside and attain the bounds
        from ivmat.intervals import vertex_chunks
        inv_stack = np.linalg.inv(np.concatenate(list(vertex_chunks(A.lo, A.hi))))
        assert np.all(inv_stack >= res.value.lo[None] - 1e-10)
        assert np.all(inv_stack <= res.value.hi[None] + 1e-10)
        assert np.allclose(inv_stack.min(axis=0), res.value.lo, atol=1e-10)
        assert np.allclose(inv_stack.max(axis=0), res.value.hi, atol=1e-10)

    def test_sampling_containment(self):
        rng = np.random.default_rng(46)
        A = make_inverse_nonneg_instance(rng, 3)
        res = ranges.inverse_bounds(A)
        for m in oracle.sample_members(A, 200, rng):
            assert res.value.contains_point(np.linalg.inv(m), tol=1e-9)

    def test_reuses_the_recognition_inverses(self, monkeypatch):
        A = make_inverse_nonneg_instance(np.random.default_rng(47), 10)
        inv_lo, inv_hi = kernel.inverse(A.lo), kernel.inverse(A.hi)
        calls = []
        lu_factor = kernel.lu_factor

        def spy(a):
            calls.append(a)
            return lu_factor(a)

        monkeypatch.setattr(kernel, "lu_factor", spy)
        res = ranges.inverse_bounds(A)
        assert len(calls) == 2
        assert np.array_equal(res.value.lo, np.minimum(inv_hi, inv_lo))
        assert np.array_equal(res.value.hi, np.maximum(inv_hi, inv_lo))


class TestPowerHull:
    def test_spec_examples(self):
        hull = ranges.power_hull(NONNEG_EXAMPLE, 2)
        assert np.allclose(hull.lo, [[1, 0], [0, 1]])
        assert np.allclose(hull.hi, [[5, 4], [4, 5]])
        hull1 = ranges.power_hull(NONNEG_EXAMPLE, 1)
        assert np.allclose(hull1.lo, NONNEG_EXAMPLE.lo)
        assert np.allclose(hull1.hi, NONNEG_EXAMPLE.hi)
        I2 = IntervalMatrix.point(np.eye(2))
        hull5 = ranges.power_hull(I2, 5)
        assert np.allclose(hull5.lo, np.eye(2)) and np.allclose(hull5.hi, np.eye(2))

    def test_rejects_negative_entries(self):
        with pytest.raises(PreconditionViolated):
            ranges.power_hull(IntervalMatrix([[-1.0]], [[1.0]]), 2)

    def test_sampling_containment(self):
        rng = np.random.default_rng(47)
        A = make_nonneg_instance(rng, 3)
        for k in (2, 3, 5):
            hull = ranges.power_hull(A, k)
            for m in oracle.sample_members(A, 100, rng):
                assert hull.contains_point(np.linalg.matrix_power(m, k), tol=1e-9)


# entries on a 2^-10 floor or zero, so no cube of a box scaled by 2^k,
# |k| <= 20, nears the subnormal range and every scaling is exact
_cube_entry = st.floats(-8.0, 8.0, allow_nan=False).map(
    lambda x: x if abs(x) >= 2.0 ** -10 else 0.0)


def _cube_members(A: IntervalMatrix, count: int, rng) -> np.ndarray:
    """Seeded members of a diagonally interval box, diagonals uniform."""
    members = np.broadcast_to(A.mid, (count,) + A.shape).copy()
    lo, hi = np.diag(A.lo), np.diag(A.hi)
    idx = np.arange(A.rows)
    members[:, idx, idx] = lo + (hi - lo) * rng.random((count, A.rows))
    return members


def _assert_cubes_inside(hull: IntervalMatrix, A: IntervalMatrix, cubes) -> None:
    # rounding slack relative to |A|^3, the size of every term of the expansion
    mag = np.maximum(np.abs(A.lo), np.abs(A.hi))
    slack = 1e-12 * float(np.max(mag @ mag @ mag))
    assert np.all(cubes >= hull.lo - slack)
    assert np.all(cubes <= hull.hi + slack)


class TestCubeHull:
    def test_running_example(self):
        A = IntervalMatrix([[-1, 1], [1, 0]], [[1, 1], [1, 0]])
        hull = ranges.cube_hull_diag_interval(A)
        assert np.allclose(hull.lo, [[-3, 1], [1, -1]], atol=1e-12)
        assert np.allclose(hull.hi, [[3, 2], [2, 1]], atol=1e-12)

    def test_point_matrix(self):
        P = IntervalMatrix.point([[1.0, 2.0], [3.0, 4.0]])
        hull = ranges.cube_hull_diag_interval(P)
        cube = np.linalg.matrix_power(P.mid, 3)
        assert np.allclose(hull.lo, cube) and np.allclose(hull.hi, cube)

    def test_diagonal_interval_matrix_odd_power_monotone(self):
        A = IntervalMatrix(np.diag([-1.0, 0.5]), np.diag([2.0, 1.5]))
        hull = ranges.cube_hull_diag_interval(A)
        assert hull.entry(0, 0).lo == pytest.approx(-1.0)
        assert hull.entry(0, 0).hi == pytest.approx(8.0)
        assert hull.entry(1, 1).lo == pytest.approx(0.125)
        assert hull.entry(1, 1).hi == pytest.approx(3.375)

    def test_three_varying_diagonals_against_grid(self):
        rng = np.random.default_rng(48)
        mid = rng.uniform(-1.0, 1.0, (3, 3))
        rad = np.diag(rng.uniform(0.1, 0.5, 3))
        A = IntervalMatrix.from_midrad(mid, rad)
        hull = ranges.cube_hull_diag_interval(A)
        reference = oracle.cube_range(A, oracle.OracleConfig(grid_step=2e-3))
        assert np.allclose(hull.lo, reference.lo, atol=2e-4)
        assert np.allclose(hull.hi, reference.hi, atol=2e-4)
        # the exact hull may only be wider than the inner grid approximation
        assert np.all(hull.lo <= reference.lo + 1e-12)
        assert np.all(hull.hi >= reference.hi - 1e-12)

    def test_rejects_dense_radius(self):
        A = IntervalMatrix.from_midrad(np.zeros((2, 2)), np.full((2, 2), 0.1))
        with pytest.raises(PreconditionViolated):
            ranges.cube_hull_diag_interval(A)

    def test_fine_grid_equality_small_instances(self):
        # bounded entries keep the grid error of a 1e-3 step under 1e-6
        rng = np.random.default_rng(50)
        for n in (2, 3):
            for _ in range(5):
                mid = rng.uniform(-1.0, 1.0, (n, n))
                rad = np.diag(rng.uniform(0.05, 0.25, n))
                if n == 3:
                    rad[2, 2] = 0.0
                A = IntervalMatrix.from_midrad(mid, rad)
                hull = ranges.cube_hull_diag_interval(A)
                reference = oracle.cube_range(A, oracle.OracleConfig(grid_step=1e-3))
                assert np.allclose(hull.lo, reference.lo, atol=1e-6)
                assert np.allclose(hull.hi, reference.hi, atol=1e-6)

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
               hnp.arrays(np.float64, (n, n), elements=_cube_entry),
               hnp.arrays(np.float64, n, elements=_cube_entry.map(abs)))),
           st.integers(-20, 20))
    @example((np.array([[1.5]]), np.array([0.75])), 7)
    @example((np.array([[0.5, -2.0], [3.0, 1.0]]), np.zeros(2)), -13)
    @settings(max_examples=150, deadline=None)
    def test_scaling_is_exact_and_members_are_inside(self, box, k):
        mid, rad = box
        A = IntervalMatrix(mid - np.diag(rad), mid + np.diag(rad))
        hull = ranges.cube_hull_diag_interval(A)
        scaled = ranges.cube_hull_diag_interval(
            IntervalMatrix(np.ldexp(A.lo, k), np.ldexp(A.hi, k)))
        assert np.array_equal(scaled.lo, np.ldexp(hull.lo, 3 * k))
        assert np.array_equal(scaled.hi, np.ldexp(hull.hi, 3 * k))
        members = _cube_members(A, 64, np.random.default_rng(0))
        _assert_cubes_inside(hull, A, members @ members @ members)

    def test_n8_three_varying_diagonals_against_grid(self):
        rng = np.random.default_rng(53)
        mid = rng.uniform(-1.0, 1.0, (8, 8))
        rad = np.zeros((8, 8))
        for v in rng.choice(8, size=3, replace=False):
            rad[v, v] = rng.uniform(0.15, 0.25)
        A = IntervalMatrix.from_midrad(mid, rad)
        hull = ranges.cube_hull_diag_interval(A)
        reference = oracle.cube_range(A, oracle.OracleConfig(grid_step=1e-2))
        assert np.allclose(hull.lo, reference.lo, atol=1e-4)
        assert np.allclose(hull.hi, reference.hi, atol=1e-4)
        # the exact hull may only be wider than the inner grid approximation
        assert np.all(hull.lo <= reference.lo + 1e-12)
        assert np.all(hull.hi >= reference.hi - 1e-12)

    def test_n200_members_are_inside(self):
        rng = np.random.default_rng(200)
        A = make_diag_psd_instance(rng, 200)
        hull = ranges.cube_hull_diag_interval(A)
        members = _cube_members(A, 64, rng)
        _assert_cubes_inside(hull, A, members @ members @ members)

    def test_rejects_non_square(self):
        A = IntervalMatrix.point(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="cube hull requires a square matrix"):
            ranges.cube_hull_diag_interval(A)


class TestRangeInvariants:
    @pytest.mark.parametrize("maker", [
        make_m_instance, make_tp_instance, make_inverse_nonneg_instance,
        make_inverse_m_instance, make_diag_psd_instance, make_sign_stable_instance,
    ])
    def test_det_range_equals_oracle(self, maker):
        rng = np.random.default_rng(49)
        for _ in range(5):
            A = maker(rng, 3)
            res = ranges.det_range(A)
            reference = oracle.det_range(A)
            scale = max(1.0, abs(reference.lo), abs(reference.hi))
            assert abs(res.value.lo - reference.lo) <= 1e-8 * scale
            assert abs(res.value.hi - reference.hi) <= 1e-8 * scale
            assert A.contains_point(res.attainers["min"], tol=1e-12)
            assert A.contains_point(res.attainers["max"], tol=1e-12)
