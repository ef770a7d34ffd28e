import json

import numpy as np
import pytest

from conftest import (
    make_h_instance,
    make_inverse_m_instance,
    make_inverse_nonneg_instance,
    make_m_instance,
    make_rhs,
    make_tp_instance,
)
from ivmat import classify, kernel, linsolve, oracle
from ivmat.cli import main
from ivmat.errors import NoApplicableCase, PivotContainsZero, PreconditionViolated
from ivmat.intervals import IntervalMatrix, IntervalVector, idiv, imatmul, imul, isub
from ivmat.linsolve import (
    ENCLOSURE,
    EXACT,
    IntervalLinearSystem,
    hull_bounds_inverse_m,
    hull_hbrnk,
    hull_inverse_nonnegative,
    hull_totally_positive,
    interval_gauss_elim,
    interval_lu,
    solve_hull,
)

INV_NONNEG = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
TP_EXAMPLE = IntervalMatrix([[0.9, 0.1], [0.1, 0.9]], [[1.1, 0.2], [0.2, 1.1]])


def _hulls_match(hull, reference, tol=1e-7):
    return (np.allclose(hull.lo, reference.lo, atol=tol, rtol=tol)
            and np.allclose(hull.hi, reference.hi, atol=tol, rtol=tol))


class TestInverseNonnegativeHull:
    def test_nonneg_rhs_example(self):
        res = hull_inverse_nonnegative(
            IntervalLinearSystem(INV_NONNEG, IntervalVector([3, 0], [6, 3])))
        assert np.allclose(res.hull.lo, [1, 0]) and np.allclose(res.hull.hi, [5, 4])
        assert res.exactness == EXACT

    def test_zero_in_rhs_example(self):
        res = hull_inverse_nonnegative(
            IntervalLinearSystem(INV_NONNEG, IntervalVector([-1, -1], [1, 1])))
        assert np.allclose(res.hull.lo, [-1, -1]) and np.allclose(res.hull.hi, [1, 1])

    def test_point_identity(self):
        # hull equals b itself for the identity, for every sign case
        for b in (IntervalVector([1.0, 0.5], [2.0, 1.0]),
                  IntervalVector([-2.0, -1.0], [-1.0, 0.0]),
                  IntervalVector([-1.0, -2.0], [2.0, 1.0])):
            res = hull_inverse_nonnegative(
                IntervalLinearSystem(IntervalMatrix.point(np.eye(2)), b))
            assert np.allclose(res.hull.lo, b.lo) and np.allclose(res.hull.hi, b.hi)

    def test_nonpos_rhs_mirror(self):
        b = IntervalVector([-6, -3], [-3, 0])
        res = hull_inverse_nonnegative(IntervalLinearSystem(INV_NONNEG, b))
        reference = oracle.solution_hull(INV_NONNEG, b)
        assert _hulls_match(res.hull, reference)

    def test_mixed_rhs_rejected(self):
        b = IntervalVector([1.0, -2.0], [2.0, -1.0])
        with pytest.raises(NoApplicableCase):
            hull_inverse_nonnegative(IntervalLinearSystem(INV_NONNEG, b))

    def test_non_inverse_nonneg_rejected(self):
        A = IntervalMatrix.point([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(PreconditionViolated):
            hull_inverse_nonnegative(
                IntervalLinearSystem(A, IntervalVector.point([1.0, 1.0])))


class TestTotallyPositiveHull:
    def test_point_rhs_example(self):
        res = hull_totally_positive(
            IntervalLinearSystem(TP_EXAMPLE, IntervalVector.point([1.0, 0.0])))
        reference = oracle.solution_hull(TP_EXAMPLE, IntervalVector.point([1.0, 0.0]))
        assert _hulls_match(res.hull, reference)

    def test_point_system(self):
        # point rhs must still match a checkerboard sign case: (1, -1) does
        P = IntervalMatrix.point([[1.0, 0.2], [0.2, 1.0]])
        b = IntervalVector.point([1.0, -1.0])
        res = hull_totally_positive(IntervalLinearSystem(P, b))
        x = kernel.solve(P.mid, b.mid)
        assert np.allclose(res.hull.lo, x) and np.allclose(res.hull.hi, x)

    def test_incompatible_point_rhs_rejected(self):
        P = IntervalMatrix.point([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(NoApplicableCase):
            hull_totally_positive(
                IntervalLinearSystem(P, IntervalVector.point([1.0, 1.0])))

    def test_zero_in_rhs(self):
        b = IntervalVector([-1, -1], [1, 1])
        res = hull_totally_positive(IntervalLinearSystem(TP_EXAMPLE, b))
        reference = oracle.solution_hull(TP_EXAMPLE, b)
        assert _hulls_match(res.hull, reference)

    @pytest.mark.parametrize("case", ["cb_nonneg", "cb_nonpos", "zero"])
    def test_all_cases_match_oracle(self, case):
        rng = np.random.default_rng(51)
        for n in (2, 3):
            for _ in range(5):
                A = make_tp_instance(rng, n)
                b = make_rhs(rng, n, case)
                res = hull_totally_positive(IntervalLinearSystem(A, b))
                reference = oracle.solution_hull(A, b)
                assert _hulls_match(res.hull, reference)


class TestHbrnk:
    def test_point_identity(self):
        b = IntervalVector([1.0, -1.0], [2.0, 1.0])
        res = hull_hbrnk(IntervalLinearSystem(IntervalMatrix.point(np.eye(2)), b))
        assert np.allclose(res.hull.lo, b.lo) and np.allclose(res.hull.hi, b.hi)
        assert res.exactness == EXACT  # diagonal midpoint

    def test_spec_instance_contains_oracle_hull(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[4, 0], [0, 4]])
        b = IntervalVector([0, 0], [2, 2])
        res = hull_hbrnk(IntervalLinearSystem(A, b))
        assert res.exactness == ENCLOSURE
        reference = oracle.solution_hull(A, b)
        assert res.hull.contains_vector(reference, tol=1e-9)
        # on this instance the enclosure is strictly wider than the hull
        assert res.hull.lo[0] < reference.lo[0] - 1e-6

    def test_contains_oracle_on_h_instances(self):
        rng = np.random.default_rng(52)
        for n in (2, 3):
            for _ in range(10):
                A = make_h_instance(rng, n)
                b = make_rhs(rng, n, "mixed" if n > 1 else "zero")
                res = hull_hbrnk(IntervalLinearSystem(A, b))
                reference = oracle.solution_hull(A, b)
                assert res.hull.contains_vector(reference, tol=1e-9)

    def test_rejects_non_h(self):
        A = IntervalMatrix([[0, 1], [-1, 10]], [[10, 1], [-1, 10]])
        with pytest.raises(PreconditionViolated):
            hull_hbrnk(IntervalLinearSystem(A, IntervalVector.point([1.0, 1.0])))

    def test_denominator_containing_zero_raises(self, monkeypatch, tmp_path, capsys):
        # a (wrong) H certificate with comparison matrix 2I leaves alpha = 0,
        # so the first denominator is the diagonal entry [-1, 1] itself
        fake = classify.ClassReport("H", classify.YES, {"comparison_matrix": 2.0 * np.eye(2)})
        monkeypatch.setattr(classify, "is_h_matrix_interval", lambda A: fake)
        A = IntervalMatrix([[-1, 0], [0, 1]], [[1, 0], [0, 2]])
        b = IntervalVector.point([1.0, 1.0])
        with pytest.raises(PivotContainsZero):
            hull_hbrnk(IntervalLinearSystem(A, b))
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({
            "format_version": 1, "kind": "system",
            "A": [[[-1, 1], 0], [0, [1, 2]]], "b": [1, 1]}))
        assert main(["solve", str(path), "--method", "hbrnk"]) == 3
        capsys.readouterr()

    def test_exact_hull_for_diagonal_midpoint(self):
        # the comparison-matrix bound is the hull when the midpoint is
        # diagonal; flagged exact and checked against the oracle
        rng = np.random.default_rng(60)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            mid = np.diag(rng.uniform(2.0, 4.0, n) * rng.choice([-1.0, 1.0], n))
            rad = rng.uniform(0.0, 0.3, (n, n))
            A = IntervalMatrix.from_midrad(mid, rad)
            b = make_rhs(rng, n, "mixed")
            res = hull_hbrnk(IntervalLinearSystem(A, b))
            assert res.exactness == EXACT
            reference = oracle.solution_hull(A, b)
            assert _hulls_match(res.hull, reference, tol=1e-9)


class TestGaussElim:
    def test_m_matrix_exact_example(self):
        res = interval_gauss_elim(
            IntervalLinearSystem(INV_NONNEG, IntervalVector([3, 0], [6, 3])))
        assert res.exactness == EXACT
        assert np.allclose(res.hull.lo, [1, 0]) and np.allclose(res.hull.hi, [5, 4])

    def test_point_system_exact_solve(self):
        A = IntervalMatrix.point([[3.0, 1.0], [1.0, 2.0]])
        b = IntervalVector.point([4.0, 3.0])
        res = interval_gauss_elim(IntervalLinearSystem(A, b))
        x = kernel.solve(A.mid, b.mid)
        assert np.allclose(res.hull.lo, x) and np.allclose(res.hull.hi, x)

    def test_h_non_m_enclosure_contains_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            A = make_h_instance(rng, 3)
            b = make_rhs(rng, 3, "mixed")
            res = interval_gauss_elim(IntervalLinearSystem(A, b))
            reference = oracle.solution_hull(A, b)
            assert res.hull.contains_vector(reference, tol=1e-9)

    def test_m_sign_restricted_equals_oracle(self):
        rng = np.random.default_rng(54)
        for case in ("nonneg", "nonpos", "zero"):
            for _ in range(5):
                A = make_m_instance(rng, 3)
                b = make_rhs(rng, 3, case)
                res = interval_gauss_elim(IntervalLinearSystem(A, b))
                assert res.exactness == EXACT
                reference = oracle.solution_hull(A, b)
                assert _hulls_match(res.hull, reference)


class TestIntervalLu:
    def test_point_matrix_exact_factors(self):
        P = IntervalMatrix.point([[4.0, -1.0], [-2.0, 5.0]])
        L, U = interval_lu(P)
        assert np.allclose(L.lo, L.hi) and np.allclose(U.lo, U.hi)
        assert np.allclose(L.mid @ U.mid, P.mid)
        assert np.allclose(np.diag(L.mid), 1.0)

    def test_identity(self):
        L, U = interval_lu(IntervalMatrix.point(np.eye(3)))
        assert np.allclose(L.mid, np.eye(3)) and np.allclose(U.mid, np.eye(3))

    def test_membership_on_h_instances(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            A = make_h_instance(rng, 3)
            L, U = interval_lu(A)
            assert np.allclose(np.diag(L.lo), 1.0) and np.allclose(np.diag(L.hi), 1.0)
            product = imatmul(L, U)
            assert product.contains_matrix(A, tol=1e-9)


def _reference_elimination(A, b):
    """Entrywise interval elimination and back-substitution, one scalar
    operation at a time: the oracle for the whole-array versions."""
    n = A.rows
    u_lo, u_hi = A.lo.copy(), A.hi.copy()
    l_lo, l_hi = np.eye(n), np.eye(n)
    b_lo, b_hi = b.lo.copy(), b.hi.copy()
    for k in range(n):
        if u_lo[k, k] <= 0.0 <= u_hi[k, k]:
            raise PivotContainsZero(f"pivot {k} contains zero")
        for i in range(k + 1, n):
            m = idiv(u_lo[i, k], u_hi[i, k], u_lo[k, k], u_hi[k, k])
            l_lo[i, k], l_hi[i, k] = m
            for j in range(k + 1, n):
                u_lo[i, j], u_hi[i, j] = isub(u_lo[i, j], u_hi[i, j],
                                              *imul(*m, u_lo[k, j], u_hi[k, j]))
            u_lo[i, k] = u_hi[i, k] = 0.0
            b_lo[i], b_hi[i] = isub(b_lo[i], b_hi[i], *imul(*m, b_lo[k], b_hi[k]))
    x_lo, x_hi = np.empty(n), np.empty(n)
    for i in range(n - 1, -1, -1):
        acc = b_lo[i], b_hi[i]
        for j in range(i + 1, n):
            acc = isub(*acc, *imul(u_lo[i, j], u_hi[i, j], x_lo[j], x_hi[j]))
        x_lo[i], x_hi[i] = idiv(*acc, u_lo[i, i], u_hi[i, i])
    return (l_lo, l_hi), (u_lo, u_hi), (b_lo, b_hi), (x_lo, x_hi)


def _reference_matmul(A, B):
    lo, hi = np.zeros((A.rows, B.cols)), np.zeros((A.rows, B.cols))
    for i in range(A.rows):
        for j in range(B.cols):
            acc_lo, acc_hi = 0.0, 0.0
            for k in range(A.cols):
                p_lo, p_hi = imul(A.lo[i, k], A.hi[i, k], B.lo[k, j], B.hi[k, j])
                acc_lo += p_lo
                acc_hi += p_hi
            lo[i, j], hi[i, j] = acc_lo, acc_hi
    return lo, hi


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestArrayCoreMatchesEntrywiseLoops:
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_bit_identical_on_seeded_h_systems(self, n):
        rng = np.random.default_rng(880 + n)
        A = make_h_instance(rng, n)
        b = make_rhs(rng, n, "mixed")
        rl, ru, rb, rx = _reference_elimination(A, b)
        (l_lo, l_hi), (u_lo, u_hi), (b_lo, b_hi) = linsolve._eliminate(A, b)
        for got, want in zip((l_lo, l_hi, u_lo, u_hi, b_lo, b_hi), rl + ru + rb):
            assert _same_bits(got, want)
        x = interval_gauss_elim(IntervalLinearSystem(A, b)).hull
        assert _same_bits(x.lo, rx[0]) and _same_bits(x.hi, rx[1])
        L, U = interval_lu(A)
        for got, want in zip((L.lo, L.hi, U.lo, U.hi), rl + ru):
            assert _same_bits(got, want)
        product = imatmul(L, U)
        want_lo, want_hi = _reference_matmul(L, U)
        assert _same_bits(product.lo, want_lo) and _same_bits(product.hi, want_hi)

    @pytest.mark.parametrize("lo,hi,k", [
        ([[-1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], 0),
        ([[1.0, 1.0], [1.0, 0.5]], [[1.0, 1.0], [1.0, 1.5]], 1),
        ([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [2.0, 1.0, 1.5]],
         [[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [2.0, 1.0, 3.5]], 2),
    ])
    def test_pivot_containing_zero_is_named_alike(self, lo, hi, k):
        A = IntervalMatrix(lo, hi)
        b = IntervalVector.point(np.ones(A.rows))
        for eliminate in (linsolve._eliminate, _reference_elimination):
            with pytest.raises(PivotContainsZero, match=f"pivot {k} contains zero"):
                eliminate(A, b)


class TestInverseMHull:
    def test_point_example(self):
        A = IntervalMatrix.point(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
        b = IntervalVector([-1, -1], [1, 1])
        res = hull_bounds_inverse_m(IntervalLinearSystem(A, b))
        assert np.allclose(res.hull.lo, [-3, -3]) and np.allclose(res.hull.hi, [3, 3])

    def test_point_rhs(self):
        A = IntervalMatrix.point(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
        b = IntervalVector.point([1.0, 1.0])
        res = hull_bounds_inverse_m(IntervalLinearSystem(A, b))
        x = kernel.solve(A.mid, b.mid)
        assert np.allclose(res.hull.lo, x) and np.allclose(res.hull.hi, x)

    def test_interval_family_equals_oracle(self):
        rng = np.random.default_rng(56)
        for n in (2, 3):
            for _ in range(5):
                A = make_inverse_m_instance(rng, n)
                b = make_rhs(rng, n, "zero")
                res = hull_bounds_inverse_m(IntervalLinearSystem(A, b))
                reference = oracle.solution_hull(A, b)
                assert _hulls_match(res.hull, reference)


class TestSolveDispatch:
    def test_auto_prefers_closed_forms(self):
        res = solve_hull(IntervalLinearSystem(INV_NONNEG, IntervalVector([3, 0], [6, 3])))
        assert res.method.startswith("inverse-nonnegative")

    def test_auto_falls_back_to_hbrnk_for_mixed_rhs(self):
        rng = np.random.default_rng(57)
        A = make_h_instance(rng, 3)
        b = make_rhs(rng, 3, "mixed")
        res = solve_hull(IntervalLinearSystem(A, b))
        assert res.method == "hbrnk"

    def test_oracle_method(self):
        b = IntervalVector([3, 0], [6, 3])
        res = solve_hull(IntervalLinearSystem(INV_NONNEG, b), method="oracle")
        assert np.allclose(res.hull.lo, [1, 0]) and np.allclose(res.hull.hi, [5, 4])

    def test_auto_enumerates_inverse_m_vertices_twice(self, monkeypatch):
        # one inverse-M test plus the hull enumeration; the dispatcher used to
        # run the test once more before calling the hull
        rng = np.random.default_rng(60)
        for _ in range(20):
            A = make_inverse_m_instance(rng, 3)
            sys_ = IntervalLinearSystem(A, make_rhs(rng, 3, "mixed"))
            if solve_hull(sys_).method == "inverse-m-vertex-enumeration":
                break
        else:
            pytest.fail("no inverse-M system reached the inverse-M hull")
        expected = hull_bounds_inverse_m(sys_)
        calls = []
        test = classify.is_inverse_m_interval

        def spy(*args, **kwargs):
            calls.append(args)
            return test(*args, **kwargs)

        monkeypatch.setattr(classify, "is_inverse_m_interval", spy)
        res = solve_hull(sys_)
        assert len(calls) == 1
        assert (res.method, res.exactness) == (expected.method, expected.exactness)
        assert np.array_equal(res.hull.lo, expected.hull.lo)
        assert np.array_equal(res.hull.hi, expected.hull.hi)

    def test_auto_oracle_fallback_warns(self):
        # regular but in no supported class: a rotation-like point family
        A = IntervalMatrix.from_midrad(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                       np.full((2, 2), 0.05))
        b = IntervalVector([-1, -1], [1, 1])
        res = solve_hull(IntervalLinearSystem(A, b))
        assert res.method == "oracle-vertex-enumeration"
        assert "warning" in res.details


class TestSolutionContainment:
    def test_sampled_solutions_inside_every_hull(self):
        rng = np.random.default_rng(58)
        A = make_inverse_nonneg_instance(rng, 3)
        b = make_rhs(rng, 3, "nonneg")
        sys_ = IntervalLinearSystem(A, b)
        results = [hull_inverse_nonnegative(sys_), hull_hbrnk(sys_),
                   interval_gauss_elim(sys_)]
        mats = oracle.sample_members(A, 500, rng)
        rhss = oracle.sample_members(b, 500, rng)
        xs = np.linalg.solve(mats, rhss[..., None])[..., 0]
        for res in results:
            assert np.all(xs >= res.hull.lo[None] - 1e-9)
            assert np.all(xs <= res.hull.hi[None] + 1e-9)

    def test_exact_methods_agree_hbrnk_contains(self):
        rng = np.random.default_rng(59)
        for case in ("nonneg", "nonpos", "zero"):
            A = make_m_instance(rng, 3)
            b = make_rhs(rng, 3, case)
            sys_ = IntervalLinearSystem(A, b)
            invn = hull_inverse_nonnegative(sys_)
            ge = interval_gauss_elim(sys_)
            hb = hull_hbrnk(sys_)
            assert _hulls_match(invn.hull, ge.hull)
            assert hb.hull.contains_vector(invn.hull, tol=1e-9)
