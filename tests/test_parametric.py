import numpy as np
import pytest

from ivmat.errors import (
    CapExceeded,
    CrossDependency,
    EmptySolutionSet,
    OutOfBox,
    PreconditionViolated,
    RankTooHigh,
    SingularVertex,
)
from ivmat.intervals import IntervalVector
from ivmat.parametric import (
    ParametricSystem,
    eval_parametric,
    hull_orthant_lp,
    hull_rank_one,
    is_pd_parametric,
)


def _grid_hull(P: ParametricSystem, step: float = 1e-2) -> tuple[np.ndarray, np.ndarray]:
    """Dense-grid reference hull over the parameter box."""
    axes = []
    for k in range(P.num_params):
        lo, hi = P.box.lo[k], P.box.hi[k]
        if hi > lo:
            npts = max(2, int(round((hi - lo) / step)) + 1)
            axes.append(np.linspace(lo, hi, npts))
        else:
            axes.append(np.array([lo]))
    grids = np.meshgrid(*axes, indexing="ij")
    ps = np.stack([g.ravel() for g in grids], axis=1)
    stack_a = np.tensordot(ps, np.array(P.coeff_matrices), axes=(1, 0))
    stack_b = ps @ np.array(P.rhs_vectors)
    xs = np.linalg.solve(stack_a, stack_b[..., None])[..., 0]
    return xs.min(axis=0), xs.max(axis=0)


RANK_ONE = ParametricSystem(
    [np.eye(2), np.ones((2, 2)), np.zeros((2, 2))],
    [np.zeros(2), np.zeros(2), np.array([1.0, 1.0])],
    IntervalVector([1.0, 0.0, 1.0], [1.0, 0.2, 1.0]))

TRIANGULAR = ParametricSystem(
    [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]]),
     np.array([[0.0, 1.0], [0.0, 0.0]])],
    [np.zeros(2), np.zeros(2), np.array([1.0, 1.0])],
    IntervalVector([1.0, 1.0, 1.0], [2.0, 2.0, 1.0]))


class TestEvalParametric:
    def test_single_term_scaling(self):
        P = ParametricSystem([np.eye(2)], [np.zeros(2)], IntervalVector([0.0], [2.0]))
        A, b = eval_parametric(P, [2.0])
        assert np.allclose(A, 2 * np.eye(2)) and np.allclose(b, 0.0)

    def test_two_term_sum(self):
        rng = np.random.default_rng(61)
        mats = [rng.normal(size=(2, 2)) for _ in range(2)]
        vecs = [rng.normal(size=2) for _ in range(2)]
        P = ParametricSystem(mats, vecs, IntervalVector([-1, -1], [1, 1]))
        p = np.array([0.3, -0.7])
        A, b = eval_parametric(P, p)
        assert np.allclose(A, p[0] * mats[0] + p[1] * mats[1])
        assert np.allclose(b, p[0] * vecs[0] + p[1] * vecs[1])

    def test_vertex_reproduction(self):
        A, b = eval_parametric(RANK_ONE, [1.0, 0.2, 1.0])
        assert np.allclose(A, np.eye(2) + 0.2 * np.ones((2, 2)))
        assert np.allclose(b, [1.0, 1.0])

    def test_out_of_box(self):
        with pytest.raises(OutOfBox):
            eval_parametric(RANK_ONE, [1.0, 0.5, 1.0])


class TestPdParametric:
    def test_scaled_identity(self):
        P = ParametricSystem([np.eye(2)], [np.zeros(2)], IntervalVector([1.0], [2.0]))
        assert is_pd_parametric(P).is_yes

    def test_two_parameter_example(self):
        P = ParametricSystem(
            [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])],
            [np.zeros(2), np.zeros(2)],
            IntervalVector([1.0, -0.5], [2.0, 0.5]))
        rep = is_pd_parametric(P)
        assert rep.is_yes
        assert rep.certificate["lambda_min"] == pytest.approx(0.5)

    def test_indefinite_witness(self):
        P = ParametricSystem([np.diag([1.0, -1.0])], [np.zeros(2)],
                             IntervalVector([1.0], [2.0]))
        rep = is_pd_parametric(P)
        assert rep.is_no
        A, _ = eval_parametric(P, rep.certificate["witness_vertex"])
        assert np.min(np.linalg.eigvalsh(A)) <= 0

    def test_asymmetric_coefficient_rejected(self):
        P = ParametricSystem([np.array([[1.0, 1.0], [0.0, 1.0]])], [np.zeros(2)],
                             IntervalVector([1.0], [2.0]))
        with pytest.raises(PreconditionViolated):
            is_pd_parametric(P)

    def test_cap(self):
        K = 6
        P = ParametricSystem([np.eye(2)] * K, [np.zeros(2)] * K,
                             IntervalVector([1.0] * K, [2.0] * K))
        with pytest.raises(CapExceeded):
            is_pd_parametric(P, cap_evals=3)

    def test_interior_samples_stay_pd(self):
        P = ParametricSystem(
            [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])],
            [np.zeros(2), np.zeros(2)],
            IntervalVector([1.0, -0.5], [2.0, 0.5]))
        assert is_pd_parametric(P).is_yes
        rng = np.random.default_rng(62)
        for _ in range(200):
            p = P.box.lo + (P.box.hi - P.box.lo) * rng.random(2)
            A, _ = eval_parametric(P, p)
            assert np.min(np.linalg.eigvalsh(A)) > 0


class TestRankOneHull:
    def test_running_example(self):
        res = hull_rank_one(RANK_ONE)
        assert np.allclose(res.hull.lo, [1 / 1.4, 1 / 1.4])
        assert np.allclose(res.hull.hi, [1.0, 1.0])

    def test_interior_monotone_grid_agreement(self):
        lo, hi = _grid_hull(RANK_ONE, step=1e-2 * 0.2)
        res = hull_rank_one(RANK_ONE)
        assert np.allclose(res.hull.lo, lo, atol=1e-6)
        assert np.allclose(res.hull.hi, hi, atol=1e-6)

    def test_point_system(self):
        P = ParametricSystem([np.eye(2), np.zeros((2, 2))],
                             [np.zeros(2), np.array([2.0, -4.0])],
                             IntervalVector([1.0, 1.0], [1.0, 1.0]))
        res = hull_rank_one(P)
        assert np.allclose(res.hull.lo, [2.0, -4.0])
        assert np.allclose(res.hull.hi, [2.0, -4.0])

    def test_rank_two_rejected(self):
        P = ParametricSystem([np.eye(2)], [np.zeros(2)], IntervalVector([1.0], [2.0]))
        with pytest.raises(RankTooHigh):
            hull_rank_one(P)

    def test_cross_dependency_rejected(self):
        P = ParametricSystem([np.outer([1.0, 0.0], [1.0, 0.0])],
                             [np.array([1.0, 0.0])],
                             IntervalVector([1.0], [2.0]))
        with pytest.raises(CrossDependency):
            hull_rank_one(P)

    def test_singular_vertex_surfaced(self):
        # A(p) = p1 * e1 e1^T + constant diag(0, 1): singular at p1 = 0
        P = ParametricSystem(
            [np.outer([1.0, 0.0], [1.0, 0.0]), np.diag([0.0, 1.0]),
             np.zeros((2, 2))],
            [np.zeros(2), np.zeros(2), np.array([1.0, 1.0])],
            IntervalVector([0.0, 1.0, 1.0], [1.0, 1.0, 1.0]))
        with pytest.raises(SingularVertex):
            hull_rank_one(P)


class TestOrthantLpHull:
    def test_running_example(self):
        res = hull_orthant_lp(TRIANGULAR)
        assert np.allclose(res.hull.lo, [0.0, 0.5], atol=1e-9)
        assert np.allclose(res.hull.hi, [0.5, 1.0], atol=1e-9)

    def test_grid_agreement(self):
        lo, hi = _grid_hull(TRIANGULAR, step=1e-2)
        res = hull_orthant_lp(TRIANGULAR)
        assert np.allclose(res.hull.lo, lo, atol=1e-6)
        assert np.allclose(res.hull.hi, hi, atol=1e-6)

    def test_point_parameters_single_solve(self):
        P = ParametricSystem([np.array([[2.0, 1.0], [0.0, 3.0]]), np.zeros((2, 2))],
                             [np.zeros(2), np.array([1.0, 3.0])],
                             IntervalVector([1.0, 1.0], [1.0, 1.0]))
        res = hull_orthant_lp(P)
        x = np.linalg.solve(np.array([[2.0, 1.0], [0.0, 3.0]]), [1.0, 3.0])
        assert np.allclose(res.hull.lo, x, atol=1e-9)
        assert np.allclose(res.hull.hi, x, atol=1e-9)

    def test_one_sided_orthant(self):
        # x = 1/p1, p1 in [1,2]: the negative orthant is infeasible
        P = ParametricSystem([np.array([[1.0]]), np.zeros((1, 1))],
                             [np.zeros(1), np.array([1.0])],
                             IntervalVector([1.0, 1.0], [2.0, 1.0]))
        res = hull_orthant_lp(P)
        assert res.hull.lo[0] == pytest.approx(0.5, abs=1e-9)
        assert res.hull.hi[0] == pytest.approx(1.0, abs=1e-9)
        lo, hi = _grid_hull(P, step=1e-3)
        assert res.hull.lo[0] == pytest.approx(lo[0], abs=1e-6)
        assert res.hull.hi[0] == pytest.approx(hi[0], abs=1e-6)

    def test_multi_equation_parameter_rejected(self):
        P = ParametricSystem([np.eye(2), np.zeros((2, 2))],
                             [np.zeros(2), np.array([1.0, 1.0])],
                             IntervalVector([1.0, 1.0], [2.0, 1.0]))
        with pytest.raises(PreconditionViolated):
            hull_orthant_lp(P)

    def test_empty_solution_set(self):
        # 0 * x = 1 has no solution anywhere in the box
        P = ParametricSystem([np.array([[1.0]]), np.zeros((1, 1))],
                             [np.zeros(1), np.array([1.0])],
                             IntervalVector([0.0, 1.0], [0.0, 1.0]))
        with pytest.raises(EmptySolutionSet):
            hull_orthant_lp(P)


class TestSamplingContainment:
    def test_solutions_inside_hulls(self):
        rng = np.random.default_rng(63)
        for P, hull_fn in ((RANK_ONE, hull_rank_one), (TRIANGULAR, hull_orthant_lp)):
            res = hull_fn(P)
            for _ in range(500):
                p = P.box.lo + (P.box.hi - P.box.lo) * rng.random(P.num_params)
                A, b = eval_parametric(P, p)
                x = np.linalg.solve(A, b)
                assert np.all(x >= res.hull.lo - 1e-9)
                assert np.all(x <= res.hull.hi + 1e-9)
