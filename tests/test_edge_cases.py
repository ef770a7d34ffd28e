"""Degenerate-dimension and dispatch edge cases across the stack."""

from collections import Counter

import numpy as np
import pytest

import conftest
from conftest import make_rhs, make_sign_stable_instance, make_tp_instance
from ivmat import classify, kernel, linsolve, oracle, parametric, ranges
from ivmat.errors import CapExceeded, IvmatError, NoApplicableTheorem, PreconditionViolated
from ivmat.intervals import IntervalMatrix, IntervalVector, as_symmetric, vertex_chunks
from ivmat.linsolve import IntervalLinearSystem
from ivmat.parametric import ParametricSystem


class TestOneByOne:
    def test_classify_all(self):
        A = IntervalMatrix([[2.0]], [[3.0]])
        verdicts = {r.matrix_class: r.verdict for r in classify.classify_all(A)}
        assert verdicts["M"] == "yes"
        assert verdicts["H"] == "yes"
        assert verdicts["InverseNonnegative"] == "yes"
        assert verdicts["TotallyPositive"] == "yes"
        assert verdicts["InverseM"] == "yes"
        assert verdicts["Regular"] == "yes"

    def test_det_range(self):
        A = IntervalMatrix([[2.0]], [[3.0]])
        res = ranges.det_range(A)
        assert res.value.lo == pytest.approx(2.0, rel=1e-12)
        assert res.value.hi == pytest.approx(3.0, rel=1e-12)

    def test_eig_and_rho(self):
        A = IntervalMatrix([[-4.0]], [[-3.0]])
        res = ranges.eig_ranges_diag_interval(A)
        assert res[0].value.lo == -4.0 and res[0].value.hi == -3.0
        assert ranges.spectral_radius_max_diag_interval(A).value == 4.0

    def test_solve_paths(self):
        A = IntervalMatrix([[2.0]], [[4.0]])
        b = IntervalVector([2.0], [4.0])
        sys_ = IntervalLinearSystem(A, b)
        reference = oracle.solution_hull(A, b)
        for method in ("invnonneg", "tp", "ge", "inversem", "oracle"):
            res = linsolve.solve_hull(sys_, method=method)
            assert res.hull.contains_vector(reference, tol=1e-12)
        enc = linsolve.hull_hbrnk(sys_)
        assert enc.hull.contains_vector(reference, tol=1e-12)

    def test_cube_and_power(self):
        A = IntervalMatrix([[-1.0]], [[2.0]])
        hull = ranges.cube_hull_diag_interval(A)
        assert hull.entry(0, 0).lo == pytest.approx(-1.0)
        assert hull.entry(0, 0).hi == pytest.approx(8.0)
        B = IntervalMatrix([[0.0]], [[2.0]])
        p = ranges.power_hull(B, 3)
        assert p.entry(0, 0).lo == 0.0 and p.entry(0, 0).hi == 8.0

    def test_norm_and_rr(self):
        A = IntervalMatrix([[2.0]], [[3.0]])
        res = ranges.rr_range(A)
        assert res.value.lo == pytest.approx(2.0)
        assert res.value.hi == pytest.approx(3.0)


class TestDispatchBranches:
    def test_auto_uses_tp_for_checkerboard_rhs(self):
        rng = np.random.default_rng(71)
        A = make_tp_instance(rng, 2)
        b = IntervalVector([0.5, -1.0], [1.0, -0.5])  # checkerboard nonneg
        res = linsolve.solve_hull(IntervalLinearSystem(A, b))
        assert res.method.startswith("totally-positive")
        reference = oracle.solution_hull(A, b)
        assert np.allclose(res.hull.lo, reference.lo, atol=1e-9)
        assert np.allclose(res.hull.hi, reference.hi, atol=1e-9)

    def test_auto_uses_inverse_m_enumeration(self):
        W = np.array([[4.0, -1.0, -2.0], [-1.0, 4.0, -1.0], [-2.0, -1.0, 4.0]])
        A = IntervalMatrix.from_midrad(kernel.inverse(W), np.full((3, 3), 0.002))
        b = IntervalVector([-1.0, 0.5, -1.0], [1.0, 1.0, -0.5])
        res = linsolve.solve_hull(IntervalLinearSystem(A, b))
        assert res.method == "inverse-m-vertex-enumeration"
        reference = oracle.solution_hull(A, b)
        assert np.allclose(res.hull.lo, reference.lo, atol=1e-9)
        assert np.allclose(res.hull.hi, reference.hi, atol=1e-9)


class TestLargerTotallyPositive:
    def test_4x4_eigenvalue_ranges(self):
        rng = np.random.default_rng(72)
        A = make_tp_instance(rng, 4)
        res = ranges.eig_ranges_totally_positive(A)
        members = oracle.sample_members(A, 300, rng)
        spectra = np.sort(np.linalg.eigvals(members).real, axis=1)[:, ::-1]
        for i, r in enumerate(res):
            slack = 1e-9 * max(1.0, abs(r.value.lo), abs(r.value.hi))
            assert r.value.lo - slack <= spectra[:, i].min()
            assert spectra[:, i].max() <= r.value.hi + slack
            f = lambda m, i=i: float(kernel.real_eigenvalues_sorted(m)[i])
            assert f(r.attainers["min"]) == pytest.approx(r.value.lo, abs=1e-9)
            assert f(r.attainers["max"]) == pytest.approx(r.value.hi, abs=1e-9)

    def test_4x4_det_and_sigma(self):
        rng = np.random.default_rng(73)
        A = make_tp_instance(rng, 4)
        res = ranges.det_range(A)
        reference = oracle.det_range(A)
        assert res.value.lo == pytest.approx(reference.lo, rel=1e-10)
        assert res.value.hi == pytest.approx(reference.hi, rel=1e-10)
        sampled = oracle.range_sampling(
            lambda m: float(kernel.singular_values(m)[-1]), A,
            oracle.OracleConfig(samples=200))
        smin = ranges.sigma_min_range(A)
        assert smin.value.lo - 1e-9 <= sampled.lo
        assert sampled.hi <= smin.value.hi + 1e-9


# -- one cap meaning: cap_evals counts the realizations an enumeration evaluates

_INV_M = IntervalMatrix.from_midrad(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0,
                                    np.full((2, 2), 0.02))  # 2^4 vertices
_NONNEG = IntervalMatrix.from_midrad(np.full((4, 4), 1.0), np.full((4, 4), 0.1))
_M4 = IntervalMatrix.from_midrad(4.0 * np.eye(4) - 0.5, np.full((4, 4), 0.05))
# inverses of checkerboard sign: rr_range enumerates 2^3 sign vectors per
# endpoint here, where the nonnegative inverses of _M4 take a closed form
_TP4 = make_tp_instance(np.random.default_rng(4), 4)
_SYM_M_NOT_H = IntervalMatrix.from_midrad(2.5 * np.eye(4) - 0.5,
                                          0.5 * (1.0 - np.eye(4)))
_SIGN_STABLE = make_sign_stable_instance(np.random.default_rng(3), 2)  # 2^4 vertices
_P_SIGN = IntervalMatrix.from_midrad(np.array([[2.0, 0.5], [0.5, 2.0]]),
                                     np.full((2, 2), 0.1))


def _rank_one_family():
    u = np.array([1.0, 0.5, -0.5])
    mats = [3.0 * np.eye(3)] + [0.1 * np.outer(u, np.roll(u, s)) for s in range(3)]
    vecs = [np.ones(3)] + [np.zeros(3)] * 3
    return ParametricSystem(mats, vecs, IntervalVector([1.0] + [-1.0] * 3,
                                                       [1.0] + [1.0] * 3))


def _single_equation_family():
    mats = [3.0 * np.eye(3)]
    vecs = [np.ones(3)]
    for r in range(3):
        Ak = np.zeros((3, 3))
        Ak[r] = 0.2
        bk = np.zeros(3)
        bk[r] = 0.3
        mats.append(Ak)
        vecs.append(bk)
    return ParametricSystem(mats, vecs, IntervalVector([1.0] + [-1.0] * 3,
                                                       [1.0] + [1.0] * 3))


def _verdict(cls_name):
    def capped(reports):
        return {r.matrix_class: r.verdict for r in reports}[cls_name] == "unknown"
    return capped


# name -> (realizations the call evaluates, call(cap), test that a result reports
# the cap; None where a capped call raises CapExceeded instead)
CAPPED_ENTRY_POINTS = {
    "intervals.vertex_chunks": (
        1 << 5, lambda cap: list(vertex_chunks(np.zeros(5), np.ones(5), cap)), None),
    "kernel.sign_vector_norm": (
        1 << 5, lambda cap: kernel.sign_vector_norm(np.arange(18.0).reshape(3, 6),
                                                    cap_evals=cap), None),
    "kernel.matrix_norm inf1": (
        1 << 4, lambda cap: kernel.matrix_norm(np.eye(5), "inf1", cap_evals=cap), None),
    "kernel.regularity_radius": (
        1 << 3, lambda cap: kernel.regularity_radius(_M4.mid, cap_evals=cap), None),
    "ranges.norm_range inf1": (
        1 << 3, lambda cap: ranges.norm_range(_NONNEG, "inf1", cap_evals=cap), None),
    "ranges.rr_range": (
        1 << 3, lambda cap: ranges.rr_range(_TP4, cap_evals=cap), None),
    "ranges.inverse_bounds": (
        1 << 4, lambda cap: ranges.inverse_bounds(_INV_M, cap_evals=cap), None),
    "ranges.det_range": (
        1 << 4, lambda cap: ranges.det_range(_SIGN_STABLE, cap_evals=cap),
        lambda res: res.strategy == "sign-stable-midpoint-certified"),
    "classify.is_inverse_m_interval": (
        1 << 4, lambda cap: classify.is_inverse_m_interval(_INV_M, cap_evals=cap), None),
    "classify.conjecture_check_inverse_m": (
        1 << 4, lambda cap: classify.conjecture_check_inverse_m(_INV_M, cap_evals=cap),
        None),
    "classify.classify_all": (
        1 << 4, lambda cap: classify.classify_all(_INV_M, cap_evals=cap),
        _verdict("InverseM")),
    "classify.is_positive_definite_sufficient": (
        1 << 3, lambda cap: classify.is_positive_definite_sufficient(_SYM_M_NOT_H,
                                                                      cap_evals=cap),
        None),
    # 2^(n-1) sign vertices, each with 2^n - 1 principal minors
    "classify.is_p_matrix_special": (
        2 * 3, lambda cap: [classify.is_p_matrix_special(_P_SIGN, cap_evals=cap)],
        _verdict("PMatrixSpecialCase")),
    "linsolve.hull_bounds_inverse_m": (
        1 << 4, lambda cap: linsolve.hull_bounds_inverse_m(
            IntervalLinearSystem(_INV_M, IntervalVector([1.0, 1.0], [2.0, 2.0])),
            cap_evals=cap), None),
    "parametric.is_pd_parametric": (
        1 << 3, lambda cap: parametric.is_pd_parametric(
            ParametricSystem([np.eye(2)] * 4, [np.zeros(2)] * 4,
                             IntervalVector([1.0] * 4, [1.0] + [2.0] * 3)),
            cap_evals=cap), None),
    "parametric.hull_rank_one": (
        1 << 3, lambda cap: parametric.hull_rank_one(_rank_one_family(), cap_evals=cap),
        None),
    "parametric.hull_orthant_lp": (
        1 << 3, lambda cap: parametric.hull_orthant_lp(_single_equation_family(),
                                                       cap_evals=cap), None),
    "oracle.det_range": (
        1 << 4, lambda cap: oracle.det_range(_INV_M, oracle.OracleConfig(vertex_cap=cap)),
        None),
    "oracle.solution_hull": (
        1 << 6, lambda cap: oracle.solution_hull(
            _INV_M, IntervalVector([1.0, 1.0], [2.0, 2.0]),
            oracle.OracleConfig(vertex_cap=cap)), None),
    "oracle.range_sampling": (
        1 << 4, lambda cap: oracle.range_sampling(
            np.linalg.det, _INV_M, oracle.OracleConfig(vertex_cap=cap, samples=5)),
        None),
    "oracle.find_singular_member": (
        1 << 4, lambda cap: oracle.find_singular_member(
            _INV_M, oracle.OracleConfig(vertex_cap=cap)), None),
}


@pytest.mark.parametrize("name", sorted(CAPPED_ENTRY_POINTS))
def test_cap_counts_realizations(name):
    """A cap equal to the realization count suffices; one less is refused."""
    count, call, capped = CAPPED_ENTRY_POINTS[name]
    result = call(count)
    if capped is None:
        with pytest.raises(CapExceeded):
            call(count - 1)
    else:
        assert not capped(result) and capped(call(count - 1))


# -- one recognition per top-level call ------------------------------------

# every recognition test that answers with a ClassReport
RECOGNITION_TESTS = sorted(
    name for name, f in vars(classify).items()
    if name.startswith("is_") and callable(f)
    and f.__annotations__.get("return") == "ClassReport")
# is_m_matrix_real may meet the lower endpoint, the comparison matrix and the
# midpoint; is_totally_positive_real the two checkerboard vertices
RUN_LIMITS = {"is_m_matrix_real": 3, "is_totally_positive_real": 2}

_ONCE_RNG = np.random.default_rng(20240601)
ONCE_INSTANCES = {
    name: make(_ONCE_RNG, 3) for name, make in (
        ("m", conftest.make_m_instance), ("h", conftest.make_h_instance),
        ("tp", make_tp_instance), ("invnonneg", conftest.make_inverse_nonneg_instance),
        ("inversem", conftest.make_inverse_m_instance),
        ("diagpsd", conftest.make_diag_psd_instance), ("b", conftest.make_b_instance),
        ("stable", make_sign_stable_instance))}
ONCE_INSTANCES["nonneg-sym"] = conftest.make_nonneg_instance(_ONCE_RNG, 3, symmetric=True)
# symmetric, positive definite M-matrix midpoint, not an H-matrix: reaches the
# singular-member search and the PD witness
ONCE_INSTANCES["m-mid-not-h"] = IntervalMatrix.from_midrad(
    1.45 * np.eye(3) - 0.45, 0.2 * (1.0 - np.eye(3)))
ONCE_RHS = {case: make_rhs(_ONCE_RNG, 3, case) for case in ("nonneg", "nonpos", "mixed")}

TOP_LEVEL_CALLS = {
    "classify_all": classify.classify_all,
    "det_range": ranges.det_range,
    "eig_ranges": ranges.eig_ranges,
    "sigma_min_range": ranges.sigma_min_range,
    "rr_range": ranges.rr_range,
    "nonneg_ranges": ranges.nonneg_ranges,
    "inverse_bounds": ranges.inverse_bounds,
    **{f"solve_hull {case}": (lambda A, b=b: linsolve.solve_hull(IntervalLinearSystem(A, b)))
       for case, b in ONCE_RHS.items()},
}


def test_recognition_tests_are_all_spied_on():
    assert {"is_m_matrix_real", "is_m_matrix_interval", "is_h_matrix_interval",
            "is_inverse_nonnegative_interval", "is_totally_positive_real",
            "is_totally_positive_interval", "is_b_matrix_interval",
            "is_inverse_m_interval", "is_p_matrix_special",
            "is_positive_definite_sufficient", "is_regular_via_h"} <= set(RECOGNITION_TESTS)


@pytest.mark.parametrize("call", sorted(TOP_LEVEL_CALLS))
def test_each_recognition_runs_at_most_once_per_call(call, monkeypatch):
    counts = Counter()

    def spy(module, name):
        f = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in RECOGNITION_TESTS:
        spy(classify, name)
    spy(oracle, "find_singular_member")
    reached_search = False
    for instance, A in ONCE_INSTANCES.items():
        counts.clear()
        try:
            TOP_LEVEL_CALLS[call](A)
        except IvmatError:
            pass
        over = {name: k for name, k in counts.items() if k > RUN_LIMITS.get(name, 1)}
        assert not over, f"{call} on {instance}: {over}"
        reached_search |= counts["find_singular_member"] > 0
    if call == "classify_all":
        assert reached_search


_NEAR_SYMMETRIC_MID = np.array([[2.0, -1.0], [-1.0 + 5e-11, 2.0]])


def _refused_as_symmetric(A):
    # one symmetry predicate: a 5e-11 asymmetry is 2.5e-11 of the midpoint's
    # magnitude, above SYMMETRY_RTOL, for the family test and as_symmetric alike
    assert not classify.is_symmetric_family(A)
    assert not classify.has_symmetric_midpoint(A)
    with pytest.raises(ValueError, match="midpoint is not symmetric"):
        as_symmetric(A)


def test_near_symmetric_diagonal_box_is_refused_by_both_symmetry_tests():
    A = IntervalMatrix.from_midrad(_NEAR_SYMMETRIC_MID, np.diag([0.1, 0.1]))
    assert classify.is_diagonally_interval(A)
    _refused_as_symmetric(A)
    # not a symmetric family and not totally positive: no theorem applies
    with pytest.raises(NoApplicableTheorem, match="diagonally interval symmetric family"):
        ranges.eig_ranges(A)


def test_near_symmetric_box_gets_no_pd_report():
    A = IntervalMatrix.from_midrad(_NEAR_SYMMETRIC_MID, np.full((2, 2), 0.1))
    _refused_as_symmetric(A)
    reports = {r.matrix_class: r for r in classify.classify_all(A)}
    assert "PositiveDefiniteSufficient" not in reports
    assert reports["SymmetricMidpoint"].is_no
    assert reports["M"].is_yes and reports["H"].is_yes


def test_classify_all_on_a_non_square_box_raises_the_m_test_error():
    A = IntervalMatrix(np.zeros((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="M-matrix test requires a square matrix"):
        classify.classify_all(A)


_EMPTY = IntervalMatrix(np.zeros((0, 0)), np.zeros((0, 0)))
_EMPTY_SYSTEM = IntervalLinearSystem(_EMPTY, IntervalVector(np.zeros(0), np.zeros(0)))


@pytest.mark.parametrize("call", [
    lambda: ranges.det_range(_EMPTY),
    lambda: ranges.sigma_min_range(_EMPTY),
    lambda: ranges.inverse_bounds(_EMPTY),
    lambda: ranges.rr_range(_EMPTY),
    lambda: ranges.eig_ranges(_EMPTY),
    lambda: classify.classify_all(_EMPTY),
    lambda: linsolve.solve_hull(_EMPTY_SYSTEM),
    lambda: linsolve.interval_gauss_elim(_EMPTY_SYSTEM),
    lambda: linsolve.interval_lu(_EMPTY),
    lambda: linsolve.hull_hbrnk(_EMPTY_SYSTEM),
], ids=["det_range", "sigma_min_range", "inverse_bounds", "rr_range", "eig_ranges",
        "classify_all", "solve_hull", "interval_gauss_elim", "interval_lu", "hull_hbrnk"])
def test_empty_matrix_is_refused_by_name(call):
    with pytest.raises(ValueError, match="empty matrix"):
        call()
