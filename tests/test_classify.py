import itertools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from conftest import (
    make_b_instance,
    make_diag_psd_instance,
    make_h_instance,
    make_inverse_m_instance,
    make_inverse_nonneg_instance,
    make_m_instance,
    make_nonneg_instance,
    make_tp_instance,
)
from ivmat import classify, kernel, oracle
from ivmat.errors import CapExceeded, SingularMatrix
from ivmat.intervals import (
    IntervalMatrix,
    alternating_signs,
    checkerboard_vertices,
    sign_similarity,
    vertex_chunks,
)


def _strict_tol(*arrays):
    """The recognition tests' tolerance: STRICT_RTOL times the largest magnitude."""
    return classify._tol(classify.STRICT_RTOL, *arrays)


# the running 2x2 counterexample: regular, midpoint H, but itself not H
H_COUNTEREXAMPLE = IntervalMatrix([[0.0, 1.0], [-1.0, 10.0]],
                                  [[10.0, 1.0], [-1.0, 10.0]])


class TestMMatrixReal:
    def test_yes_with_certificate(self):
        rep = classify.is_m_matrix_real([[2.0, -1.0], [-1.0, 2.0]])
        assert rep.is_yes
        v = rep.certificate["v"]
        assert np.all(v > 0)
        assert np.allclose(np.array([[2.0, -1.0], [-1.0, 2.0]]) @ v, 1.0)

    def test_singular_is_no(self):
        assert classify.is_m_matrix_real([[1.0, -1.0], [-1.0, 1.0]]).is_no

    def test_positive_offdiagonal_is_no(self):
        rep = classify.is_m_matrix_real([[1.0, 2.0], [0.0, 1.0]])
        assert rep.is_no
        assert rep.certificate["entry"] == (0, 1)


class TestMMatrixInterval:
    def test_spec_examples(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
        assert classify.is_m_matrix_interval(A).is_yes
        assert classify.is_m_matrix_interval(H_COUNTEREXAMPLE).is_no
        assert classify.is_m_matrix_interval(IntervalMatrix.point(np.eye(2))).is_yes

    def test_no_witness_violates(self):
        rep = classify.is_m_matrix_interval(H_COUNTEREXAMPLE)
        witness = rep.certificate["witness"]
        assert H_COUNTEREXAMPLE.contains_point(witness, tol=1e-12)
        assert classify.is_m_matrix_real(witness).is_no


class TestHMatrixInterval:
    def test_spec_examples(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[3, 1], [1, 3]])
        assert classify.is_h_matrix_interval(A).is_yes
        assert classify.is_h_matrix_interval(H_COUNTEREXAMPLE).is_no
        B = IntervalMatrix([[1, -1], [-1, 1]], [[3, 0], [0, 3]])
        assert classify.is_h_matrix_interval(B).is_no  # comparison matrix singular

    def test_no_witness_is_member_and_not_h(self):
        rep = classify.is_h_matrix_interval(H_COUNTEREXAMPLE)
        witness = rep.certificate["witness"]
        assert H_COUNTEREXAMPLE.contains_point(witness, tol=1e-12)
        comp = -np.abs(witness)
        np.fill_diagonal(comp, np.abs(np.diag(witness)))
        assert classify.is_m_matrix_real(comp).is_no

    def test_m_implies_h(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            A = make_m_instance(rng, 3)
            assert classify.is_h_matrix_interval(A).is_yes


class TestInverseNonnegative:
    def test_spec_examples(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
        assert classify.is_inverse_nonnegative_interval(A).is_yes
        assert classify.is_inverse_nonnegative_interval(
            IntervalMatrix.point([[1.0, 2.0], [3.0, 4.0]])).is_no
        assert classify.is_inverse_nonnegative_interval(
            IntervalMatrix.point(np.eye(2))).is_yes

    def test_certificate_inverses(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
        cert = classify.is_inverse_nonnegative_interval(A).certificate
        assert np.allclose(cert["inverse_lower_endpoint"],
                           np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
        assert np.allclose(cert["inverse_upper_endpoint"], np.eye(2) / 3.0)


class TestTotallyPositive:
    def test_real_spec_examples(self):
        assert classify.is_totally_positive_real([[1.0, 0.2], [0.2, 1.0]]).is_yes
        assert classify.is_totally_positive_real(np.eye(2)).is_no
        assert classify.is_totally_positive_real([[1.0, 2.0], [2.0, 1.0]]).is_no

    def test_real_agrees_with_exhaustive_minors(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            a = rng.uniform(0.05, 1.5, (3, 3))
            fekete = classify.is_totally_positive_real(a).is_yes
            exhaustive, _ = oracle.minors_positive(a)
            assert fekete == exhaustive

    def test_interval_spec_examples(self):
        A = IntervalMatrix([[0.9, 0.1], [0.1, 0.9]], [[1.1, 0.2], [0.2, 1.1]])
        assert classify.is_totally_positive_interval(A).is_yes
        assert classify.is_totally_positive_interval(
            IntervalMatrix.point(np.eye(2))).is_no
        B = IntervalMatrix([[1.0, 0.5], [0.5, 1.0]], [[1.0, 2.0], [2.0, 1.0]])
        rep = classify.is_totally_positive_interval(B)
        assert rep.is_no  # lower checkerboard vertex [[1,2],[2,1]] has det < 0

    def test_tp_makes_sign_similarity_inverse_nonneg(self):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            for _ in range(10):
                A = make_tp_instance(rng, n)
                flipped = sign_similarity(A, alternating_signs(n))
                assert classify.is_inverse_nonnegative_interval(flipped).is_yes


class TestBMatrix:
    def test_spec_examples(self):
        A = IntervalMatrix([[2, 0], [0, 2]], [[3, 1], [1, 3]])
        assert classify.is_b_matrix_interval(A).is_yes
        B = IntervalMatrix([[2, 2], [0, 2]], [[3, 3], [1, 3]])
        assert classify.is_b_matrix_interval(B).is_no
        # identity satisfies both endpoint conditions at n=2
        assert classify.is_b_matrix_interval(IntervalMatrix.point(np.eye(2))).is_yes

    def test_b_implies_p_on_vertices(self):
        rng = np.random.default_rng(24)
        for n in (2, 3, 4):
            for _ in range(5):
                A = make_b_instance(rng, n)
                for _ in range(20):
                    member = A.lo + (A.hi - A.lo) * rng.random((n, n))
                    _, principal = oracle.minors_positive(member)
                    assert principal


class TestStructureFlags:
    def test_spec_examples(self):
        A = IntervalMatrix([[0, 1], [1, 0]], [[1, 2], [2, 1]])
        assert classify.classify_structure(A) == {
            "Nonnegative", "MidpointNonnegative", "SymmetricMidpoint"}
        B = IntervalMatrix([[-1.0]], [[3.0]])
        assert classify.classify_structure(B) == {
            "MidpointNonnegative", "DiagonallyInterval", "SymmetricMidpoint"}
        C = IntervalMatrix.from_midrad([[2.0, 1.0], [1.0, 2.0]],
                                       np.diag([0.5, 0.5]))
        assert classify.classify_structure(C) == {
            "Nonnegative", "MidpointNonnegative", "DiagonallyInterval",
            "SymmetricMidpoint"}


class TestInverseM:
    def test_spec_examples(self):
        P = IntervalMatrix.point(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
        assert classify.is_inverse_m_interval(P).is_yes
        A = IntervalMatrix.from_midrad(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0,
                                       np.full((2, 2), 0.02))
        assert classify.is_inverse_m_interval(A).is_yes
        rep = classify.is_inverse_m_interval(
            IntervalMatrix.point([[1.0, -1.0], [0.0, 1.0]]))
        assert rep.is_no
        assert rep.certificate["entry"] == (0, 1)

    def test_cap(self):
        A = IntervalMatrix.from_midrad(np.eye(4) + 0.5, np.full((4, 4), 0.01))
        with pytest.raises(CapExceeded):
            classify.is_inverse_m_interval(A, cap_evals=8)

    def test_no_witness_violates(self):
        A = IntervalMatrix.from_midrad(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0,
                                       np.full((2, 2), 0.3))
        rep = classify.is_inverse_m_interval(A)
        if rep.is_no:
            w = rep.certificate["witness"]
            assert A.contains_point(w, tol=1e-12)
            inv = np.linalg.inv(w)
            off = inv - np.diag(np.diag(inv))
            assert np.any(off > 0) or np.any(w @ np.ones(2) <= 0)


class TestConjectureProbe:
    def test_point_matrix_consistent(self):
        P = IntervalMatrix.point(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
        probe = classify.conjecture_check_inverse_m(P)
        assert probe.consistent

    def test_small_radius_consistent(self):
        A = IntervalMatrix.from_midrad(np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0,
                                       np.full((2, 2), 0.02))
        probe = classify.conjecture_check_inverse_m(A)
        assert probe.consistent
        assert probe.reduced_verdict == "yes"
        assert probe.exhaustive_verdict == "yes"

    def test_boundary_families_consistent(self):
        # bisect the radius scale to the edge of the class, then probe a
        # cluster straddling it; a lax reduced criterion would show up here
        rng = np.random.default_rng(70)
        checked = 0
        for trial in range(30):
            n = 2 if trial % 3 else 3
            base = make_m_instance(rng, n)
            mid = kernel.inverse(base.lo)
            direction = rng.uniform(0.2, 1.0, (n, n))
            t_lo, t_hi = 0.0, 2.0 * float(np.min(np.abs(mid)))
            for _ in range(40):
                t = 0.5 * (t_lo + t_hi)
                A = IntervalMatrix.from_midrad(mid, t * direction)
                if np.all(A.lo >= 0) and classify.is_inverse_m_interval(A).is_yes:
                    t_lo = t
                else:
                    t_hi = t
            for f in (0.999, 1.0, 1.001, 1.05):
                t = t_lo * f
                if np.any(mid - t * direction < 0):
                    continue
                A = IntervalMatrix.from_midrad(mid, t * direction)
                probe = classify.conjecture_check_inverse_m(A)
                checked += 1
                assert probe.consistent, (probe.reduced_verdict,
                                          probe.exhaustive_verdict)
        assert checked > 50


class TestPMatrixSpecial:
    def test_h_path(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
        rep = classify.is_p_matrix_special(A)
        assert rep.is_yes
        assert "H-matrix" in rep.certificate["path"]

    def test_diagonal_radius_path(self):
        A = IntervalMatrix([[0.5, 0.2], [0.2, 0.5]], [[1.5, 0.2], [0.2, 1.5]])
        rep = classify.is_p_matrix_special(A)
        assert rep.is_yes
        assert "lower-endpoint" in rep.certificate["path"]

    def test_counterexample_matrix_is_no(self):
        rep = classify.is_p_matrix_special(H_COUNTEREXAMPLE)
        assert rep.is_no
        # radius is diagonal here, so the lower-endpoint reduction applies;
        # the z-loop gives the same verdict on the same singular realization
        assert np.allclose(rep.certificate["witness"],
                           [[0.0, 1.0], [-1.0, 10.0]])

    def test_sign_vertex_path(self):
        # dense radius, midpoint not an M-matrix: falls to the z-loop
        A = IntervalMatrix.from_midrad(np.array([[2.0, 0.5], [0.5, 2.0]]),
                                       np.full((2, 2), 0.1))
        rep = classify.is_p_matrix_special(A)
        assert rep.is_yes
        assert rep.certificate["path"] == "sign-vertex enumeration"

    def test_cap_gives_unknown(self):
        A = IntervalMatrix.from_midrad(np.eye(3) * 2 + 0.5, np.full((3, 3), 0.01))
        rep = classify.is_p_matrix_special(A, cap_evals=2)
        assert rep.verdict == "unknown"


class TestPositiveDefiniteSufficient:
    def test_spec_examples(self):
        A = IntervalMatrix([[2, -0.5], [-0.5, 2]], [[3, 0.5], [0.5, 3]])
        assert classify.is_positive_definite_sufficient(A).is_yes
        B = IntervalMatrix([[1, -1], [-1, 1]], [[3, 0], [0, 3]])
        rep = classify.is_positive_definite_sufficient(B)
        assert rep.is_no
        witness = rep.certificate["witness"]
        assert B.contains_point(witness, tol=1e-12)
        assert kernel.sym_eigenvalues(witness)[-1] <= 1e-10
        P = IntervalMatrix.point([[2.0, 1.0], [1.0, 2.0]])
        assert classify.is_positive_definite_sufficient(P).is_yes

    def test_unknown_branch(self):
        # not an H-matrix and midpoint not an M-matrix: undecided
        A = IntervalMatrix.from_midrad(np.array([[1.0, 0.9], [0.9, 1.0]]),
                                       np.full((2, 2), 0.5))
        assert classify.is_positive_definite_sufficient(A).verdict == "unknown"


class TestRegularViaH:
    def test_spec_examples(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
        assert classify.is_regular_via_h(A).is_yes
        B = IntervalMatrix([[1, -1], [-1, 1]], [[3, 0], [0, 3]])
        rep = classify.is_regular_via_h(B)
        assert rep.is_no
        witness = rep.certificate["witness"]
        assert B.contains_point(witness, tol=1e-9)
        assert abs(kernel.det(witness)) < 1e-9
        assert classify.is_regular_via_h(H_COUNTEREXAMPLE).verdict == "unknown"


class TestMonotonicity:
    """Shrinking radii never flips yes to no (subset property)."""

    @pytest.mark.parametrize("maker,test", [
        (make_m_instance, classify.is_m_matrix_interval),
        (make_h_instance, classify.is_h_matrix_interval),
        (make_inverse_nonneg_instance, classify.is_inverse_nonnegative_interval),
        (make_tp_instance, classify.is_totally_positive_interval),
        (make_b_instance, classify.is_b_matrix_interval),
        (make_inverse_m_instance, classify.is_inverse_m_interval),
    ])
    def test_shrink_keeps_yes(self, maker, test):
        rng = np.random.default_rng(25)
        for _ in range(5):
            A = maker(rng, 3)
            assert test(A).is_yes
            for factor in (0.5, 0.1, 0.0):
                shrunk = IntervalMatrix.from_midrad(A.mid, factor * A.rad)
                assert test(shrunk).is_yes


class TestSoundnessSampling:
    """Yes-verdicts hold on sampled members; no-verdict witnesses violate."""

    def test_m_members(self):
        rng = np.random.default_rng(26)
        A = make_m_instance(rng, 3)
        for member in oracle.sample_members(A, 50, rng):
            assert classify.is_m_matrix_real(member).is_yes

    def test_h_members(self):
        rng = np.random.default_rng(27)
        A = make_h_instance(rng, 3)
        for member in oracle.sample_members(A, 50, rng):
            comp = -np.abs(member)
            np.fill_diagonal(comp, np.abs(np.diag(member)))
            assert classify.is_m_matrix_real(comp).is_yes

    def test_tp_members(self):
        rng = np.random.default_rng(28)
        A = make_tp_instance(rng, 3)
        for member in oracle.sample_members(A, 50, rng):
            all_pos, _ = oracle.minors_positive(member)
            assert all_pos

    def test_inverse_nonneg_members(self):
        rng = np.random.default_rng(29)
        A = make_inverse_nonneg_instance(rng, 3)
        for member in oracle.sample_members(A, 50, rng):
            assert np.all(np.linalg.inv(member) >= -1e-10)


# -- pivot recognition tests against minor-by-minor references --------------

_MARGIN = 1e-9  # a reference minor within _MARGIN max|a|^k of zero is a tie


def _minor_signs(a, stacks):
    """Per matrix of ``a`` (..., n, n): whether every minor in ``stacks`` (the
    k x k submatrices for k = 1, 2, ..., stacked) is farther than the margin
    from zero, and whether every one is positive."""
    scale = np.max(np.abs(a), axis=(-2, -1), initial=0.0)[..., None]
    clear = positive = np.ones(a.shape[:-2], dtype=bool)
    for k, sub in enumerate(stacks, 1):
        with np.errstate(divide="ignore", invalid="ignore"):  # subnormal input: not clear
            minors = np.linalg.det(sub)
        clear = clear & np.all(np.abs(minors) > _MARGIN * scale ** k, axis=-1)
        positive = positive & np.all(minors > 0, axis=-1)
    return clear, positive


def _tp_per_window(a):
    """(clear, totally positive) from every contiguous minor of ``a``."""
    return _minor_signs(a, [sliding_window_view(a, (k, k)).reshape(-1, k, k)
                            for k in range(1, len(a) + 1)])


def _p_per_subset(a):
    """(clear, P-matrix) from every principal minor, per matrix of ``a``."""
    n = a.shape[-1]
    subsets = (np.array(list(itertools.combinations(range(n), k))) for k in range(1, n + 1))
    return _minor_signs(a, [a[..., idx[:, :, None], idx[:, None, :]] for idx in subsets])


def _assert_pivot_certificate(a, rows, cols, pivot, tol, clear):
    """A no certificate re-checks exactly: its pivot is at most ``tol`` and is
    the minor on rows x cols over the positive minor without the last row and
    column, so that minor is nonpositive up to the threshold; where every
    minor clears the margin, it is negative."""
    w = [[Fraction(float(x)) for x in row] for row in a[np.ix_(list(rows), list(cols))]]
    lead, minor = _exact_det([row[:-1] for row in w[:-1]]), _exact_det(w)
    assert pivot <= tol and lead > 0
    assert abs(minor / lead - Fraction(pivot)) <= 1e-8 * max(np.max(np.abs(a)), abs(pivot))
    if clear:
        assert minor < 0


def _check_tp(a):
    """is_totally_positive_real(a), checked against the window reference."""
    a = np.asarray(a, dtype=float)
    rep = classify.is_totally_positive_real(a)
    clear, positive = _tp_per_window(a)
    if clear:
        assert rep.is_yes == positive
    if rep.is_no:
        (r0, r1), (c0, c1) = rep.certificate["rows"], rep.certificate["cols"]
        assert r1 - r0 == c1 - c0 and 0 in (r0, c0)  # an initial minor
        _assert_pivot_certificate(a, range(r0, r1), range(c0, c1), rep.certificate["pivot"],
                                  _strict_tol(a), clear)
    return rep


def _check_p(a):
    """The Schur-complement P test of ``a``, checked against the subset reference."""
    a = np.asarray(a, dtype=float)
    tol = _strict_tol(a)
    found = classify._first_nonpositive_pivot(a[None], tol)
    clear, positive = _p_per_subset(a)
    if clear:
        assert (found is None) == positive
    if found is not None:
        i, subset, pivot = found
        assert i == 0 and list(subset) == sorted(set(subset))
        _assert_pivot_certificate(a, subset, subset, pivot, tol, clear)
    return found


def _b_per_row(A):
    n = A.rows
    tol = _strict_tol(A.lo, A.hi)
    row_lo_sums = A.lo.sum(axis=1)
    for i in range(n):
        if row_lo_sums[i] <= tol:
            witness = A.mid.copy()
            witness[i, :] = A.lo[i, :]
            return classify.ClassReport("BMatrix", "no", {
                "reason": "nonpositive lower row sum",
                "row": i,
                "witness": witness,
            })
        for k in range(n):
            if k == i:
                continue
            lhs = row_lo_sums[i] - A.lo[i, k]
            rhs = (n - 1) * A.hi[i, k]
            if lhs <= rhs + tol:
                witness = A.mid.copy()
                witness[i, :] = A.lo[i, :]
                witness[i, k] = A.hi[i, k]
                return classify.ClassReport("BMatrix", "no", {
                    "reason": "row-mean dominance fails",
                    "row": i,
                    "column": k,
                    "witness": witness,
                })
    return classify.ClassReport("BMatrix", "yes", {"row_lower_sums": row_lo_sums})


def _exact(x):
    """Bit-exact, type-exact image of a certificate value: floats by hex."""
    if isinstance(x, float):
        return ("float", x.hex())
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape,
                tuple(float(v).hex() for v in x.ravel()))
    if isinstance(x, dict):
        return tuple((key, _exact(value)) for key, value in x.items())
    if isinstance(x, tuple):
        return ("tuple",) + tuple(_exact(v) for v in x)
    return (type(x).__name__, x)


def _assert_same_report(got, expected):
    assert (got.matrix_class, got.verdict, got.cost_note) == \
        (expected.matrix_class, expected.verdict, expected.cost_note)
    assert _exact(got.certificate) == _exact(expected.certificate)


def _kernel_matrices(pools):
    """Real test matrices: pool endpoints, midpoints and checkerboard vertices,
    random matrices at n = 1..12, zero and 1x1 matrices, and TP kernel
    matrices exp(x_i y_j) with increasing nodes, where every pivot passes."""
    for pool in pools.values():
        for A in pool:
            yield from (A.lo, A.hi, A.mid)
            yield from checkerboard_vertices(A)
    rng = np.random.default_rng(60)
    for n in range(1, 13):
        for _ in range(4):
            yield rng.uniform(-0.3, 1.5, (n, n))
            yield rng.uniform(0.5, 1.5, (n, n))
    for n in (0, 1, 2, 5):
        yield np.zeros((n, n))
    yield from (np.array([[x]]) for x in (2.0, 1e-11, -1.0, 0.0))
    # a pivot equal to the threshold: 1e-10 * 1e10 == 1.0, the first entry
    yield np.array([[1.0, 1e10], [1e10, 3.0]])
    for a in _tp_kernel_matrices():
        # lowering the corner entry until the full determinant turns negative
        # leaves every smaller window positive: the failure comes last
        b = a.copy()
        b[-1, -1] -= 1.01 * np.linalg.det(a) / np.linalg.det(a[:-1, :-1])
        yield from (a, b)


def _tp_kernel_matrices():
    """exp(0.3 x_i y_j) with increasing nodes x, y at n = 5..8: totally
    positive, so every pivot is evaluated."""
    rng = np.random.default_rng(63)
    for n in range(5, 9):
        x = np.arange(n) + np.sort(rng.uniform(0.0, 0.5, n))
        y = np.arange(n) + np.sort(rng.uniform(0.0, 0.5, n))
        yield np.exp(0.3 * np.outer(x, y))


def _interval_boxes(pools):
    rng = np.random.default_rng(61)
    for pool in pools.values():
        yield from pool
    for n in range(1, 13):
        for _ in range(4):
            lo = rng.uniform(-0.3, 1.0, (n, n)) + np.diag(rng.uniform(0.0, 2.0 * n, n))
            yield IntervalMatrix(lo, lo + rng.uniform(0.0, 0.3, (n, n)))
    for n in (0, 1, 2, 5):
        yield IntervalMatrix.point(np.zeros((n, n)))
    yield IntervalMatrix([[1.0]], [[2.0]])
    # ties at the tolerance 1e-10: a row sum, then a dominance inequality
    yield IntervalMatrix.point([[1e-10]])
    lo = np.array([[0.5 + 1e-10, 0.0], [0.0, 1.0]])
    yield IntervalMatrix(lo, [[1.0, 0.5], [0.0, 1.0]])


_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestStackedKernelsMatchReference:
    """Pivot verdicts equal the minor-by-minor verdicts wherever every minor
    clears the margin, and every no certificate re-checks."""

    def test_total_positivity(self, class_pools):
        outcomes = set()
        for a in _kernel_matrices(class_pools):
            rep = _check_tp(a)
            rows = rep.certificate.get("rows")
            outcomes.add("yes" if rows is None else rows[1] - rows[0])
        # yes verdicts and failing windows of size 1, 2 and larger all occur
        assert {"yes", 1, 2} <= outcomes and max(outcomes - {"yes"}) > 2

    def test_kernel_matrices_pass_every_window(self):
        for a in _tp_kernel_matrices():
            assert classify.is_totally_positive_real(a).is_yes

    def test_principal_minors(self, class_pools):
        outcomes = set()
        for a in _kernel_matrices(class_pools):
            found = _check_p(a)
            outcomes.add("yes" if found is None else len(found[1]))
        assert {"yes", 1} <= outcomes and max(outcomes - {"yes"}) > 1

    def test_b_matrix(self, class_pools):
        reasons = set()
        for A in _interval_boxes(class_pools):
            expected = _b_per_row(A)
            _assert_same_report(classify.is_b_matrix_interval(A), expected)
            reasons.add(expected.certificate.get("reason", "yes"))
        assert reasons == {"yes", "nonpositive lower row sum", "row-mean dominance fails"}

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
               hnp.arrays(np.float64, (n, n), elements=_unit),
               hnp.arrays(np.float64, (n, n), elements=_unit))),
           st.integers(-12, 12))
    @settings(max_examples=150, deadline=None)
    def test_scaled_finite_matrices(self, pair, exp):
        a, b = (m * 10.0 ** exp for m in pair)
        _check_tp(a)
        _check_p(a)
        A = IntervalMatrix(np.minimum(a, b), np.maximum(a, b))
        _assert_same_report(classify.is_b_matrix_interval(A), _b_per_row(A))


def _p_sign_vertex_reference(A):
    """The sign-vertex P test by principal minors: (clear, sign vector,
    vertex) of the first vertex with a negative principal minor, or (clear,
    None, None); clear when every minor of the vertices up to that one clears
    the margin."""
    n = A.rows
    hi = np.ones(n)
    hi[:1] = -1.0
    clear = True
    for chunk in vertex_chunks(-np.ones(n), hi):
        vertices = A.mid - chunk[:, :, None] * chunk[:, None, :] * A.rad
        ok, positive = _p_per_subset(vertices)
        if not positive.all():
            i = int(positive.argmin())
            return clear and bool(ok[:i + 1].all()), -chunk[i], vertices[i]
        clear = clear and bool(ok.all())
    return clear, None, None


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _sign_vertex_boxes():
    """Dense-radius boxes whose midpoint is not an M-matrix, n = 2..7: some
    pass, and the rest fail at vertices and subsets of every position."""
    rng = np.random.default_rng(63)
    for _ in range(120):
        n = int(rng.integers(2, 8))
        mid = rng.uniform(-1.0, 1.0, (n, n)) + np.diag(
            rng.uniform(0.5, 3.0, n) * rng.choice([1.0, 1.0, 1.0, -1.0], n))
        rad = rng.uniform(0.0, 0.4, (n, n)) * (rng.random((n, n)) < 0.7)
        yield IntervalMatrix.from_midrad(mid, rad)


class TestStackedSignVertexP:
    def test_matches_per_vertex_reference(self):
        seen = set()
        for A in _sign_vertex_boxes():
            rep = classify.is_p_matrix_special(A)
            if rep.certificate.get("path") != "sign-vertex enumeration":
                continue
            clear, z, vertex = _p_sign_vertex_reference(A)
            if rep.is_no:
                cert = rep.certificate
                subset = cert["principal_subset"]
                _assert_pivot_certificate(cert["witness"], subset, subset, cert["pivot"],
                                          _strict_tol(A.lo, A.hi), clear)
            if not clear:
                continue
            if z is None:
                assert rep.is_yes
                seen.add("yes")
                continue
            assert rep.is_no
            assert _same_bits(rep.certificate["sign_vector"], z)
            assert _same_bits(rep.certificate["witness"], vertex)
            seen.add((len(subset), bool(z[1:].any() and (z[1:] < 0).any())))
        # yes verdicts, and failures at later vertices and larger subsets
        assert "yes" in seen and any(k > 1 for k, _ in seen - {"yes"})
        assert any(later for _, later in seen - {"yes"})

    def test_stacked_determinant_calls(self, monkeypatch):
        # an H box with a positive diagonal at n = 8: 128 sign vertices, all
        # P, decided by pivots without a determinant
        A = make_h_instance(np.random.default_rng(64), 8, mixed_diag_signs=False)
        calls = TestStackedKernelCost._count_dets(monkeypatch)
        rep = classify.is_p_matrix_special(A)
        assert rep.is_yes and rep.certificate["path"] == "sign-vertex enumeration"
        assert calls == []

    def test_memory_stays_bounded(self):
        # 512 sign vertices at n = 10, every one P: the stack is sliced so that
        # a slice's levels hold at most _STACK_BUDGET entries
        A = make_h_instance(np.random.default_rng(64), 10, mixed_diag_signs=False)
        tracemalloc.start()
        try:
            rep = classify.is_p_matrix_special(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.is_yes and rep.certificate["path"] == "sign-vertex enumeration"
        assert peak < 1.5 * 2**20

    def test_cap_still_gives_unknown(self):
        A = next(A for A in _sign_vertex_boxes() if A.rows == 7)
        rep = classify.is_p_matrix_special(A, cap_evals=(1 << 6) * ((1 << 7) - 1) - 1)
        assert rep.verdict == "unknown"

    def test_one_matrix_memory_stays_bounded(self):
        # one SPD matrix at n = 20: the levels of its tree of 2^20 - 1 pivots
        # hold 96 times _STACK_BUDGET entries, so the tree is searched depth first
        x = np.random.default_rng(65).standard_normal((20, 20))
        A = IntervalMatrix.point(x @ x.T + 20.0 * np.eye(20))
        tracemalloc.start()
        try:
            rep = classify.is_p_matrix_special(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.is_yes and rep.certificate["path"].startswith("lower-endpoint reduction")
        assert peak < 2**20

    @pytest.mark.parametrize("budget", [7, 60, 1 << 10])
    def test_splitting_changes_no_certificate(self, monkeypatch, budget):
        # the failure of least (matrix, level, node), whatever the budget
        rng = np.random.default_rng(66)
        stacks = []
        for _ in range(150):
            n = int(rng.integers(1, 7))
            base = 0.3 * rng.standard_normal((n, n)) + rng.uniform(0.5, 3.0) * np.eye(n)
            stacks.append(base + rng.uniform(0.0, 0.6) * rng.standard_normal((12, n, n)))
        ref = [classify._first_nonpositive_pivot(stack, 1e-10) for stack in stacks]
        monkeypatch.setattr(classify, "_STACK_BUDGET", budget)
        assert [classify._first_nonpositive_pivot(stack, 1e-10) for stack in stacks] == ref
        assert any(found is not None and len(found[1]) > 2 for found in ref)


class TestStackedKernelCost:
    @staticmethod
    def _count_dets(monkeypatch):
        calls = []
        det = np.linalg.det

        def counting(a):
            calls.append(np.shape(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counting)
        return calls

    def test_early_failure_at_a_2x2_window(self, monkeypatch):
        # every entry passes, then the first pivot of the second column is 0
        a = np.ones((200, 200))
        calls = self._count_dets(monkeypatch)
        rep = classify.is_totally_positive_real(a)
        assert rep.is_no and rep.certificate["rows"] == (0, 2)
        assert rep.certificate["cols"] == (0, 2) and rep.certificate["pivot"] == 0.0
        assert calls == []

    def test_early_failure_at_an_entry(self, monkeypatch):
        # the first pivots are the first column's entries; row 1's is negative
        A = make_m_instance(np.random.default_rng(62), 200)
        calls = self._count_dets(monkeypatch)
        rep = classify.is_totally_positive_real(A.lo)
        assert rep.is_no and rep.certificate["rows"] == (1, 2)
        assert rep.certificate["cols"] == (0, 1) and rep.certificate["pivot"] == A.lo[1, 0]
        assert calls == []

    def test_memory_stays_bounded(self):
        a = np.ones((200, 200))
        tracemalloc.start()
        try:
            rep = classify.is_totally_positive_real(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.is_no
        assert peak < 8 * 2**20


class TestFirstFailureMatchesArgwhere:
    """Certificates name the first failing entry in row-major order: the entry
    ``np.argwhere(mask)[0]`` names, found without listing every failure."""

    @given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 12), st.integers(1, 12))))
    @settings(max_examples=200, deadline=None)
    def test_first_of_random_masks(self, mask):
        for view in (mask, mask.T, np.asfortranarray(mask), mask[::2, ::-1]):
            if view.any():
                assert classify._first(view) == tuple(np.argwhere(view)[0])

    def test_m_matrix_real_at_n200(self):
        a = make_m_instance(np.random.default_rng(71), 200).lo.copy()
        a[150, 3] = a[7, 190] = a[7, 120] = 0.5
        off = a - np.diag(np.diag(a))
        i, j = np.argwhere(off > _strict_tol(a))[0]
        rep = classify.is_m_matrix_real(a)
        assert rep.is_no and rep.certificate["entry"] == (i, j) == (7, 120)
        assert rep.certificate["value"] == a[i, j]

    def test_m_matrix_interval_at_n200(self):
        A = make_m_instance(np.random.default_rng(72), 200)
        hi = A.hi.copy()
        hi[199, 0] = hi[33, 34] = 0.25
        A = IntervalMatrix(A.lo, hi)
        off = hi - np.diag(np.diag(hi))
        i, j = np.argwhere(off > _strict_tol(A.lo, A.hi))[0]
        rep = classify.is_m_matrix_interval(A)
        assert rep.is_no and rep.certificate["entry"] == (i, j) == (33, 34)
        assert rep.certificate["witness"][i, j] == hi[i, j]

    def test_inverse_nonnegative_at_n200(self):
        A = make_m_instance(np.random.default_rng(73), 200)
        hi = A.hi.copy()
        hi[60, 61] = 5.0
        A = IntervalMatrix(A.lo, hi)
        inv = kernel.inverse(hi)
        i, j = np.argwhere(inv < -_strict_tol(inv))[0]
        rep = classify.is_inverse_nonnegative_interval(A)
        assert rep.is_no and rep.certificate["reason"].startswith("upper")
        assert rep.certificate["entry"] == (i, j)
        assert rep.certificate["inverse_entry"] == inv[i, j]

    def test_inverse_m_negative_entry_at_n200(self):
        lo = np.random.default_rng(74).uniform(0.1, 1.0, (200, 200))
        lo[130, 2] = lo[90, 17] = lo[90, 150] = -1.0
        A = IntervalMatrix(lo, lo + 0.5)
        i, j = np.argwhere(lo < -_strict_tol(A.lo, A.hi))[0]
        rep = classify.is_inverse_m_interval(A)
        assert rep.is_no and rep.certificate["entry"] == (i, j) == (90, 17)
        assert rep.certificate["witness"][i, j] == lo[i, j]


# -- inverse nonnegativity: the A x = e probe against the full-inverse test --

def _inverse_nonneg_full(A):
    """The inverse nonnegativity test as it ran before the probe: the full
    inverse of each endpoint, then its first negative entry."""
    inverses = {}
    for name, endpoint in (("lower", A.lo), ("upper", A.hi)):
        try:
            inv = kernel.inverse(endpoint)
        except SingularMatrix:
            return classify.ClassReport("InverseNonnegative", "no", {
                "reason": f"{name} endpoint is singular",
                "witness": endpoint.copy(),
            })
        negative = inv < -_strict_tol(inv)
        if negative.any():
            i, j = np.argwhere(negative)[0]
            return classify.ClassReport("InverseNonnegative", "no", {
                "reason": f"{name} endpoint inverse has a negative entry",
                "entry": (int(i), int(j)),
                "witness": endpoint.copy(),
                "inverse_entry": float(inv[i, j]),
            })
        inverses[name] = inv
    return classify.ClassReport("InverseNonnegative", "yes", {
        "inverse_lower_endpoint": inverses["lower"],
        "inverse_upper_endpoint": inverses["upper"],
    })


def _assert_probe_certificate(rep, A):
    cert = rep.certificate
    name = cert["reason"].split()[0]
    assert cert["reason"].startswith(f"{name} endpoint is not monotone")
    assert _same_bits(cert["witness"], A.lo if name == "lower" else A.hi)
    witness, x = cert["witness"], cert["x"]
    residual = np.abs(witness @ x - 1.0)
    assert np.all(residual <= 1e-12 * np.maximum(1.0, np.abs(witness) @ np.abs(x)))
    assert x[cert["component"]] < 0


def _assert_matches_full_inverse_test(A):
    """Same verdict as the full-inverse test; every certificate but a probe
    decline bit-identical to its. Returns whether the probe declined."""
    rep = classify.is_inverse_nonnegative_interval(A)
    expected = _inverse_nonneg_full(A)
    assert rep.verdict == expected.verdict
    if "not monotone" in rep.certificate.get("reason", ""):
        assert expected.certificate["reason"].split()[0] == rep.certificate["reason"].split()[0]
        _assert_probe_certificate(rep, A)
        return True
    _assert_same_report(rep, expected)
    return False


# Z-pattern boxes of every dominance, some off-diagonal entries flipped
# positive: inverse nonnegative, declined by the probe, or declined only by
# the full inverse
_z_boxes = st.integers(1, 8).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0)),
    hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.5 * n)),
    hnp.arrays(np.bool_, (n, n)),
    hnp.arrays(np.float64, (n, n), elements=st.floats(0.0, 0.3))))


def _m_midpoint_not_h(rng, n):
    """A diagonally dominant Z midpoint with off-diagonal radii twice its
    off-diagonal magnitudes: an M-matrix midpoint in a box that is not H."""
    off = -rng.uniform(0.05, 0.5, (n, n))
    np.fill_diagonal(off, 0.0)
    mid = off + np.diag(np.abs(off).sum(axis=1) * rng.uniform(1.05, 1.3, n))
    return IntervalMatrix.from_midrad(mid, 2.0 * np.abs(off))


def _spy_dgetrs(monkeypatch):
    """Shapes of the right-hand sides of every ``dgetrs`` the kernel calls."""
    lapack = kernel._lapack()
    shapes = []

    def dgetrs(lu, piv, b, *args, **kwargs):
        shapes.append(np.shape(b))
        return lapack.dgetrs(lu, piv, b, *args, **kwargs)

    spy = SimpleNamespace(dgetrf=lapack.dgetrf, dgetrs=dgetrs)
    monkeypatch.setattr(kernel, "_lapack", lambda: spy)
    return shapes


class TestInverseNonnegativeProbe:
    @given(_z_boxes, st.sampled_from([-12, 0, 12]))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_inverse_test(self, box, exp):
        off, diag, flips, rad = box
        lo = np.where(flips, off, -off)
        np.fill_diagonal(lo, diag)
        scale = 10.0 ** exp
        _assert_matches_full_inverse_test(IntervalMatrix(lo * scale, (lo + rad) * scale))

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
               hnp.arrays(np.float64, (n, n), elements=_unit),
               hnp.arrays(np.float64, (n, n), elements=_unit))),
           st.integers(-12, 12))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_inverse_test_on_mixed_boxes(self, pair, exp):
        a, b = (m * 10.0 ** exp for m in pair)
        _assert_matches_full_inverse_test(IntervalMatrix(np.minimum(a, b), np.maximum(a, b)))

    def test_one_by_one_and_degenerate_boxes(self):
        boxes = [IntervalMatrix([[x]], [[y]]) for x, y in
                 ((2.0, 3.0), (-1.0, 2.0), (-3.0, -1.0), (0.0, 1.0), (1e-12, 1e12))]
        boxes += [IntervalMatrix.point(m) for m in
                  (np.eye(3), [[1.0, 2.0], [3.0, 4.0]], [[2.0, -1.0], [-1.0, 2.0]],
                   np.ones((2, 2)), [[1.0, -2.0], [0.0, 1.0]])]
        boxes += list(_interval_boxes({}))[-3:]
        fired = {_assert_matches_full_inverse_test(A) for A in boxes}
        assert fired == {True, False}

    def test_class_pools(self, class_pools):
        for pool in class_pools.values():
            for A in pool:
                _assert_matches_full_inverse_test(A)

    @pytest.mark.parametrize("make", [
        make_h_instance, make_nonneg_instance, make_diag_psd_instance,
        lambda rng, n: IntervalMatrix.from_midrad(rng.uniform(-1.0, 1.0, (n, n)),
                                                  rng.uniform(0.0, 0.1, (n, n))),
        _m_midpoint_not_h,
    ], ids=["h", "nonneg", "diag-psd", "generic", "m-midpoint-not-h"])
    def test_n200_decline_solves_no_identity(self, make, monkeypatch):
        A = make(np.random.default_rng(80), 200)
        shapes = _spy_dgetrs(monkeypatch)
        rep = classify.is_inverse_nonnegative_interval(A)
        assert rep.is_no and shapes == [(200,)]
        _assert_probe_certificate(rep, A)

    def test_yes_solves_probe_then_identity(self, monkeypatch):
        A = make_m_instance(np.random.default_rng(81), 200)
        shapes = _spy_dgetrs(monkeypatch)
        rep = classify.is_inverse_nonnegative_interval(A)
        assert rep.is_yes and shapes == [(200,), (200, 200)] * 2
        _assert_same_report(rep, _inverse_nonneg_full(A))


# -- total positivity: the pivot threshold ------------------------------------

def _tp_boundary_matrices():
    """Positive matrices, and matrices with their smallest entry at the old
    scan's tolerance, one ulp either side of it, and either side of the point
    from which it passed the entries with one comparison."""
    rng = np.random.default_rng(82)
    for n in range(1, 9):
        for _ in range(3):
            a = rng.uniform(0.5, 1.5, (n, n))
            yield a
            tol = _strict_tol(a)
            skip_from = tol * (1 + 1e-12)
            for value in (tol, np.nextafter(tol, np.inf), np.nextafter(tol, 0.0),
                          skip_from, np.nextafter(skip_from, np.inf)):
                b = a.copy()
                b[rng.integers(n), rng.integers(n)] = value
                yield b
    yield from _tp_kernel_matrices()


class TestTotallyPositiveEntryPass:
    def test_matches_per_window_reference(self):
        verdicts = set()
        for a in _tp_boundary_matrices():
            rows = _check_tp(a).certificate.get("rows")
            verdicts.add("yes" if rows is None else rows[1] - rows[0])
        assert {"yes", 1, 2} <= verdicts

    def test_pivot_at_the_threshold_fails(self):
        # the first column's entries are the first pivots: one at the
        # threshold fails, one ulp above it passes
        rng = np.random.default_rng(84)
        for n in range(1, 9):
            a = rng.uniform(0.5, 1.5, (n, n))
            r = int(rng.integers(n))
            a[r, 0] = 0.0
            tol = _strict_tol(a)
            a[r, 0] = tol
            cert = classify.is_totally_positive_real(a).certificate
            assert (cert["rows"], cert["cols"], cert["pivot"]) == ((r, r + 1), (0, 1), tol)
            a[r, 0] = np.nextafter(tol, np.inf)
            cert = classify.is_totally_positive_real(a).certificate
            assert (cert.get("rows"), cert.get("cols")) != ((r, r + 1), (0, 1))

    def test_positive_n200_takes_no_1x1_determinant(self, monkeypatch):
        # nor a determinant of any size: the pivots decide
        a = np.random.default_rng(83).uniform(0.5, 1.5, (200, 200))
        calls = TestStackedKernelCost._count_dets(monkeypatch)
        rep = classify.is_totally_positive_real(a)
        monkeypatch.undo()
        assert rep.is_no and calls == []
        cert = rep.certificate
        _assert_pivot_certificate(a, range(*cert["rows"]), range(*cert["cols"]), cert["pivot"],
                                  _strict_tol(a), clear=True)


# -- pivot verdicts on totally positive and rescaled inputs -------------------

def _exact_det(rows):
    """Determinant of a square list of Fractions, by exact elimination."""
    m = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _exact_windows_positive(a):
    """Every contiguous minor of the float matrix ``a``, exactly, is positive."""
    q = [[Fraction(float(x)) for x in row] for row in a]
    n = len(q)
    return all(_exact_det([row[j:j + k] for row in q[i:i + k]]) > 0
               for k in range(1, n + 1) for i in range(n - k + 1) for j in range(n - k + 1))


def _exact_min_pivot(a):
    """Smallest Neville elimination pivot of ``a`` and of its transpose,
    exactly, for a float matrix ``a`` whose pivots are all positive."""
    pivots = []
    for b in (a, a.T):
        q = [[Fraction(float(x)) for x in row] for row in b]
        for j in range(len(q)):
            pivots += [q[i][j] for i in range(j, len(q))]
            for i in range(len(q) - 1, j, -1):
                f = q[i][j] / q[i - 1][j]
                q[i] = [x - f * y for x, y in zip(q[i], q[i - 1])]
    return min(pivots)


def _gaussian_kernels():
    """(n, exp(-c (x_i - y_j)^2)) with increasing nodes x, y, 20 at each of
    n = 5 and 6: totally positive."""
    rng = np.random.default_rng(3)
    for n in (5, 6):
        for _ in range(20):
            x = np.sort(rng.uniform(0.0, 1.0, n)) + np.arange(n) * rng.uniform(0.4, 0.8)
            y = np.sort(rng.uniform(0.0, 1.0, n)) + np.arange(n) * rng.uniform(0.4, 0.8)
            yield n, np.exp(-rng.uniform(0.5, 1.5) * (x[:, None] - y[None, :]) ** 2)


class TestPivotRegressions:
    @pytest.mark.parametrize("n", [5, 8])
    def test_hilbert_is_totally_positive(self, n):
        # the smallest 4x4 contiguous minor is 9.4e-11, under the threshold
        h = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
        assert _exact_windows_positive(h)
        assert classify.is_totally_positive_real(h).is_yes

    def test_gaussian_kernels(self):
        # every kernel is totally positive, and the verdict is yes exactly
        # when every exact pivot exceeds the threshold, away from ties; the
        # one no has an exact pivot of 1.6e-12 max|a|
        yes = {5: 0, 6: 0}
        for n, g in _gaussian_kernels():
            assert _exact_windows_positive(g)
            tol = _strict_tol(g)
            smallest = _exact_min_pivot(g)
            verdict = classify.is_totally_positive_real(g).is_yes
            yes[n] += verdict
            if abs(smallest - Fraction(tol)) > Fraction(tol) / 1000:
                assert verdict == (smallest > tol)
        assert yes == {5: 20, 6: 19}

    @pytest.mark.parametrize("make, n", [(make_tp_instance, 3), (make_diag_psd_instance, 10)])
    def test_verdicts_do_not_change_at_1e_minus_8(self, make, n):
        A = make(np.random.default_rng(90), n)
        small = IntervalMatrix(A.lo * 1e-8, A.hi * 1e-8)
        for test in (classify.is_totally_positive_interval, classify.is_p_matrix_special):
            assert test(small).verdict == test(A).verdict


# -- power-of-two scaling: pivots scale exactly, so verdicts cannot move ------

_dyadic = st.integers(-16, 16).map(lambda v: v / 8.0)


@st.composite
def _scaling_boxes(draw):
    """(box, k): a dyadic, triangular dyadic (a P-matrix) or Gaussian-kernel
    midpoint, a diagonal or dense radius, and a power-of-two exponent. An
    M-matrix midpoint sends the P test down its H path."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dyadic", "triangular", "kernel"]))
    if kind != "kernel":
        mid = draw(hnp.arrays(np.float64, (n, n), elements=_dyadic))
        if kind == "triangular":
            mid = 4.0 * np.triu(mid, 1) + 2.0 * np.eye(n)
    else:
        steps = st.floats(0.3, 1.0)
        x = np.cumsum(draw(hnp.arrays(np.float64, n, elements=steps)))
        y = np.cumsum(draw(hnp.arrays(np.float64, n, elements=steps)))
        mid = np.exp(-np.subtract.outer(x, y) ** 2)
    rad = draw(hnp.arrays(np.float64, (n, n), elements=st.integers(0, 4).map(lambda v: v / 64.0)))
    if draw(st.booleans()):
        rad = np.diag(np.diag(rad))
    return IntervalMatrix.from_midrad(mid, rad), draw(st.integers(-60, 60))


def _assert_scaled_certificate(got, ref, s):
    """``got`` is the certificate ``ref`` for the input scaled by s: the same
    windows, subsets, sign vectors, paths and reasons, pivots and matrices
    exactly s times as large, and the H test's v = A^-1 e exactly 1/s times."""
    assert got.keys() == ref.keys()
    for key, value in ref.items():
        if key == "pivot":
            assert got[key] == value * s
        elif isinstance(value, dict):
            _assert_scaled_certificate(got[key], value, s)
        elif isinstance(value, np.ndarray):
            factor = {"sign_vector": 1.0, "v": 1.0 / s}.get(key, s)
            assert np.array_equal(got[key], value * factor)
        else:
            assert got[key] == value


def _assert_scaled_report(got, ref, s):
    assert (got.matrix_class, got.verdict, got.cost_note) == \
        (ref.matrix_class, ref.verdict, ref.cost_note)
    _assert_scaled_certificate(got.certificate, ref.certificate, s)


class TestPowerOfTwoScaling:
    @given(_scaling_boxes())
    @settings(max_examples=100, deadline=None)
    def test_pivot_tests_are_equivariant(self, drawn):
        A, k = drawn
        s = 2.0 ** k
        B = IntervalMatrix(A.lo * s, A.hi * s)
        for a in (A.lo, A.hi, A.mid):
            _assert_scaled_report(classify.is_totally_positive_real(a * s),
                                  classify.is_totally_positive_real(a), s)
        _assert_scaled_report(classify.is_totally_positive_interval(B),
                              classify.is_totally_positive_interval(A), s)
        _assert_scaled_report(classify.is_p_matrix_special(B),
                              classify.is_p_matrix_special(A), s)
