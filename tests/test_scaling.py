"""Power-of-two scale equivariance, and the scale regressions it guards.

Multiplying an input by 2^k is exact in binary floating point, and so is
every step of the endpoint formulas and of LAPACK's pivoted LU, as long as
nothing overflows or goes subnormal. So scaling a box by 2^k must leave every
verdict, strategy and exactness label as it is, and scale every value
exactly: determinants by 2^(k n), eigenvalues, singular values, norms and
attaining members by 2^k, inverses by 2^-k. A hull scales by 2^(j - k) when
the right-hand side is scaled by 2^j.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    make_b_instance,
    make_diag_psd_instance,
    make_h_instance,
    make_inverse_m_instance,
    make_inverse_nonneg_instance,
    make_m_instance,
    make_nonneg_instance,
    make_rhs,
    make_sign_stable_instance,
    make_tp_instance,
)
from ivmat import classify, kernel, linsolve, oracle, ranges
from ivmat.errors import CapExceeded, IvmatError
from ivmat.intervals import IntervalMatrix, IntervalVector
from ivmat.linsolve import IntervalLinearSystem
from ivmat.ranges import UpperBound

# -- the reproductions of the scale-dependent verdicts ----------------------


def _inverse_of_m_matrix(n):
    """V = (s I - B)^-1, B uniform on [0, 1]^(n x n) and s = rho(B) + 1: an
    inverse M-matrix, whose own inverse has negative off-diagonal entries."""
    B = np.random.default_rng(0).uniform(0.0, 1.0, (n, n))
    s = np.max(np.abs(np.linalg.eigvals(B))) + 1.0
    return np.linalg.inv(s * np.eye(n) - B)


def test_positive_off_diagonal_entry_at_1e_minus_8_is_no():
    # the floored tolerance, 1e-10, swallowed the 1e-11 entry
    A = np.array([[2.0, -1.0, 1e-3], [-1.0, 2.0, -1.0], [-1.0, -1.0, 3.0]])
    rep = classify.is_m_matrix_interval(IntervalMatrix.point(A * 1e-8))
    assert rep.is_no and rep.certificate["entry"] == (0, 2)


@pytest.mark.parametrize("n", [10, 16, 20])
def test_inverse_of_an_m_matrix_at_2_to_the_40_is_not_inverse_nonnegative(n):
    # its inverse's negative entries, about 2^-40, sat above the floor -1e-10
    V = IntervalMatrix.point(np.ldexp(_inverse_of_m_matrix(n), 40))
    assert classify.is_inverse_nonnegative_interval(V).is_no


@pytest.mark.parametrize("n", [14, 16, 20])
@pytest.mark.parametrize("k", [-60, 0, 60])
def test_inverse_of_an_m_matrix_is_inverse_m_at_every_scale(n, k):
    # the determinant singularity test overflowed at 2^60 and its floor
    # called every vertex singular at 2^-60; the inverse's Z-pattern was
    # compared with a tolerance of the input's scale, not the inverse's
    V = IntervalMatrix.point(np.ldexp(_inverse_of_m_matrix(n), k))
    assert classify.is_inverse_m_interval(V).is_yes


def _m_midpoint_not_h_box(n):
    """A diagonally dominant Z-matrix midpoint with off-diagonal radii of
    twice the midpoint magnitude: an M-matrix midpoint, and no H-matrix."""
    rng = np.random.default_rng(7)
    off = -rng.uniform(0.05, 0.5, (n, n))
    np.fill_diagonal(off, 0.0)
    mid = off + np.diag(np.abs(off).sum(axis=1) * rng.uniform(1.05, 1.3, n))
    return IntervalMatrix.from_midrad(mid, 2.0 * np.abs(off))


def test_m_midpoint_box_at_1e8_declines_as_unscaled():
    # at 1e8 the inverse nonnegativity test passed on its floor, and the
    # closed-form hull came out with lo > hi: a bare ValueError
    A = _m_midpoint_not_h_box(50)
    x = np.random.default_rng(8).uniform(0.1, 1.0, 50)
    for factor in (1.0, 1e8):
        system = IntervalLinearSystem(IntervalMatrix(A.lo * factor, A.hi * factor),
                                      IntervalVector.point(x * factor))
        assert classify.is_inverse_nonnegative_interval(system.A).is_no
        with pytest.raises(CapExceeded):
            linsolve.solve_hull(system)


# -- 2^k equivariance of the public operations ------------------------------

# (generator, largest n): the class pools, at sizes where a generator
# succeeds within a few milliseconds
_MAKERS = {
    "m": (make_m_instance, 8),
    "h": (make_h_instance, 8),
    "invnonneg": (make_inverse_nonneg_instance, 8),
    "tp": (make_tp_instance, 8),
    "inversem": (make_inverse_m_instance, 3),
    "diagpsd": (make_diag_psd_instance, 8),
    "nonneg": (make_nonneg_instance, 8),
    "b": (make_b_instance, 8),
    "signstable": (make_sign_stable_instance, 3),
}
_RHS_CASES = ("nonneg", "nonpos", "zero", "cb_nonneg", "cb_nonpos", "mixed")
# solve_hull's oracle fallback enumerates at most 2^12 vertices, so a
# larger system declines with CapExceeded, at every scale alike
_ORACLE = oracle.OracleConfig(vertex_cap=1 << 12)


@st.composite
def _systems(draw):
    """A class-pool box at n <= 8, a point box of one, a zero box or a 1x1
    box, with a right-hand side in one of the sign cases."""
    kind = draw(st.sampled_from(sorted(_MAKERS) + ["point", "zero", "1x1"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "1x1":
        # no entry near the subnormals: its hull overflows at every scale, a
        # known bare ValueError of solve_hull
        entries = st.floats(-4.0, 4.0).filter(lambda v: v == 0.0 or abs(v) > 2.0 ** -30)
        lo, hi = sorted(draw(st.lists(entries, min_size=2, max_size=2)))
        A = IntervalMatrix([[lo]], [[hi if draw(st.booleans()) else lo]])
    elif kind == "zero":
        A = IntervalMatrix.point(np.zeros((draw(st.integers(1, 8)),) * 2))
    else:
        make, top = _MAKERS[kind if kind != "point" else draw(st.sampled_from(sorted(_MAKERS)))]
        try:
            A = make(rng, draw(st.integers(1, top)))
        except (AssertionError, CapExceeded):  # no instance from this seed
            assume(False)
        if kind == "point":
            A = IntervalMatrix.point(A.mid)
    return A, make_rhs(rng, A.rows, draw(st.sampled_from(_RHS_CASES)))


def _assert_det(got, ref, shift):
    """frexp(got) is frexp(ref) with the exponent moved by ``shift``."""
    (gm, ge), (rm, re) = np.frexp(got), np.frexp(ref)
    assert gm == rm and (rm == 0.0 or ge == re + shift)


def _assert_range(got, ref, s_value, s_matrix):
    """A RangeResult or UpperBound scaled: values by s_value, attaining
    members by s_matrix."""
    assert type(got) is type(ref) and got.strategy == ref.strategy
    if isinstance(ref, UpperBound):
        assert got.value == ref.value * s_value
        assert np.array_equal(got.attainer, ref.attainer * s_matrix)
        return
    if s_value is not None:
        assert np.array_equal(got.value.lo, np.multiply(ref.value.lo, s_value))
        assert np.array_equal(got.value.hi, np.multiply(ref.value.hi, s_value))
    assert got.attainers.keys() == ref.attainers.keys()
    for key, member in ref.attainers.items():
        assert np.array_equal(got.attainers[key], member * s_matrix)


def _report_summary(reports):
    return [(r.matrix_class, r.verdict, r.cost_note, r.certificate.get("path"),
             r.certificate.get("reason")) for r in reports]


def _compare_classify(got, ref, k, j, n):
    assert _report_summary(got) == _report_summary(ref)


def _compare_det(got, ref, k, j, n):
    _assert_range(got, ref, None, 2.0 ** k)
    _assert_det(got.value.lo, ref.value.lo, k * n)
    _assert_det(got.value.hi, ref.value.hi, k * n)


def _compare_eig(got, ref, k, j, n):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        _assert_range(g, r, 2.0 ** k, 2.0 ** k)


def _compare_nonneg(got, ref, k, j, n):
    assert got.keys() == ref.keys()
    for key in ref:
        _assert_range(got[key], ref[key], 2.0 ** k, 2.0 ** k)


def _compare_hull(got, ref, k, j, n):
    assert (got.method, got.exactness) == (ref.method, ref.exactness)
    assert np.array_equal(got.hull.lo, ref.hull.lo * 2.0 ** (j - k))
    assert np.array_equal(got.hull.hi, ref.hull.hi * 2.0 ** (j - k))


_OPERATIONS = {
    "classify_all": (lambda s: classify.classify_all(s.A), _compare_classify),
    "det_range": (lambda s: ranges.det_range(s.A), _compare_det),
    "eig_ranges": (lambda s: ranges.eig_ranges(s.A), _compare_eig),
    "sigma_min_range": (lambda s: ranges.sigma_min_range(s.A),
                        lambda g, r, k, j, n: _assert_range(g, r, 2.0 ** k, 2.0 ** k)),
    "inverse_bounds": (lambda s: ranges.inverse_bounds(s.A),
                       lambda g, r, k, j, n: _assert_range(g, r, 2.0 ** -k, 2.0 ** k)),
    "nonneg_ranges": (lambda s: ranges.nonneg_ranges(s.A), _compare_nonneg),
    "solve_hull": (lambda s: linsolve.solve_hull(s, cfg=_ORACLE), _compare_hull),
}
# the only operations whose refusal may be CapExceeded: classify_all's
# singular-member search past the oracle's cap (it should answer unknown),
# the inverse-M enumeration of inverse_bounds and the oracle of solve_hull
_CAP_EXCEEDED = {"classify_all", "inverse_bounds", "solve_hull"}


def _outcome(call, system):
    try:
        return call(system)
    except IvmatError as exc:
        return exc


@given(_systems(), st.integers(-60, 60), st.integers(-60, 60))
@settings(max_examples=60, deadline=None)
def test_outputs_are_power_of_two_equivariant(drawn, k, j):
    A, b = drawn
    system = IntervalLinearSystem(A, b)
    scaled = IntervalLinearSystem(IntervalMatrix(np.ldexp(A.lo, k), np.ldexp(A.hi, k)),
                                  IntervalVector(np.ldexp(b.lo, j), np.ldexp(b.hi, j)))
    for name, (call, compare) in _OPERATIONS.items():
        ref, got = _outcome(call, system), _outcome(call, scaled)
        if isinstance(ref, IvmatError) or isinstance(got, IvmatError):
            assert type(got) is type(ref), (name, ref, got)
            assert not isinstance(ref, CapExceeded) or name in _CAP_EXCEEDED, name
            continue
        compare(got, ref, k, j, A.rows)


@pytest.mark.parametrize("n", [1, 3, 10, 50])
def test_det_scales_by_2_to_the_k_n(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    ref = kernel.det(a)
    exponent = np.frexp(ref)[1]
    for k in range(-60, 61, 3):
        if abs(exponent + k * n) < 1000:  # the scaled determinant is a normal float
            _assert_det(kernel.det(np.ldexp(a, k)), ref, k * n)
