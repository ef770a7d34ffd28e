import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivmat.errors import CapExceeded
from ivmat.intervals import (
    Interval,
    IntervalMatrix,
    IntervalVector,
    SymmetricIntervalMatrix,
    alternating_signs,
    checkerboard_box,
    checkerboard_leq,
    checkerboard_rhs,
    checkerboard_vertices,
    comparison_matrix,
    idiv,
    imatmul,
    imul,
    isub,
    magnitude,
    mignitude,
    sign_flip_at,
    vertex_chunks,
)


def _vertices(A, cap_evals=1 << 20):
    return [v for chunk in vertex_chunks(A.lo, A.hi, cap_evals) for v in chunk]

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _inside(x, lo, hi):
    # rounding slack for finite x; an overflowed x must meet an overflowed bound
    slack = np.where(np.isfinite(x), 1e-12 * np.maximum(1.0, np.abs(x)), 0.0)
    return bool(np.all((lo - slack <= x) & (x <= hi + slack)))


# Arrays of up to 8 intervals given as (lo, width, u) triples: u in [0, 1]
# picks the member lo + u * width.
triples = st.lists(st.tuples(finite, st.floats(min_value=0, max_value=1e6),
                             st.floats(min_value=0, max_value=1)),
                   min_size=1, max_size=8)


def _unpack(cells):
    lo = np.array([c[0] for c in cells])
    hi = lo + np.array([c[1] for c in cells])
    return lo, hi, lo + np.array([c[2] for c in cells]) * (hi - lo)


class TestInterval:
    """The validated ``Interval`` record and the array interval arithmetic."""

    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("inf"))

    @pytest.mark.parametrize("lo,hi,mig,mag", [
        (-1.0, 2.0, 0.0, 2.0),
        (2.0, 3.0, 2.0, 3.0),
        (-3.0, -2.0, 2.0, 3.0),
        (0.0, 0.0, 0.0, 0.0),
    ])
    def test_mignitude_magnitude(self, lo, hi, mig, mag):
        lo, hi = np.full(3, lo), np.full(3, hi)
        assert np.array_equal(mignitude(lo, hi), np.full(3, mig))
        assert np.array_equal(magnitude(lo, hi), np.full(3, mag))

    @given(cells=triples)
    @settings(max_examples=200)
    def test_mignitude_magnitude_bound_members(self, cells):
        lo, hi, x = _unpack(cells)
        slack = 1e-9 * np.maximum(1.0, np.abs(x))
        assert np.all(mignitude(lo, hi) <= np.abs(x) + slack)
        assert np.all(np.abs(x) <= magnitude(lo, hi) + slack)

    def test_arithmetic_contains_pointwise(self):
        x, y = np.meshgrid(np.linspace(-1.0, 2.0, 7), np.linspace(0.5, 3.0, 7))
        a = (np.full(x.shape, -1.0), np.full(x.shape, 2.0))
        b = (np.full(y.shape, 0.5), np.full(y.shape, 3.0))
        assert _inside(x + y, *isub(*a, -b[1], -b[0]))  # a + b is a - (-b)
        assert _inside(x - y, *isub(*a, *b))
        assert _inside(x * y, *imul(*a, *b))
        assert _inside(x / y, *idiv(*a, *b))

    @given(a=triples, b=triples)
    @settings(max_examples=200)
    def test_results_contain_pointwise_results(self, a, b):
        size = min(len(a), len(b))
        alo, ahi, x = (v[:size] for v in _unpack(a))
        blo, bhi, y = (v[:size] for v in _unpack(b))
        assert _inside(x + y, *isub(alo, ahi, -bhi, -blo))
        assert _inside(x - y, *isub(alo, ahi, blo, bhi))
        assert _inside(x * y, *imul(alo, ahi, blo, bhi))
        away = (blo > 0) | (bhi < 0)
        if not away.any():
            return
        alo, ahi, x, blo, bhi, y = (v[away] for v in (alo, ahi, x, blo, bhi, y))
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(1.0 / mignitude(blo, bhi))):
                with pytest.raises(ZeroDivisionError):
                    idiv(alo, ahi, blo, bhi)
            else:
                assert _inside(x / y, *idiv(alo, ahi, blo, bhi))

    def test_division_by_zero_interval(self):
        lo, hi = np.array([1.0, 1.0]), np.array([2.0, 2.0])
        with pytest.raises(ZeroDivisionError):
            idiv(lo, hi, np.array([1.0, -1.0]), np.array([2.0, 1.0]))
        with pytest.raises(ZeroDivisionError):
            idiv(lo, hi, np.array([1.0, 0.0]), np.array([2.0, 0.5]))
        with pytest.raises(ZeroDivisionError, match="overflows"):
            idiv(np.zeros(1), np.zeros(1), np.array([5e-324]), np.array([5e-324]))

    def test_point_operand_table(self):
        lo, hi = np.array([1.0, -2.0]), np.array([2.0, 3.0])
        assert np.array_equal(isub(3.0, 3.0, lo, hi), [[1.0, 0.0], [2.0, 5.0]])
        assert np.array_equal(isub(lo, hi, -3.0, -3.0), [[4.0, 1.0], [5.0, 6.0]])
        assert np.array_equal(imul(2.0, 2.0, lo, hi), [[2.0, -4.0], [4.0, 6.0]])
        assert np.array_equal(imul(-1.0, -1.0, lo, hi), [[-2.0, -3.0], [-1.0, 2.0]])


class TestIntervalMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalMatrix([[1.0]], [[0.0]])
        with pytest.raises(ValueError):
            IntervalMatrix([[0.0, 1.0]], [[1.0]])

    @given(st.lists(st.tuples(finite, st.floats(min_value=0, max_value=1e6)),
                    min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_midrad_roundtrip_within_endpoint_ulps(self, cells):
        # reconstruction error lives at the scale of the larger endpoint
        lo = np.array([c[0] for c in cells]).reshape(2, 2)
        hi = lo + np.array([c[1] for c in cells]).reshape(2, 2)
        A = IntervalMatrix(lo, hi)
        back = IntervalMatrix.from_midrad(A.mid, A.rad)
        ulp = 2.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        assert np.all(np.abs(back.lo - lo) <= ulp)
        assert np.all(np.abs(back.hi - hi) <= ulp)

    def test_immutability(self):
        A = IntervalMatrix([[0.0]], [[1.0]])
        with pytest.raises(ValueError):
            A.lo[0, 0] = 5.0

    def test_symmetric_view_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricIntervalMatrix(IntervalMatrix([[1, 2], [0, 1]],
                                                   [[1, 2], [0, 1]]))
        S = SymmetricIntervalMatrix(IntervalMatrix([[1, 0], [0, 1]],
                                                   [[2, 1], [1, 2]]))
        assert S.n == 2


class TestComparisonMatrix:
    def test_spec_examples(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[3, 1], [1, 3]])
        assert np.allclose(comparison_matrix(A), [[2, -1], [-1, 2]])
        I2 = IntervalMatrix.point(np.eye(2))
        assert np.allclose(comparison_matrix(I2), np.eye(2))
        H = IntervalMatrix([[0, 1], [-1, 10]], [[10, 1], [-1, 10]])
        assert np.allclose(comparison_matrix(H), [[0, -1], [-1, 10]])

    def test_point_matrix_matches_real_definition(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        C = comparison_matrix(IntervalMatrix.point(a))
        expected = -np.abs(a)
        np.fill_diagonal(expected, np.abs(np.diag(a)))
        assert np.allclose(C, expected)


class TestCheckerboard:
    def test_vertices_spec_examples(self):
        A = IntervalMatrix([[0.9, 0.1], [0.1, 0.9]], [[1.1, 0.2], [0.2, 1.1]])
        down, up = checkerboard_vertices(A)
        assert np.allclose(down, [[0.9, 0.2], [0.2, 0.9]])
        assert np.allclose(up, [[1.1, 0.1], [0.1, 1.1]])
        P = IntervalMatrix.point([[1.0, 2.0], [3.0, 4.0]])
        down, up = checkerboard_vertices(P)
        assert np.allclose(down, P.mid) and np.allclose(up, P.mid)
        one = IntervalMatrix([[-1.0]], [[1.0]])
        down, up = checkerboard_vertices(one)
        assert down[0, 0] == -1.0 and up[0, 0] == 1.0

    def test_vertices_are_members(self):
        rng = np.random.default_rng(7)
        lo = rng.normal(size=(3, 3))
        A = IntervalMatrix(lo, lo + rng.uniform(0, 1, (3, 3)))
        down, up = checkerboard_vertices(A)
        assert A.contains_point(down, tol=1e-12)
        assert A.contains_point(up, tol=1e-12)

    def test_box_spec_examples(self):
        box = checkerboard_box([1.0, 5.0], [3.0, 2.0])
        assert np.allclose(box.lo, [1, 2]) and np.allclose(box.hi, [3, 5])
        box = checkerboard_box([0.0, 0.0], [0.0, 0.0])
        assert np.allclose(box.lo, 0) and np.allclose(box.hi, 0)
        box = checkerboard_box([2.0], [4.0])
        assert box.entry(0) == Interval(2.0, 4.0)

    def test_box_rejects_unordered(self):
        with pytest.raises(ValueError):
            checkerboard_box([3.0, 2.0], [1.0, 5.0])

    def test_rhs_endpoints(self):
        b = IntervalVector([1.0, -2.0], [2.0, 1.0])
        down, up = checkerboard_rhs(b)
        assert np.allclose(down, [1.0, 1.0])
        assert np.allclose(up, [2.0, -2.0])
        assert checkerboard_leq(down, up)


class TestVertexIteration:
    def test_counts(self):
        rng = np.random.default_rng(0)
        lo = rng.normal(size=(2, 2))
        A = IntervalMatrix(lo, lo + 1.0)
        assert len(_vertices(A)) == 16
        P = IntervalMatrix.point(lo)
        assert len(_vertices(P)) == 1
        D = IntervalMatrix.from_midrad(np.zeros((3, 3)), np.diag([1.0, 1.0, 1.0]))
        assert len(_vertices(D)) == 8

    def test_unique_and_members(self):
        lo = np.array([[0.0, 1.0], [1.0, 0.0]])
        A = IntervalMatrix(lo, lo + np.array([[1.0, 0.0], [2.0, 3.0]]))
        vertices = _vertices(A)
        assert len({tuple(v.ravel()) for v in vertices}) == len(vertices) == 8
        for v in vertices:
            assert A.contains_point(v)
            assert np.all((v == A.lo) | (v == A.hi))
            assert v[0, 1] == 1.0  # the degenerate entry never branches

    def test_chunks_cover_every_vertex_once_in_mask_order(self):
        # 2^15 vertices span two enumeration chunks; vertex i is mask i.
        lo = np.zeros(16)
        hi = np.ones(16)
        hi[5] = 0.0
        block = np.concatenate(list(vertex_chunks(lo, hi)))
        branching = np.flatnonzero(hi > lo)
        masks = (block[:, branching] * (1 << np.arange(15))).sum(axis=1)
        assert np.array_equal(masks, np.arange(1 << 15))
        assert np.all(block[:, 5] == 0.0)

    def test_cap(self):
        A = IntervalMatrix.from_midrad(np.zeros((5, 5)), np.ones((5, 5)))
        with pytest.raises(CapExceeded):
            vertex_chunks(A.lo, A.hi, 1 << 24)
        lo = np.zeros(4)
        assert len(_vertices(IntervalVector(lo, lo + 1.0), 16)) == 16
        with pytest.raises(CapExceeded):
            vertex_chunks(lo, lo + 1.0, 15)


class TestSignVectors:
    def test_alternating(self):
        assert np.allclose(alternating_signs(4), [1, -1, 1, -1])
        assert np.allclose(sign_flip_at(3, 1), [1, -1, 1])

    def test_enumeration(self):
        vs = _vertices(IntervalVector(-np.ones(3), np.ones(3)))
        assert len(vs) == 8
        assert len({tuple(v) for v in vs}) == 8
        assert all(set(np.unique(v)) <= {-1.0, 1.0} for v in vs)


def test_imatmul_contains_point_products():
    rng = np.random.default_rng(11)
    lo_a = rng.normal(size=(2, 3))
    lo_b = rng.normal(size=(3, 2))
    A = IntervalMatrix(lo_a, lo_a + rng.uniform(0, 0.5, (2, 3)))
    B = IntervalMatrix(lo_b, lo_b + rng.uniform(0, 0.5, (3, 2)))
    prod = imatmul(A, B)
    for _ in range(50):
        ma = lo_a + (A.hi - A.lo) * rng.random((2, 3))
        mb = lo_b + (B.hi - B.lo) * rng.random((3, 2))
        assert prod.contains_point(ma @ mb, tol=1e-10)
