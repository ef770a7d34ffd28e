import tracemalloc

import numpy as np
import pytest

from ivmat import kernel, oracle
from ivmat.errors import CapExceeded, SingularInside
from ivmat.intervals import (
    Interval,
    IntervalMatrix,
    IntervalVector,
    SymmetricIntervalMatrix,
    as_symmetric,
    vertex_chunks,
)


class TestDetRange:
    def test_m_matrix_example(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
        rng = oracle.det_range(A)
        assert rng.lo == pytest.approx(3.0)
        assert rng.hi == pytest.approx(9.0)

    def test_point_matrix(self):
        P = IntervalMatrix.point([[1.0, 2.0], [3.0, 4.0]])
        rng = oracle.det_range(P)
        assert rng.lo == rng.hi == pytest.approx(-2.0)

    def test_singular_member_detected(self):
        A = IntervalMatrix([[1, -1], [-1, 1]], [[3, 0], [0, 3]])
        rng = oracle.det_range(A)
        assert rng.lo <= 0.0 <= rng.hi

    def test_cap(self):
        A = IntervalMatrix.from_midrad(np.zeros((3, 3)), np.ones((3, 3)))
        with pytest.raises(CapExceeded):
            oracle.det_range(A, oracle.OracleConfig(vertex_cap=16))

    def test_sampling_never_exceeds_vertex_range(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            lo = rng.normal(size=(3, 3))
            A = IntervalMatrix(lo, lo + rng.uniform(0, 1, (3, 3)))
            vertex_range = oracle.det_range(A)
            sampled = oracle.range_sampling(kernel.det, A,
                                            oracle.OracleConfig(samples=100))
            assert vertex_range.lo <= sampled.lo + 1e-12
            assert sampled.hi <= vertex_range.hi + 1e-12


class TestSolutionHull:
    def test_inverse_nonneg_example(self):
        A = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
        b = IntervalVector([3, 0], [6, 3])
        hull = oracle.solution_hull(A, b)
        assert np.allclose(hull.lo, [1, 0])
        assert np.allclose(hull.hi, [5, 4])

    def test_point_system(self):
        A = IntervalMatrix.point([[2.0, 0.0], [0.0, 4.0]])
        b = IntervalVector.point([2.0, 8.0])
        hull = oracle.solution_hull(A, b)
        assert np.allclose(hull.lo, [1.0, 2.0]) and np.allclose(hull.hi, [1.0, 2.0])

    def test_singular_inside_raises(self):
        A = IntervalMatrix([[1, -1], [-1, 1]], [[3, 0], [0, 3]])
        with pytest.raises(SingularInside):
            oracle.solution_hull(A, IntervalVector.point([1.0, 1.0]))

    def test_contains_sampled_solutions(self):
        rng = np.random.default_rng(32)
        A = IntervalMatrix.from_midrad(np.array([[4.0, 1.0], [-1.0, 5.0]]),
                                       np.full((2, 2), 0.3))
        b = IntervalVector([-1.0, 0.0], [1.0, 2.0])
        hull = oracle.solution_hull(A, b)
        for m, r in zip(oracle.sample_members(A, 200, rng),
                        oracle.sample_members(b, 200, rng)):
            x = np.linalg.solve(m, r)
            assert hull.contains_point(x, tol=1e-9)


class TestRangeSampling:
    def test_deterministic_with_seed(self):
        A = IntervalMatrix.from_midrad(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                       np.full((2, 2), 0.2))
        cfg = oracle.OracleConfig(seed=7)
        r1 = oracle.range_sampling(kernel.spectral_radius, A, cfg)
        r2 = oracle.range_sampling(kernel.spectral_radius, A, cfg)
        assert r1 == r2

    def test_widens_with_sample_count(self):
        A = IntervalMatrix.from_midrad(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                       np.full((2, 2), 0.2))
        small = oracle.range_sampling(kernel.spectral_radius, A,
                                      oracle.OracleConfig(samples=20, seed=3))
        big = oracle.range_sampling(kernel.spectral_radius, A,
                                    oracle.OracleConfig(samples=400, seed=3))
        assert big.lo <= small.lo and small.hi <= big.hi

    def test_rho_endpoints_on_nonneg_example(self):
        A = IntervalMatrix([[0, 1], [1, 0]], [[1, 2], [2, 1]])
        sampled = oracle.range_sampling(kernel.spectral_radius, A,
                                        oracle.OracleConfig(samples=200))
        assert sampled.lo == pytest.approx(1.0)  # attained at the lower endpoint
        assert sampled.hi == pytest.approx(3.0)  # attained at the upper endpoint

    def test_symmetric_family_sampling(self):
        A = SymmetricIntervalMatrix(IntervalMatrix.from_midrad(
            np.array([[2.0, 1.0], [1.0, 2.0]]), np.full((2, 2), 0.5)))
        r = oracle.range_sampling(lambda m: kernel.sym_eigenvalues(m)[-1], A,
                                  oracle.OracleConfig(samples=100))
        assert r.lo >= 0.0  # members stay diagonally dominant-ish here
        assert r.hi <= 2.5 + 1e-12


    def test_vertices_are_streamed_not_listed(self):
        # 2^16 vertices of a 4x4 box: listing them all as arrays peaks near
        # 19 MB under tracemalloc; folding one chunk at a time stays near 5 MB.
        rng = np.random.default_rng(41)
        lo = rng.normal(size=(4, 4))
        A = IntervalMatrix(lo, lo + rng.uniform(0.01, 0.5, (4, 4)))
        cfg = oracle.OracleConfig(seed=5)
        tracemalloc.start()
        try:
            got = oracle.range_sampling(np.linalg.det, A, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        members = [v for chunk in vertex_chunks(A.lo, A.hi) for v in chunk]
        members.extend(oracle.sample_members(A, cfg.samples,
                                             np.random.default_rng(cfg.seed)))
        vals = [float(np.linalg.det(m)) for m in members]
        assert got == Interval(min(vals), max(vals))
        assert peak < 8 * 2**20


class TestMinors:
    def test_spec_examples(self):
        assert oracle.minors_positive([[1.0, 0.2], [0.2, 1.0]]) == (True, True)
        assert oracle.minors_positive(np.eye(2)) == (False, True)
        assert oracle.minors_positive([[0.0, 1.0], [1.0, 0.0]]) == (False, False)

    def test_size_cap(self):
        with pytest.raises(CapExceeded):
            oracle.minors_positive(np.eye(7))


class TestCubeRange:
    def test_running_example(self):
        A = IntervalMatrix([[-1, 1], [1, 0]], [[1, 1], [1, 0]])
        hull = oracle.cube_range(A, oracle.OracleConfig(grid_step=1e-3))
        assert np.allclose(hull.lo, [[-3, 1], [1, -1]], atol=1e-4)
        assert np.allclose(hull.hi, [[3, 2], [2, 1]], atol=1e-4)

    def test_point_matrix_exact_cube(self):
        P = IntervalMatrix.point([[1.0, 2.0], [0.5, -1.0]])
        hull = oracle.cube_range(P)
        expected = np.linalg.matrix_power(P.mid, 3)
        assert np.allclose(hull.lo, expected) and np.allclose(hull.hi, expected)

    def test_rejects_nondiagonal_radius(self):
        A = IntervalMatrix.from_midrad(np.zeros((2, 2)), np.full((2, 2), 0.1))
        with pytest.raises(ValueError):
            oracle.cube_range(A)

    def test_two_parameter_grid(self):
        mid = np.array([[0.5, 1.0], [-1.0, 0.2]])
        A = IntervalMatrix.from_midrad(mid, np.diag([0.5, 0.7]))
        hull = oracle.cube_range(A, oracle.OracleConfig(grid_step=5e-3))
        rng = np.random.default_rng(33)
        for m in oracle.sample_members(A, 300, rng):
            cube = np.linalg.matrix_power(m, 3)
            assert np.all(cube >= hull.lo - 5e-3)
            assert np.all(cube <= hull.hi + 5e-3)


def _cube_range_all_at_once(A, cfg):
    """oracle.cube_range as it ran before chunking: every grid matrix at once."""
    n = A.rows
    diag_lo, diag_hi = np.diag(A.lo), np.diag(A.hi)
    varying = np.flatnonzero(diag_hi > diag_lo)
    axes = [np.linspace(diag_lo[i], diag_hi[i],
                        max(2, int(round((diag_hi[i] - diag_lo[i]) / cfg.grid_step)) + 1))
            for i in varying]
    flat = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    mats = np.broadcast_to(A.mid, (len(flat[0]), n, n)).copy()
    for pos, i in enumerate(varying):
        mats[:, i, i] = flat[pos]
    cubes = np.matmul(np.matmul(mats, mats), mats)
    return cubes.min(axis=0), cubes.max(axis=0)


def _three_varying_diagonals(rng, n, radius):
    rad = np.zeros((n, n))
    for v in rng.choice(n, size=3, replace=False):
        rad[v, v] = radius
    return IntervalMatrix.from_midrad(rng.uniform(-1.0, 1.0, (n, n)), rad)


class TestCubeRangeChunks:
    @pytest.mark.parametrize("n", [3, 8])
    def test_bit_equal_to_all_at_once(self, n):
        rng = np.random.default_rng([97, n])
        cfg = oracle.OracleConfig(grid_step=2e-2)
        for radius in (0.1, 0.2, 0.3):  # 1,000 to 29,791 grid points
            A = _three_varying_diagonals(rng, n, radius)
            lo, hi = _cube_range_all_at_once(A, cfg)
            got = oracle.cube_range(A, cfg)
            assert got.lo.tobytes() == lo.tobytes() and got.hi.tobytes() == hi.tobytes()

    def test_memory_stays_bounded(self):
        # 41^3 grid points at n = 8: all at once this peaked at about 100 MB
        A = _three_varying_diagonals(np.random.default_rng(98), 8, 0.2)
        tracemalloc.start()
        try:
            oracle.cube_range(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def test_find_singular_member():
    A = IntervalMatrix([[1, -1], [-1, 1]], [[3, 0], [0, 3]])
    member = oracle.find_singular_member(A)
    assert member is not None
    assert A.contains_point(member, tol=1e-9)
    assert abs(kernel.det(member)) < 1e-9

    regular = IntervalMatrix([[2, -1], [-1, 2]], [[3, 0], [0, 3]])
    assert oracle.find_singular_member(regular) is None


def test_symmetric_singular_member_search():
    base = IntervalMatrix([[1, -1], [-1, 1]], [[3, 0], [0, 3]])
    member = oracle.find_singular_member(SymmetricIntervalMatrix(base))
    assert member is not None
    assert np.allclose(member, member.T)
    assert abs(kernel.det(member)) < 1e-9


def _singular_member_per_vertex(A, cfg=oracle.DEFAULT_CONFIG):
    """Reference for find_singular_member: one det call per listed vertex."""
    if isinstance(A, SymmetricIntervalMatrix):
        iu = np.triu_indices(A.n)

        def expand(flat):
            full = np.empty((A.n, A.n))
            full[iu] = flat
            full[(iu[1], iu[0])] = flat
            return full

        vertices = [expand(v) for chunk in
                    vertex_chunks(A.lo[iu], A.hi[iu], cfg.vertex_cap)
                    for v in chunk]
    else:
        vertices = [v for chunk in vertex_chunks(A.lo, A.hi, cfg.vertex_cap)
                    for v in chunk]
    dets = np.array([np.linalg.det(v) for v in vertices])
    tol = 1e-12 * max(1.0, float(np.max(np.abs(dets))))
    near = np.flatnonzero(np.abs(dets) <= tol)
    if len(near):
        return vertices[int(near[0])]
    pos = np.flatnonzero(dets > 0)
    neg = np.flatnonzero(dets < 0)
    if not len(pos) or not len(neg):
        return None
    v_pos, v_neg = vertices[int(pos[0])], vertices[int(neg[0])]
    t_lo, t_hi = 0.0, 1.0
    for _ in range(200):
        t = 0.5 * (t_lo + t_hi)
        d = float(np.linalg.det((1 - t) * v_pos + t * v_neg))
        if abs(d) <= tol:
            break
        if d > 0:
            t_lo = t
        else:
            t_hi = t
    t = 0.5 * (t_lo + t_hi)
    return (1 - t) * v_pos + t * v_neg


def test_singular_member_search_matches_per_vertex_reference():
    # chunked determinants must pick the same vertices and bisect identically;
    # integer boxes give exactly singular vertices, wide boxes sign changes,
    # and a 4x4 box spans several enumeration chunks
    rng = np.random.default_rng(31)
    boxes = []
    for _ in range(40):
        n = int(rng.integers(1, 4))
        mid = rng.normal(size=(n, n))
        rad = rng.uniform(0.0, 1.5, (n, n)) * (rng.random((n, n)) < 0.7)
        boxes.append(IntervalMatrix(mid - rad, mid + rad))
        sym_lo, sym_hi = mid - rad + (mid - rad).T, mid + rad + (mid + rad).T
        boxes.append(as_symmetric(IntervalMatrix(sym_lo, sym_hi)))
        ints = rng.integers(-2, 3, (3, 3)).astype(float)
        boxes.append(IntervalMatrix(ints - (rng.random((3, 3)) < 0.3),
                                    ints + (rng.random((3, 3)) < 0.3)))
    mid = np.eye(4) + rng.uniform(-0.3, 0.3, (4, 4))
    boxes.append(IntervalMatrix(mid - 0.8, mid + 0.8))
    found = 0
    for A in boxes:
        expected = _singular_member_per_vertex(A)
        member = oracle.find_singular_member(A)
        if expected is None:
            assert member is None
        else:
            found += 1
            assert np.array_equal(member, expected)
    assert 0 < found < len(boxes)
