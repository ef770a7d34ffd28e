"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Every tolerance is pinned here; nothing defers to later
calibration.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import (
    make_diag_psd_instance,
    make_h_instance,
    make_inverse_nonneg_instance,
    make_m_instance,
    make_nonneg_instance,
    make_rhs,
    make_tp_instance,
)
from ivmat import classify, kernel, linsolve, oracle, parametric, ranges
from ivmat.intervals import (
    IntervalMatrix,
    IntervalVector,
    SymmetricIntervalMatrix,
    vertex_chunks,
)
from ivmat.linsolve import EXACT, IntervalLinearSystem
from ivmat.parametric import ParametricSystem


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- vectorized member property checks (ground truth for criterion 10) ----

def _comparison_stack(block: np.ndarray) -> np.ndarray:
    comp = -np.abs(block)
    n = block.shape[-1]
    idx = np.arange(n)
    comp[:, idx, idx] = np.abs(block[:, idx, idx])
    return comp


def _members_are_m(block: np.ndarray) -> bool:
    n = block.shape[-1]
    off = block.copy()
    idx = np.arange(n)
    off[:, idx, idx] = 0.0
    if np.any(off > 1e-10):
        return False
    dets = np.linalg.det(block)
    if np.any(np.abs(dets) <= 1e-12):
        return False
    v = np.linalg.solve(block, np.ones((len(block), n, 1)))[..., 0]
    return bool(np.all(v > 0))


def _members_are_h(block: np.ndarray) -> bool:
    return _members_are_m(_comparison_stack(block))


def _members_are_inverse_nonneg(block: np.ndarray) -> bool:
    dets = np.linalg.det(block)
    if np.any(np.abs(dets) <= 1e-12):
        return False
    return bool(np.all(np.linalg.inv(block) >= -1e-10))


def _members_are_tp(block: np.ndarray) -> bool:
    n = block.shape[-1]
    for k in range(1, n + 1):
        for i0 in range(n - k + 1):
            for j0 in range(n - k + 1):
                minors = np.linalg.det(block[:, i0:i0 + k, j0:j0 + k])
                if np.any(minors <= 1e-12):
                    return False
    return True


def _members_are_b(block: np.ndarray) -> bool:
    n = block.shape[-1]
    sums = block.sum(axis=2)
    if np.any(sums <= 0):
        return False
    for i in range(n):
        for k in range(n):
            if k == i:
                continue
            if np.any(sums[:, i] - block[:, i, k] <= (n - 1) * block[:, i, k]):
                return False
    return True


def _members_are_inverse_m(block: np.ndarray) -> bool:
    if np.any(block < -1e-10):
        return False
    return bool(np.all(classify._real_inverse_m_check(block, 1e-10)))


def _members_are_p(block: np.ndarray) -> bool:
    import itertools

    n = block.shape[-1]
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(n), k):
            sel = np.ix_(range(len(block)), rows, rows)
            if np.any(np.linalg.det(block[sel]) <= 1e-12):
                return False
    return True


def _members_are_regular(block: np.ndarray) -> bool:
    return bool(np.all(np.abs(np.linalg.det(block)) > 1e-12))


_MEMBER_PROPERTY = {
    "M": _members_are_m,
    "H": _members_are_h,
    "InverseNonnegative": _members_are_inverse_nonneg,
    "TotallyPositive": _members_are_tp,
    "BMatrix": _members_are_b,
    "InverseM": _members_are_inverse_m,
    "PMatrixSpecialCase": _members_are_p,
    "Regular": _members_are_regular,
}


# -- criterion 1: determinant ranges --------------------------------------

def test_criterion_1_determinant_ranges(class_pools):
    failures = []
    start = time.perf_counter()
    for class_name, pool in class_pools.items():
        for idx, A in enumerate(pool):
            res = ranges.det_range(A)
            reference = oracle.det_range(A)
            if not (_rel_close(res.value.lo, reference.lo, 1e-8)
                    and _rel_close(res.value.hi, reference.hi, 1e-8)):
                failures.append((class_name, idx, res.value, reference))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(1, "determinant ranges vs oracle, 5 classes x 100",
            ok, f"{elapsed:.2f}s")
    assert not failures, failures[:3]
    assert elapsed < 10.0


# -- criterion 2: solution hulls -------------------------------------------

def _hull_equal(hull, reference, tol):
    return (np.all(np.abs(hull.lo - reference.lo)
                   <= tol * np.maximum(1.0, np.abs(reference.lo)))
            and np.all(np.abs(hull.hi - reference.hi)
                       <= tol * np.maximum(1.0, np.abs(reference.hi))))


def test_criterion_2_solution_hulls(class_pools):
    rng = np.random.default_rng(20240602)
    failures = []

    def run(tag, A, b, method):
        sys_ = IntervalLinearSystem(A, b)
        res = linsolve.solve_hull(sys_, method=method)
        reference = oracle.solution_hull(A, b)
        if res.exactness == EXACT:
            if not _hull_equal(res.hull, reference, 1e-7):
                failures.append((tag, res.hull, reference))
        else:
            if not res.hull.contains_vector(reference, tol=1e-9):
                failures.append((tag, res.hull, reference))

    cases = ("nonneg", "nonpos", "zero")
    for i, A in enumerate(class_pools["invnonneg"]):
        run(f"invnonneg-{cases[i % 3]}", A,
            make_rhs(rng, A.rows, cases[i % 3]), "invnonneg")
    tp_cases = ("cb_nonneg", "cb_nonpos", "zero")
    for i, A in enumerate(class_pools["tp"]):
        run(f"tp-{tp_cases[i % 3]}", A,
            make_rhs(rng, A.rows, tp_cases[i % 3]), "tp")
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        A = make_h_instance(rng, n)
        run("hbrnk", A, make_rhs(rng, n, "mixed"), "hbrnk")
    for i, A in enumerate(class_pools["m"]):
        run(f"ge-{cases[i % 3]}", A, make_rhs(rng, A.rows, cases[i % 3]), "ge")
    for i, A in enumerate(class_pools["inversem"]):
        run("inversem", A, make_rhs(rng, A.rows, "mixed"), "inversem")

    _report(2, "solution hulls, 5 paths x 100 systems", not failures)
    assert not failures, failures[:3]


# -- criterion 3: eigen/singular/rho/norm/rr ranges -------------------------

def _sym_invnonneg_instance(rng, n):
    for _ in range(100):
        off = -rng.uniform(0.05, 0.4, (n, n))
        off = 0.5 * (off + off.T)
        np.fill_diagonal(off, 0.0)
        lo = off.copy()
        lo[np.diag_indices(n)] = np.abs(off).sum(axis=1) + rng.uniform(0.3, 1.0, n)
        direction = rng.uniform(0.0, 1.0, (n, n))
        direction = 0.5 * (direction + direction.T)
        t = 1.0
        for _ in range(40):
            A = IntervalMatrix(lo, lo + t * direction)
            if (classify.is_inverse_nonnegative_interval(A).is_yes
                    and classify.is_symmetric_family(A)):
                return A
            t *= 0.5
    raise AssertionError("no symmetric inverse nonnegative instance found")


def _attained(f, res, tol=1e-8) -> bool:
    return (_rel_close(float(f(res.attainers["min"])), res.value.lo, tol)
            and _rel_close(float(f(res.attainers["max"])), res.value.hi, tol))


def _contains(res, values, slack=1e-9) -> bool:
    scale = max(1.0, abs(res.value.lo), abs(res.value.hi))
    return (res.value.lo - slack * scale <= values.min()
            and values.max() <= res.value.hi + slack * scale)


def test_criterion_3_characteristic_ranges():
    rng = np.random.default_rng(20240603)
    failures = []
    samples = 500

    # diagonally interval symmetric: every eigenvalue range is the vertex pair
    for _ in range(10):
        n = int(rng.integers(2, 4))
        A = make_diag_psd_instance(rng, n)
        res = ranges.eig_ranges_diag_interval(A)
        lo_vals = kernel.sym_eigenvalues(A.lo)
        hi_vals = kernel.sym_eigenvalues(A.hi)
        members = oracle.sample_symmetric_members(
            SymmetricIntervalMatrix(A), samples, rng)
        spectra = np.sort(np.linalg.eigvalsh(members), axis=1)[:, ::-1]
        for i, r in enumerate(res):
            if not (r.value.lo == lo_vals[i] and r.value.hi == hi_vals[i]):
                failures.append(("diag-eig-exact", i))
            if not _contains(r, spectra[:, i]):
                failures.append(("diag-eig-contain", i))
            if not _attained(lambda m, i=i: kernel.sym_eigenvalues(m)[i], r):
                failures.append(("diag-eig-attain", i))

    # nonnegative: rho, sigma_max, lambda_max, monotone norms
    for sym in (False, True):
        for _ in range(5):
            n = int(rng.integers(2, 4))
            A = make_nonneg_instance(rng, n, symmetric=sym)
            out = ranges.nonneg_ranges(A)
            members = oracle.sample_members(A, samples, rng)
            rho_vals = np.max(np.abs(np.linalg.eigvals(members)), axis=1)
            if not _contains(out["rho"], rho_vals):
                failures.append(("rho-contain", sym))
            if not _attained(kernel.spectral_radius, out["rho"]):
                failures.append(("rho-attain", sym))
            sig_vals = np.linalg.svd(members, compute_uv=False)[:, 0]
            if not _contains(out["sigma_max"], sig_vals):
                failures.append(("sigma-max-contain", sym))
            if not _attained(lambda m: float(kernel.singular_values(m)[0]),
                             out["sigma_max"]):
                failures.append(("sigma-max-attain", sym))
            for which in ("inf", "one", "frobenius", "chebyshev", "inf1"):
                res = ranges.norm_range(A, which)
                vals = np.array([kernel.matrix_norm(m, which) for m in members])
                if not _contains(res, vals):
                    failures.append((f"norm-{which}-contain", sym))
                if not _attained(lambda m, w=which: kernel.matrix_norm(m, w), res):
                    failures.append((f"norm-{which}-attain", sym))
        if sym:
            A = make_nonneg_instance(rng, 3, symmetric=True)
            out = ranges.nonneg_ranges(A)
            members = oracle.sample_symmetric_members(
                SymmetricIntervalMatrix(A), samples, rng)
            lam_vals = np.linalg.eigvalsh(members)[:, -1]
            if not _contains(out["lambda_max"], lam_vals):
                failures.append(("lambda-max-contain",))
            if not _attained(lambda m: float(kernel.sym_eigenvalues(m)[0]),
                             out["lambda_max"]):
                failures.append(("lambda-max-attain",))

    # inverse nonnegative: sigma_min, rr, lambda_min (symmetric)
    for _ in range(5):
        n = int(rng.integers(2, 4))
        A = make_inverse_nonneg_instance(rng, n)
        members = oracle.sample_members(A, samples, rng)
        res = ranges.sigma_min_range(A)
        vals = np.linalg.svd(members, compute_uv=False)[:, -1]
        if not _contains(res, vals):
            failures.append(("sigma-min-contain",))
        if not _attained(lambda m: float(kernel.singular_values(m)[-1]), res):
            failures.append(("sigma-min-attain",))
        res = ranges.rr_range(A)
        invs = np.linalg.inv(members)
        zs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n)).T.reshape(-1, n)
        rr_vals = 1.0 / np.abs(np.einsum("mij,zj->miz", invs, zs)).sum(axis=1).max(axis=1)
        if not _contains(res, rr_vals):
            failures.append(("rr-contain",))
        if not _attained(kernel.regularity_radius, res):
            failures.append(("rr-attain",))

        S = _sym_invnonneg_instance(rng, n)
        res = ranges.lambda_min_range_inverse_nonneg(S)
        sym_members = oracle.sample_symmetric_members(
            SymmetricIntervalMatrix(S), samples, rng)
        vals = np.linalg.eigvalsh(sym_members)[:, 0]
        if not _contains(res, vals):
            failures.append(("lambda-min-contain",))
        if not _attained(lambda m: float(kernel.sym_eigenvalues(m)[-1]), res):
            failures.append(("lambda-min-attain",))

    # totally positive: all eigenvalue ranges, sigma_min, rr
    for _ in range(5):
        n = int(rng.integers(2, 4))
        A = make_tp_instance(rng, n)
        members = oracle.sample_members(A, samples, rng)
        res = ranges.eig_ranges_totally_positive(A)
        spectra = np.sort(np.linalg.eigvals(members).real, axis=1)[:, ::-1]
        for i, r in enumerate(res):
            if not _contains(r, spectra[:, i]):
                failures.append(("tp-eig-contain", i))
            if not _attained(lambda m, i=i: float(kernel.real_eigenvalues_sorted(m)[i]), r):
                failures.append(("tp-eig-attain", i))
        res = ranges.sigma_min_range(A)
        vals = np.linalg.svd(members, compute_uv=False)[:, -1]
        if not _contains(res, vals):
            failures.append(("tp-sigma-min-contain",))
        res = ranges.rr_range(A)
        invs = np.linalg.inv(members)
        zs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n)).T.reshape(-1, n)
        rr_vals = 1.0 / np.abs(np.einsum("mij,zj->miz", invs, zs)).sum(axis=1).max(axis=1)
        if not _contains(res, rr_vals):
            failures.append(("tp-rr-contain",))

    _report(3, "eigen/singular/rho/norm/rr ranges", not failures)
    assert not failures, failures[:5]


# -- criterion 4: the running 2x2 counterexample ----------------------------

def test_criterion_4_counterexample_matrix():
    A = IntervalMatrix([[0, 1], [-1, 10]], [[10, 1], [-1, 10]])
    checks = {
        "not M": classify.is_m_matrix_interval(A).is_no,
        "not H": classify.is_h_matrix_interval(A).is_no,
        "midpoint H": classify.is_m_matrix_real(
            classify.comparison_matrix(IntervalMatrix.point(A.mid))).is_yes,
        "regular via oracle": False,
    }
    det_rng = oracle.det_range(A)
    checks["regular via oracle"] = det_rng.lo > 0 or det_rng.hi < 0
    ok = all(checks.values())
    _report(4, "counterexample: not M, not H, midpoint H, regular", ok,
            f"det range [{det_rng.lo:g}, {det_rng.hi:g}]")
    assert ok, checks


# -- criterion 5: cube hulls -------------------------------------------------

def test_criterion_5_cube_hulls():
    rng = np.random.default_rng(20240605)
    failures = []
    instances = []
    # the interior-extremum pattern from the running example
    instances.append(IntervalMatrix([[-1, 1], [1, 0]], [[1, 1], [1, 0]]))
    for i in range(99):
        n = 2 if i % 2 == 0 else 3
        mid = rng.uniform(-1.0, 1.0, (n, n))
        rad = np.zeros((n, n))
        varying = rng.choice(n, size=min(2, n), replace=False)
        for v in varying:
            rad[v, v] = rng.uniform(0.2, 1.0)
        instances.append(IntervalMatrix.from_midrad(mid, rad))
    for idx, A in enumerate(instances):
        hull = ranges.cube_hull_diag_interval(A)
        widths = np.diag(A.rad) * 2.0
        step = max(float(widths.max()) / 800.0, 1e-6)
        reference = oracle.cube_range(A, oracle.OracleConfig(grid_step=step))
        gap = max(float(np.max(np.abs(hull.lo - reference.lo))),
                  float(np.max(np.abs(hull.hi - reference.hi))))
        if gap > 1e-4:
            failures.append((idx, gap))
        if not (np.all(hull.lo <= reference.lo + 1e-12)
                and np.all(hull.hi >= reference.hi - 1e-12)):
            failures.append((idx, "not enclosing the inner grid"))
    _report(5, "cube hulls vs dense grid, 100 instances", not failures)
    assert not failures, failures[:3]


# -- criterion 6: powers ------------------------------------------------------

def test_criterion_6_power_hulls():
    rng = np.random.default_rng(20240606)
    failures = []
    for i in range(20):
        n = 2 if i % 2 == 0 else 3
        A = make_nonneg_instance(rng, n)
        members = oracle.sample_members(A, 500, rng)
        for k in (2, 3, 5):
            hull = ranges.power_hull(A, k)
            if not (np.allclose(hull.lo, np.linalg.matrix_power(A.lo, k))
                    and np.allclose(hull.hi, np.linalg.matrix_power(A.hi, k))):
                failures.append((i, k, "endpoints"))
            powered = members
            for _ in range(k - 1):
                powered = np.matmul(powered, members)
            scale = max(1.0, float(np.max(np.abs(hull.hi))))
            if not (np.all(powered >= hull.lo[None] - 1e-9 * scale)
                    and np.all(powered <= hull.hi[None] + 1e-9 * scale)):
                failures.append((i, k, "containment"))
    _report(6, "power hulls, k in {2,3,5}", not failures)
    assert not failures, failures[:3]


# -- criterion 7: parametric hulls and definiteness ---------------------------

def _grid_hull(P: ParametricSystem, step: float):
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


def _make_rank_one_system(rng, n, K):
    for _ in range(100):
        A0 = np.diag(rng.uniform(2.0, 3.0, n)) + rng.uniform(-0.2, 0.2, (n, n))
        b0 = rng.uniform(-1.0, 1.0, n)
        mats = [A0]
        vecs = [b0]
        lo = [1.0]
        hi = [1.0]
        for _ in range(K):
            u = rng.uniform(-1.0, 1.0, n)
            v = rng.uniform(-1.0, 1.0, n)
            mats.append(np.outer(u, v))
            vecs.append(np.zeros(n))
            center = rng.uniform(-0.3, 0.3)
            width = rng.uniform(0.05, 0.3)
            lo.append(center - width)
            hi.append(center + width)
        P = ParametricSystem(mats, vecs, IntervalVector(lo, hi))
        try:
            dets = [np.linalg.det(parametric.eval_parametric(P, p)[0])
                    for chunk in vertex_chunks(P.box.lo, P.box.hi, 1 << 10)
                    for p in chunk]
        except Exception:
            continue
        if min(np.abs(dets)) > 0.5 and len(set(np.sign(dets))) == 1:
            return P
    raise AssertionError("no rank-one system generated")


def _make_single_eq_system(rng, n, K):
    for _ in range(100):
        A0 = np.diag(rng.uniform(2.0, 3.0, n)) + rng.uniform(-0.2, 0.2, (n, n))
        b0 = rng.uniform(-1.0, 1.0, n)
        mats = [A0]
        vecs = [b0]
        lo = [1.0]
        hi = [1.0]
        for _ in range(K):
            row = int(rng.integers(0, n))
            Ak = np.zeros((n, n))
            Ak[row] = rng.uniform(-0.5, 0.5, n)
            bk = np.zeros(n)
            if rng.random() < 0.5:
                bk[row] = rng.uniform(-0.5, 0.5)
            mats.append(Ak)
            vecs.append(bk)
            center = rng.uniform(-0.3, 0.3)
            width = rng.uniform(0.05, 0.3)
            lo.append(center - width)
            hi.append(center + width)
        P = ParametricSystem(mats, vecs, IntervalVector(lo, hi))
        try:
            dets = [np.linalg.det(parametric.eval_parametric(P, p)[0])
                    for chunk in vertex_chunks(P.box.lo, P.box.hi, 1 << 10)
                    for p in chunk]
        except Exception:
            continue
        if min(np.abs(dets)) > 0.5 and len(set(np.sign(dets))) == 1:
            return P
    raise AssertionError("no single-equation system generated")


def test_criterion_7_parametric():
    rng = np.random.default_rng(20240607)
    failures = []

    for K in (1, 2, 3):
        for _ in range(3 if K == 3 else 6):
            n = int(rng.integers(2, 4))
            P = _make_rank_one_system(rng, n, K)
            res = parametric.hull_rank_one(P)
            lo, hi = _grid_hull(P, step=1e-2)
            if not (np.all(np.abs(res.hull.lo - lo) <= 1e-6)
                    and np.all(np.abs(res.hull.hi - hi) <= 1e-6)):
                failures.append(("rank-one", K))

    for K in (1, 2, 3):
        for _ in range(3 if K == 3 else 6):
            n = int(rng.integers(2, 4))
            P = _make_single_eq_system(rng, n, K)
            res = parametric.hull_orthant_lp(P)
            lo, hi = _grid_hull(P, step=1e-2)
            if not (np.all(np.abs(res.hull.lo - lo) <= 1e-6)
                    and np.all(np.abs(res.hull.hi - hi) <= 1e-6)):
                failures.append(("orthant-lp", K))

    for _ in range(20):
        n = int(rng.integers(2, 4))
        K = int(rng.integers(1, 4))
        mats = []
        for _ in range(K):
            G = rng.normal(size=(n, n))
            mats.append(0.5 * (G + G.T) + np.eye(n) * rng.uniform(0.0, 2.0))
        box = IntervalVector(rng.uniform(0.2, 0.8, K), rng.uniform(1.0, 1.8, K))
        P = ParametricSystem(mats, [np.zeros(n)] * K, box)
        rep = parametric.is_pd_parametric(P)
        if rep.is_yes:
            for _ in range(500):
                p = box.lo + (box.hi - box.lo) * rng.random(K)
                A, _ = parametric.eval_parametric(P, p)
                if np.min(np.linalg.eigvalsh(A)) <= 0:
                    failures.append(("pd-yes-violated",))
                    break
        else:
            A, _ = parametric.eval_parametric(P, rep.certificate["witness_vertex"])
            if np.min(np.linalg.eigvalsh(A)) > 1e-10:
                failures.append(("pd-no-witness",))

    _report(7, "parametric hulls vs dense grid + definiteness", not failures)
    assert not failures, failures[:3]


# -- criterion 8: derivative identities ---------------------------------------

def test_criterion_8_derivative_identities():
    rng = np.random.default_rng(20240608)
    failures = []
    h = 1e-6

    for trial in range(50):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        grad = kernel.det(a) * kernel.inverse(a).T
        i, j = rng.integers(0, n, 2)
        ap, am = a.copy(), a.copy()
        ap[i, j] += h
        am[i, j] -= h
        fd = (kernel.det(ap) - kernel.det(am)) / (2 * h)
        if not _rel_close(fd, grad[i, j], 1e-5):
            failures.append(("det", trial))

    for trial in range(50):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        inv = kernel.inverse(a)
        k, l = rng.integers(0, n, 2)
        ap, am = a.copy(), a.copy()
        ap[k, l] += h
        am[k, l] -= h
        fd = (kernel.inverse(ap) - kernel.inverse(am)) / (2 * h)
        formula = -np.outer(inv[:, k], inv[l, :])
        if np.max(np.abs(fd - formula)) > 1e-5 * max(1.0, np.max(np.abs(formula))):
            failures.append(("inverse", trial))

    for trial in range(50):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        a = a + a.T + np.diag(np.arange(n) * 4.0)  # well-separated spectrum
        vals, vecs = kernel.sym_eigh(a)
        i = int(rng.integers(0, n))
        x = vecs[:, i]
        jj, kk = rng.integers(0, n, 2)
        ap, am = a.copy(), a.copy()
        ap[jj, kk] += h
        am[jj, kk] -= h
        lp = np.sort(np.linalg.eigvals(ap).real)[::-1][i]
        lm = np.sort(np.linalg.eigvals(am).real)[::-1][i]
        fd = (lp - lm) / (2 * h)
        if abs(fd - x[jj] * x[kk]) > 1e-5:
            failures.append(("eig", trial))

    _report(8, "derivative identities, 50 trials each", not failures)
    assert not failures, failures[:5]


# -- criterion 9: conjecture probe --------------------------------------------

def test_criterion_9_conjecture_probe(tmp_path):
    rng = np.random.default_rng(20240609)
    counterexamples = []
    probes_run = 0
    for count, n in ((200, 2), (50, 3)):
        for _ in range(count):
            base = make_m_instance(rng, n)
            mid = kernel.inverse(base.lo)
            rad = rng.uniform(0.0, 0.6, (n, n)) * float(np.min(np.abs(mid)))
            A = IntervalMatrix.from_midrad(mid, rad)
            probe = classify.conjecture_check_inverse_m(A)
            probes_run += 1
            assert probe.reduced_verdict in ("yes", "no")
            assert probe.exhaustive_verdict in ("yes", "no")
            if not probe.consistent:
                counterexamples.append({
                    "lo": A.lo.tolist(),
                    "hi": A.hi.tolist(),
                    "reduced_verdict": probe.reduced_verdict,
                    "exhaustive_verdict": probe.exhaustive_verdict,
                })
    detail = "consistent on all families"
    if counterexamples:
        out = tmp_path / "inverse_m_conjecture_counterexamples.json"
        out.write_text(json.dumps({"seed": 20240609,
                                   "counterexamples": counterexamples}, indent=2))
        detail = f"{len(counterexamples)} counterexample(s) written to {out}"
    ok = probes_run == 250
    _report(9, "inverse-M reduction probe, 250 families", ok, detail)
    assert ok


# -- criterion 10: classification soundness -----------------------------------

def test_criterion_10_classification_soundness(class_pools):
    rng = np.random.default_rng(20240610)
    failures = []
    allowed_unknown = {"Regular", "PMatrixSpecialCase",
                       "PositiveDefiniteSufficient", "InverseM"}

    for class_name, pool in class_pools.items():
        for idx, A in enumerate(pool):
            reports = [
                classify.is_m_matrix_interval(A),
                classify.is_h_matrix_interval(A),
                classify.is_inverse_nonnegative_interval(A),
                classify.is_totally_positive_interval(A),
                classify.is_b_matrix_interval(A),
                classify.is_inverse_m_interval(A),
                classify.is_p_matrix_special(A),
                classify.is_regular_via_h(A),
            ]
            members = oracle.sample_members(A, 200, rng)
            vertices = np.concatenate(list(vertex_chunks(A.lo, A.hi, 1 << 16)))
            members = np.concatenate([members, vertices])
            for rep in reports:
                prop = _MEMBER_PROPERTY[rep.matrix_class]
                if rep.verdict == "unknown":
                    if rep.matrix_class not in allowed_unknown:
                        failures.append((class_name, idx, rep.matrix_class,
                                         "unexpected unknown"))
                    continue
                if rep.is_yes:
                    if not prop(members):
                        failures.append((class_name, idx, rep.matrix_class,
                                         "yes verdict violated by members"))
                else:
                    witness = rep.certificate.get("witness")
                    if witness is None:
                        # endpoint-style certificates: fall back to the
                        # stated endpoint matrix when present
                        witness = rep.certificate.get("endpoint_report")
                        failures.append((class_name, idx, rep.matrix_class,
                                         "no verdict without witness"))
                        continue
                    witness = np.asarray(witness)
                    if not A.contains_point(witness, tol=1e-9):
                        failures.append((class_name, idx, rep.matrix_class,
                                         "witness not a member"))
                    elif prop(witness[None]):
                        failures.append((class_name, idx, rep.matrix_class,
                                         "witness does not violate"))
    _report(10, "classification soundness, 200-member checks", not failures)
    assert not failures, failures[:5]
