"""Command-line front end.

Commands: classify, range <characteristic>, solve, param <pd|hull>, and
verify --op <name> (formula vs. oracle comparison). Exit codes: 0 success,
1 precondition or no applicable theorem, 2 parse error, 3 numeric failure,
4 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import is_dataclass

import numpy as np

from . import classify, kernel, linsolve, oracle, parametric, ranges
from .classify import ClassReport
from .errors import (
    CapExceeded,
    CrossDependency,
    CycleLimit,
    EigenvectorSignAmbiguity,
    EmptySolutionSet,
    IvmatError,
    NoApplicableCase,
    NoApplicableTheorem,
    NonConvergence,
    NotSymmetric,
    OutOfBox,
    ParseError,
    PivotContainsZero,
    PreconditionViolated,
    RankTooHigh,
    SingularInside,
    SingularMatrix,
    SingularVertex,
    UnboundedSolutionSet,
)
from .intervals import DEFAULT_CAP, Interval, IntervalMatrix, IntervalVector, as_symmetric
from .linsolve import HullResult
from .problems import parse_problem
from .ranges import RangeResult, UpperBound

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CAP = 4

_PRECONDITION_ERRORS = (PreconditionViolated, NoApplicableTheorem,
                        NoApplicableCase, RankTooHigh, CrossDependency,
                        OutOfBox, EmptySolutionSet, UnboundedSolutionSet)
_NUMERIC_ERRORS = (SingularMatrix, SingularVertex, SingularInside,
                   NonConvergence, PivotContainsZero,
                   EigenvectorSignAmbiguity, CycleLimit, NotSymmetric)


def _jsonable(x):
    if isinstance(x, Interval):
        return [x.lo, x.hi]
    if isinstance(x, IntervalMatrix):
        return [[[float(x.lo[i, j]), float(x.hi[i, j])] for j in range(x.cols)]
                for i in range(x.rows)]
    if isinstance(x, IntervalVector):
        return [[float(x.lo[i]), float(x.hi[i])] for i in range(x.n)]
    if isinstance(x, RangeResult):
        return {"value": _jsonable(x.value), "strategy": x.strategy,
                "attainers": _jsonable(x.attainers)}
    if isinstance(x, UpperBound):
        return {"upper": x.value, "strategy": x.strategy,
                "attainer": _jsonable(x.attainer)}
    if isinstance(x, HullResult):
        return {"hull": _jsonable(x.hull), "method": x.method,
                "exactness": x.exactness, "details": _jsonable(x.details)}
    if isinstance(x, ClassReport):
        return {"class": x.matrix_class, "verdict": x.verdict,
                "certificate": _jsonable(x.certificate), "cost_note": x.cost_note}
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if is_dataclass(x) and not isinstance(x, type):
        return {k: _jsonable(v) for k, v in vars(x).items()}
    return x


def _emit(command: str, result, args) -> None:
    payload = {"format_version": 1, "command": command, "result": _jsonable(result)}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return
    _print_text(result)


def _fmt_interval(iv: Interval) -> str:
    return f"[{iv.lo:.12g}, {iv.hi:.12g}]"


def _print_text(result, indent: str = "") -> None:
    if isinstance(result, ClassReport):
        note = f"  ({result.cost_note})" if result.cost_note != "polynomial" else ""
        reason = result.certificate.get("reason") if result.certificate else None
        extra = f"  -- {reason}" if reason else ""
        print(f"{indent}{result.matrix_class:30s} {result.verdict}{note}{extra}")
    elif isinstance(result, RangeResult):
        if isinstance(result.value, Interval):
            print(f"{indent}range {_fmt_interval(result.value)}  "
                  f"strategy={result.strategy}")
        else:
            print(f"{indent}strategy={result.strategy}")
            _print_text(result.value, indent + "  ")
    elif isinstance(result, UpperBound):
        print(f"{indent}upper bound {result.value:.12g}  strategy={result.strategy}")
    elif isinstance(result, HullResult):
        print(f"{indent}hull ({result.exactness}, method={result.method}):")
        _print_text(result.hull, indent + "  ")
    elif isinstance(result, IntervalVector):
        for i in range(result.n):
            print(f"{indent}x[{i}] {_fmt_interval(result.entry(i))}")
    elif isinstance(result, IntervalMatrix):
        for i in range(result.rows):
            row = "  ".join(_fmt_interval(result.entry(i, j))
                            for j in range(result.cols))
            print(f"{indent}{row}")
    elif isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, (Interval, float, int, str)):
                text = _fmt_interval(value) if isinstance(value, Interval) else value
                print(f"{indent}{key}: {text}")
            else:
                print(f"{indent}{key}:")
                _print_text(value, indent + "  ")
    elif isinstance(result, (list, tuple)):
        for item in result:
            _print_text(item, indent)
    else:
        print(f"{indent}{result}")


def _require(problem, kind: str):
    if problem.kind != kind:
        raise ParseError(f"this command needs a {kind!r} problem file, "
                         f"got {problem.kind!r}")


def _matrix(problem, square: bool = True) -> IntervalMatrix:
    _require(problem, "matrix")
    A = problem.matrix
    if square and not A.is_square:
        raise ParseError(f"this command needs a square matrix, got {A.rows}x{A.cols}")
    return A


def _cmd_classify(args) -> int:
    A = _matrix(parse_problem(args.file))
    reports = classify.classify_all(A, cap_evals=args.cap)
    _emit("classify", reports, args)
    return EXIT_OK


def _rho_result(A: IntervalMatrix):
    try:
        return ranges.nonneg_ranges(A)["rho"]
    except PreconditionViolated:
        if (classify.is_diagonally_interval(A)
                and classify.is_symmetric_family(A)):
            return ranges.spectral_radius_max_diag_interval(A)
        raise


def _sigma_results(A: IntervalMatrix) -> dict:
    out = {}
    try:
        out["sigma_min"] = ranges.sigma_min_range(A)
    except PreconditionViolated:
        pass
    try:
        out["sigma_max"] = ranges.nonneg_ranges(A)["sigma_max"]
    except PreconditionViolated:
        pass
    if not out:
        raise NoApplicableTheorem(
            "no singular value range theorem applies to this matrix")
    return out


def _cmd_range(args) -> int:
    char = args.characteristic
    A = _matrix(parse_problem(args.file), square=char != "norm")
    if char == "det":
        result = ranges.det_range(A, cap_evals=args.cap)
    elif char == "eig":
        try:
            result = ranges.eig_ranges(A)
        except NoApplicableTheorem as exc:
            # symmetric inverse nonnegative families still get lambda_min
            try:
                result = [ranges.lambda_min_range_inverse_nonneg(A)]
            except PreconditionViolated:
                raise exc from None
    elif char == "sigma":
        result = _sigma_results(A)
    elif char == "rho":
        result = _rho_result(A)
    elif char == "norm":
        result = ranges.norm_range(A, which=args.which, cap_evals=args.cap)
    elif char == "rr":
        result = ranges.rr_range(A, cap_evals=args.cap)
    elif char == "inverse":
        result = ranges.inverse_bounds(A, cap_evals=args.cap)
    elif char == "power":
        if args.k is None or args.k < 1:
            raise ParseError("range power needs --k <positive integer>")
        result = {"hull": ranges.power_hull(A, args.k),
                  "strategy": "nonnegative-endpoint-powers", "k": args.k}
    elif char == "cube":
        result = {"hull": ranges.cube_hull_diag_interval(A),
                  "strategy": "diagonally-interval-entrywise-cube"}
    else:  # pragma: no cover - argparse restricts choices
        raise ParseError(f"unknown characteristic {char!r}")
    _emit(f"range {char}", result, args)
    return EXIT_OK


def _cmd_solve(args) -> int:
    problem = parse_problem(args.file)
    _require(problem, "system")
    cfg = oracle.OracleConfig(vertex_cap=args.cap)
    result = linsolve.solve_hull(problem.system, method=args.method,
                                 cap_evals=args.cap, cfg=cfg)
    if "warning" in result.details:
        print(f"warning: {result.details['warning']}", file=sys.stderr)
    _emit("solve", result, args)
    return EXIT_OK


def _cmd_param(args) -> int:
    problem = parse_problem(args.file)
    _require(problem, "parametric")
    P = problem.parametric
    if args.action == "pd":
        result = parametric.is_pd_parametric(P, cap_evals=args.cap)
    else:
        try:
            result = parametric.hull_rank_one(P, cap_evals=args.cap)
        except (RankTooHigh, CrossDependency):
            result = parametric.hull_orthant_lp(P, cap_evals=args.cap)
    _emit(f"param {args.action}", result, args)
    return EXIT_OK


# -- verify ------------------------------------------------------------

_VERIFY_DEFAULT_TOL = {"det": 1e-8, "solve": 1e-7, "cube": 1e-3}
_CONTAINMENT_SLACK = 1e-9


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _check(lines: list[str], label: str, ok: bool, detail: str = "") -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  {detail}" if detail else ""))
    return ok


def _verify_range_by_sampling(lines, label, result, f, A, cfg, tol) -> bool:
    """Containment of sampled values plus endpoint attainment at the attainers."""
    ok = True
    if isinstance(result, UpperBound):
        sampled = oracle.range_sampling(f, A, cfg)
        ok &= _check(lines, f"{label}: samples below the upper bound",
                     sampled.hi <= result.value + _CONTAINMENT_SLACK
                     + tol * max(1.0, abs(result.value)))
        ok &= _check(lines, f"{label}: upper bound attained",
                     _close(float(f(result.attainer)), result.value, tol))
        return ok
    sampled = oracle.range_sampling(f, A, cfg)
    slack = _CONTAINMENT_SLACK + tol * max(1.0, abs(result.value.lo),
                                           abs(result.value.hi))
    ok &= _check(lines, f"{label}: sampled values inside the range",
                 result.value.lo - slack <= sampled.lo
                 and sampled.hi <= result.value.hi + slack)
    ok &= _check(lines, f"{label}: lower endpoint attained",
                 _close(float(f(result.attainers["min"])), result.value.lo, tol))
    ok &= _check(lines, f"{label}: upper endpoint attained",
                 _close(float(f(result.attainers["max"])), result.value.hi, tol))
    return ok


def _verify(args) -> int:
    problem = parse_problem(args.file)
    cfg = oracle.OracleConfig(vertex_cap=args.cap, seed=args.seed,
                              grid_step=args.grid_step)
    tol = args.tolerance if args.tolerance is not None else \
        _VERIFY_DEFAULT_TOL.get(args.op, 1e-8)
    lines: list[str] = []
    ok = True
    op = args.op

    if op == "solve":
        _require(problem, "system")
        sys_ = problem.system
        result = linsolve.solve_hull(sys_, method=args.method, cap_evals=args.cap,
                                     cfg=cfg)
        reference = oracle.solution_hull(sys_.A, sys_.b, cfg)
        if result.exactness == linsolve.EXACT:
            same = all(_close(result.hull.lo[i], reference.lo[i], tol)
                       and _close(result.hull.hi[i], reference.hi[i], tol)
                       for i in range(sys_.n))
            ok &= _check(lines, "solve: hull equals the oracle hull", same)
        else:
            ok &= _check(lines, "solve: enclosure contains the oracle hull",
                         result.hull.contains_vector(reference,
                                                     tol=_CONTAINMENT_SLACK))
    else:
        A = _matrix(problem, square=op != "norm")
        if op == "det":
            result = ranges.det_range(A, cap_evals=args.cap)
            reference = oracle.det_range(A, cfg)
            ok &= _check(lines, "det: lower endpoint",
                         _close(result.value.lo, reference.lo, tol))
            ok &= _check(lines, "det: upper endpoint",
                         _close(result.value.hi, reference.hi, tol))
        elif op == "cube":
            hull = ranges.cube_hull_diag_interval(A)
            reference = oracle.cube_range(A, cfg)
            worst = max(float(np.max(np.abs(hull.lo - reference.lo))),
                        float(np.max(np.abs(hull.hi - reference.hi))))
            ok &= _check(lines, "cube: entrywise agreement with the grid oracle",
                         worst <= tol, f"worst deviation {worst:.3e}")
        elif op == "eig":
            results = ranges.eig_ranges(A)
            symmetric = classify.is_symmetric_family(A)
            target = as_symmetric(A) if symmetric else A
            eigenvalues = (kernel.sym_eigenvalues if symmetric
                           else kernel.real_eigenvalues_sorted)
            for i, res in enumerate(results):
                def f(m, i=i):
                    return float(eigenvalues(m)[i])
                ok &= _verify_range_by_sampling(lines, f"eig lambda_{i + 1}", res,
                                                f, target, cfg, tol)
        elif op == "rho":
            result = _rho_result(A)
            ok &= _verify_range_by_sampling(lines, "rho", result,
                                            kernel.spectral_radius, A, cfg, tol)
        elif op == "sigma":
            for name, res in _sigma_results(A).items():
                idx = -1 if name == "sigma_min" else 0
                ok &= _verify_range_by_sampling(
                    lines, name, res,
                    lambda m, idx=idx: float(kernel.singular_values(m)[idx]),
                    A, cfg, tol)
        elif op == "norm":
            result = ranges.norm_range(A, which=args.which, cap_evals=args.cap)
            ok &= _verify_range_by_sampling(
                lines, f"norm {args.which}", result,
                lambda m: kernel.matrix_norm(m, args.which, cap_evals=args.cap),
                A, cfg, tol)
        elif op == "rr":
            result = ranges.rr_range(A, cap_evals=args.cap)
            ok &= _verify_range_by_sampling(
                lines, "rr", result,
                lambda m: kernel.regularity_radius(m, cap_evals=args.cap), A, cfg, tol)
        elif op == "inverse":
            result = ranges.inverse_bounds(A, cap_evals=args.cap)
            rng = np.random.default_rng(cfg.seed)
            members = oracle.sample_members(A, cfg.samples, rng)
            hull = result.value
            contained = all(hull.contains_point(np.linalg.inv(m),
                                                tol=_CONTAINMENT_SLACK
                                                + tol * max(1.0, float(np.max(np.abs(hull.hi)))))
                            for m in members)
            ok &= _check(lines, "inverse: sampled member inverses inside the hull",
                         contained)
        elif op == "power":
            if args.k is None or args.k < 1:
                raise ParseError("verify --op power needs --k <positive integer>")
            hull = ranges.power_hull(A, args.k)
            rng = np.random.default_rng(cfg.seed)
            members = oracle.sample_members(A, cfg.samples, rng)
            slack = _CONTAINMENT_SLACK + tol * max(1.0, float(np.max(np.abs(hull.hi))))
            contained = all(hull.contains_point(np.linalg.matrix_power(m, args.k),
                                                tol=slack)
                            for m in members)
            ok &= _check(lines, f"power k={args.k}: sampled powers inside the hull",
                         contained)
        else:
            raise ParseError(f"unknown verify op {op!r}")

    for line in lines:
        print(line)
    if args.format == "json":
        print(json.dumps({"format_version": 1, "command": f"verify {op}",
                          "result": {"ok": ok, "checks": lines}}, indent=2))
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivmat",
        description="Recognize special interval matrix classes and compute "
                    "exact ranges, inverses, and solution-set hulls.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="max realizations any enumeration evaluates "
                            "(default 2^20)")

    p = sub.add_parser("classify", help="run every recognition test")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("range", help="range of a matrix characteristic")
    p.add_argument("characteristic",
                   choices=("det", "eig", "sigma", "rho", "norm", "rr",
                            "inverse", "power", "cube"))
    p.add_argument("file")
    p.add_argument("--which", default="inf",
                   choices=("inf", "one", "frobenius", "chebyshev", "inf1"))
    p.add_argument("--k", type=int, default=None, help="power exponent")
    common(p)
    p.set_defaults(func=_cmd_range)

    p = sub.add_parser("solve", help="interval hull of a linear system")
    p.add_argument("file")
    p.add_argument("--method",
                   choices=("auto", "invnonneg", "tp", "hbrnk", "ge",
                            "inversem", "oracle"),
                   default="auto")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("param", help="parametric analysis")
    p.add_argument("action", choices=("pd", "hull"))
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("verify", help="compare a formula against the oracle")
    p.add_argument("--op", required=True,
                   choices=("det", "solve", "cube", "eig", "rho", "sigma",
                            "norm", "rr", "inverse", "power"))
    p.add_argument("file")
    p.add_argument("--which", default="inf",
                   choices=("inf", "one", "frobenius", "chebyshev", "inf1"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--method",
                   choices=("auto", "invnonneg", "tp", "hbrnk", "ge",
                            "inversem", "oracle"),
                   default="auto")
    p.add_argument("--grid-step", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=None)
    common(p)
    p.set_defaults(func=_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IvmatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
