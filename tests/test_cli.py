import json

import pytest

from ivmat import classify, ranges
from ivmat.cli import main
from ivmat.errors import ParseError
from ivmat.problems import parse_problem


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def m_matrix_file(tmp_path):
    return _write(tmp_path, "m.json", {
        "format_version": 1, "kind": "matrix",
        "entries": [[[2, 3], [-1, 0]], [[-1, 0], [2, 3]]],
    })


@pytest.fixture
def counterexample_file(tmp_path):
    return _write(tmp_path, "cx.json", {
        "format_version": 1, "kind": "matrix",
        "entries": [[[0, 10], 1], [-1, 10]],
    })


@pytest.fixture
def system_file(tmp_path):
    return _write(tmp_path, "sys.json", {
        "format_version": 1, "kind": "system",
        "A": [[[2, 3], [-1, 0]], [[-1, 0], [2, 3]]],
        "b": [[3, 6], [0, 3]],
    })


@pytest.fixture
def parametric_file(tmp_path):
    return _write(tmp_path, "par.json", {
        "format_version": 1, "kind": "parametric",
        "A_k": [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]],
        "b_k": [[0, 0], [0, 0], [1, 1]],
        "p": [[1, 2], [1, 2], 1],
    })


class TestParsing:
    def test_matrix_with_scalar_shorthand(self, tmp_path):
        path = _write(tmp_path, "a.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[3.0, [1, 2]], [[0, 0], -1]],
        })
        problem = parse_problem(path)
        assert problem.kind == "matrix"
        assert problem.matrix.entry(0, 0).lo == problem.matrix.entry(0, 0).hi == 3.0
        assert problem.matrix.entry(0, 1).hi == 2.0

    def test_lo_above_hi_names_entry(self, tmp_path):
        path = _write(tmp_path, "bad.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[[2, 1]]],
        })
        with pytest.raises(ParseError, match=r"entries\[0\]\[0\]"):
            parse_problem(path)

    def test_bad_version(self, tmp_path):
        path = _write(tmp_path, "v.json", {"format_version": 2, "kind": "matrix",
                                           "entries": [[1]]})
        with pytest.raises(ParseError, match="format_version"):
            parse_problem(path)

    def test_unknown_kind(self, tmp_path):
        path = _write(tmp_path, "k.json", {"format_version": 1, "kind": "tensor"})
        with pytest.raises(ParseError, match="kind"):
            parse_problem(path)

    def test_ragged_rows(self, tmp_path):
        path = _write(tmp_path, "r.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[1, 2], [3]],
        })
        with pytest.raises(ParseError, match="row length"):
            parse_problem(path)

    def test_system_dimension_mismatch(self, tmp_path):
        path = _write(tmp_path, "s.json", {
            "format_version": 1, "kind": "system",
            "A": [[1, 2], [3, 4]], "b": [1, 2, 3],
        })
        with pytest.raises(ParseError):
            parse_problem(path)

    def test_parametric_rejects_interval_coefficients(self, tmp_path):
        path = _write(tmp_path, "p.json", {
            "format_version": 1, "kind": "parametric",
            "A_k": [[[[0, 1]]]], "b_k": [[0]], "p": [[0, 1]],
        })
        with pytest.raises(ParseError, match="degenerate"):
            parse_problem(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json")
        with pytest.raises(ParseError):
            parse_problem(str(path))

    def test_symmetric_key_rejects_asymmetric_entries(self, tmp_path):
        path = _write(tmp_path, "s.json", {
            "format_version": 1, "kind": "matrix", "symmetric": True,
            "entries": [[2, 1], [0, 2]],
        })
        with pytest.raises(ParseError):
            parse_problem(path)


class TestCliCommands:
    def test_classify_counterexample(self, counterexample_file, capsys):
        assert main(["classify", counterexample_file]) == 0
        out = capsys.readouterr().out
        assert "M                              no" in out
        assert "H                              no" in out
        assert "Regular                        unknown" in out

    def test_range_det_text(self, m_matrix_file, capsys):
        assert main(["range", "det", m_matrix_file]) == 0
        out = capsys.readouterr().out
        assert "m-matrix-endpoints" in out
        assert "[3, 9]" in out

    def test_range_det_json_roundtrips_bit_exact(self, m_matrix_file, capsys):
        assert main(["range", "det", m_matrix_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format_version"] == 1
        A = parse_problem(m_matrix_file).matrix
        res = ranges.det_range(A)
        assert payload["result"]["value"][0] == res.value.lo  # bit-exact
        assert payload["result"]["value"][1] == res.value.hi
        again = json.loads(json.dumps(payload))
        assert again == payload

    def test_classify_json_roundtrips_a_probe_certificate(self, tmp_path, capsys):
        # the lower endpoint has A^-1 e = (-1, 1, 0): the A x = e probe declines it
        path = _write(tmp_path, "probe.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[[1, 1.5], 2, 0], [3, 4, 1], [0, 1, 1]],
        })
        assert main(["classify", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        reports = {r["class"]: r for r in payload["result"]}
        cert = reports["InverseNonnegative"]["certificate"]
        expected = classify.is_inverse_nonnegative_interval(
            parse_problem(path).matrix).certificate
        assert cert["reason"].startswith("lower endpoint is not monotone")
        assert cert["component"] == expected["component"]
        assert cert["x"] == expected["x"].tolist()  # bit-exact
        assert cert["witness"] == expected["witness"].tolist()
        assert json.loads(json.dumps(payload)) == payload

    def test_solve_auto_reports_strategy(self, system_file, capsys):
        assert main(["solve", system_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["method"].startswith("inverse-nonnegative")
        assert payload["result"]["exactness"] == "exact-hull"
        assert payload["result"]["hull"] == [[1.0, 5.0], [0.0, 4.0]]

    def test_solve_explicit_methods(self, system_file, capsys):
        for method in ("invnonneg", "ge", "hbrnk", "oracle"):
            assert main(["solve", system_file, "--method", method]) == 0
        capsys.readouterr()

    def test_param_pd_and_hull(self, parametric_file, capsys):
        assert main(["param", "hull", parametric_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        hull = payload["result"]["hull"]
        assert hull[0] == pytest.approx([0.0, 0.5], abs=1e-9)
        assert hull[1] == pytest.approx([0.5, 1.0], abs=1e-9)

    def test_range_norm_and_power_flags(self, tmp_path, capsys):
        path = _write(tmp_path, "n.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[[0, 1], [1, 2]], [[1, 2], [0, 1]]],
        })
        assert main(["range", "norm", path, "--which", "frobenius"]) == 0
        assert main(["range", "power", path, "--k", "2"]) == 0
        assert main(["range", "rho", path]) == 0
        capsys.readouterr()

    def test_range_eig_on_diag_interval(self, tmp_path, capsys):
        path = _write(tmp_path, "d.json", {
            "format_version": 1, "kind": "matrix", "symmetric": True,
            "entries": [[[1.5, 2.5], 1], [1, [1.5, 2.5]]],
        })
        assert main(["range", "eig", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = [r["value"] for r in payload["result"]]
        assert values[0] == pytest.approx([2.5, 3.5])
        assert values[1] == pytest.approx([0.5, 1.5])


class TestCliExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["classify", str(path)]) == 2
        capsys.readouterr()

    def test_missing_theorem_is_1(self, counterexample_file, capsys):
        assert main(["range", "det", counterexample_file]) == 1
        capsys.readouterr()

    def test_cap_exceeded_is_4(self, m_matrix_file, capsys):
        assert main(["verify", "--op", "det", m_matrix_file, "--cap", "2"]) == 4
        capsys.readouterr()

    def test_removed_flags_are_usage_errors(self, m_matrix_file, system_file,
                                            parametric_file, capsys):
        for argv in (["classify", m_matrix_file, "--tolerance", "1"],
                     ["solve", system_file, "--seed", "1"],
                     ["param", "pd", parametric_file, "--param-cap", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()

    def test_cap_reaches_param_and_norm(self, tmp_path, capsys):
        four_params = _write(tmp_path, "p4.json", {
            "format_version": 1, "kind": "parametric",
            "A_k": [[[1, 0], [0, 1]]] * 4, "b_k": [[0, 0]] * 4,
            "p": [[1, 2]] * 4,
        })
        assert main(["param", "pd", four_params, "--cap", "8"]) == 4
        assert main(["param", "pd", four_params, "--cap", "16"]) == 0
        nonneg = _write(tmp_path, "nn.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[[1, 2]] * 4] * 4,
        })
        assert main(["range", "norm", nonneg, "--which", "inf1", "--cap", "4"]) == 4
        assert main(["range", "norm", nonneg, "--which", "inf1", "--cap", "8"]) == 0
        capsys.readouterr()

    def test_wrong_kind_is_2(self, system_file, capsys):
        assert main(["range", "det", system_file]) == 2
        capsys.readouterr()

    def test_power_without_k_is_2(self, m_matrix_file, capsys):
        assert main(["range", "power", m_matrix_file]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("entries", [[[1, 2]], [[]]], ids=["1x2", "empty-row"])
    @pytest.mark.parametrize("command", [
        ["classify"], ["range", "det"], ["range", "eig"], ["range", "sigma"],
        ["range", "rho"], ["range", "rr"], ["range", "inverse"],
        ["range", "power", "--k", "2"], ["range", "cube"],
        ["verify", "--op", "det"], ["verify", "--op", "eig"], ["verify", "--op", "rho"],
        ["verify", "--op", "sigma"], ["verify", "--op", "rr"],
        ["verify", "--op", "inverse"], ["verify", "--op", "power", "--k", "2"],
        ["verify", "--op", "cube"],
    ], ids=" ".join)
    def test_non_square_matrix_is_2(self, tmp_path, capsys, command, entries):
        path = _write(tmp_path, "a.json", {"format_version": 1, "kind": "matrix",
                                           "entries": entries})
        assert main(command + [path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert ("square matrix" if entries[0] else "empty row") in err

    def test_norm_stays_defined_on_rectangular_matrices(self, tmp_path, capsys):
        path = _write(tmp_path, "a.json", {"format_version": 1, "kind": "matrix",
                                           "entries": [[1, [2, 3]]]})
        assert main(["range", "norm", path, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["result"]["value"] == [3.0, 4.0]
        assert main(["verify", "--op", "norm", path]) == 0
        capsys.readouterr()


class TestVerifyCommand:
    def test_det_passes(self, m_matrix_file, capsys):
        assert main(["verify", "--op", "det", m_matrix_file]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_solve_passes(self, system_file, capsys):
        assert main(["verify", "--op", "solve", system_file]) == 0
        capsys.readouterr()

    def test_cube_passes(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[[-1, 1], 1], [1, 0]],
        })
        assert main(["verify", "--op", "cube", path, "--grid-step", "0.002"]) == 0
        capsys.readouterr()

    def test_failed_comparison_exits_3(self, tmp_path, capsys):
        # a coarse grid misses the off-grid interior extremum, so an
        # absurdly tight tolerance must fail
        path = _write(tmp_path, "c2.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[[-1.05, 0.87], 1], [1, 0]],
        })
        assert main(["verify", "--op", "cube", path, "--grid-step", "0.1",
                     "--tolerance", "1e-12"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_eig_rho_sigma_norm_rr_pass(self, tmp_path, capsys):
        invn = _write(tmp_path, "i.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[[2, 3], [-1, 0]], [[-1, 0], [2, 3]]],
        })
        nonneg = _write(tmp_path, "nn.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[[0, 1], [1, 2]], [[1, 2], [0, 1]]],
        })
        diag = _write(tmp_path, "dg.json", {
            "format_version": 1, "kind": "matrix",
            "entries": [[[1.5, 2.5], 1], [1, [1.5, 2.5]]],
        })
        assert main(["verify", "--op", "eig", diag]) == 0
        assert main(["verify", "--op", "rho", nonneg]) == 0
        assert main(["verify", "--op", "sigma", invn]) == 0
        assert main(["verify", "--op", "norm", nonneg, "--which", "inf1"]) == 0
        assert main(["verify", "--op", "rr", invn]) == 0
        assert main(["verify", "--op", "inverse", invn]) == 0
        assert main(["verify", "--op", "power", nonneg, "--k", "3"]) == 0
        capsys.readouterr()


def test_verify_eig_tests_symmetry_once(tmp_path, capsys, monkeypatch):
    # the family's symmetry decides the eigenvalue routine for every sampled
    # member; testing it per member took 1,532 calls on a 3x3 file
    path = _write(tmp_path, "dg3.json", {
        "format_version": 1, "kind": "matrix",
        "entries": [[[1.5, 2.5], 1, 0.5], [1, [2.5, 3.0], 0.2], [0.5, 0.2, [3.5, 4.0]]],
    })
    assert main(["verify", "--op", "eig", path]) == 0
    expected = capsys.readouterr().out
    calls = []
    test = classify.is_symmetric_family

    def spy(A):
        calls.append(A)
        return test(A)

    monkeypatch.setattr(classify, "is_symmetric_family", spy)
    assert main(["verify", "--op", "eig", path]) == 0
    assert capsys.readouterr().out == expected
    assert len(calls) <= 2
    assert expected.count("PASS") == 9 and "FAIL" not in expected


def test_range_eig_falls_back_to_lambda_min(tmp_path, capsys, monkeypatch):
    # neither diagonally interval nor totally positive, but a symmetric inverse
    # nonnegative family: its smallest eigenvalue still has a range
    path = _write(tmp_path, "invn.json", {
        "format_version": 1, "kind": "matrix",
        "entries": [[2, [-1.2, -0.8]], [[-1.2, -0.8], 2]],
    })
    calls = []
    test = classify.is_inverse_nonnegative_interval

    def spy(A):
        calls.append(A)
        return test(A)

    monkeypatch.setattr(classify, "is_inverse_nonnegative_interval", spy)
    assert main(["range", "eig", path, "--format", "json"]) == 0
    (result,) = json.loads(capsys.readouterr().out)["result"]
    assert result["strategy"] == "inverse-nonnegative-endpoints-lambda-min"
    assert result["value"] == pytest.approx([0.8, 1.2], rel=1e-12)
    assert len(calls) == 1
    # a symmetric family outside the class keeps the eigenvalue refusal
    indefinite = _write(tmp_path, "indef.json", {
        "format_version": 1, "kind": "matrix",
        "entries": [[1, [1.5, 2.5]], [[1.5, 2.5], 1]],
    })
    assert main(["range", "eig", indefinite]) == 1
    assert capsys.readouterr().err == (
        "error: eigenvalue ranges need a diagonally interval symmetric family "
        "or a totally positive matrix\n")


def test_console_script_entry_point():
    import subprocess
    import sys
    res = subprocess.run([sys.executable, "-m", "ivmat.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "classify" in res.stdout


_IMPORT_PROBE = """
import contextlib, io, json, sys
import ivmat, ivmat.cli
from ivmat import kernel

def loaded():
    return {m: m in sys.modules
            for m in ("scipy.linalg", "scipy.linalg._flapack", "scipy.optimize")}

stages = {"import": loaded()}
for command in ("range eig", "classify"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ivmat.cli.main([*command.split(), sys.argv[1], "--format", "json"])
    stages[command] = dict(loaded(), exit=code)
kernel.solve([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0])
stages["solve"] = dict(loaded(), lapack=kernel._lapack().__name__)
kernel.lp_solve([1.0], bounds=[(0.0, 1.0)])
stages["lp_solve"] = loaded()
print(json.dumps(stages))
"""


def test_scipy_imported_only_when_a_solver_runs(tmp_path):
    import subprocess
    import sys
    path = _write(tmp_path, "d.json", {
        "format_version": 1, "kind": "matrix", "symmetric": True,
        "entries": [[[1.5, 2.5], 1], [1, [1.5, 2.5]]],
    })
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, path],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    stages = json.loads(res.stdout)
    none = {"scipy.linalg": False, "scipy.linalg._flapack": False, "scipy.optimize": False}
    assert stages["import"] == none
    # the LU loads SciPy's compiled LAPACK module alone, and enters nothing
    # in sys.modules
    assert stages["range eig"] == dict(none, exit=0)
    assert stages["classify"] == dict(none, exit=0)
    assert stages["solve"] == dict(none, lapack="scipy.linalg._flapack")
    assert stages["lp_solve"]["scipy.optimize"]


def test_classify_near_symmetric_box_reports_no_pd(tmp_path, capsys):
    # midpoint asymmetric by 5e-11: refused by the one symmetry predicate, so
    # the box is no symmetric family and gets no PD report
    path = _write(tmp_path, "near-sym.json", {
        "format_version": 1, "kind": "matrix",
        "entries": [[[1.9, 2.1], [-1.1, -0.9]],
                    [[-1.1 + 5e-11, -0.9 + 5e-11], [1.9, 2.1]]],
    })
    assert main(["classify", path, "--format", "json"]) == 0
    reports = {r["class"]: r for r in json.loads(capsys.readouterr().out)["result"]}
    assert "PositiveDefiniteSufficient" not in reports
    assert reports["SymmetricMidpoint"]["verdict"] == "no"
    assert reports["M"]["verdict"] == reports["H"]["verdict"] == "yes"
