"""End-to-end command line behavior, run in process through cli.main."""

import json

import numpy as np
import pytest

import spinplanar as sp
from spinplanar import cli
from conftest import haar_qls, latin5, tensor_biunitary, z3_latin


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")

    def dump(name, obj):
        path = root / name
        path.write_text(json.dumps(sp.qit_to_json(obj)))
        return str(path)

    out = {
        "fourier2": dump("fourier2.json", sp.fourier_hadamard(2)),
        "latin5": dump("latin5.json", latin5()),
        "qls5": dump("qls5.json", sp.latin_to_qls(latin5())),
        "dense_qls3": dump("dense_qls3.json", haar_qls(z3_latin(), 46)),
        "dense_qls5": dump("dense_qls5.json", haar_qls(latin5(), 47)),
        "ab": dump("ab.json", tensor_biunitary(2)),
        "ueb2": dump("ueb2.json", sp.ueb_clock_shift(2)),
        "allones": dump("allones.json", sp.HadamardMatrix(np.ones((3, 3)))),
        "not_hadamard": dump("not_hadamard.json", sp.HadamardMatrix(np.array([[1, 1], [1, 2]]))),
    }
    z3 = root / "z3.json"
    z3.write_text(json.dumps({"rows": sp.cyclic_table(3)}))
    out["z3"] = str(z3)
    bad = root / "badgroup.json"
    bad.write_text(json.dumps([[1, 2], [2, 3]]))
    out["badgroup"] = str(bad)
    broken = root / "broken.json"
    broken.write_text("{\n  nope\n}")
    out["broken"] = str(broken)
    return out


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_hadamard(files, capsys):
    code, out, _ = run(capsys, "check", "--input", files["fourier2"])
    assert code == 0
    assert "report: Hadamard matrix; {0,1}-biunitary in P_(2,+)" in out
    assert "verdict: PASS" in out


def test_check_latin_reports_qls(files, capsys):
    code, out, _ = run(capsys, "check", "--input", files["latin5"])
    assert code == 0
    assert "report: quantum Latin square; {0,1}-biunitary in P_(3,+)" in out


@pytest.mark.parametrize("name", ["dense_qls3", "dense_qls5"])
def test_check_dense_qls(files, capsys, name):
    # a Latin square's vectors turned by a Haar unitary pass the {0,1} certificate
    code, out, _ = run(capsys, "check", "--input", files[name])
    assert code == 0
    assert "verdict: PASS" in out


def test_check_biunitary_matrix(files, capsys):
    code, out, _ = run(capsys, "check", "--input", files["ab"])
    assert code == 0
    assert "{0,2}-biunitary in P_(4,+)" in out


def test_check_ueb(files, capsys):
    code, out, _ = run(capsys, "check", "--input", files["ueb2"])
    assert code == 0
    assert "unitary error basis; {A,R(4,+)} certificate in P_(4,+)" in out


def test_check_invalid_object(files, capsys):
    code, _, err = run(capsys, "check", "--input", files["allones"])
    assert code == 1
    assert "invalid:" in err


def test_check_json_format(files, capsys):
    code, out, _ = run(capsys, "check", "--input", files["qls5"], "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "qls" and payload["certificate"]["verdict"]
    assert set(payload["certificate"]["residuals"]) == {
        "uu*-1", "u*u-1", "rot(u)rot(u)*-1", "rot(u)*rot(u)-1"}



@pytest.mark.parametrize("text", [
    '{"type": "biunitary", "n": 1, "entries": [[1e999]]}',
    '{"type": "hadamard", "n": 2, "entries": [[1, 1], [1]]}',
    '{"type": "qls", "n": 2, "vectors": [[[1, 0], [0, 1]], [[0, 1], [1]]]}',
    '{"type": "latin", "n": 2, "rows": [[1, 2], [2, 1e30]]}',
    '{"type": "latin", "n": 2, "rows": [[1, 2], [2, 1.7]]}',
    '{"type": "hadamard", "n": 2, "entries": [[true, 1], [1, -1]]}',
    '{"type": "latin", "n": 2, "rows": [[true, 2], [2, 1]]}',
    '{"type": "hadamard", "n": 2.9, "entries": [[1, 1], [1, -1]]}',
    '{"type": "hadamard", "n": true, "entries": [[1]]}',
    '{"type": "hadamard", "n": 1, "entries": [[1' + "0" * 400 + ']]}',
    '{"type": "hadamard", "n": 1, "entries": [[1' + "0" * 5000 + ']]}',
], ids=["inf-entry", "ragged-entries", "ragged-vectors", "latin-1e30", "latin-fraction",
        "true-entry", "true-row", "fractional-n", "true-n", "int-beyond-float",
        "int-beyond-digit-limit"])
def test_malformed_object_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "input error:" in err


# ---------------------------------------------------------------------------
# convert


def test_convert_is_deterministic_and_faithful(files, capsys):
    code, out1, _ = run(capsys, "convert", "--input", files["fourier2"])
    assert code == 0
    code, out2, _ = run(capsys, "convert", "--input", files["fourier2"])
    assert out1 == out2
    element = sp.element_from_json(json.loads(out1))
    want = sp.from_hadamard(sp.fourier_hadamard(2))
    assert sp.coeff_distance(element, want) < 1e-15


def test_convert_invalid_object(files, capsys):
    code, out, err = run(capsys, "convert", "--input", files["allones"])
    assert code == 1
    assert out == ""
    assert "invalid:" in err


# ---------------------------------------------------------------------------
# qdims


def test_qdims_text(files, capsys):
    code, out, _ = run(capsys, "qdims", "--input", files["fourier2"],
                       "--max-level", "3")
    assert code == 0
    assert "kind: Hadamard matrix (n=2, k=2, l=1)" in out
    rows = [ln.split() for ln in out.splitlines()
            if ln.strip() and ln.strip()[0].isdigit()]
    dims = [int(r[1]) for r in rows if r[0] in "0123"]
    assert dims == [1, 1, 2, 4]
    assert "0-" in out  # the shaded level-0 row


def test_qdims_json_with_closure(files, capsys):
    code, out, _ = run(capsys, "qdims", "--input", files["fourier2"],
                       "--max-level", "2", "--closure", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["dim"] for row in payload["levels"]] == [1, 1, 2]
    assert payload["zero_minus"]["dim"] == 1
    assert payload["ell"] == 1 and payload["k"] == 2 and payload["n"] == 2
    assert payload["closure"]["ok"]


def test_qdims_rejects_ueb(files, capsys):
    code, _, err = run(capsys, "qdims", "--input", files["ueb2"])
    assert code == 2
    assert "not accepted" in err


def test_qdims_cap_refusal(files, capsys):
    code, _, err = run(capsys, "qdims", "--input", files["fourier2"],
                       "--max-level", "6", "--cap", "100")
    assert code == 3
    assert "resource refusal" in err and "above the cap 100" in err
    assert "--max-level" in err or "--cap" in err


def test_qdims_invalid_object(files, capsys):
    code, _, err = run(capsys, "qdims", "--input", files["allones"])
    assert code == 1
    assert "invalid:" in err


# ---------------------------------------------------------------------------
# group


def test_group_builtin(files, capsys):
    code, out, _ = run(capsys, "group", "--name", "Z3")
    assert code == 0
    assert "predicted dims: 1, 1, 3, 9" in out
    assert "computed dims:  1, 1, 3, 9" in out
    assert "verdict: PASS" in out


def test_group_table_file(files, capsys):
    code, out, _ = run(capsys, "group", "--input", files["z3"], "--max-level", "2")
    assert code == 0
    assert "group: table (order 3)" in out
    assert "verdict: PASS" in out


def test_group_json_payload(files, capsys):
    code, out, _ = run(capsys, "group", "--name", "Z2", "--max-level", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["computed"] == payload["predicted"] == [1, 1, 2]
    assert payload["verdict"]
    assert "X_g X_h = X_gh" in payload["checks"]


def test_group_bad_table(files, capsys):
    code, _, err = run(capsys, "group", "--input", files["badgroup"])
    assert code == 2
    assert "closure" in err


def test_group_missing_file(capsys):
    code, _, err = run(capsys, "group", "--input", "/does/not/exist.json")
    assert code == 2
    assert "input error:" in err


def test_group_broken_json_reports_line(files, capsys):
    code, _, err = run(capsys, "group", "--input", files["broken"])
    assert code == 2
    assert "input error:" in err and "line 2" in err


def test_group_needs_name_or_input(capsys):
    code, _, err = run(capsys, "group")
    assert code == 2
    assert "--name" in err


def test_group_name_and_input_are_exclusive(files, capsys):
    code, out, err = run(capsys, "group", "--name", "S3", "--input", files["badgroup"])
    assert code == 2
    assert "--name" in err and "--input" in err
    assert "verdict" not in out


# ---------------------------------------------------------------------------
# selftest and argument handling


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--spins", "2")
    assert code == 0
    assert "verdict: PASS" in out


def test_seed_belongs_to_selftest_only(files, capsys):
    code, _, err = run(capsys, "qdims", "--input", files["fourier2"], "--seed", "3")
    assert code == 2
    assert "--seed" in err
    code, out, _ = run(capsys, "selftest", "--seed", "3")
    assert code == 0
    assert "seed=3" in out and "verdict: PASS" in out


def test_selftest_json(capsys):
    code, out, _ = run(capsys, "selftest", "--spins", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] and len(payload["checks"]) == 10


def test_missing_input(capsys):
    code, _, err = run(capsys, "check")
    assert code == 2
    assert "--input is required" in err


def test_nonexistent_file(capsys):
    code, _, err = run(capsys, "check", "--input", "/does/not/exist.json")
    assert code == 2
    assert "input error:" in err


def test_broken_json_reports_line(files, capsys):
    code, _, err = run(capsys, "check", "--input", files["broken"])
    assert code == 2
    assert "line 2" in err


def test_bad_tolerance(files, capsys):
    code, _, err = run(capsys, "check", "--input", files["fourier2"], "--tol", "0")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("command", ["check", "qdims"])
def test_nonfinite_tolerance(files, capsys, command, tol):
    # [[1, 1], [1, 2]] is no Hadamard matrix; an infinite tolerance passed it
    code, out, err = run(capsys, command, "--input", files["not_hadamard"], "--tol", tol)
    assert code == 2
    assert "--tol must be positive and finite" in err
    assert out == ""


def test_closure_needs_two_levels(files, capsys):
    code, out, err = run(capsys, "qdims", "--input", files["fourier2"],
                         "--max-level", "0", "--closure")
    assert code == 2
    assert "--max-level" in err and "Traceback" not in err
    assert out == ""


def test_bad_max_level(files, capsys):
    code, _, err = run(capsys, "qdims", "--input", files["fourier2"],
                       "--max-level", "-1")
    assert code == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_bad_cap(files, capsys, cap):
    code, _, err = run(capsys, "qdims", "--input", files["fourier2"], "--cap", cap)
    assert code == 2
    assert "--cap must be positive" in err


def test_bad_spins(capsys):
    code, _, err = run(capsys, "selftest", "--spins", "0")
    assert code == 2
    assert "--spins must be positive" in err


def test_group_table_of_booleans(tmp_path, capsys):
    table = tmp_path / "bools.json"
    table.write_text("[[true]]")
    code, _, err = run(capsys, "group", "--input", str(table))
    assert code == 2
    assert "closure" in err


def test_unknown_command(capsys):
    code = cli.main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_help_exits_ok(capsys):
    code = cli.main(["--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "qdims" in out
