import hashlib
import io
import json
import sys

import pytest

from rinehart import cli, presets
from rinehart.cli import (
    ReportTable,
    SpecFileError,
    main,
    parse_spec,
    presentation_from_dict,
    serialize,
)
from rinehart.lie_rinehart import CheckReport, check_axioms
from rinehart.linalg import NotAComplexError
from rinehart.quasimod import NonlinearRejection
from rinehart.uea import CocycleError


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_round_trip_serialization():
    for alg in (presets.weyl(2), presets.lie("sl2"),
                presets.arrangement(["x", "y", "y-x", "y+x"])):
        data = serialize(alg)
        back = presentation_from_dict(data)
        assert back.vars == alg.vars
        assert back.basis == alg.basis
        assert back.weights == alg.weights
        assert back.anchor == alg.anchor
        assert back.structure == alg.structure


def test_spec_file_parsing(tmp_path):
    spec = {
        "vars": ["x"],
        "rank": 1,
        "basis": ["e"],
        "anchor": [["1"]],
        "bracket": {},
        "weights": {"x": 1, "e": 1},
    }
    path = tmp_path / "weyl.json"
    path.write_text(json.dumps(spec))
    alg = parse_spec(str(path))
    assert check_axioms(alg).ok
    assert alg.anchor[0].images[0] == alg.one()


def test_spec_file_sl2(tmp_path):
    spec = {
        "vars": [],
        "rank": 3,
        "basis": ["e", "f", "h"],
        "anchor": [[], [], []],
        "bracket": {"0,1": ["0", "0", "1"], "0,2": ["-2", "0", "0"], "1,2": ["0", "2", "0"]},
        "weights": {"e": 1, "f": 1, "h": 1},
    }
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(spec))
    alg = parse_spec(str(path))
    assert check_axioms(alg).ok


def test_malformed_diagonal_bracket_rejected():
    with pytest.raises(SpecFileError, match="antisymmetry"):
        presentation_from_dict({
            "vars": ["x"],
            "rank": 2,
            "basis": ["a", "b"],
            "anchor": [["0"], ["0"]],
            "bracket": {"1,1": ["1", "0"]},
        })


def test_exit_code_two_on_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["--spec-file", str(bad), "check"])
    assert code == 2
    code, _ = run_cli(["--algebra", "unknown(3)", "check"])
    assert code == 2


def test_exit_code_zero_on_passing_check():
    code, out = run_cli(["--algebra", "weyl(1)", "check", "--ruth-cap", "2"])
    assert code == 0
    payload = json.loads(out)
    assert all(c["ok"] for c in payload["checks"])


def test_exit_code_one_on_failing_check(tmp_path):
    # sl2 with a flipped sign fails Jacobi
    spec = {
        "vars": [],
        "rank": 3,
        "basis": ["e", "f", "h"],
        "anchor": [[], [], []],
        "bracket": {"0,1": ["0", "0", "1"], "0,2": ["2", "0", "0"], "1,2": ["0", "2", "0"]},
    }
    path = tmp_path / "bad_sl2.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["--spec-file", str(path), "check"])
    assert code == 1
    payload = json.loads(out)
    assert any(not c["ok"] for c in payload["checks"])
    assert any("Jacobi" in c["detail"] for c in payload["checks"] if not c["ok"])


def test_cohomology_command_values():
    code, out = run_cli([
        "--algebra", "weyl(1)", "poisson-cohomology",
        "--max-weight", "8", "--max-degree", "2",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["totals_by_degree"] == {"0": 1, "1": 0, "2": 0}


def test_homology_and_cyclic_commands():
    code, out = run_cli(["--algebra", "weyl(1)", "poisson-homology", "--max-weight", "8"])
    assert code == 0
    assert json.loads(out)["summary"]["totals_by_degree"] == {"0": 0, "1": 0, "2": 1}
    code, out = run_cli(["--algebra", "weyl(1)", "cyclic", "--max-weight", "8", "--u-cap", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["stabilized"] is True
    totals = payload["summary"]["totals_by_degree"]
    assert totals.get("2") == 1 and totals.get("4") == 1 and "3" not in totals


def test_center_command():
    code, out = run_cli([
        "--algebra", "lie(sl2)", "center", "--filtration-cap", "2", "--max-weight", "2",
    ])
    assert code == 0
    summary = json.loads(out)["summary"]
    assert summary["dimension"] == 2
    assert summary["basis"] == ["(-1/2)*h + (1/4)*h^2 + (1)*e*f", "(1)"]


def test_verify_pbw_command_deterministic():
    argv = ["--algebra", "weyl(1)", "--seed", "7", "verify", "pbw", "--samples", "20"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_reports_byte_identical_across_runs():
    argv = ["--algebra", "lie(sl2)", "--seed", "3", "verify", "quasi", "--samples", "6"]
    outs = {run_cli(argv)[1] for _ in range(2)}
    assert len(outs) == 1


def test_csv_output_fixed_columns():
    code, out = run_cli([
        "--algebra", "weyl(1)", "--out", "csv", "poisson-cohomology",
        "--max-weight", "2", "--max-degree", "1",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "complex,weight,degree,dimension"
    assert lines[1].startswith("poisson-cochain,0,0,")


def test_ce_command_sl2():
    code, out = run_cli([
        "--algebra", "lie(sl2)", "ce", "--module", "trivial",
        "--max-weight", "0", "--max-degree", "3",
    ])
    assert code == 0
    rows = json.loads(out)["rows"]
    dims = {(r["weight"], r["degree"]): r["dimension"] for r in rows}
    assert [dims.get((0, m), 0) for m in range(4)] == [1, 0, 0, 1]


FLIPPED_SL2 = {
    "vars": [],
    "rank": 3,
    "basis": ["e", "f", "h"],
    "anchor": [[], [], []],
    "weights": {"e": 1, "f": 1, "h": 1},
    "bracket": {"0,1": ["0", "0", "1"], "0,2": ["2", "0", "0"], "1,2": ["0", "2", "0"]},
}


# the ids keep the names these cases had when the failure was an error line
@pytest.mark.parametrize("command, detail", [
    pytest.param(command, detail, id=f"{command}-error: {detail}")
    for command, detail in [
        ("poisson-cohomology", "d_2 o d_1 != 0"),
        ("ce", "d_2 o d_1 != 0"),
        ("poisson-homology", "d_1 o d_0 != 0"),
        ("cyclic", "d_1 o d_0 != 0"),
    ]
])
def test_broken_complex_exits_one(tmp_path, capsys, monkeypatch, command, detail):
    # sl2 with a flipped sign fails Jacobi, so its differentials do not square
    # to zero: a mathematical failure (exit 1), not a usage error (exit 2),
    # reported as the command's report with one failed `complex` check.
    # The table commands refuse it at the axiom check first; passing that
    # check here reaches the d o d check behind it.
    monkeypatch.setattr(cli, "check_axioms", lambda alg: CheckReport(True, ()))
    path = tmp_path / "flipped_sl2.json"
    path.write_text(json.dumps(FLIPPED_SL2))
    code, out = run_cli(["--spec-file", str(path), command])
    assert code == 1
    assert capsys.readouterr().err == ""
    payload = json.loads(out)
    assert payload["command"] == command
    assert payload["algebra"] == str(path)
    assert payload["checks"] == [{"name": "complex", "ok": False, "detail": detail}]
    assert payload["rows"] == []
    assert payload["summary"] == {}


def test_weights_given_as_list_exits_two(tmp_path, capsys):
    path = tmp_path / "list_weights.json"
    path.write_text(json.dumps({"vars": ["x"], "rank": 1, "basis": ["e"],
                                "anchor": [["1"]], "weights": [1, 1]}))
    with pytest.raises(SpecFileError, match="weights"):
        parse_spec(str(path))
    code, out = run_cli(["--spec-file", str(path), "check"])
    assert code == 2
    assert out == ""
    assert "weights" in capsys.readouterr().err


FAILS_ANCHOR_MORPHISM = {
    "vars": ["x"], "rank": 2, "basis": ["e", "f"], "anchor": [["1"], ["x^2"]],
    "weights": {"x": 1, "e": 1, "f": 1}, "bracket": {},
}


@pytest.mark.parametrize("command", [
    "poisson-cohomology", "poisson-homology", "cyclic", "ce", "center",
])
def test_table_commands_refuse_failed_axioms(tmp_path, capsys, command):
    path = tmp_path / "bad_anchor.json"
    path.write_text(json.dumps(FAILS_ANCHOR_MORPHISM))
    code, out = run_cli(["--spec-file", str(path), command])
    assert code == 1
    assert capsys.readouterr().err == ""
    payload = json.loads(out)
    failures = check_axioms(parse_spec(str(path))).failures
    assert payload["checks"] == [
        {"name": "axioms", "ok": False, "detail": "; ".join(failures)}
    ]
    assert payload["rows"] == []


@pytest.mark.parametrize("argv, message", [
    (["--algebra", "weyl()", "check"], "takes 1 argument"),
    (["--algebra", "lie()", "check"], "takes 1 argument"),
    (["--algebra", "semidirect(a,b,c)", "check"], "takes 1 to 2 argument"),
    (["--spec-file", "{missing}", "check"], "cannot read"),
])
def test_malformed_builtins_and_missing_files_exit_two(tmp_path, capsys, argv, message):
    argv = [a.replace("{missing}", str(tmp_path / "missing.json")) for a in argv]
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    ["verify", "quasi", "--samples", "-2"],
    ["verify", "quasi", "--samples", "0"],
    ["verify", "euler", "--max-degree", "-1"],
    ["verify", "euler", "--euler-cap", "-1"],
    ["poisson-cohomology", "--max-degree", "-1"],
    ["ce", "--max-degree", "-3"],
    ["center", "--filtration-cap", "-1"],
    ["check", "--ruth-cap", "-1"],
])
def test_negative_caps_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--algebra", "weyl(1)"] + argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_euler_element_acting_off_diagonal_fails_the_check(capsys):
    code, out = run_cli(["--algebra", "lie(sl2)", "verify", "euler", "--euler", "e"])
    assert code == 1
    assert capsys.readouterr().err == ""
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "euler-contraction-splits-weights" and not check["ok"]
    assert check["detail"] == "checked 0; {euler, f} = h is not a multiple of f"


def test_mathematical_errors_are_not_usage_errors():
    # `main` maps ValueError to exit 2, the usage-error code
    for exc in (CocycleError, NonlinearRejection, NotAComplexError):
        assert not issubclass(exc, ValueError)


def test_euler_element_in_an_unknown_variable_exits_two(capsys):
    code, out = run_cli(["--algebra", "lie(sl2)", "verify", "euler", "--euler", "Q"])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "unknown variable 'Q'" in err


def test_euler_check_output_is_pinned():
    # the Euler contraction, the Poisson differential and the Casimir search
    # on the four-line arrangement, byte for byte as first recorded
    code, out = run_cli(["--algebra", "arrangement(x,y,y-x,y+x)", "verify", "euler",
                         "--max-weight", "4", "--euler-cap", "4"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "45e81492b5492a85d9a5594bec6ed606a2f2f7ad92c068f6b59af5760a4a61b5")


@pytest.mark.parametrize("argv, exit_code, digest", [
    # the u-truncated mixed complex: boundary and d images, both u_cap runs
    (["--algebra", "weyl(1)", "cyclic", "--max-weight", "8", "--u-cap", "3"], 0,
     "c3a1fb5e20c8932d11b78bcdef373daf0cfac46e10ec4f4b36fe3bde3540b845"),
    # a bracket with non-constant coefficients, which no Weyl algebra has
    (["--algebra", "lie(sl2)", "poisson-homology", "--max-weight", "4"], 0,
     "a62ce37bbd76827edc77c049ff1b00a4a1de9acce6a98d9e36d1280341ed35d8"),
    # on weyl(1) the d column changes no dimension; here it does (and the
    # truncation has not stabilized, hence the exit code 1)
    (["--algebra", "lie(sl2)", "cyclic", "--max-weight", "4", "--u-cap", "2"], 1,
     "a6a080bc0bd91f19a1de9363382fe37c382bc4d4076795559fc677afcf71d718"),
])
def test_homology_tables_are_pinned(argv, exit_code, digest):
    code, out = run_cli(argv)
    assert code == exit_code and json.loads(out)["rows"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ce_without_weights_exits_two(tmp_path, capsys):
    path = tmp_path / "no_weights.json"
    path.write_text(json.dumps({"vars": ["x"], "rank": 1, "basis": ["e"],
                                "anchor": [["x^2"]], "bracket": {}}))
    code, out = run_cli(["--spec-file", str(path), "ce", "--max-weight", "2"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: presentation has no declared weights\n"
