import hashlib
import io
import json
import re
import sys

import pytest

from rinehart import cli, homology, presets
from rinehart.cli import (
    ReportTable,
    SpecFileError,
    main,
    parse_spec,
    presentation_from_dict,
)
from rinehart.lie_rinehart import CheckReport, Connection, check_axioms
from rinehart.linalg import NotAComplexError
from rinehart.poisson import poisson_cohomology
from rinehart.poly import Polynomial
from rinehart.quasimod import NonlinearRejection, ruth_check


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def serialize(alg) -> dict:
    """A presentation in the spec-file format that `parse_spec` reads; the
    grammar is integral, so a non-integer coefficient is refused."""
    data = {
        "vars": list(alg.vars),
        "rank": alg.rank,
        "basis": list(alg.basis),
        "anchor": [[repr(im) for im in d.images] for d in alg.anchor],
        "bracket": {
            f"{i},{j}": [repr(c) for c in cs]
            for (i, j), cs in sorted(alg.structure.items())
        },
    }
    if alg.weights is not None:
        data["weights"] = dict(sorted(alg.weights.items()))
    for row in data["anchor"] + list(data["bracket"].values()):
        if any("/" in s for s in row):
            raise SpecFileError(
                "presentation has non-integer coefficients; the exchange grammar "
                "is integral (scale the basis to clear denominators)"
            )
    return data


def product(a: dict, b: dict) -> dict:
    """The spec of the product of two serialized presentations over the
    union of their variables: the second factor's names get a trailing
    underscore, each anchor row and bracket vector is padded with zeros
    for the other factor, and the weights are merged."""
    rename = {name: name + "_" for name in b["vars"] + b["basis"]}

    def renamed(row):
        return [re.sub(r"[A-Za-z_]\w*", lambda m: rename.get(m[0], m[0]), s) for s in row]

    n1, n2, r1, r2 = len(a["vars"]), len(b["vars"]), a["rank"], b["rank"]
    bracket = {key: row + ["0"] * r2 for key, row in a["bracket"].items()}
    for key, row in b["bracket"].items():
        i, j = (int(t) for t in key.split(","))
        bracket[f"{i + r1},{j + r1}"] = ["0"] * r1 + renamed(row)
    return {
        "vars": a["vars"] + renamed(b["vars"]),
        "rank": r1 + r2,
        "basis": a["basis"] + renamed(b["basis"]),
        "anchor": [row + ["0"] * n2 for row in a["anchor"]]
        + [["0"] * n1 + renamed(row) for row in b["anchor"]],
        "bracket": bracket,
        "weights": {**a["weights"], **{rename[k]: w for k, w in b["weights"].items()}},
    }


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


def n_coordinates(alg) -> int:
    return len(alg.vars) + alg.rank


# each table command with its chain sign s: +1 for cochains, -1 for chains
KUNNETH_TABLES = {
    "poisson-cohomology": (1, lambda alg, M: poisson_cohomology(alg, M, n_coordinates(alg))),
    "poisson-homology": (-1, homology.poisson_homology),
}


def convolved(command, a, b, wbr, max_weight) -> dict:
    """The convolution of the two factors' tables.  With the shifts
    t_i = s (wbr_i - wbr), an entry (W1, k1) of a and (W2, k2) of b land at
    (W1 + k1 t_1 + W2 + k2 t_2, k1 + k2): the product's slice weight is its
    element weight minus s times its degree times its bracket weight wbr.
    Each factor's table runs to max_weight minus the other factor's lowest
    slice weight, plus the most that the shifts move an entry, so it holds
    every entry that lands at a weight up to max_weight."""
    s, table = KUNNETH_TABLES[command]
    shift = {f: s * (f.bracket_weight() - wbr) for f in (a, b)}
    reach = sum(n_coordinates(f) * abs(t) for f, t in shift.items())
    ta, tb = (table(x, max_weight + reach - min(W for W, _ in table(y, max_weight)))
              for x, y in ((a, b), (b, a)))
    out: dict = {}
    for (W1, k1), d1 in ta.items():
        for (W2, k2), d2 in tb.items():
            key = W1 + k1 * shift[a] + W2 + k2 * shift[b], k1 + k2
            out[key] = out.get(key, 0) + d1 * d2
    return out


@pytest.mark.parametrize("command", sorted(KUNNETH_TABLES))
@pytest.mark.parametrize("first, second, max_weight", [
    ("lie(sl2)", "lie(abelian1)", 3),
    ("weyl(1)", "weyl(1)", 4),
    ("semidirect(sl2,std)", "lie(abelian1)", 2),
    ("lie(sl2)", "lie(sl2)", 2),
    # 8 symbol coordinates, two more than any builtin
    ("lie(sl2)", "semidirect(sl2,std)", 1),
])
def test_product_tables_are_the_convolution_of_the_factor_tables(command, first, second,
                                                                 max_weight):
    # Kunneth over Q: the symbol algebra of a product is the tensor product
    # of the factors' symbol algebras, and so are its complexes, slice by slice
    a, b = presets.builtin(first), presets.builtin(second)
    alg = presentation_from_dict(product(serialize(a), serialize(b)))
    table = KUNNETH_TABLES[command][1](alg, max_weight)
    weights = {W for W, _ in table}
    convolution = convolved(command, a, b, alg.bracket_weight(), max_weight)
    want = {key: dim for key, dim in convolution.items() if dim and key[0] in weights}
    assert {key: dim for key, dim in table.items() if dim} == want and want


@pytest.mark.parametrize("spec, digest", [
    ("weyl(1)",
     "4836bc89f94b80a08cb40ac65a6074393b49eb928681a7fa58e2dfab5404a86b"),
    ("weyl(2)",
     "f7709a565c681a82741e79521fb2383aacc3fef185d39bf0d3cd5383412413c1"),
    ("weyl(3)",
     "fd4feec8b9cb49284b1e8e61cbb752b353627cceff12609e3015aab2b5d15efe"),
    ("lie(sl2)",
     "b981e29a3ab7e370fb999a5b90e4143c66afb90808137875add824aaeaada2c2"),
    ("lie(abelian1)",
     "9b37705d7e698c4793f5f72fe7b52506d7c572b597b68e483e85b80e1d3f4e9c"),
    ("lie(abelian2)",
     "793c41d945c5e5d0a3fd9db06e293980093079e1fd9229888cbbe7f792cb55d4"),
    ("semidirect(sl2,std)",
     "2bbf09148968f9fefc8bfac5a72ca832b93644d5001d7a0e6de65e897736dbfe"),
    ("arrangement(x)",
     "e7972c8c87fc6477d7199240c865672aeed9983b6e8a0b08f22b078cbd094846"),
    ("arrangement(x,y)",
     "da03f0f1edb9128811780bd7e99cda6315a4462b7cf4ff924446391c35c56720"),
    ("arrangement(x,y-x,y+x)",
     "a47d7b2b31f10d645b3d1b329db70d111c51de6608e57096382ada5d324f1942"),
    ("arrangement(x,y,y-x,y+x)",
     "087d53c102ef21430ff9ed39b63d3624a3d2fb630fb2b890960cb1b326772217"),
])
def test_builtin_presentations_are_pinned(spec, digest):
    # every builtin's vars, basis, anchor, brackets, weights and name: the
    # bytes each downstream answer is computed from
    alg = presets.builtin(spec)
    text = json.dumps({**serialize(alg), "name": alg.name}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    assert alg.anchor[0].images[0] == Polynomial.const(alg.vars, 1)


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


def test_bracket_conflicting_with_its_mirror_exits_two(tmp_path, capsys):
    spec = {
        "vars": [], "rank": 3, "basis": ["e", "f", "h"], "anchor": [[], [], []],
        "bracket": {"0,1": ["0", "0", "1"], "1,0": ["0", "0", "1"]},
    }
    path = tmp_path / "mirror.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["--spec-file", str(path), "check"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "conflicts with its mirror" in err


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


# sl2 with a flipped sign fails Jacobi
BAD_SIGN_SL2 = {
    "vars": [],
    "rank": 3,
    "basis": ["e", "f", "h"],
    "anchor": [[], [], []],
    "bracket": {"0,1": ["0", "0", "1"], "0,2": ["2", "0", "0"], "1,2": ["0", "2", "0"]},
}


def test_exit_code_one_on_failing_check(tmp_path):
    path = tmp_path / "bad_sl2.json"
    path.write_text(json.dumps(BAD_SIGN_SL2))
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


@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=case) for case, field, value in [
        ("weights-list", "weights", [1, 1]),
        # {} declares no weight for x or e: a partial map, not a missing one
        ("weights-empty", "weights", {}),
        ("weights-null", "weights", {"x": None, "e": 1}),
        ("weights-float", "weights", {"x": 1.5, "e": 1}),
        ("weights-bool", "weights", {"x": True, "e": 1}),
        ("anchor-int", "anchor", 5),
        ("anchor-row-int", "anchor", [5]),
        ("bracket-list", "bracket", [1]),
        ("bracket-row-int", "bracket", {"0,0": 5}),
        ("vars-nested", "vars", [["x"]]),
        ("basis-string", "basis", "e"),
        ("rank-string", "rank", "1"),
        ("name-int", "name", 5),
        # names that no polynomial string can spell
        ("vars-two-names", "vars", ["x y"]),
        ("vars-digit-first", "vars", ["1x"]),
        ("vars-empty-name", "vars", [""]),
        ("vars-non-ascii", "vars", ["x\u00e9"]),
        ("basis-two-names", "basis", ["e f"]),
        ("basis-operator", "basis", ["e-f"]),
        ("basis-bad-character", "basis", ["e$"]),
    ]
])
def test_malformed_spec_field_exits_two(tmp_path, capsys, field, value):
    spec = {"vars": ["x"], "rank": 1, "basis": ["e"], "anchor": [["1"]], field: value}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SpecFileError, match=field):
        parse_spec(str(path))
    code, out = run_cli(["--spec-file", str(path), "check"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    if field in ("vars", "basis") and isinstance(value, list):
        assert all(repr(name) in err for name in value if isinstance(name, str))


@pytest.mark.parametrize("text", ["x^\u00b2", "x^\u0663", "\u0663*x"])
def test_non_ascii_digit_in_a_spec_polynomial_exits_two(tmp_path, capsys, text):
    # a superscript two once reached int() and left without the field context
    path = tmp_path / "digit.json"
    path.write_text(json.dumps({"vars": ["x"], "rank": 1, "basis": ["e"], "anchor": [[text]]}))
    code, out = run_cli(["--spec-file", str(path), "check"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: anchor[0]: bad character ")


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


@pytest.mark.parametrize("spec", [BAD_SIGN_SL2, FAILS_ANCHOR_MORPHISM])
def test_check_reports_the_square_witness_on_broken_specs(tmp_path, spec):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["--spec-file", str(path), "check"])
    assert code == 1
    (square,) = [c for c in json.loads(out)["checks"]
                 if c["name"] == "adjoint-complex-square-zero"]
    assert not square["ok"]
    assert square["detail"].startswith(
        "trial 0, seed=0: square of the structure operator is nonzero at total degree 0, "
        "basis tuple (0, 1): ")
    # seed 0 and one trial per degree replay the first witness
    replay = ruth_check(Connection(presentation_from_dict(spec)), seed=0, samples=1)
    assert replay.failures[0] == square["detail"].split("; ")[0]


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


def test_unknown_verify_suite_exits_two(capsys):
    # argparse refuses the suite before cmd_verify runs
    with pytest.raises(SystemExit) as exc:
        run_cli(["--algebra", "weyl(1)", "verify", "bogus"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in err and "Traceback" not in err


def test_euler_element_acting_off_diagonal_fails_the_check(capsys):
    code, out = run_cli(["--algebra", "lie(sl2)", "verify", "euler", "--euler", "e"])
    assert code == 1
    assert capsys.readouterr().err == ""
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "euler-contraction-splits-weights" and not check["ok"]
    assert check["detail"] == "checked 0; {euler, f} = h is not a multiple of f"


def test_a_wrong_euler_weight_fails_with_labelled_witnesses(monkeypatch, capsys):
    # one coordinate's weight off by one: the check stops at the third basis
    # multivector where the anticommutator is not weight*id, naming each
    eigenweights = homology._euler_eigenweights

    def shifted(P, euler):
        weights = eigenweights(P, euler)
        weights[0] += 1
        return weights

    monkeypatch.setattr(homology, "_euler_eigenweights", shifted)
    code, out = run_cli(["--algebra", "arrangement(x,y,y-x,y+x)", "verify", "euler",
                         "--max-weight", "1", "--euler-cap", "1"])
    assert code == 1
    assert capsys.readouterr().err == ""
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "euler-contraction-splits-weights" and not check["ok"]
    assert check["detail"] == (
        "checked 6; anticommutator is not weight*id on x|1 (weight 2); "
        "anticommutator is not weight*id on x*E|1 (weight 2); "
        "anticommutator is not weight*id on 1|dx (weight -2)")


def test_mathematical_errors_are_not_usage_errors():
    # `main` maps ValueError to exit 2, the usage-error code
    for exc in (NonlinearRejection, NotAComplexError):
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


def test_sym_adjoint_ce_output_is_pinned():
    # the coordinate action and the CE slices that visit only the sets a
    # basis cochain reaches, on sl2's symmetric algebra, byte for byte as
    # first recorded
    code, out = run_cli(["--algebra", "lie(sl2)", "ce", "--module", "sym-adjoint",
                         "--max-weight", "16"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5743f62749368a158117d23a6664ed50a877e4ede33afd2d5d0c9fbe0cb741c9")


@pytest.mark.parametrize("argv, exit_code, digest", [
    # the u-truncated mixed complex: b and d blocks, with the u_cap - 1 table
    # read from the leading columns of the same elimination
    (["--algebra", "weyl(1)", "cyclic", "--max-weight", "8", "--u-cap", "3"], 0,
     "c3a1fb5e20c8932d11b78bcdef373daf0cfac46e10ec4f4b36fe3bde3540b845"),
    # a bracket with non-constant coefficients, which no Weyl algebra has
    (["--algebra", "lie(sl2)", "poisson-homology", "--max-weight", "4"], 0,
     "a62ce37bbd76827edc77c049ff1b00a4a1de9acce6a98d9e36d1280341ed35d8"),
    # on weyl(1) the d column changes no dimension; here it does (and the
    # truncation has not stabilized, hence the exit code 1)
    (["--algebra", "lie(sl2)", "cyclic", "--max-weight", "4", "--u-cap", "2"], 1,
     "a6a080bc0bd91f19a1de9363382fe37c382bc4d4076795559fc677afcf71d718"),
    # four variables and three d columns; not stabilized, hence exit 1
    (["--algebra", "weyl(2)", "cyclic", "--max-weight", "1", "--u-cap", "3"], 1,
     "06c01a6203dc7cfc4a09743371d78375f4ab133d19103a1fc145efff93a29190"),
    # the multivector complex: the flat differential and its interiors
    (["--algebra", "semidirect(sl2,std)", "poisson-cohomology", "--max-weight", "4"], 0,
     "e242df209d54c7dcf33a66dfc3e72396855121acaaa2e1e84097e918a478d8b5"),
])
def test_homology_tables_are_pinned(argv, exit_code, digest):
    code, out = run_cli(argv)
    assert code == exit_code and json.loads(out)["rows"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("weyl(1)", "694dd7119e0e613534068aa84412a4bd84c4545b19d393b284ff06c4b32b7820"),
    ("weyl(2)", "d0d5465c909a14f6cdc053b802b88a830a0fe5ee898b7ad163eb40a1c2684a0f"),
    ("lie(sl2)", "1af637dff5b7cc26a3c05608fe5b7fec5242a3b5a44730b789ea3c52f0edb113"),
    ("lie(abelian2)", "a55639b70810f072c221f4c0454e00cbbbbb9edcf37f8ee726e18813aa69b382"),
    ("semidirect(sl2,std)", "2cdcf2fa3f93a791f1aaf3ae8fcf395440452d33650115902523a32e09ebbe39"),
    ("arrangement(x,y,y-x,y+x)",
     "171daaa0c982442e41dc21930fbe334e6aa6b27ee188fda13d5717f38324afd9"),
    ("arrangement(x,y-x,y+x)",
     "90fcc106c03790e7137fdfe3c3a8aa3a9ed5f0f80f706a0684bb30278bf51efb"),
])
def test_check_output_is_pinned(name, digest):
    # the axioms and the square of the structure operator on its
    # generator-degree <= 1 part, byte for byte as first recorded
    code, out = run_cli(["--algebra", name, "check"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, suite, digest", [
    ("weyl(1)", "quasi", "9ebe2c86be49bf93283942f7077c5fa1d88a4bacc11d62cfd39d388db0c7b214"),
    ("weyl(1)", "tower", "2a80e06efb0b5478f053015fe2128307faa6985d0740b80a97654c1bf856a77b"),
    ("weyl(1)", "pbw", "37d01bca24c2016143881e761cedfa0ae97bdd3af24a5253479792acf572f320"),
    ("weyl(1)", "eta", "21123d0723517bb1b9ff1bd8723588058edd3c78e7d31bc3d921781b3ac712e6"),
    ("weyl(2)", "quasi", "61c9f2d283335f53be51ebff4667bdeb9d9a200b5854b0bc23d9ae7f98e6f345"),
    ("weyl(2)", "tower", "d04d02c0fd93e27944c109be5bc07e32d84e67acfd50cab884bbe5e2e58410c7"),
    ("weyl(2)", "pbw", "a277bcf6266e1034b99bed5227c7b1b911205b06f36f7e2da26bb3811ed2ac46"),
    ("weyl(2)", "eta", "89c8478d8a19a5f0f93a3993a3862071e6b813df42839ef8408e59d4b7d1ecb1"),
    ("semidirect(sl2,std)", "quasi",
     "c8cc95fa93707999b13976fe64a7417dd38d8194dc6cd6c9f105ad5deac7dc85"),
    ("semidirect(sl2,std)", "tower",
     "179b3e98efb1b851a53bd904039648ee9e8cae7eb6f3f7169184f1508a83869b"),
    ("semidirect(sl2,std)", "pbw",
     "2582187cb1be2d5d86cb430dc0e2820601caa32379129fbbaab5b2e73f6c6738"),
    ("semidirect(sl2,std)", "eta",
     "797a74d6ca54f559bc5849ee00de5873b2e06d57e3ff07ce3161a98c90a3e2a8"),
    ("lie(sl2)", "quasi", "de9b4b0004919404de7e8638a5d6ff31b82dd083b17206d249dc34c2874b95b4"),
    ("lie(sl2)", "eta", "2089006690e088cfa0c819a75248d90f38a9d8174afdcbfa9e19bf4c974b25d4"),
    ("arrangement(x,y-x,y+x)", "quasi",
     "4717b9924962e9294ade29631adc2273224e5f793e9333a5c165bc06cea86586"),
    ("arrangement(x,y-x,y+x)", "eta",
     "974a21aae72ccaeb55d057578e1e106aaaa0b6c049d0d2afb18328779a81c4f9"),
])
def test_law_check_output_is_pinned(name, suite, digest):
    # the Hochschild and adjoint quasi-module laws, the PBW chain relation,
    # the tower identity and the eta tensors at seed 5, byte for byte as
    # first recorded; lie(sl2) and arrangement(x,y-x,y+x), whose generator E
    # has weight 0, cover the adjoint side on a Lie algebra and on a
    # presentation with a weight-zero direction
    code, out = run_cli(["--algebra", name, "--seed", "5", "verify", suite, "--samples", "6"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ce_without_weights_exits_two(tmp_path, capsys):
    path = tmp_path / "no_weights.json"
    path.write_text(json.dumps({"vars": ["x"], "rank": 1, "basis": ["e"],
                                "anchor": [["x^2"]], "bracket": {}}))
    code, out = run_cli(["--spec-file", str(path), "ce", "--max-weight", "2"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: presentation has no declared weights\n"


NOT_HOMOGENEOUS = {
    "anchor": ({"vars": ["x"], "rank": 1, "basis": ["e"], "anchor": [["x^2+x"]],
                "weights": {"x": 1, "e": 1}},
               "anchor image rho(e)(x) = x + x^2 is not weight homogeneous"),
    "zero-anchor": ({"vars": ["x"], "rank": 2, "basis": ["e", "f"], "anchor": [["0"], ["0"]],
                     "bracket": {"0,1": ["x+x^2", "0"]}, "weights": {"x": 1, "e": 1, "f": 1}},
                    "structure function c[e,f]^e = x + x^2 is not weight homogeneous"),
}


@pytest.mark.parametrize("command", ["check", "poisson-cohomology"])
@pytest.mark.parametrize("piece", sorted(NOT_HOMOGENEOUS))
def test_a_piece_that_is_not_weight_homogeneous_fails_the_axioms(tmp_path, capsys, piece,
                                                                  command):
    # the piece the bracket weight is read from has no weight: a failed
    # axiom that names it, not a usage error
    spec, detail = NOT_HOMOGENEOUS[piece]
    path = tmp_path / "inhomogeneous.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["--spec-file", str(path), command])
    assert code == 1 and capsys.readouterr().err == ""
    payload = json.loads(out)
    assert payload["checks"][0] == {"name": "axioms", "ok": False, "detail": detail}
    assert payload["rows"] == []


@pytest.mark.parametrize("suite", ["quasi", "pbw", "tower", "eta"])
def test_law_suites_pass_on_an_empty_basis(tmp_path, capsys, suite):
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({"vars": ["x"], "rank": 0, "basis": [], "anchor": [],
                                "weights": {"x": 1}}))
    code, out = run_cli(["--spec-file", str(path), "verify", suite, "--samples", "6"])
    assert code == 0 and capsys.readouterr().err == ""
    assert all(check["ok"] for check in json.loads(out)["checks"])


@pytest.mark.parametrize("command, digest", [
    ("check", "4250d94246ac1c3df66eede3d96602d94af28d037a44723cc897c47bf5020221"),
    ("poisson-cohomology", "5dbf46ec1b66eca284e6c395117393944c582e2932077aef78a5941e54ee968a"),
    ("poisson-homology", "2a947c2cb6b5d62d0a8a2fdbf0f4742db8222fd0212e0c6d3d2ba9155830c583"),
    ("cyclic", "1de403072b29e141aba6fa18d0640ca4d87ed3bd893d200e984e4f2e5e4856d6"),
    ("ce", "68ccce9a873b0bc9eabd707fc88311752cd504ec9d648bf83e50c9bf41622f78"),
    ("center", "492def6d75b1e31e8371e3f73ca79e789e67ede1c13732d954983591ac7cd49a"),
])
def test_empty_weights_on_no_names_are_declared_weights(tmp_path, capsys, command, digest):
    # with no variable and no basis element, {} declares the weight of
    # every name: the point Q, whose tables are the ones of a point
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vars": [], "rank": 0, "basis": [], "anchor": [],
                                "weights": {}, "name": "point"}))
    code, out = run_cli(["--spec-file", str(path), command])
    assert code in (0, 1) and capsys.readouterr().err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
