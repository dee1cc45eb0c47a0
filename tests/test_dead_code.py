"""Every definition of the library is used, and the ones that no command
runs are a pinned list.

Two checks.  The name scan: every top-level function, class and non-dunder
method is named somewhere other than at its def, counting a name, an
attribute or an imported name in `src/`, `tests/` or `bench/`, and in
`bench/` an identifier string (the bench wraps functions by their names as
strings; elsewhere a string such as a CLI argument is not a use).  The call
trace: a fixed list of CLI commands runs in-process under `sys.setprofile`,
and the definitions it never enters must be exactly `PINNED`.  The trace
sees every method, dunders included, since it matches the code object that
ran to its def by file and first line, not by name.
"""
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from rinehart import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "rinehart").glob("*.py"))
READERS = SOURCES + sorted(
    p for d in ("tests", "bench") for p in (ROOT / d).glob("*.py")
    if p.name != Path(__file__).name
)


def _defined_names():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node.name
            elif isinstance(node, ast.ClassDef):
                yield path.name, node.name
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield path.name, f"{node.name}.{item.name}"


def _used_names():
    used = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier() and path.parent.name == "bench":
                used.add(node.value)
    return used


def test_no_function_is_referenced_only_at_its_def():
    used = _used_names()
    assert [f"{module}:{qualname}" for module, qualname in _defined_names()
            if qualname.rsplit(".", 1)[-1] not in used] == []


# -- the call trace -----------------------------------------------------------

# (arguments, exit code): every command at small caps on three builtins, the
# Euler check, and spec files through the parser.  Five exit 1 by design:
# cyclic homology at u-cap 2 does not stabilize on the two Lie algebras,
# `e` does not act diagonally on sl2, and the spec file `broken` fails the
# anchor axiom.
COMMANDS = [
    (f"--algebra {alg} {command}", 1 if alg != "weyl(1)" and command.startswith("cyclic") else 0)
    for alg in ("weyl(1)", "lie(sl2)", "semidirect(sl2,std)")
    for command in (
        "check", "verify quasi --samples 2", "verify pbw --samples 2",
        "verify tower --samples 2", "verify eta --samples 2", "ce --max-weight 2",
        "poisson-cohomology --max-weight 2", "poisson-homology --max-weight 2",
        "cyclic --max-weight 2 --u-cap 2", "center --max-weight 2",
    )
] + [
    ("--algebra lie(sl2) ce --module sym-adjoint --max-weight 2", 0),
    ("--algebra weyl(1) --out csv poisson-homology --max-weight 1", 0),
    ("--algebra arrangement(x,y-x,y+x) verify euler --max-weight 1 --euler-cap 1", 0),
    ("--algebra lie(sl2) verify euler --euler e", 1),
    ("--spec-file {named} poisson-cohomology --max-weight 2", 0),
    ("--spec-file {broken} check", 1),
    ("--spec-file {broken} poisson-homology", 1),
]
SPECS = {
    "named": {"name": "x2", "vars": ["x"], "rank": 1, "basis": ["e"], "anchor": [["x^2"]],
              "weights": {"x": 1, "e": 1}},
    "broken": {"vars": ["x"], "rank": 2, "basis": ["e", "f"], "anchor": [["1"], ["x"]],
               "weights": {"x": 1, "e": -1, "f": 0}},
}

# The definitions that no command enters, each with the reason it stays in
# src/.  The way off this list is a CLI path, a merge into the path the CLI
# runs, or a move into tests/; an error path names the test that reaches it.
ITEM_5 = "ROADMAP item 5 puts it on the CLI path of `verify nonlinear`"
ITEM_5_CALLEE = "called only from the item 5 entries"
PINNED = {
    "linalg.py:ComplexSlice.dimensions": "bench/spans.py reads it",
    "linalg.py:SparseMatrixQ.entries": "bench/spans.py reads it",
    "homology.py:duality_cap_rank_check":
        "ROADMAP item 4 runs it from `verify duality` or moves it into tests/",
    "homology.py:duality_cap": "called only from duality_cap_rank_check",
    "linalg.py:rank": "called only from duality_cap_rank_check",
    "quasimod.py:ce_cohomology_matrix_module":
        "ROADMAP item 6 runs it from the HH*(U g) comparison suite",
    "pbwext.py:verify_morphism_chain": ITEM_5,
    "pbwext.py:morphism_membership_defect": ITEM_5,
    "quasimod.py:nl_membership": ITEM_5,
    "quasimod.py:multivector_to_nl": ITEM_5,
    "quasimod.py:nl_to_multivector": ITEM_5,
    "quasimod.py:linear_to_nonlinear": ITEM_5,
    "quasimod.py:nonlinear_to_linear": ITEM_5,
    "cochain.py:TableCochain.scale": ITEM_5_CALLEE,
    "pbwext.py:MorphismImage": ITEM_5_CALLEE,
    "pbwext.py:MorphismImage.__init__": ITEM_5_CALLEE,
    "pbwext.py:MorphismImage.phi": ITEM_5_CALLEE,
    "pbwext.py:_shuffles": ITEM_5_CALLEE,
    "pbwext.py:antisymmetrized_tower": ITEM_5_CALLEE,
    "pbwext.py:morphism_component": ITEM_5_CALLEE,
    "quasimod.py:NLCochainElement": ITEM_5_CALLEE,
    "quasimod.py:NLCochainElement.__init__": ITEM_5_CALLEE,
    "quasimod.py:NLCochainElement.evaluate": ITEM_5_CALLEE,
    "quasimod.py:NLCochainElement.phi": ITEM_5_CALLEE,
    "quasimod.py:_larg_element": ITEM_5_CALLEE,
    "quasimod.py:_larg_terms": ITEM_5_CALLEE,
    "quasimod.py:_largs_universe": ITEM_5_CALLEE,
    "quasimod.py:_split_entry": ITEM_5_CALLEE,
    "quasimod.py:nl_ce_apply": ITEM_5_CALLEE,
    "quasimod.py:peeled_value": ITEM_5_CALLEE,
    "homology.py:_label": "error path: tests/test_cli.py::"
                          "test_a_wrong_euler_weight_fails_with_labelled_witnesses",
    "linalg.py:NotAComplexError": "error path: tests/test_linalg.py::"
                                  "test_cohomology_rejects_non_complex",
    "linalg.py:NotAComplexError.__init__": "error path: tests/test_linalg.py::"
                                           "test_cohomology_rejects_non_complex",
    "lie_rinehart.py:LElement.__repr__": "error path: tests/test_quasimod.py::"
                                         "test_zeroed_homotopy_fails_with_witness",
    "lie_rinehart.py:CheckReport.__bool__":
        "without it a failing report is truthy, so `assert report` would pass silently",
    "poisson.py:LegTensor.__eq__": "value equality the tests compare with",
}


def _first_line(node):
    """The line a code object of the def starts at: its first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _trace_definitions():
    """{(file, first line): name} of every top-level function and method,
    dunders included, and {class name: names of its methods} of every class
    that owns code: a method, or the `__new__` that `NamedTuple` generates.
    An exception type with an empty body owns none, so no command can enter
    it."""
    functions, classes = {}, {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                functions[str(path), _first_line(node)] = f"{path.name}:{node.name}"
            elif isinstance(node, ast.ClassDef):
                methods = {f"{path.name}:{node.name}.{item.name}": _first_line(item)
                           for item in node.body if isinstance(item, ast.FunctionDef)}
                functions.update({(str(path), line): name for name, line in methods.items()})
                if methods or any(getattr(b, "id", None) == "NamedTuple" for b in node.bases):
                    classes[f"{path.name}:{node.name}"] = set(methods)
    return functions, classes


def _run_traced(commands):
    """Run each command through cli.main under sys.setprofile; the exit codes
    and stderr texts, and the names of the definitions some command entered.
    A class counts as entered through one of its methods, or through the
    `__new__` that `NamedTuple` generated for it (code without a source file,
    whose first argument is `_cls`)."""
    entered = {}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code not in entered:
            made = code.co_filename == "<string>" and "_cls" in frame.f_locals
            entered[code] = frame.f_locals["_cls"] if made else None

    results = []
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            outer = sys.getprofile()
            sys.setprofile(profile)
            try:
                exit_code = cli.main(argv)
            finally:
                sys.setprofile(outer)
        results.append((exit_code, err.getvalue()))
    functions, classes = _trace_definitions()
    lines = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}
    reached = {name for location, name in functions.items() if location in lines}
    reached |= {name for name, methods in classes.items() if methods & reached}
    reached |= {f"{cls.__module__.rsplit('.', 1)[-1]}.py:{cls.__qualname__}"
                for cls in entered.values() if cls is not None}
    defined = set(functions.values()) | set(classes)
    return results, defined - reached


def test_the_commands_enter_every_definition_but_the_pinned_ones(tmp_path):
    paths = {}
    for name, spec in SPECS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    argvs = [[a.format(**paths) for a in arguments.split()] for arguments, _ in COMMANDS]
    results, unreached = _run_traced(argvs)
    assert [(argv, code, err) for argv, (code, err), (_, want) in zip(argvs, results, COMMANDS)
            if (code, err) != (want, "")] == []
    assert sorted(unreached - PINNED.keys()) == [], "no command enters these: pin or delete"
    assert sorted(PINNED.keys() - unreached) == [], "a command enters these: unpin them"
    assert [name for name, reason in PINNED.items() if not reason.strip()] == []


def test_every_module_level_import_is_used():
    # a merge can leave an import behind; __init__.py's imports are re-exports
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}:{bound}")
    assert unused == []


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # each run of the CLI pays for its imports; dataclasses pulls in inspect,
    # and no class of the library needs either
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import rinehart.cli, rinehart.presets; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_the_package_exports_exactly_what_it_imports():
    # __init__.py's imports are re-exports, so each belongs in __all__ and
    # a name deleted from a module must leave both
    import rinehart
    tree = ast.parse((ROOT / "src" / "rinehart" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == sorted(rinehart.__all__)


def _random_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "Random"]


def test_every_law_check_draws_from_the_one_seeded_loop():
    # random.Random is called once in src/, in seeded_check, so that a new
    # law check runs through it instead of growing its own loop
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert sum(len(_random_calls(tree)) for tree in trees.values()) == 1
    (driver,) = [node for node in trees["lie_rinehart.py"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "seeded_check"]
    assert len(_random_calls(driver)) == 1


def test_the_ce_sum_is_called_from_its_one_home():
    # the total differential of the nonlinear cochains (both quasi-modules,
    # and the linear structure operator through it) runs the one CE sum; a
    # second copy of the total differential would add a caller.  The
    # honest-module slices enumerate only the sets a basis cochain reaches,
    # and test_quasimod's reference_ce_image, the CE sum over every set,
    # guards them
    callers = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and \
                        getattr(node.func, "attr", getattr(node.func, "id", None)) == "ce_terms":
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"quasimod.total_at"}
