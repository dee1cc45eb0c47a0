"""Every top-level function, class and non-dunder method of the library is
used, and the ones that only tests and the bench use are a pinned list.

A name counts as used when it occurs in `src/`, `tests/` or `bench/` as a
name, an attribute or an imported name, or in `bench/` as an identifier
string (the bench wraps functions by their names as strings; elsewhere a
string such as a CLI argument is not a use).  A `def` line is none of these.
A test-only definition is one whose name no `src/` file uses.

Blind spot: a method counts as used when any object's attribute shares its
name, since the check reads names, not types.  `UEAElement.weight` counted
as used through `Polynomial.weight`, and `LieRinehartAlgebra.one` through
`EnvelopingAlgebra.one`, while only tests called them; a call trace of the
commands finds such a method, this test does not.
"""
import ast
from pathlib import Path

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


def _used_names(readers):
    used = set()
    for path in readers:
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


def _unused_in(readers):
    used = _used_names(readers)
    return [f"{module}:{qualname}" for module, qualname in _defined_names()
            if qualname.rsplit(".", 1)[-1] not in used]


def test_no_function_is_referenced_only_at_its_def():
    assert _unused_in(READERS) == []


# The definitions that only tests and the bench reach, each with the reason
# it stays in src/.  The way off this list is a CLI path, a merge into the
# path the CLI runs, or a move into tests/.
ITEM_5 = "ROADMAP item 5 puts it on the CLI path of `verify nonlinear`"
TEST_ONLY = {
    "linalg.py:ComplexSlice.dimensions": "bench/spans.py reads it",
    "homology.py:duality_cap_rank_check":
        "ROADMAP item 4 runs it from `verify duality` or moves it into tests/",
    "quasimod.py:ce_cohomology_matrix_module":
        "ROADMAP item 6 runs it from the HH*(U g) comparison suite",
    "pbwext.py:verify_morphism_chain": ITEM_5,
    "pbwext.py:morphism_membership_defect": ITEM_5,
    "quasimod.py:nl_membership": ITEM_5,
    "quasimod.py:multivector_to_nl": ITEM_5,
    "quasimod.py:nl_to_multivector": ITEM_5,
    "quasimod.py:linear_to_nonlinear": ITEM_5,
    "quasimod.py:nonlinear_to_linear": ITEM_5,
}


def test_test_only_definitions_are_the_pinned_list():
    found = set(_unused_in(SOURCES))
    assert sorted(found - TEST_ONLY.keys()) == [], "new test-only definitions"
    assert sorted(TEST_ONLY.keys() - found) == [], "no longer test-only: remove from TEST_ONLY"
    assert [name for name, reason in TEST_ONLY.items() if not reason.strip()] == []


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
