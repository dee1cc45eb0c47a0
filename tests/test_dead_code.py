"""Every top-level function and non-dunder method of the library is used.

A name counts as used when it occurs in `src/`, `tests/` or `bench/` as a
name, an attribute or an imported name, or in `bench/` as an identifier
string (the bench wraps functions by their names as strings; elsewhere a
string such as a CLI argument is not a use).  A `def` line is none of these.
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
    unused = [f"{module}:{qualname}" for module, qualname in _defined_names()
              if qualname.rsplit(".", 1)[-1] not in used]
    assert unused == []
