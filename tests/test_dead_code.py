"""Every top-level function and non-dunder method of the library is used.

A name counts as used when it occurs in `src/` or `tests/` anywhere other
than on its own `def` line.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "rinehart").glob("*.py"))


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


def test_no_function_is_referenced_only_at_its_def():
    text = "\n".join(
        p.read_text(encoding="utf-8")
        for p in SOURCES + sorted((ROOT / "tests").glob("*.py"))
        if p.name != Path(__file__).name
    )
    unused = []
    for module, qualname in _defined_names():
        name = qualname.rsplit(".", 1)[-1]
        uses = len(re.findall(rf"\b{re.escape(name)}\b", text))
        defs = len(re.findall(rf"\bdef {re.escape(name)}\b", text))
        if uses == defs:
            unused.append(f"{module}:{qualname}")
    assert unused == []
