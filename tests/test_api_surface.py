"""API-surface guard: every public top-level function and class in
``src/driftlab/`` has a caller that is not a unit test.

A name counts as reached when code in ``src/driftlab/``, ``scripts/``,
``perfbench/`` or ``tests/test_acceptance.py`` names it outside its own
definition: as a name, an attribute, an imported name, or a string
constant (``perfbench/tracing.py`` wraps functions by attribute name).
Code that only the unit tests reach gets a real caller or is deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "driftlab"
CALLER_FILES = sorted([
    *PACKAGE.glob("*.py"),
    *(ROOT / "scripts").glob("*.py"),
    *(ROOT / "perfbench").glob("*.py"),
    ROOT / "tests" / "test_acceptance.py",
])


def _mentions(node):
    """Every identifier a subtree names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rpartition(".")[2]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                yield path, stmt.name


def _mentions_by_owner():
    """``(path, owner) -> names``: owner is the top-level definition a
    mention sits in, or None for module-level code."""
    out = {}
    for path in CALLER_FILES:
        for stmt in _parse(path).body:
            owner = (stmt.name if isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)) else None)
            out.setdefault((path, owner), set()).update(_mentions(stmt))
    return out


def test_every_public_definition_has_a_caller_outside_the_unit_tests():
    mentions = _mentions_by_owner()
    unreached = [
        f"{path.stem}.{name}"
        for path, name in _public_definitions()
        if not any(name in names for (where, owner), names in mentions.items()
                   if (where, owner) != (path, name))
    ]
    assert not unreached, "only unit tests reach: " + ", ".join(unreached)
