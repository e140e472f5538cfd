"""API-surface guard: every public top-level function and class in
``src/driftlab/``, and every public method and property of those
classes, has a caller that is not a unit test.

A name counts as reached when code in ``src/driftlab/``, ``scripts/``,
``perfbench/`` or ``tests/test_acceptance.py`` names it outside its own
definition: as a name, an attribute, an imported name, or a string
constant (``perfbench/tracing.py`` wraps functions by attribute name).
A method's own definition is its body, so a call from another method
of its class counts. Names are matched, not types: any attribute of a
method's name reaches it. Code that only the unit tests reach gets a
real caller or is deleted.

Every name a ``src/driftlab`` module imports is also used in that
module, unless ``perfbench/tracing.py`` names it as a string: tracing
wraps a function in each module that calls it, so a module may import a
name only for tracing to find there. No module imports another module's
private (``_``-prefixed) name.

An MLP's graph forward, ``.forward(``, runs only where a gradient is
taken through its output; value-only forwards use ``mlp_forward``.

The CLI has one output path: each ``cmd_*`` in ``cli.py`` returns its
report and its text lines, and only ``main`` reads ``--format`` and
writes stdout.
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
    """``(path, scope)`` for each public top-level function and class,
    scope ``(name,)``, and each public method or property of a public
    class, scope ``(class, name)``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in _parse(path).body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")):
                continue
            yield path, (stmt.name,)
            if isinstance(stmt, ast.ClassDef):
                for node in stmt.body:
                    if (isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("_")):
                        yield path, (stmt.name, node.name)


def _scoped(stmt):
    """``(scope, node)`` pairs covering a top-level statement: scope is
    ``()`` for module-level code, ``(name,)`` for a function or the
    parts of a class outside its methods, and ``(class, method)`` for a
    method."""
    if isinstance(stmt, ast.FunctionDef):
        yield (stmt.name,), stmt
    elif isinstance(stmt, ast.ClassDef):
        for node in [*stmt.decorator_list, *stmt.bases, *stmt.keywords,
                     *stmt.body]:
            if isinstance(node, ast.FunctionDef):
                yield (stmt.name, node.name), node
            else:
                yield (stmt.name,), node
    else:
        yield (), stmt


def _mentions_by_scope():
    """``(path, scope) -> names`` over every caller file."""
    out = {}
    for path in CALLER_FILES:
        for stmt in _parse(path).body:
            for scope, node in _scoped(stmt):
                out.setdefault((path, scope), set()).update(_mentions(node))
    return out


def _unreached(methods):
    """Public definitions (methods, or top-level names) that no mention
    outside their own definition reaches. A top-level name's definition
    is its whole function or class; a method's is its own body."""
    mentions = _mentions_by_scope()
    return [
        f"{path.stem}.{'.'.join(scope)}"
        for path, scope in _public_definitions()
        if (len(scope) == 2) == methods
        and not any(scope[-1] in names for (where, owner), names in mentions.items()
                    if not (where == path and owner[:len(scope)] == scope))
    ]


def test_every_public_definition_has_a_caller_outside_the_unit_tests():
    unreached = _unreached(methods=False)
    assert not unreached, "only unit tests reach: " + ", ".join(unreached)


def test_every_public_method_has_a_caller_outside_the_unit_tests():
    unreached = _unreached(methods=True)
    assert not unreached, "only unit tests reach: " + ", ".join(unreached)


def _unused_imports(path, wrapped):
    """``module:line name`` for each name ``path`` imports and neither
    uses nor finds in ``wrapped``."""
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.stem}:{line} {name}" for name, line in imported.items()
            if name not in used and name not in wrapped]


def test_every_import_is_used():
    wrapped = {n.value for n in ast.walk(_parse(ROOT / "perfbench" / "tracing.py"))
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unused = [u for path in sorted(PACKAGE.glob("*.py"))
              for u in _unused_imports(path, wrapped)]
    assert not unused, "imported but unused: " + ", ".join(unused)


def test_no_module_imports_another_modules_private_name():
    private = [f"{path.stem}:{node.lineno} {alias.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(_parse(path))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or node.module.partition(".")[0] == "driftlab")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, "private name imported across modules: " + ", ".join(private)


def _writes_output(node):
    """Whether ``node`` names ``print``, ``stdout`` or ``args.format``."""
    if isinstance(node, ast.Name):
        return node.id in ("print", "stdout")
    return isinstance(node, ast.Attribute) and (
        node.attr == "stdout"
        or node.attr == "format" and isinstance(node.value, ast.Name)
        and node.value.id == "args")


def test_only_cli_main_writes_stdout():
    writers = [f"{stmt.name}:{node.lineno}"
               for stmt in _parse(PACKAGE / "cli.py").body
               if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("cmd_")
               for node in ast.walk(stmt) if _writes_output(node)]
    assert not writers, "a subcommand writes its own output: " + ", ".join(writers)


# The functions in src/driftlab whose graph forward a gradient is taken
# through.
GRAPH_FORWARD_CALLERS = {
    "pipeline.adversarial_step",
    "model.cross_entropy_loss",
    "dualcritic.dual_objective_graph",
    "dualcritic._input_gradient_graph",
    "cmi.BilinearScorer.objective_graph",
}


def test_graph_forward_runs_only_where_a_gradient_is_taken():
    callers = {".".join((path.stem, *scope))
               for path in sorted(PACKAGE.glob("*.py"))
               for stmt in _parse(path).body
               for scope, node in _scoped(stmt)
               for n in ast.walk(node)
               if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "forward"}
    stray = sorted(callers - GRAPH_FORWARD_CALLERS)
    assert not stray, "graph forward for a value only: " + ", ".join(stray)
