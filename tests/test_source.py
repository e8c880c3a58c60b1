"""Every private helper of the package is used by the package: a top-level
name of src/monoconn that starts with an underscore (dunders exempt) must be
read by package code other than its own definition.  A helper that only a
test still imports fails here; references belong in tests/oracles.py.
Every name a module imports is read in that module too (the package
__init__ re-exports its imports and is exempt)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "monoconn"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_private_helper_is_used_by_the_package():
    trees = {f.stem: ast.parse(f.read_text(encoding="utf-8")) for f in PACKAGE.glob("*.py")}
    helpers = {
        (module, name)
        for module, tree in trees.items() for stmt in tree.body for name in _defined(stmt)
        if _private(name)
    }
    used = set()
    for module, tree in trees.items():
        # a local name is this module's own definition or one imported from
        # a sibling module
        owner = {name: (module, name) for m, name in helpers if m == module}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    owner[alias.asname or alias.name] = (stmt.module, alias.name)
        for stmt in tree.body:
            own = set(_defined(stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in owner and not (owner[node.id][0] == module and node.id in own):
                        used.add(owner[node.id])
    assert len(helpers) > 40
    assert sorted(helpers - used) == []


# harness imports vertex_connectivity without calling it: the benchmark's
# trace wraps harness.vertex_connectivity (TRACE_TARGETS in perfbench/run.py)
UNREAD_IMPORTS = [("harness", "vertex_connectivity")]


def _imported(tree: ast.Module) -> list[str]:
    """The names a module's import statements bind, __future__ aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_every_import_is_read():
    unread = []
    for f in sorted(PACKAGE.glob("*.py")):
        if f.name == "__init__.py":
            continue
        tree = ast.parse(f.read_text(encoding="utf-8"))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [(f.stem, name) for name in _imported(tree) if name not in read]
    assert unread == UNREAD_IMPORTS
