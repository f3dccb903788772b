"""Source hygiene: no module keeps an import it never uses, and no private
(single-underscore) function, class, method or module-level name outlives
its last use."""

import ast
from pathlib import Path

import pytest

import voronoi_lab

MODULES = sorted(Path(voronoi_lab.__file__).parent.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import -> its line number."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in _imported(tree).items()
        if name not in used and name not in _exported(tree)
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private module-level names and method names the module defines -> line."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        found[n.id] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[item.name] = item.lineno
    return {name: line for name, line in found.items() if _private(name)}


def _references(tree: ast.Module) -> set[str]:
    """Names read as variables or attributes, or imported from a sibling."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name)
    return refs


def test_every_private_name_is_used_in_the_package():
    # a private helper whose callers were deleted is dead code; tests and the
    # benchmark do not count as uses
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set().union(*map(_references, trees.values()))
    unused = sorted(
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in used
    )
    assert not unused, f"private names defined but never used: {unused}"
