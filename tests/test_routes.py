"""Route independence: the two sides of Thm. 3.1 read A through different code.

a_n reads A one scalar at a time through CoefficientSource.coefficient; b_n
reads sieved rows through CoefficientSource.coefficient_row.  A green
a_n = b_n record is evidence about the identity only while neither side
reaches the other's reader, so both are checked here on the source of
voronoi.py, following calls into the module's own functions.
"""

import ast
from pathlib import Path

import voronoi_lab

TREE = ast.parse((Path(voronoi_lab.__file__).parent / "voronoi.py").read_text(encoding="utf-8"))
FUNCTIONS = {node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef)}


def _reachable(name: str) -> list[ast.FunctionDef]:
    """name and every module-level function of voronoi.py it mentions, transitively."""
    seen, todo = {}, [name]
    while todo:
        fn = FUNCTIONS[todo.pop()]
        if fn.name in seen:
            continue
        seen[fn.name] = fn
        todo += [n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in FUNCTIONS]
    return list(seen.values())


def test_a_n_never_reads_a_coefficient_row():
    for fn in _reachable("a_n_coefficient"):
        refs = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
        refs |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        assert not refs & {"coefficient_row", "_coefficient_row"}, fn.name


def test_b_n_never_makes_a_scalar_coefficient_read():
    for fn in _reachable("b_n_coefficient"):
        calls = {
            n.func.attr
            for n in ast.walk(fn)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        }
        assert not calls & {"coefficient", "dual_coefficient"}, fn.name
