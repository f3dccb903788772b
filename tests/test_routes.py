"""Route independence: the two sides of each identity read through different code.

a_n reads A one scalar at a time through CoefficientSource.coefficient; b_n
reads sieved rows through CoefficientSource.coefficient_row, whose base rows
take their Schur blocks from one batched elimination, not the scalar schur,
and no row entry is a scalar coefficient read.  The direct Kloosterman route
(the prefix-tree walk and the additive family built on it) sums the layers
itself and never reads a Gauss sum; the closed route and the H and G series
are built from Gauss sums and never sum a layer.  The Lemma 2.2/2.3 closed
rows read characters by exact scalar calls, not through the value vectors
the FFT Gauss sums use.  A green record is evidence about the identity only
while neither side reaches the other's code, so each route is checked here
on the package source, following the names it mentions into its own
module's functions and classes and, through "from .other import", into
those of sibling modules.

The small-size oracles the tests check these routes against (the nested
hyper_kloosterman, schur_bialternant, mpmath) live in tests/oracles.py.  The
package cannot import its tests (tests/test_imports.py checks that), so no
guard here keeps a route away from an oracle."""

import ast
import functools
from pathlib import Path

import voronoi_lab

PACKAGE = Path(voronoi_lab.__file__).parent


@functools.cache
def _module(module: str) -> tuple[dict[str, ast.AST], dict[str, tuple[str, str]]]:
    """The module-level functions and classes of module, and its sibling imports.

    The imports map each name bound by a module-level "from .other import x"
    to ("other.py", "x").
    """
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    imports = {
        alias.asname or alias.name: (node.module + ".py", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    return defs, imports


def _mentions(node: ast.AST) -> set[str]:
    """Names node mentions outside annotations, which are types, not calls."""
    skip = set()
    for n in ast.walk(node):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns is not None:
            skip.update(map(id, ast.walk(n.returns)))
        elif isinstance(n, ast.arg) and n.annotation is not None:
            skip.update(map(id, ast.walk(n.annotation)))
        elif isinstance(n, ast.AnnAssign):
            skip.update(map(id, ast.walk(n.annotation)))
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and id(n) not in skip}


def _resolve(module: str, name: str) -> tuple[str, str] | None:
    """(module, name) of the package definition that name means in module, if any."""
    defs, imports = _module(module)
    if name in defs:
        return module, name
    if name in imports:
        return _resolve(*imports[name])
    return None


def _reachable(module: str, name: str, stop: frozenset[str] = frozenset()) -> list[ast.AST]:
    """name and every package function or class it mentions, transitively.

    A mentioned name is followed into the module-level definition of the same
    module, or through a "from .other import" into the sibling module that
    defines it.  Names in stop may be mentioned but are not followed.
    """
    seen, todo = {}, [_resolve(module, name)]
    while todo:
        key = todo.pop()
        if key is None or key in seen:
            continue
        node = seen[key] = _module(key[0])[0][key[1]]
        todo += [_resolve(key[0], n) for n in _mentions(node) if n not in stop]
    return list(seen.values())


def _names(node: ast.AST) -> set[str]:
    refs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return refs | {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_route_walk_follows_sibling_imports_but_not_annotations():
    # the guards below are only as wide as this walk: the additive side must
    # be followed into the walk's own module and its kernel, while a type in
    # an annotation (VoronoiInstance, DirichletCharacter) is not a call
    reached = {node.name for node in _reachable("voronoi.py", "voronoi_rhs_coefficients")}
    assert {"kloosterman_vector", "_leaf_table", "kl_layer", "unit_residues"} <= reached
    assert not reached & {"VoronoiInstance", "DirichletCharacter"}


def test_a_n_never_reads_a_coefficient_row():
    for fn in _reachable("voronoi.py", "a_n_coefficient"):
        assert not _names(fn) & {"coefficient_row", "_coefficient_row"}, fn.name


def _method_calls(node: ast.AST) -> set[str]:
    """The attribute names node calls, as in x.name(...)."""
    return {
        n.func.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    }


def test_b_n_never_makes_a_scalar_coefficient_read():
    for fn in _reachable("voronoi.py", "b_n_coefficient"):
        assert "coefficient" not in _method_calls(fn), fn.name


def test_coefficient_rows_never_make_a_scalar_coefficient_read():
    # the row tests compare every row with scalar coefficient reads, so no
    # row entry may be one
    source = _module("hecke.py")[0]["CoefficientSource"]
    methods = {n.name: n for n in source.body if isinstance(n, ast.FunctionDef)}
    for name in ("coefficient_row", "_base_row", "_slot_blocks"):
        assert "coefficient" not in _method_calls(methods[name]), name


def test_satake_arrays_are_never_read_through_the_scalar_view():
    # the builders and the batched blocks are checked bit for bit against
    # per-prime scalar loops, so none of them may read one prime at a time
    defs = _module("hecke.py")[0]
    init = next(n for n in defs["SatakeParams"].body if getattr(n, "name", None) == "__init__")
    source = {n.name: n for n in defs["CoefficientSource"].body if isinstance(n, ast.FunctionDef)}
    for fn in (
        source["_slot_blocks"],
        defs["isobaric_params"],
        defs["random_satake"],
        defs["rankin_selberg_params"],
        init,
    ):
        assert "alphas_at" not in _method_calls(fn), fn.name


def test_batched_schur_never_reaches_the_scalar_schur():
    # the batch is checked bit for bit against schur, so it must not call it
    for fn in _reachable("hecke.py", "_schur_batch"):
        assert not _names(fn) & {"schur", "_hvec", "_det_fraction_free"}, fn.name


def test_direct_kloosterman_route_never_reaches_a_gauss_sum():
    gauss = {"gauss_sum", "gauss_sum_vector", "gauss_sum_rows", "tau"}
    for module, name in (
        ("exponential_sums.py", "kloosterman_vector"),
        ("voronoi.py", "voronoi_rhs_coefficients"),
        ("voronoi.py", "lq_additive_coefficients"),
    ):
        for node in _reachable(module, name):
            refs = _names(node)
            assert not refs & gauss, (name, node.name, refs & gauss)
            assert not [r for r in refs if "lemma34" in r], (name, node.name)


def test_closed_kloosterman_route_never_reaches_a_layered_sum():
    direct = {"kloosterman_vector", "kl_layer", "_leaf_table"}
    for node in _reachable("exponential_sums.py", "average_kloosterman_closed_lemma34_table"):
        refs = _names(node)
        assert not refs & direct, (node.name, refs & direct)


def test_gauss_sum_side_never_reaches_the_additive_side():
    # the equivalence suite checks character averages of the additive family
    # against h and g, so neither may be built from Kloosterman sums
    additive = {
        "kloosterman_vector",
        "kl_layer",
        "kloosterman_divisor_chains",
        "lq_additive_coefficients",
        "voronoi_rhs_coefficients",
    }
    series = ("h_coefficients", "g_coefficients", "curly_h_coefficients", "curly_g_coefficients")
    for name in series:
        for node in _reachable("voronoi.py", name):
            refs = _names(node)
            assert not refs & additive, (name, node.name, refs & additive)


def test_g_series_reads_its_gauss_sums_from_the_lemma34_gather():
    # g takes its layer factors and tails from _lemma34_factors, the gather the
    # closed Kloosterman route reads; no scalar Gauss sum is left to reach
    reached = {node.name for node in _reachable("voronoi.py", "g_coefficients")}
    assert {"_lemma34_factors", "_lemma34_product", "_chain_rows"} <= reached
    for node in _reachable("voronoi.py", "g_coefficients"):
        assert "gauss_sum" not in _names(node), node.name


def test_closed_gauss_rows_read_characters_only_through_scalar_calls():
    # Lemma 2.2/2.3 rows are checked against gauss_sum_rows, the FFT of the
    # induced characters' values read off the turn tables at m_c = lambda(c);
    # the rows may use the FFT only for tau(chi*), through tau or through
    # _taus, which test_exponential_sums pins to tau's bits.
    direct = {
        "turn_table",
        "value_vector",
        "induce",
        "gauss_sum_rows",
        "gauss_sum_vector",
        "gauss_sum",
        "carmichael",
    }
    for name in ("gauss_sum_closed_lemma22_rows", "gauss_sum_closed_lemma23_rows"):
        for node in _reachable("exponential_sums.py", name, stop=frozenset({"tau", "_taus"})):
            refs = _names(node)
            assert not refs & direct, (name, node.name, refs & direct)
