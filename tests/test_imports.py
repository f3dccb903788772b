"""Source hygiene: no module keeps an import it never uses, no private
(single-underscore) function, class, method or module-level name outlives
its last use, no public name lacks a reader in the package unless it is
listed, the package imports exactly its declared dependencies and nothing
under tests/, and no sweep loads scipy or imports a module mid-sweep."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import voronoi_lab
from voronoi_lab import harness

from test_benchmark_names import TRACER, _tracer

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

PACKAGE = Path(voronoi_lab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent


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


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level names and method names the module defines -> line."""
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
    return found


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _locals(node) -> set[str]:
    """Names a function (its parameters and what its own body binds) or a
    comprehension (its targets) binds in its own scope, less its globals."""
    if isinstance(node, _COMPREHENSIONS):
        targets = [n for gen in node.generators for n in ast.walk(gen.target)]
        return {n.id for n in targets if isinstance(n, ast.Name)}
    args = node.args
    params = (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
    bound = {a.arg for a in params if a}
    declared_global = set()
    todo = list(node.body) if isinstance(node.body, list) else [node.body]
    while todo:
        n = todo.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(n.name)  # its body is a scope of its own
            continue
        if isinstance(n, (ast.Lambda, *_COMPREHENSIONS)):
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del)):
            bound.add(n.id)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            bound.add(n.name)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in n.names)
        elif isinstance(n, ast.Global):
            declared_global.update(n.names)
        todo.extend(ast.iter_child_nodes(n))
    return bound - declared_global


def _references(tree: ast.Module) -> set[str]:
    """Names read as module-level variables or as attributes, or imported from a sibling.

    A name read inside a function or comprehension that binds it, as a
    parameter or a local, or inside one nested in such a scope, is that
    local and not the module-level name.  Decorators, defaults and
    annotations are read in the enclosing scope.
    """
    refs = set()

    def visit(node, bound):
        if isinstance(node, _FUNCTIONS):
            args = node.args
            outer = [*getattr(node, "decorator_list", ()), *args.defaults, *args.kw_defaults]
            outer += [a.annotation for a in ast.walk(args) if isinstance(a, ast.arg)]
            outer.append(getattr(node, "returns", None))
            for child in filter(None, outer):
                visit(child, bound)
            inner = bound | _locals(node)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, inner)
            return
        if isinstance(node, _COMPREHENSIONS):
            bound = bound | _locals(node)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if node.id not in bound:
                refs.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return refs


def test_references_skip_names_a_function_binds():
    # a public name read only as a parameter or local of the reading function
    # has no reader; one read at module level, through a default, in a nested
    # function or in a function that declares it global has
    tree = ast.parse(
        "def principal(chi):\n    return chi\n\n"
        "def refusal(s, principal):\n    return principal and s\n\n"
        "def local():\n    principal = 1\n    return [principal for _ in ()]\n"
    )
    assert "principal" not in _references(tree)
    for reader in (
        "x = principal(1)\n",
        "def f(p=principal):\n    return p\n",
        "def f():\n    def g():\n        return principal\n    return g\n",
        "def f():\n    global principal\n    principal = principal + 1\n",
    ):
        assert "principal" in _references(ast.parse("def principal(chi):\n    return chi\n" + reader))


def test_every_private_name_is_used_in_the_package():
    # a private helper whose callers were deleted is dead code; tests and the
    # benchmark do not count as uses
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set().union(*map(_references, trees.values()))
    unused = sorted(
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree).items()
        if _private(name) and name not in used
    )
    assert not unused, f"private names defined but never used: {unused}"


# Public names the package keeps with no reader of its own, beside the
# harness API and the names the benchmark resolves, each with its reason.
_KEPT = {"rankin_selberg_source": "ROADMAP item 9"}


def _benchmark_names() -> set[str]:
    """Every name perfbench/tracer.py patches and perfbench/child.py reads off a package module."""
    tracer = _tracer()
    paths = [path for table in ("TIMED", "COUNTED", "SPANS") for _, _, path in tracer[table]]
    paths += [path for cached in tracer["CACHES"].values() for _, path in cached]
    names = {part for path in paths for part in path.split(".")}
    child = ast.parse(TRACER.with_name("child.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(child)
        if isinstance(node, ast.ImportFrom) and node.module == PACKAGE.name
        for alias in node.names
    }
    return names | {
        n.attr
        for n in ast.walk(child)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules
    }


def test_every_public_name_has_a_reader_in_the_package():
    # a public function, class, method or module-level name that only tests
    # read is an oracle (tests/oracles.py) or dead code; the harness API and
    # the names the benchmark resolves are kept for their outside readers
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set().union(*map(_references, trees.values()))
    kept = set(harness.__all__) | _benchmark_names() | set(_KEPT)
    unused = sorted(
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree).items()
        if not name.startswith("_") and name not in used | kept
    )
    assert not unused, f"public names no package module reads: {unused}"


def test_the_package_imports_nothing_from_its_tests():
    # the oracles live under tests/, so no route of a sweep can reach one
    test_modules = {path.stem for path in TESTS.glob("*.py")}
    assert "oracles" in test_modules
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            hits = {name.split(".")[0] for name in names} & (test_modules | {TESTS.name})
            assert not hits, (path.name, node.lineno, hits)


def test_imports_match_the_declared_dependencies():
    # every non-stdlib module imported anywhere in the package, at top level
    # or inside a function, is a declared dependency, and every dependency is
    # imported somewhere
    imported = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {PACKAGE.name}
    requirements = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_") for req in requirements}
    assert third_party == declared


# Parameter names of the caller-owned stores the package threads through its
# functions; a default would let a caller drop sharing without noticing.
_STORE_PARAMS = {"store", "leaves", "weights", "values", "series"}


def _probed(fn: ast.AST) -> set[str]:
    """Dicts fn probes, as d.get(key) with one argument, key in d or key not in d."""
    found = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            if n.func.attr == "get" and len(n.args) == 1 and not n.keywords:
                found.add(ast.unparse(n.func.value))
        elif isinstance(n, ast.Compare):
            found.update(
                ast.unparse(right)
                for op, right in zip(n.ops, n.comparators)
                if isinstance(op, (ast.In, ast.NotIn))
            )
    return found


def _assigned(fn: ast.AST) -> set[str]:
    """Dicts fn assigns an entry of, as d[...] = ..."""
    return {
        ast.unparse(target.value)
        for n in ast.walk(fn)
        if isinstance(n, ast.Assign)
        for target in n.targets
        if isinstance(target, ast.Subscript)
    }


def test_every_memo_reads_through_stored():
    # a get/build/insert memo is numeric.stored's alone, and no store
    # parameter has a default
    memos, defaults = [], []
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if _probed(fn) & _assigned(fn):
                memos.append((path.name, fn.name, fn.lineno))
            args = fn.args
            positional = [*args.posonlyargs, *args.args]
            with_default = positional[len(positional) - len(args.defaults) :]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            defaults += [
                (path.name, fn.name, a.arg) for a in with_default if a.arg in _STORE_PARAMS
            ]
    assert [memo[:2] for memo in memos] == [("numeric.py", "stored")], memos
    assert not defaults, defaults


def test_the_memo_check_sees_each_probe_and_insert():
    # the check above is only as wide as these two readers
    fn = ast.parse(
        "def memo(key):\n"
        "    if key not in d:\n        d[key] = 1\n"
        "    if e.get(key) is None:\n        e[key] = 2\n"
        "    f.get(key, 0)\n    f[key] = 3\n"
        "    return g[key]\n"
    )
    assert _probed(fn) == {"d", "e"} and _assigned(fn) == {"d", "e", "f"}


# one tiny box per suite; the first three run straight after the harness import
TINY_BOXES = {
    "gauss-lemmas": {"cstar_max": 5, "c_max": 10, "m_max": 6, "n_max": 3},
    "kloosterman-average": {"degrees": [3], "c_max": 4, "q_max": 2},
    "voronoi-core": {"truncation_y": 200, "x_probe": 200},
    "hecke": {"draws": 5, "d3_check_max": 200},
    "equivalence": {"degrees": [3], "c_values": [4, 5], "coefficients": 20},
    "mobius": {"degrees": [3], "cstar_values": [3], "n_values": [2], "modulus_max": 8},
    "lfunc": {"cstar_max": 4},
}

_SWEEP_SCRIPT = """
import json, sys
from voronoi_lab.harness import SweepConfig, run_suite
added = {}
for suite, ranges in json.loads(sys.argv[1]).items():
    before = set(sys.modules)
    report = run_suite(SweepConfig(suite=suite, ranges=ranges, seed=1))
    assert report.cases and report.passed, suite
    added[suite] = sorted(set(sys.modules) - before)
print(json.dumps({"added": added, "loaded": sorted(sys.modules)}))
"""


def test_sweeps_load_no_scipy_and_import_nothing_mid_sweep():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT, json.dumps(TINY_BOXES)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    assert not [name for name in out["loaded"] if name.split(".")[0] == "scipy"]
    for suite in ("gauss-lemmas", "kloosterman-average", "voronoi-core"):
        assert out["added"][suite] == [], suite
