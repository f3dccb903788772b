"""The package names the benchmark under perfbench/ reads.

perfbench/tracer.py wraps package functions by (module, attribute) name, and
perfbench/child.py builds each sweep's config and fingerprint from a few
more.  A rename or deletion in the package would otherwise show only when a
benchmark run with --trace 1 fails; here it fails the package's own tests.
Nothing under perfbench/ is changed or run.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path

from voronoi_lab import _kernels, harness

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer() -> dict:
    """tracer.py's module namespace, compiled from its source (no bytecode is written).

    tracer.py imports only the standard library, so this runs nothing of the
    package's.
    """
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def _resolve(module: str, path: str):
    """The object the tracer patches: a class's own attribute, or a module's."""
    owner = importlib.import_module("voronoi_lab." + module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert attr in vars(owner), (module, path)
        return vars(owner)[attr]
    assert hasattr(owner, attr), (module, path)
    return getattr(owner, attr)


def test_every_traced_name_resolves():
    tracer = _tracer()
    tables = (tracer["TIMED"], tracer["COUNTED"], tracer["SPANS"])
    entries = [(module, path) for table in tables for _, module, path in table]
    assert entries
    for module, path in entries:
        assert callable(_resolve(module, path)), (module, path)
    for group, cached in tracer["CACHES"].items():
        for module, path in cached:
            assert callable(_resolve(module, path).cache_info), (group, module, path)


def test_traced_arguments_and_suite_builders_keep_their_places():
    # the tracer reads kloosterman_vector's q and kl_layer's units and m_prev
    # by position, and swaps each suite's builder with dataclasses.replace
    walk = list(inspect.signature(_resolve("exponential_sums", "kloosterman_vector")).parameters)
    assert walk[2] == "q"
    layer = list(inspect.signature(_resolve("_kernels", "kl_layer")).parameters)
    assert layer[0] == "units" and layer[3] == "m_prev"
    for spec in harness._SUITES.values():
        assert callable(dataclasses.replace(spec, builder=spec.builder).builder)


def test_names_the_benchmark_child_reads():
    # perfbench/child.py: SweepConfig(suite, ranges, seed, jobs) and the
    # dispatch fingerprint
    config = harness.SweepConfig(suite="hecke", ranges={}, seed=1, jobs=1)
    config.validate()
    assert isinstance(_kernels.HAVE_NUMBA, bool)
    assert isinstance(_kernels.USE_NUMBA, bool)
