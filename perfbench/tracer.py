"""Per-layer tracing of one sweep, installed from outside the package.

``Tracer.install()`` replaces the public functions of each ``voronoi_lab``
module with timing wrappers, in every module namespace that binds them (the
harness imports names directly, ``voronoi`` imports ``kloosterman_vector``,
``exponential_sums`` binds ``kl_layer``), and on the classes that own the
traced methods.  ``uninstall()`` puts every original back.  Nothing under
``src/`` changes.

Two kinds of record are kept in memory and written once, by ``dump()``:

* spans, with id, parent id, thread, start and end, for the coarse harness
  stages: ``run_suite``, the suite builder, each unit callable and the
  report serialization;
* per-(name, parent) aggregates of calls, total time and time inside wrapped
  children, for everything else.  Leaves called up to millions of times
  (``ComplexValue.__init__``, ``CoefficientSource.coefficient``,
  ``kloosterman_vector``, ``DirichletCharacter.__call__``, the residue
  helpers) are only aggregated.

A layer's self time is its total time minus the time of wrapped calls made
inside it.  Under ``jobs > 1`` the units run on pool threads, so times
include waits for the interpreter lock.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import statistics
import sys
import threading
import time

_now = time.perf_counter_ns

# (metric, module, attribute): timed and aggregated.  Several attributes may
# share one metric; "Class.method" names a method patched on its class.
TIMED = (
    ("characters.eval", "characters", "DirichletCharacter.__call__"),
    ("characters.enumerate", "characters", "enumerate_characters"),
    ("characters.enumerate", "characters", "primitive_characters"),
    *(
        ("residues", "residues", name)
        for name in (
            "factorize",
            "euler_phi",
            "mobius",
            "divisors",
            "divisor_count",
            "primes_up_to",
            "valuation",
            "inverse_mod",
            "crt_lift",
            "primitive_root",
            "unit_group",
            "unit_residues",
            "inverse_table",
        )
    ),
    ("exponential_sums.gauss_sum_vector", "exponential_sums", "gauss_sum_vector"),
    ("exponential_sums.gauss_closed", "exponential_sums", "gauss_sum_closed_lemma22"),
    ("exponential_sums.gauss_closed", "exponential_sums", "gauss_sum_closed_lemma23"),
    ("exponential_sums.lemma34", "exponential_sums", "average_kloosterman_closed_lemma34"),
    ("exponential_sums.kloosterman_vector", "exponential_sums", "kloosterman_vector"),
    ("kernels.kl_layer", "_kernels", "kl_layer"),
    ("hecke.coefficient", "hecke", "CoefficientSource.coefficient"),
    ("hecke.source_build", "hecke", "isobaric_source"),
    ("hecke.source_build", "hecke", "raw_table_source"),
    ("hecke.source_build", "hecke", "random_satake_source"),
    ("voronoi.rhs_coefficients", "voronoi", "voronoi_rhs_coefficients"),
    ("voronoi.hg_coefficients", "voronoi", "h_coefficients"),
    ("voronoi.hg_coefficients", "voronoi", "g_coefficients"),
    ("voronoi.hg_coefficients", "voronoi", "curly_h_coefficients"),
    ("voronoi.hg_coefficients", "voronoi", "curly_g_coefficients"),
    ("voronoi.additive_coefficients", "voronoi", "lq_additive_coefficients"),
    ("voronoi.a_n", "voronoi", "a_n_coefficient"),
    ("voronoi.b_n", "voronoi", "b_n_coefficient"),
    ("voronoi.b_n_tail", "voronoi", "b_n_tail_bound"),
    ("voronoi.z_probe", "voronoi", "z_probe"),
    ("voronoi.z_probe", "voronoi", "z_probe_bound"),
    ("lfunctions.l_value", "lfunctions", "twisted_l_isobaric"),
    ("lfunctions.l_value", "lfunctions", "dirichlet_l"),
    ("lfunctions.gamma", "lfunctions", "g_pm_eval"),
)

# Counted only: no clock reads, so they add the least to hot leaves.
COUNTED = (
    ("numeric.complex_value.inits", "numeric", "ComplexValue.__init__"),
    ("numeric.sum_error_bound.calls", "numeric", "sum_error_bound"),
)

# Harness stages recorded as full spans (and aggregated as well).
SPANS = (
    ("harness.run_suite", "harness", "run_suite"),
    ("harness.canonical_json", "harness", "canonical_json"),
    ("harness.serialize", "harness", "VerificationReport.to_canonical_json"),
)

# lru_cache counters read after the sweep, per ratio metric.
CACHES = {
    "characters": (("characters", "enumerate_characters"), ("characters", "primitive_characters")),
    "residues": tuple(
        ("residues", name) for name in ("unit_residues", "inverse_table", "factorize", "divisors")
    ),
    "gauss_sum_vector": (("exponential_sums", "gauss_sum_vector"),),
}

# The numpy kl_layer materializes three len(units) x m_prev temporaries per
# call: the int64 index matrix, the gathered complex128 roots and their
# complex128 product with the weights.
KL_LAYER_BYTES_PER_MADD = 8 + 16 + 16

# Per-layer metric names and units, in output order.  Each timed metric
# yields ".calls" and ".self_s".
_TIMED_METRICS = tuple(dict.fromkeys(m for m, _, _ in TIMED))
PER_LAYER_UNITS: dict[str, str] = {
    "harness.build_s": "s",
    "harness.units": "count",
    "harness.unit_ms.p50": "ms",
    "harness.unit_ms.p99": "ms",
    "harness.sort_key_s": "s",
    "harness.serialize_s": "s",
    "harness.records": "count",
    "harness.report_bytes": "bytes",
    "characters.cache_hit_ratio": "ratio",
    "characters.cache_lookups": "count",
    "residues.cache_hit_ratio": "ratio",
    "residues.cache_lookups": "count",
    "exponential_sums.gauss_sum_vector.hit_ratio": "ratio",
    "exponential_sums.kl_vector_reuse_ratio": "ratio",
    "exponential_sums.kl_vector_nonempty_calls": "count",
    "kernels.kl_layer.ops": "madd_computed",
    "kernels.kl_layer.bytes": "bytes_computed",
    **{f"{m}.{part}": unit for m in _TIMED_METRICS for part, unit in (("calls", "count"), ("self_s", "s"))},
    "numeric.complex_value.inits": "count",
    "numeric.sum_error_bound.calls": "count",
    "trace.sweep_s": "s",
    "trace.overhead_s": "s",
}


class _ThreadState:
    __slots__ = ("stack", "agg", "kernel_calls", "kernel_madds", "klv_nonempty", "klv_reused")

    def __init__(self):
        # Frames are [name, child_ns, span_id]; span_id is None for
        # aggregated-only frames and is inherited from the nearest span.
        self.stack: list[list] = []
        # (name, parent name) -> [calls, total_ns, child_ns]
        self.agg: dict[tuple, list[int]] = {}
        self.kernel_calls = 0
        self.kernel_madds = 0
        self.klv_nonempty = 0
        self.klv_reused = 0


def _lookup(owner, attr: str):
    # A class's own __dict__ entry, so that restoring it leaves no copy of
    # an inherited attribute behind.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Wraps voronoi_lab from outside; one instance traces one sweep."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._root_span: int | None = None
        self.spans: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[tuple[str, str], object] = {}

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, span: bool = False, root: bool = False, after=None):
        state = self._state
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            if span:
                span_id = next(ids)
                parent_span = parent[2] if parent is not None else self._root_span
            else:
                span_id = parent[2] if parent is not None else None
            frame = [name, 0, span_id]
            stack.append(frame)
            if root:
                # Units on pool threads start with an empty stack; their
                # parent is the sweep's root span.
                self._root_span = span_id
            kernels_before = st.kernel_calls
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                dt = t1 - t0
                stack.pop()
                key = (name, parent[0] if parent is not None else None)
                rec = st.agg.get(key)
                if rec is None:
                    rec = st.agg[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if parent is not None:
                    parent[1] += dt
                if root:
                    self._root_span = None
                if span:
                    spans.append(
                        {
                            "id": span_id,
                            "parent": parent_span,
                            "name": name,
                            "thread": threading.get_ident(),
                            "start_ns": t0,
                            "end_ns": t1,
                        }
                    )
                if after is not None:
                    after(st, args, kwargs, kernels_before)

        return functools.update_wrapper(wrapper, fn)

    def _counted(self, name: str, fn):
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            key = (name, stack[-1][0] if stack else None)
            rec = st.agg.get(key)
            if rec is None:
                rec = st.agg[key] = [0, 0, 0]
            rec[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    @staticmethod
    def _after_kl_layer(st, args, kwargs, _before):
        units = args[0] if args else kwargs["units"]
        m_prev = args[3] if len(args) > 3 else kwargs["m_prev"]
        st.kernel_calls += 1
        st.kernel_madds += len(units) * int(m_prev)

    @staticmethod
    def _after_kloosterman_vector(st, args, kwargs, before):
        q = args[2] if len(args) > 2 else kwargs["q"]
        if len(q) > 0:
            st.klv_nonempty += 1
            if st.kernel_calls == before:
                st.klv_reused += 1

    def _wrap_builder(self, builder):
        unit_span = functools.partial(self._timed, "harness.unit", span=True)

        def build(*args, **kwargs):
            return [unit_span(u) for u in builder(*args, **kwargs)]

        return self._timed("harness.build", functools.update_wrapper(build, builder), span=True)

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, _lookup(owner, attr)))
            setattr(owner, attr, new)

    def _install_one(self, module_name: str, path: str, make) -> None:
        module = sys.modules["voronoi_lab." + module_name]
        owner, attr = _resolve(module, path)
        original = _lookup(owner, attr)
        self._originals[(module_name, path)] = original
        wrapped = make(original)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapped)
            return
        # Rebind in every voronoi_lab module that holds this object.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "voronoi_lab" or mod_name.startswith("voronoi_lab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import voronoi_lab.harness as harness  # imports every traced module

        after = {
            "kernels.kl_layer": self._after_kl_layer,
            "exponential_sums.kloosterman_vector": self._after_kloosterman_vector,
        }
        for metric, module, path in TIMED:
            self._install_one(
                module, path, lambda f, m=metric: self._timed(m, f, after=after.get(m))
            )
        for metric, module, path in COUNTED:
            self._install_one(module, path, lambda f, m=metric: self._counted(m, f))
        for metric, module, path in SPANS:
            self._install_one(
                module,
                path,
                lambda f, m=metric: self._timed(m, f, span=True, root=m == "harness.run_suite"),
            )
        for name, spec in list(harness._SUITES.items()):
            self._patch(
                harness._SUITES,
                name,
                dataclasses.replace(spec, builder=self._wrap_builder(spec.builder)),
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def cache_info(self) -> dict:
        out = {}
        for group, entries in CACHES.items():
            hits = misses = 0
            for module, path in entries:
                info = self._originals[(module, path)].cache_info()
                hits += info.hits
                misses += info.misses
            out[group] = {"hits": hits, "misses": misses}
        return out

    def dump(self) -> dict:
        """Everything recorded, merged over threads, as one JSON-able dict."""
        agg: dict[tuple, list[int]] = {}
        counters = {"kernel_calls": 0, "kernel_madds": 0, "klv_nonempty": 0, "klv_reused": 0}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for key, rec in st.agg.items():
                acc = agg.setdefault(key, [0, 0, 0])
                for i in range(3):
                    acc[i] += rec[i]
            for key in counters:
                counters[key] += getattr(st, key)
        return {
            "spans": sorted(self.spans, key=lambda s: s["id"]),
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_ns": t, "child_ns": ch}
                for (n, p), (c, t, ch) in sorted(agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
            "counters": counters,
            "caches": self.cache_info(),
        }


# ---------------------------------------------------------------------------
# Per-layer metrics from a dump


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(dump: dict, report_bytes: int, records: int) -> dict[str, float]:
    """Per-layer metric values (without the trace.* pair) from ``dump()``."""
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    sort_key_ns = 0
    for a in dump["aggregates"]:
        n = a["name"]
        calls[n] = calls.get(n, 0) + a["calls"]
        total[n] = total.get(n, 0) + a["total_ns"]
        self_ns[n] = self_ns.get(n, 0) + a["total_ns"] - a["child_ns"]
        if n == "harness.canonical_json" and a["parent"] == "harness.run_suite":
            sort_key_ns += a["total_ns"]
    unit_ms = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in dump["spans"] if s["name"] == "harness.unit"]
    counters = dump["counters"]
    caches = dump["caches"]
    out = {
        "harness.build_s": total.get("harness.build", 0) / 1e9,
        "harness.units": len(unit_ms),
        "harness.unit_ms.p50": _percentile(unit_ms, 50) if unit_ms else 0.0,
        "harness.unit_ms.p99": _percentile(unit_ms, 99) if unit_ms else 0.0,
        "harness.sort_key_s": sort_key_ns / 1e9,
        "harness.serialize_s": total.get("harness.serialize", 0) / 1e9,
        "harness.records": records,
        "harness.report_bytes": report_bytes,
    }
    for group, prefix in (
        ("characters", "characters.cache"),
        ("residues", "residues.cache"),
    ):
        c = caches[group]
        out[prefix + "_hit_ratio"] = _ratio(c["hits"], c["hits"] + c["misses"])
        out[prefix + "_lookups"] = c["hits"] + c["misses"]
    g = caches["gauss_sum_vector"]
    out["exponential_sums.gauss_sum_vector.hit_ratio"] = _ratio(g["hits"], g["hits"] + g["misses"])
    out["exponential_sums.kl_vector_reuse_ratio"] = _ratio(
        counters["klv_reused"], counters["klv_nonempty"]
    )
    out["exponential_sums.kl_vector_nonempty_calls"] = counters["klv_nonempty"]
    out["kernels.kl_layer.ops"] = counters["kernel_madds"]
    out["kernels.kl_layer.bytes"] = counters["kernel_madds"] * KL_LAYER_BYTES_PER_MADD
    for m in _TIMED_METRICS:
        out[m + ".calls"] = calls.get(m, 0)
        out[m + ".self_s"] = self_ns.get(m, 0) / 1e9
    for m, _, _ in COUNTED:
        out[m] = calls.get(m, 0)
    return out

