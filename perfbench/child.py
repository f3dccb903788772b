"""One sweep in a fresh interpreter; started by run.py, one process per sample.

    python3 perfbench/child.py --spec JSON [--setup-only] [--report PATH] [--trace-out PATH]

The spec is ``{"suite", "ranges", "seed", "jobs"}``.  The child imports
``voronoi_lab.harness``, builds and validates a ``SweepConfig``, and prints
``setup_done`` as a ``time.monotonic()`` reading, which the parent subtracts
from its own reading taken just before it started the child.  It then times
the reference load of reference.py.  Unless ``--setup-only`` is given it then
calls ``run_suite``, writes the report with ``emit_report`` (repeated while
short, see REPORT_BUDGET_S), times the reference load again and prints one
JSON line of measurements.  With
``--trace-out`` the per-layer wrappers of tracer.py are installed around the
sweep and their records are written to that path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time

import reference

# A small report takes milliseconds to write, too short to time once against
# the noise of a shared machine.  Serialization keeps no cache, so the report
# is written again until this much time is spent, and the median is kept.
REPORT_BUDGET_S = 0.25
REPORT_MAX_REPEATS = 15


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--report")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)

    from voronoi_lab import harness

    config = harness.SweepConfig(
        suite=spec["suite"], ranges=spec["ranges"], seed=spec["seed"], jobs=spec["jobs"]
    )
    config.validate()
    out = {"setup_done": time.monotonic(), "harness_file": harness.__file__}
    from voronoi_lab import _kernels  # already imported by the harness

    out["dispatch"] = {"HAVE_NUMBA": _kernels.HAVE_NUMBA, "USE_NUMBA": _kernels.USE_NUMBA}
    ref_before = reference.measure()
    out["ref_setup_s"] = ref_before[0]
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        report = harness.run_suite(config)
        t1, cpu1 = time.perf_counter(), _cpu_s()
        # A traced run writes once, so harness.serialize_s covers one report.
        budget = 0.0 if tracer is not None else REPORT_BUDGET_S
        report_times = []
        while not report_times or (
            sum(report_times) < budget and len(report_times) < REPORT_MAX_REPEATS
        ):
            t2 = time.perf_counter()
            harness.emit_report(report, args.report)
            report_times.append(time.perf_counter() - t2)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ref_after = reference.measure()
    with open(args.report, "rb") as fh:
        data = fh.read()
    out.update(
        ref_s=(ref_before[0] + ref_after[0]) / 2,
        ref_cpu_s=(ref_before[1] + ref_after[1]) / 2,
        sweep_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        report_s=statistics.median(report_times),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cases=report.cases,
        failures=report.failures,
        report_bytes=len(data),
        sha256=hashlib.sha256(data).hexdigest(),
    )
    if tracer is not None:
        with open(args.trace_out, "w", encoding="ascii") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
