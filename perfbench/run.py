"""Cold-process sweep benchmark for voronoi-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  Every sample is a fresh interpreter (child.py) that builds a
``SweepConfig``, calls ``run_suite`` and writes the canonical report, so every
cache starts cold.  In-process repeats would mislead: a warm process runs
gauss-lemmas about three times faster than a cold one.

``--trace 0`` first starts a few set-up-only interpreters, then repeats the
sweep until ``--seconds`` would be exceeded (at least MIN_SWEEPS times).  It
prints each end-to-end metric as a median with its sample count; the sweep's
time and CPU time are gated in multiples of the reference load of
reference.py, which each sweep process times next to its sweep.  ``--trace 1``
runs one untraced and one traced sweep and prints the per-layer metrics of
tracer.py plus the tracing overhead.

Every sweep is checked: no failing record, the workload's case count, and one
report digest across all sweeps of the run (traced and untraced alike).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; attempted and failed count cases,
and a sweep that crashes counts all its cases as failed.  Reports, traces and
a results log go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
MIN_SWEEPS = 2
# Past this point no child is started and a running one is killed, so that a
# run ends within 180 s.
RUN_LIMIT_S = 150.0

# The metrics of the result line, as BENCHMARK.json lists them.  sweep_rel and
# cpu_rel are sweep_s and cpu_s in multiples of the reference load that the
# sweep's own process times before and after the sweep (reference.py): the raw
# seconds follow the slow and fast phases of a shared host, by more than any
# bound the result line may carry.  setup_s, which the result line must give
# in seconds, is the set-up wall time scaled the same way to NOMINAL_REF_S.
END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_rel": "x_ref",
    "cpu_rel": "x_ref",
    "peak_rss_mb": "MB",
}
# Printed for every run but kept out of the result line.  sweep_s, cpu_s and
# setup_wall_s are the measured seconds behind sweep_rel, cpu_rel and setup_s,
# and ref_s the reference load's wall time.  Writing a report of a few milliseconds swings
# by up to 2x between runs on a shared host; the traced run's
# harness.serialize_s follows the same stage.
PRINTED_ONLY_UNITS = {
    "setup_wall_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "report_s": "s",
    "ref_s": "s",
}
# One pass of the reference load took about this long on the 2-core host the
# benchmark was tuned on.  setup_s is the set-up time at that speed: the
# set-up wall time divided by the pass time the same process measured right
# after it, times this constant.
NOMINAL_REF_S = 0.07


class EnvironmentBroken(RuntimeError):
    """The package cannot be imported from this checkout; no result is printed."""


# OpenBLAS otherwise starts one spinning thread per core in every sweep, which
# on a 2-core host competes with the sweep and adds CPU time that is not the
# program's.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    env = {**os.environ, **SINGLE_THREAD_BLAS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(spec: dict, extra: list[str], timeout: float) -> tuple[dict | None, str]:
    """Start child.py; returns (its JSON line or None, error text)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--spec", json.dumps(spec), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"no result line in child output: {proc.stdout[-500:]!r}"
    if Path(out["harness_file"]).resolve() != (ROOT / "src" / "voronoi_lab" / "harness.py").resolve():
        raise EnvironmentBroken(f"imported {out['harness_file']}, not this checkout's src/")
    out["setup_wall_s"] = out["setup_done"] - started
    out["setup_s"] = out["setup_wall_s"] / out["ref_setup_s"] * NOMINAL_REF_S
    return out, ""


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def describe(name: str, samples: list[float], unit: str) -> str:
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_txt = (
        f"p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail else "no percentile has 10 samples beyond it"
    )
    return f"{name:<18} {med:.6g} {unit}  median of n={len(samples)}; {tail_txt}"


def fingerprint(seed: int, dispatch: dict) -> dict:
    """Commit (or a digest of src/ where the checkout has no git), seed and versions."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    versions = {name: importlib.metadata.version(name) for name in ("numpy", "scipy", "mpmath")}
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        **dispatch,
    }


class Run:
    """Samples of one benchmark run and the checks made on them."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.spec = workload.spec(seed)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.setups: list[float] = []
        self.setup_walls: list[float] = []
        self.sweeps: list[dict] = []
        self.dispatch: dict = {}

    def remaining(self) -> float:
        return self.started + RUN_LIMIT_S - time.monotonic()

    def probe(self) -> None:
        out, err = _run_child(self.spec, ["--setup-only"], max(self.remaining(), 1.0))
        if out is None:
            raise EnvironmentBroken("set-up probe failed: " + err)
        self.setups.append(out["setup_s"])
        self.setup_walls.append(out["setup_wall_s"])
        self.dispatch = out["dispatch"]

    def sweep(self, label: str, trace_out: Path | None = None) -> dict | None:
        report = OUT / "reports" / f"{self.workload.name}{'-traced' if trace_out else ''}.json"
        extra = ["--report", str(report)]
        if trace_out is not None:
            extra += ["--trace-out", str(trace_out)]
        out, err = _run_child(self.spec, extra, max(self.remaining(), 1.0))
        expected = self.workload.expected_cases
        self.attempted += expected
        if out is None:
            self.failed += expected
            self.problems.append(f"{label}: sweep crashed ({err})")
            print(f"{label}: FAILED {err}")
            return None
        self.failed += min(expected, out["failures"] + max(0, expected - out["cases"]))
        if out["failures"]:
            self.problems.append(f"{label}: {out['failures']} failing records")
        if out["cases"] != expected:
            self.problems.append(f"{label}: {out['cases']} cases, expected {expected}")
        out["sweep_rel"] = out["sweep_s"] / out["ref_s"]
        out["cpu_rel"] = out["cpu_s"] / out["ref_cpu_s"]
        self.digests.add(out["sha256"])
        if len(self.digests) > 1:
            self.problems.append(f"{label}: report digest differs from an earlier sweep")
        print(
            f"{label}: sweep_s={out['sweep_s']:.4f} cpu_s={out['cpu_s']:.4f} "
            f"ref_s={out['ref_s']:.5f} sweep_rel={out['sweep_rel']:.3f} "
            f"report_s={out['report_s']:.5f} setup_wall_s={out['setup_wall_s']:.4f} "
            f"peak_rss_mb={out['peak_rss_mb']:.1f} cases={out['cases']} "
            f"failures={out['failures']} sha256={out['sha256']}"
        )
        self.setups.append(out["setup_s"])
        self.setup_walls.append(out["setup_wall_s"])
        self.sweeps.append(out)
        return out


def measure(run: Run, seconds: int) -> dict:
    """--trace 0: set-up probes, then cold sweeps until the time is used."""
    for _ in range(SETUP_PROBES):
        run.probe()
    deadline = run.started + seconds
    while True:
        started = time.monotonic()
        out = run.sweep(f"sweep {len(run.sweeps) + 1}")
        if out is None:
            break
        now = time.monotonic()
        last = now - started
        if len(run.sweeps) >= MIN_SWEEPS and now + last > deadline:
            break
        if now + 1.5 * last > run.started + RUN_LIMIT_S:
            break
    if not run.sweeps:
        return {}
    samples = {
        "setup_s": run.setups,
        "setup_wall_s": run.setup_walls,
        **{
            k: [s[k] for s in run.sweeps]
            for k in (*END_TO_END_UNITS, *PRINTED_ONLY_UNITS)
            if k not in ("setup_s", "setup_wall_s")
        },
    }
    for name, unit in {**END_TO_END_UNITS, **PRINTED_ONLY_UNITS}.items():
        print(describe(name, samples[name], unit))
    return {name: statistics.median(samples[name]) for name in END_TO_END_UNITS}


def measure_traced(run: Run) -> dict:
    """--trace 1: one untraced and one traced cold sweep; per-layer metrics."""
    plain = run.sweep("untraced sweep")
    trace_path = OUT / f"trace-{run.workload.name}.json"
    traced = run.sweep("traced sweep", trace_out=trace_path)
    if plain is None or traced is None:
        return {}
    with open(trace_path, encoding="ascii") as fh:
        dump = json.load(fh)
    metrics = tracer.layer_metrics(dump, traced["report_bytes"], traced["cases"])
    metrics["trace.sweep_s"] = traced["sweep_s"]
    metrics["trace.overhead_s"] = traced["sweep_s"] - plain["sweep_s"]
    for name, value in metrics.items():
        print(f"{name:<46} {value:.6g} {tracer.PER_LAYER_UNITS[name]}")
    print(f"spans written to {trace_path}")
    return metrics


def _dispatch(fingerprint: dict) -> str:
    return "numba" if fingerprint.get("USE_NUMBA") else "numpy"


def log_result(entry: dict) -> None:
    """Append to the results log; flag earlier results under another kernel dispatch."""
    log = OUT / "results.jsonl"
    if log.exists():
        with open(log, encoding="utf-8") as fh:
            for line in fh:
                old = json.loads(line)
                if old["workload"] == entry["workload"] and old["dispatch"] != entry["dispatch"]:
                    print(
                        f"WARNING: earlier results for {entry['workload']} used the "
                        f"{old['dispatch']} kernels, this run uses {entry['dispatch']}; "
                        "do not compare them"
                    )
                    break
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "voronoi_lab" / "harness.py").is_file():
        print(f"perfbench: no src/voronoi_lab under {ROOT}; run from a source checkout", file=sys.stderr)
        return 2
    (OUT / "reports").mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed)
    print(f"perfbench {workload.name}: suite {workload.suite}, ranges {workload.ranges}, "
          f"jobs {workload.jobs}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            run.probe()
            metrics = measure_traced(run)
            units = tracer.PER_LAYER_UNITS
        else:
            metrics = measure(run, args.seconds)
            units = END_TO_END_UNITS
    except EnvironmentBroken as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if not metrics:
        print("perfbench: no sweep completed; " + "; ".join(run.problems), file=sys.stderr)
        return 1

    env = fingerprint(args.seed, run.dispatch)
    correct = not run.problems and run.failed == 0
    print("fingerprint " + json.dumps(env, sort_keys=True))
    print(f"kernel dispatch: {_dispatch(env)}; compare only runs with the same dispatch")
    print(f"failed_case_ratio  {run.failed / run.attempted:.6g}  ({run.failed} of {run.attempted} cases)")
    print(f"report sha256      {', '.join(sorted(run.digests))}")
    for problem in run.problems:
        print("CHECK FAILED: " + problem)
    log_result(
        {
            "workload": workload.name,
            "trace": args.trace,
            "dispatch": _dispatch(env),
            "fingerprint": env,
            "digests": sorted(run.digests),
            "correct": correct,
            "metrics": metrics,
        }
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
