"""Tests of the benchmark itself at tiny ranges.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from voronoi_lab import harness  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_GAUSS = {"cstar_max": 5, "c_max": 10, "m_max": 6, "n_max": 3}
TINY_KLOOSTERMAN = {"degrees": [3], "c_max": 4, "q_max": 2, "n_values": [1, 2]}


def _tiny(name: str, suite: str, ranges: dict, jobs: int) -> Workload:
    cases = harness.run_suite(harness.SweepConfig(suite=suite, ranges=ranges)).cases
    return Workload(name, suite, ranges, jobs, cases)


def _main(monkeypatch, capsys, tmp_path, workload: Workload, trace: int) -> tuple[dict, str]:
    monkeypatch.setitem(run.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", workload.name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    text = capsys.readouterr().out
    return json.loads(text.strip().splitlines()[-1]), text


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_every_end_to_end_metric_is_emitted_with_its_unit(monkeypatch, capsys, tmp_path):
    workload = _tiny("tiny-gauss", "gauss-lemmas", TINY_GAUSS, 2)
    result, text = _main(monkeypatch, capsys, tmp_path, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_SWEEPS * workload.expected_cases
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in (*run.END_TO_END_UNITS, *run.PRINTED_ONLY_UNITS, "failed_case_ratio"):
        assert any(line.startswith(name + " ") for line in text.splitlines()), name


def test_traced_run_emits_every_layer_metric_and_keeps_report_bytes(monkeypatch, capsys, tmp_path):
    workload = _tiny("tiny-kloosterman", "kloosterman-average", TINY_KLOOSTERMAN, 1)
    result, text = _main(monkeypatch, capsys, tmp_path, workload, trace=1)
    # One digest over the untraced and the traced sweep: the wrappers change
    # no byte of the report.
    assert result["correct"] is True and result["failed"] == 0
    (digests,) = [line for line in text.splitlines() if line.startswith("report sha256")]
    assert "," not in digests
    assert (tmp_path / "reports" / "tiny-kloosterman.json").read_bytes() == (
        tmp_path / "reports" / "tiny-kloosterman-traced.json"
    ).read_bytes()
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert metrics["harness.records"]["value"] == workload.expected_cases
    for name in ("exponential_sums.lemma34.calls", "kernels.kl_layer.calls", "harness.units"):
        assert metrics[name]["value"] > 0, name
    assert 0 < metrics["exponential_sums.kl_vector_reuse_ratio"]["value"] < 1


@pytest.mark.parametrize(
    "suite, ranges",
    [("gauss-lemmas", TINY_GAUSS), ("kloosterman-average", TINY_KLOOSTERMAN)],
)
def test_jobs2_report_bytes_equal_jobs1(tmp_path, suite, ranges):
    digests = set()
    for jobs in (1, 2):
        spec = {"suite": suite, "ranges": ranges, "seed": 0, "jobs": jobs}
        out, err = run._run_child(spec, ["--report", str(tmp_path / f"{jobs}.json")], 120)
        assert out is not None, err
        digests.add(out["sha256"])
    assert len(digests) == 1


def _bindings() -> dict:
    """Every attribute of every voronoi_lab module and class, by identity."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "voronoi_lab" or mod_name.startswith("voronoi_lab."):
            for key, value in vars(mod).items():
                out[(mod_name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(mod_name, key, attr)] = id(member)
    for name, spec in harness._SUITES.items():
        out[("_SUITES", name)] = id(spec)
    return out


def test_wrappers_are_removed_after_a_traced_sweep():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert id(harness.run_suite) != before[("voronoi_lab.harness", "run_suite")]
        changed = {k for k, v in _bindings().items() if before.get(k) != v}
        # Every traced attribute is rebound, including names imported into
        # other modules.
        assert ("voronoi_lab.voronoi", "kloosterman_vector") in changed
        assert ("voronoi_lab.exponential_sums", "kl_layer") in changed
        assert ("voronoi_lab.numeric", "ComplexValue", "__init__") in changed
        harness.run_suite(harness.SweepConfig(suite="kloosterman-average", ranges=TINY_KLOOSTERMAN))
    finally:
        t.uninstall()
    assert _bindings() == before
    dump = t.dump()
    assert any(s["name"] == "harness.unit" for s in dump["spans"])
