"""Sweep harness: determinism, canonical reports, config handling, CLI."""

import json
import math
import re

import numpy as np
import pytest

from voronoi_lab import cli, harness
from voronoi_lab.harness import (
    ConfigError,
    SweepConfig,
    VerificationReport,
    canonical_json,
    emit_report,
    list_suites,
    load_report,
    run_suite,
    suite_names,
)

SMALL_HECKE = {"draws": 5, "d3_check_max": 200}
EMPTYING_KEY = {
    "gauss-lemmas": "lemmas",
    "kloosterman-average": "degrees",
    "hecke": "degrees",
    "equivalence": "degrees",
    "mobius": "degrees",
    "voronoi-core": "families",
    "lfunc": "shift_sets",
}


def test_canonical_json_values():
    for x in (0.1, 1e-300, 2.0, -0.0, 123456789.123456789):
        assert json.loads(canonical_json(x)) == x
    assert canonical_json({"b": 1, "a": [True, None, "x"]}) == '{"a":[true,null,"x"],"b":1}'
    assert canonical_json(1 + 2j) == "[1,2]"
    inf = float("inf")
    assert canonical_json([float("nan"), inf, -inf]) == '["NaN","Infinity","-Infinity"]'
    assert canonical_json(complex(inf, 0.5)) == '["Infinity",0.5]'
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})


def test_suite_listing_is_pinned():
    lines = list_suites().splitlines()
    assert [ln.split(" — ")[0] for ln in lines] == list(suite_names())
    assert suite_names() == (
        "gauss-lemmas",
        "kloosterman-average",
        "hecke",
        "equivalence",
        "mobius",
        "voronoi-core",
        "lfunc",
    )
    assert any(ln.startswith("kloosterman-average — Lemma 3.4") for ln in lines)
    assert any(ln.startswith("voronoi-core — Theorem 3.1 a_n=b_n") for ln in lines)
    assert lines == list_suites().splitlines()  # stable ordering


def test_run_suite_deterministic_bytes(tmp_path):
    base = SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=42)
    r1 = run_suite(base)
    r2 = run_suite(SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=42))
    r4 = run_suite(SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=42, jobs=4))
    other = run_suite(SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=43))
    assert r1.to_canonical_json() == r2.to_canonical_json()
    assert r1.to_canonical_json() == r4.to_canonical_json()
    assert r1.to_canonical_json() != other.to_canonical_json()
    assert r1.passed and r1.cases > 0


def test_parallel_scheduling_does_not_reorder():
    cfg = {"degrees": [3], "c_values": [4, 5, 6], "coefficients": 20}
    a = run_suite(SweepConfig(suite="equivalence", ranges=dict(cfg), seed=7))
    b = run_suite(SweepConfig(suite="equivalence", ranges=dict(cfg), seed=7, jobs=4))
    assert a.to_canonical_json() == b.to_canonical_json()


def test_report_round_trip(tmp_path):
    rep = run_suite(SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=1))
    path = tmp_path / "rep.json"
    emit_report(rep, path)
    raw = path.read_text(encoding="ascii")
    assert raw == rep.to_canonical_json()
    assert json.loads(raw) == rep.to_dict()
    again = load_report(path)
    assert again.to_canonical_json() == rep.to_canonical_json()
    assert [r.to_dict() for r in again.records] == [r.to_dict() for r in rep.records]
    timed = rep.to_dict(include_timing=True)
    assert "wall_time_seconds" in timed["summary"]
    assert "wall_time_seconds" not in rep.to_dict()["summary"]
    assert json.loads(raw)["schema"] == "voronoi-lab-report/1"
    # %.17g writes -0.0 as -0; reading it back must keep the sign
    kl = run_suite(
        SweepConfig(suite="kloosterman-average", ranges={"degrees": [3], "c_max": 5, "q_max": 2})
    )
    kl_path = tmp_path / "kl.json"
    emit_report(kl, kl_path)
    assert re.search(r"-0[],}]", kl_path.read_text(encoding="ascii"))
    assert load_report(kl_path).to_canonical_json() == kl_path.read_text(encoding="ascii")


def test_records_share_suite_anchor_and_fail_with_parameters():
    rep = run_suite(
        SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=3, tolerance=1e-30)
    )
    assert rep.failures > 0 and not rep.passed
    for rec in rep.records:
        assert rec.anchor == rep.anchor
    failing = [r for r in rep.records if not r.passed]
    assert all(len(r.parameters) > 0 for r in failing)


def test_empty_ranges_yield_zero_case_pass():
    for suite, key in EMPTYING_KEY.items():
        rep = run_suite(SweepConfig(suite=suite, ranges={key: []}))
        assert rep.cases == 0 and rep.failures == 0 and rep.passed, suite


def test_config_validation_diagnostics():
    with pytest.raises(ConfigError, match="gauss-lemmas"):
        SweepConfig(suite="nope", ranges={}).validate()
    with pytest.raises(ConfigError, match="ranges.bogus"):
        SweepConfig(suite="hecke", ranges={"bogus": 1}).validate()
    for bad_seed in (-1, 2**64, "abc"):
        with pytest.raises(ConfigError, match="seed"):
            SweepConfig(suite="hecke", ranges={}, seed=bad_seed).validate()
    with pytest.raises(ConfigError, match="jobs"):
        SweepConfig(suite="hecke", ranges={}, jobs=0).validate()
    with pytest.raises(ConfigError, match="tolerance"):
        SweepConfig(suite="hecke", ranges={}, tolerance=0.0).validate()
    with pytest.raises(ConfigError, match="precision"):
        SweepConfig(suite="hecke", ranges={}, precision=8).validate()


def test_kloosterman_range_validation():
    bad = [
        ({"degrees": [1]}, "ranges.degrees"),
        ({"degrees": [3, True]}, "ranges.degrees"),
        ({"degrees": 3}, "ranges.degrees"),
        ({"c_max": "abc"}, "ranges.c_max"),
        ({"c_max": 0}, "ranges.c_max"),
        ({"q_max": 2.5}, "ranges.q_max"),
        ({"q_max": 0}, "ranges.q_max"),
        ({"n_values": [1, "2"]}, "ranges.n_values"),
    ]
    for ranges, field in bad:
        with pytest.raises(ConfigError, match=field):
            SweepConfig(suite="kloosterman-average", ranges=ranges).validate()
    SweepConfig(
        suite="kloosterman-average",
        ranges={"degrees": [2, 3], "c_max": 1, "q_max": 1, "n_values": [-3, 0]},
    ).validate()


def test_range_validation_beyond_kloosterman():
    bad = [
        ("gauss-lemmas", {"cstar_max": 2.0}, "ranges.cstar_max"),
        ("gauss-lemmas", {"m_max": 0}, "ranges.m_max"),
        ("gauss-lemmas", {"n_max": True}, "ranges.n_max"),
        ("hecke", {"prime_max": "7"}, "ranges.prime_max"),
        ("mobius", {"cstar_values": 3}, "ranges.cstar_values"),
        ("voronoi-core", {"x_probe": 0}, "ranges.x_probe"),
        ("voronoi-core", {"truncation_y": 64.0}, "ranges.truncation_y"),
        ("voronoi-core", {"cstar_values": [3, 6]}, "ranges.cstar_values"),
        ("voronoi-core", {"probe_cstar": 1}, "ranges.probe_cstar"),
        ("voronoi-core", {"probe_cstar": 10}, "ranges.probe_cstar"),
        ("lfunc", {"cstar_min": 1}, "ranges.cstar_min"),
    ]
    for suite, ranges, field in bad:
        with pytest.raises(ConfigError, match=field):
            SweepConfig(suite=suite, ranges=ranges).validate()
    good = [
        ("gauss-lemmas", {"cstar_max": 1, "c_max": 1, "m_max": 1, "n_max": 1}),
        ("hecke", {"prime_max": 2}),
        ("mobius", {"cstar_values": [1, 2]}),
        ("voronoi-core", {"truncation_y": 1, "x_probe": 1, "cstar_values": [1, 4], "probe_cstar": 3}),
        ("lfunc", {"cstar_min": 2, "cstar_max": 2}),
    ]
    for suite, ranges in good:
        SweepConfig(suite=suite, ranges=ranges).validate()


def test_kloosterman_empty_n_values_yield_zero_cases():
    rep = run_suite(SweepConfig(suite="kloosterman-average", ranges={"c_max": 3, "n_values": []}))
    assert rep.cases == 0 and rep.passed


def test_worst_points_first_maximum_and_nan():
    nan = float("nan")
    rel = np.array([[0.1, 0.3, 0.3], [0.2, nan, 0.9], [0.0, 0.0, 0.0], [0.5, 0.1, nan]])
    assert harness._worst_points(rel).tolist() == [1, 1, 0, 2]


def test_kloosterman_nan_point_fails_its_character(monkeypatch, tmp_path):
    ranges = {"degrees": [3], "c_max": 5, "q_max": 2, "n_values": [1, 2]}
    clean = run_suite(SweepConfig(suite="kloosterman-average", ranges=dict(ranges)))
    table = harness.average_kloosterman_closed_lemma34_table

    def poisoned(c, q, chains, n_values):
        out = table(c, q, chains, n_values)
        if c == 5 and q == (2,):
            out[1, -1, 0] = complex(math.nan, 0.0)
        return out

    monkeypatch.setattr(harness, "average_kloosterman_closed_lemma34_table", poisoned)
    rep = run_suite(SweepConfig(suite="kloosterman-average", ranges=dict(ranges)))
    assert rep.cases == clean.cases
    (bad,) = [r for r in rep.records if not r.passed]
    assert bad.parameters["c"] == 5 and bad.parameters["q"] == [2]
    assert bad.parameters["n"] == 1 and math.isnan(bad.rel_error)
    assert clean.passed
    # the poisoned report still serializes and reads back with its NaN
    assert math.isnan(rep.max_rel_error)
    text = rep.to_canonical_json()
    assert '"rel_error":"NaN"' in text
    back = VerificationReport.from_dict(json.loads(text))
    (bad_back,) = [r for r in back.records if not r.passed]
    assert math.isnan(bad_back.rel_error) and math.isnan(back.max_rel_error)
    assert bad_back.parameters == bad.parameters and back.cases == rep.cases
    # so the CLI reports a failure instead of an internal error
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({"suite": "kloosterman-average", "ranges": ranges}))
    out = tmp_path / "nan-report.json"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 1
    assert out.read_text() == text


def test_config_files_toml_and_json_agree(tmp_path):
    toml_path = tmp_path / "sweep.toml"
    toml_path.write_text(
        'suite = "hecke"\nseed = 5\n[ranges]\ndraws = 5\nd3_check_max = 200\n'
    )
    json_path = tmp_path / "sweep.json"
    json_path.write_text(
        json.dumps({"suite": "hecke", "seed": 5, "ranges": SMALL_HECKE})
    )
    rep_t = run_suite(SweepConfig.from_file(toml_path))
    rep_j = run_suite(SweepConfig.from_file(json_path))
    assert rep_t.to_canonical_json() == rep_j.to_canonical_json()


def test_config_file_errors(tmp_path):
    bad = tmp_path / "broken.toml"
    bad.write_text("= nonsense\n")
    with pytest.raises(ConfigError):
        SweepConfig.from_file(bad)
    stray = tmp_path / "extra.json"
    stray.write_text(json.dumps({"suite": "hecke", "ranges": {}, "surprise": 1}))
    with pytest.raises(ConfigError, match="surprise"):
        SweepConfig.from_file(stray)
    missing = tmp_path / "nosuite.json"
    missing.write_text(json.dumps({"ranges": {}}))
    with pytest.raises(ConfigError, match="suite"):
        SweepConfig.from_file(missing)


def test_cli_pass_fail_and_listing(tmp_path, capsys):
    out = tmp_path / "report.json"
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"suite": "hecke", "ranges": SMALL_HECKE, "seed": 9}))
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == first  # byte-identical rerun
    # a flag overrides the file setting and must show up in the echo
    assert cli.main(["--config", str(cfg), "--seed", "11", "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["config"]["seed"] == 11
    assert (
        cli.main(["--config", str(cfg), "--tolerance", "1e-30", "--out", str(out)]) == 1
    )
    assert cli.main(["--list-suites"]) == 0
    listed = capsys.readouterr().out
    assert "kloosterman-average — Lemma 3.4" in listed
    assert "voronoi-core — Theorem 3.1 a_n=b_n" in listed


def test_cli_error_exit_codes(tmp_path, capsys):
    assert cli.main(["--suite", "not-a-suite"]) == 2
    assert cli.main([]) == 2  # neither --suite nor --config
    bad = tmp_path / "bad.toml"
    bad.write_text("= nonsense\n")
    assert cli.main(["--config", str(bad)]) == 2
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({"suite": "hecke", "ranges": SMALL_HECKE}))
    assert cli.main(["--config", str(cfg), "--out", "/nonexistent-dir/x.json"]) == 3
    capsys.readouterr()
    # out-of-range ranges fail validation, not the sweep
    probes = (
        ("kloosterman-average", {"degrees": [1]}, "ranges.degrees"),
        ("kloosterman-average", {"c_max": "abc"}, "ranges.c_max"),
        ("mobius", {"cstar_values": [0]}, "ranges.cstar_values"),
        ("voronoi-core", {"truncation_y": -5}, "ranges.truncation_y"),
        ("hecke", {"prime_max": 1}, "ranges.prime_max"),
        ("gauss-lemmas", {"c_max": "x"}, "ranges.c_max"),
        ("lfunc", {"cstar_max": "a"}, "ranges.cstar_max"),
        ("voronoi-core", {"cstar_values": [2]}, "ranges.cstar_values"),
    )
    for suite, ranges, field in probes:
        bad_range = tmp_path / "bad_range.json"
        bad_range.write_text(json.dumps({"suite": suite, "ranges": ranges}))
        assert cli.main(["--config", str(bad_range)]) == 2, (suite, ranges)
        assert field in capsys.readouterr().err


def test_report_from_dict_rejects_tampered_summary(tmp_path):
    rep = run_suite(SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=2))
    doc = rep.to_dict()
    doc["summary"]["failures"] += 1
    with pytest.raises(ValueError):
        VerificationReport.from_dict(doc)
