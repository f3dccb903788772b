"""Sweep harness: determinism, canonical reports, config handling, CLI."""

import json
import math
import re
import struct

import numpy as np
import pytest

from voronoi_lab import cli, harness
from voronoi_lab.characters import primitive_characters
from voronoi_lab.exponential_sums import gauss_sum
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
from voronoi_lab.residues import divisors

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


def test_voronoi_core_builds_one_source_per_shift_set(monkeypatch):
    # the side-by-side units and the z probes need different prime bounds
    # for the same (degree, shifts); one source with the larger bound serves both
    calls = []
    build = harness.isobaric_source

    def counted(n_deg, shifts, bound):
        calls.append((n_deg, shifts, bound))
        return build(n_deg, shifts, bound)

    monkeypatch.setattr(harness, "isobaric_source", counted)
    rep = run_suite(SweepConfig(suite="voronoi-core"))
    assert rep.passed and rep.cases == 79
    assert len(calls) == 3
    assert len({(n_deg, shifts) for n_deg, shifts, _ in calls}) == 3


def test_parallel_scheduling_does_not_reorder():
    cfg = {"degrees": [3], "c_values": [4, 5, 6], "coefficients": 20}
    a = run_suite(SweepConfig(suite="equivalence", ranges=dict(cfg), seed=7))
    b = run_suite(SweepConfig(suite="equivalence", ranges=dict(cfg), seed=7, jobs=4))
    assert a.to_canonical_json() == b.to_canonical_json()


def test_kloosterman_reports_repeat_across_jobs_and_runs():
    # The units of one sweep share the direct walk's leaf tables, and each
    # sweep starts its own store, so neither a second run in this process nor
    # two pool threads filling one store may change a byte.
    cfg = {"degrees": [3, 4, 5], "c_max": 4, "q_max": 2, "n_values": [1, 2, -3]}
    reps = [
        run_suite(SweepConfig(suite="kloosterman-average", ranges=dict(cfg), jobs=jobs))
        for jobs in (1, 1, 2)
    ]
    texts = [rep.to_canonical_json() for rep in reps]
    assert texts[0] == texts[1] == texts[2]
    assert reps[0].cases == 84 and reps[0].passed


REPEAT_RANGES = {
    "gauss-lemmas": {"cstar_max": 5, "c_max": 10, "m_max": 6, "n_max": 3},
    "kloosterman-average": {"degrees": [3, 4], "c_max": 4, "q_max": 2, "n_values": [1, -3]},
    "hecke": dict(SMALL_HECKE),
    "equivalence": {"degrees": [3], "c_values": [4, 5, 6], "coefficients": 20},
    "mobius": {"degrees": [3], "cstar_values": [3, 4], "n_values": [2], "modulus_max": 8},
    "voronoi-core": {"truncation_y": 500, "x_probe": 500},
    "lfunc": {"cstar_max": 5},
}


@pytest.mark.parametrize("suite", suite_names())
def test_every_suite_repeats_across_runs_and_jobs(suite):
    texts = [
        run_suite(SweepConfig(suite=suite, ranges=dict(REPEAT_RANGES[suite]), jobs=jobs))
        .to_canonical_json()
        for jobs in (1, 1, 2)
    ]
    assert texts[0] == texts[1] == texts[2]
    assert '"failures":0' in texts[0] and '"cases":0,' not in texts[0]


def test_report_writes_each_records_parameters_as_its_sort_key():
    # to_canonical_json reuses the encoding run_suite sorted by; the bytes must
    # be those of encoding the to_dict() document afresh, for every value type
    # a parameter dict may hold.
    params = {"q": (2, np.int64(3)), "z": 1 - 0.5j, "s": 'a"\u00e9', "ok": np.bool_(True)}
    rec = harness.CaseRecord("Eq. 1", {**params, "x": np.float64(0.1)}, 1j, 1j, 0.0, 0.0, 1.0, True)
    rep = VerificationReport("hecke", "Eq. 1", [rec], {"seed": 1})
    assert rec.parameters_json == canonical_json(rec.parameters)
    assert rep.to_canonical_json() == canonical_json(rep.to_dict()) + "\n"
    hecke = run_suite(SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=1))
    assert hecke.to_canonical_json() == canonical_json(hecke.to_dict()) + "\n"


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
        ("gauss-lemmas", {"lemmas": [2.2]}, "ranges.lemmas"),
        ("hecke", {"degrees": [3, 4.0]}, "ranges.degrees"),
        ("hecke", {"draws": -1}, "ranges.draws"),
        ("hecke", {"d3_check_max": 1.5}, "ranges.d3_check_max"),
        ("equivalence", {"q_max": 0}, "ranges.q_max"),
        ("equivalence", {"s": [1, 2, 3]}, "ranges.s"),
        ("mobius", {"s": True}, "ranges.s"),
        ("mobius", {"modulus_max": 0}, "ranges.modulus_max"),
        ("mobius", {"degrees": 3}, "ranges.degrees"),
        ("voronoi-core", {"s": -0.05}, "ranges.s"),
        ("voronoi-core", {"q_values": [[1, 1]]}, "ranges.q_values"),
        ("voronoi-core", {"gl3_shift_sets": [[1, -1]]}, "ranges.gl3_shift_sets"),
        ("voronoi-core", {"gl2_shift_sets": [[]]}, "ranges.gl2_shift_sets"),
        ("voronoi-core", {"probe_points": [[2.5]]}, "ranges.probe_points"),
        ("lfunc", {"s_values": [[0.5, "i"]]}, "ranges.s_values"),
        ("lfunc", {"shift_sets": [[1, 0]]}, "ranges.shift_sets"),
        ("lfunc", {"s_values": [[-1, 0]]}, "ranges.s_values"),  # odd twists: pole at 0
        ("lfunc", {"s_values": [1e-7], "cstar_min": 5, "cstar_max": 5}, "ranges.s_values"),
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
        ("gauss-lemmas", {"lemmas": ["2.5"]}),
        ("hecke", {"degrees": [2], "exponent_max": 1, "draws": 0, "d3_check_max": 0}),
        ("equivalence", {"degrees": [2], "c_values": [1], "q_max": 1, "coefficients": 1, "s": 0.5}),
        ("mobius", {"degrees": [2], "n_values": [1], "modulus_max": 1, "q_max": 1, "s": [0, 1]}),
        (
            "voronoi-core",
            {
                "families": ["z"],
                "s": [-0.06, 2],
                "n_values": [1],
                "q_values": [[1]],
                "gl3_shift_sets": [[0, 0, 0]],
                "gl2_shift_sets": [[2, -2]],
                "probe_points": [[3, 3.0]],
            },
        ),
        ("lfunc", {"shift_sets": [[0]], "s_values": [1.5, [0.25, 2]]}),
        # conductors 3 and 4 have only odd primitive characters, whose Gamma
        # factors are finite at s = 0 and s = 1
        ("lfunc", {"s_values": [0, 1], "cstar_min": 3, "cstar_max": 4}),
        ("lfunc", {"s_values": [0.5, [0, 1e-3]]}),
    ]
    for suite, ranges in good:
        SweepConfig(suite=suite, ranges=ranges).validate()


def test_kloosterman_empty_n_values_yield_zero_cases():
    rep = run_suite(SweepConfig(suite="kloosterman-average", ranges={"c_max": 3, "n_values": []}))
    assert rep.cases == 0 and rep.passed


def test_worst_records_first_maximum_and_nan():
    nan = float("nan")
    rel = np.array([[0.1, 0.3, 0.3], [0.2, nan, 0.9], [0.0, 0.0, 0.0], [0.5, 0.1, nan]])
    lhs = np.arange(12, dtype=complex).reshape(4, 3)
    rows = [{"row": i} for i in range(4)]
    recs = harness._worst_records("anchor", rows, lhs, 0.0, rel, 0.4, lambda p: {"p": p})
    assert [r.parameters for r in recs] == [
        {"row": i, "p": p} for i, p in enumerate([1, 1, 0, 2])
    ]
    assert [r.passed for r in recs] == [True, False, True, False]
    assert [r.lhs for r in recs] == [1, 4, 6, 11] and all(r.rhs == 0 for r in recs)


def test_d3_nan_point_fails_its_record(monkeypatch):
    count = harness.divisor_count
    monkeypatch.setattr(
        harness, "divisor_count", lambda k, n: math.nan if n == 7 else count(k, n)
    )
    rep = run_suite(SweepConfig(suite="hecke", ranges={"draws": 0, "d3_check_max": 20}))
    (rec,) = rep.records
    assert rec.parameters == {"check": "d3", "n_max": 20, "n": 7}
    assert not rec.passed and math.isnan(rec.rel_error)


@pytest.mark.parametrize(
    "suite, ranges, key",
    [
        (
            "equivalence",
            {"degrees": [3], "c_values": [5], "q_max": 2, "coefficients": 20},
            ("direction", "forward-additive"),
        ),
        (
            "mobius",
            {"degrees": [3], "cstar_values": [5], "n_values": [2], "modulus_max": 10,
             "q_max": 2, "coefficients": 20},
            ("family", "divisor-corrected-h"),
        ),
    ],
    ids=["equivalence", "mobius"],
)
def test_nan_h_coefficient_fails_its_record(monkeypatch, suite, ranges, key):
    clean = run_suite(SweepConfig(suite=suite, ranges=dict(ranges)))
    h = harness.h_coefficients

    def poisoned(inst):
        out = h(inst).copy()
        if inst.chi_star.label == "5:1":
            out[7] = complex(math.nan, 0.0)
        return out

    monkeypatch.setattr(harness, "h_coefficients", poisoned)
    rep = run_suite(SweepConfig(suite=suite, ranges=dict(ranges)))
    assert clean.passed and rep.cases == clean.cases
    hit = [
        r for r in rep.records
        if r.parameters[key[0]] == key[1] and r.parameters["chi"] == "5:1"
    ]
    assert len(hit) == 2  # one per q
    for rec in hit:
        assert not rec.passed and rec.parameters["worst_n"] == 7
        assert math.isnan(rec.rel_error)


def test_kloosterman_nan_point_fails_its_character(monkeypatch, tmp_path):
    ranges = {"degrees": [3], "c_max": 5, "q_max": 2, "n_values": [1, 2]}
    clean = run_suite(SweepConfig(suite="kloosterman-average", ranges=dict(ranges)))
    table = harness.average_kloosterman_closed_lemma34_table

    def poisoned(c, q, chains, n_values, **kwargs):
        out = table(c, q, chains, n_values, **kwargs)
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


def test_gauss_closed_nan_points_fail_their_record(monkeypatch):
    ranges = {"lemmas": ["2.2"], "cstar_max": 4, "c_max": 12, "m_max": 8}
    clean = run_suite(SweepConfig(suite="gauss-lemmas", ranges=dict(ranges)))
    rows = harness.gauss_sum_closed_lemma22_rows

    def poisoned(at_m):
        def closed_rows(chi, cs, m_values):
            out = rows(chi, cs, m_values)
            if chi.label == "3:1":
                i = list(cs).index(6)
                for j, m in enumerate(m_values):
                    if at_m is None or m == at_m:
                        out[i, j] = complex(math.nan, 0.0)
            return out

        return closed_rows

    # one NaN point outranks every number in its row; a row NaN at every m
    # still yields a record (its first point), not a crash mid-sweep
    for at_m, want_m in ((5, 5), (None, 1)):
        monkeypatch.setattr(harness, "gauss_sum_closed_lemma22_rows", poisoned(at_m))
        rep = run_suite(SweepConfig(suite="gauss-lemmas", ranges=dict(ranges)))
        assert rep.cases == clean.cases
        (bad,) = [r for r in rep.records if not r.passed]
        assert bad.parameters == {"lemma": "2.2", "chi": "3:1", "c": 6, "m": want_m}
        assert math.isnan(bad.rel_error) and math.isnan(rep.max_rel_error)
    assert clean.passed


def test_lemma25_lhs_is_the_ascending_divisor_sum():
    # The unit sweeps d once over every multiple n of d; each lhs[n] must
    # still be the per-n sum over d | n in ascending order, bit for bit.  Each
    # term is an array product over the m row, as numpy's complex array
    # product may round differently from its scalar one; m_max 10 puts the
    # rows off any SIMD width.
    m_max = 10
    ranges = {"lemmas": ["2.5"], "cstar_max": 7, "n_max": 12, "m_max": m_max}
    rep = run_suite(SweepConfig(suite="gauss-lemmas", ranges=ranges))
    chars = {chi.label: chi for c in range(1, 8) for chi in primitive_characters(c)}
    assert rep.passed and rep.cases == len(chars) * 12
    for rec in rep.records:
        chi, n, m = chars[rec.parameters["chi"]], rec.parameters["n"], rec.parameters["m"]
        want = np.zeros(m_max, dtype=complex)
        for d in divisors(n):
            chid = chi.value_vector[d % chi.modulus]
            if chid != 0:
                mod = n // d * chi.modulus
                want += chid * np.array([gauss_sum(chi, mod, k) for k in range(1, m_max + 1)])
        got = struct.pack("<2d", rec.lhs.real, rec.lhs.imag)
        assert got == want[m - 1 : m].tobytes(), rec.parameters


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
        ("hecke", {"exponent_max": 0}, "ranges.exponent_max"),
        ("hecke", {"degrees": [1]}, "ranges.degrees"),
        ("equivalence", {"c_values": [0]}, "ranges.c_values"),
        ("equivalence", {"s": "x"}, "ranges.s"),
        ("equivalence", {"coefficients": 0}, "ranges.coefficients"),
        ("mobius", {"n_values": [0]}, "ranges.n_values"),
        ("voronoi-core", {"n_values": [0]}, "ranges.n_values"),
        ("voronoi-core", {"families": ["foo"]}, "ranges.families"),
        ("voronoi-core", {"gl3_shift_sets": [[1, 1, 1]]}, "ranges.gl3_shift_sets"),
        ("voronoi-core", {"q_values": [[0]]}, "ranges.q_values"),
        ("voronoi-core", {"s": [0.5, 0]}, "ranges.s"),
        ("gauss-lemmas", {"lemmas": ["9.9"]}, "ranges.lemmas"),
        # s = 0 and s = 1 put a Gamma argument of the even functional equation on its pole at 0
        ("lfunc", {"s_values": [0]}, "ranges.s_values"),
        ("lfunc", {"s_values": [1]}, "ranges.s_values"),
        # odd twists only: no Gamma pole, but an L argument 1 +- 1e-7 that dirichlet_l rejects
        ("lfunc", {"s_values": [1.0000001], "cstar_min": 3, "cstar_max": 4}, "ranges.s_values"),
        ("lfunc", {"s_values": [-1e-7], "cstar_min": 3, "cstar_max": 4}, "ranges.s_values"),
    )
    for suite, ranges, field in probes:
        bad_range = tmp_path / "bad_range.json"
        bad_range.write_text(json.dumps({"suite": suite, "ranges": ranges}))
        assert cli.main(["--config", str(bad_range)]) == 2, (suite, ranges)
        assert field in capsys.readouterr().err
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"suite": "lfunc", "ranges": {"s_values": [0.5], "cstar_max": 5}}))
    assert cli.main(["--config", str(half), "--out", str(tmp_path / "half_report.json")]) == 0


def test_voronoi_core_rejects_s_at_a_gamma_pole(tmp_path, capsys):
    # Conductors 1 and 12 have an even primitive character, and zero shifts
    # put the even G's denominator Gamma argument s/2 on its pole at -1; the
    # sweep used to stop there with exit 3.
    for ranges in (
        {"s": [-2, 0], "cstar_values": [12]},
        {"s": [-2, 0], "cstar_values": [1]},
        {"s": -2, "cstar_values": [1], "families": ["gl2"], "gl2_shift_sets": [[0, 0]]},
    ):
        config = tmp_path / "pole.json"
        config.write_text(json.dumps({"suite": "voronoi-core", "ranges": ranges}))
        assert cli.main(["--config", str(config)]) == 2, ranges
        assert "ranges.s" in capsys.readouterr().err
    # odd twists only, or no family that evaluates G: nothing sits on a pole
    for ranges in (
        {"s": -2, "cstar_values": [3, 4]},
        {"s": -2, "cstar_values": [12], "families": ["gl2", "z"]},
    ):
        SweepConfig(suite="voronoi-core", ranges=ranges).validate()


def test_report_from_dict_rejects_tampered_summary(tmp_path):
    rep = run_suite(SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=2))
    doc = rep.to_dict()
    doc["summary"]["failures"] += 1
    with pytest.raises(ValueError):
        VerificationReport.from_dict(doc)
