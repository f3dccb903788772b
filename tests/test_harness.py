"""Sweep harness: determinism, canonical reports, config handling, CLI."""

import dataclasses
import gc
import hashlib
import json
import math
import re
import struct
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voronoi_lab import cli, exponential_sums, harness, lfunctions, voronoi
from voronoi_lab.characters import DirichletCharacter, primitive_characters
from voronoi_lab.exponential_sums import (
    gauss_sum_rows,
    gauss_sum_tables,
    gauss_sum_vector,
)
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
from voronoi_lab.hecke import SatakeParams
from voronoi_lab.residues import divisors, primes_up_to

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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "chi",
        'a "quoted" \\ back\\slash / slash',
        "\n\r\t\b\f \x00 \x1f \x7f",
        "\u00e9t\u00e9 \u00fc\u00df \u2603 \u20ac",  # Latin-1 and the rest of the BMP
        "\U0001f600 \U00010000 \U0010ffff",  # outside the BMP: surrogate pairs
        "\ud800 lone \udfff",  # unpaired surrogates
    ],
)
def test_canonical_strings_are_the_standard_ascii_encoding(text):
    # keys and string values are written by the encoder json.dumps uses
    want = json.dumps(text, ensure_ascii=True)
    assert canonical_json(text) == want
    assert canonical_json({text: [text]}) == "{%s:[%s]}" % (want, want)
    assert json.loads(canonical_json({text: text})) == {text: text}


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


def test_voronoi_core_pool_threads_build_each_source_once(monkeypatch):
    # a unit builds its source when it first reads it; pool threads that
    # reach one source together must build it once and share it
    calls = []
    build = harness.isobaric_source

    def counted(n_deg, shifts, bound):
        calls.append((n_deg, shifts))
        return build(n_deg, shifts, bound)

    monkeypatch.setattr(harness, "isobaric_source", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run_suite(SweepConfig(suite="voronoi-core", jobs=4))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == len(set(calls)) == 3
    alone = run_suite(SweepConfig(suite="voronoi-core"))
    assert pooled.to_canonical_json() == alone.to_canonical_json()


def test_voronoi_core_validation_builds_no_source(monkeypatch):
    # validation builds the units to refuse their points; each source is
    # built by the first unit that reads it, so validating builds none
    def refused(*args):
        raise AssertionError("validation built a coefficient source")

    monkeypatch.setattr(harness, "isobaric_source", refused)
    SweepConfig(suite="voronoi-core").validate()
    SweepConfig(suite="voronoi-core", ranges={"truncation_y": 10**6}).validate()


@pytest.mark.parametrize(
    "ranges",
    [
        # q_1 n reaches 3 * 211, whose largest prime is 211; rows reach Y = 100
        {"families": ["gl3", "gl2"], "truncation_y": 100, "n_values": [1, 2, 211],
         "q_values": [[1], [3]]},
        # each probe's row reaches x = 150
        {"families": ["z"], "x_probe": 150, "probe_points": [[2.5, 4.0]]},
    ],
)
def test_voronoi_core_sources_hold_the_primes_their_units_read(monkeypatch, ranges):
    # each source holds the primes up to the largest prime a unit reads from
    # it, and reads that prime
    built, largest = [], {}
    build, rows = harness.isobaric_source, SatakeParams.rows

    def kept(n_deg, shifts, bound):
        built.append(build(n_deg, shifts, bound))
        return built[-1]

    def read(self, ps):
        largest[id(self)] = max([largest.get(id(self), 0), *np.asarray(ps).tolist()])
        return rows(self, ps)

    monkeypatch.setattr(harness, "isobaric_source", kept)
    monkeypatch.setattr(SatakeParams, "rows", read)
    rep = run_suite(SweepConfig(suite="voronoi-core", ranges=ranges))
    assert rep.passed and rep.cases > 0
    want = 211 if "gl3" in ranges["families"] else 149
    assert len(built) == 3
    for src in built:
        assert src.satake.primes.tolist() == list(primes_up_to(want))
        assert largest[id(src.satake)] == want


def test_voronoi_core_index_past_twice_y_runs(tmp_path, capsys):
    # a_n reads A(q_1, 211) and b_n A(e, q_1 211 / ...), past the prime bound
    # 2Y + 10 that every source once had: the sweep must run, not exit 3
    cfg = tmp_path / "sweep.json"
    ranges = {"truncation_y": 100, "x_probe": 100, "n_values": [211]}
    cfg.write_text(json.dumps({"suite": "voronoi-core", "ranges": ranges}))
    out = tmp_path / "report.json"
    assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["summary"]["cases"], report["summary"]["failures"]) == (19, 0)
    assert "voronoi-core: 19 cases, 0 failures" in capsys.readouterr().err


def test_voronoi_series_evaluates_each_analytic_value_once(monkeypatch):
    # the benchmark's voronoi-series box reads 20 distinct L-values, 3 Gamma
    # ratios and 4 Mobius-character series, each computed once per sweep
    calls = {"l": [], "g": [], "mobius": []}

    def counted(kind, fn, key):
        def wrapper(*args):
            calls[kind].append(key(*args))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        lfunctions, "dirichlet_l",
        counted("l", lfunctions.dirichlet_l, lambda z, chi, *rest: (repr(z), chi)),
    )
    monkeypatch.setattr(
        lfunctions, "g_pm_eval", counted("g", lfunctions.g_pm_eval, lambda s, spec: (repr(s), spec))
    )
    monkeypatch.setattr(
        voronoi, "_mobius_character_terms",
        counted("mobius", voronoi._mobius_character_terms,
                lambda vals, cstar, e, x: (vals.tobytes(), cstar, repr(e), x)),
    )
    for _ in range(2):  # the stores go with the sweep: a second sweep evaluates again
        for kind in calls:
            calls[kind].clear()
        rep = run_suite(
            SweepConfig(suite="voronoi-core", ranges={"truncation_y": 5000, "x_probe": 5000})
        )
        assert rep.cases == 79 and rep.passed
        assert {kind: len(keys) for kind, keys in calls.items()} == {"l": 20, "g": 3, "mobius": 4}
        assert all(len(set(keys)) == len(keys) for keys in calls.values())


@pytest.mark.parametrize(
    "suite, ranges",
    [
        ("voronoi-core", {}),
        ("voronoi-core", {"families": ["z"], "probe_points": [[1.0, 0.4], [3.0, 3.0], [0.0, 0.5]]}),
        ("voronoi-core", {"cstar_values": [1, 5, 12]}),
        ("lfunc", {}),
    ],
)
def test_units_refuse_every_point_they_evaluate(monkeypatch, suite, ranges):
    # every L-value argument a sweep evaluates, with its modulus, and every
    # Gamma argument went through _refuse when its unit was built; a z unit
    # holds the probes of one (s, w) and conductor and names each one's twist
    evaluated, checked, named = set(), set(), set()

    def logged_l(original):
        def dirichlet_l(s, chi, precision=None):
            evaluated.add((repr(complex(s)), chi.modulus))
            return original(s, chi, precision)

        return dirichlet_l

    def log_gamma(z, original=lfunctions.log_gamma):
        evaluated.add(repr(complex(z)))
        return original(z)

    def refuse(label, unit, modulus, l_args, gammas=None, *rest, original=harness._refuse):
        named.add(unit)
        checked.update((repr(complex(z)), modulus) for z in l_args)
        checked.update(repr(complex(z)) for args in (gammas or {}).values() for z in args)
        return original(label, unit, modulus, l_args, gammas, *rest)

    # every L-value, voronoi's too, is read through lfunctions.dirichlet_l
    monkeypatch.setattr(lfunctions, "dirichlet_l", logged_l(lfunctions.dirichlet_l))
    monkeypatch.setattr(lfunctions, "log_gamma", log_gamma)
    monkeypatch.setattr(harness, "_refuse", refuse)
    rep = run_suite(SweepConfig(suite=suite, ranges=ranges))
    assert rep.cases > 0 and rep.passed
    assert evaluated and evaluated <= checked, sorted(evaluated - checked)
    if suite == "voronoi-core":  # every parameter set probes every twist
        assert {"isobaric probe", "trivial probe", "degree-2 probe"} <= named, named


def test_refusals_name_the_field_the_unit_and_its_conductor():
    cases = (
        (
            "voronoi-core",
            {"families": ["gl2"], "s": -1.5, "n_values": [1], "cstar_values": [4099]},
            "ranges.s: s = (-1.5+0j) gives the gl2 unit of conductor 4099 "
            "the L-value argument (-1.5+1j) (dirichlet_l: Re(s) < -0.25",
        ),
        (
            "voronoi-core",
            {"s": [-2, 0], "cstar_values": [12]},
            "ranges.s: s = (-2+0j) puts a Gamma factor of the gl3 unit of conductor 12 "
            "within 1e-6 of a pole (even twist)",
        ),
        (
            "voronoi-core",
            {"families": ["z"], "probe_points": [[0.0, 0.5000001]]},
            "ranges.probe_points: [s, w] = [0.0, 0.5000001] gives the degree-2 probe of "
            "conductor 5 the L-value argument (1.0000002+0j) (dirichlet_l: evaluate exactly",
        ),
        (
            "lfunc",
            {"s_values": [[-1, 0]]},
            "ranges.s_values: s = (-1+0j) puts a Gamma factor of the lfunc unit of "
            "conductor 11 within 1e-6 of a pole (odd twist)",
        ),
    )
    for suite, ranges, message in cases:
        with pytest.raises(ConfigError) as refused:
            SweepConfig(suite=suite, ranges=ranges).validate()
        assert str(refused.value).startswith(message), str(refused.value)


def test_lfunc_without_a_conductor_in_range_is_an_empty_sweep():
    # 2 has no primitive character, so no unit is built and none refuses
    # the L-value argument 1.0000001 that a unit of conductor 3 would
    ranges = {"cstar_min": 2, "cstar_max": 2, "s_values": [1.0000001]}
    rep = run_suite(SweepConfig(suite="lfunc", ranges=ranges))
    assert rep.cases == 0 and rep.passed
    with pytest.raises(ConfigError, match="conductor 3 the L-value argument"):
        SweepConfig(suite="lfunc", ranges={**ranges, "cstar_max": 3}).validate()


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


@pytest.mark.parametrize(
    "ranges, digest",
    [
        ({"degrees": [2], "c_max": 6}, "0168b010633439d9"),
        ({"degrees": [2, 3, 4, 5], "c_max": 8, "q_max": 1}, "2f966b5a9586d0f3"),
    ],
    ids=["degree-2", "q_max-1"],
)
def test_kloosterman_units_without_a_batched_layer_keep_their_bytes(ranges, digest):
    # degree 2 has no layer to batch and q_max 1 gives the last layer one
    # choice, so every unit is a single (c, q') block; both reports are
    # pinned at seed 1
    rep = run_suite(SweepConfig(suite="kloosterman-average", ranges=dict(ranges), seed=1))
    assert rep.passed and rep.cases > 0
    assert hashlib.sha256(rep.to_canonical_json().encode("ascii")).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "suite, ranges, cases, digest",
    [
        (
            "kloosterman-average",
            {"degrees": [3, 4, 5], "c_max": 5, "q_max": 3},
            390,
            "925b1f4d7985b5ec",
        ),
        (
            "equivalence",
            {"degrees": [3, 4, 5], "c_values": [6, 8, 12], "q_max": 2, "coefficients": 20},
            700,
            "664605dd2aa82bed",
        ),
        ("kloosterman-average", {}, 3864, "2a4dafec8be373ab"),
        ("hecke", {}, 401, "e11a4f470681d952"),
        ("equivalence", {}, 2700, "473d04c75c2d485a"),
        ("mobius", {}, 192, "e2395b7b7945f0dd"),
        ("voronoi-core", {}, 79, "09c41e8e22da2f5c"),
        ("lfunc", {}, 156, "60e7b77c72bbbd6a"),
        ("voronoi-core", {"truncation_y": 5000, "x_probe": 5000}, 79, "d87355c21608d54b"),
        (
            "kloosterman-average",
            {"degrees": [4, 6], "c_max": 6, "q_max": 3, "n_values": [1, -2]},
            1080,
            "dfb26891c4b985c4",
        ),
        ("equivalence", {"degrees": [2], "c_values": [3, 4, 5, 8, 12]}, 80, "fd6dafe592be34ce"),
        ("mobius", {"degrees": [2]}, 16, "41db3c41ddfef6fb"),
        (
            "mobius",
            {
                "degrees": [3, 4],
                "cstar_values": [3, 4, 5, 7],
                "n_values": [2, 3, 4],
                "modulus_max": 24,
            },
            600,
            "4191b9ab80559f5e",
        ),
        (
            "mobius",
            {
                "degrees": [5],
                "cstar_values": [3, 4],
                "n_values": [2, 3],
                "modulus_max": 12,
                "q_max": 2,
            },
            64,
            "c51da842963c10e6",
        ),
    ],
    ids=[
        "kloosterman-deg5",
        "equivalence-deg5",
        "kloosterman-average-defaults",
        "hecke-defaults",
        "equivalence-defaults",
        "mobius-defaults",
        "voronoi-core-defaults",
        "lfunc-defaults",
        "voronoi-series",
        "kloosterman-deg6",
        "equivalence-deg2",
        "mobius-deg2",
        "mobius-box",
        "mobius-deg5",
    ],
)
def test_divisor_chain_reports_keep_their_bytes(suite, ranges, cases, digest):
    # batched last layers (kloosterman-average, two of them from degree 4 on,
    # the degree-6 units of the last box among them) and the additive dual
    # side (equivalence) both read every divisor chain of their units; with
    # them the default box of every suite but gauss-lemmas (pinned below) and
    # the voronoi-series box are pinned at seed 1, and so are the Gauss side
    # at degree 2 (no layer), a mobius box over several c* and n, and mobius
    # at degree 5, whose G series multiply three Gauss-sum layers
    rep = run_suite(SweepConfig(suite=suite, ranges=dict(ranges), seed=1))
    assert rep.passed and rep.cases == cases
    assert hashlib.sha256(rep.to_canonical_json().encode("ascii")).hexdigest()[:16] == digest


def test_twisted_units_never_reduce_a_character(monkeypatch):
    # mobius and voronoi-core instances carry chi* itself, so their sweeps
    # neither induce chi* up to l c* nor reduce a character mod c back to it;
    # equivalence reduces each character mod c once, which shows the count
    calls = []
    primitive = DirichletCharacter.primitive
    monkeypatch.setattr(
        DirichletCharacter, "primitive", lambda chi: calls.append(chi) or primitive(chi)
    )
    for suite in ("mobius", "voronoi-core"):
        assert run_suite(SweepConfig(suite=suite, seed=1)).passed
        assert calls == [], suite
    box = {"degrees": [3], "c_values": [12], "q_max": 1, "coefficients": 5}
    run_suite(SweepConfig(suite="equivalence", ranges=box, seed=1))
    assert len(calls) == 4  # phi(12) characters mod 12


def test_mobius_units_evaluate_each_series_once(monkeypatch):
    # a mobius unit reads its h and g series through a store it owns, so each
    # distinct (unit, chi*, q, c) is evaluated once; the collapses and their
    # targets read each of them about six times (1 950 g calls for 320 series
    # at the defaults without the store).  The unit's source tells the units
    # apart; the calls keep every instance, and so every source, alive.
    calls = []
    for name in ("h_coefficients", "g_coefficients"):
        series = getattr(voronoi, name)

        def counted(inst, *args, series=series):
            calls.append((series, inst))
            return series(inst, *args)

        monkeypatch.setattr(voronoi, name, counted)
        monkeypatch.setattr(harness, name, counted)
    assert run_suite(SweepConfig(suite="mobius", seed=1)).passed
    keys = [(series, id(inst.source), inst.chi_star, inst.q, inst.c) for series, inst in calls]
    assert len(keys) == len(set(keys)) == 640


@pytest.mark.parametrize(
    "ranges, cases, digest",
    [
        ({"cstar_max": 16, "c_max": 64}, 2496, "8890a38a64c0dca5"),
        ({}, 5962, "533083478f9cdb63"),
        ({"lemmas": ["2.3"], "cstar_max": 12, "c_max": 40}, 168, "f1e9b8843b6931e8"),
        (
            {"lemmas": ["2.5"], "cstar_max": 12, "c_max": 20, "n_max": 12, "m_max": 10},
            324,
            "2c7f997bdcdd655b",
        ),
        (
            {"lemmas": ["2.2", "2.5"], "cstar_max": 20, "c_max": 12, "n_max": 6, "m_max": 15},
            526,
            "11fbe3956fc609b8",
        ),
        ({"lemmas": ["2.2"], "cstar_max": 8, "c_max": 360, "m_max": 240}, 1131, "b54aa1c9df7ed556"),
    ],
    ids=[
        "gauss-records",
        "defaults",
        "lemma23-only",
        "lemma25-across-c_max",
        "cstar-past-c_max",
        "lemma22-many-divisors",
    ],
)
def test_gauss_lemma_reports_keep_their_bytes(ranges, cases, digest):
    # Lemma 2.2 and 2.3 rows against the FFT Gauss sums, and the Lemma 2.5
    # divisor average, for every primitive character up to cstar_max; the
    # next three boxes select one closed lemma only, put k c* on both sides
    # of c_max for Lemma 2.5, and give conductors past c_max with Lemma 2.5
    # records only; the last adds Lemma 2.2 terms over many divisors of c/c*,
    # in several chunks at c* = 1.  Every report is pinned at seed 1
    rep = run_suite(SweepConfig(suite="gauss-lemmas", ranges=dict(ranges), seed=1))
    assert rep.passed and rep.cases == cases
    assert hashlib.sha256(rep.to_canonical_json().encode("ascii")).hexdigest()[:16] == digest


def test_config_echo_keeps_the_ranges_as_given():
    # The report echoes each range as the config gave it, not as the sweep
    # reads it: a real s is not written as a [re, im] pair, and shift sets
    # stay lists of integer imaginary parts.
    box = {"degrees": [3], "c_values": [4], "q_max": 1, "coefficients": 5, "s": 0.5}
    text = run_suite(SweepConfig(suite="equivalence", ranges=dict(box))).to_canonical_json()
    echo = json.loads(text)["config"]["ranges"]
    assert echo == {**harness._SUITES["equivalence"].defaults, **box}
    assert '"q_max":1,"s":0.5},' in text
    box = {"families": ["gl2"], "truncation_y": 20, "n_values": [1], "cstar_values": [3]}
    text = run_suite(SweepConfig(suite="voronoi-core", ranges=dict(box))).to_canonical_json()
    echo = json.loads(text)["config"]["ranges"]
    assert echo == {**harness._SUITES["voronoi-core"].defaults, **box}
    assert '"gl2_shift_sets":[[1,-1]],"gl3_shift_sets":[[0,0,0],[1,0,-1]],' in text


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


def test_plain_parameter_encoder_matches_canonical_json():
    # parameters_json encodes plain dicts with the standard encoder and the
    # rest with canonical_json; on every record of a small box of each suite
    # both must give the same text
    plain = other = 0
    for suite in suite_names():
        rep = run_suite(SweepConfig(suite=suite, ranges=dict(REPEAT_RANGES[suite]), seed=1))
        assert rep.records, suite
        for rec in rep.records:
            want = canonical_json(rec.parameters)
            assert rec.parameters_json == want, suite
            if harness._plain_parameters(rec.parameters):
                assert harness._PLAIN_ENCODER.encode(rec.parameters) == want, suite
                plain += 1
            else:
                other += 1
    assert plain and other
    for params in (
        {"b": True},
        {"q": [1, True]},
        {"x": 0.5},
        {"z": 1j},
        {"n": np.int64(3)},
        {"q": [1, np.int64(2)]},
        {"q": (1, 2)},
        {"d": {"a": 1}},
        {"s": harness._Encoded("[1]")},
    ):
        assert not harness._plain_parameters(params), params
        rec = harness.CaseRecord("Eq. 1", params, 0j, 0j, 0.0, 0.0, 1.0, True)
        assert rec.parameters_json == canonical_json(params)


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
    # only lfunc reads a working precision; a voronoi-core sweep would run in
    # double precision and echo the precision it never used
    with pytest.raises(ConfigError, match="precision: suite 'voronoi-core'"):
        SweepConfig(suite="voronoi-core", ranges={}, precision=200).validate()


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
        # entries past 10^6: factorizing 2^61 - 1 for its source's prime bound
        # would take minutes, and 10^20 overflows b_n's int64 gathers
        ("voronoi-core", {"n_values": [1, 10**6 + 1]}, "ranges.n_values"),
        ("voronoi-core", {"q_values": [[2], [2**61 - 1]]}, "ranges.q_values"),
        ("voronoi-core", {"q_values": [[10**20]]}, "ranges.q_values"),
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
        # at the limit, an index q n of two primes near 10^6 is factorized at once
        ("voronoi-core", {"q_values": [[999983]], "n_values": [999979]}),
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
        # the isobaric probe's L-values sit at 3 + s_i and exactly 1: no reflection
        ("voronoi-core", {"families": ["z"], "probe_points": [[3.0, 3.0]], "x_probe": 10,
                          "probe_cstar": 4099}),
        ("lfunc", {"cstar_max": 4096, "s_values": [-1.5], "shift_sets": [[0]]}),
    ]
    for suite, ranges in good:
        SweepConfig(suite=suite, ranges=ranges).validate()
    # with a working precision the L-values go through mpmath, which has no reflection limit
    big = {"cstar_min": 4099, "cstar_max": 4099, "s_values": [-1.5], "shift_sets": [[0]]}
    SweepConfig(suite="lfunc", ranges=big, precision=64).validate()


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats()  # NaN and both infinities included
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.parametrize(
    "suite, key",
    [(suite, key) for suite in suite_names() for key in harness._SUITES[suite].defaults],
)
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(value=JSON_VALUES)
def test_any_json_range_value_validates_or_raises_config_error(suite, key, value):
    # whatever a config file holds for one range, validation either accepts
    # it or names the problem; it never fails with another exception
    try:
        SweepConfig(suite=suite, ranges={key: value}).validate()
    except ConfigError:
        pass


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


def _field_bits(rec) -> list:
    # every field with its type; floats and complex numbers by their bits, so
    # NaN and the sign of zero compare too
    out = []
    for f in dataclasses.fields(rec):
        value = getattr(rec, f.name)
        if type(value) is complex:
            value = struct.pack("<2d", value.real, value.imag)
        elif type(value) is float:
            value = struct.pack("<d", value)
        out.append((f.name, type(getattr(rec, f.name)), value))
    return out


@pytest.mark.parametrize("dtype", [complex, float])
def test_worst_records_equal_rel_case_field_for_field(dtype):
    # _worst_records builds each record from its tolist values; it must give
    # what _rel_case gives at the same worst point, for complex and real
    # lhs/rhs, a NaN row and a numpy tolerance
    nan = float("nan")
    rel = np.array([[0.1, 0.3, 0.3], [0.2, nan, 0.9], [0.0, 0.0, 0.0], [0.5, 0.1, 0.4]])
    rng = np.random.default_rng(5)
    lhs, rhs = (rng.standard_normal((4, 3)).astype(dtype) for _ in range(2))
    if dtype is complex:
        lhs += 1j * rng.standard_normal((4, 3))
    lhs[2, 0], rhs[2, 0] = -0.0, nan
    tol = np.float64(0.4)
    rows = [{"row": i} for i in range(4)]
    got = harness._worst_records("anchor", rows, lhs, rhs, rel, tol, lambda p: {"p": p})
    want = [
        harness._rel_case("anchor", {"row": i, "p": p}, lhs[i, p], rhs[i, p], rel[i, p], tol)
        for i, p in enumerate([1, 1, 0, 0])
    ]
    assert [_field_bits(r) for r in got] == [_field_bits(r) for r in want]
    assert [r.passed for r in got] == [True, False, True, False]


def test_case_record_cached_key_is_not_compared_or_shown():
    args = ("Eq. 1", {"m": 3, "chi": "5:1"}, 1j, 1j, 0.0, 0.0, 1e-9, True)
    read, fresh = harness.CaseRecord(*args), harness.CaseRecord(*args)
    shown = repr(fresh)
    assert read.parameters_json == '{"chi":"5:1","m":3}' and fresh._parameters_json is None
    assert read == fresh and repr(read) == shown and "_parameters_json" not in shown
    assert read.to_dict() == fresh.to_dict()


def test_gauss_records_read_back_equal(tmp_path):
    rep = run_suite(SweepConfig(suite="gauss-lemmas", ranges={"cstar_max": 16, "c_max": 64}))
    path = tmp_path / "gauss.json"
    emit_report(rep, path)
    back = load_report(path)
    assert back.records == rep.records and back.cases == 2496


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


@pytest.mark.parametrize("degree, target", [(3, (2,)), (4, (2, 1))], ids=["deg3", "deg4"])
def test_kloosterman_nan_point_fails_its_character(monkeypatch, tmp_path, degree, target):
    ranges = {"degrees": [degree], "c_max": 5, "q_max": 2, "n_values": [1, 2]}
    clean = run_suite(SweepConfig(suite="kloosterman-average", ranges=dict(ranges)))
    table = harness.average_kloosterman_closed_lemma34_table

    def poisoned(c, q, n_values):
        # a unit's table holds the blocks of every q' of its batched layers
        # side by side (at degree 4 both layers are batched); poison the
        # last chain of the (c = 5, q' = target) block
        out = table(c, q, n_values)
        if c == 5:
            assert q == ((1, 2),) * (degree - 2)
            blocks = exponential_sums._chain_tree(c, q).blocks
            (cols,) = [cols for qq, cols in blocks if qq == target]
            out[1, cols.stop - 1, 0] = complex(math.nan, 0.0)
        return out

    monkeypatch.setattr(harness, "average_kloosterman_closed_lemma34_table", poisoned)
    rep = run_suite(SweepConfig(suite="kloosterman-average", ranges=dict(ranges)))
    assert rep.cases == clean.cases
    (bad,) = [r for r in rep.records if not r.passed]
    assert bad.parameters["c"] == 5 and bad.parameters["q"] == list(target)
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
    rows = harness._lemma22_rows

    def poisoned(at_m):
        # the unit passes the closed-form inputs of its conductor: c* first,
        # then its moduli c; the rows run over primitive_characters(c*)
        def closed_rows(inputs):
            out = rows(inputs)
            cstar, cs, *_ = inputs
            labels = [chi.label for chi in primitive_characters(cstar)]
            if "3:1" in labels:
                x, i = labels.index("3:1"), list(cs).index(6)
                for j, m in enumerate(range(1, ranges["m_max"] + 1)):
                    if at_m is None or m == at_m:
                        out[x, i, j] = complex(math.nan, 0.0)
            return out

        return closed_rows

    # one NaN point outranks every number in its row; a row NaN at every m
    # still yields a record (its first point), not a crash mid-sweep
    for at_m, want_m in ((5, 5), (None, 1)):
        monkeypatch.setattr(harness, "_lemma22_rows", poisoned(at_m))
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
                want += chid * gauss_sum_vector(chi, mod)[np.arange(1, m_max + 1) % mod]
        got = struct.pack("<2d", rec.lhs.real, rec.lhs.imag)
        assert got == want[m - 1 : m].tobytes(), rec.parameters


def test_gauss_tables_are_built_once_per_sweep_and_freed_with_their_unit(monkeypatch):
    # the unit of a conductor c* builds each table g(chi*, k c*, .) it reads
    # once, in ascending k, for the closed lemmas at k c* <= c_max and for
    # Lemma 2.5 at k <= n_max, and keeps none; gauss_sum_vector caches a
    # copy of its row
    built, refs, kept = [], [], []

    def tables(cstar, cs):
        for c, table in zip(cs, gauss_sum_tables(cstar, cs)):
            built.append((cstar, c))
            refs.append(weakref.ref(table))
            yield table

    monkeypatch.setattr(harness, "gauss_sum_tables", tables)
    ranges = {"cstar_max": 7, "c_max": 20, "n_max": 12, "m_max": 10}
    rep = run_suite(SweepConfig(suite="gauss-lemmas", ranges=ranges))
    want = [
        (cstar, k * cstar)
        for cstar in range(1, 8)
        if primitive_characters(cstar)
        for k in range(1, max(20 // cstar, 12) + 1)
    ]
    assert rep.passed and sorted(built) == want
    assert all(a[1] < b[1] for a, b in zip(built, built[1:]) if a[0] == b[0])
    gc.collect()
    assert all(ref() is None for ref in refs)

    monkeypatch.setattr(
        exponential_sums, "gauss_sum_rows", lambda *a: kept.append(gauss_sum_rows(*a)) or kept[-1]
    )
    gauss_sum_vector.cache_clear()
    chi = primitive_characters(5)[1]
    vec = gauss_sum_vector(chi, 20)
    assert len(kept) == 1 and not vec.flags.writeable
    assert vec.tobytes() == kept[0][1].tobytes() and not np.shares_memory(vec, kept[0])


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
        # these ended in a traceback (exit 1, which means a failed check), in
        # exit 3, or in a sweep of NaN failures
        ("hecke", "abc", "ranges"),
        ("hecke", 5, "ranges"),
        ("hecke", None, "ranges"),
        (["hecke"], {}, "suite"),
        ("voronoi-core", {"s": [-1.5, math.inf]}, "ranges.s"),
        ("voronoi-core", {"probe_points": [[2.5, math.inf]]}, "ranges.probe_points"),
        ("voronoi-core", {"probe_points": [[math.nan, 3.0]]}, "ranges.probe_points"),
        ("equivalence", {"s": [math.inf, 0]}, "ranges.s"),
        ("mobius", {"s": -math.inf}, "ranges.s"),
        ("lfunc", {"s_values": [10**400]}, "ranges.s_values"),  # beyond the float range
        # a z probe on an L-value pole: the trivial twist's zeta(s)^3 at s = 1,
        # the degree-2 L(2w, chi*) and the isobaric L(s, chi*) next to 1
        ("voronoi-core", {"families": ["z"], "probe_points": [[1.0, 3.0]]}, "ranges.probe_points"),
        ("voronoi-core", {"families": ["z"], "probe_points": [[0.0, 0.5000001]]}, "ranges.probe_points"),
        ("voronoi-core", {"families": ["z"], "probe_points": [[1.0000001, 4.0]]}, "ranges.probe_points"),
        # an L-value left of Re s = -0.25 at a conductor above 4096, past the
        # reflection formula: these stopped the sweep with exit 3
        ("lfunc", {"cstar_min": 4099, "cstar_max": 4099, "s_values": [-1.5], "shift_sets": [[0]]},
         "ranges.s_values"),
        ("voronoi-core", {"families": ["gl2"], "s": -1.5, "truncation_y": 10, "n_values": [1],
                          "cstar_values": [4099]}, "ranges.s"),
        ("voronoi-core", {"families": ["z"], "probe_points": [[-0.5, 0.0]], "x_probe": 10,
                          "probe_cstar": 4099}, "ranges.probe_points"),
        # 4098 has no primitive character, so 4097 stands for the range
        ("lfunc", {"cstar_max": 4098, "s_values": [-1.5], "shift_sets": [[0]]}, "ranges.s_values"),
    )
    for suite, ranges, field in probes:
        bad_range = tmp_path / "bad_range.json"
        bad_range.write_text(json.dumps({"suite": suite, "ranges": ranges}))
        assert cli.main(["--config", str(bad_range)]) == 2, (suite, ranges)
        assert f"config error: {field}:" in capsys.readouterr().err, (suite, ranges)
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


def test_z_probes_next_to_an_l_pole_still_run():
    # a nonprincipal L exactly at 1 is evaluated, a trivial twist off the
    # edge is not built, and no z family means no probe
    ranges = {"families": ["z"], "probe_points": [[1.0, 0.4], [3.0, 3.0], [0.0, 0.5]], "x_probe": 300}
    rep = run_suite(SweepConfig(suite="voronoi-core", ranges=ranges))
    assert rep.cases == 5 and rep.passed
    SweepConfig(suite="voronoi-core", ranges={"families": ["gl2"], "probe_points": [[1.0, 3.0]]}).validate()


def test_report_from_dict_rejects_tampered_summary(tmp_path):
    rep = run_suite(SweepConfig(suite="hecke", ranges=dict(SMALL_HECKE), seed=2))
    doc = rep.to_dict()
    doc["summary"]["failures"] += 1
    with pytest.raises(ValueError):
        VerificationReport.from_dict(doc)
