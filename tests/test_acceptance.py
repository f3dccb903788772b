"""Acceptance gate: every shipped claim at its stated tolerance and budget.

Each test runs one full sweep through the public harness and prints a single
ACCEPTANCE line (visible under pytest -rA or on failure) before asserting.
"""

from voronoi_lab.harness import SweepConfig, run_suite


def _line(n, label, reports, cap):
    cases = sum(r.cases for r in reports)
    failures = sum(r.failures for r in reports)
    wall = sum(r.wall_time for r in reports)
    max_rel = max(r.max_rel_error for r in reports)
    ok = failures == 0 and wall < cap
    print(
        f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'} "
        f"({cases} cases, {failures} failures, max rel {max_rel:.2e}, "
        f"{wall:.1f}s < {cap}s)",
        flush=True,
    )
    return ok


def test_acceptance_1_gauss_closed_forms():
    rep = run_suite(
        SweepConfig(
            suite="gauss-lemmas",
            ranges={"lemmas": ["2.2", "2.3"]},
            tolerance=1e-9,
        )
    )
    # m_max = c_max, so every residue mod every c is checked
    rep_big = run_suite(
        SweepConfig(
            suite="gauss-lemmas",
            ranges={"lemmas": ["2.2", "2.3"], "cstar_max": 32, "c_max": 192, "m_max": 192},
            tolerance=1e-9,
        )
    )
    assert rep_big.cases == 4586
    assert _line(1, "gauss-closed-forms", [rep, rep_big], 30)


def test_acceptance_2_gauss_divisor_average():
    rep = run_suite(
        SweepConfig(suite="gauss-lemmas", ranges={"lemmas": ["2.5"]}, tolerance=1e-9)
    )
    # twice the default n and conductors: Gauss sums at moduli up to 80 c*
    rep_big = run_suite(
        SweepConfig(
            suite="gauss-lemmas",
            ranges={"lemmas": ["2.5"], "cstar_max": 32, "n_max": 80, "m_max": 120},
            tolerance=1e-9,
        )
    )
    assert rep_big.cases == 16400
    ok = _line(2, "gauss-divisor-average", [rep, rep_big], 10)
    # the vanishing branch must be exercised and hold at the same tolerance
    zero_branch = [r for r in rep.records + rep_big.records if r.rhs == 0]
    assert ok and zero_branch and all(r.passed for r in zero_branch)


def test_acceptance_3_kloosterman_average():
    rep = run_suite(SweepConfig(suite="kloosterman-average", ranges={}, tolerance=1e-8))
    # degree 6: four Kloosterman layers, 81 q tuples times sum of phi(c) = 46 characters
    rep_deg6 = run_suite(
        SweepConfig(
            suite="kloosterman-average",
            ranges={"degrees": [6], "c_max": 12, "q_max": 3},
            tolerance=1e-8,
        )
    )
    assert rep_deg6.cases == 3726
    assert _line(3, "kloosterman-average", [rep, rep_deg6], 300)


def test_acceptance_4_hecke_recursions():
    rep = run_suite(SweepConfig(suite="hecke", ranges={}, tolerance=1e-10))
    assert _line(4, "hecke-recursions", [rep], 60)


def test_acceptance_5_equivalence_and_collapse():
    rep_e = run_suite(SweepConfig(suite="equivalence", ranges={}, tolerance=1e-10))
    # twice the default moduli, so the layered tables reach moduli in the hundreds
    rep_big = run_suite(
        SweepConfig(suite="equivalence", ranges={"c_values": list(range(2, 25))}, tolerance=1e-10)
    )
    # degree 5: three Kloosterman layers, 27 q tuples over the default moduli
    rep_deg5 = run_suite(
        SweepConfig(suite="equivalence", ranges={"degrees": [5]}, tolerance=1e-10)
    )
    assert rep_deg5.cases == 6075
    rep_m = run_suite(SweepConfig(suite="mobius", ranges={}, tolerance=1e-10))
    assert _line(5, "equivalence-and-collapse", [rep_e, rep_big, rep_deg5, rep_m], 120)


def test_acceptance_6_side_by_side_series():
    # the default truncation and ten times it: the certified tail, nearly all
    # of each allowance, shrinks as Y grows, so the larger Y is the sharper check
    reps = [
        run_suite(
            SweepConfig(
                suite="voronoi-core",
                ranges={"families": ["gl3", "gl2"], "truncation_y": y},
                tolerance=1e-6,
            )
        )
        for y in (10_000, 100_000)
    ]
    assert _line(6, "side-by-side-series", reps, 300)


def test_acceptance_7_functional_equation():
    rep = run_suite(SweepConfig(suite="lfunc", ranges={}, tolerance=1e-9))
    assert _line(7, "functional-equation", [rep], 30)


def test_acceptance_8_rearrangement_probe():
    rep = run_suite(
        SweepConfig(suite="voronoi-core", ranges={"families": ["z"]}, tolerance=1e-6)
    )
    ok = _line(8, "rearrangement-probe", [rep], 30)
    probed = {
        (rec.parameters["s"], rec.parameters["w"])
        for rec in rep.records
        if rec.parameters["twist"] == "isobaric" and rec.passed
    }
    assert ok and (2.5, 4.0) in probed and (3.0, 3.0) in probed
