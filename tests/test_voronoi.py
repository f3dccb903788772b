"""Truncated series identities: averaging, collapse, a_n = b_n, z probe."""

import math
from dataclasses import replace

import numpy as np
import pytest

from voronoi_lab.characters import (
    conductor,
    enumerate_characters,
    induce,
    primitive_characters,
    principal,
)
from voronoi_lab.exponential_sums import tau
from voronoi_lab.hecke import isobaric_source, random_satake_source, raw_table_source
from voronoi_lab.lfunctions import (
    GammaFactorSpec,
    LValueRequest,
    g_pm_eval,
    twisted_l_isobaric,
)
from voronoi_lab.residues import divisor_count, euler_phi, unit_residues
from voronoi_lab.voronoi import (
    TruncatedDirichletSeries,
    VoronoiInstance,
    a_n_coefficient,
    b_n_coefficient,
    b_n_tail_bound,
    curly_g,
    curly_g_coefficients,
    curly_h,
    curly_h_coefficients,
    g_coefficients,
    g_series,
    h_coefficients,
    h_series,
    lq_additive,
    lq_additive_coefficients,
    mobius_collapse,
    parity_gamma,
    voronoi_rhs_coefficients,
    z_probe,
    z_probe_bound,
)

X = 50
S0 = 0.35 - 0.6j
GP = 0.8 + 0.3j  # stand-in Gamma ratios; the identities are linear in these
GM = -0.4 + 1.1j


def _maxdiff(u, v):
    return float(np.max(np.abs(np.asarray(u) - np.asarray(v))))


def _scale(*arrays):
    return max(1e-30, *(float(np.max(np.abs(a))) for a in arrays))


def test_series_container():
    ser = TruncatedDirichletSeries.from_dict({1: 2.0, 3: 1j}, 5)
    assert ser.coefficient(3) == 1j
    assert ser.coefficient(2) == 0 and ser.coefficient(7) == 0
    assert abs(ser.evaluate(2.0) - (2.0 + 1j * 3.0**-2.0)) < 1e-15
    other = TruncatedDirichletSeries.from_dict({1: 1.0, 2: 1.0}, 3)
    tot = ser + other
    assert tot.truncation == 3 and tot.coefficient(1) == 3.0
    assert (2 * ser).coefficient(3) == 2j
    assert (ser - other).coefficient(1) == 1.0
    with pytest.raises(TypeError):
        ser + 3.0


def test_instance_validation():
    src = raw_table_source(3, seed=1)
    chi5 = primitive_characters(5)[0]
    with pytest.raises(ValueError):
        VoronoiInstance(src, (1,), 5, chi=chi5, a=2)  # both twists
    with pytest.raises(ValueError):
        VoronoiInstance(src, (1,), 5)  # neither twist
    with pytest.raises(ValueError):
        VoronoiInstance(src, (1,), 7, chi=chi5)  # modulus mismatch
    with pytest.raises(ValueError):
        VoronoiInstance(src, (1,), 6, a=2)  # gcd(a, c) > 1
    with pytest.raises(ValueError):
        VoronoiInstance(src, (1, 2), 5, chi=chi5)  # degree-2 layers expected
    with pytest.raises(ValueError):
        VoronoiInstance(src, (0,), 5, chi=chi5)  # layer must be positive
    with pytest.raises(ValueError):
        VoronoiInstance(src, (1,), 5, chi=chi5, truncation=0)
    inst = VoronoiInstance(src, (1,), 5, a=7)  # reduced mod c
    assert inst.a == 2 and inst.abar == 3


def test_character_averaging_equivalence_both_directions():
    # the additive and character-twisted series are linear-algebra shadows of
    # each other: chi-averaging the additive data gives the H/G series, and
    # conjugate averaging over the full family reconstructs each twist
    for deg, c, q, seed in ((3, 5, (2,), 11), (4, 6, (2, 3), 14)):
        src = raw_table_source(deg, seed=seed)
        units = [int(a) for a in unit_residues(c)]
        add_coefs, r10, r01 = {}, {}, {}
        for a in units:
            inst_a = VoronoiInstance(src, q, c, a=a, truncation=X)
            add_coefs[a] = lq_additive_coefficients(inst_a)
            r10[a] = voronoi_rhs_coefficients(inst_a, S0, 1.0, 0.0)
            r01[a] = voronoi_rhs_coefficients(inst_a, S0, 0.0, 1.0)
        chars = enumerate_characters(c)
        h_by_chi, g_by_chi = {}, {}
        for chi in chars:
            inst_c = VoronoiInstance(src, q, c, chi=chi, truncation=X)
            cstar = inst_c.cstar
            avg = sum(chi.value_vector[a] * add_coefs[a] for a in units)
            href = h_coefficients(inst_c)
            h_by_chi[chi] = href
            assert _maxdiff(avg, href) / _scale(href, avg) < 1e-10
            avg_r = sum(chi.value_vector[a] * (GP * r10[a] + GM * r01[a]) for a in units)
            gref = g_coefficients(inst_c, S0, parity_gamma(inst_c.chi_star, GP, GM))
            g_by_chi[chi] = gref
            target = (c / cstar) ** (1 - 2 * S0) * gref
            assert _maxdiff(avg_r, target) / _scale(avg_r, target) < 1e-10
            # the parity-mismatched Gamma ratio must average to zero
            mis = (1.0, 0.0) if inst_c.chi_star.parity == -1 else (0.0, 1.0)
            avg_z = sum(
                chi.value_vector[a] * (mis[0] * r10[a] + mis[1] * r01[a]) for a in units
            )
            assert _maxdiff(avg_z, 0 * avg_z) / _scale(*(r10[a] for a in units)) < 1e-10
        phi_c = euler_phi(c)
        for a in units:
            rec_a = sum(np.conj(ch.value_vector[a]) * h_by_chi[ch] for ch in chars) / phi_c
            assert _maxdiff(rec_a, add_coefs[a]) / _scale(add_coefs[a]) < 1e-10
            rec_r = (
                sum(
                    np.conj(ch.value_vector[a])
                    * (c / conductor(ch)[0]) ** (1 - 2 * S0)
                    * g_by_chi[ch]
                    for ch in chars
                )
                / phi_c
            )
            direct = GP * r10[a] + GM * r01[a]
            assert _maxdiff(rec_r, direct) / _scale(direct) < 1e-10


def test_mobius_collapse_inverts_divisor_averaging():
    for deg, cstar, q, n, seed in ((3, 4, (3,), 6, 22), (4, 3, (1, 2), 4, 24)):
        src = raw_table_source(deg, seed=seed)
        for chi_star in primitive_characters(cstar):
            base = VoronoiInstance(src, q, cstar, chi=chi_star, truncation=X)
            target = VoronoiInstance(
                src, q, n * cstar, chi=induce(chi_star, n * cstar), truncation=X
            )
            got_h = mobius_collapse(
                lambda q2, n2: curly_h_coefficients(replace(base, q=q2), n2, S0),
                q, n, S0, chi_star,
            )
            want_h = h_coefficients(target) * complex(n) ** (2 * S0 - 1)
            assert _maxdiff(got_h, want_h) / _scale(want_h) < 1e-10
            got_g = mobius_collapse(
                lambda q2, n2: curly_g_coefficients(replace(base, q=q2), n2, S0, GP),
                q, n, S0, chi_star,
            )
            want_g = g_coefficients(target, S0, GP)
            assert _maxdiff(got_g, want_g) / _scale(want_g, got_g) < 1e-10


def test_curly_wrappers_degenerate_to_plain_series():
    src = raw_table_source(3, seed=31)
    for chi_star in primitive_characters(5):
        base = VoronoiInstance(src, (1,), 5, chi=chi_star, truncation=X)
        # n = 1 and unit layers: the divisor sums have a single term and the
        # conductor scale is exactly one
        assert _maxdiff(curly_h_coefficients(base, 1, S0), h_coefficients(base)) == 0.0


def test_scalar_wrappers_match_coefficient_sums():
    src = raw_table_source(3, seed=31)
    chi5 = primitive_characters(5)[0]
    inst_a = VoronoiInstance(src, (2,), 5, a=3, truncation=X)
    inst_c = VoronoiInstance(src, (2,), 10, chi=induce(chi5, 10), truncation=X)
    n = np.arange(1, X + 1, dtype=complex)
    s = S0
    lq = lq_additive_coefficients(inst_a)[1:]
    assert abs(lq_additive(inst_a, s) - np.sum(lq * n**-s)) < 1e-12
    hfull = h_coefficients(inst_c)[1:] * (inst_c.c / inst_c.cstar) ** (2 * s - 1)
    assert abs(h_series(inst_c, s) - np.sum(hfull * n**-s)) < 1e-12
    gc = g_coefficients(inst_c, s, GP)[1:]
    assert abs(g_series(inst_c, s, GP) - np.sum(gc * n ** -(1 - s))) < 1e-12
    ch = curly_h_coefficients(inst_c, 2, s)[1:]
    assert abs(curly_h(inst_c, 2, s) - np.sum(ch * n**-s)) < 1e-12
    cg = curly_g_coefficients(inst_c, 2, s, GP)[1:]
    assert abs(curly_g(inst_c, 2, s, GP) - np.sum(cg * n ** -(1 - s))) < 1e-12


def _side_by_side(src, shifts, chi_star, q, s, y, n_values):
    cstar = chi_star.modulus
    deg = src.degree
    delta = 0 if chi_star.parity == 1 else 1
    gval = g_pm_eval(s, GammaFactorSpec(tuple(-sh for sh in shifts), delta))
    pref = gval * tau(chi_star)**deg * cstar ** (-deg * s)
    lval = twisted_l_isobaric(LValueRequest(s, chi_star, shifts))
    inst = VoronoiInstance(src, q, cstar, chi=chi_star, truncation=X)
    for n in n_values:
        a_val = a_n_coefficient(inst, n, s, lval)
        b_val = b_n_coefficient(inst, n, s, pref, y)
        tail = b_n_tail_bound(inst, n, s, pref, y)
        allowed = tail + 1e-6 * max(abs(a_val), abs(b_val))
        assert abs(a_val - b_val) <= allowed, (shifts, chi_star.label, q, n)


def test_gl3_side_by_side_with_certified_tail():
    y = 2000
    shifts = (1j, 0j, -1j)
    src = isobaric_source(3, shifts, 2 * y + 10)
    _side_by_side(src, shifts, primitive_characters(4)[0], (2,), -1.5, y, (1, 3, 7))


def test_gl2_side_by_side_with_certified_tail():
    y = 2000
    shifts = (1j, -1j)
    src = isobaric_source(2, shifts, 2 * y + 10)
    _side_by_side(src, shifts, primitive_characters(4)[0], (), -1.5, y, (1, 3, 7))


def test_tail_bound_shrinks_and_rejects_raw_tables():
    shifts = (0j, 0j, 0j)
    src = isobaric_source(3, shifts, 100)
    chi = primitive_characters(3)[0]
    inst = VoronoiInstance(src, (1,), 3, chi=chi, truncation=X)
    s = -1.5
    gval = g_pm_eval(s, GammaFactorSpec((0j, 0j, 0j), 1))
    pref = gval * tau(chi)**3 * 3.0 ** (-3 * s)
    bounds = [b_n_tail_bound(inst, 2, s, pref, y) for y in (500, 2000, 8000)]
    assert bounds[0] > bounds[1] > bounds[2] > 0
    raw = VoronoiInstance(raw_table_source(3, seed=1), (1,), 3, chi=chi, truncation=X)
    with pytest.raises(ValueError):
        b_n_tail_bound(raw, 2, s, pref, 500)


def test_z_probe_rearrangement_is_exact():
    s, w, x = 2.5, 4.0, 300
    src = isobaric_source(3, (1j, 0j, -1j), 4 * x)
    chi5 = primitive_characters(5)[0]
    inst = VoronoiInstance(src, (2,), 5, chi=chi5, truncation=X)
    _, via_a = z_probe(inst, s, w, x)
    lval = twisted_l_isobaric(LValueRequest(s, chi5, (1j, 0j, -1j)))
    direct = sum(
        a_n_coefficient(inst, n, s, lval) * n ** (-2.0 * w) for n in range(1, x + 1)
    )
    assert abs(via_a - direct) / abs(direct) < 1e-12


def test_z_probe_trivial_twist_zeta_oracle():
    import mpmath as mp

    s, w, x = 2.5, 4.0, 500
    src = isobaric_source(3, (0j, 0j, 0j), 2 * x)
    inst = VoronoiInstance(src, (1,), 1, chi=principal(1), truncation=X)
    via_l, via_a = z_probe(inst, s, w, x)
    with mp.workdps(30):
        oracle = complex(mp.zeta(5.5) ** 3 * mp.zeta(2.5) ** 3 / mp.zeta(4))
    assert abs(via_l - oracle) / abs(oracle) < 1e-11
    assert abs(via_l - via_a) < z_probe_bound(inst, s, w, x)


def test_z_probe_within_certified_bound():
    s, w, x = 2.5, 4.0, 2000
    src = isobaric_source(3, (1j, 0j, -1j), 2 * x)
    chi5 = primitive_characters(5)[0]
    inst = VoronoiInstance(src, (2,), 5, chi=chi5, truncation=X)
    via_l, via_a = z_probe(inst, s, w, x)
    bound = z_probe_bound(inst, s, w, x)
    assert abs(via_l - via_a) < bound
    assert bound < 1e-8  # the d3-squared tail is already tiny here


def test_z_probe_rejects_raw_tables():
    chi5 = primitive_characters(5)[0]
    raw = VoronoiInstance(raw_table_source(3, seed=1), (1,), 5, chi=chi5, truncation=X)
    with pytest.raises(ValueError):
        z_probe(raw, 2.5, 4.0, 100)


def test_unitary_coefficients_inside_divisor_envelope():
    src = random_satake_source(3, 40, seed=5)
    for m1 in range(1, 21):
        for m2 in range(1, 21):
            envelope = divisor_count(3, m1) * divisor_count(3, m2)
            assert abs(src.coefficient((m1, m2))) <= envelope + 1e-9
