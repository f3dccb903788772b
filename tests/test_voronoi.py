"""Truncated series identities: averaging, collapse, a_n = b_n, z probe."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from voronoi_lab import voronoi
from voronoi_lab.characters import enumerate_characters, primitive_characters
from voronoi_lab.exponential_sums import gauss_sum_vector, kloosterman_divisor_chains, tau
from voronoi_lab.hecke import isobaric_source, random_satake_source, raw_table_source
from voronoi_lab.lfunctions import (
    GammaFactorSpec,
    LValueRequest,
    dirichlet_l,
    g_pm_eval,
    twisted_l_isobaric,
)
from voronoi_lab.residues import divisor_count, divisors, euler_phi, unit_residues
from voronoi_lab.voronoi import (
    VoronoiInstance,
    a_n_coefficient,
    b_n_coefficient,
    b_n_coefficients,
    b_n_tail_bound,
    curly_g_coefficients,
    curly_h_coefficients,
    g_coefficients,
    h_coefficients,
    lq_additive_coefficients,
    mobius_collapse,
    parity_gamma,
    voronoi_rhs_coefficients,
    z_probe,
    z_probe_bound,
    z_probe_with_bound,
)

from oracles import KloostermanSpec, hyper_kloosterman, induce, principal

X = 50
S0 = 0.35 - 0.6j
GP = 0.8 + 0.3j  # stand-in Gamma ratios; the identities are linear in these
GM = -0.4 + 1.1j


def _maxdiff(u, v):
    return float(np.max(np.abs(np.asarray(u) - np.asarray(v))))


def _scale(*arrays):
    return max(1e-30, *(float(np.max(np.abs(a))) for a in arrays))


def test_instance_validation():
    src = raw_table_source(3, seed=1)
    chi5 = primitive_characters(5)[0]
    VoronoiInstance(src, (1,), 6)  # no chi: the additive family over a mod 6
    for c in (7, 12):
        with pytest.raises(ValueError, match="must divide c"):
            VoronoiInstance(src, (1,), c, chi_star=chi5)
    for chi in (induce(chi5, 10), principal(4)):
        with pytest.raises(ValueError, match="must be primitive"):
            VoronoiInstance(src, (1,), chi.modulus, chi_star=chi)
    VoronoiInstance(src, (1,), 10, chi_star=chi5)  # the twist mod 10 that chi5 induces
    with pytest.raises(ValueError):
        VoronoiInstance(src, (1, 2), 5, chi_star=chi5)  # degree-2 layers expected
    with pytest.raises(ValueError):
        VoronoiInstance(src, (0,), 5, chi_star=chi5)  # layer must be positive
    with pytest.raises(ValueError):
        VoronoiInstance(src, (1,), 5, chi_star=chi5, truncation=0)


def test_family_and_character_instances_reach_only_their_side():
    src = raw_table_source(3, seed=1)
    family = VoronoiInstance(src, (2,), 5, truncation=X)
    twist = VoronoiInstance(src, (2,), 5, chi_star=primitive_characters(5)[0], truncation=X)
    with pytest.raises(ValueError):
        lq_additive_coefficients(twist)
    with pytest.raises(ValueError):
        voronoi_rhs_coefficients(twist, S0)
    with pytest.raises(ValueError):
        h_coefficients(family)
    with pytest.raises(ValueError):
        a_n_coefficient(family, 2, S0, 1.0)


def test_additive_family_rows():
    # row a is A(q, n) e(a_bar n / c) read one scalar at a time; rows at the
    # non-units of c = 6 are zero, in both families
    c, q = 6, (2,)
    src = raw_table_source(3, seed=5)
    family = VoronoiInstance(src, q, c, truncation=X)
    coefs = lq_additive_coefficients(family)
    rhs = voronoi_rhs_coefficients(family, S0)
    assert coefs.shape == (c, X + 1) and rhs.shape == (c, 2, X + 1)
    units = [int(a) for a in unit_residues(c)]
    for a in range(c):
        if a not in units:
            assert not np.any(coefs[a]) and not np.any(rhs[a]), a
            continue
        abar = pow(a, -1, c)
        want = [0j] + [
            src.coefficient((*reversed(q), n)) * np.exp(2j * np.pi * abar * n / c)
            for n in range(1, X + 1)
        ]
        assert _maxdiff(coefs[a], want) / _scale(coefs[a]) < 1e-12, a


@pytest.mark.parametrize(
    "q", [(1,), (2,), (3,), (1, 2), (2, 1), (2, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)], ids=str
)
def test_rhs_coefficients_against_nested_oracle(q):
    # The docstring formula term by term: scalar A reads, the nested
    # hyper_kloosterman and Python complex powers, so nothing is shared with
    # the walk or the coefficient rows.  Entry 0 and the rows at non-units
    # are zero.
    n_deg, x = len(q) + 2, 4
    for c in range(1, 7):
        src = raw_table_source(n_deg, seed=c)
        rhs = voronoi_rhs_coefficients(VoronoiInstance(src, q, c, truncation=x), S0)
        assert rhs.shape == (c, 2, x + 1)
        units = [int(a) for a in unit_residues(c)]
        assert not np.any(np.delete(rhs, units, axis=0)), c
        assert not np.any(rhs[:, :, 0]), c
        glob = c ** (1 - n_deg * S0)
        for i, qi in enumerate(q, start=1):
            glob /= qi ** ((n_deg - 1 - i) * S0)
        for a in units:
            want = np.zeros((2, x + 1), dtype=complex)
            for d in kloosterman_divisor_chains(c, q):
                weight = glob / math.prod(d)
                for i, di in enumerate(d, start=1):
                    weight *= di ** ((n_deg - i) * S0)
                for n in range(1, x + 1):
                    a_n = src.coefficient((n, *reversed(d)))
                    plus, minus = (
                        hyper_kloosterman(KloostermanSpec(a, m, c, q, d)) for m in (n, -n)
                    )
                    # (G+, G-) = (1, 0) and (0, 1)
                    want[0, n] += weight * a_n * (plus + minus) / 2
                    want[1, n] += weight * a_n * (minus - plus) / 2
            assert _maxdiff(rhs[a], want) / _scale(want) < 1e-12, (c, a)


def test_character_averaging_equivalence_both_directions():
    # the additive and character-twisted series are linear-algebra shadows of
    # each other: chi-averaging the additive data gives the H/G series, and
    # conjugate averaging over the full family reconstructs each twist
    for deg, c, q, seed in ((3, 5, (2,), 11), (4, 6, (2, 3), 14)):
        src = raw_table_source(deg, seed=seed)
        units = [int(a) for a in unit_residues(c)]
        family = VoronoiInstance(src, q, c, truncation=X)
        add_coefs = lq_additive_coefficients(family)
        rhs = voronoi_rhs_coefficients(family, S0)
        r10, r01 = rhs[:, 0], rhs[:, 1]
        chars = enumerate_characters(c)
        h_by_chi, g_by_chi = {}, {}
        for chi in chars:
            inst_c = VoronoiInstance(src, q, c, chi_star=chi.primitive(), truncation=X)
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
                    * (c / ch.conductor) ** (1 - 2 * S0)
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
            base = VoronoiInstance(src, q, cstar, chi_star=chi_star, truncation=X)
            target = VoronoiInstance(src, q, n * cstar, chi_star=chi_star, truncation=X)
            got_h = mobius_collapse(
                lambda q2, n2: curly_h_coefficients(replace(base, q=q2), n2, S0, {}),
                q, n, S0, chi_star,
            )
            want_h = h_coefficients(target) * complex(n) ** (2 * S0 - 1)
            assert _maxdiff(got_h, want_h) / _scale(want_h) < 1e-10
            got_g = mobius_collapse(
                lambda q2, n2: curly_g_coefficients(replace(base, q=q2), n2, S0, GP, {}),
                q, n, S0, chi_star,
            )
            want_g = g_coefficients(target, S0, GP)
            assert _maxdiff(got_g, want_g) / _scale(want_g, got_g) < 1e-10


def test_curly_wrappers_degenerate_to_plain_series():
    src = raw_table_source(3, seed=31)
    for chi_star in primitive_characters(5):
        base = VoronoiInstance(src, (1,), 5, chi_star=chi_star, truncation=X)
        # n = 1 and unit layers: the divisor sums have a single term and the
        # conductor scale is exactly one
        assert _maxdiff(curly_h_coefficients(base, 1, S0, {}), h_coefficients(base)) == 0.0


def _side_by_side(src, shifts, chi_star, q, s, y, n_values):
    cstar = chi_star.modulus
    deg = src.degree
    delta = 0 if chi_star.parity == 1 else 1
    gval = g_pm_eval(s, GammaFactorSpec(tuple(-sh for sh in shifts), delta))
    pref = gval * tau(chi_star)**deg * cstar ** (-deg * s)
    lval = twisted_l_isobaric(LValueRequest(s, chi_star, shifts))
    inst = VoronoiInstance(src, q, cstar, chi_star=chi_star, truncation=X)
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


def test_gl4_side_by_side_reaches_the_middle_slots():
    # degree 4 is the smallest degree whose A-index template has a middle
    # slot e_2 q_1 / e_1; the layer sizes (2, 1) and (1, 2) tell it apart
    # from its mirror image
    y = 600
    shifts = (1j, 0j, 0j, -1j)
    src = isobaric_source(4, shifts, 2 * y + 10)
    for cstar in (4, 3):
        for q in ((2, 1), (1, 2)):
            _side_by_side(src, shifts, primitive_characters(cstar)[0], q, -1.5, y, (1, 2, 3, 6))


def _b_n_scalar_loop(inst, n, s, prefactor, y):
    """b_n for degree >= 3 the way it was first written: one scalar A-read per term."""
    s = complex(s)
    cstar = inst.chi_star.modulus
    vv_bar = inst.chi_star.value_vector.conjugate()
    acc = 0j
    for e_rest in itertools.product(*(divisors(qi) for qi in inst.q)):
        prod_rest = math.prod(e_rest)
        free_ratio = inst.q[-1] // e_rest[-1]
        mid = tuple(
            e_rest[inst.degree - j - 1] * inst.q[inst.degree - j - 2] // e_rest[inst.degree - j - 2]
            for j in range(2, inst.degree - 1)
        )
        last = e_rest[0] * n
        for e_free in range(1, y + 1):
            v = vv_bar[prod_rest * e_free % cstar]
            if v == 0:
                continue
            a_val = inst.source.coefficient((e_free * free_ratio,) + mid + (last,))
            acc += v * (prod_rest * e_free) ** (s - 1) * a_val
    return complex(prefactor) * n**s * acc


@pytest.mark.parametrize(
    "shifts, qs",
    [((1j, 0j, -1j), ((1,), (2,), (6,))), ((1j, 0j, 0j, -1j), ((2, 1), (1, 2), (2, 3)))],
    ids=["gl3", "gl4"],
)
def test_b_n_matches_the_scalar_loop(shifts, qs):
    y, s = 700, -1.5 + 0.5j
    src = isobaric_source(len(shifts), shifts, 20 * y)
    for cstar in (4, 5):
        chi = primitive_characters(cstar)[-1]
        for q in qs:
            inst = VoronoiInstance(src, q, cstar, chi_star=chi, truncation=X)
            for n in (1, 2, 6, 7):
                got = b_n_coefficient(inst, n, s, 1.0, y)
                want = _b_n_scalar_loop(inst, n, s, 1.0, y)
                assert abs(got - want) <= 1e-13 * abs(want), (cstar, q, n)


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize(
    "shifts, qs",
    [
        ((1j, -1j), ((),)),
        ((1j, 0j, -1j), ((1,), (2,), (6,))),
        ((1j, 0j, 0j, -1j), ((2, 1), (1, 2), (2, 3))),
    ],
    ids=["gl2", "gl3", "gl4"],
)
def test_b_n_with_a_shared_weight_store_is_bit_equal(shifts, qs):
    y, s = 700, -1.5 + 0.5j
    src = isobaric_source(len(shifts), shifts, 2 * y + 10)
    weights = {}
    for cstar in (4, 5):
        chi = primitive_characters(cstar)[-1]
        for q in qs:
            inst = VoronoiInstance(src, q, cstar, chi_star=chi, truncation=X)
            for n in (1, 2, 6, 7):
                shared = b_n_coefficient(inst, n, s, 1.0, y, weights)
                assert _hex(shared) == _hex(b_n_coefficient(inst, n, s, 1.0, y)), (cstar, q, n)
    assert weights and all(key[1:] == (s, y) for key in weights)


def _b_n_per_n(inst, n, s, prefactor, y):
    """b_n_coefficient as written for one n at a time: the gather, the keep
    mask and the power product are rebuilt at every n."""
    s = complex(s)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    e_free = np.arange(1, y + 1, dtype=np.int64)

    def power(prod_rest):
        return (prod_rest * e_free).astype(np.float64) ** (s - 1)

    if inst.degree == 2:
        gvec = voronoi.gauss_sum_vector(chi_star, n * cstar)
        row = inst.source.coefficient_row((), (), y)
        idx = np.arange(y + 1) % (n * cstar)
        inner = complex(np.sum(row[1:] * power(1) * gvec[idx][1:]))
        return complex(prefactor) / tau(chi_star) * inner
    vv_bar = chi_star.value_vector.conjugate()
    acc = 0j
    for prod_rest, free_ratio, mid, last in voronoi._b_n_layers(inst, n):
        row = inst.source.coefficient_row((), mid + (last,), y, scale=free_ratio)[1:]
        v = vv_bar[(prod_rest * e_free) % cstar]
        keep = v != 0
        acc += complex(np.sum(v[keep] * power(prod_rest)[keep] * row[keep]))
    return complex(prefactor) * n**s * acc


@pytest.mark.parametrize(
    "shifts, qs",
    [
        ((1j, -1j), ((),)),
        ((1j, 0j, -1j), ((1,), (2,), (6,))),
        ((1j, 0j, 0j, -1j), ((2, 1), (1, 2), (2, 3))),
    ],
    ids=["gl2", "gl3", "gl4"],
)
def test_b_n_keeps_the_per_n_bits(shifts, qs):
    y, s, pref = 700, -1.5 + 0.5j, 0.7 - 0.2j
    n_values = (1, 2, 6, 7)
    src = isobaric_source(len(shifts), shifts, 20 * y)
    for cstar in (4, 5):
        chi = primitive_characters(cstar)[-1]
        for q in qs:
            inst = VoronoiInstance(src, q, cstar, chi_star=chi, truncation=X)
            batched = b_n_coefficients(inst, n_values, s, pref, y)
            for n, got in zip(n_values, batched, strict=True):
                want = _hex(_b_n_per_n(inst, n, s, pref, y))
                assert _hex(b_n_coefficient(inst, n, s, pref, y)) == want, (cstar, q, n)
                assert _hex(got) == want, (cstar, q, n)


def test_rhs_with_a_shared_leaf_store_is_bit_equal_across_units():
    leaves = {}
    for n_deg, c, q in ((3, 12, (2,)), (3, 8, (3,)), (4, 6, (2, 2))):
        inst = VoronoiInstance(raw_table_source(n_deg, seed=c), q, c, truncation=20)
        shared = voronoi_rhs_coefficients(inst, S0, leaves)
        alone = voronoi_rhs_coefficients(inst, S0)
        assert shared.tobytes() == alone.tobytes(), (n_deg, c, q)
    assert leaves


def test_tail_bound_shrinks_and_rejects_raw_tables():
    shifts = (0j, 0j, 0j)
    src = isobaric_source(3, shifts, 100)
    chi = primitive_characters(3)[0]
    inst = VoronoiInstance(src, (1,), 3, chi_star=chi, truncation=X)
    s = -1.5
    gval = g_pm_eval(s, GammaFactorSpec((0j, 0j, 0j), 1))
    pref = gval * tau(chi)**3 * 3.0 ** (-3 * s)
    bounds = [b_n_tail_bound(inst, 2, s, pref, y) for y in (500, 2000, 8000)]
    assert bounds[0] > bounds[1] > bounds[2] > 0
    raw = VoronoiInstance(raw_table_source(3, seed=1), (1,), 3, chi_star=chi, truncation=X)
    with pytest.raises(ValueError):
        b_n_tail_bound(raw, 2, s, pref, 500)


def test_rankin_tail_reads_one_zeta_grid_per_t(monkeypatch):
    # zeta(u) on the minimum's grid depends on t only: degrees 2 and 3 at one
    # t share 160 evaluations, and each bound is the minimum of Y^(u-t) zeta(u)^k
    # over the grid, in the grid's order
    real = voronoi.hurwitz_zeta
    calls = []
    monkeypatch.setattr(voronoi, "hurwitz_zeta", lambda u, a: calls.append(u) or real(u, a))
    voronoi._rankin_grid.cache_clear()
    voronoi._rankin_tail.cache_clear()
    t, y = 2.37, 4321
    for k in (2, 3):
        best = math.inf
        for u in np.linspace(1.04, t - 0.01, 160):
            best = min(best, y ** (u - t) * real(float(u), 1).real ** k)
        assert voronoi._rankin_tail(k, t, y) == best
    assert len(calls) == 160
    with pytest.raises(ValueError):
        voronoi._rankin_tail(2, 1.05, y)


# GL(3) with one layer, and GL(2), whose probe has a second Mobius layer
Z_SHAPES = [((1j, 0j, -1j), (2,)), ((1j, -1j), ())]


def test_z_probe_rearrangement_is_exact():
    s, w, x = 2.5, 4.0, 300
    chi5 = primitive_characters(5)[0]
    for shifts, q in Z_SHAPES:
        src = isobaric_source(len(shifts), shifts, 4 * x)
        inst = VoronoiInstance(src, q, 5, chi_star=chi5, truncation=X)
        _, via_a = z_probe(inst, s, w, x)
        lval = twisted_l_isobaric(LValueRequest(s, chi5, shifts))
        direct = sum(
            a_n_coefficient(inst, n, s, lval) * n ** (-2.0 * w) for n in range(1, x + 1)
        )
        assert abs(via_a - direct) / abs(direct) < 1e-12, shifts


def test_z_probe_trivial_twist_zeta_oracle():
    import mpmath as mp

    s, w, x = 2.5, 4.0, 500
    src = isobaric_source(3, (0j, 0j, 0j), 2 * x)
    inst = VoronoiInstance(src, (1,), 1, chi_star=principal(1), truncation=X)
    via_l, via_a = z_probe(inst, s, w, x)
    with mp.workdps(30):
        oracle = complex(mp.zeta(5.5) ** 3 * mp.zeta(2.5) ** 3 / mp.zeta(4))
    assert abs(via_l - oracle) / abs(oracle) < 1e-11
    assert abs(via_l - via_a) < z_probe_bound(inst, s, w, x)


def test_z_probe_within_certified_bound():
    s, w, x = 2.5, 4.0, 2000
    chi5 = primitive_characters(5)[0]
    for shifts, q in Z_SHAPES:
        src = isobaric_source(len(shifts), shifts, 2 * x)
        inst = VoronoiInstance(src, q, 5, chi_star=chi5, truncation=X)
        via_l, via_a = z_probe(inst, s, w, x)
        bound = z_probe_bound(inst, s, w, x)
        assert abs(via_l - via_a) < bound, shifts
        assert bound < 1e-8, shifts  # the squared-divisor tail is already tiny here


def test_z_probe_rejects_raw_tables():
    chi5 = primitive_characters(5)[0]
    raw = VoronoiInstance(raw_table_source(3, seed=1), (1,), 5, chi_star=chi5, truncation=X)
    with pytest.raises(ValueError):
        z_probe(raw, 2.5, 4.0, 100)


def _z_probe_alone(inst, s, w, x):
    """z_probe as written before it shared a pass with its bound."""
    s, w = complex(s), complex(w)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    row = inst.source.coefficient_row(tuple(reversed(inst.q)), (), x)
    l_twist = twisted_l_isobaric(LValueRequest(s, chi_star, inst.source.isobaric_shifts))
    l_den = dirichlet_l(2 * w - 2 * s + 1, chi_star.conjugate())
    via_l = voronoi._dirichlet_eval(row, 2 * w - s) * l_twist / l_den
    d_pow = np.arange(1, x + 1, dtype=np.float64) ** (s - 2 * w)
    m_terms = voronoi._mobius_character_terms(
        chi_star.value_vector.conjugate(), cstar, 2 * s - 1 - 2 * w, x
    )
    if inst.degree == 2:
        via_l /= dirichlet_l(2 * w, chi_star)
        k_prefix = np.cumsum(
            voronoi._mobius_character_terms(chi_star.value_vector, cstar, -2 * w, x)
        )
        inner = voronoi._quotient_convolution(m_terms, k_prefix, x)
    else:
        inner = np.cumsum(m_terms)
    tail_idx = x // np.arange(1, x + 1)
    via_a = l_twist * complex(np.sum(row[1:] * d_pow * inner[tail_idx]))
    return via_l, via_a


def _z_probe_bound_alone(inst, s, w, x):
    """z_probe_bound as written before it shared a pass with the probe."""
    s, w = complex(s), complex(w)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    row = np.abs(inst.source.coefficient_row(tuple(reversed(inst.q)), (), x))
    l_twist = abs(twisted_l_isobaric(LValueRequest(s, chi_star, inst.source.isobaric_shifts)))
    d_pow = np.arange(1, x + 1, dtype=np.float64) ** (s.real - 2 * w.real)
    m_terms = voronoi._mobius_character_terms(
        chi_star.value_vector.conjugate(), cstar, 2 * s - 1 - 2 * w, 4 * x
    )
    m_prefix = np.cumsum(m_terms)
    m_inf = 1 / dirichlet_l(2 * w - 2 * s + 1, chi_star.conjugate())
    anchor = abs(m_prefix[4 * x] - m_inf) + 1e-12 * (1 + abs(m_inf))
    tail_idx = x // np.arange(1, x + 1)
    m_err = np.abs(m_prefix[4 * x] - m_prefix[tail_idx]) + anchor
    if inst.degree == 2:
        k_prefix = np.cumsum(
            voronoi._mobius_character_terms(chi_star.value_vector, cstar, -2 * w, 4 * x)
        )
        k_inf = 1 / dirichlet_l(2 * w, chi_star)
        k_anchor = abs(k_prefix[4 * x] - k_inf) + 1e-12 * (1 + abs(k_inf))
        m_abs = np.zeros(x + 1)
        keep = np.flatnonzero(m_terms[: x + 1])
        m_abs[keep] = keep.astype(np.float64) ** (2 * s.real - 1 - 2 * w.real)
        k_err = np.abs(k_prefix[4 * x] - k_prefix[: x + 1]) + k_anchor
        m_err = voronoi._quotient_convolution(m_abs, k_err, x)[tail_idx] + abs(k_inf) * m_err
    return float(l_twist * np.sum(row[1:] * d_pow * m_err) + 1e-12)


# the probe shapes of the voronoi-core suite: GL(3) twisted by chi mod 5 and
# trivially, and GL(2) with its second Mobius layer; the last two read an
# L-value at 2w - 2s + 1 of the principal character or at 2w, kept off the pole
Z_PINNED = [((1j, 0j, -1j), (2,), 5), ((0j, 0j, 0j), (1,), 1), ((1j, -1j), (), 5)]


@pytest.mark.parametrize("s, w", [(2.5, 4.0), (3.0, 3.0), (2.0 + 0.5j, 2.8 - 0.3j)])
def test_z_probe_and_bound_keep_their_separate_bits(s, w):
    x = 300
    shapes = Z_PINNED if (2 * w - 2 * s + 1).real > 1.05 else Z_PINNED[:1]
    for shifts, q, cstar in shapes:
        src = isobaric_source(len(shifts), shifts, 4 * x)
        chi = primitive_characters(cstar)[0]
        inst = VoronoiInstance(src, q, cstar, chi_star=chi, truncation=X)
        via_l, via_a = _z_probe_alone(inst, s, w, x)
        got_l, got_a = z_probe(inst, s, w, x)
        assert (_hex(got_l), _hex(got_a)) == (_hex(via_l), _hex(via_a)), (shifts, cstar)
        bound = z_probe_bound(inst, s, w, x)
        assert bound.hex() == _z_probe_bound_alone(inst, s, w, x).hex(), (shifts, cstar)
        got_l, got_a, got_bound = z_probe_with_bound(inst, s, w, x)
        assert (_hex(got_l), _hex(got_a)) == (_hex(via_l), _hex(via_a)), (shifts, cstar)
        assert got_bound.hex() == bound.hex(), (shifts, cstar)


def test_unitary_coefficients_inside_divisor_envelope():
    src = random_satake_source(3, 40, seed=5)
    for m1 in range(1, 21):
        for m2 in range(1, 21):
            envelope = divisor_count(3, m1) * divisor_count(3, m2)
            assert abs(src.coefficient((m1, m2))) <= envelope + 1e-9


def _g_coefficients_nested(inst, s, g_value):
    # g_coefficients as a recursive walk over the strengthened chains
    # d_i c* | q_i M_{i-1}, dropping a subtree at its first zero Gauss sum
    s = complex(s)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    n_deg, c, x = inst.degree, inst.c, inst.truncation

    def chains(i, m_prev, d_prefix, g_acc):
        if i == len(inst.q):
            yield d_prefix, m_prev, g_acc
            return
        total = inst.q[i] * m_prev
        if total % cstar:
            return
        for d in divisors(total // cstar):
            g_val = complex(gauss_sum_vector(chi_star, m_prev)[d % m_prev])
            if g_val != 0:
                yield from chains(i + 1, total // d, d_prefix + (d,), g_acc * g_val)

    pref = complex(g_value) * chi_star.parity / (c ** (n_deg * s - 1) * (c / cstar) ** (1 - 2 * s))
    qpow = 1 + 0j
    for i, qi in enumerate(inst.q, start=1):
        qpow *= qi ** (-(n_deg - 1 - i) * s)
    out = np.zeros(x + 1, dtype=complex)
    for d_vec, m_last, weight in chains(0, c, (), 1 + 0j):
        for i, di in enumerate(d_vec, start=1):
            weight *= di ** ((n_deg - i) * s) / di
        row = inst.source.coefficient_row((), tuple(reversed(d_vec)), x)
        g_tail = gauss_sum_vector(chi_star, m_last)
        out += weight * row * g_tail[np.arange(x + 1) % m_last]
    return out * (pref * qpow)


def test_g_coefficients_match_the_nested_chain_walk_bit_for_bit():
    for n_deg in (3, 4, 5):
        src = raw_table_source(n_deg, seed=n_deg)
        for c in range(1, 13):
            for q in itertools.product((1, 2), repeat=n_deg - 2):
                for chi in enumerate_characters(c):
                    inst = VoronoiInstance(src, q, c, chi_star=chi.primitive(), truncation=20)
                    got = g_coefficients(inst, S0, GP)
                    want = _g_coefficients_nested(inst, S0, GP)
                    assert got.tobytes() == want.tobytes(), (n_deg, c, q, chi.label)
