"""Gauss and hyper-Kloosterman sums: brute-force oracles and closed forms."""

import math
import struct

import numpy as np
import pytest

from voronoi_lab.characters import enumerate_characters, induce, primitive_characters, principal
from voronoi_lab.exponential_sums import (
    KloostermanSpec,
    additive_char,
    average_gauss_identity_check,
    average_kloosterman_closed_lemma34,
    average_kloosterman_closed_lemma34_table,
    clear_kloosterman_cache,
    divisor_sigma,
    gauss_sum,
    gauss_sum_closed_lemma22,
    gauss_sum_closed_lemma23,
    gauss_sum_vector,
    hyper_kloosterman,
    kloosterman_divisor_chains,
    kloosterman_vector,
    tau,
)
from voronoi_lab.numeric import roots_of_unity
from voronoi_lab.residues import divisors, unit_residues


def brute_gauss(chi_star, c, m):
    vv = induce(chi_star, c).value_vector
    roots = roots_of_unity(c)
    return complex(sum(vv[a] * roots[a * m % c] for a in range(c)))


def test_gauss_sum_matches_brute():
    for cstar in (1, 3, 4, 5, 8):
        for chi in primitive_characters(cstar):
            for c in range(cstar, 31, cstar):
                vec = gauss_sum_vector(chi, c)
                for m in range(0, 13):
                    want = brute_gauss(chi, c, m)
                    assert abs(vec[m % c] - want) < 1e-10 * math.sqrt(c)
                    assert abs(gauss_sum(chi, c, m) - want) < 1e-10 * math.sqrt(c)


def test_tau_modulus():
    for cstar in (3, 4, 5, 7, 8, 9, 11):
        for chi in primitive_characters(cstar):
            assert abs(abs(tau(chi)) - math.sqrt(cstar)) < 1e-10
    assert abs(tau(principal(1)) - 1) < 1e-14


def test_gauss_sum_argument_checks():
    chi3 = primitive_characters(3)[0]
    for f in (gauss_sum, gauss_sum_closed_lemma22, gauss_sum_closed_lemma23):
        with pytest.raises(ValueError, match="primitive"):
            f(principal(4), 8, 1)  # conductor 1, so not primitive mod 4
        with pytest.raises(ValueError, match="must divide"):
            f(chi3, 4, 1)
        with pytest.raises(ValueError, match="must divide"):
            f(chi3, 0, 1)


def test_closed_forms_match_direct_small_box():
    # the acceptance suite sweeps the full box; this is the unit-sized pin
    for cstar in (1, 3, 4, 5, 8):
        for chi in primitive_characters(cstar):
            for c in range(cstar, 25, cstar):
                scale = math.sqrt(c)
                for m in range(1, 13):
                    direct = brute_gauss(chi, c, m)
                    for closed in (gauss_sum_closed_lemma22, gauss_sum_closed_lemma23):
                        got = closed(chi, c, m)
                        assert abs(got - direct) < 1e-10 * scale, (cstar, c, m)


def test_closed_form_zero_branch():
    chi = primitive_characters(5)[0]
    # m with (m, c) structure killing the sum: g vanishes unless c/(c,m) = c*
    hits = 0
    for c in (10, 15, 20, 25):
        for m in range(1, 13):
            want = gauss_sum_closed_lemma22(chi, c, m)
            if want == 0:
                hits += 1
                assert abs(brute_gauss(chi, c, m)) < 1e-10 * math.sqrt(c)
    assert hits > 0


def test_average_gauss_identity():
    # both routes computed independently here: divisor sum of direct Gauss
    # sums against the tau closed form
    for cstar in (1, 3, 5):
        for chi in primitive_characters(cstar):
            tau_val = tau(chi)
            for n in range(1, 9):
                for m in range(1, 17):
                    lhs, rhs = average_gauss_identity_check(n, m, chi)
                    direct = sum(
                        chi.value_vector[d % cstar] * brute_gauss(chi, (n // d) * cstar, m)
                        for d in divisors(n)
                    )
                    assert abs(lhs - direct) < 1e-10 * math.sqrt(cstar) * n
                    if m % n == 0:
                        want = tau_val * np.conj(chi.value_vector[(m // n) % cstar]) * n
                    else:
                        want = 0.0
                    assert abs(rhs - want) < 1e-12 * max(1.0, abs(want))
                    assert abs(lhs - rhs) < 1e-9 * math.sqrt(cstar) * n


def test_divisor_sigma():
    chi = primitive_characters(4)[0]
    for m in range(1, 40):
        for s in (0.0, 1.0, -0.5):
            want = sum(chi.value_vector[d % 4] * d**s for d in divisors(m))
            assert abs(divisor_sigma(s, m, chi) - want) < 1e-10 * max(1.0, abs(want))


def test_kloosterman_vector_matches_naive():
    clear_kloosterman_cache()
    for c, q in ((3, (2,)), (4, (2, 2)), (5, (1,)), (6, (3, 2))):
        for d in kloosterman_divisor_chains(c, q):
            for n in (1, 2, 5):
                vec = kloosterman_vector(n, c, q, d)
                for a in unit_residues(c):
                    want = hyper_kloosterman(KloostermanSpec(int(a), n, c, q, d))
                    assert abs(vec[a] - want) < 1e-9, (c, q, d, n, int(a))


def test_kloosterman_negative_n():
    c, q = 5, (2,)
    for d in kloosterman_divisor_chains(c, q):
        vec_neg = kloosterman_vector(-3, c, q, d)
        for a in unit_residues(c):
            want = hyper_kloosterman(KloostermanSpec(int(a), -3, c, q, d))
            assert abs(vec_neg[a] - want) < 1e-9


def test_kloosterman_spec_validation():
    with pytest.raises(ValueError):
        KloostermanSpec(2, 1, 4, (2,), (2,))  # gcd(a, c) != 1
    with pytest.raises(ValueError):
        KloostermanSpec(1, 1, 4, (2,), (3,))  # 3 does not divide q_1 c
    with pytest.raises(ValueError):
        KloostermanSpec(1, 1, 0, (2,), (1,))


def test_divisor_chains_count():
    # c = 4, q = (2, 2): d_1 | 8 (4 choices), then d_2 | 2*8/d_1
    chains = list(kloosterman_divisor_chains(4, (2, 2)))
    assert len(chains) == 14
    assert len(set(chains)) == 14
    for d1, d2 in chains:
        assert 8 % d1 == 0 and (2 * (8 // d1)) % d2 == 0


def test_average_kloosterman_closed_form_small():
    for c, q in ((3, (2,)), (4, (1, 2)), (5, (2,))):
        chars = enumerate_characters(c)
        units = unit_residues(c)
        for d in kloosterman_divisor_chains(c, q):
            mods = [c]
            for qi, di in zip(q, d):
                mods.append(qi * mods[-1] // di)
            scale = math.sqrt(math.prod(mods))
            for n in (1, 2):
                vec = kloosterman_vector(n, c, q, d)
                for chi in chars:
                    avg = sum(chi.value_vector[a] * vec[a] for a in units)
                    closed = average_kloosterman_closed_lemma34(chi, n, c, q, d)
                    assert abs(avg - closed) < 1e-9 * scale, (c, q, d, n, chi.label)


def _bits(z) -> bytes:
    # == would let -0.0 pass for 0.0; reports print the sign of zero
    z = complex(z)
    return struct.pack("<2d", z.real, z.imag)


def _lemma34_scalar_reference(chi, n, c, q, d):
    # The per-character evaluation the table replaced: scalar Gauss sums
    # multiplied left to right from 1 + 0j, exactly zero on the vanishing branch.
    mods = KloostermanSpec(1, n, c, q, d).moduli
    chi_star = chi.primitive()
    if any(m % chi_star.modulus != 0 for m in mods[1:]):
        return 0j
    acc = 1 + 0j
    for m, arg in zip(mods, d + (n,)):
        acc = acc * gauss_sum(chi_star, m, arg)
    return acc


def test_lemma34_table_is_bit_identical_to_scalar_products():
    n_values = (1, 2, -3)
    qs = [(qi,) for qi in (1, 2, 3)] + [(1, 2), (2, 2), (3, 2)]
    zeros = entries = 0
    for c in range(1, 7):
        chars = enumerate_characters(c)
        for q in qs:
            chains = list(kloosterman_divisor_chains(c, q))
            table = average_kloosterman_closed_lemma34_table(c, q, chains, n_values)
            assert table.shape == (len(chars), len(chains), len(n_values))
            for x, chi in enumerate(chars):
                for j, d in enumerate(chains):
                    for t, n in enumerate(n_values):
                        want = _lemma34_scalar_reference(chi, n, c, q, d)
                        assert _bits(table[x, j, t]) == _bits(want), (c, q, d, n, chi.label)
                        got = average_kloosterman_closed_lemma34(chi, n, c, q, d)
                        assert _bits(got) == _bits(want)
                        entries += 1
                        zeros += want == 0
    assert 0 < zeros < entries


def test_lemma34_table_against_nested_oracle():
    # Sum over a of chi(a) times the nested hyper_kloosterman: no layered
    # vectors and no Gauss sums, so it shares no code with either route.
    for c in range(1, 6):
        chars = enumerate_characters(c)
        units = [int(a) for a in unit_residues(c)]
        for q in ((), (1,), (2,), (3,), (1, 2), (2, 2)):
            chains = list(kloosterman_divisor_chains(c, q))
            table = average_kloosterman_closed_lemma34_table(c, q, chains, (1, 2))
            for j, d in enumerate(chains):
                scale = math.sqrt(math.prod(KloostermanSpec(1, 0, c, q, d).moduli))
                for t, n in enumerate((1, 2)):
                    kl = [hyper_kloosterman(KloostermanSpec(a, n, c, q, d)) for a in units]
                    for x, chi in enumerate(chars):
                        want = sum(chi.value_vector[a] * v for a, v in zip(units, kl))
                        assert abs(table[x, j, t] - want) < 1e-9 * scale, (c, q, d, n, chi.label)
                        closed = average_kloosterman_closed_lemma34(chi, n, c, q, d)
                        assert abs(closed - want) < 1e-9 * scale


def test_lemma34_table_takes_n_beyond_int64():
    c, q = 6, (2, 3)
    chains = list(kloosterman_divisor_chains(c, q))
    big = (10**30 + 7, -(10**25) - 1)
    table = average_kloosterman_closed_lemma34_table(c, q, chains, big)
    for x, chi in enumerate(enumerate_characters(c)):
        for j, d in enumerate(chains):
            for t, n in enumerate(big):
                assert _bits(table[x, j, t]) == _bits(_lemma34_scalar_reference(chi, n, c, q, d))


def test_lemma34_table_rejects_broken_chains():
    with pytest.raises(ValueError):
        average_kloosterman_closed_lemma34_table(4, (2,), [(3,)], (1,))
    with pytest.raises(ValueError):
        average_kloosterman_closed_lemma34_table(4, (2,), [(1,)], (1,), enumerate_characters(5))


def test_cache_clear_keeps_values():
    vec1 = kloosterman_vector(2, 6, (3,), (2,))
    clear_kloosterman_cache()
    vec2 = kloosterman_vector(2, 6, (3,), (2,))
    assert np.array_equal(vec1, vec2)


def test_additive_char():
    assert abs(additive_char(0) - 1) < 1e-15
    from fractions import Fraction

    assert abs(additive_char(Fraction(1, 2)) + 1) < 1e-12
    assert abs(additive_char(Fraction(1, 4)) - 1j) < 1e-12
    assert abs(additive_char(Fraction(7, 3)) - additive_char(Fraction(1, 3))) < 1e-12
