"""Gauss and hyper-Kloosterman sums: brute-force oracles and closed forms."""

import math
import struct

import numpy as np
import pytest

from voronoi_lab.characters import enumerate_characters, induce, primitive_characters, principal
from voronoi_lab.exponential_sums import (
    KloostermanSpec,
    additive_char,
    average_kloosterman_closed_lemma34,
    average_kloosterman_closed_lemma34_table,
    gauss_sum,
    gauss_sum_closed_lemma22,
    gauss_sum_closed_lemma22_rows,
    gauss_sum_closed_lemma23,
    gauss_sum_closed_lemma23_rows,
    gauss_sum_vector,
    hyper_kloosterman,
    kloosterman_divisor_chains,
    kloosterman_vector,
    tau,
)
from voronoi_lab.numeric import roots_of_unity
from voronoi_lab.residues import divisors, euler_phi, mobius, unit_residues


def brute_gauss(chi_star, c, m):
    vv = induce(chi_star, c).value_vector
    roots = roots_of_unity(c)
    return complex(sum(vv[a] * roots[a * m % c] for a in range(c)))


def test_gauss_sum_vector_is_bit_identical_to_the_induced_fft():
    # gauss_sum_vector reads chi*'s turn table instead of building the induced
    # character; it must give the FFT of the induced value vector bit for bit
    count = 0
    for cstar in range(1, 17):
        for chi in primitive_characters(cstar):
            for c in range(cstar, 161, cstar):
                want = np.fft.ifft(induce(chi, c).value_vector, norm="forward")
                got = gauss_sum_vector(chi, c)
                assert np.array_equal(got, want), (chi.label, c)
                assert got.tobytes() == want.tobytes(), (chi.label, c)  # signs of zero too
                count += 1
    assert count == 908  # 45 primitive chi*, c* = 1 and c = 1, 2 among them


def test_gauss_sum_vector_rejects_a_modulus_c_star_does_not_divide():
    chi5 = primitive_characters(5)[0]
    for c in (1, 4, 12, 24):
        with pytest.raises(ValueError, match="does not divide"):
            gauss_sum_vector(chi5, c)
    assert gauss_sum_vector(primitive_characters(1)[0], 1).tolist() == [1 + 0j]


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


def _family_at(rows_fn):
    # the family over (c*, c): a bad c anywhere fails the whole call
    return lambda chi, c, m_values: rows_fn(chi, [chi.modulus, c], m_values)


def test_gauss_sum_argument_checks():
    chi3 = primitive_characters(3)[0]
    for f, m in (
        (gauss_sum, 1),
        (gauss_sum_closed_lemma22, 1),
        (gauss_sum_closed_lemma23, 1),
        (_family_at(gauss_sum_closed_lemma22_rows), [1, 2]),
        (_family_at(gauss_sum_closed_lemma23_rows), [1, 2]),
    ):
        with pytest.raises(ValueError, match="primitive"):
            f(principal(4), 8, m)  # conductor 1, so not primitive mod 4
        with pytest.raises(ValueError, match="must divide"):
            f(chi3, 4, m)
        with pytest.raises(ValueError, match="must divide"):
            f(chi3, 0, m)


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


def _bits(z) -> bytes:
    # == would let -0.0 pass for 0.0; reports print the sign of zero
    z = complex(z)
    return struct.pack("<2d", z.real, z.imag)


def _lemma22_scalar_reference(chi_star, c, m):
    # The per-m loop the row replaced: exact character calls, Python complex
    # arithmetic, divisors of (m, c/c*) in ascending order.
    ratio = c // chi_star.modulus
    g = math.gcd(m, ratio) if m != 0 else ratio
    acc = 0j
    chi_bar = chi_star.conjugate()
    for d in divisors(g):
        mu = mobius(ratio // d)
        if mu == 0:
            continue
        acc = acc + mu * d * (chi_star(ratio // d) * chi_bar(m // d))
    return tau(chi_star) * acc


def _lemma23_scalar_reference(chi_star, c, a):
    cstar = chi_star.modulus
    g = math.gcd(a, c) if a != 0 else c
    cofactor = c // g
    if cofactor % cstar != 0:
        return 0j
    scale = euler_phi(c) // euler_phi(cofactor) * mobius(cofactor // cstar)
    term = chi_star(cofactor // cstar) * chi_star.conjugate()(a // g)
    return tau(chi_star) * (scale * term)


CLOSED_FAMILIES = (
    (gauss_sum_closed_lemma22_rows, gauss_sum_closed_lemma22, _lemma22_scalar_reference),
    (gauss_sum_closed_lemma23_rows, gauss_sum_closed_lemma23, _lemma23_scalar_reference),
)


def test_closed_rows_are_bit_identical_to_scalar_loops():
    m_values = list(range(-7, 71))
    zeros = entries = 0
    for cstar in range(1, 13):
        for chi in primitive_characters(cstar):
            cs = range(cstar, 49, cstar)
            for rows_fn, point_fn, reference in CLOSED_FAMILIES:
                rows = rows_fn(chi, cs, m_values)
                assert rows.dtype == np.complex128 and rows.shape == (len(cs), len(m_values))
                for c, row in zip(cs, rows):
                    for m, got in zip(m_values, row):
                        want = reference(chi, c, m)
                        assert _bits(got) == _bits(want), (rows_fn.__name__, chi.label, c, m)
                        if m % 11 == 0:  # the scalar form is a one-point family
                            assert _bits(point_fn(chi, c, m)) == _bits(want)
                        entries += 1
                        zeros += want == 0
    assert 0 < zeros < entries


def test_closed_families_equal_their_one_point_forms():
    # a family row at (c, m) is the scalar form at (c, m): no entry depends
    # on the other c or m of the call
    m_values = list(range(-3, 31))
    for cstar in range(1, 9):
        for chi in primitive_characters(cstar):
            cs = list(range(cstar, 41, cstar))[::-1]  # descending: order-free too
            for rows_fn, point_fn, _ in CLOSED_FAMILIES:
                rows = rows_fn(chi, cs, m_values)
                for c, row in zip(cs, rows):
                    for m, got in zip(m_values, row):
                        want = point_fn(chi, c, m)
                        assert got == want, (rows_fn.__name__, chi.label, c, m)
                        assert _bits(got) == _bits(want), (rows_fn.__name__, chi.label, c, m)


def test_closed_families_of_no_modulus_or_no_m():
    chi = primitive_characters(5)[0]
    for rows_fn, _, _ in CLOSED_FAMILIES:
        assert rows_fn(chi, [], [1, 2, 3]).shape == (0, 3)
        assert rows_fn(chi, [5, 10], []).shape == (2, 0)


def test_closed_rows_match_brute_force():
    m_values = list(range(-7, 71))
    for cstar in range(1, 13):
        for chi in primitive_characters(cstar):
            cs = range(cstar, 49, cstar)
            want = np.array([[brute_gauss(chi, c, m) for m in m_values] for c in cs])
            scale = np.sqrt(np.array(cs, dtype=float))[:, None]
            for rows_fn, _, _ in CLOSED_FAMILIES:
                err = np.abs(rows_fn(chi, cs, m_values) - want) / scale
                assert err.max() < 1e-10, (rows_fn.__name__, chi.label)


def test_closed_rows_take_m_beyond_int64():
    chi = primitive_characters(4)[0]
    big = [10**30 + 6, -(10**25) - 2, 2**63 + 4]
    cs = [4, 12, 24]
    for rows_fn, _, reference in CLOSED_FAMILIES:
        rows = rows_fn(chi, cs, big)
        for c, row in zip(cs, rows):
            assert [_bits(z) for z in row] == [_bits(reference(chi, c, m)) for m in big]


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
    # Lemma 2.5: the divisor sum of library Gauss sums, checked against the
    # same sum of brute-force Gauss sums and against the tau closed form
    for cstar in (1, 3, 5):
        for chi in primitive_characters(cstar):
            tau_val = tau(chi)
            for n in range(1, 9):
                for m in range(1, 17):
                    lhs = sum(
                        chi.value_vector[d % cstar] * gauss_sum(chi, (n // d) * cstar, m)
                        for d in divisors(n)
                    )
                    direct = sum(
                        chi.value_vector[d % cstar] * brute_gauss(chi, (n // d) * cstar, m)
                        for d in divisors(n)
                    )
                    assert abs(lhs - direct) < 1e-10 * math.sqrt(cstar) * n
                    if m % n == 0:
                        rhs = tau_val * np.conj(chi.value_vector[(m // n) % cstar]) * n
                    else:
                        rhs = 0.0
                    assert abs(lhs - rhs) < 1e-9 * math.sqrt(cstar) * n


KL_N_VALUES = (1, 2, 5, 0, -3, 2**63 + 5)

# K = 0, 1, 2, 3 and 4, with chains that branch at every layer; at K = 4
# the walk stacks prefixes of one modulus below depth 1
DIRECT_QS = ((), (2,), (3,), (1, 2), (2, 2), (1, 2, 1), (2, 1, 2), (2, 1, 2, 1))


def _scale(c, q, d):
    return math.sqrt(math.prod(KloostermanSpec(1, 0, c, q, d).moduli))


def _assert_walk_matches_nested(c, q, n_values, leaves=None):
    """One walk over every chain of (c, q) against the nested oracle, entry by entry.

    The oracle sums the nested layers itself: no layered tables and no Gauss
    sums.  Also checks the character averages the kloosterman-average suite
    forms from the walk (value vectors on the units times the table) against
    averages of the oracle.
    """
    units = [int(a) for a in unit_residues(c)]
    chains = kloosterman_divisor_chains(c, q)
    table = kloosterman_vector(n_values, c, q, leaves)
    assert table.shape == (len(units), len(chains), len(n_values))
    vv = np.stack([chi.value_vector[units] for chi in enumerate_characters(c)])
    for j, d in enumerate(chains):
        scale = _scale(c, q, d)
        for t, n in enumerate(n_values):
            kl = np.array([hyper_kloosterman(KloostermanSpec(a, n, c, q, d)) for a in units])
            assert np.abs(table[:, j, t] - kl).max() < 1e-12 * scale, (c, q, d, n)
            assert np.abs(vv @ table[:, j, t] - vv @ kl).max() < 1e-12 * scale, (c, q, d, n)
    return table


def test_kloosterman_vector_matches_naive():
    for c, q in ((7, ()), (3, (2,)), (4, (2, 2)), (5, (1,)), (6, (3, 2))):
        _assert_walk_matches_nested(c, q, KL_N_VALUES)


def test_kloosterman_negative_n():
    _assert_walk_matches_nested(5, (2,), KL_N_VALUES + tuple(-n for n in KL_N_VALUES))


def test_direct_table_against_nested_oracle():
    for c in range(1, 7):
        for q in DIRECT_QS:
            _assert_walk_matches_nested(c, q, KL_N_VALUES)


def test_direct_tables_sharing_one_leaf_store_against_nested_oracle():
    # One store for every unit and three n lists (one empty), as a sweep
    # shares it: a key that left out n_values, q_K or d_K would hand a unit
    # the leaf tables of another.  c = 4 with q = (2,) and q = (2, 2) both
    # reach M_{K-1} = 4 with q_K = 2, at the root and one layer below it, and
    # share those leaves.
    leaves = {}
    for n_values in (KL_N_VALUES, (3, -4, 7), ()):
        for c in range(1, 7):
            for q in DIRECT_QS:
                table = _assert_walk_matches_nested(c, q, n_values, leaves)
                own = kloosterman_vector(n_values, c, q)
                assert table.tobytes() == own.tobytes(), (c, q)
    assert (KL_N_VALUES, 4, 2, 2) in leaves


def test_direct_table_rejects_broken_chains():
    # the walk builds every chain from (c, q), so only c and q can be broken
    with pytest.raises(ValueError, match="c must be >= 1"):
        kloosterman_vector((1,), 0, ())
    with pytest.raises(ValueError, match="q entries must be positive"):
        kloosterman_vector((1,), 4, (2, 0))


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
        chains = kloosterman_divisor_chains(c, q)
        table = kloosterman_vector((1, 2), c, q)
        for j, d in enumerate(chains):
            mods = [c]
            for qi, di in zip(q, d):
                mods.append(qi * mods[-1] // di)
            scale = math.sqrt(math.prod(mods))
            for t, n in enumerate((1, 2)):
                for chi in chars:
                    avg = sum(chi.value_vector[a] * table[i, j, t] for i, a in enumerate(units))
                    closed = average_kloosterman_closed_lemma34(chi, n, c, q, d)
                    assert abs(avg - closed) < 1e-9 * scale, (c, q, d, n, chi.label)


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
    with pytest.raises(ValueError, match="d_1 = 3: must divide 8"):
        average_kloosterman_closed_lemma34_table(4, (2,), [(3,)], (1,))
    with pytest.raises(ValueError):
        average_kloosterman_closed_lemma34_table(4, (2,), [(1,)], (1,), enumerate_characters(5))


def test_additive_char():
    assert abs(additive_char(0) - 1) < 1e-15
    from fractions import Fraction

    assert abs(additive_char(Fraction(1, 2)) + 1) < 1e-12
    assert abs(additive_char(Fraction(1, 4)) - 1j) < 1e-12
    assert abs(additive_char(Fraction(7, 3)) - additive_char(Fraction(1, 3))) < 1e-12
