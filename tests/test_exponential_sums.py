"""Gauss and hyper-Kloosterman sums: brute-force oracles and closed forms."""

import itertools
import math
import struct

import numpy as np
import pytest

from voronoi_lab import exponential_sums
from voronoi_lab.characters import enumerate_characters, primitive_characters
from voronoi_lab.exponential_sums import (
    _chain_tree,
    _layers,
    _taus,
    average_kloosterman_closed_lemma34,
    average_kloosterman_closed_lemma34_table,
    gauss_sum_closed_lemma22,
    gauss_sum_closed_lemma22_rows,
    gauss_sum_closed_lemma23,
    gauss_sum_closed_lemma23_rows,
    gauss_sum_rows,
    gauss_sum_vector,
    kloosterman_divisor_chains,
    kloosterman_vector,
    tau,
)
from voronoi_lab.numeric import roots_of_unity
from voronoi_lab.residues import (
    carmichael,
    divisors,
    euler_phi,
    mobius,
    unit_group,
    unit_residues,
)

from oracles import (
    KloostermanSpec,
    additive_char,
    gauss_sum_error,
    hyper_kloosterman,
    induce,
    principal,
)


def brute_gauss(chi_star, c, m):
    vv = induce(chi_star, c).value_vector
    roots = roots_of_unity(c)
    return complex(sum(vv[a] * roots[a * m % c] for a in range(c)))


def test_gauss_sum_vector_is_bit_identical_to_the_induced_fft():
    # gauss_sum_rows reads the turn tables instead of building the induced
    # characters, and transforms every primitive chi* of a conductor in one
    # FFT; each row must be the 1-D FFT of the induced value vector bit for
    # bit, and gauss_sum_vector must be that row
    count = 0
    for cstar in range(1, 17):
        chars = primitive_characters(cstar)
        for c in range(cstar, 161, cstar):
            table = gauss_sum_rows(cstar, c)
            assert table.shape == (len(chars), c) and not table.flags.writeable
            for chi, got in zip(chars, table):
                want = np.fft.ifft(induce(chi, c).value_vector, norm="forward")
                assert np.array_equal(got, want), (chi.label, c)
                assert got.tobytes() == want.tobytes(), (chi.label, c)  # signs of zero too
                assert gauss_sum_vector(chi, c).tobytes() == want.tobytes(), (chi.label, c)
                count += 1
    assert count == 908  # 45 primitive chi*, c* = 1 and c = 1, 2 among them


def test_carmichael_is_the_unit_group_exponent():
    assert [carmichael(c) for c in range(1, 2001)] == [
        unit_group(c).exponent for c in range(1, 2001)
    ]


def test_gauss_sum_vector_rejects_a_modulus_c_star_does_not_divide():
    chi5 = primitive_characters(5)[0]
    for c in (1, 4, 12, 24):
        with pytest.raises(ValueError, match="does not divide"):
            gauss_sum_vector(chi5, c)
        with pytest.raises(ValueError, match="does not divide"):
            gauss_sum_rows(5, c)
    assert gauss_sum_vector(primitive_characters(1)[0], 1).tolist() == [1 + 0j]
    assert gauss_sum_rows(6, 12).shape == (0, 12)  # no primitive character of conductor 6


def test_gauss_sum_vector_rejects_a_non_primitive_character():
    for chi in (principal(4), induce(primitive_characters(3)[0], 12)):
        with pytest.raises(ValueError, match="primitive"):
            gauss_sum_vector(chi, 24)


def test_gauss_sum_matches_brute():
    for cstar in (1, 3, 4, 5, 8):
        for chi in primitive_characters(cstar):
            for c in range(cstar, 31, cstar):
                vec = gauss_sum_vector(chi, c)
                for m in range(0, 13):
                    want = brute_gauss(chi, c, m)
                    assert abs(vec[m % c] - want) < 1e-10 * math.sqrt(c)


def test_tau_modulus():
    for cstar in (3, 4, 5, 7, 8, 9, 11):
        for chi in primitive_characters(cstar):
            assert abs(abs(tau(chi)) - math.sqrt(cstar)) < 1e-10
    assert abs(tau(principal(1)) - 1) < 1e-14


def test_taus_of_one_conductor_keep_the_bits_of_tau():
    # the closed rows read tau through _taus, one table per conductor
    for cstar in (1, 3, 4, 5, 8, 12, 13, 16):
        chars = primitive_characters(cstar)
        for picked in (chars, chars[::-1], chars[-1:]):
            got = [(z.real.hex(), z.imag.hex()) for z in _taus(picked).tolist()]
            want = [(tau(chi).real.hex(), tau(chi).imag.hex()) for chi in picked]
            assert got == want, cstar


def _family_at(rows_fn):
    # the family over (c*, c): a bad c anywhere fails the whole call
    return lambda chi, c, m_values: rows_fn((chi,), [chi.modulus, c], m_values)


def test_gauss_sum_argument_checks():
    chi3 = primitive_characters(3)[0]
    for f, m in (
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


def test_closed_families_take_characters_of_one_conductor():
    chi3, chi4 = primitive_characters(3)[0], primitive_characters(4)[0]
    for rows_fn, _, _ in CLOSED_FAMILIES:
        for chars in ((), (chi3, chi4)):
            with pytest.raises(ValueError, match="one conductor"):
                rows_fn(chars, [12], [1, 2])
        with pytest.raises(ValueError, match="primitive"):
            rows_fn((chi4, principal(4)), [4, 8], [1, 2])


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


# c/c* with 24 to 48 divisors, and m sharing most of them, so an entry adds
# up to 16 Lemma 2.2 terms: (conductors, c/c*, m values)
MANY_DIVISORS = (
    (1, 3, 4, 5, 8),
    (360, 720, 840, 1260, 2520),
    [0, 1, 12, 60, 360, 720, 840, -840, 1260, 2520, 5040, 27720 * 10**20],
)


def test_closed_rows_are_bit_identical_to_scalar_loops():
    _check_rows_against_scalar_loops(range(1, 13), range(1, 49), 48, list(range(-7, 71)))


def test_closed_rows_of_many_divisors_are_bit_identical_to_scalar_loops():
    cstars, ratios, m_values = MANY_DIVISORS
    _check_rows_against_scalar_loops(cstars, ratios, math.inf, m_values)


def _check_rows_against_scalar_loops(cstars, ratios, c_max, m_values):
    # one call covers every primitive character of a conductor, at the
    # moduli c = r c* <= c_max
    zeros = entries = 0
    for cstar in cstars:
        chars = primitive_characters(cstar)
        if not chars:  # c* = 2 mod 4
            continue
        cs = [r * cstar for r in ratios if r * cstar <= c_max]
        for rows_fn, point_fn, reference in CLOSED_FAMILIES:
            table = rows_fn(chars, cs, m_values)
            shape = (len(chars), len(cs), len(m_values))
            assert table.dtype == np.complex128 and table.shape == shape
            for chi, rows in zip(chars, table):
                for c, row in zip(cs, rows):
                    for m, got in zip(m_values, row):
                        want = reference(chi, c, m)
                        assert _bits(got) == _bits(want), (rows_fn.__name__, chi.label, c, m)
                        if m % 11 == 0:  # the scalar form is a one-point family
                            assert _bits(point_fn(chi, c, m)) == _bits(want)
                        entries += 1
                        zeros += want == 0
    assert 0 < zeros < entries


@pytest.mark.parametrize("chunk", [1, 50, 1 << 40])
def test_lemma22_rows_keep_their_bits_at_any_chunk(monkeypatch, chunk):
    # the terms are added a chunk of divisors at a time; a chunk of one
    # divisor, a chunk boundary inside most rows and a single chunk all give
    # the bits of the default chunk
    cstars, ratios, m_values = MANY_DIVISORS
    for cstar in cstars:
        chars = primitive_characters(cstar)
        cs = [r * cstar for r in ratios]
        want = gauss_sum_closed_lemma22_rows(chars, cs, m_values)
        monkeypatch.setattr(exponential_sums, "_LEMMA22_CHUNK", chunk)
        got = gauss_sum_closed_lemma22_rows(chars, cs, m_values)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes(), cstar


def test_closed_families_equal_their_one_point_forms():
    # a family entry at (chi*, c, m) is the scalar form at (chi*, c, m): no
    # entry depends on the other characters, c or m of the call
    m_values = list(range(-3, 31))
    for cstar in range(1, 9):
        chars = primitive_characters(cstar)[::-1]  # reversed: order-free too
        if not chars:  # c* = 2 mod 4
            continue
        cs = list(range(cstar, 41, cstar))[::-1]  # descending: order-free too
        for rows_fn, point_fn, _ in CLOSED_FAMILIES:
            for chi, rows in zip(chars, rows_fn(chars, cs, m_values)):
                for c, row in zip(cs, rows):
                    for m, got in zip(m_values, row):
                        want = point_fn(chi, c, m)
                        assert got == want, (rows_fn.__name__, chi.label, c, m)
                        assert _bits(got) == _bits(want), (rows_fn.__name__, chi.label, c, m)


def test_closed_families_of_no_modulus_or_no_m():
    chi = primitive_characters(5)[0]
    for rows_fn, _, _ in CLOSED_FAMILIES:
        assert rows_fn((chi,), [], [1, 2, 3]).shape == (1, 0, 3)
        assert rows_fn((chi,), [5, 10], []).shape == (1, 2, 0)


def test_closed_rows_match_brute_force():
    m_values = list(range(-7, 71))
    for cstar in range(1, 13):
        chars = primitive_characters(cstar)
        if not chars:  # c* = 2 mod 4
            continue
        cs = range(cstar, 49, cstar)
        want = np.array([[[brute_gauss(chi, c, m) for m in m_values] for c in cs] for chi in chars])
        scale = np.sqrt(np.array(cs, dtype=float))[:, None]
        for rows_fn, _, _ in CLOSED_FAMILIES:
            err = np.abs(rows_fn(chars, cs, m_values) - want) / scale
            assert err.max() < 1e-10, (rows_fn.__name__, cstar)


def test_closed_rows_take_m_beyond_int64():
    chi = primitive_characters(4)[0]
    big = [10**30 + 6, -(10**25) - 2, 2**63 + 4]
    cs = [4, 12, 24]
    for rows_fn, _, reference in CLOSED_FAMILIES:
        (rows,) = rows_fn((chi,), cs, big)
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
                        chi.value_vector[d % cstar]
                        * gauss_sum_vector(chi, (n // d) * cstar)[m % ((n // d) * cstar)]
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
    with pytest.raises(ValueError, match="c must be >= 1"):
        kloosterman_divisor_chains(0, (2,))
    with pytest.raises(ValueError, match="q entries must be positive"):
        kloosterman_divisor_chains(4, (2, 0))


def test_kloosterman_spec_validation():
    with pytest.raises(ValueError):
        KloostermanSpec(2, 1, 4, (2,), (2,))  # gcd(a, c) != 1
    with pytest.raises(ValueError):
        KloostermanSpec(1, 1, 4, (2,), (3,))  # 3 does not divide q_1 c
    with pytest.raises(ValueError):
        KloostermanSpec(1, 1, 0, (2,), (1,))


CHAIN_LAYERS = (
    (),
    (1,),
    (3,),
    ((2, 1),),
    ((3, 1, 2),),
    (2, 2),
    ((2, 1), (1, 3)),
    (3, (2, 1)),
    (1, 2, 3),
    ((3, 1), 2, (2, 1)),
    (2, 1, 3, 2),
    ((2, 1), 3, 1, (3, 1)),
)


def _brute_chains(c, qq):
    """The chains of (c, q') by filtering every tuple of divisors of c q_1...q_i.

    Returns [(d, (M_0, ..., M_K))] sorted by d; shares no code with the
    package's divisor lists.
    """
    cands = []
    for i in range(len(qq)):
        n = c * math.prod(qq[: i + 1])
        cands.append([x for x in range(1, n + 1) if n % x == 0])
    out = []
    for d in itertools.product(*cands):
        mods = [c]
        for qi, di in zip(qq, d):
            if qi * mods[-1] % di:
                break
            mods.append(qi * mods[-1] // di)
        else:
            out.append((d, tuple(mods)))
    return sorted(out)


def _brute_levels(c, layers):
    """Each depth's nodes [(q', d, moduli)] and their q' blocks, in the tree's order.

    The nodes of depth i are the chains of each q' of the first i layers, in
    itertools.product order, one block after another.
    """
    levels = []
    for i in range(len(layers) + 1):
        nodes, blocks = [], []
        for qq in itertools.product(*layers[:i]):
            part = _brute_chains(c, qq)
            blocks.append((qq, slice(len(nodes), len(nodes) + len(part))))
            nodes += [(qq, d, mods) for d, mods in part]
        levels.append((nodes, blocks))
    return levels


def test_divisor_chains_count():
    # q' in itertools.product order of the layers (choices in their given
    # order, not sorted), the chains of each q' in lexicographic d order; the
    # nodes of each depth are ranked the same way, and a node's children
    # through a choice start at its extension by d = 1
    for q in CHAIN_LAYERS:
        layers = [(x,) if isinstance(x, int) else x for x in q]
        k = len(layers)
        for c in range(1, 13):
            tree = _chain_tree(c, _layers(q))
            levels = _brute_levels(c, layers)
            for i, first in enumerate(tree.first):
                rank = {(qq, d): r for r, (qq, d, _) in enumerate(levels[i + 1][0])}
                parents = levels[i][0]
                want = [[rank[qq + (qi,), d + (1,)] for qq, d, _ in parents] for qi in layers[i]]
                assert first.tolist() == want, (c, q, i)
            leaves, blocks = levels[k]
            assert list(tree.blocks) == blocks, (c, q)
            for got, want, width in (
                (tree.chains, [d for _, d, _ in leaves], k),
                (tree.moduli, [mods for _, _, mods in leaves], k + 1),
            ):
                assert got.dtype == np.int64 and got.shape == (len(want), width), (c, q)
                assert got.tolist() == [list(x) for x in want], (c, q)
                assert not got.flags.writeable
            assert not any(first.flags.writeable for first in tree.first)
            for qq, cols in blocks:
                want = [d for _, d, _ in leaves[cols]]
                assert kloosterman_divisor_chains(c, qq) == want, (c, qq)
            if all(isinstance(x, int) for x in q):
                assert kloosterman_divisor_chains(c, q) == [d for _, d, _ in leaves], (c, q)


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
        acc = acc * complex(gauss_sum_vector(chi_star, m)[arg % m])
    return acc


def test_lemma34_table_is_bit_identical_to_scalar_products():
    n_values = (1, 2, -3)
    qs = [(qi,) for qi in (1, 2, 3)] + [(1, 2), (2, 2), (3, 2)]
    zeros = entries = 0
    for c in range(1, 7):
        chars = enumerate_characters(c)
        for q in qs:
            chains = list(kloosterman_divisor_chains(c, q))
            table = average_kloosterman_closed_lemma34_table(c, q, n_values)
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
            table = average_kloosterman_closed_lemma34_table(c, q, (1, 2))
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
    table = average_kloosterman_closed_lemma34_table(c, q, big)
    for x, chi in enumerate(enumerate_characters(c)):
        for j, d in enumerate(chains):
            for t, n in enumerate(big):
                assert _bits(table[x, j, t]) == _bits(_lemma34_scalar_reference(chi, n, c, q, d))


def test_lemma34_table_rejects_broken_chains():
    # the table builds its chains and characters from (c, q); the scalar
    # names one chain and one character, and both must belong to (c, q)
    chi4 = enumerate_characters(4)[0]
    with pytest.raises(ValueError, match=r"d = \(3,\) is not a divisor chain"):
        average_kloosterman_closed_lemma34(chi4, 1, 4, (2,), (3,))
    with pytest.raises(ValueError, match="chi must be a character mod c"):
        average_kloosterman_closed_lemma34(enumerate_characters(5)[1], 1, 4, (2,), (1,))
    with pytest.raises(ValueError, match="c must be >= 1"):
        average_kloosterman_closed_lemma34_table(0, (2,), (1,))
    with pytest.raises(ValueError, match="q entries must be positive"):
        average_kloosterman_closed_lemma34_table(4, (2, 0), (1,))


def _ramanujan_sum(sympy, c, m):
    """c_c(m) = sum over d | (c, m) of mu(c/d) d, in exact integers."""
    return sum(sympy.mobius(c // d) * d for d in sympy.divisors(math.gcd(c, m)))


def _exact_character_sum(sympy, chi, weight):
    """sum over the units t mod c of chi(t) weight(t), as an exact integer.

    chi(t) = e(k/m) with k/m the exact value_fraction(t) and m the group
    exponent, so the sum is a polynomial in e(1/m) with integer
    coefficients.  It is reduced mod the m-th cyclotomic polynomial, and
    the test fails unless the remainder is a constant.
    """
    x = sympy.symbols("x")
    m = chi.group.exponent
    poly = 0
    for t in range(chi.modulus):
        turn = chi.value_fraction(t)
        if turn is not None:
            poly += weight(t) * x ** int(turn * m)
    remainder = sympy.Poly(sympy.rem(sympy.expand(poly), sympy.cyclotomic_poly(m, x), x), x)
    assert remainder.degree() <= 0, (chi.label, remainder)
    return int(remainder.as_expr())


def test_tau_norm_and_product_against_exact_integers():
    # With a = t b, |tau(chi)|^2 = sum_t chi(t) c_c(t - 1) and
    # tau(chi) tau(conj chi) = sum_t chi(t) c_c(t + 1), Ramanujan sums c_c;
    # both are evaluated exactly and must equal c* and chi(-1) c*.  The FFT
    # tau is then checked against those integers.
    sympy = pytest.importorskip("sympy")
    checked = 0
    for cstar in range(1, 41):
        err = 4 * math.sqrt(cstar) * gauss_sum_error(cstar) + gauss_sum_error(cstar) ** 2
        for chi in primitive_characters(cstar):
            sign = 1 if chi.value_fraction(-1) == 0 else -1
            norm = _exact_character_sum(sympy, chi, lambda t: _ramanujan_sum(sympy, cstar, t - 1))
            product = _exact_character_sum(sympy, chi, lambda t: _ramanujan_sum(sympy, cstar, t + 1))
            assert (norm, product) == (cstar, sign * cstar), chi.label
            t = tau(chi)
            assert abs(abs(t) ** 2 - cstar) <= err, chi.label
            assert abs(t * tau(chi.conjugate()) - sign * cstar) <= err, chi.label
            checked += 1
    assert checked == 285


def test_trivial_gauss_sums_are_ramanujan_sums():
    sympy = pytest.importorskip("sympy")
    trivial = primitive_characters(1)[0]
    for c in range(1, 61):
        vec = gauss_sum_vector(trivial, c)
        want = np.array([_ramanujan_sum(sympy, c, m) for m in range(c)], dtype=np.float64)
        assert np.abs(vec - want).max() <= gauss_sum_error(c), c


def test_additive_char():
    assert abs(additive_char(0) - 1) < 1e-15
    from fractions import Fraction

    assert abs(additive_char(Fraction(1, 2)) + 1) < 1e-12
    assert abs(additive_char(Fraction(1, 4)) - 1j) < 1e-12
    assert abs(additive_char(Fraction(7, 3)) - additive_char(Fraction(1, 3))) < 1e-12


def _deg5_box_units():
    """The (c, q) units of kloosterman-average at degrees 3-5, c_max 5, q_max 3."""
    last = (1, 2, 3)
    for k in (1, 2, 3):
        for c in range(1, 6):
            for head in itertools.product(last, repeat=k - 1):
                yield c, head + (last,)


def _blocks(c, q):
    """(q', columns of q') over q' in itertools.product of q's layers."""
    start = 0
    for qq in itertools.product(*((x,) if isinstance(x, int) else x for x in q)):
        n = len(kloosterman_divisor_chains(c, qq))
        yield qq, slice(start, start + n)
        start += n


def test_batched_closed_table_blocks_are_bit_identical_to_their_own_tables():
    n_values = (1, 2, 5)
    for c, q in _deg5_box_units():
        table = average_kloosterman_closed_lemma34_table(c, q, n_values)
        blocks = list(_blocks(c, q))
        assert table.shape[1] == blocks[-1][1].stop
        for qq, cols in blocks:
            own = average_kloosterman_closed_lemma34_table(c, qq, n_values)
            assert table[:, cols].tobytes() == own.tobytes(), (c, qq)


def test_batched_walk_blocks_match_their_own_walks():
    n_values = (1, 2, 5)
    leaves, worst = {}, 0.0
    for c, q in _deg5_box_units():
        table = kloosterman_vector(n_values, c, q, leaves)
        blocks = list(_blocks(c, q))
        assert table.shape[1] == blocks[-1][1].stop
        for qq, cols in blocks:
            own = kloosterman_vector(n_values, c, qq, leaves)
            worst = max(worst, np.abs(table[:, cols] - own).max())
    assert worst < 1e-14


@pytest.mark.parametrize(
    "c, q",
    [(4, ((1, 2, 3),)), (6, (2, (1, 3))), (5, ((1, 2), 2)), (4, ((2, 1), (1, 2), 1))],
)
def test_batched_columns_against_nested_oracle(c, q):
    # every layer may carry several q, including the outer ones and a layer
    # whose choices are not in ascending order
    n_values = (1, -3)
    units = [int(a) for a in unit_residues(c)]
    walk = kloosterman_vector(n_values, c, q)
    closed = average_kloosterman_closed_lemma34_table(c, q, n_values)
    vv = np.stack([chi.value_vector[units] for chi in enumerate_characters(c)])
    for qq, cols in _blocks(c, q):
        chains = kloosterman_divisor_chains(c, qq)
        assert len(chains) == cols.stop - cols.start
        own_closed = average_kloosterman_closed_lemma34_table(c, qq, n_values)
        assert closed[:, cols].tobytes() == own_closed.tobytes(), qq
        for j in sorted({0, len(chains) // 2, len(chains) - 1}):
            d = chains[j]
            scale = _scale(c, qq, d)
            for t, n in enumerate(n_values):
                kl = np.array([hyper_kloosterman(KloostermanSpec(a, n, c, qq, d)) for a in units])
                assert np.abs(walk[:, cols.start + j, t] - kl).max() < 1e-12 * scale, (qq, d, n)
                avg = vv @ kl
                assert np.abs(closed[:, cols.start + j, t] - avg).max() < 1e-9 * scale


def test_batched_layers_reject_bad_entries():
    for q in (((1, 0),), (2, (3, 0)), ((0,), 2)):
        with pytest.raises(ValueError, match="q entries must be positive"):
            kloosterman_vector((1,), 4, q)
        with pytest.raises(ValueError, match="q entries must be positive"):
            average_kloosterman_closed_lemma34_table(4, q, (1,))
    with pytest.raises(ValueError, match="q layers must not be empty"):
        kloosterman_vector((1,), 4, (2, ()))
    with pytest.raises(ValueError, match="q layers must not be empty"):
        average_kloosterman_closed_lemma34_table(4, ((),), (1,))
