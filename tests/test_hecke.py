"""Schur evaluation and Hecke-multiplicative coefficient sources."""

import itertools
import math

import numpy as np
import pytest

from voronoi_lab.hecke import (
    CoefficientSource,
    SatakeParams,
    _schur_batch,
    isobaric_params,
    isobaric_source,
    random_satake,
    random_satake_source,
    rankin_selberg_params,
    rankin_selberg_source,
    raw_table_source,
    schur,
    verify_hecke_relations,
)
from voronoi_lab.residues import divisor_count, primes_up_to

from voronoi_lab.harness import SweepConfig

from oracles import isobaric_alphas, rankin_selberg_alphas, random_satake_table, schur_bialternant


def _unit_circle_points(rng, deg):
    angles = rng.uniform(0, 2 * np.pi, deg - 1)
    x = [complex(np.exp(1j * t)) for t in angles]
    x.append(1 / math.prod(x, start=1 + 0j))
    return tuple(x)


def test_schur_matches_bialternant():
    rng = np.random.default_rng(3)
    checked = 0
    for deg in (2, 3, 4, 5):
        for _ in range(40):
            x = _unit_circle_points(rng, deg)
            # the ratio-of-alternants oracle loses accuracy near coincident
            # parameters, so only well-separated draws are compared
            sep = min(
                abs(x[i] - x[j]) for i in range(deg) for j in range(i + 1, deg)
            )
            if sep < 0.25:
                continue
            k = tuple(int(e) for e in rng.integers(0, 4, deg - 1))
            a = schur(k, x)
            b = schur_bialternant(k, x)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b)), (deg, k)
            checked += 1
    assert checked > 40


def test_schur_normalization():
    x = _unit_circle_points(np.random.default_rng(5), 3)
    assert abs(schur((0, 0), x) - 1) < 1e-14
    # lambda = (1,0,0): the determinant collapses to h_1 = x_1 + x_2 + x_3
    assert abs(schur((1, 0), x) - sum(x)) < 1e-12
    with pytest.raises(ValueError):
        schur((1, -1), x)


def test_satake_validation():
    with pytest.raises(ValueError):
        SatakeParams(2, [2], [(2.0 + 0j, 1.0 + 0j)])  # product 2, not 1
    with pytest.raises(ValueError):
        SatakeParams(3, [2], [(1.0 + 0j, 1.0 + 0j)])  # wrong arity
    params = random_satake(3, 20, 9)
    with pytest.raises(ValueError):
        params.alphas_at(23)  # beyond prime_bound


def test_random_satake_deterministic_and_unitary():
    a = random_satake(3, 50, 11)
    b = random_satake(3, 50, 11)
    c = random_satake(3, 50, 12)
    assert a.primes.tolist() == b.primes.tolist()
    assert all(a.alphas_at(p) == b.alphas_at(p) for p in a.primes)
    assert any(a.alphas_at(p) != c.alphas_at(p) for p in a.primes)
    for p in a.primes:
        assert abs(math.prod(a.alphas_at(p), start=1 + 0j) - 1) < 1e-10
        assert all(abs(abs(al) - 1) < 1e-12 for al in a.alphas_at(p))


def test_satake_product_check_names_the_first_bad_prime():
    alphas = [(1j, -1j), (2.0 + 0j, 1.0 + 0j), (3.0 + 0j, 1.0 + 0j)]
    with pytest.raises(ValueError) as err:
        SatakeParams(2, [2, 3, 5], alphas)
    assert str(err.value) == "parameter product at p = 3 is (2+0j), not 1"
    with pytest.raises(ValueError):
        SatakeParams(2, [3, 2], [(1j, -1j), (1j, -1j)])  # not ascending


def _hexes(values) -> list[tuple[str, str]]:
    return [_hex(z) for z in values]


def test_isobaric_parameters_are_the_scalar_powers_bit_for_bit():
    # numpy's float64 power, log and exp differ from libm in the last bit at
    # some primes, so every entry is held to CPython's complex power
    ranges = SweepConfig("voronoi-core").validate()
    shift_sets = [*ranges["gl3_shift_sets"], *ranges["gl2_shift_sets"], (-1.5 + 1j, 1.5 - 1j)]
    bound = 20011
    for shifts in shift_sets:
        params = isobaric_params(len(shifts), shifts, bound)
        assert params.primes.tolist() == list(primes_up_to(bound))
        for p, row in zip(params.primes.tolist(), params.alphas.tolist()):
            assert _hexes(row) == _hexes(isobaric_alphas(p, shifts)), (shifts, p)


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_random_satake_is_the_per_prime_loop_bit_for_bit(degree):
    for seed in (0, 1, 9, 2**40 + 3):
        params = random_satake(degree, 3000, seed)
        table = random_satake_table(degree, 3000, seed)
        assert params.primes.tolist() == list(table)
        for p, row in zip(params.primes.tolist(), params.alphas.tolist()):
            assert _hexes(row) == _hexes(table[p]), (seed, p)


def test_rankin_selberg_rows_are_the_scalar_products_bit_for_bit():
    bound = 2000
    for f1, f2 in (
        (random_satake(2, bound, 5), random_satake(3, bound, 6)),
        (isobaric_params(3, (1j, 0j, -1j), bound), random_satake(2, bound, 7)),
    ):
        rs = rankin_selberg_params(f1, f2)
        assert rs.degree == f1.degree * f2.degree
        for p, row, a, b in zip(
            rs.primes.tolist(), rs.alphas.tolist(), f1.alphas.tolist(), f2.alphas.tolist()
        ):
            assert _hexes(row) == _hexes(rankin_selberg_alphas(a, b)), p


def test_coefficient_multiplicative_across_primes():
    src = random_satake_source(3, 30, 4)
    # disjoint prime support splits multiplicatively
    for m1, m2 in (((2, 4), (3, 9)), ((8, 2), (5, 1)), ((4, 1), (27, 3))):
        joint = tuple(a * b for a, b in zip(m1, m2))
        got = src.coefficient(joint)
        want = src.coefficient(m1) * src.coefficient(m2)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_hecke_relations_unit_cases():
    for deg, seed in ((3, 1), (4, 2)):
        src = random_satake_source(deg, 10, seed)
        for p in (2, 3):
            for n in (p, p * p):
                m = (p,) + (1,) * (deg - 2)
                for lhs, rhs in verify_hecke_relations(src, n, m):
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_dual_coefficient_conjugates_unitary():
    # reversing the index tuple realizes the contragredient, whose parameters
    # are the conjugates when every alpha sits on the unit circle
    src = random_satake_source(3, 20, 8)
    for m in ((2, 3), (4, 1), (5, 5)):
        assert abs(src.coefficient(tuple(reversed(m))) - np.conj(src.coefficient(m))) < 1e-10


def test_isobaric_zero_shifts_is_ternary_divisor():
    src = isobaric_source(3, (0j, 0j, 0j), 300)
    for n in range(1, 300):
        got = src.coefficient((n, 1))
        assert abs(got - divisor_count(3, n)) < 1e-9
        assert abs(got.imag) < 1e-12


def test_isobaric_shift_validation():
    with pytest.raises(ValueError):
        isobaric_params(3, (1j, 0j, 1j), 10)  # does not sum to zero
    with pytest.raises(ValueError):
        isobaric_params(3, (1j, -1j), 10)  # arity


def test_rankin_selberg_block():
    f1 = random_satake(2, 10, 21)
    f2 = random_satake(2, 10, 22)
    rs = rankin_selberg_params(f1, f2)
    assert rs.degree == 4
    for p in rs.primes:
        want = sorted(
            (a * b for a in f1.alphas_at(p) for b in f2.alphas_at(p)),
            key=lambda z: (z.real, z.imag),
        )
        got = sorted(rs.alphas_at(p), key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want)
    src = rankin_selberg_source(f1, f2)
    assert src.degree == 4
    # A(1,1,p) is the degree-one Schur value, which factors through the pair
    for p in (2, 3):
        want = sum(f1.alphas_at(p)) * sum(f2.alphas_at(p))
        assert abs(src.coefficient((1, 1, p)) - want) < 1e-12
    with pytest.raises(ValueError):
        rankin_selberg_params(f1, random_satake(2, 5, 1))  # prime sets differ


def test_raw_table_deterministic_and_exportable():
    src = raw_table_source(3, seed=17)
    again = raw_table_source(3, seed=17)
    for m in [(1, 1), (2, 1), (2, 3), (7, 4), (5, 9)]:
        assert again.coefficient(m) == src.coefficient(m)
    # a raw table is its seed: a source takes exactly one of seed and satake
    with pytest.raises(ValueError, match="exactly one of satake and seed"):
        CoefficientSource(3)
    with pytest.raises(ValueError, match="exactly one of satake and seed"):
        CoefficientSource(3, satake=random_satake(3, 10, 1), seed=17)


def test_source_kinds_and_index_validation():
    assert random_satake_source(3, 10, 1).satake.degree == 3
    assert isobaric_source(2, (1j, -1j), 10).isobaric_shifts == (1j, -1j)
    assert raw_table_source(3, seed=0).seed == 0
    with pytest.raises(ValueError):
        random_satake_source(3, 10, 1).coefficient((2,))  # arity
    with pytest.raises(ValueError):
        random_satake_source(3, 10, 1).coefficient((0, 1))  # nonpositive index


def _scalar_row(src, prefix, suffix, x, scale=1):
    row = np.zeros(x + 1, dtype=complex)
    for e in range(1, x + 1):
        row[e] = src.coefficient(prefix + (scale * e,) + suffix)
    return row


def _param(builder: str, src):
    # a test id names the builder of its source and the degree
    return pytest.param(src, id=f"{builder}-{src.degree}")


def _row_sources():
    bound = 600
    yield _param("random-satake", random_satake_source(2, bound, 41))
    yield _param("random-satake", random_satake_source(3, bound, 42))
    yield _param("random-satake", random_satake_source(4, bound, 43))
    yield _param("isobaric", isobaric_source(2, (1j, -1j), bound))
    yield _param("isobaric", isobaric_source(3, (1j, 0j, -1j), bound))
    yield _param("isobaric", isobaric_source(4, (2j, 1j, -1j, -2j), bound))
    rs = rankin_selberg_source(random_satake(2, bound, 44), random_satake(2, bound, 45))
    yield _param("rankin-selberg", rs)


@pytest.mark.parametrize("src", list(_row_sources()))
def test_coefficient_row_matches_scalar_reads(src):
    # every slot position varies in turn; the others are held at values whose
    # primes overlap the row's (2, 3, 5) or are all 1
    x = 500
    slots = src.degree - 1
    for fixed in ((1,) * slots, (18, 10, 9)[:slots], (4, 7, 25)[:slots]):
        for pos in range(slots):
            prefix, suffix = fixed[:pos], fixed[pos + 1 : slots]
            row = src.coefficient_row(prefix, suffix, x)
            assert row.shape == (x + 1,) and row[0] == 0 and not row.flags.writeable
            np.testing.assert_allclose(row, _scalar_row(src, prefix, suffix, x), rtol=1e-13, atol=0)
            assert src.coefficient_row(prefix, suffix, x) is row


def test_coefficient_row_scale_shares_primes_with_a_fixed_slot():
    src = random_satake_source(3, 6000, 46)
    x = 400
    for prefix, suffix, scale in (((), (18,), 12), ((18,), (), 12), ((), (1,), 12), ((), (7,), 8)):
        row = src.coefficient_row(prefix, suffix, x, scale=scale)
        np.testing.assert_allclose(
            row, _scalar_row(src, prefix, suffix, x, scale), rtol=1e-13, atol=0
        )


def test_coefficient_row_on_raw_tables():
    # seeded draws: the same values as scalar reads of an identically seeded
    # source that never built a row
    row = raw_table_source(3, seed=23).coefficient_row((), (12,), 300, scale=2)
    want = _scalar_row(raw_table_source(3, seed=23), (), (12,), 300, 2)
    np.testing.assert_allclose(row, want, rtol=1e-13, atol=0)


def test_coefficient_row_validation():
    src = random_satake_source(3, 50, 1)
    with pytest.raises(ValueError):
        src.coefficient_row((), (), 10)  # arity
    with pytest.raises(ValueError):
        src.coefficient_row((), (0,), 10)  # nonpositive fixed slot
    with pytest.raises(ValueError):
        src.coefficient_row((), (1,), 10, scale=0)
    with pytest.raises(ValueError):
        src.coefficient_row((), (1,), 60)  # primes beyond the parameter table, as coefficient


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _satake_sources_by_degree():
    # every Satake builder at degrees 2-6; zero shifts give pivot ties (equal
    # |h| in one column) and blocks whose elimination cancels exactly
    bound = 200
    for deg in range(2, 7):
        yield _param("random-satake", random_satake_source(deg, bound, 60 + deg))
        shifts = tuple(1j * (deg - 1 - 2 * i) for i in range(deg))
        yield _param("isobaric", isobaric_source(deg, shifts, bound))
        yield _param("isobaric", isobaric_source(deg, (0j,) * deg, bound))
    for f1, f2 in (
        (random_satake(2, bound, 44), random_satake(2, bound, 45)),
        (random_satake(2, bound, 46), random_satake(3, bound, 47)),
        (isobaric_params(2, (0j, 0j), bound), isobaric_params(3, (0j,) * 3, bound)),
    ):
        yield _param("rankin-selberg", rankin_selberg_source(f1, f2))


@pytest.mark.parametrize("src", list(_satake_sources_by_degree()))
def test_batched_base_row_blocks_are_bit_equal_to_scalar_schur(src):
    # the blocks one base row reads, (p, k) with p^k <= x in each slot, and
    # then every exponent vector with entries <= 2 at a few primes
    x = 200
    slots = src.degree - 1
    for pos in range(slots):
        pairs = [(p, k) for p in primes_up_to(x) for k in range(1, 9) if p**k <= x]
        got = src._slot_blocks(pos, pairs).tolist()
        for (p, k), value in zip(pairs, got):
            kvec = [0] * slots
            kvec[slots - 1 - pos] = k
            assert _hex(value) == _hex(schur(tuple(kvec), src.satake.alphas_at(p))), (pos, p, k)
    kvecs = list(itertools.product(range(3), repeat=slots))
    for p in (2, 3, 197):
        alphas = src.satake.alphas_at(p)
        got = _schur_batch(np.array(kvecs), np.array([alphas] * len(kvecs))).tolist()
        for kvec, value in zip(kvecs, got):
            assert _hex(value) == _hex(schur(kvec, alphas)), (p, kvec)


def test_batched_schur_zero_pivot_gives_0j_like_the_scalar():
    # h_1(1, -1, 0, 0) = 0 exactly, so lambda = (1, 0, 0) has an all-zero
    # first column and the scalar elimination stops at its first pivot
    x = (1 + 0j, -1 + 0j, 0j, 0j)
    kvecs = list(itertools.product(range(3), repeat=3))
    got = _schur_batch(np.array(kvecs), np.array([x] * len(kvecs))).tolist()
    assert _hex(got[kvecs.index((1, 0, 0))]) == _hex(0j)
    for kvec, value in zip(kvecs, got):
        assert _hex(value) == _hex(schur(kvec, x)), kvec


def test_missing_prime_raises_through_the_row_with_the_scalar_message():
    src = random_satake_source(3, 50, 1)
    with pytest.raises(ValueError) as scalar_err:
        random_satake_source(3, 50, 1).coefficient((53, 1))
    with pytest.raises(ValueError) as row_err:
        src.coefficient_row((), (1,), 60)
    assert str(row_err.value) == str(scalar_err.value) == "prime 53 not populated in SatakeParams"
    # the batch raises the same error while it gathers the parameters
    with pytest.raises(ValueError) as batch_err:
        src._slot_blocks(0, [(47, 1), (53, 1), (2, 5)])
    assert str(batch_err.value) == str(scalar_err.value)
