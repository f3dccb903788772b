"""Arithmetic helpers against brute-force oracles."""

import math

import numpy as np
import pytest

from voronoi_lab.residues import (
    crt_lift,
    divisor_count,
    divisors,
    euler_phi,
    factorize,
    inverse_mod,
    inverse_table,
    mobius,
    mobius_sieve,
    primes_up_to,
    primitive_root,
    unit_residues,
    valuation,
)


def test_factorize_reconstructs():
    for n in range(1, 400):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        ps = [p for p, _ in fac]
        assert ps == sorted(ps)
        for p, e in fac:
            assert e >= 1
            assert all(p % r for r in range(2, p))


def test_factorize_rejects_nonpositive():
    for bad in (0, -4):
        with pytest.raises(ValueError):
            factorize(bad)


def test_euler_phi_brute():
    for n in range(1, 250):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_mobius_brute():
    for n in range(1, 300):
        fac = factorize(n)
        want = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
        assert mobius(n) == want
    # sum over divisors collapses to the unit impulse
    for n in range(1, 200):
        assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_mobius_sieve_matches_mobius():
    n = 10_000
    mu = mobius_sieve(n)
    assert mu.shape == (n + 1,) and mu[0] == 0 and not mu.flags.writeable
    assert mu.tolist()[1:] == [mobius(m) for m in range(1, n + 1)]
    assert mobius_sieve(1).tolist() == [0, 1]
    assert mobius_sieve(0).tolist() == [0]
    # squares of primes and their neighbours put p^2 at the end of the sieve,
    # and 40 001 = 13 * 17 * 181 has a prime factor above its square root
    for n in (2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 40_001):
        assert mobius_sieve(n).tolist()[1:] == [mobius(m) for m in range(1, n + 1)], n


def test_divisors_sorted_complete():
    for n in range(1, 150):
        ds = divisors(n)
        assert list(ds) == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_divisor_count():
    # d_2 is the classical divisor function, and d_k = d_{k-1} * 1 (Dirichlet)
    for n in range(1, 120):
        assert divisor_count(2, n) == len(divisors(n))
        assert divisor_count(3, n) == sum(divisor_count(2, d) for d in divisors(n))
        assert divisor_count(4, n) == sum(divisor_count(3, d) for d in divisors(n))
    # prime powers: binomial closed form
    for p in (2, 5):
        for e in range(7):
            assert divisor_count(3, p**e) == math.comb(e + 2, 2)


def test_primes_up_to():
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert primes_up_to(1) == ()


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(49, 2) == 0


def test_inverse_mod_and_crt():
    for m in (2, 7, 12, 45):
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert a * inverse_mod(a, m) % m == 1
    x = crt_lift(2, 3, 3, 5)
    assert x % 3 == 2 and x % 5 == 3


def test_primitive_root_orders():
    for pe in (3, 4, 9, 25, 27, 7, 11):
        g = primitive_root(pe)
        seen = set()
        x = 1
        for _ in range(euler_phi(pe)):
            x = x * g % pe
            seen.add(x)
        assert len(seen) == euler_phi(pe)


def test_unit_residues_inverse_table():
    for c in (1, 2, 6, 12, 35):
        units = unit_residues(c)
        assert len(units) == euler_phi(c)
        inv = inverse_table(c)
        for a in units:
            assert int(a) * int(inv[a]) % c == 1 % c
        nonunits = set(range(c)) - {int(a) for a in units}
        assert all(math.gcd(a, c) > 1 for a in nonunits)


def test_unit_residues_is_readonly_view_safe():
    u1 = unit_residues(12)
    u2 = unit_residues(12)
    assert np.array_equal(u1, u2)
