"""Multiplicative arithmetic mod m.

Trial-division factorization, the standard multiplicative functions, and
unit-group structure: for each prime power p^e dividing the modulus a fixed
generator set together with discrete-log tables, combined by CRT.  Moduli in
verification sweeps stay tiny (< 10^6), so tables are dense arrays cached per
modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p1, e1), (p2, e2), ...), p1 < p2 < ...."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def carmichael(n: int) -> int:
    """lambda(n), the exponent of (Z/n)^x: unit_group(n).exponent without building the group."""
    lam = 1
    for p, e in factorize(n):
        if p > 2:
            lam = math.lcm(lam, (p - 1) * p ** (e - 1))
        elif e > 1:  # <-1> x <5> for e >= 3, order 2^(e-2); cyclic of order 2 for e = 2
            lam = math.lcm(lam, 1 << max(e - 2, 1))
    return lam


def mobius(n: int) -> int:
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


@lru_cache(maxsize=8)
def mobius_sieve(n: int) -> np.ndarray:
    """Read-only int8[n+1] holding mu(m) at index m = 1..n; index 0 is 0.

    Only the primes p <= sqrt(n) are sieved: each flips the sign of its
    multiples, zeroes the multiples of p^2 and multiplies into part[m], the
    product of the small primes dividing m.  An m <= n has at most one prime
    factor above sqrt(n), and has one exactly when part[m] < m.
    """
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    part = np.ones(n + 1, dtype=np.int64)
    for p in primes_up_to(math.isqrt(n)):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        part[p::p] *= p
    mu[part < np.arange(n + 1)] *= -1
    mu.flags.writeable = False
    return mu


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def divisor_count(k: int, n: int) -> int:
    """d_k(n): number of ways to write n as an ordered product of k factors."""
    if k < 1 or n < 1:
        raise ValueError("divisor_count needs k >= 1 and n >= 1")
    out = 1
    for _, e in factorize(n):
        out *= math.comb(e + k - 1, k - 1)
    return out


@lru_cache(maxsize=None)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n (sieve of Eratosthenes)."""
    if n < 2:
        return ()
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return tuple(np.flatnonzero(sieve).tolist())


def valuation(n: int, p: int) -> int:
    """Largest v with p^v | n; n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def inverse_mod(a: int, m: int) -> int:
    """a^-1 mod m; raises ValueError if gcd(a, m) > 1."""
    return pow(a, -1, m)


def crt_lift(r1: int, m1: int, r2: int, m2: int) -> int:
    """x mod m1*m2 with x = r1 (m1), x = r2 (m2); m1, m2 coprime."""
    u = inverse_mod(m1 % m2, m2) if m2 > 1 else 0
    return (r1 + m1 * ((r2 - r1) * u % m2)) % (m1 * m2)


def _primitive_root_mod_p(p: int) -> int:
    """Smallest primitive root mod odd prime p."""
    order_factors = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")  # unreachable for prime p


def primitive_root(pe: int) -> int:
    """A generator of (Z/p^e)^x for odd prime p (or pe in {2, 4})."""
    if pe == 2:
        return 1
    if pe == 4:
        return 3
    fac = factorize(pe)
    if len(fac) != 1 or fac[0][0] == 2:
        raise ValueError(f"{pe} is not an odd prime power (or 2, 4)")
    p, e = fac[0]
    g = _primitive_root_mod_p(p)
    if e == 1:
        return g
    # g generates mod p^e for all e iff g^(p-1) != 1 mod p^2
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


@dataclass(frozen=True)
class CyclicFactor:
    """One cyclic factor <g> of (Z/c)^x attached to a prime power p^e | c.

    generator is a residue mod c that is g mod p^e and 1 mod c/p^e, so
    evaluating a character at the factor's generator needs no CRT at call
    sites.  dlog maps u mod p^e to the exponent of u's projection onto this
    factor (-1 on non-units).  For p = 2, e >= 3 the component splits as
    <-1> x <5>, contributing two factors.
    """

    prime: int
    prime_exp: int
    order: int
    generator: int  # residue mod the full modulus
    dlog: np.ndarray  # int64[p^e], exponent or -1

    @property
    def prime_power(self) -> int:
        return self.prime**self.prime_exp


def _dlog_table(pe: int, g: int, order: int) -> np.ndarray:
    t = np.full(pe, -1, dtype=np.int64)
    x = 1
    for k in range(order):
        t[x] = k
        x = x * g % pe
    if x != 1:
        raise ArithmeticError(f"generator {g} mod {pe} does not have order {order}")
    return t


def _two_adic_tables(e: int) -> tuple[np.ndarray, np.ndarray]:
    """(Z/2^e)^x = <-1> x <5> for e >= 3: dlog tables for each factor."""
    pe = 1 << e
    half = 1 << (e - 2)
    ta = np.full(pe, -1, dtype=np.int64)
    tb = np.full(pe, -1, dtype=np.int64)
    for a in range(2):
        for b in range(half):
            u = (-1) ** a * pow(5, b, pe) % pe
            ta[u] = a
            tb[u] = b
    return ta, tb


@dataclass(frozen=True)
class UnitGroup:
    """(Z/c)^x presented as a product of cyclic factors with dlog tables."""

    modulus: int
    factors: tuple[CyclicFactor, ...]

    @property
    def order(self) -> int:
        return euler_phi(self.modulus)

    @cached_property
    def exponent(self) -> int:
        """lcm of the factor orders (1 for c in {1, 2})."""
        return reduce(math.lcm, (f.order for f in self.factors), 1)


@lru_cache(maxsize=None)
def unit_group(c: int) -> UnitGroup:
    if c < 1:
        raise ValueError("modulus must be >= 1")
    factors: list[CyclicFactor] = []
    for p, e in factorize(c):
        pe = p**e
        rest = c // pe
        if p == 2:
            if e == 1:
                continue  # (Z/2)^x trivial
            if e == 2:
                t = _dlog_table(4, 3, 2)
                g = crt_lift(1, rest, 3, 4) if rest > 1 else 3
                factors.append(CyclicFactor(2, 2, 2, g, t))
            else:
                ta, tb = _two_adic_tables(e)
                ga = crt_lift(1, rest, pe - 1, pe) if rest > 1 else pe - 1
                gb = crt_lift(1, rest, 5, pe) if rest > 1 else 5
                factors.append(CyclicFactor(2, e, 2, ga, ta))
                factors.append(CyclicFactor(2, e, 1 << (e - 2), gb, tb))
        else:
            order = (p - 1) * p ** (e - 1)
            g0 = primitive_root(pe)
            t = _dlog_table(pe, g0, order)
            g = crt_lift(1, rest, g0, pe) if rest > 1 else g0
            factors.append(CyclicFactor(p, e, order, g, t))
    return UnitGroup(c, tuple(factors))


@lru_cache(maxsize=None)
def unit_residues(c: int) -> np.ndarray:
    """Sorted int64 array of the units mod c (for c = 1: [0], the one residue)."""
    r = np.arange(c if c > 1 else 1, dtype=np.int64)
    g = np.gcd(r, c)
    return np.ascontiguousarray(r[g == 1])


@lru_cache(maxsize=None)
def inverse_table(c: int) -> np.ndarray:
    """int64[c] with t[u] = u^-1 mod c for units, -1 elsewhere (t[0] = 0 for c = 1)."""
    t = np.full(max(c, 1), -1, dtype=np.int64)
    for u in unit_residues(c):
        t[u] = pow(int(u), -1, c) if c > 1 else 0
    return t
