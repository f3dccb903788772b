"""Gauss sums, Kloosterman and hyper-Kloosterman sums, and their closed forms.

Everything here is a finite sum over reduced residues, evaluated from shared
root-of-unity tables with conservative error bounds.  The closed forms
(divisor-sum and vanishing expressions for non-primitive Gauss sums, the
Gauss-sum product for character-averaged hyper-Kloosterman sums) are kept as
separate entry points so sweeps can compare both routes; none of them is
ever substituted for the direct summation it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._kernels import kl_layer
from .characters import DirichletCharacter, enumerate_characters, induce
from .numeric import (
    EPS,
    TABLE_ENTRY_ERR,
    ComplexValue,
    power_with_error,
    roots_of_unity,
    sum_error_bound,
)
from .residues import divisors, euler_phi, inverse_table, mobius, unit_residues


def additive_char(x: Fraction | int) -> ComplexValue:
    """e(x) = exp(2*pi*i*x) for rational x, from the table of its denominator."""
    x = Fraction(x)
    root = roots_of_unity(x.denominator)[x.numerator % x.denominator]
    return ComplexValue(complex(root), TABLE_ENTRY_ERR)


# ---------------------------------------------------------------------------
# Gauss sums


@dataclass(frozen=True)
class GaussSumQuery:
    """g(chi*, c, m): the Gauss sum of the character mod c induced by chi*."""

    chi_star: DirichletCharacter
    c: int
    m: int

    def __post_init__(self):
        if not self.chi_star.is_primitive:
            raise ValueError("chi_star must be primitive")
        if self.c < 1 or self.c % self.chi_star.modulus != 0:
            raise ValueError(f"conductor {self.chi_star.modulus} must divide c = {self.c}")


def _unpack(query_or_chi, c, m) -> GaussSumQuery:
    if isinstance(query_or_chi, GaussSumQuery):
        return query_or_chi
    return GaussSumQuery(query_or_chi, c, m)


@lru_cache(maxsize=None)
def gauss_sum_vector(chi_star: DirichletCharacter, c: int) -> np.ndarray:
    """Read-only complex128[c] of g(chi*, c, m) for m = 0..c-1.

    Built as one matrix product against the induced character's value vector;
    per-entry rounding is covered by gauss_sum_error(c).
    """
    chi = induce(chi_star, c)
    units = unit_residues(c)
    vals = chi.value_vector[units]
    idx = np.arange(c, dtype=np.int64)[:, None] * units[None, :] % c
    vec = roots_of_unity(c)[idx] @ vals
    vec.setflags(write=False)
    return vec


def gauss_sum_error(c: int) -> float:
    return sum_error_bound(euler_phi(c), 1.0)


def gauss_sum(query_or_chi, c: int | None = None, m: int | None = None) -> ComplexValue:
    """g(chi*, c, m) = sum over units u mod c of chi(u) e(mu/c), chi induced by chi*."""
    q = _unpack(query_or_chi, c, m)
    return ComplexValue(complex(gauss_sum_vector(q.chi_star, q.c)[q.m % q.c]), gauss_sum_error(q.c))


def tau(chi_star: DirichletCharacter) -> ComplexValue:
    """The standard Gauss sum of a primitive character: g(chi*, c*, 1)."""
    if not chi_star.is_primitive:
        raise ValueError("tau is defined for primitive characters only")
    return gauss_sum(chi_star, chi_star.modulus, 1)


def gauss_sum_closed_lemma22(query_or_chi, c: int | None = None, m: int | None = None) -> ComplexValue:
    """Divisor-sum closed form of g(chi*, c, m).

    tau(chi*) * sum over d | (m, c/c*) of d chi*(c/(c* d)) conj(chi*)(m/d) mu(c/(c* d)).
    """
    q = _unpack(query_or_chi, c, m)
    cstar = q.chi_star.modulus
    ratio = q.c // cstar
    g = math.gcd(q.m, ratio) if q.m != 0 else ratio
    acc = ComplexValue(0j)
    chi_bar = q.chi_star.conjugate()
    for d in divisors(g):
        mu = mobius(ratio // d)
        if mu == 0:
            continue
        term = q.chi_star(ratio // d) * chi_bar(q.m // d)
        acc = acc + ComplexValue(mu * d * term, 2 * TABLE_ENTRY_ERR * d)
    return tau(q.chi_star) * acc


def gauss_sum_closed_lemma23(query_or_chi, c: int | None = None, m: int | None = None) -> ComplexValue:
    """Vanishing/totient closed form of g(chi*, c, a).

    Zero unless c* | c/(c,a); otherwise
    tau(chi*) phi(c)/phi(c/(c,a)) mu(c/(c* (c,a))) chi*(c/(c* (c,a))) conj(chi*)(a/(c,a)).
    """
    q = _unpack(query_or_chi, c, m)
    cstar = q.chi_star.modulus
    a = q.m
    g = math.gcd(a, q.c) if a != 0 else q.c
    cofactor = q.c // g
    if cofactor % cstar != 0:
        return ComplexValue(0j)
    scale = euler_phi(q.c) // euler_phi(cofactor) * mobius(cofactor // cstar)
    term = q.chi_star(cofactor // cstar) * q.chi_star.conjugate()(a // g)
    return tau(q.chi_star) * ComplexValue(scale * term, 2 * TABLE_ENTRY_ERR * abs(scale))


def divisor_sigma(s: complex, m: int, chi: DirichletCharacter) -> ComplexValue:
    """Twisted divisor power sum: sum over d | m of chi(d) d^s."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc = ComplexValue(0j)
    for d in divisors(m):
        v = chi(d)
        if v != 0:
            acc = acc + power_with_error(d, s) * ComplexValue(v, TABLE_ENTRY_ERR)
    return acc


def average_gauss_identity_check(
    n: int, m: int, chi_star: DirichletCharacter
) -> tuple[ComplexValue, ComplexValue]:
    """Both sides of the divisor-averaged Gauss sum identity.

    lhs = sum over factorizations l*d = n of chi*(d) g(chi*, l*c*, m);
    rhs = tau(chi*) conj(chi*)(m/n) n when n | m, else 0.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    cstar = chi_star.modulus
    lhs = ComplexValue(0j)
    for d in divisors(n):
        v = chi_star(d)
        if v != 0:
            lhs = lhs + ComplexValue(v, TABLE_ENTRY_ERR) * gauss_sum(chi_star, (n // d) * cstar, m)
    if m % n == 0:
        rhs = tau(chi_star) * ComplexValue(n * chi_star.conjugate()(m // n), n * TABLE_ENTRY_ERR)
    else:
        rhs = ComplexValue(0j)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Kloosterman sums


@dataclass(frozen=True)
class KloostermanSpec:
    """Parameters (a, n, c; q, d) of a hyper-Kloosterman sum of degree N = len(q)+2.

    The divisibility chain d_1 | q_1 c, d_2 | q_2 (q_1 c / d_1), ... is part
    of the object's meaning and is validated at construction, as is
    gcd(a, c) = 1.
    """

    a: int
    n: int
    c: int
    q: tuple[int, ...] = ()
    d: tuple[int, ...] = ()

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if math.gcd(self.a, self.c) != 1:
            raise ValueError(f"a = {self.a} is not a unit mod c = {self.c}")
        if len(self.q) != len(self.d):
            raise ValueError("q and d must have equal length")
        if any(x < 1 for x in self.q) or any(x < 1 for x in self.d):
            raise ValueError("q and d entries must be positive")
        m = self.c
        for i, (qi, di) in enumerate(zip(self.q, self.d), start=1):
            if (qi * m) % di != 0:
                raise ValueError(
                    f"divisibility chain broken at d_{i} = {di}: must divide {qi * m}"
                )
            m = qi * m // di

    @property
    def degree(self) -> int:
        return len(self.q) + 2

    @property
    def moduli(self) -> tuple[int, ...]:
        """(M_0, ..., M_K): M_0 = c, M_i = q_i M_{i-1} / d_i."""
        mods = [self.c]
        for qi, di in zip(self.q, self.d):
            mods.append(qi * mods[-1] // di)
        return tuple(mods)


def kloosterman(a: int, b: int, c: int) -> ComplexValue:
    """Classical S(a, b; c) = sum over units x mod c of e((a x + b inverse(x))/c)."""
    if c < 1:
        raise ValueError("c must be >= 1")
    units = unit_residues(c)
    invs = inverse_table(c)[units]
    val = roots_of_unity(c)[(a % c * units + b % c * invs) % c].sum()
    return ComplexValue(complex(val), sum_error_bound(len(units), 1.0))


def hyper_kloosterman(spec: KloostermanSpec) -> ComplexValue:
    """Direct nested summation of the hyper-Kloosterman sum (oracle path).

    Cost is the product of the unit counts of the layer moduli; sweeps keep
    that below ~10^7 terms.  The degenerate degree-2 case is e(a n / c).
    """
    mods = spec.moduli
    k = len(spec.q)
    if k == 0:
        return additive_char(Fraction(spec.a * spec.n, spec.c))
    roots = [roots_of_unity(m) for m in mods]
    invs = [inverse_table(m) for m in mods]
    units = [unit_residues(m) for m in mods]
    n_hat = spec.n % mods[k]

    def layer(i: int, r: int) -> complex:
        m_prev = mods[i - 1]
        m = mods[i]
        d_i = spec.d[i - 1] % m_prev
        acc = 0j
        if i == k:
            for x in units[i]:
                acc += roots[i - 1][d_i * x * r % m_prev] * roots[i][n_hat * invs[i][x] % m]
        else:
            for x in units[i]:
                acc += roots[i - 1][d_i * x * r % m_prev] * layer(i + 1, int(invs[i][x]))
        return acc

    total_terms = math.prod(euler_phi(m) for m in mods[1:])
    return ComplexValue(layer(1, spec.a % spec.c), sum_error_bound(total_terms, 1.0))


_kl_vector_cache: dict[tuple, np.ndarray] = {}


def clear_kloosterman_cache() -> None:
    _kl_vector_cache.clear()


def kloosterman_vector(n: int, c: int, q: tuple[int, ...], d: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """(vec, err) with vec[a] = Kl(a, n, c; q, d) for all a = 0..c-1 (junk at non-units).

    Evaluated layer by layer from the innermost variable outward, so the cost
    is a sum of phi(M_i) * M_{i-1} products instead of the full nested count.
    Intermediate layers are memoized across calls keyed by the tail of
    (modulus, d_i) pairs they depend on; entries at non-unit indices a are
    not meaningful.
    """
    spec = KloostermanSpec(1, n, c, tuple(q), tuple(d))  # validates the chain
    mods = spec.moduli
    k = len(q)
    if k == 0:
        vec = roots_of_unity(c)[(n % c) * np.arange(c, dtype=np.int64) % c]
        return vec, TABLE_ENTRY_ERR

    keys: list = [None] * (k + 2)
    keys[k + 1] = (mods[k], n % mods[k])
    for i in range(k, 0, -1):
        keys[i] = (mods[i - 1], d[i - 1] % mods[i - 1], keys[i + 1])

    tail = None
    start = k + 1
    for i in range(1, k + 1):  # outermost cached level wins
        hit = _kl_vector_cache.get(keys[i])
        if hit is not None:
            tail, start = hit, i
            break
    if tail is None:
        m = mods[k]
        tail = roots_of_unity(m)[(n % m) * np.arange(m, dtype=np.int64) % m]
        start = k + 1
    for i in range(start - 1, 0, -1):
        m = mods[i]
        units = unit_residues(m)
        invs = inverse_table(m)[units]
        out = kl_layer(units, invs, d[i - 1], mods[i - 1], roots_of_unity(mods[i - 1]), tail)
        out.setflags(write=False)
        _kl_vector_cache[keys[i]] = out
        tail = out

    err = TABLE_ENTRY_ERR
    mag = 1.0
    for i in range(k, 0, -1):
        phi = euler_phi(mods[i])
        err = phi * err + sum_error_bound(phi, mag)
        mag *= phi
    return tail, err


def kloosterman_magnitude_bound(c: int, q: tuple[int, ...], d: tuple[int, ...]) -> float:
    """Trivial bound on |Kl|: the number of terms in the nested sum."""
    spec = KloostermanSpec(1, 0, c, tuple(q), tuple(d))
    return float(math.prod(euler_phi(m) for m in spec.moduli[1:]))


def average_kloosterman_over_character(
    chi: DirichletCharacter, n: int, c: int, q: tuple[int, ...], d: tuple[int, ...]
) -> ComplexValue:
    """sum over units a mod c of chi(a) Kl(a, n, c; q, d), by direct summation."""
    if chi.modulus != c:
        raise ValueError("chi must be a character mod c")
    vec, verr = kloosterman_vector(n, c, tuple(q), tuple(d))
    val = complex(np.dot(chi.value_vector, vec))
    phi = euler_phi(c)
    mag = kloosterman_magnitude_bound(c, tuple(q), tuple(d))
    err = phi * verr + sum_error_bound(phi, mag)
    return ComplexValue(val, err)


def _lemma34_factors(c, q, chains, n_values, chars):
    """Gauss-sum factors of the Lemma 3.4 product and its non-vanishing mask.

    Returns (moduli, factors, live): factor i is g(chi*, M_i, d_{i+1}) for
    i < K and g(chi*, M_K, n) for i = K, each complex128 and broadcastable to
    [n_chars, n_chains, n_n]; live[x, j] is True when c* | M_i for every
    i >= 1 of chain j.  Factors are gathered from one flat table holding the
    gauss_sum_vector row of each (chi*, M) that a live chain reaches, after a
    zero block that every other (chi*, M) points at.
    """
    q = tuple(q)
    k = len(q)
    mods = np.array(
        [KloostermanSpec(1, 0, c, q, tuple(d)).moduli for d in chains], dtype=np.int64
    ).reshape(len(chains), k + 1)  # the specs validate every chain
    d = np.array(chains, dtype=np.int64).reshape(len(chains), k)
    # n enters only mod M_K; reducing by their lcm first keeps any int in int64
    lcm_k = math.lcm(*mods[:, k].tolist())
    n_arr = np.array([n % lcm_k for n in n_values], dtype=np.int64)
    stars = [chi.primitive() for chi in chars]
    cstar = np.array([s.modulus for s in stars], dtype=np.int64)
    live = (mods[None, :, 1:] % cstar[:, None, None] == 0).all(axis=2)

    mod_list = sorted(set(mods.ravel().tolist()))
    mod_pos = np.zeros(mod_list[-1] + 1, dtype=np.int64)
    mod_pos[mod_list] = np.arange(len(mod_list))
    mod_idx = mod_pos[mods]
    offsets = np.zeros((len(stars), len(mod_list)), dtype=np.int64)
    rows = [np.zeros(mod_list[-1], dtype=np.complex128)]
    size = mod_list[-1]
    for s, star in enumerate(stars):
        for t in sorted(set(mod_idx[live[s]].ravel().tolist())):
            m = mod_list[t]
            offsets[s, t] = size
            rows.append(gauss_sum_vector(star, m))
            size += m
    table = np.concatenate(rows)

    factors = []
    for i in range(k):
        idx = offsets[:, mod_idx[:, i]] + d[:, i] % mods[:, i]
        factors.append(table[idx][:, :, None])
    idx = offsets[:, mod_idx[:, k], None] + n_arr[None, :] % mods[:, k, None]
    factors.append(table[idx])
    return mods, factors, live


def _lemma34_product(factors, live) -> np.ndarray:
    """complex128 product (1+0j) * f_0 * ... * f_K, zeroed where not live.

    Real and imaginary parts are multiplied as separate float arrays, in the
    order of Python's complex product, so every entry has the bits of the
    left-to-right scalar product.
    """
    shape = np.broadcast_shapes(*(f.shape for f in factors))
    re = np.ones(shape)
    im = np.zeros(shape)
    for f in factors:
        fr, fi = f.real, f.imag
        re, im = re * fr - im * fi, re * fi + im * fr
    out = np.empty(shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return np.where(live[:, :, None], out, 0j)


def average_kloosterman_closed_lemma34_table(
    c: int, q: tuple[int, ...], chains, n_values, chars=None
) -> np.ndarray:
    """Lemma 3.4 closed form for every character, divisor chain and n at once.

    complex128[n_chars, n_chains, n_n], characters in enumerate_characters(c)
    order unless `chars` (characters mod c) is given.  Entry [x, j, t] is
    average_kloosterman_closed_lemma34(chars[x], n_values[t], c, q, chains[j]).
    """
    if chars is None:
        chars = enumerate_characters(c)
    elif any(chi.modulus != c for chi in chars):
        raise ValueError("chars must be characters mod c")
    _, factors, live = _lemma34_factors(c, q, chains, n_values, chars)
    return _lemma34_product(factors, live)


def average_kloosterman_closed_lemma34(
    chi: DirichletCharacter, n: int, c: int, q: tuple[int, ...], d: tuple[int, ...]
) -> ComplexValue:
    """Gauss-sum product closed form of the character-averaged hyper-Kloosterman sum.

    Zero unless d_i c* divides q_i M_{i-1} for every i (equivalently c* | M_i
    for i >= 1); otherwise the product g(chi*, M_0, d_1) g(chi*, M_1, d_2)
    ... g(chi*, M_{K-1}, d_K) g(chi*, M_K, n).  One point of
    average_kloosterman_closed_lemma34_table; the bound propagates
    gauss_sum_error through the product to first order plus rounding.
    """
    if chi.modulus != c:
        raise ValueError("chi must be a character mod c")
    mods, factors, live = _lemma34_factors(c, q, [tuple(d)], [n], (chi,))
    value = complex(_lemma34_product(factors, live)[0, 0, 0])
    if not live[0, 0]:
        return ComplexValue(value)
    mag, err = 1.0, 0.0
    for f, m in zip(factors, mods[0]):
        a = abs(complex(f.flat[0]))
        e = gauss_sum_error(int(m))
        err = err * a + e * mag + err * e + 2.0 * EPS * mag * a
        mag *= a
    return ComplexValue(value, err)


def kloosterman_divisor_chains(c: int, q: tuple[int, ...]):
    """Yield every d tuple satisfying the divisibility chain for (c, q)."""

    def rec(prefix: tuple[int, ...], m: int, rest: tuple[int, ...]):
        if not rest:
            yield prefix
            return
        head = rest[0]
        for di in divisors(head * m):
            yield from rec(prefix + (di,), head * m // di, rest[1:])

    yield from rec((), c, tuple(q))
