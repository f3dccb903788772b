"""Gauss sums, Kloosterman and hyper-Kloosterman sums, and their closed forms.

Everything here is a finite sum over reduced residues, evaluated in float64
from shared root-of-unity tables, or by one FFT for a Gauss-sum vector.  The
closed forms (divisor-sum and vanishing expressions for non-primitive Gauss
sums, the Gauss-sum product for character-averaged hyper-Kloosterman sums)
are kept as separate entry points so sweeps can compare both routes; none of
them is ever substituted for the direct summation it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._kernels import kl_layer
from .characters import DirichletCharacter, enumerate_characters, induce
from .numeric import roots_of_unity, sum_error_bound
from .residues import divisors, euler_phi, inverse_table, mobius, unit_residues


def additive_char(x: Fraction | int) -> complex:
    """e(x) = exp(2*pi*i*x) for rational x, from the table of its denominator."""
    x = Fraction(x)
    return complex(roots_of_unity(x.denominator)[x.numerator % x.denominator])


# ---------------------------------------------------------------------------
# Gauss sums


def _check_gauss_args(chi_star: DirichletCharacter, c: int) -> None:
    """g(chi*, c, m) needs a primitive chi* whose conductor divides c."""
    if not chi_star.is_primitive:
        raise ValueError("chi_star must be primitive")
    if c < 1 or c % chi_star.modulus != 0:
        raise ValueError(f"conductor {chi_star.modulus} must divide c = {c}")


@lru_cache(maxsize=None)
def gauss_sum_vector(chi_star: DirichletCharacter, c: int) -> np.ndarray:
    """Read-only complex128[c] of g(chi*, c, m) for m = 0..c-1.

    g(chi*, c, m) = sum over u mod c of chi(u) e(mu/c) is the unscaled inverse
    DFT of the induced character's value vector (zero off the units), so the
    whole vector is one FFT; per-entry rounding is covered by gauss_sum_error(c).
    """
    vec = np.fft.ifft(induce(chi_star, c).value_vector, norm="forward")
    vec.setflags(write=False)
    return vec


def gauss_sum_error(c: int) -> float:
    return sum_error_bound(euler_phi(c), 1.0)


def gauss_sum(chi_star: DirichletCharacter, c: int, m: int) -> complex:
    """g(chi*, c, m) = sum over units u mod c of chi(u) e(mu/c), chi induced by chi*."""
    _check_gauss_args(chi_star, c)
    return complex(gauss_sum_vector(chi_star, c)[m % c])


def tau(chi_star: DirichletCharacter) -> complex:
    """The standard Gauss sum of a primitive character: g(chi*, c*, 1)."""
    return gauss_sum(chi_star, chi_star.modulus, 1)


def gauss_sum_closed_lemma22(chi_star: DirichletCharacter, c: int, m: int) -> complex:
    """Divisor-sum closed form of g(chi*, c, m).

    tau(chi*) * sum over d | (m, c/c*) of d chi*(c/(c* d)) conj(chi*)(m/d) mu(c/(c* d)).
    """
    _check_gauss_args(chi_star, c)
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


def gauss_sum_closed_lemma23(chi_star: DirichletCharacter, c: int, m: int) -> complex:
    """Vanishing/totient closed form of g(chi*, c, a).

    Zero unless c* | c/(c,a); otherwise
    tau(chi*) phi(c)/phi(c/(c,a)) mu(c/(c* (c,a))) chi*(c/(c* (c,a))) conj(chi*)(a/(c,a)).
    """
    _check_gauss_args(chi_star, c)
    cstar = chi_star.modulus
    a = m
    g = math.gcd(a, c) if a != 0 else c
    cofactor = c // g
    if cofactor % cstar != 0:
        return 0j
    scale = euler_phi(c) // euler_phi(cofactor) * mobius(cofactor // cstar)
    term = chi_star(cofactor // cstar) * chi_star.conjugate()(a // g)
    return tau(chi_star) * (scale * term)


def divisor_sigma(s: complex, m: int, chi: DirichletCharacter) -> complex:
    """Twisted divisor power sum: sum over d | m of chi(d) d^s."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc = 0j
    for d in divisors(m):
        v = chi(d)
        if v != 0:
            acc = acc + complex(np.exp(s * math.log(d))) * v
    return acc


def average_gauss_identity_check(
    n: int, m: int, chi_star: DirichletCharacter
) -> tuple[complex, complex]:
    """Both sides of the divisor-averaged Gauss sum identity.

    lhs = sum over factorizations l*d = n of chi*(d) g(chi*, l*c*, m);
    rhs = tau(chi*) conj(chi*)(m/n) n when n | m, else 0.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    cstar = chi_star.modulus
    lhs = 0j
    for d in divisors(n):
        v = chi_star(d)
        if v != 0:
            lhs = lhs + v * gauss_sum(chi_star, (n // d) * cstar, m)
    if m % n == 0:
        rhs = tau(chi_star) * (n * chi_star.conjugate()(m // n))
    else:
        rhs = 0j
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


def hyper_kloosterman(spec: KloostermanSpec) -> complex:
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

    return complex(layer(1, spec.a % spec.c))


_kl_vector_cache: dict[tuple, np.ndarray] = {}


def clear_kloosterman_cache() -> None:
    _kl_vector_cache.clear()


def kloosterman_vector(n: int, c: int, q: tuple[int, ...], d: tuple[int, ...]) -> np.ndarray:
    """vec[a] = Kl(a, n, c; q, d) for all a = 0..c-1 (junk at non-units).

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
        return roots_of_unity(c)[(n % c) * np.arange(c, dtype=np.int64) % c]

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
    return tail


def _lemma34_factors(c, q, chains, n_values, chars):
    """Gauss-sum factors of the Lemma 3.4 product and its non-vanishing mask.

    Returns (factors, live): factor i is g(chi*, M_i, d_{i+1}) for
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
    return factors, live


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
    factors, live = _lemma34_factors(c, q, chains, n_values, chars)
    return _lemma34_product(factors, live)


def average_kloosterman_closed_lemma34(
    chi: DirichletCharacter, n: int, c: int, q: tuple[int, ...], d: tuple[int, ...]
) -> complex:
    """Gauss-sum product closed form of the character-averaged hyper-Kloosterman sum.

    Zero unless d_i c* divides q_i M_{i-1} for every i (equivalently c* | M_i
    for i >= 1); otherwise the product g(chi*, M_0, d_1) g(chi*, M_1, d_2)
    ... g(chi*, M_{K-1}, d_K) g(chi*, M_K, n).  One point of
    average_kloosterman_closed_lemma34_table.
    """
    if chi.modulus != c:
        raise ValueError("chi must be a character mod c")
    table = average_kloosterman_closed_lemma34_table(c, q, [tuple(d)], [n], (chi,))
    return complex(table[0, 0, 0])


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
