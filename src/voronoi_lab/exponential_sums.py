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
from .characters import DirichletCharacter, enumerate_characters
from .numeric import roots_of_unity, sum_error_bound
from .residues import (
    divisors,
    euler_phi,
    inverse_table,
    mobius_sieve,
    unit_group,
    unit_residues,
)


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

    The value vector is read off chi*'s turn table, not built from induce:
    chi*(u) = e(k/m*) with k = turn_table[u mod c*], and m* divides m_c, the
    exponent of (Z/c)^x.  So at a unit u mod c the induced character is entry
    k m_c/m* mod m_c of roots_of_unity(m_c), the entry its own value_vector
    reads, and the vector has the same bits.
    """
    cstar = chi_star.modulus
    if c % cstar != 0:
        raise ValueError(f"{cstar} does not divide {c}")
    m = unit_group(c).exponent
    units = unit_residues(c)
    turns = chi_star.turn_table[units % cstar] * (m // chi_star.group.exponent) % m
    values = np.zeros(c, dtype=np.complex128)
    values[units] = roots_of_unity(m)[turns]
    vec = np.fft.ifft(values, norm="forward")
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


def _product(a, b):
    """(re, im) of the complex product a * b, each given as an (re, im) pair.

    The parts are floats or float arrays, combined in the order of Python's
    complex product, so every entry has the bits of the scalar product.
    """
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _as_complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _closed_form_inputs(chi_star: DirichletCharacter, cs, m_values):
    """Shared set-up of the Lemma 2.2/2.3 rows of one chi*.

    Returns (c, m, chi, chi_bar, tau): c the int64 array of cs; m_values
    reduced mod each c as Python ints, int64[len(cs), len(m_values)] (both
    closed forms read m only through gcds with divisors of c and through
    (m/d) mod c* with c* | c/d, so the reduction changes no index); the (re,
    im) tables of chi*(r) and conj(chi*)(r) for r < c*, each read once
    through the exact scalar evaluation; and tau(chi*) as an (re, im) pair.
    """
    for modulus in cs:
        _check_gauss_args(chi_star, modulus)
    c = np.array(cs, dtype=np.int64)
    m = (np.array(m_values, dtype=object)[None, :] % c[:, None]).astype(np.int64)
    tables = []
    for ch in (chi_star, chi_star.conjugate()):
        vals = np.array([ch(r) for r in range(chi_star.modulus)], dtype=np.complex128)
        tables.append((vals.real, vals.imag))
    t = tau(chi_star)
    return c, m, tables[0], tables[1], (t.real, t.imag)


def gauss_sum_closed_lemma22_rows(chi_star: DirichletCharacter, cs, m_values) -> np.ndarray:
    """complex128[len(cs), len(m_values)] of the Lemma 2.2 closed form.

    Entry [i, j] is tau(chi*) * sum over d | (m, c/c*) of
    d chi*(c/(c* d)) conj(chi*)(m/d) mu(c/(c* d)) at c = cs[i], m = m_values[j].
    The divisors d are visited in ascending order and each term is added at
    the (c, m) it divides, so every entry is summed in the order of the
    scalar loop over the divisors of (m, c/c*).
    """
    c, m, (cr, ci), (br, bi), tau_pair = _closed_form_inputs(chi_star, cs, m_values)
    cstar = chi_star.modulus
    ratio = c // cstar
    mu_table = mobius_sieve(int(ratio.max(initial=1))).astype(np.int64)
    acc_re = np.zeros(m.shape)
    acc_im = np.zeros(m.shape)
    for d in sorted(set().union(*(divisors(x) for x in set(ratio.tolist())))):
        mu = np.where(ratio % d == 0, mu_table[ratio // d], 0)
        rows, cols = np.nonzero((mu != 0)[:, None] & (m % d == 0))
        k = m[rows, cols] // d % cstar
        r = ratio[rows] // d % cstar
        term = _product((cr[r], ci[r]), (br[k], bi[k]))
        tr, ti = _product(((mu[rows] * d).astype(np.float64), 0.0), term)
        acc_re[rows, cols] += tr
        acc_im[rows, cols] += ti
    return _as_complex(*_product(tau_pair, (acc_re, acc_im)))


def gauss_sum_closed_lemma23_rows(chi_star: DirichletCharacter, cs, m_values) -> np.ndarray:
    """complex128[len(cs), len(m_values)] of the Lemma 2.3 closed form.

    Entry [i, j] at c = cs[i], a = m_values[j] is zero unless c* | c/(c,a);
    otherwise
    tau(chi*) phi(c)/phi(c/(c,a)) mu(c/(c* (c,a))) chi*(c/(c* (c,a))) conj(chi*)(a/(c,a)).
    """
    c, a, (cr, ci), (br, bi), tau_pair = _closed_form_inputs(chi_star, cs, m_values)
    cstar = chi_star.modulus
    g = np.gcd(a, c[:, None])
    cofactor = c[:, None] // g
    live = cofactor % cstar == 0
    # every cofactor and c/(c* (c,a)) divides its c
    top = int(c.max(initial=1))
    phi = np.zeros(top + 1, dtype=np.int64)
    for d in set().union(*(divisors(x) for x in set(c.tolist()))):
        phi[d] = euler_phi(d)
    mu = mobius_sieve(top).astype(np.int64)
    rows = np.nonzero(live)[0]
    f, q = cofactor[live], cofactor[live] // cstar
    scale = (phi[c[rows]] // phi[f] * mu[q]).astype(np.float64)
    k = a[live] // g[live] % cstar
    r = q % cstar
    term = _product((cr[r], ci[r]), (br[k], bi[k]))
    re, im = _product(tau_pair, _product((scale, 0.0), term))
    out = np.zeros(a.shape, dtype=np.complex128)
    out[live] = _as_complex(re, im)
    return out


def gauss_sum_closed_lemma22(chi_star: DirichletCharacter, c: int, m: int) -> complex:
    """Divisor-sum closed form of g(chi*, c, m); one point of gauss_sum_closed_lemma22_rows."""
    return complex(gauss_sum_closed_lemma22_rows(chi_star, [c], [m])[0, 0])


def gauss_sum_closed_lemma23(chi_star: DirichletCharacter, c: int, m: int) -> complex:
    """Vanishing/totient closed form of g(chi*, c, a); one point of gauss_sum_closed_lemma23_rows."""
    return complex(gauss_sum_closed_lemma23_rows(chi_star, [c], [m])[0, 0])


# ---------------------------------------------------------------------------
# Kloosterman sums


@dataclass(frozen=True)
class KloostermanSpec:
    """Parameters (a, n, c; q, d) of a hyper-Kloosterman sum of degree N = len(q)+2.

    The divisibility chain d_1 | q_1 c, d_2 | q_2 (q_1 c / d_1), ... is part
    of the object's meaning and is validated at construction, as is
    gcd(a, c) = 1.  It describes one term for the nested oracle
    hyper_kloosterman; the walk kloosterman_vector builds every chain of its
    (c, q) itself, so it has none to check.
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


def _chain_moduli(c: int, q, chains) -> np.ndarray:
    """int64[n_chains, K+1] of the moduli (M_0, ..., M_K) of every chain.

    The divisibility chain d_i | q_i M_{i-1} of every chain is checked in one
    array test; the error names the first broken d_i of the first broken
    chain, as KloostermanSpec does.
    """
    q = tuple(q)
    k = len(q)
    if c < 1:
        raise ValueError("c must be >= 1")
    try:
        d = np.asarray(chains, dtype=np.int64).reshape(len(chains), k)
    except ValueError:
        raise ValueError("q and every d must have equal length") from None
    if any(x < 1 for x in q) or (d < 1).any():
        raise ValueError("q and d entries must be positive")
    mods = np.empty((len(chains), k + 1), dtype=np.int64)
    mods[:, 0] = c
    num = np.empty((len(chains), k), dtype=np.int64)
    for i in range(k):
        num[:, i] = q[i] * mods[:, i]
        mods[:, i + 1] = num[:, i] // d[:, i]
    broken = num % d != 0
    if broken.any():
        j, i = divmod(int(np.argmax(broken)), k)
        raise ValueError(
            f"divisibility chain broken at d_{i + 1} = {d[j, i]}: must divide {num[j, i]}"
        )
    return mods


def _leaf_table(leaves: dict, n_values: tuple, m_prev: int, q_k: int, d_k: int):
    """The innermost layer of a chain, at the residues where the walk keeps L.

    complex128[phi(M_{K-1}), len(n_values)]: entry [s, t] = sum over the units
    x mod M_K of e(d_K x r_s / M_{K-1}) e(n_t x^-1 / M_K), M_K = q_K M_{K-1} /
    d_K, from one kl_layer call, with r_s the inverse of the s-th unit mod
    M_{K-1}.  q_k = 0 stands for a chain with no layer, whose table is
    e(r_s n_t / M_0).  The table is kept in leaves under (n_values, M_{K-1},
    q_K, d_K); the walk builds its chains from (c, q), so nothing is checked.
    """
    key = (n_values, m_prev, q_k, d_k)
    table = leaves.get(key)
    if table is None:
        m = q_k * m_prev // d_k if q_k else m_prev
        r = np.array([n % m for n in n_values], dtype=np.int64)
        table = roots_of_unity(m)[np.arange(m, dtype=np.int64)[:, None] * r[None, :] % m]
        if q_k:
            units = unit_residues(m)
            table = kl_layer(
                units, inverse_table(m)[units], d_k, m_prev, roots_of_unity(m_prev), table
            )
        table = leaves[key] = table[inverse_table(m_prev)[unit_residues(m_prev)]]
    return table


def _first_children(ranks: dict, edges: dict) -> np.ndarray:
    """[r]: rank of the first child of the prefix of rank r; [-1]: number of children.

    ranks[M] ranks a depth's prefixes of modulus M; edges[M] is the d below each.
    """
    counts = np.zeros(sum(len(r) for r in ranks.values()) + 1, dtype=np.int64)
    for m, r in ranks.items():
        counts[1:][r] = len(edges[m])
    return counts.cumsum()


def kloosterman_vector(
    n_values, c: int, q: tuple[int, ...], leaves: dict | None = None
) -> np.ndarray:
    """Direct hyper-Kloosterman sums of every unit, divisor chain and n at once.

    complex128[phi(c), n_chains, n_n]: [i, j, t] = Kl(a, n_values[t], c; q, d)
    at a = unit_residues(c)[i], d = kloosterman_divisor_chains(c, q)[j].  Kl
    reads n only mod M_K, reduced as a Python int, so any int n is exact.

    The chains of (c, q) are walked as a prefix tree from the outermost layer
    inward, one depth at a time.  L starts as the identity on the units mod
    M_0; the edge d_i maps L to the function on Z/M_i that is sum over r of
    L[r] e(d_i y r / M_{i-1}) at y^-1 for the units y mod M_i and zero
    elsewhere.  Every L is kept at the inverses of the units mod its modulus,
    and the children of a prefix of modulus M are the d | q_i M in ascending
    order, so the prefixes of one depth with the same modulus share their
    edges: their L blocks are stacked and multiplied once per d.  At depth
    K-1 the stack of each M_{K-1} goes through one product with the
    side-by-side _leaf_table tables of its leaves d_K, the chains' innermost
    layers, written to the output at the chains' lexicographic ranks.  Those
    tables depend only on (n_values, M_{K-1}, q_K, d_K), so a caller may pass
    one dict as `leaves` to every call of a sweep; without it each call
    starts an empty one.
    """
    q = tuple(q)
    if c < 1:
        raise ValueError("c must be >= 1")
    if any(x < 1 for x in q):
        raise ValueError("q entries must be positive")
    units = unit_residues(c)
    n_rows, n_n, n_values = len(units), len(n_values), tuple(n_values)
    if leaves is None:
        leaves = {}

    # stacks[M] is the L of every prefix of modulus M at this depth,
    # [prefixes, n_rows, phi(M)] at inverse_table(M)[unit_residues(M)], and
    # ranks[M] their ranks; row i of the root's L is 1 at a = units[i].
    eye = (units[:, None] == inverse_table(c)[units][None, :]).astype(np.complex128)
    stacks, ranks = {c: eye[None]}, {c: np.zeros(1, dtype=np.int64)}
    for qi in q[:-1]:
        edges = {m: divisors(qi * m) for m in stacks}
        first = _first_children(ranks, edges)
        parts = {}  # child modulus -> [(L block, ranks)]
        for m_prev, src in stacks.items():
            at = inverse_table(m_prev)[unit_residues(m_prev)]
            kid = first[ranks[m_prev]]  # rank of each prefix's first child
            for k, d_i in enumerate(edges[m_prev]):
                m = qi * m_prev // d_i
                base = (d_i % m_prev) * unit_residues(m) % m_prev
                w = roots_of_unity(m_prev)[at[:, None] * base[None, :] % m_prev]
                block = (src.reshape(-1, src.shape[2]) @ w).reshape(len(src), n_rows, w.shape[1])
                parts.setdefault(m, []).append((block, kid + k))
        stacks = {m: np.concatenate([b for b, _ in p]) for m, p in parts.items()}
        ranks = {m: np.concatenate([r for _, r in p]) for m, p in parts.items()}

    q_k = q[-1] if q else 0  # 0: a chain with no layer has one leaf
    edges = {m: divisors(q_k * m) if q else (0,) for m in stacks}
    first = _first_children(ranks, edges)
    out = np.empty((n_rows, first[-1], n_n), dtype=np.complex128)
    for m_prev, stack in stacks.items():
        tails = edges[m_prev]
        block = np.concatenate([_leaf_table(leaves, n_values, m_prev, q_k, d) for d in tails], 1)
        prod = stack.reshape(-1, stack.shape[2]) @ block
        prod = prod.reshape(len(stack), n_rows, len(tails), n_n)
        out[:, first[ranks[m_prev]][:, None] + np.arange(len(tails))] = prod.transpose(1, 0, 2, 3)
    return out


def _lemma34_factors(c, q, chains, n_values, chars, mods):
    """Gauss-sum factors of the Lemma 3.4 product and its non-vanishing mask.

    Returns (factors, live): factor i is g(chi*, M_i, d_{i+1}) for
    i < K and g(chi*, M_K, n) for i = K, each complex128 and broadcastable to
    [n_chars, n_chains, n_n]; live[x, j] is True when c* | M_i for every
    i >= 1 of chain j.  Factors are gathered from one flat table holding the
    gauss_sum_vector row of each (chi*, M) that a live chain reaches, after a
    zero block that every other (chi*, M) points at.
    """
    k = len(q)
    d = np.asarray(chains, dtype=np.int64).reshape(len(chains), k)
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
    acc = np.ones(shape), np.zeros(shape)
    for f in factors:
        acc = _product(acc, (f.real, f.imag))
    return np.where(live[:, :, None], _as_complex(*acc), 0j)


def average_kloosterman_closed_lemma34_table(
    c: int, q: tuple[int, ...], chains, n_values, chars=None
) -> np.ndarray:
    """Lemma 3.4 closed form for every character, divisor chain and n at once.

    complex128[n_chars, n_chains, n_n], characters in enumerate_characters(c)
    order unless `chars` (characters mod c) is given.  Entry [x, j, t] is
    average_kloosterman_closed_lemma34(chars[x], n_values[t], c, q, chains[j]).
    The chains are checked through _chain_moduli.
    """
    if chars is None:
        chars = enumerate_characters(c)
    elif any(chi.modulus != c for chi in chars):
        raise ValueError("chars must be characters mod c")
    mods = _chain_moduli(c, q, chains)
    factors, live = _lemma34_factors(c, q, chains, n_values, chars, mods)
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


def kloosterman_divisor_chains(c: int, q: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every d tuple satisfying the divisibility chain for (c, q), d_i | q_i M_{i-1}.

    Built one layer at a time; each prefix is extended by the divisors of
    q_i M_{i-1} in ascending order, so the list is in lexicographic order.
    """
    level = [((), c)]
    for qi in q:
        level = [(prefix + (d,), qi * m // d) for prefix, m in level for d in divisors(qi * m)]
    return [prefix for prefix, _ in level]
