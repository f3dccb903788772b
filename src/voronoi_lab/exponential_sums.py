"""Gauss sums, Kloosterman and hyper-Kloosterman sums, and their closed forms.

Everything here is a finite sum over reduced residues, evaluated in float64
from shared root-of-unity tables, or by one FFT for a table of Gauss sums.  The
closed forms (divisor-sum and vanishing expressions for non-primitive Gauss
sums, the Gauss-sum product for character-averaged hyper-Kloosterman sums)
are kept as separate entry points so sweeps can compare both routes; none of
them is ever substituted for the direct summation it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np
from numpy.fft import ifft

from ._kernels import kl_layer
from .characters import DirichletCharacter, enumerate_characters, primitive_characters
from .numeric import roots_of_unity, split_product, stored
from .residues import (
    carmichael,
    divisors,
    euler_phi,
    inverse_table,
    mobius_sieve,
    unit_residues,
)


# ---------------------------------------------------------------------------
# Gauss sums


def _check_gauss_args(chi_star: DirichletCharacter, c: int) -> None:
    """g(chi*, c, m) needs a primitive chi* whose conductor divides c."""
    if not chi_star.is_primitive:
        raise ValueError("chi_star must be primitive")
    if c < 1 or c % chi_star.modulus != 0:
        raise ValueError(f"conductor {chi_star.modulus} must divide c = {c}")


def gauss_sum_tables(cstar: int, cs) -> Iterator[np.ndarray]:
    """gauss_sum_rows(cstar, c) for each c in cs in turn, uncached.

    Each table is built when it is asked for and none is kept after the
    next: the turn tables are read once per call, and the character values at
    each distinct lambda(c) are gathered from the root table once.
    """
    chars = primitive_characters(cstar)
    # [len(chars), c*], also when c* = 2 mod 4 leaves no character
    turns = np.array([chi.turn_table for chi in chars], dtype=np.int64).reshape(len(chars), cstar)
    lam_star = carmichael(cstar)
    at_lambda = {}  # lambda(c) -> chi*(r) for r < c*, as entries of roots_of_unity(lambda(c))
    for c in cs:
        if c < 1 or c % cstar != 0:
            raise ValueError(f"{cstar} does not divide {c}")
        m = carmichael(c)
        # entries at non-units r read a valid index and are never gathered
        at = stored(at_lambda, m, lambda: roots_of_unity(m)[turns * (m // lam_star) % m])
        units = unit_residues(c)
        values = np.zeros((len(chars), c), dtype=np.complex128)
        values[:, units] = at[:, units % cstar]
        rows = ifft(values, norm="forward", axis=-1)
        del values
        rows.setflags(write=False)
        yield rows


def gauss_sum_rows(cstar: int, c: int) -> np.ndarray:
    """Read-only complex128[len(primitive_characters(cstar)), c] of g(chi*, c, m), uncached.

    Row i holds g(chi*, c, m) for m = 0..c-1 at the i-th primitive character
    chi* of conductor cstar.  g(chi*, c, m) = sum over u mod c of chi(u)
    e(mu/c) is the unscaled inverse DFT of the induced character's value
    vector (zero off the units), so the table is one FFT along its rows;
    per-entry rounding is within sum_error_bound(phi(c), 1).

    The value vectors are read off the turn tables; no character mod c is built:
    chi*(u) = e(k/m*) with k = turn_table[u mod c*] and m* = lambda(c*),
    which divides m_c = lambda(c).  So at a unit u mod c the induced character
    is entry k m_c/m* mod m_c of roots_of_unity(m_c), the entry its own
    value_vector reads, and every row has the bits of the induced FFT.  The
    one table of gauss_sum_tables(cstar, [c]).
    """
    return next(gauss_sum_tables(cstar, (c,)))


@lru_cache(maxsize=None)
def gauss_sum_vector(chi_star: DirichletCharacter, c: int) -> np.ndarray:
    """Read-only complex128[c] of g(chi*, c, m) for m = 0..c-1: chi*'s row of gauss_sum_rows.

    The cache keeps a copy of the row, not a view, so it holds no row of
    another character.
    """
    cstar = chi_star.modulus
    if c % cstar != 0:
        raise ValueError(f"{cstar} does not divide {c}")
    if not chi_star.is_primitive:
        raise ValueError("chi_star must be primitive")
    row = gauss_sum_rows(cstar, c)[primitive_characters(cstar).index(chi_star)].copy()
    row.setflags(write=False)
    return row


def tau(chi_star: DirichletCharacter) -> complex:
    """The standard Gauss sum of a primitive character: g(chi*, c*, 1)."""
    return complex(gauss_sum_vector(chi_star, chi_star.modulus)[1 % chi_star.modulus])


def _taus(chars) -> np.ndarray:
    """complex128[len(chars)] of tau(chi*) at primitive characters of one conductor c*.

    Column 1 % c* of the one table gauss_sum_rows(c*, c*), the entries tau
    reads one character at a time.
    """
    cstar = chars[0].modulus
    index = primitive_characters(cstar).index
    return gauss_sum_rows(cstar, cstar)[[index(chi) for chi in chars], 1 % cstar]


def _as_complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _closed_form_inputs(chars, cs, m_values):
    """Shared set-up of the Lemma 2.2/2.3 rows of the primitive characters chars.

    Returns (cstar, c, m, chi, chi_bar, tau): cstar the one conductor of
    chars; c the int64 array of cs; m_values reduced mod each c as Python
    ints, int64[len(cs), len(m_values)] (both closed forms read m only
    through gcds with divisors of c and through (m/d) mod c* with c* | c/d,
    so the reduction changes no index); the (re, im) tables
    float64[len(chars), c*] of chi*(r) and conj(chi*)(r) for r < c*, each
    entry read once through the exact scalar evaluation; and the (re, im)
    parts of tau(chi*), float64[len(chars)].  _lemma22_rows and
    _lemma23_rows both read it, so a caller of both builds it once.
    """
    chars = tuple(chars)
    if not chars or any(chi.modulus != chars[0].modulus for chi in chars):
        raise ValueError("need a nonempty tuple of characters of one conductor")
    for chi in chars:
        for modulus in cs:
            _check_gauss_args(chi, modulus)
    cstar = chars[0].modulus
    c = np.array(cs, dtype=np.int64)
    m = (np.array(m_values, dtype=object)[None, :] % c[:, None]).astype(np.int64)
    tables = []
    for group in (chars, [chi.conjugate() for chi in chars]):
        vals = np.array([[ch(r) for r in range(cstar)] for ch in group], dtype=np.complex128)
        tables.append((vals.real, vals.imag))
    t = _taus(chars)
    return cstar, c, m, tables[0], tables[1], (t.real, t.imag)


# Lemma 2.2 terms are gathered and added in chunks of about this many
# (character, hit) entries, so its temporaries stay near 1 MB at any box.
_LEMMA22_CHUNK = 1 << 14


def _lemma22_rows(inputs) -> np.ndarray:
    """gauss_sum_closed_lemma22_rows from _closed_form_inputs.

    The hits (d, c, m) with d | (m, c/c*) and mu(c/(c* d)) != 0 are
    collected d by d in ascending order, each d's as the moduli it divides
    times the m it divides; their terms are computed a chunk of consecutive
    d at a time and added with np.add.at, which adds in index order, so
    every entry sums its divisors in ascending order.
    """
    cstar, c, m, (cr, ci), (br, bi), (tr, ti) = inputs
    ratio = c // cstar
    mu_table = mobius_sieve(int(ratio.max(initial=1))).astype(np.int64)
    acc_re = np.zeros((len(tr), m.size))
    acc_im = np.zeros((len(tr), m.size))
    flat_m = m.ravel()

    def flush(parts):
        flat, d = (np.concatenate(a) for a in zip(*parts))
        cofactor = ratio[flat // m.shape[1]] // d  # c/(c* d)
        k = flat_m[flat] // d % cstar
        r = cofactor % cstar
        term = split_product((cr[:, r], ci[:, r]), (br[:, k], bi[:, k]))
        re, im = split_product(((mu_table[cofactor] * d).astype(np.float64), 0.0), term)
        np.add.at(acc_re, (slice(None), flat), re)
        np.add.at(acc_im, (slice(None), flat), im)

    parts, pending = [], 0
    for d in sorted(set().union(*(divisors(x) for x in set(ratio.tolist())))):
        live = np.flatnonzero((ratio % d == 0) & (mu_table[ratio // d] != 0))
        if not len(live):
            continue
        # d divides every live c, so every live row of m, reduced mod its c,
        # holds the multiples of d in the same columns
        cols = np.flatnonzero(m[live[0]] % d == 0)
        if not len(cols):
            continue
        flat = (live[:, None] * m.shape[1] + cols).ravel()
        parts.append((flat, np.full(len(flat), d, dtype=np.int64)))
        pending += len(flat) * len(tr)
        if pending >= _LEMMA22_CHUNK:
            flush(parts)
            parts, pending = [], 0
    if parts:
        flush(parts)
    tau_pair = tr[:, None], ti[:, None]
    return _as_complex(*split_product(tau_pair, (acc_re, acc_im))).reshape(len(tr), *m.shape)


def _lemma23_rows(inputs) -> np.ndarray:
    """gauss_sum_closed_lemma23_rows from _closed_form_inputs."""
    cstar, c, a, (cr, ci), (br, bi), (tr, ti) = inputs
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
    term = split_product((cr[:, r], ci[:, r]), (br[:, k], bi[:, k]))
    re, im = split_product((tr[:, None], ti[:, None]), split_product((scale, 0.0), term))
    out = np.zeros((len(tr), *a.shape), dtype=np.complex128)
    out[:, live] = _as_complex(re, im)
    return out


def gauss_sum_closed_lemma22_rows(chars, cs, m_values) -> np.ndarray:
    """complex128[len(chars), len(cs), len(m_values)] of the Lemma 2.2 closed form.

    chars is a tuple of primitive characters of one conductor c*.  Entry
    [x, i, j] is tau(chi*) * sum over d | (m, c/c*) of
    d chi*(c/(c* d)) conj(chi*)(m/d) mu(c/(c* d)) at chi* = chars[x],
    c = cs[i], m = m_values[j].  The divisors d are visited in ascending
    order and each term is added at the (c, m) it divides, so every entry is
    summed in the order of the scalar loop over the divisors of (m, c/c*).
    """
    return _lemma22_rows(_closed_form_inputs(chars, cs, m_values))


def gauss_sum_closed_lemma23_rows(chars, cs, m_values) -> np.ndarray:
    """complex128[len(chars), len(cs), len(m_values)] of the Lemma 2.3 closed form.

    chars is a tuple of primitive characters of one conductor c*.  Entry
    [x, i, j] at chi* = chars[x], c = cs[i], a = m_values[j] is zero unless
    c* | c/(c,a); otherwise
    tau(chi*) phi(c)/phi(c/(c,a)) mu(c/(c* (c,a))) chi*(c/(c* (c,a))) conj(chi*)(a/(c,a)).
    """
    return _lemma23_rows(_closed_form_inputs(chars, cs, m_values))


def gauss_sum_closed_lemma22(chi_star: DirichletCharacter, c: int, m: int) -> complex:
    """Divisor-sum closed form of g(chi*, c, m); one point of gauss_sum_closed_lemma22_rows."""
    return complex(gauss_sum_closed_lemma22_rows((chi_star,), [c], [m])[0, 0, 0])


def gauss_sum_closed_lemma23(chi_star: DirichletCharacter, c: int, m: int) -> complex:
    """Vanishing/totient closed form of g(chi*, c, a); one point of gauss_sum_closed_lemma23_rows."""
    return complex(gauss_sum_closed_lemma23_rows((chi_star,), [c], [m])[0, 0, 0])


# ---------------------------------------------------------------------------
# Kloosterman sums


def _layers(q) -> tuple[tuple[int, ...], ...]:
    """The layers of q as tuples of choices; an int entry is a layer with one choice."""
    layers = tuple((int(x),) if isinstance(x, (int, np.integer)) else tuple(map(int, x)) for x in q)
    if any(not layer for layer in layers):
        raise ValueError("q layers must not be empty")
    if any(x < 1 for layer in layers for x in layer):
        raise ValueError("q entries must be positive")
    return layers


@dataclass(frozen=True)
class _ChainTree:
    first: tuple[np.ndarray, ...]
    blocks: tuple[tuple[tuple[int, ...], slice], ...]
    chains: np.ndarray
    moduli: np.ndarray


@lru_cache(maxsize=4)
def _chain_tree(c: int, layers: tuple[tuple[int, ...], ...]) -> _ChainTree:
    """Every divisor chain of c through the layers, as one tree.

    layers is _layers(q): each layer a tuple of its choices.  A node at depth
    i is a prefix (q_1..q_i; d_1..d_i), q_j a choice of layer j and
    d_j | q_j M_{j-1}, with M_0 = c and M_j = q_j M_{j-1} / d_j.  The nodes of
    a depth are ranked in lexicographic (q_1..q_i, d_1..d_i) order, a choice
    ranking by its place in its layer.  So the children of a node through a
    choice q_{i+1}, its extensions by the d | q_{i+1} M_i in ascending order,
    hold consecutive ranks, and the leaves at depth K, the chains, are those
    of each q' of itertools.product(*layers) one block after another, each
    block in lexicographic d order.  Every direct and closed Kloosterman
    column and every chain of the additive dual side is numbered this way.

    first[i][j, r] is the rank of the first child of the r-th node of depth i
    through layers[i][j], recorded as the children are appended.  blocks
    lists (q', slice of its chains).  chains is int64[n_chains, K], each
    chain's d, and moduli is int64[n_chains, K+1], its M_0..M_K, both
    gathered along the parent pointers.  Every array is read-only, and the
    last few trees are kept, so the readers of one unit build it once.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    prefixes, starts = [()], [0, 1]  # each q-prefix of a depth and its first rank
    mods = [c]  # M of each node of the depth
    levels, first = [], []  # parent, d and M of every node below the root
    for layer in layers:
        kids = np.empty((len(layer), len(mods)), dtype=np.int64)
        parent, qm, dv, kid_prefixes, kid_starts = [], [], [], [], [0]  # qm: q_{i+1} M_i
        for prefix, lo, hi in zip(prefixes, starts, starts[1:]):
            for j, qi in enumerate(layer):
                for r in range(lo, hi):
                    kids[j, r] = len(dv)
                    ds = divisors(qi * mods[r])
                    dv += ds
                    parent += [r] * len(ds)
                    qm += [qi * mods[r]] * len(ds)
                kid_prefixes.append(prefix + (qi,))
                kid_starts.append(len(dv))
        parent, dv = np.array(parent, dtype=np.int64), np.array(dv, dtype=np.int64)
        m = np.array(qm, dtype=np.int64) // dv
        levels.append((parent, dv, m))
        first.append(kids)
        prefixes, starts, mods = kid_prefixes, kid_starts, m.tolist()

    n, k = len(mods), len(layers)
    chains = np.empty((n, k), dtype=np.int64)
    moduli = np.full((n, k + 1), c, dtype=np.int64)
    node = np.arange(n)
    for i in range(k, 0, -1):
        parent, dv, m = levels[i - 1]
        chains[:, i - 1], moduli[:, i] = dv[node], m[node]
        node = parent[node]
    for arr in (*first, chains, moduli):
        arr.flags.writeable = False
    blocks = tuple((p, slice(lo, hi)) for p, lo, hi in zip(prefixes, starts, starts[1:]))
    return _ChainTree(tuple(first), blocks, chains, moduli)


def _leaf_table(n_values: tuple, m_prev: int, q_k: int, d_k: int) -> np.ndarray:
    """The innermost layer of a chain, at the residues where the walk keeps L.

    complex128[phi(M_{K-1}), len(n_values)]: entry [s, t] = sum over the units
    x mod M_K of e(d_K x r_s / M_{K-1}) e(n_t x^-1 / M_K), M_K = q_K M_{K-1} /
    d_K, from one kl_layer call, with r_s the inverse of the s-th unit mod
    M_{K-1}.  q_k = 0 stands for a chain with no layer, whose table is
    e(r_s n_t / M_0).  The walk reads its chains from _chain_tree, so nothing
    is checked.
    """
    m = q_k * m_prev // d_k if q_k else m_prev
    r = np.array([n % m for n in n_values], dtype=np.int64)
    table = roots_of_unity(m)[np.arange(m, dtype=np.int64)[:, None] * r[None, :] % m]
    if q_k:
        units = unit_residues(m)
        table = kl_layer(
            units, inverse_table(m)[units], d_k, m_prev, roots_of_unity(m_prev), table
        )
    return table[inverse_table(m_prev)[unit_residues(m_prev)]]


def kloosterman_vector(n_values, c: int, q, leaves: dict) -> np.ndarray:
    """Direct hyper-Kloosterman sums of every unit, divisor chain and n at once.

    complex128[phi(c), n_chains, n_n]: [i, j, t] = Kl(a, n_values[t], c; q', d)
    at a = unit_residues(c)[i], with (q', d) the j-th chain of _chain_tree:
    q is a sequence of layers, each an int or a tuple of ints, its choices for
    that layer.  An all-int q is the chains of kloosterman_divisor_chains(c, q).
    Kl reads n only mod M_K, reduced as a Python int, so any int n is exact.

    The walk goes down the chain tree one depth at a time.  L starts as the
    identity on the units mod M_0; the edge (q_i, d_i) maps L to the function
    on Z/M_i, M_i = q_i M_{i-1} / d_i, that is sum over r of L[r] e(d_i y r /
    M_{i-1}) at y^-1 for the units y mod M_i and zero elsewhere.  Every L is
    kept at the inverses of the units mod its modulus, so the nodes of one
    depth with the same modulus share their edges: their L blocks are stacked
    and multiplied once per edge.  At depth K-1 the stack of each M_{K-1} goes
    through one product with the side-by-side _leaf_table tables of its
    leaves (q_K, d_K), the chains' innermost layers.  Those tables depend only
    on (n_values, M_{K-1}, q_K, d_K), the key they are kept under in
    `leaves`, so a caller may pass one dict to every call of a sweep.
    """
    layers = _layers(q)
    tree = _chain_tree(c, layers)
    units = unit_residues(c)
    n_rows, n_n, n_values = len(units), len(n_values), tuple(n_values)

    def leaf(*key):
        return stored(leaves, key, _leaf_table, *key)

    # row i of the root's L is 1 at a = units[i]
    eye = (units[:, None] == inverse_table(c)[units][None, :]).astype(np.complex128)
    if not layers:  # the root is the one chain; its table is e(a n / c)
        return (eye @ leaf(n_values, c, 0, 0))[:, None]

    # stacks[M] is the L of every node of modulus M at this depth,
    # [nodes, n_rows, phi(M)] at inverse_table(M)[unit_residues(M)], and
    # ranks[M] their ranks in the tree
    stacks, ranks = {c: eye[None]}, {c: np.zeros(1, dtype=np.int64)}
    for layer, first in zip(layers[:-1], tree.first):
        parts = {}  # child modulus -> [(L block, ranks)]
        for m_prev, src in stacks.items():
            at = inverse_table(m_prev)[unit_residues(m_prev)]
            flat = src.reshape(-1, src.shape[2])
            for j, qi in enumerate(layer):
                kid = first[j, ranks[m_prev]]
                for k, d_i in enumerate(divisors(qi * m_prev)):
                    m = qi * m_prev // d_i
                    base = (d_i % m_prev) * unit_residues(m) % m_prev
                    w = roots_of_unity(m_prev)[at[:, None] * base[None, :] % m_prev]
                    block = (flat @ w).reshape(len(src), n_rows, w.shape[1])
                    parts.setdefault(m, []).append((block, kid + k))
        stacks = {m: np.concatenate([b for b, _ in p]) for m, p in parts.items()}
        ranks = {m: np.concatenate([r for _, r in p]) for m, p in parts.items()}

    first = tree.first[-1]
    # each M_{K-1}'s leaves (q_K, d_K) and each of its nodes' leaf columns.
    # Every leaf table is built before the output is allocated, because
    # kl_layer's transient index arrays are the walk's largest.
    tails = {m_prev: [] for m_prev in stacks}
    cols = {m_prev: [] for m_prev in stacks}
    for m_prev in stacks:
        for j, q_k in enumerate(layers[-1]):
            ds = divisors(q_k * m_prev)
            tails[m_prev] += [leaf(n_values, m_prev, q_k, d) for d in ds]
            cols[m_prev].append(first[j, ranks[m_prev]][:, None] + np.arange(len(ds)))
    out = np.empty((n_rows, len(tree.chains), n_n), dtype=np.complex128)
    for m_prev, stack in stacks.items():
        prod = stack.reshape(-1, stack.shape[2]) @ np.concatenate(tails[m_prev], 1)
        prod = prod.reshape(len(stack), n_rows, len(tails[m_prev]), n_n)
        out[:, np.concatenate(cols[m_prev], 1)] = prod.transpose(1, 0, 2, 3)
    return out


def _lemma34_factors(chains, n_values, stars, mods):
    """Gauss-sum factors of the Lemma 3.4 product and its non-vanishing mask.

    chains is int64[n_chains, K] and mods int64[n_chains, K+1], their moduli
    M_0..M_K; stars are primitive characters chi*.  Returns (factor, live):
    factor(i, rows) gathers, for the chains picked by rows (default all),
    g(chi*, M_i, d_{i+1}) for i < K and g(chi*, M_K, n) for i = K, each
    complex128 and broadcastable to [n_stars, n_rows, n_n]; live[x, j] is
    True when c* | M_i for every i >= 1 of chain j.  Factors are gathered
    from one flat table holding the gauss_sum_vector row of each (chi*, M)
    that a live chain reaches, after a zero block that every other (chi*, M)
    points at.
    """
    k = chains.shape[1]
    # n enters only mod M_K; reducing by their lcm first keeps any int in int64
    lcm_k = math.lcm(*mods[:, k].tolist())
    n_arr = np.array([n % lcm_k for n in n_values], dtype=np.int64)
    cstar = np.array([s.modulus for s in stars], dtype=np.int64)
    live = (mods[None, :, 1:] % cstar[:, None, None] == 0).all(axis=2)

    top = int(mods.max())
    offsets = np.zeros((len(stars), top + 1), dtype=np.int64)  # [chi*, M]
    rows, size = [np.zeros(top, dtype=np.complex128)], top
    for s, star in enumerate(stars):
        for m in sorted(set(mods[live[s]].ravel().tolist())):
            offsets[s, m] = size
            rows.append(gauss_sum_vector(star, m))
            size += m
    table = np.concatenate(rows)

    def factor(i, rows=slice(None)):
        m = mods[rows, i]
        if i < k:
            return table[offsets[:, m] + chains[rows, i] % m][:, :, None]
        return table[offsets[:, m, None] + n_arr[None, :] % m[:, None]]

    return factor, live


def _lemma34_product(factors, live) -> np.ndarray:
    """complex128 product (1+0j) * f_0 * ... * f_K, zeroed where not live.

    Real and imaginary parts are multiplied as separate float arrays, in the
    order of Python's complex product, so every entry has the bits of the
    left-to-right scalar product.  The partial product starts as ones of
    live's shape and one n column, so it takes the n axis only at the last
    factor, and broadcasts as it goes.
    """
    acc = np.ones(live.shape + (1,)), np.zeros(live.shape + (1,))
    for f in factors:
        acc = split_product(acc, (f.real, f.imag))
    out = _as_complex(*acc)
    out[~live] = 0
    return out


def average_kloosterman_closed_lemma34_table(c: int, q, n_values) -> np.ndarray:
    """Lemma 3.4 closed form for every character, divisor chain and n at once.

    complex128[n_chars, n_chains, n_n] over enumerate_characters(c) and the
    chains of _chain_tree, kloosterman_vector's columns: q is a sequence of
    layers, each an int or a tuple of ints.  Entry [x, j, t] is
    average_kloosterman_closed_lemma34(chars[x], n_values[t], c, q', chains[j]).
    Every chain carries its own moduli, and the factors and their product are
    elementwise, so an entry has the same bits in a batched table as in the
    table of its q'.
    """
    tree = _chain_tree(c, _layers(q))
    stars = [chi.primitive() for chi in enumerate_characters(c)]
    factor, live = _lemma34_factors(tree.chains, n_values, stars, tree.moduli)
    return _lemma34_product(map(factor, range(tree.moduli.shape[1])), live)


def average_kloosterman_closed_lemma34(
    chi: DirichletCharacter, n: int, c: int, q: tuple[int, ...], d: tuple[int, ...]
) -> complex:
    """Gauss-sum product closed form of the character-averaged hyper-Kloosterman sum.

    Zero unless d_i c* divides q_i M_{i-1} for every i (equivalently c* | M_i
    for i >= 1); otherwise the product g(chi*, M_0, d_1) g(chi*, M_1, d_2)
    ... g(chi*, M_{K-1}, d_K) g(chi*, M_K, n).  One entry of
    average_kloosterman_closed_lemma34_table.
    """
    if chi.modulus != c:
        raise ValueError("chi must be a character mod c")
    chains = kloosterman_divisor_chains(c, q)
    if tuple(d) not in chains:
        raise ValueError(f"d = {tuple(d)} is not a divisor chain of c = {c}, q = {tuple(q)}")
    table = average_kloosterman_closed_lemma34_table(c, q, [n])
    return complex(table[enumerate_characters(c).index(chi), chains.index(tuple(d)), 0])


def kloosterman_divisor_chains(c: int, q: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every d tuple satisfying the divisibility chain for (c, q), d_i | q_i M_{i-1}.

    The chains of _chain_tree, in lexicographic order, as tuples of Python
    ints: voronoi_rhs_coefficients takes its chain weights' powers of them,
    and numpy's powers would round differently.
    """
    return list(map(tuple, _chain_tree(c, _layers(q)).chains.tolist()))
