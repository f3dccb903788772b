"""Truncated Dirichlet series on both sides of the twisted dual identities.

The additive side is one family over the units a mod c, with coefficients
A(...) e(a_bar n / c) in row a; the Gauss-sum side carries the (N-2)-fold
divisor chains with their Gauss-sum products.
Character averaging maps one family of coefficient vectors onto the other
exactly, coefficient by coefficient, and the double-series probe compares the
two expansions a_n(s), b_n(s) of the same two-variable L-quotient.  Nothing
here evaluates a divergent series and calls it a value: every identity check
works on the finite coefficient vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter
from .exponential_sums import (
    _chain_tree,
    _check_gauss_args,
    _layers,
    _lemma34_factors,
    _lemma34_product,
    gauss_sum_vector,
    kloosterman_divisor_chains,
    kloosterman_vector,
    tau,
)
from .hecke import CoefficientSource
from .lfunctions import LValueRequest, _hurwitz_em, dirichlet_l_stored, twisted_l_isobaric
from .numeric import roots_of_unity, stored
from .residues import (
    divisor_count,
    divisors,
    factorize,
    inverse_table,
    mobius,
    mobius_sieve,
    unit_residues,
)

__all__ = [
    "VoronoiInstance",
    "a_n_coefficient",
    "b_n_coefficient",
    "b_n_coefficients",
    "b_n_tail_bound",
    "coefficient_indices",
    "curly_g_coefficients",
    "curly_h_coefficients",
    "g_coefficients",
    "h_coefficients",
    "lq_additive_coefficients",
    "mobius_collapse",
    "parity_gamma",
    "prime_bound",
    "voronoi_rhs_coefficients",
    "z_probe",
    "z_probe_arguments",
    "z_probe_bound",
    "z_probe_with_bound",
]


def _dirichlet_eval(coef: np.ndarray, s) -> complex:
    n = np.arange(1, coef.shape[0], dtype=np.float64)
    return complex(np.sum(coef[1:] * n ** (-complex(s))))


@dataclass(frozen=True)
class VoronoiInstance:
    """One configured side-by-side comparison: coefficients, layers, twist.

    With ``chi_star`` (a primitive character whose conductor divides c) set,
    the instance is the twist by the character mod c that chi_star induces;
    every twisted series reads only chi_star and c.  Without it, the instance
    is the additive family of twists by every unit a mod c.  ``q`` holds the
    N-2 layer sizes, where N is the degree of the coefficient source;
    ``truncation`` is the outer series length X.
    """

    source: CoefficientSource
    q: tuple[int, ...]
    c: int
    chi_star: DirichletCharacter | None = None
    truncation: int = 50

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(int(qi) for qi in self.q))
        if len(self.q) != self.source.degree - 2:
            raise ValueError("need exactly degree-2 layer sizes")
        if any(qi < 1 for qi in self.q):
            raise ValueError("layer sizes must be positive")
        if self.c < 1:
            raise ValueError("modulus must be positive")
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        if self.chi_star is not None:
            _check_gauss_args(self.chi_star, self.c)

    @property
    def degree(self) -> int:
        return self.source.degree

    @property
    def cstar(self) -> int:
        return self.chi_star.modulus


def _require_additive(inst: VoronoiInstance):
    if inst.chi_star is not None:
        raise ValueError("this series needs the additive family (no chi_star)")


def _require_character(inst: VoronoiInstance):
    if inst.chi_star is None:
        raise ValueError("this series needs a character twist chi_star")


def parity_gamma(chi_star: DirichletCharacter, g_plus, g_minus) -> complex:
    """The Gamma-ratio value matched to the twist parity: G+ if even, G- if odd."""
    return complex(g_plus) if chi_star.parity == 1 else complex(g_minus)


# -- additive side -----------------------------------------------------------


def lq_additive_coefficients(inst: VoronoiInstance) -> np.ndarray:
    """complex128[c, X+1]: row a is A(q_{N-2},...,q_1,n) e(a_bar n / c), 0 at non-units."""
    _require_additive(inst)
    c = inst.c
    units = unit_residues(c)
    row = inst.source.coefficient_row(tuple(reversed(inst.q)), (), inst.truncation)
    exps = inverse_table(c)[units, None] * np.arange(inst.truncation + 1)
    out = np.zeros((c, inst.truncation + 1), dtype=complex)
    out[units] = row * roots_of_unity(c)[exps % c]
    return out


# (half_diff, half_sum) = ((G+ - G-)/2, (G+ + G-)/2) at (G+, G-) = (1, 0) and (0, 1)
_GAMMA_PARTS = ((0.5 + 0j, 0.5 + 0j), (-0.5 + 0j, 0.5 + 0j))


def _chain_rows(inst: VoronoiInstance, s: complex, chains, starts):
    """(qpow, rows): the parts both dual sides share, in the bits of a scalar loop.

    qpow is q_1^{-(N-2)s} ... q_{N-2}^{-s}.  rows yields, for each chain d
    (a sequence of Python ints) and its start weight w (a Python complex),
    w d_1^{(N-1)s}/d_1 ... d_{N-2}^{2s}/d_{N-2} times the coefficient row
    A(n, d_{N-2}, ..., d_1), n = 0..X, the weight multiplied left to right.
    """
    n_deg, x = inst.degree, inst.truncation
    qpow = 1 + 0j
    for i, qi in enumerate(inst.q, start=1):
        qpow *= qi ** (-(n_deg - 1 - i) * s)

    def rows():
        for d_vec, weight in zip(chains, starts):
            for i, di in enumerate(d_vec, start=1):
                weight *= di ** ((n_deg - i) * s) / di
            yield weight * inst.source.coefficient_row((), tuple(reversed(d_vec)), x)

    return qpow, rows()


def voronoi_rhs_coefficients(inst: VoronoiInstance, s, leaves: dict) -> np.ndarray:
    """Per-coefficient dual side of the additive identity, basis n^{-(1-s)}.

    complex128[c, 2, X+1]: [a, 0] is the G+ part and [a, 1] the G- part of
    twist a, so G+ [a, 0] + G- [a, 1] is the dual side for Gamma ratios G+-.
    Entry n carries both twisted families:
        (G+ - G-)/2 * Kl(a, n, c; q, d)  and  (G+ + G-)/2 * Kl(a, -n, c; q, d),
    summed over the plain divisor chains d_1 | q_1 c, d_2 | q_2 q_1 c / d_1, ...
    with the layer powers d_i^{(N-i)s} / (d_1...d_{N-2}) and the global factor
    c^{1-Ns} / (q_1^{(N-2)s} ... q_{N-2}^s).  Rows at non-units are zero.
    The kloosterman_vector walk's columns follow kloosterman_divisor_chains;
    ``leaves`` is its caller-owned store, shared by units with one truncation.
    """
    _require_additive(inst)
    s = complex(s)
    n_deg, c, x = inst.degree, inst.c, inst.truncation
    units = unit_residues(c)
    acc = np.zeros((len(units), 2, x + 1), dtype=complex)
    n_range = range(1, x + 1)
    chains = kloosterman_divisor_chains(c, inst.q)
    table = kloosterman_vector([*n_range, *(-n for n in n_range)], c, inst.q, leaves)
    qpow, rows = _chain_rows(inst, s, chains, itertools.repeat(1 + 0j))
    for row, kl in zip(rows, table.transpose(1, 0, 2)):
        for j, (half_diff, half_sum) in enumerate(_GAMMA_PARTS):
            acc[:, j, 1:] += row[1:] * (half_diff * kl[:, :x] + half_sum * kl[:, x:])
    out = np.zeros((c, 2, x + 1), dtype=complex)
    out[units] = acc * (qpow / c ** (n_deg * s - 1))
    return out


# -- Gauss-sum side ----------------------------------------------------------


def h_coefficients(inst: VoronoiInstance) -> np.ndarray:
    """Arithmetic part A(q_{N-2},...,q_1,n) g(chi_bar*, c, n) of the H series.

    The s-dependent scale (c/c*)^{2s-1} is applied by curly_h_coefficients;
    character averaging the additive coefficients lands exactly on this vector.
    """
    _require_character(inst)
    row = inst.source.coefficient_row(tuple(reversed(inst.q)), (), inst.truncation)
    gvec = gauss_sum_vector(inst.chi_star.conjugate(), inst.c)
    idx = np.arange(inst.truncation + 1) % inst.c
    return row * gvec[idx]


def g_coefficients(inst: VoronoiInstance, s, g_value) -> np.ndarray:
    """Per-coefficient dual series with Gauss-sum factors, basis n^{-(1-s)}.

    Entry n is  G chi*(-1) c^{1-Ns} (c/c*)^{2s-1} *
      sum over strengthened chains of
        A(n, d_{N-2},...,d_1) / (d_1...d_{N-2}) * [layer powers] *
        g(chi*, M_0, d_1) ... g(chi*, M_{N-3}, d_{N-2}) * g(chi*, M_{N-2}, n)
    with the same layer powers as the additive dual side.  ``g_value`` is the
    externally supplied Gamma ratio, G+ or G- according to chi*(-1).  The
    Gauss sums are gathered as the closed Lemma 3.4 factors; a chain whose
    layer product is 0 (every chain off the strengthened ones) adds nothing.
    """
    _require_character(inst)
    s = complex(s)
    chi_star = inst.chi_star
    n_deg, c, x = inst.degree, inst.c, inst.truncation
    pref = (
        complex(g_value)
        * chi_star.parity
        / (c ** (n_deg * s - 1) * (c / chi_star.modulus) ** (1 - 2 * s))
    )
    tree = _chain_tree(c, _layers(inst.q))
    factor, live = _lemma34_factors(tree.chains, range(x + 1), (chi_star,), tree.moduli)
    layers = _lemma34_product(map(factor, range(len(inst.q))), live)[0, :, 0]
    keep = layers.nonzero()[0]
    tails = factor(len(inst.q), keep)[0]
    qpow, rows = _chain_rows(inst, s, tree.chains[keep].tolist(), layers[keep].tolist())
    out = np.zeros(x + 1, dtype=complex)
    for row, tail in zip(rows, tails):
        out += row * tail
    return out * (pref * qpow)


# -- the curly wrappers and their Mobius inversion ---------------------------


def _divisor_average(inst: VoronoiInstance, n: int, s, series) -> np.ndarray:
    """Divisor average of series(sub) at index n, the curly H/G wrappers.

    Sums chi*(d_1...d_{N-2}) (d_1...d_{N-2})^{-s} over d_i | q_i and chi*(d)
    over d*l = n of series at layer sizes (q_1 d/d_1, q_2 d_1/d_2, ...) and
    modulus l c*, with the instance's chi_star.
    """
    _require_character(inst)
    s = complex(s)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    vv = chi_star.value_vector
    out = np.zeros(inst.truncation + 1, dtype=complex)
    for d_vec in itertools.product(*(divisors(qi) for qi in inst.q)):
        prod_d = math.prod(d_vec)
        v_outer = vv[prod_d % cstar]
        if v_outer == 0:
            continue
        w_outer = v_outer * prod_d ** (-s)
        for d in divisors(n):
            v_inner = vv[d % cstar]
            if v_inner == 0:
                continue
            ell = n // d
            sub = replace(
                inst,
                q=tuple(qi * p // di for qi, p, di in zip(inst.q, (d,) + d_vec, d_vec)),
                c=ell * cstar,
            )
            out += (w_outer * v_inner) * series(sub)
    return out


def _read_once(store: dict, series, inst: VoronoiInstance, *args) -> np.ndarray:
    """series(inst, *args), evaluated once per (series, inst, *args) in a caller's store."""
    return stored(store, (series, inst, *args), series, inst, *args)


def curly_h_coefficients(inst: VoronoiInstance, n: int, s, store: dict) -> np.ndarray:
    """Divisor-averaged H series (c/c*)^{2s-1} h_coefficients, each read through store."""
    s = complex(s)
    return _divisor_average(
        inst,
        n,
        s,
        lambda sub: _read_once(store, h_coefficients, sub) * (sub.c / sub.cstar) ** (2 * s - 1),
    )


def curly_g_coefficients(inst: VoronoiInstance, n: int, s, g_value, store: dict) -> np.ndarray:
    """Divisor-averaged G series g_coefficients, each read through store."""
    return _divisor_average(
        inst, n, s, lambda sub: _read_once(store, g_coefficients, sub, s, g_value)
    )


def mobius_collapse(family, q: tuple[int, ...], n: int, s, chi_star: DirichletCharacter):
    """Nested Mobius-character sum that inverts the curly divisor averaging.

    Sums mu(e_0) mu(e_1)...mu(e_{N-2}) chi*(e_0 e_1...e_{N-2}) /
    (e_1...e_{N-2})^s over e_0 | n, e_1 | q_1 e_0, ...,
    e_{N-2} | q_{N-2} e_{N-3}, applied to
    family((q_1 e_0/e_1, ..., q_{N-2} e_{N-3}/e_{N-2}), n/e_0).  Note e_0
    carries Mobius and character weight but no power of s, and each e_i
    contributes its own Mobius factor: the weights are what make the change
    of variables a_i = e_i d_i telescope, so terms with non-coprime e_i do
    enter (with product-of-mu weight) rather than being killed.

    The family callable may return scalars or coefficient arrays; results are
    accumulated with ordinary addition.
    """
    s = complex(s)
    cstar = chi_star.modulus
    vv = chi_star.value_vector
    q = tuple(q)
    total = None

    def rec(i: int, e_prev: int, q_acc: tuple[int, ...], mu_acc: int, e_prod: int, e_pow: int):
        nonlocal total
        if i == len(q):
            v = vv[e_prod % cstar]
            if v == 0:
                return
            term = (mu_acc * v * e_pow ** (-s)) * family(q_acc, n // e0)
            total = term if total is None else total + term
            return
        for e in divisors(q[i] * e_prev):
            mu = mobius(e)
            if mu == 0:
                continue
            rec(i + 1, e, q_acc + (q[i] * e_prev // e,), mu_acc * mu, e_prod * e, e_pow * e)

    for e0 in divisors(n):
        mu0 = mobius(e0)
        if mu0 == 0:
            continue
        rec(0, e0, (), mu0, e0, 1)
    return total


# -- the two coefficient families of the double series -----------------------


def a_n_coefficient(inst: VoronoiInstance, n: int, s, l_value) -> complex:
    """Coefficient a_n(s) of the n^{-2w} expansion of the L-quotient.

    For degree >= 3:
        L * sum_{d|n} A(q_{N-2},...,q_1,d) d^s chi_bar*(n/d) mu(n/d) (n/d)^{2s-1}.
    The degree-2 shape has a second Dirichlet-inverse factor in the quotient,
    contributing an extra chi*(k) mu(k) convolution layer.
    """
    _require_character(inst)
    s = complex(s)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    vv_bar = chi_star.value_vector.conjugate()
    vv = chi_star.value_vector
    lead = tuple(reversed(inst.q))
    acc = 0j
    if inst.degree == 2:
        for j in divisors(n):
            a_val = inst.source.coefficient((j,))
            if a_val == 0:
                continue
            for m in divisors(n // j):
                mu_m = mobius(m)
                vm = vv_bar[m % cstar]
                if mu_m == 0 or vm == 0:
                    continue
                k = n // (j * m)
                mu_k = mobius(k)
                vk = vv[k % cstar]
                if mu_k == 0 or vk == 0:
                    continue
                acc += (
                    a_val
                    * j**s
                    * (mu_m * vm) * m ** (2 * s - 1)
                    * (mu_k * vk)
                )
        return complex(l_value) * acc
    for d in divisors(n):
        m = n // d
        mu_m = mobius(m)
        vm = vv_bar[m % cstar]
        if mu_m == 0 or vm == 0:
            continue
        acc += inst.source.coefficient(lead + (d,)) * d**s * (mu_m * vm) * m ** (2 * s - 1)
    return complex(l_value) * acc


def _b_n_layers(q: tuple[int, ...], n: int):
    """(e_1...e_{N-2}, free_ratio, mid, last) for each e_i | q_i, N = len(q) + 2 >= 3:
    b_n reads A at (e_{N-1} free_ratio, *mid, last); slot j <= N-2 holds
    e_{N-j} q_{N-1-j} / e_{N-1-j}.
    """
    n_deg = len(q) + 2
    for e_rest in itertools.product(*(divisors(qi) for qi in q)):
        free_ratio = q[-1] // e_rest[-1]
        mid = tuple(
            e_rest[n_deg - j - 1] * q[n_deg - j - 2] // e_rest[n_deg - j - 2]
            for j in range(2, n_deg - 1)
        )
        yield math.prod(e_rest), free_ratio, mid, e_rest[0] * n


def coefficient_indices(q: tuple[int, ...], n_values) -> set[int]:
    """Every fixed index a_n_coefficient and b_n_coefficients read at layer
    sizes q, over every n in n_values.

    a_n reads A(q_{N-2}, ..., q_1, d) at d | n (A(j) at j | n at degree 2),
    and b_n the rows over e_{N-1} <= Y whose other slots _b_n_layers fixes.
    """
    out = set()
    for n in n_values:
        for d in divisors(n):
            out.update((*q, d))
        if q:
            for _, free_ratio, mid, last in _b_n_layers(q, n):
                out.update((free_ratio, *mid, last))
    return out


def prime_bound(fixed, x: int) -> int:
    """x, or the largest prime factor of a fixed index if that is larger.

    A coefficient row over e <= x whose other slots hold these indices reads
    the source at no prime above it, so a source built to it serves the row.
    """
    return max([x, *(p for v in fixed for p, _ in factorize(v))])


def b_n_coefficients(
    inst: VoronoiInstance, n_values, s, prefactor, y: int, weights: dict
) -> list[complex]:
    """Coefficients b_n(s) of the dual-side n^{-2w} expansion, inner sum to Y,
    one per n in n_values.

    ``prefactor`` is G(s) tau(chi*)^N c*^{-Ns} supplied externally.  For
    degree >= 3:
        prefactor * n^s * sum_{e_{N-1}<=Y} sum_{e_i|q_i}
            chi_bar*(e_1...e_{N-1}) (e_1...e_{N-1})^{s-1}
            A(e_{N-1} q_{N-2}/e_{N-2}, ..., e_2 q_1/e_1, e_1 n).
    Only the last slot of A depends on n, so each layer (e_1, ..., e_{N-2})
    gathers its character values, drops their zeros and weights them by the
    power once, and every n reads one coefficient row against that product.
    The degree-2 path follows the rank-two remark directly,
        prefactor / tau(chi*) * sum_{h<=Y} A(h) h^{s-1} g(chi*, n c*, h);
    one Gauss-sum factor moves inside the h-sum there, so the external
    prefactor convention stays uniform across degrees.

    ``weights`` is a caller-owned store of the n-independent powers
    (e_1...e_{N-1})^{s-1}: key (e_1...e_{N-2}, s, y), value the float64 power
    over e_{N-1} = 1..Y (degree 2 reads key (1, s, y)).  The powers depend on
    neither the source nor the twist, so voronoi-core keeps one store per
    sweep, shared by every unit, and builds each array once.
    """
    _require_character(inst)
    s = complex(s)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    e_free = np.arange(1, y + 1, dtype=np.int64)

    def power(prod_rest: int) -> np.ndarray:
        return stored(
            weights, (prod_rest, s, y), lambda: (prod_rest * e_free).astype(np.float64) ** (s - 1)
        )

    if inst.degree == 2:
        wv = inst.source.coefficient_row((), (), y)[1:] * power(1)
        scale = complex(prefactor) / tau(chi_star)
        out = []
        for n in n_values:
            gvec = gauss_sum_vector(chi_star, n * cstar)
            idx = np.arange(y + 1) % (n * cstar)
            out.append(scale * complex(np.sum(wv * gvec[idx][1:])))
        return out
    vv_bar = chi_star.value_vector.conjugate()
    acc = [0j] * len(n_values)
    # the layers are the same at every n but for the last slot e_1 n
    for layer in zip(*(_b_n_layers(inst.q, n) for n in n_values)):
        prod_rest, free_ratio, mid, _ = layer[0]
        v = vv_bar[(prod_rest * e_free) % cstar]
        keep = v != 0
        wv = v[keep] * power(prod_rest)[keep]
        for i, (*_, last) in enumerate(layer):
            row = inst.source.coefficient_row((), mid + (last,), y, scale=free_ratio)[1:]
            acc[i] += complex(np.sum(wv * row[keep]))
    return [complex(prefactor) * n**s * a for n, a in zip(n_values, acc)]


def b_n_coefficient(inst: VoronoiInstance, n: int, s, prefactor, y: int) -> complex:
    """b_n(s) at the one index n, with a store of its own: see b_n_coefficients."""
    return b_n_coefficients(inst, (n,), s, prefactor, y, {})[0]


@lru_cache(maxsize=64)
def _rankin_grid(t: float) -> tuple:
    """(u, zeta(u)) at the points u of _rankin_tail's minimum, shared by every k.

    zeta(u) = zeta(u, 1) by Euler-Maclaurin in real arithmetic, with the bits
    of the complex route's real part: there the imaginary parts are
    signed zeros and each power of a positive real is its real pow.  At
    integers u <= 101 CPython's complex power multiplies instead, and the
    compensated sums still agree (tests/test_voronoi.py checks each one).
    """
    return tuple((u, _hurwitz_em(float(u), 1.0).real) for u in np.linspace(1.04, t - 0.01, 160))


@lru_cache(maxsize=64)
def _rankin_tail(k: int, t: float, y: int) -> float:
    """Rigorous bound on sum_{m>Y} d_k(m) m^{-t}: min over u of Y^{u-t} zeta(u)^k."""
    if t <= 1.05:
        raise ValueError("tail exponent too close to the divergence line to certify")
    best = math.inf
    for u, zeta_u in _rankin_grid(t):
        best = min(best, y ** (u - t) * zeta_u**k)
    return best


def b_n_tail_bound(inst: VoronoiInstance, n: int, s, prefactor, y: int) -> float:
    """Certified bound on the inner-sum tail dropped by b_n_coefficients.

    Uses |A(m_1,...,m_{N-1})| <= prod_i d_N(m_i), valid for unitary Satake
    data (the coefficient is a sum of unit monomials, so the all-ones value
    dominates), submultiplicativity of d_N, and the Rankin-style bound
    sum_{m>Y} d_N(m) m^{-t} <= min_u Y^{u-t} zeta(u)^N.
    """
    _require_character(inst)
    if inst.source.satake is None:
        raise ValueError("certified tails need unitary Satake-backed coefficients")
    s = complex(s)
    chi_star = inst.chi_star
    n_deg = inst.degree
    sigma = s.real
    t = 1.0 - sigma
    if n_deg == 2:
        # |g(chi*, n c*, h)| <= sqrt(c*) sigma_1(n), uniformly in h
        gauss_cap = math.sqrt(chi_star.modulus) * sum(divisors(n))
        return (
            abs(complex(prefactor))
            / math.sqrt(chi_star.modulus)
            * gauss_cap
            * _rankin_tail(2, t, y)
        )
    rank = _rankin_tail(n_deg, t, y)
    total = 0.0
    for prod_rest, free_ratio, mid, last in _b_n_layers(inst.q, n):
        cap = divisor_count(n_deg, free_ratio) * divisor_count(n_deg, last)
        for m in mid:
            cap *= divisor_count(n_deg, m)
        total += prod_rest ** (sigma - 1.0) * cap
    return abs(complex(prefactor)) * n**sigma * total * rank


# -- the double-series probe -------------------------------------------------


def _quotient_convolution(w: np.ndarray, t: np.ndarray, x: int) -> np.ndarray:
    """S[y] = sum over 1 <= m <= y of w[m] t[y // m], at every y = x // j (0 elsewhere).

    x // (j m) = (x // j) // m, so a double sum over j m <= x reads S[x // j];
    x // j takes about 2 sqrt(x) values, each one array expression over m <= y.
    """
    m = np.arange(1, x + 1)
    out = np.zeros(x + 1, dtype=np.result_type(w, t))
    # each out[y] is independent, so set order moves no bits (and np.unique
    # would import numpy.ma on its first call)
    for y in set((x // m).tolist()):
        out[y] = np.sum(w[1 : y + 1] * t[y // m[:y]])
    return out


def _mobius_character_terms(chi_values: np.ndarray, cstar: int, exponent: complex, x: int) -> np.ndarray:
    """chi(m) mu(m) m^exponent for m = 0..x (index 0 is 0); its cumsum is the prefix."""
    m = np.arange(x + 1, dtype=np.int64)
    coef = mobius_sieve(x) * chi_values[m % cstar]
    keep = np.flatnonzero(coef)
    vals = np.zeros(x + 1, dtype=complex)
    vals[keep] = coef[keep] * m[keep].astype(np.float64) ** exponent
    return vals


def _mobius_series(store: dict, chi: DirichletCharacter, conjugate: bool, exponent: complex, x: int):
    """(terms, prefix): _mobius_character_terms of chi's values, or of their
    conjugates, and its cumsum, each built once in a caller's store.

    The conjugates of chi.value_vector, not the conjugate character's own
    table, whose roots of unity need not be their exact conjugates.
    """
    key = (chi, conjugate, repr(exponent), x)

    def build():
        chi_values = chi.value_vector.conjugate() if conjugate else chi.value_vector
        return _mobius_character_terms(chi_values, chi.modulus, exponent, x)

    terms = stored(store, ("terms", *key), build)
    return terms, stored(store, ("prefix", *key), np.cumsum, terms)


def z_probe_arguments(s, w) -> tuple[complex, complex]:
    """(2w - 2s + 1, 2w), the arguments of the L-values z_probe_with_bound divides by:
    L(2w - 2s + 1, conj chi*), and L(2w, chi*) at degree 2."""
    s, w = complex(s), complex(w)
    return 2 * w - 2 * s + 1, 2 * w


def z_probe_with_bound(
    inst: VoronoiInstance, s, w, x: int, values: dict, series: dict
) -> tuple[complex, complex, float]:
    """(via_l, via_a, bound): two routes to the truncated two-variable
    L-quotient Z(s, w) and a computable bound on |via_l - via_a|, in one pass.

    via_l assembles the quotient from analytic L-values (the plain layered
    series truncated at x, times the twisted L-value, divided by the shifted
    Dirichlet L); via_a is sum_{n<=x} a_n(s) n^{-2w}, accumulated in the
    exactly rearranged divisor order so no coefficient is recomputed.
    Requires an isobaric source so all L-factors are computable.

    Both routes truncate the outer d-sum identically, so the discrepancy is
    exactly sum_d A_d d^{s-2w} (M(x//d) - M(inf)) with M the Mobius-character
    series of exponent 2s-1-2w and M(inf) = 1/L(2w-2s+1, conj chi*).  Each
    factor is bounded by the triangle inequality through the partial sum at
    4x:  |M(T) - M(inf)| <= |S(4x) - S(T)| + |S(4x) - M(inf)|, every term of
    which is computable.  A small cushion absorbs the rounding of the L-value
    and of the comparison itself.  The Mobius-character terms are built once,
    to 4x; via_a reads only their entries up to x.

    ``values`` is the caller's store of L-values (lfunctions.dirichlet_l_stored)
    and ``series`` its store of Mobius-character terms and prefixes
    (_mobius_series); probes at one (s, w) share both.
    """
    _require_character(inst)
    shifts = inst.source.isobaric_shifts
    if shifts is None:
        raise ValueError("the z probe needs an isobaric coefficient source")
    s = complex(s)
    w = complex(w)
    chi_star = inst.chi_star
    row = inst.source.coefficient_row(tuple(reversed(inst.q)), (), x)
    den_arg, k_arg = z_probe_arguments(s, w)
    l_twist = twisted_l_isobaric(LValueRequest(s, chi_star, shifts), values)
    l_den = dirichlet_l_stored(values, den_arg, chi_star.conjugate())
    via_l = _dirichlet_eval(row, 2 * w - s) * l_twist / l_den
    d_arr = np.arange(1, x + 1, dtype=np.float64)
    tail_idx = x // np.arange(1, x + 1)
    m_terms, m_prefix = _mobius_series(series, chi_star, True, 2 * s - 1 - 2 * w, 4 * x)
    m_inf = 1 / l_den
    anchor = abs(m_prefix[4 * x] - m_inf) + 1e-12 * (1 + abs(m_inf))
    m_err = np.abs(m_prefix[4 * x] - m_prefix[tail_idx]) + anchor
    if inst.degree == 2:
        l_k = dirichlet_l_stored(values, k_arg, chi_star)
        via_l /= l_k
        k_prefix = _mobius_series(series, chi_star, False, -2 * w, 4 * x)[1]
        # _quotient_convolution reads its arrays only up to index x
        inner = _quotient_convolution(m_terms, k_prefix, x)
        k_inf = 1 / l_k
        k_anchor = abs(k_prefix[4 * x] - k_inf) + 1e-12 * (1 + abs(k_inf))
        # |chi(m) mu(m) m^(2s-1-2w)| for m <= x, zero where mu chi vanishes
        m_abs = np.zeros(x + 1)
        keep = np.flatnonzero(m_terms[: x + 1])
        m_abs[keep] = keep.astype(np.float64) ** (2 * s.real - 1 - 2 * w.real)
        k_err = np.abs(k_prefix[4 * x] - k_prefix[: x + 1]) + k_anchor
        m_err = _quotient_convolution(m_abs, k_err, x)[tail_idx] + abs(k_inf) * m_err
    else:
        inner = m_prefix
    via_a = l_twist * complex(np.sum(row[1:] * d_arr ** (s - 2 * w) * inner[tail_idx]))
    d_pow = d_arr ** (s.real - 2 * w.real)
    bound = float(abs(l_twist) * np.sum(np.abs(row)[1:] * d_pow * m_err) + 1e-12)
    return via_l, via_a, bound


def z_probe(inst: VoronoiInstance, s, w, x: int) -> tuple[complex, complex]:
    """(via_l, via_a) of z_probe_with_bound, with stores of its own."""
    return z_probe_with_bound(inst, s, w, x, {}, {})[:2]


def z_probe_bound(inst: VoronoiInstance, s, w, x: int) -> float:
    """The bound on |via_l - via_a| of z_probe_with_bound, with stores of its own."""
    return z_probe_with_bound(inst, s, w, x, {}, {})[2]
