"""Truncated Dirichlet series on both sides of the twisted dual identities.

The additive side carries coefficients A(...) e(a_bar n / c); the Gauss-sum
side carries the (N-2)-fold divisor chains with their Gauss-sum products.
Character averaging maps one family of coefficient vectors onto the other
exactly, coefficient by coefficient, and the double-series probe compares the
two expansions a_n(s), b_n(s) of the same two-variable L-quotient.  Nothing
here evaluates a divergent series and calls it a value: scalar evaluations
are offered for convergent-region use, while every identity check works on
the finite coefficient vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .characters import DirichletCharacter, conductor, induce
from .exponential_sums import (
    gauss_sum,
    gauss_sum_vector,
    kloosterman_divisor_chains,
    kloosterman_vector,
    tau,
)
from .hecke import CoefficientSource
from .lfunctions import LValueRequest, dirichlet_l, hurwitz_zeta, twisted_l_isobaric
from .numeric import roots_of_unity
from .residues import divisor_count, divisors, mobius

__all__ = [
    "TruncatedDirichletSeries",
    "VoronoiInstance",
    "a_n_coefficient",
    "b_n_coefficient",
    "b_n_tail_bound",
    "curly_g",
    "curly_g_coefficients",
    "curly_h",
    "curly_h_coefficients",
    "g_coefficients",
    "g_series",
    "h_coefficients",
    "h_series",
    "lq_additive",
    "lq_additive_coefficients",
    "mobius_collapse",
    "parity_gamma",
    "voronoi_rhs_additive",
    "voronoi_rhs_coefficients",
    "z_probe",
    "z_probe_bound",
]


class TruncatedDirichletSeries:
    """Finite Dirichlet polynomial sum_{n<=X} c_n n^{-s}, stored by coefficient.

    Arithmetic keeps the truncation honest: combining two series truncates to
    the shorter one, since coefficients beyond either X are unknown rather
    than zero.  Querying a coefficient beyond X returns 0 (the polynomial
    reading), which is what the min-X arithmetic relies on.
    """

    __slots__ = ("_coef",)

    def __init__(self, coefficients):
        arr = np.array(coefficients, dtype=complex)
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise ValueError("need a 1-d coefficient array covering n = 1..X")
        arr[0] = 0
        arr.flags.writeable = False
        self._coef = arr

    @classmethod
    def from_dict(cls, mapping, truncation: int) -> "TruncatedDirichletSeries":
        arr = np.zeros(truncation + 1, dtype=complex)
        for n, value in mapping.items():
            if not 1 <= n <= truncation:
                raise ValueError(f"coefficient index {n} outside 1..{truncation}")
            arr[n] = value
        return cls(arr)

    @property
    def truncation(self) -> int:
        return self._coef.shape[0] - 1

    def coefficient(self, n: int) -> complex:
        if n < 1:
            raise ValueError("Dirichlet coefficients are indexed from 1")
        if n > self.truncation:
            return 0j
        return complex(self._coef[n])

    def as_array(self) -> np.ndarray:
        return self._coef

    def evaluate(self, s) -> complex:
        return _dirichlet_eval(self._coef, s)

    def __add__(self, other):
        if not isinstance(other, TruncatedDirichletSeries):
            return NotImplemented
        x = min(self.truncation, other.truncation)
        return TruncatedDirichletSeries(self._coef[: x + 1] + other._coef[: x + 1])

    def __sub__(self, other):
        if not isinstance(other, TruncatedDirichletSeries):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, scalar):
        if isinstance(scalar, TruncatedDirichletSeries):
            return NotImplemented
        return TruncatedDirichletSeries(self._coef * complex(scalar))

    __rmul__ = __mul__

    def max_abs_difference(self, other: "TruncatedDirichletSeries") -> float:
        x = min(self.truncation, other.truncation)
        return float(np.max(np.abs(self._coef[: x + 1] - other._coef[: x + 1])))


def _dirichlet_eval(coef: np.ndarray, s) -> complex:
    n = np.arange(1, coef.shape[0], dtype=np.float64)
    return complex(np.sum(coef[1:] * n ** (-complex(s))))


@dataclass(frozen=True)
class VoronoiInstance:
    """One configured side-by-side comparison: coefficients, layers, twist.

    Exactly one of ``chi`` (a character mod c) or ``a`` (an additive twist
    with gcd(a, c) = 1) is set.  ``q`` holds the N-2 layer sizes, where N is
    the degree of the coefficient source; ``truncation`` is the outer series
    length X.
    """

    source: CoefficientSource
    q: tuple[int, ...]
    c: int
    chi: DirichletCharacter | None = None
    a: int | None = None
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
        if (self.chi is None) == (self.a is None):
            raise ValueError("set exactly one of chi (character) or a (additive)")
        if self.chi is not None:
            if self.chi.modulus != self.c:
                raise ValueError("character modulus must equal c")
        else:
            a = self.a % self.c
            if math.gcd(a, self.c) != 1:
                raise ValueError("additive twist needs gcd(a, c) = 1")
            object.__setattr__(self, "a", a)

    @property
    def degree(self) -> int:
        return self.source.degree

    @property
    def is_additive(self) -> bool:
        return self.a is not None

    @cached_property
    def abar(self) -> int:
        """Inverse of the additive twist mod c, computed once."""
        if self.a is None:
            raise ValueError("abar is only defined for additive instances")
        return pow(self.a, -1, self.c) if self.c > 1 else 0

    @cached_property
    def chi_star(self) -> DirichletCharacter:
        if self.chi is None:
            raise ValueError("chi_star is only defined for character instances")
        return conductor(self.chi)[1]

    @property
    def cstar(self) -> int:
        return self.chi_star.modulus


def _require_additive(inst: VoronoiInstance):
    if not inst.is_additive:
        raise ValueError("this series needs an additive twist (a, c)")


def _require_character(inst: VoronoiInstance):
    if inst.is_additive:
        raise ValueError("this series needs a character twist chi mod c")


@lru_cache(maxsize=None)
def _induced(chi_star: DirichletCharacter, c: int) -> DirichletCharacter:
    return induce(chi_star, c)


def _coefficient_row(
    source: CoefficientSource,
    prefix: tuple[int, ...],
    suffix: tuple[int, ...],
    x: int,
) -> np.ndarray:
    """A(prefix, n, suffix) for n = 1..x, cached per source."""
    key = (prefix, suffix, x)
    row = source._row_cache.get(key)
    if row is None:
        row = np.zeros(x + 1, dtype=complex)
        for n in range(1, x + 1):
            row[n] = source.coefficient(prefix + (n,) + suffix)
        row.flags.writeable = False
        source._row_cache[key] = row
    return row


def parity_gamma(chi_star: DirichletCharacter, g_plus, g_minus) -> complex:
    """The Gamma-ratio value matched to the twist parity: G+ if even, G- if odd."""
    return complex(g_plus) if chi_star.parity == 1 else complex(g_minus)


# -- additive side -----------------------------------------------------------


def lq_additive_coefficients(inst: VoronoiInstance) -> np.ndarray:
    """Coefficients A(q_{N-2},...,q_1,n) e(a_bar n / c) of the n^{-s} series."""
    _require_additive(inst)
    row = _coefficient_row(inst.source, tuple(reversed(inst.q)), (), inst.truncation)
    roots = roots_of_unity(inst.c)
    phases = roots[(inst.abar * np.arange(inst.truncation + 1)) % inst.c]
    return row * phases


def lq_additive(inst: VoronoiInstance, s) -> complex:
    """Truncated additively twisted series sum_{n<=X} A(...) e(a_bar n/c) n^{-s}.

    Honest as a value only in the convergence half-plane; outside it, use the
    coefficient vector.
    """
    return _dirichlet_eval(lq_additive_coefficients(inst), s)


def voronoi_rhs_coefficients(inst: VoronoiInstance, s, g_plus, g_minus) -> np.ndarray:
    """Per-coefficient dual side of the additive identity, basis n^{-(1-s)}.

    Entry n carries both twisted families:
        (G+ - G-)/2 * Kl(a, n, c; q, d)  and  (G+ + G-)/2 * Kl(a, -n, c; q, d),
    summed over the plain divisor chains d_1 | q_1 c, d_2 | q_2 q_1 c / d_1, ...
    with the layer powers d_i^{(N-i)s} / (d_1...d_{N-2}) and the global factor
    c^{1-Ns} / (q_1^{(N-2)s} ... q_{N-2}^s).
    """
    _require_additive(inst)
    s = complex(s)
    n_deg, c, x = inst.degree, inst.c, inst.truncation
    half_diff = (complex(g_plus) - complex(g_minus)) / 2.0
    half_sum = (complex(g_plus) + complex(g_minus)) / 2.0
    qpow = 1 + 0j
    for i, qi in enumerate(inst.q, start=1):
        qpow *= qi ** (-(n_deg - 1 - i) * s)
    out = np.zeros(x + 1, dtype=complex)
    a_idx = inst.a % c
    for d_vec in kloosterman_divisor_chains(c, inst.q):
        weight = 1 + 0j
        for i, di in enumerate(d_vec, start=1):
            weight *= di ** ((n_deg - i) * s) / di
        row = _coefficient_row(inst.source, (), tuple(reversed(d_vec)), x)
        for n in range(1, x + 1):
            a_val = row[n]
            if a_val == 0:
                continue
            kl_pos = kloosterman_vector(n, c, inst.q, d_vec)[a_idx]
            kl_neg = kloosterman_vector(-n, c, inst.q, d_vec)[a_idx]
            out[n] += weight * a_val * (half_diff * kl_pos + half_sum * kl_neg)
    return out * (qpow / c ** (n_deg * s - 1))


def voronoi_rhs_additive(inst: VoronoiInstance, s, g_plus, g_minus, y: int) -> complex:
    """Scalar dual-side value, inner sum truncated at Y, basis n^{-(1-s)}."""
    coef = voronoi_rhs_coefficients(replace(inst, truncation=y), s, g_plus, g_minus)
    return _dirichlet_eval(coef, 1 - complex(s))


# -- Gauss-sum side ----------------------------------------------------------


def h_coefficients(inst: VoronoiInstance) -> np.ndarray:
    """Arithmetic part A(q_{N-2},...,q_1,n) g(chi_bar*, c, n) of the H series.

    The s-dependent scale (c/c*)^{2s-1} is applied by h_series; character
    averaging the additive coefficients lands exactly on this vector.
    """
    _require_character(inst)
    row = _coefficient_row(inst.source, tuple(reversed(inst.q)), (), inst.truncation)
    gvec = gauss_sum_vector(inst.chi_star.conjugate(), inst.c)
    idx = np.arange(inst.truncation + 1) % inst.c
    return row * gvec[idx]


def _h_full_coefficients(inst: VoronoiInstance, s) -> np.ndarray:
    return h_coefficients(inst) * (inst.c / inst.cstar) ** (2 * complex(s) - 1)


def h_series(inst: VoronoiInstance, s) -> complex:
    """(c/c*)^{2s-1} sum_{n<=X} A(q_{N-2},...,q_1,n) g(chi_bar*, c, n) n^{-s}."""
    return _dirichlet_eval(_h_full_coefficients(inst, s), s)


def _strengthened_chains(chi_star: DirichletCharacter, c: int, q: tuple[int, ...]):
    """Divisor chains under the conductor-strengthened conditions d_i c* | q_i M_{i-1}.

    Yields (d_vec, last_modulus, prod_i g(chi*, M_{i-1}, d_i)); chains whose
    Gauss-sum product vanishes are skipped since they contribute nothing.
    """
    cstar = chi_star.modulus

    def rec(i: int, m_prev: int, d_prefix: tuple[int, ...], g_acc: complex):
        if i == len(q):
            yield d_prefix, m_prev, g_acc
            return
        total = q[i] * m_prev
        if total % cstar:
            return
        for d in divisors(total // cstar):
            g_val = gauss_sum(chi_star, m_prev, d)
            if g_val == 0:
                continue
            yield from rec(i + 1, total // d, d_prefix + (d,), g_acc * g_val)

    yield from rec(0, c, (), 1 + 0j)


def g_coefficients(inst: VoronoiInstance, s, g_value) -> np.ndarray:
    """Per-coefficient dual series with Gauss-sum factors, basis n^{-(1-s)}.

    Entry n is  G chi*(-1) c^{1-Ns} (c/c*)^{2s-1} *
      sum over strengthened chains of
        A(n, d_{N-2},...,d_1) / (d_1...d_{N-2}) * [layer powers] *
        g(chi*, M_0, d_1) ... g(chi*, M_{N-3}, d_{N-2}) * g(chi*, M_{N-2}, n)
    with the same layer powers as the additive dual side.  ``g_value`` is the
    externally supplied Gamma ratio, G+ or G- according to chi*(-1).
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
    qpow = 1 + 0j
    for i, qi in enumerate(inst.q, start=1):
        qpow *= qi ** (-(n_deg - 1 - i) * s)
    out = np.zeros(x + 1, dtype=complex)
    for d_vec, m_last, g_prod in _strengthened_chains(chi_star, c, inst.q):
        weight = g_prod
        for i, di in enumerate(d_vec, start=1):
            weight *= di ** ((n_deg - i) * s) / di
        row = _coefficient_row(inst.source, (), tuple(reversed(d_vec)), x)
        g_tail = gauss_sum_vector(chi_star, m_last)
        idx = np.arange(x + 1) % m_last
        out += weight * row * g_tail[idx]
    return out * (pref * qpow)


def g_series(inst: VoronoiInstance, s, g_value) -> complex:
    """Scalar dual-side value with Gauss-sum factors, truncated at X."""
    return _dirichlet_eval(g_coefficients(inst, s, g_value), 1 - complex(s))


# -- the curly wrappers and their Mobius inversion ---------------------------


def _shifted_layers(q: tuple[int, ...], d_vec: tuple[int, ...], lead: int):
    prev = lead
    out = []
    for qi, di in zip(q, d_vec):
        out.append(qi * prev // di)
        prev = di
    return tuple(out)


def curly_h_coefficients(inst: VoronoiInstance, n: int, s) -> np.ndarray:
    """Coefficient vector of the divisor-averaged H wrapper at index n.

    Sums chi*(d_1...d_{N-2}) (d_1...d_{N-2})^{-s} over d_i | q_i and
    chi*(d) over factorizations d*l = n of the full H series at layer sizes
    (q_1 d/d_1, q_2 d_1/d_2, ...) and modulus l c*.  Only the primitive part
    of the instance's character enters.
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
                q=_shifted_layers(inst.q, d_vec, d),
                c=ell * cstar,
                chi=_induced(chi_star, ell * cstar),
                a=None,
            )
            out += (w_outer * v_inner) * _h_full_coefficients(sub, s)
    return out


def curly_h(inst: VoronoiInstance, n: int, s) -> complex:
    return _dirichlet_eval(curly_h_coefficients(inst, n, s), s)


def curly_g_coefficients(inst: VoronoiInstance, n: int, s, g_value) -> np.ndarray:
    """Same divisor averaging as curly_h_coefficients, wrapping the G series."""
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
                q=_shifted_layers(inst.q, d_vec, d),
                c=ell * cstar,
                chi=_induced(chi_star, ell * cstar),
                a=None,
            )
            out += (w_outer * v_inner) * g_coefficients(sub, s, g_value)
    return out


def curly_g(inst: VoronoiInstance, n: int, s, g_value) -> complex:
    return _dirichlet_eval(curly_g_coefficients(inst, n, s, g_value), 1 - complex(s))


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


def b_n_coefficient(inst: VoronoiInstance, n: int, s, prefactor, y: int) -> complex:
    """Coefficient b_n(s) of the dual-side n^{-2w} expansion, inner sum to Y.

    ``prefactor`` is G(s) tau(chi*)^N c*^{-Ns} supplied externally.  For
    degree >= 3:
        prefactor * n^s * sum_{e_{N-1}<=Y} sum_{e_i|q_i}
            chi_bar*(e_1...e_{N-1}) (e_1...e_{N-1})^{s-1}
            A(e_{N-1} q_{N-2}/e_{N-2}, ..., e_2 q_1/e_1, e_1 n).
    The degree-2 path follows the rank-two remark directly,
        prefactor / tau(chi*) * sum_{h<=Y} A(h) h^{s-1} g(chi*, n c*, h);
    one Gauss-sum factor moves inside the h-sum there, so the external
    prefactor convention stays uniform across degrees.
    """
    _require_character(inst)
    s = complex(s)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    n_deg = inst.degree
    if n_deg == 2:
        gvec = gauss_sum_vector(chi_star, n * cstar)
        row = _coefficient_row(inst.source, (), (), y)
        h_arr = np.arange(y + 1, dtype=np.float64)
        h_arr[0] = 1.0
        weights = h_arr ** (s - 1)
        idx = np.arange(y + 1) % (n * cstar)
        inner = complex(np.sum(row[1:] * weights[1:] * gvec[idx][1:]))
        return complex(prefactor) / tau(chi_star) * inner
    vv_bar = chi_star.value_vector.conjugate()
    acc = 0j
    for e_rest in itertools.product(*(divisors(qi) for qi in inst.q)):
        prod_rest = math.prod(e_rest)
        # A-index template: slot j (1-based, j <= N-2) holds e_{N-j} q_{N-1-j} / e_{N-1-j}
        free_ratio = inst.q[-1] // e_rest[-1]
        mid = tuple(
            e_rest[n_deg - j - 1] * inst.q[n_deg - j - 2] // e_rest[n_deg - j - 2]
            for j in range(2, n_deg - 1)
        )
        last = e_rest[0] * n
        for e_free in range(1, y + 1):
            prod_e = prod_rest * e_free
            v = vv_bar[prod_e % cstar]
            if v == 0:
                continue
            a_val = inst.source.coefficient((e_free * free_ratio,) + mid + (last,))
            if a_val == 0:
                continue
            acc += v * prod_e ** (s - 1) * a_val
    return complex(prefactor) * n**s * acc


def _rankin_tail(k: int, t: float, y: int) -> float:
    """Rigorous bound on sum_{m>Y} d_k(m) m^{-t}: min over u of Y^{u-t} zeta(u)^k."""
    if t <= 1.05:
        raise ValueError("tail exponent too close to the divergence line to certify")
    best = math.inf
    for u in np.linspace(1.04, t - 0.01, 160):
        zeta_u = hurwitz_zeta(float(u), 1).real
        best = min(best, y ** (u - t) * zeta_u**k)
    return best


def b_n_tail_bound(inst: VoronoiInstance, n: int, s, prefactor, y: int) -> float:
    """Certified bound on the inner-sum tail dropped by b_n_coefficient.

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
    for e_rest in itertools.product(*(divisors(qi) for qi in inst.q)):
        prod_rest = math.prod(e_rest)
        free_ratio = inst.q[-1] // e_rest[-1]
        mid = tuple(
            e_rest[n_deg - j - 1] * inst.q[n_deg - j - 2] // e_rest[n_deg - j - 2]
            for j in range(2, n_deg - 1)
        )
        last = e_rest[0] * n
        cap = divisor_count(n_deg, free_ratio) * divisor_count(n_deg, last)
        for m in mid:
            cap *= divisor_count(n_deg, m)
        total += prod_rest ** (sigma - 1.0) * cap
    return abs(complex(prefactor)) * n**sigma * total * rank


# -- the double-series probe -------------------------------------------------


def _mobius_character_prefix(chi_values: np.ndarray, cstar: int, exponent: complex, x: int) -> np.ndarray:
    """Prefix sums of chi(m) mu(m) m^exponent for m = 1..x (index 0 is 0)."""
    vals = np.zeros(x + 1, dtype=complex)
    for m in range(1, x + 1):
        mu = mobius(m)
        if mu == 0:
            continue
        v = chi_values[m % cstar]
        if v == 0:
            continue
        vals[m] = mu * v * m**exponent
    return np.cumsum(vals)


def z_probe(inst: VoronoiInstance, s, w, x: int) -> tuple[complex, complex]:
    """Two routes to the truncated two-variable L-quotient Z(s, w).

    via_l assembles the quotient from analytic L-values (the plain layered
    series truncated at x, times the twisted L-value, divided by the shifted
    Dirichlet L); via_a is sum_{n<=x} a_n(s) n^{-2w}, accumulated in the
    exactly rearranged divisor order so no coefficient is recomputed.
    Requires an isobaric source so all L-factors are computable.
    """
    _require_character(inst)
    shifts = inst.source.isobaric_shifts
    if shifts is None:
        raise ValueError("z_probe needs an isobaric coefficient source")
    s = complex(s)
    w = complex(w)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    row = _coefficient_row(inst.source, tuple(reversed(inst.q)), (), x)
    l_twist = twisted_l_isobaric(LValueRequest(s, chi_star, shifts))
    l_den = dirichlet_l(2 * w - 2 * s + 1, chi_star.conjugate())
    via_l = _dirichlet_eval(row, 2 * w - s) * l_twist / l_den
    d_arr = np.arange(1, x + 1, dtype=np.float64)
    d_pow = d_arr ** (s - 2 * w)
    m_prefix = _mobius_character_prefix(
        chi_star.value_vector.conjugate(), cstar, 2 * s - 1 - 2 * w, x
    )
    if inst.degree == 2:
        via_l /= dirichlet_l(2 * w, chi_star)
        k_prefix = _mobius_character_prefix(chi_star.value_vector, cstar, -2 * w, x)
        acc = 0j
        for j in range(1, x + 1):
            a_val = row[j]
            if a_val == 0:
                continue
            inner = 0j
            for m in range(1, x // j + 1):
                mu = mobius(m)
                if mu == 0:
                    continue
                v = chi_star.value_vector[m % cstar].conjugate()
                if v == 0:
                    continue
                inner += mu * v * m ** (2 * s - 1 - 2 * w) * k_prefix[x // (j * m)]
            acc += a_val * d_pow[j - 1] * inner
        via_a = l_twist * acc
        return via_l, via_a
    tail_idx = x // np.arange(1, x + 1)
    via_a = l_twist * complex(np.sum(row[1:] * d_pow * m_prefix[tail_idx]))
    return via_l, via_a


def z_probe_bound(inst: VoronoiInstance, s, w, x: int) -> float:
    """Computable bound on |via_l - via_a| for the same probe arguments.

    Both routes truncate the outer d-sum identically, so the discrepancy is
    exactly sum_d A_d d^{s-2w} (M(x//d) - M(inf)) with M the Mobius-character
    series of exponent 2s-1-2w and M(inf) = 1/L(2w-2s+1, conj chi*).  Each
    factor is bounded by the triangle inequality through the partial sum at
    4x:  |M(T) - M(inf)| <= |S(4x) - S(T)| + |S(4x) - M(inf)|, every term of
    which is computable.  A small cushion absorbs the rounding of the L-value
    and of the comparison itself.
    """
    _require_character(inst)
    shifts = inst.source.isobaric_shifts
    if shifts is None:
        raise ValueError("z_probe_bound needs an isobaric coefficient source")
    s = complex(s)
    w = complex(w)
    chi_star = inst.chi_star
    cstar = chi_star.modulus
    row = np.abs(_coefficient_row(inst.source, tuple(reversed(inst.q)), (), x))
    l_twist = abs(twisted_l_isobaric(LValueRequest(s, chi_star, shifts)))
    d_pow = np.arange(1, x + 1, dtype=np.float64) ** (s.real - 2 * w.real)
    m_prefix = _mobius_character_prefix(
        chi_star.value_vector.conjugate(), cstar, 2 * s - 1 - 2 * w, 4 * x
    )
    m_inf = 1 / dirichlet_l(2 * w - 2 * s + 1, chi_star.conjugate())
    anchor = abs(m_prefix[4 * x] - m_inf) + 1e-12 * (1 + abs(m_inf))
    tail_idx = x // np.arange(1, x + 1)
    m_err = np.abs(m_prefix[4 * x] - m_prefix[tail_idx]) + anchor
    if inst.degree == 2:
        k_prefix = _mobius_character_prefix(chi_star.value_vector, cstar, -2 * w, 4 * x)
        k_inf = 1 / dirichlet_l(2 * w, chi_star)
        k_anchor = abs(k_prefix[4 * x] - k_inf) + 1e-12 * (1 + abs(k_inf))
        total = 0.0
        for j in range(1, x + 1):
            if row[j] == 0:
                continue
            inner = 0.0
            for m in range(1, x // j + 1):
                if mobius(m) == 0 or chi_star.value_vector[m % cstar] == 0:
                    continue
                k_err = abs(k_prefix[4 * x] - k_prefix[x // (j * m)]) + k_anchor
                inner += m ** (2 * s.real - 1 - 2 * w.real) * k_err
            inner += abs(k_inf) * (abs(m_prefix[4 * x] - m_prefix[x // j]) + anchor)
            total += row[j] * d_pow[j - 1] * inner
        return l_twist * total + 1e-12
    return float(l_twist * np.sum(row[1:] * d_pow * m_err) + 1e-12)
