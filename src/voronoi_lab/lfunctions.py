"""Dirichlet L-values, Hurwitz zeta, and ratios of Gamma factors.

Everything runs in double precision with compensated summation.  Each public
evaluator also takes an optional ``precision`` argument (bits of significand)
that reroutes the computation through mpmath: the dual-series checks multiply
several sqrt(c*)-sized factors together, and a rerun with extra headroom is
the cheapest way to confirm a marginal comparison.

Poles are explicit error states.  Any evaluation within 1e-6 of a pole of
zeta, of an L-function, or of a Gamma factor raises ValueError rather than
returning an Inf/NaN that would silently poison a downstream identity check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from scipy.special import digamma as _scipy_digamma, loggamma as _scipy_loggamma

from .characters import DirichletCharacter
from .exponential_sums import tau

__all__ = [
    "GammaFactorSpec",
    "LValueRequest",
    "bernoulli_number",
    "dirichlet_l",
    "functional_equation_check",
    "g_pm_eval",
    "hurwitz_zeta",
    "log_gamma",
    "twisted_l_isobaric",
]

_POLE_TOL = 1e-6
# Euler-Maclaurin depth: B_2 .. B_40 correction terms
_EM_ORDER = 20


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """Exact Bernoulli number B_k (convention B_1 = -1/2)."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if k == 0:
        return Fraction(1)
    # sum_{j<=k} C(k+1, j) B_j = 0 for k >= 1, solved for B_k
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli_number(j)
    return -acc / (k + 1)


@lru_cache(maxsize=1)
def _em_weights() -> tuple[float, ...]:
    # B_{2j}/(2j)! decays like 2/(2 pi)^{2j}; safe in float
    return tuple(
        float(bernoulli_number(2 * j) / math.factorial(2 * j))
        for j in range(1, _EM_ORDER + 1)
    )


def _csum(terms) -> complex:
    """Compensated complex sum (exact fsum on each component)."""
    seq = list(terms)
    return complex(math.fsum(t.real for t in seq), math.fsum(t.imag for t in seq))


def _hurwitz_em(s: complex, a: float) -> complex:
    """Euler-Maclaurin evaluation of zeta(s, a); accurate for Re(s) >= -0.25."""
    kmax = max(48, int(1.5 * abs(s)) + 32)
    head = _csum((k + a) ** (-s) for k in range(kmax))
    base = kmax + a
    total = head + base ** (1.0 - s) / (s - 1.0) + 0.5 * base ** (-s)
    rising = s  # (s)_{2j-1} rising factorial, starting at j=1
    power = base ** (-s - 1.0)
    corr = 0j
    for j, weight in enumerate(_em_weights(), start=1):
        corr += weight * rising * power
        rising *= (s + (2 * j - 1)) * (s + 2 * j)
        power /= base * base
    return total + corr


def _hurwitz_reflect(s: complex, a: Fraction) -> complex:
    """Hurwitz formula: reflect a rational-shift zeta into the Re > 1 regime."""
    p, q = a.numerator, a.denominator
    u = 1.0 - s
    pref = 2.0 * cmath.exp(_scipy_loggamma(u) - u * math.log(2.0 * math.pi * q))
    terms = [
        cmath.cos(math.pi * u / 2.0 - 2.0 * math.pi * k * p / q) * _hurwitz_em(u, k / q)
        for k in range(1, q + 1)
    ]
    return pref * _csum(terms)


def _hurwitz_mp(s: complex, a: Fraction, precision: int) -> complex:
    import mpmath as mp

    with mp.workprec(precision):
        return complex(mp.zeta(mp.mpc(s), mp.mpf(a.numerator) / a.denominator))


def _bernoulli_poly(m: int, a: Fraction) -> Fraction:
    return sum(
        (math.comb(m, k) * bernoulli_number(k)) * a ** (m - k) for k in range(m + 1)
    )


def hurwitz_zeta(s, a, precision: int | None = None) -> complex:
    """Hurwitz zeta zeta(s, a) for a shift a in (0, 1], continued to all s != 1.

    Direct Euler-Maclaurin for Re(s) >= -0.25.  Further left the main sum
    loses digits to cancellation, so the rational-shift reflection formula is
    used instead; a must then be a Fraction (or a float that IS one exactly)
    with denominator <= 4096.  Every shift this package produces is r/c with
    c at desk scale, so the restriction is invisible in practice.
    """
    s = complex(s)
    if abs(s - 1.0) < _POLE_TOL:
        raise ValueError("hurwitz_zeta: s is within 1e-6 of the pole at s = 1")
    a = a if isinstance(a, Fraction) else Fraction(a)
    if not 0 < a <= 1:
        raise ValueError("hurwitz_zeta: shift must lie in (0, 1]")
    if precision is not None:
        return _hurwitz_mp(s, a, precision)
    if s.imag == 0 and s.real <= 0 and s.real == int(s.real):
        # zeta(-n, a) = -B_{n+1}(a)/(n+1), exact in rational arithmetic; this
        # also preserves the exact zeros that reflection would smear out
        n = int(-s.real)
        return complex(Fraction(-1, n + 1) * _bernoulli_poly(n + 1, a))
    if s.real >= -0.25:
        return _hurwitz_em(s, a.numerator / a.denominator)
    if a.denominator > 4096:
        raise ValueError(
            "hurwitz_zeta: Re(s) < -0.25 requires a rational shift with "
            "denominator <= 4096 (reflection formula)"
        )
    return _hurwitz_reflect(s, a)


def _chi_mp(chi: DirichletCharacter, r: int, mp):
    fr = chi.value_fraction(r)
    if fr is None:
        return mp.mpc(0)
    return mp.expjpi(2 * mp.mpf(fr.numerator) / fr.denominator)


def _tau_mp(chi_star: DirichletCharacter, precision: int) -> complex:
    import mpmath as mp

    c = chi_star.modulus
    with mp.workprec(precision):
        acc = mp.mpc(0)
        for u in range(1, c + 1):
            if math.gcd(u, c) == 1:
                acc += _chi_mp(chi_star, u, mp) * mp.expjpi(mp.mpf(2 * u) / c)
        return complex(acc)


def _l_at_one(chi: DirichletCharacter, precision: int | None) -> complex:
    # L(1, chi) = -(1/c) sum_r chi(r) psi(r/c), nonprincipal chi only
    c = chi.modulus
    if precision is not None:
        import mpmath as mp

        with mp.workprec(precision):
            acc = mp.mpc(0)
            for r in range(1, c):
                if math.gcd(r, c) == 1:
                    acc += _chi_mp(chi, r, mp) * mp.digamma(mp.mpf(r) / c)
            return complex(-acc / c)
    terms = [
        chi.value_vector[r] * float(_scipy_digamma(r / c))
        for r in range(1, c)
        if math.gcd(r, c) == 1
    ]
    return -_csum(terms) / c


def _dirichlet_l_mp(s: complex, chi: DirichletCharacter, precision: int) -> complex:
    import mpmath as mp

    c = chi.modulus
    with mp.workprec(precision):
        acc = mp.mpc(0)
        for r in range(1, c + 1):
            if math.gcd(r, c) == 1:
                acc += _chi_mp(chi, r, mp) * mp.zeta(mp.mpc(s), mp.mpf(r) / c)
        return complex(mp.power(c, -mp.mpc(s)) * acc)


def dirichlet_l(s, chi: DirichletCharacter, precision: int | None = None) -> complex:
    """L(s, chi) = c^{-s} sum_{r mod c} chi(r) zeta(s, r/c), all s by continuation.

    The character need not be primitive; imprimitive characters give the
    L-function with the corresponding Euler factors removed.  Principal-derived
    characters have the zeta pole at s = 1.  Nonprincipal characters are finite
    at s = 1 and are evaluated there through the digamma formula
    L(1, chi) = -(1/c) sum chi(r) psi(r/c); points within 1e-6 of s = 1 but not
    exactly on it are rejected (the Hurwitz terms are individually singular).
    """
    s = complex(s)
    c = chi.modulus
    principal = chi.conductor == 1
    if abs(s - 1.0) < _POLE_TOL:
        if principal:
            raise ValueError("dirichlet_l: pole at s = 1 (principal character)")
        if s != 1.0:
            raise ValueError(
                "dirichlet_l: evaluate exactly at s = 1 or more than 1e-6 away"
            )
        return _l_at_one(chi, precision)
    if precision is not None:
        return _dirichlet_l_mp(s, chi, precision)
    terms = [
        chi.value_vector[r % c] * hurwitz_zeta(s, Fraction(r, c))
        for r in range(1, c + 1)
        if math.gcd(r, c) == 1
    ]
    return c ** (-s) * _csum(terms)


def log_gamma(z, precision: int | None = None) -> complex:
    """Principal-branch log Gamma; rejects arguments within 1e-6 of a pole."""
    z = complex(z)
    nearest = round(z.real)
    if nearest <= 0 and abs(z - nearest) < _POLE_TOL:
        raise ValueError(f"log_gamma: argument within 1e-6 of the pole at {nearest}")
    if precision is not None:
        import mpmath as mp

        with mp.workprec(precision):
            return complex(mp.loggamma(mp.mpc(z)))
    return complex(_scipy_loggamma(z))


@dataclass(frozen=True)
class GammaFactorSpec:
    """Archimedean parameters (lambda_1..lambda_N, delta) of the ratio G(s)."""

    lambdas: tuple[complex, ...]
    delta: int

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(complex(l) for l in self.lambdas))
        if self.delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")
        if not self.lambdas:
            raise ValueError("at least one Gamma parameter required")

    @property
    def degree(self) -> int:
        return len(self.lambdas)


# i^{-k} for k mod 4
_I_NEG_POWERS = (1 + 0j, -1j, -1 + 0j, 1j)


def g_pm_eval(s, spec: GammaFactorSpec, precision: int | None = None) -> complex:
    """Ratio of Gamma factors
    G(s) = i^{-N delta} pi^{-N(1/2-s)} prod_j Gamma((delta+1-s-conj(lambda_j))/2)
                                              / Gamma((delta+s-lambda_j)/2),
    computed in log space and exponentiated once.

    Arguments of either Gamma within 1e-6 of a pole raise: a numerator pole is
    a genuine pole of G, a denominator pole a zero, and both are error states
    here because every identity check divides or multiplies by G.
    """
    s = complex(s)
    n_deg = spec.degree
    delta = spec.delta
    if precision is not None:
        import mpmath as mp

        with mp.workprec(precision):
            acc = n_deg * (mp.mpc(s) - mp.mpf(0.5)) * mp.log(mp.pi)
            for lam in spec.lambdas:
                num = (delta + 1 - mp.mpc(s) - mp.mpc(lam).conjugate()) / 2
                den = (delta + mp.mpc(s) - mp.mpc(lam)) / 2
                acc += mp.loggamma(num) - mp.loggamma(den)
            return complex(_I_NEG_POWERS[(n_deg * delta) % 4] * mp.exp(acc))
    log_acc = n_deg * (s - 0.5) * math.log(math.pi)
    for lam in spec.lambdas:
        num = (delta + 1.0 - s - lam.conjugate()) / 2.0
        den = (delta + s - lam) / 2.0
        log_acc += log_gamma(num) - log_gamma(den)
    return _I_NEG_POWERS[(n_deg * delta) % 4] * cmath.exp(log_acc)


@dataclass(frozen=True)
class LValueRequest:
    """Evaluation point and isobaric descriptor for a twisted L-value.

    The supported family is built from purely imaginary shifts summing to
    zero, so the twisted L-function factors as prod_i L(s + s_i, chi*).
    """

    s: complex
    chi_star: DirichletCharacter
    shifts: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "shifts", tuple(complex(sh) for sh in self.shifts))
        if not self.shifts:
            raise ValueError("at least one shift required")
        if not self.chi_star.is_primitive:
            raise ValueError("twist character must be primitive")
        scale = max(1.0, max(abs(sh) for sh in self.shifts))
        if abs(sum(self.shifts)) > 1e-12 * scale:
            raise ValueError("shifts must sum to zero")
        if max(abs(sh.real) for sh in self.shifts) > 1e-12:
            raise ValueError("shifts must be purely imaginary")

    @property
    def degree(self) -> int:
        return len(self.shifts)


def twisted_l_isobaric(req: LValueRequest, precision: int | None = None) -> complex:
    """L(s, F x chi*) = prod_i L(s + s_i, chi*) for the isobaric family."""
    out = 1 + 0j
    for sh in req.shifts:
        out *= dirichlet_l(req.s + sh, req.chi_star, precision)
    return out


def functional_equation_check(
    req: LValueRequest, precision: int | None = None
) -> tuple[complex, complex]:
    """Both sides of L(s,F x chi*) = tau(chi*)^N c*^{-Ns} G(s) L(1-s, dual).

    The dual series carries negated shifts and the conjugate character; G is
    the even or odd Gamma ratio according to chi*(-1), with lambda_j = -s_j.
    Returns (lhs, rhs) so the caller owns the tolerance decision.
    """
    chi = req.chi_star
    if chi.modulus == 1:
        raise ValueError(
            "functional_equation_check: the trivial character is outside the "
            "primitive-twist regime (zeta poles, Gauss sum degenerates)"
        )
    delta = 0 if chi.parity == 1 else 1
    n_deg = req.degree
    lhs = twisted_l_isobaric(req, precision)
    gamma_spec = GammaFactorSpec(tuple(-sh for sh in req.shifts), delta)
    g_val = g_pm_eval(req.s, gamma_spec, precision)
    dual = LValueRequest(1 - req.s, chi.conjugate(), tuple(-sh for sh in req.shifts))
    tau_val = _tau_mp(chi, precision) if precision is not None else tau(chi)
    rhs = (
        tau_val**n_deg
        * chi.modulus ** (-n_deg * req.s)
        * g_val
        * twisted_l_isobaric(dual, precision)
    )
    return lhs, rhs
