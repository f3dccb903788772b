"""Dirichlet L-values, Hurwitz zeta, and ratios of Gamma factors.

Everything runs in double precision with compensated summation.
``dirichlet_l``, ``dirichlet_l_refusal``, ``dirichlet_l_stored``, ``g_pm_eval``,
``twisted_l_isobaric`` and ``functional_equation_check`` also take an optional
``precision`` argument (bits of significand) that reroutes the computation
through mpmath: the dual-series checks multiply several sqrt(c*)-sized factors
together, and a rerun with extra headroom is the cheapest way to confirm a
marginal comparison.

log Gamma and digamma are computed in-house (``_loggamma``, ``_digamma``):
principal-branch log Gamma by Stirling's series, upward recurrence and
reflection as in D. E. G. Hare, "Computing the principal branch of
log-Gamma", J. Algorithms 25 (1997), the method scipy's ``loggamma`` uses
(without its Taylor patches near 1 and 2); digamma by upward recurrence and
its asymptotic series.  Both agree with 200-bit mpmath to about 1e-14.

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

from .characters import DirichletCharacter
from .exponential_sums import tau
from .numeric import stored

__all__ = [
    "GammaFactorSpec",
    "LValueRequest",
    "bernoulli_number",
    "dirichlet_l",
    "dirichlet_l_refusal",
    "dirichlet_l_stored",
    "functional_equation_check",
    "g_pm_arguments",
    "g_pm_eval",
    "g_pm_stored",
    "gamma_pole",
    "log_gamma",
    "twisted_l_arguments",
    "twisted_l_isobaric",
]

_POLE_TOL = 1e-6
# Largest shift denominator the reflection formula takes: left of Re(s) = -0.25
# it sums that many Euler-Maclaurin evaluations.
_REFLECT_MAX_Q = 4096


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


# Euler-Maclaurin weights B_2j/(2j)! for j = 1..20 (B_2 .. B_40), rounded to
# float; B_2j/(2j)! decays like 2/(2 pi)^2j.  A literal, because the exact
# recursion to B_40 costs a few ms in every fresh process;
# tests/test_lfunctions.py checks it against bernoulli_number.
_EM_WEIGHTS = (
    0.08333333333333333,
    -0.001388888888888889,
    3.306878306878307e-05,
    -8.267195767195768e-07,
    2.08767569878681e-08,
    -5.284190138687493e-10,
    1.3382536530684679e-11,
    -3.3896802963225827e-13,
    8.586062056277845e-15,
    -2.174868698558062e-16,
    5.5090028283602295e-18,
    -1.3954464685812522e-19,
    3.534707039629467e-21,
    -8.953517427037546e-23,
    2.267952452337683e-24,
    -5.744790668872202e-26,
    1.455172475614865e-27,
    -3.6859949406653103e-29,
    9.336734257095045e-31,
    -2.36502241570063e-32,
)


# Stirling's series log Gamma(z) ~ (z - 1/2) log z - z + log(2 pi)/2
#   + sum_k B_2k / (2k (2k-1) z^(2k-1)), used for Re z > 7 or |Im z| > 7
_STIRLING_FROM = 7.0
_STIRLING = tuple(
    float(bernoulli_number(2 * k) / (2 * k * (2 * k - 1))) for k in range(1, 9)
)
# psi(x) ~ log x - 1/(2x) - sum_k B_2k / (2k x^(2k)), used for x >= 10
_DIGAMMA_X = 10.0
_DIGAMMA = tuple(float(bernoulli_number(2 * k) / (2 * k)) for k in range(1, 9))
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _sinpi(z: complex) -> complex:
    """sin(pi z), with Re z reduced exactly to [-1/2, 1/2] before the product by pi.

    sin(pi (r + n)) = (-1)^n sin(pi r) and r = Re z - n is exact, so sin(pi z)
    keeps its relative accuracy next to the integers; cmath.sin(pi z) would
    lose it to the rounding of pi n.
    """
    n = round(z.real)
    w = cmath.sin(complex(math.pi * (z.real - n), math.pi * z.imag))
    return -w if n % 2 else w


def _loggamma_stirling(z: complex) -> complex:
    rz = 1.0 / z
    rzz = rz / z
    series = 0j
    for coef in reversed(_STIRLING):
        series = series * rzz + coef
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + rz * series


def _loggamma_recurrence(z: complex) -> complex:
    """log Gamma(z) for Im z >= 0 from log Gamma(z + n) with Re(z + n) > 7.

    Each time the running product z (z+1) ... (z+n-1) crosses the negative
    real axis (its imaginary part turns negative), the principal log of the
    product loses 2 pi i against the sum of the principal logs; the crossings
    are counted and added back (Hare, Prop. 2.2).
    """
    prod = z
    flips = 0
    below = False
    z += 1.0
    while z.real <= _STIRLING_FROM:
        prod *= z
        now = math.copysign(1.0, prod.imag) < 0
        if now and not below:
            flips += 1
        below = now
        z += 1.0
    return _loggamma_stirling(z) - cmath.log(prod) - complex(0.0, 2.0 * math.pi * flips)


def _loggamma(z: complex) -> complex:
    """Principal-branch log Gamma(z) in double precision; z must not be a pole."""
    if z.real > _STIRLING_FROM or abs(z.imag) > _STIRLING_FROM:
        return _loggamma_stirling(z)
    if z.real < 0.1:
        # reflection log pi - log sin(pi z) - log Gamma(1 - z); the 2 pi i
        # multiple keeps the principal branch (Hare, Prop. 3.1)
        branch = math.copysign(2.0 * math.pi, z.imag) * math.floor(0.5 * z.real + 0.25)
        return complex(_LOG_PI, branch) - cmath.log(_sinpi(z)) - _loggamma(1.0 - z)
    if math.copysign(1.0, z.imag) < 0:
        return _loggamma_recurrence(z.conjugate()).conjugate()
    return _loggamma_recurrence(z)


def _digamma(x: float) -> float:
    """psi(x) for real x > 0: upward recurrence to x >= 10, then the asymptotic series."""
    steps = max(0, math.ceil(_DIGAMMA_X - x))
    y = x + steps
    ryy = 1.0 / (y * y)
    series = 0.0
    for coef in reversed(_DIGAMMA):
        series = series * ryy + coef
    terms = [-1.0 / (x + k) for k in range(steps)]
    terms += [math.log(y), -0.5 / y, -ryy * series]
    return math.fsum(terms)


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
    for j, weight in enumerate(_EM_WEIGHTS, start=1):
        corr += weight * rising * power
        rising *= (s + (2 * j - 1)) * (s + 2 * j)
        power /= base * base
    return total + corr


def _hurwitz_values(s: complex, q: int, numerators) -> list[complex]:
    """zeta(s, p/q) for every p in numerators, each in [1, q]; s is not the pole.

    The one choice of regime for every Hurwitz value: the Bernoulli formula at
    exact non-positive integers, direct Euler-Maclaurin for Re(s) >= -0.25,
    and further left, where the main sum loses digits to cancellation,
    Hurwitz's formula, which reflects into the Re > 1 regime and takes
    q <= _REFLECT_MAX_Q (4096).  There the q Euler-Maclaurin values
    zeta(1 - s, k/q) and the prefactor do not depend on p, so one table
    serves every numerator; each p weights it by its own cosines.
    """
    if s.imag == 0 and s.real <= 0 and s.real == int(s.real):
        # zeta(-n, a) = -B_{n+1}(a)/(n+1), exact in rational arithmetic; this
        # also preserves the exact zeros that reflection would smear out
        n = int(-s.real)
        return [
            complex(Fraction(-1, n + 1) * _bernoulli_poly(n + 1, Fraction(p, q)))
            for p in numerators
        ]
    if s.real >= -0.25:
        return [_hurwitz_em(s, p / q) for p in numerators]
    if q > _REFLECT_MAX_Q:
        raise ValueError(
            "Hurwitz zeta: Re(s) < -0.25 requires a rational shift with "
            f"denominator <= {_REFLECT_MAX_Q} (reflection formula)"
        )
    u = 1.0 - s
    pref = 2.0 * cmath.exp(_loggamma(u) - u * math.log(2.0 * math.pi * q))
    em = [_hurwitz_em(u, k / q) for k in range(1, q + 1)]
    return [
        pref
        * _csum(
            cmath.cos(math.pi * u / 2.0 - 2.0 * math.pi * k * p / q) * zeta_k
            for k, zeta_k in enumerate(em, start=1)
        )
        for p in numerators
    ]


def _bernoulli_poly(m: int, a: Fraction) -> Fraction:
    return sum(
        (math.comb(m, k) * bernoulli_number(k)) * a ** (m - k) for k in range(m + 1)
    )


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
        chi.value_vector[r] * _digamma(r / c)
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


def dirichlet_l_refusal(
    s, modulus: int, principal: bool, precision: int | None = None
) -> str | None:
    """The message dirichlet_l raises at s for a character mod modulus, or None.

    It refuses s within 1e-6 of 1 (the pole of a principal character; a
    nonprincipal one is evaluated exactly at 1 and nowhere else in that band),
    and, in double precision, Re(s) < -0.25 for a modulus above 4096, whose
    Hurwitz shifts r/modulus are past the reflection formula; exact
    non-positive integers take the Bernoulli formula at any modulus.  The
    refusal only grows with the modulus.
    """
    s = complex(s)
    if abs(s - 1.0) < _POLE_TOL:
        if principal:
            return "dirichlet_l: pole at s = 1 (principal character)"
        if s != 1.0:
            return "dirichlet_l: evaluate exactly at s = 1 or more than 1e-6 away"
    elif (
        precision is None
        and s.real < -0.25
        and modulus > _REFLECT_MAX_Q
        and not (s.imag == 0 and s.real.is_integer())
    ):
        return (
            f"dirichlet_l: Re(s) < -0.25 needs a modulus <= {_REFLECT_MAX_Q} "
            "(reflection formula)"
        )
    return None


def dirichlet_l(s, chi: DirichletCharacter, precision: int | None = None) -> complex:
    """L(s, chi) = c^{-s} sum_{r mod c} chi(r) zeta(s, r/c), all s by continuation.

    The character need not be primitive; imprimitive characters give the
    L-function with the corresponding Euler factors removed.  Principal-derived
    characters have the zeta pole at s = 1.  Nonprincipal characters are finite
    at s = 1 and are evaluated there through the digamma formula
    L(1, chi) = -(1/c) sum chi(r) psi(r/c); points within 1e-6 of s = 1 but not
    exactly on it are rejected (the Hurwitz terms are individually singular).
    dirichlet_l_refusal states every point it refuses.
    """
    s = complex(s)
    c = chi.modulus
    refusal = dirichlet_l_refusal(s, c, chi.conductor == 1, precision)
    if refusal is not None:
        raise ValueError(refusal)
    if s == 1.0:
        return _l_at_one(chi, precision)
    if precision is not None:
        return _dirichlet_l_mp(s, chi, precision)
    units = [r for r in range(1, c + 1) if math.gcd(r, c) == 1]
    zetas = _hurwitz_values(s, c, units)
    terms = [chi.value_vector[r % c] * zeta_r for r, zeta_r in zip(units, zetas)]
    return c ** (-s) * _csum(terms)


def gamma_pole(z) -> int | None:
    """The pole of Gamma (0, -1, -2, ...) within 1e-6 of z, or None."""
    z = complex(z)
    nearest = round(z.real)
    return nearest if nearest <= 0 and abs(z - nearest) < _POLE_TOL else None


def log_gamma(z) -> complex:
    """Principal-branch log Gamma; rejects arguments within 1e-6 of a pole."""
    z = complex(z)
    pole = gamma_pole(z)
    if pole is not None:
        raise ValueError(f"log_gamma: argument within 1e-6 of the pole at {pole}")
    return _loggamma(z)


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


def g_pm_arguments(s, spec: GammaFactorSpec) -> list[tuple[complex, complex]]:
    """(numerator, denominator) Gamma arguments of g_pm_eval, one pair per lambda_j."""
    s = complex(s)
    return [
        ((spec.delta + 1.0 - s - lam.conjugate()) / 2.0, (spec.delta + s - lam) / 2.0)
        for lam in spec.lambdas
    ]


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
    for num, den in g_pm_arguments(s, spec):
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


def twisted_l_arguments(s, shifts) -> list[complex]:
    """The arguments s + s_i, in shift order, at which twisted_l_isobaric evaluates dirichlet_l."""
    s = complex(s)
    return [s + complex(sh) for sh in shifts]


def dirichlet_l_stored(
    store: dict, z: complex, chi: DirichletCharacter, precision: int | None = None
) -> complex:
    """dirichlet_l(z, chi, precision), evaluated once per (repr(z), chi) in store.

    ``store`` is a dict the caller owns and drops, and it holds the values of
    one precision; repr tells -0.0 from 0.0 where == does not.
    """
    return stored(store, (repr(z), chi), dirichlet_l, z, chi, precision)


def g_pm_stored(store: dict, s: complex, spec: GammaFactorSpec) -> complex:
    """g_pm_eval(s, spec), evaluated once per (repr(s), repr(lambdas), delta) in store.

    ``store`` is a dict the caller owns and drops, and dirichlet_l_stored may
    share it: its keys have two entries, these three.
    """
    return stored(store, (repr(s), repr(spec.lambdas), spec.delta), g_pm_eval, s, spec)


def twisted_l_isobaric(req: LValueRequest, store: dict, precision: int | None = None) -> complex:
    """L(s, F x chi*) = prod_i L(s + s_i, chi*) for the isobaric family.

    Each factor is read through ``store`` (dirichlet_l_stored), so a repeated
    shift, or a second request at the same point and twist, evaluates nothing
    again.  The factors are multiplied in shift order, so no bit changes.
    """
    out = 1 + 0j
    for z in twisted_l_arguments(req.s, req.shifts):
        out *= dirichlet_l_stored(store, z, req.chi_star, precision)
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
    store = {}  # the L-values of this one check, at one precision
    lhs = twisted_l_isobaric(req, store, precision)
    gamma_spec = GammaFactorSpec(tuple(-sh for sh in req.shifts), delta)
    g_val = g_pm_eval(req.s, gamma_spec, precision)
    dual = LValueRequest(1 - req.s, chi.conjugate(), tuple(-sh for sh in req.shifts))
    tau_val = _tau_mp(chi, precision) if precision is not None else tau(chi)
    rhs = (
        tau_val**n_deg
        * chi.modulus ** (-n_deg * req.s)
        * g_val
        * twisted_l_isobaric(dual, store, precision)
    )
    return lhs, rhs
