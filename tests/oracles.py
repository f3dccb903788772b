"""Small-size oracles the tests check the package's routes against.

Each oracle computes a quantity by a route that shares none of the code of
the route it checks, and nothing under src/ imports this module, so no route
of a sweep can reach one (tests/test_imports.py checks that):

* hyper_kloosterman, the nested sum of one hyper-Kloosterman term, checks
  the prefix-tree walk kloosterman_vector, the additive dual side built on
  it, and the Lemma 3.4 Gauss-sum product;
* schur_bialternant, the ratio of alternants, checks the Jacobi-Trudi
  schur of hecke and so every coefficient A(m);
* isobaric_alphas, random_satake_table and rankin_selberg_alphas, the
  per-prime scalar loops, check the Satake parameter arrays of hecke's
  builders bit for bit;
* hurwitz_zeta_mp, mpmath at a given precision, checks the double-precision
  hurwitz_zeta of lfunctions;
* induce, the character mod c that a character of modulus dividing c
  induces, read off the generators of (Z/c)^x, checks primitive, the Gauss-sum
  tables read off the turn tables, and the twisted L-values;
* principal, additive_char and gauss_sum_error are the character, the
  additive character and the FFT rounding bound those checks read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from voronoi_lab.characters import DirichletCharacter
from voronoi_lab.numeric import roots_of_unity, sum_error_bound
from voronoi_lab.residues import (
    euler_phi,
    inverse_table,
    primes_up_to,
    unit_group,
    unit_residues,
)


def principal(c: int) -> DirichletCharacter:
    """The principal character mod c."""
    return DirichletCharacter(c, (0,) * len(unit_group(c).factors))


def induce(chi_star: DirichletCharacter, c: int) -> DirichletCharacter:
    """The character mod c induced by chi_star (modulus of chi_star must divide c).

    On units u mod c the result equals chi_star(u mod c*); zero on non-units.
    """
    if c % chi_star.modulus != 0:
        raise ValueError(f"{chi_star.modulus} does not divide {c}")
    exps = []
    for f in unit_group(c).factors:
        # f.generator is a unit mod c, hence a unit mod any divisor
        k = chi_star.value_fraction(f.generator) * f.order
        if k.denominator != 1:
            raise ArithmeticError("induced value is not an order-dividing root of unity")
        exps.append(int(k) % f.order)
    return DirichletCharacter(c, tuple(exps))


def additive_char(x: Fraction | int) -> complex:
    """e(x) = exp(2*pi*i*x) for rational x, from the table of its denominator."""
    x = Fraction(x)
    return complex(roots_of_unity(x.denominator)[x.numerator % x.denominator])


def gauss_sum_error(c: int) -> float:
    """Rounding bound of one entry of the FFT table gauss_sum_rows(c*, c)."""
    return sum_error_bound(euler_phi(c), 1.0)


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
    def moduli(self) -> tuple[int, ...]:
        """(M_0, ..., M_K): M_0 = c, M_i = q_i M_{i-1} / d_i."""
        mods = [self.c]
        for qi, di in zip(self.q, self.d):
            mods.append(qi * mods[-1] // di)
        return tuple(mods)


def hyper_kloosterman(spec: KloostermanSpec) -> complex:
    """Direct nested summation of one hyper-Kloosterman sum.

    Cost is the product of the unit counts of the layer moduli, so keep it to
    small boxes.  The degenerate degree-2 case is e(a n / c).
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


def schur_bialternant(k: tuple[int, ...], x: tuple[complex, ...]) -> complex:
    """Ratio-of-alternants Schur polynomial: det(x_i^(lambda_j + N - j)) / det(x_i^(N - j)).

    Degenerates when parameters nearly coincide; compare only away from the
    Vandermonde cancellation locus.
    """
    n = len(x)
    lam = list(itertools.accumulate(reversed(k)))[::-1] + [0] * (n - len(k))
    num = np.array([[xi ** (lam[j] + n - 1 - j) for j in range(n)] for xi in x])
    den = np.array([[xi ** (n - 1 - j) for j in range(n)] for xi in x])
    return complex(np.linalg.det(num) / np.linalg.det(den))


def isobaric_alphas(p: int, shifts: tuple[complex, ...]) -> tuple[complex, ...]:
    """(p^(-s_1), ..., p^(-s_N)) by CPython's scalar complex power."""
    return tuple(complex(p) ** (-s) for s in shifts)


def random_satake_table(degree: int, prime_bound: int, seed: int) -> dict[int, tuple[complex, ...]]:
    """Prime -> Satake parameters, drawn one prime at a time in ascending order:
    degree - 1 angles, their points on the unit circle, and the inverse product."""
    rng = np.random.default_rng(seed)
    table = {}
    for p in primes_up_to(prime_bound):
        angles = rng.uniform(0.0, 2.0 * np.pi, degree - 1)
        a = [complex(np.exp(1j * t)) for t in angles]
        a.append(1 / math.prod(a, start=1 + 0j))
        table[p] = tuple(a)
    return table


def rankin_selberg_alphas(a: tuple[complex, ...], b: tuple[complex, ...]) -> tuple[complex, ...]:
    """Every scalar product a_i b_j, i major."""
    return tuple(x * y for x in a for y in b)


def hurwitz_zeta_mp(s: complex, a: Fraction, precision: int) -> complex:
    """zeta(s, a) from mpmath at precision bits of significand."""
    with mp.workprec(precision):
        return complex(mp.zeta(mp.mpc(s), mp.mpf(a.numerator) / a.denominator))
