"""Dirichlet characters as exponent vectors on fixed unit-group generators.

A character mod c is stored as one exponent per cyclic factor of (Z/c)^x
(see residues.unit_group); its value at a unit u is e(sum_i k_i * t_i(u) / s_i)
where t_i is the factor's discrete log and s_i its order.  Values are exact
rationals turned into complex numbers through the shared root-of-unity
tables, so character arithmetic never accumulates rounding error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

import numpy as np

from .numeric import roots_of_unity
from .residues import UnitGroup, unit_group, valuation


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod `modulus` with one exponent per unit-group factor."""

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        g = unit_group(self.modulus)
        if len(self.exponents) != len(g.factors):
            raise ValueError(
                f"need {len(g.factors)} exponents for modulus {self.modulus}, "
                f"got {len(self.exponents)}"
            )
        if any(not (0 <= k < f.order) for k, f in zip(self.exponents, g.factors)):
            raise ValueError("exponents must be reduced mod the factor orders")

    # -- structure -----------------------------------------------------------

    @property
    def group(self) -> UnitGroup:
        return unit_group(self.modulus)

    @property
    def label(self) -> str:
        """Stable identifier used in reports: modulus, then exponent vector."""
        return f"{self.modulus}:" + ",".join(map(str, self.exponents))

    @cached_property
    def order(self) -> int:
        return reduce(
            math.lcm,
            (f.order // math.gcd(f.order, k) for k, f in zip(self.exponents, self.group.factors)),
            1,
        )

    @cached_property
    def conductor(self) -> int:
        """Smallest modulus of a character inducing this one.

        Per prime power p^e | modulus: for odd p the factor is cyclic and a
        character of p-part order p^a needs f = a + 1 digits; for p = 2 the
        <-1> part alone needs 4 and a nontrivial <5> part with 2-adic
        valuation v needs 2^(e - v).
        """
        cond = 1
        factors = self.group.factors
        i = 0
        while i < len(factors):
            f = factors[i]
            k = self.exponents[i]
            if f.prime != 2:
                d = f.order // math.gcd(f.order, k)
                if d > 1:
                    cond *= f.prime ** (valuation(d, f.prime) + 1)
                i += 1
            elif f.prime_exp == 2:
                if k != 0:
                    cond *= 4
                i += 1
            else:
                # two factors <-1>, <5> for the same 2-power
                a, b = self.exponents[i], self.exponents[i + 1]
                if b != 0:
                    cond *= 2 ** (f.prime_exp - valuation(b, 2))
                elif a != 0:
                    cond *= 4
                i += 2
        return cond

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    @cached_property
    def parity(self) -> int:
        """chi(-1): +1 (even) or -1 (odd)."""
        if self.modulus <= 2:
            return 1
        v = self.value_fraction(self.modulus - 1)
        return 1 if v == 0 else -1

    # -- evaluation ------------------------------------------------------------

    def _turns(self, n: int) -> tuple[int, int] | None:
        """(k, m) with chi(n) = e(k/m), m the group exponent and 0 <= k < m.

        None on non-units.  Integer arithmetic only: the sum of k_i t_i / s_i
        over the factors is taken over the common denominator m.
        """
        n %= self.modulus
        if math.gcd(n, self.modulus) != 1:
            return None
        group = self.group
        m = group.exponent
        k = 0
        for e, f in zip(self.exponents, group.factors):
            if e:
                k += e * int(f.dlog[n % f.prime_power]) * (m // f.order)
        return k % m, m

    def value_fraction(self, n: int) -> Fraction | None:
        """Exact argument of chi(n) as a fraction of a full turn, None on non-units.

        chi(n) = e(value_fraction(n)); the fraction is reduced mod 1.
        """
        turns = self._turns(n)
        return None if turns is None else Fraction(*turns)

    def __call__(self, n: int) -> complex:
        turns = self._turns(n)
        if turns is None:
            return 0j
        k, m = turns
        g = math.gcd(k, m)
        return complex(roots_of_unity(m // g)[k // g])

    @cached_property
    def turn_table(self) -> np.ndarray:
        """Read-only int64[modulus]: k with chi(u) = e(k/m) and 0 <= k < m, -1 off the units.

        m is the group exponent, so the table holds the k of _turns for
        every u = 0..modulus-1 at once.
        """
        c = self.modulus
        m = self.group.exponent
        u = np.arange(c, dtype=np.int64)
        unit = np.gcd(u, c) == 1
        k_tot = np.zeros(c, dtype=np.int64)
        for k, f in zip(self.exponents, self.group.factors):
            if k:
                step = k * (m // f.order)
                k_tot[unit] += step * f.dlog[u[unit] % f.prime_power]
        table = np.where(unit, k_tot % m, -1)
        table.setflags(write=False)
        return table

    @cached_property
    def value_vector(self) -> np.ndarray:
        """Read-only complex128[modulus] of chi(u) for u = 0..modulus-1."""
        turns = self.turn_table
        vec = np.where(turns >= 0, roots_of_unity(self.group.exponent)[turns], 0j)
        vec.setflags(write=False)
        return vec

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        if other.modulus != self.modulus:
            raise ValueError("can only multiply characters of the same modulus")
        exps = tuple(
            (a + b) % f.order
            for a, b, f in zip(self.exponents, other.exponents, self.group.factors)
        )
        return DirichletCharacter(self.modulus, exps)

    def conjugate(self) -> "DirichletCharacter":
        exps = tuple((-k) % f.order for k, f in zip(self.exponents, self.group.factors))
        return DirichletCharacter(self.modulus, exps)

    # -- primitive core --------------------------------------------------------

    def primitive(self) -> "DirichletCharacter":
        """The primitive character that induces this one (modulus = conductor)."""
        c0 = self.conductor
        if c0 == self.modulus:
            return self
        g0 = unit_group(c0)
        exps = []
        for f in g0.factors:
            gen = _lift_unit(f.generator, c0, self.modulus)
            v = self.value_fraction(gen)
            k = v * f.order
            if k.denominator != 1:
                raise ArithmeticError("conductor computation is inconsistent")
            exps.append(int(k) % f.order)
        return DirichletCharacter(c0, tuple(exps))


def _lift_unit(g: int, c0: int, c: int) -> int:
    """Some x = g mod c0 with gcd(x, c) = 1 (c0 | c)."""
    x = g % c0
    if x == 0 and c0 == 1:
        x = 1
    for _ in range(c // c0 + 1):
        if math.gcd(x, c) == 1:
            return x
        x += c0
    raise ArithmeticError(f"no unit lift of {g} from {c0} to {c}")  # unreachable


@lru_cache(maxsize=None)
def enumerate_characters(c: int) -> tuple[DirichletCharacter, ...]:
    """All phi(c) characters mod c in a fixed (lexicographic exponent) order."""
    g = unit_group(c)
    ranges = [range(f.order) for f in g.factors]
    return tuple(DirichletCharacter(c, exps) for exps in itertools.product(*ranges))


@lru_cache(maxsize=None)
def primitive_characters(c: int) -> tuple[DirichletCharacter, ...]:
    """The primitive characters of conductor exactly c."""
    return tuple(chi for chi in enumerate_characters(c) if chi.is_primitive)
