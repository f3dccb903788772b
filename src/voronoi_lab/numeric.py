"""Error-tracked complex scalars and shared root-of-unity tables.

Exponential sums are evaluated in double precision from cached tables of
e(k/M).  Scalar sums (ComplexValue results) carry a conservative absolute
error bound so that verification sweeps can distinguish "identity holds to
rounding" from "identity fails".  Bounds are deliberately loose (a factor ~n over the
pairwise-summation worst case) and cost nothing to maintain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Table entries exp(2*pi*i*k/M) are off by a few ulps: the argument k/M is
# in [0, 2*pi) so no reduction error beyond the rounding of 2*pi*k/M itself.
TABLE_ENTRY_ERR = 4.0 * EPS

_root_tables: dict[int, np.ndarray] = {}


def roots_of_unity(m: int) -> np.ndarray:
    """Length-m read-only table of e(k/m) = exp(2*pi*i*k/m), k = 0..m-1.

    Cached per modulus; callers index it with residues reduced mod m.
    """
    tab = _root_tables.get(m)
    if tab is None:
        if m <= 0:
            raise ValueError("modulus must be positive")
        tab = np.exp((2j * np.pi / m) * np.arange(m))
        tab.setflags(write=False)
        _root_tables[m] = tab
    return tab


def additive_character(k: int, m: int) -> complex:
    """e(k/m) for integer k, any sign."""
    return complex(roots_of_unity(m)[k % m])


def sum_error_bound(n_terms: int, max_abs: float) -> float:
    """Rounding bound for a sum of n_terms values of magnitude <= max_abs.

    Covers per-term table error plus accumulation rounding: n*max_abs times
    (TABLE_ENTRY_ERR + max(log2(n)+2, n)*eps), the worst case of sequential
    summation and far above numpy's pairwise sums.  gauss_sum_error applies
    it to the FFT that builds Gauss-sum vectors, whose rounding grows only
    like eps*log2(c)*sqrt(phi(c)) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 24.1); tests/test_kernels.py checks those
    vectors against mpmath within this bound.
    """
    if n_terms <= 0 or max_abs == 0.0:
        return 0.0
    n = float(n_terms)
    depth = max(1.0, math.log2(n) + 2.0)
    accum = max(depth, n) * EPS
    return n * max_abs * (TABLE_ENTRY_ERR + accum)


def _coerce(x) -> "ComplexValue":
    if isinstance(x, ComplexValue):
        return x
    if isinstance(x, Fraction):
        v = complex(float(x))
        return ComplexValue(v, abs(v) * EPS)
    if isinstance(x, (int, float, complex, np.integer, np.floating, np.complexfloating)):
        return ComplexValue(complex(x), 0.0)
    return NotImplemented  # type: ignore[return-value]


@dataclass(frozen=True)
class ComplexValue:
    """A complex number with a conservative absolute error bound.

    Arithmetic propagates bounds to first order plus a rounding ulp on the
    result; bounds only ever grow.  Exact integers and floats enter with
    err = 0.
    """

    value: complex
    err: float = 0.0

    def __post_init__(self):
        if not (self.err >= 0.0) or math.isnan(self.err):
            raise ValueError(f"error bound must be >= 0, got {self.err!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(x) -> "ComplexValue":
        return ComplexValue(complex(x), 0.0)

    # -- queries -----------------------------------------------------------

    @property
    def real(self) -> float:
        return self.value.real

    @property
    def imag(self) -> float:
        return self.value.imag

    def __abs__(self) -> float:
        return abs(self.value)

    def within(self, other, tol: float = 0.0) -> bool:
        """True if self and other can be equal: |v1 - v2| <= err1 + err2 + tol."""
        o = _coerce(other)
        return abs(self.value - o.value) <= self.err + o.err + tol

    def distance(self, other) -> float:
        o = _coerce(other)
        return abs(self.value - o.value)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ComplexValue":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.value + o.value
        return ComplexValue(v, self.err + o.err + abs(v) * EPS)

    __radd__ = __add__

    def __neg__(self) -> "ComplexValue":
        return ComplexValue(-self.value, self.err)

    def __sub__(self, other) -> "ComplexValue":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.value - o.value
        return ComplexValue(v, self.err + o.err + abs(v) * EPS)

    def __rsub__(self, other) -> "ComplexValue":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other) -> "ComplexValue":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = self.value * o.value
        err = (
            self.err * abs(o.value)
            + o.err * abs(self.value)
            + self.err * o.err
            + abs(v) * 2.0 * EPS
        )
        return ComplexValue(v, err)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexValue":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        mag = abs(o.value)
        if mag <= o.err:
            raise ZeroDivisionError("divisor not bounded away from zero")
        v = self.value / o.value
        err = (self.err + abs(v) * o.err) / (mag - o.err) + abs(v) * 2.0 * EPS
        return ComplexValue(v, err)

    def __rtruediv__(self, other) -> "ComplexValue":
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def conjugate(self) -> "ComplexValue":
        return ComplexValue(self.value.conjugate(), self.err)

    def widened(self, extra: float) -> "ComplexValue":
        """Same value with the bound enlarged by extra >= 0."""
        if extra < 0:
            raise ValueError("extra must be >= 0")
        return ComplexValue(self.value, self.err + extra)


def power_with_error(base: float, s: complex) -> ComplexValue:
    """base**s for real base > 0 and complex s, with a rounding bound.

    Computed as exp(s*log(base)); the bound covers the log/exp rounding chain.
    """
    if base <= 0.0:
        raise ValueError("base must be positive")
    lg = math.log(base)
    v = complex(np.exp(s * lg))
    # exponent rounding eps*|s*lg| feeds through exp with derivative |v|
    err = abs(v) * EPS * (abs(s) * abs(lg) + 4.0)
    return ComplexValue(v, err)
