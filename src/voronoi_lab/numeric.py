"""Shared root-of-unity tables, the summation rounding bound and split complex arithmetic.

Exponential sums are evaluated in double precision from cached tables of
e(k/M).  sum_error_bound gives a conservative rounding bound for such a sum
(a factor ~n over the pairwise-summation worst case).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def sum_error_bound(n_terms: int, max_abs: float) -> float:
    """Rounding bound for a sum of n_terms values of magnitude <= max_abs.

    Covers per-term table error plus accumulation rounding: n*max_abs times
    (TABLE_ENTRY_ERR + max(log2(n)+2, n)*eps), the worst case of sequential
    summation and far above numpy's pairwise sums.  gauss_sum_error in
    tests/oracles.py applies it to the FFT that builds Gauss-sum vectors,
    whose rounding grows only like eps*log2(c)*sqrt(phi(c)) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 24.1);
    tests/test_kernels.py checks those vectors against mpmath within this
    bound.
    """
    if n_terms <= 0 or max_abs == 0.0:
        return 0.0
    n = float(n_terms)
    depth = max(1.0, math.log2(n) + 2.0)
    accum = max(depth, n) * EPS
    return n * max_abs * (TABLE_ENTRY_ERR + accum)


def split_product(a, b):
    """(re, im) of the complex product a * b, each given as an (re, im) pair.

    The parts are floats or float arrays, combined in the order of CPython's
    complex product, so every entry has the bits of the scalar product;
    numpy's complex ufuncs may round differently.
    """
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def split_quotient(a, b):
    """(re, im) of the complex quotient a / b, each given as an (re, im) pair.

    Smith's branches as in CPython's complex division, so every entry has the
    bits of the scalar quotient; a zero divisor gives nan or inf, where the
    scalar raises.
    """
    (ar, ai), (br, bi) = a, b
    real_side = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):
        ratio = np.where(real_side, bi / br, br / bi)
        denom = np.where(real_side, br + bi * ratio, br * ratio + bi)
        return (
            np.where(real_side, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(real_side, ai - ar * ratio, ai * ratio - ar) / denom,
        )


# Nothing builds one; perfbench/tracer.py still counts ComplexValue.__init__.
@dataclass(frozen=True)
class ComplexValue:
    value: complex
    err: float = 0.0
