"""Shared root-of-unity tables and the summation rounding bound.

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


# Nothing builds one; perfbench/tracer.py still counts ComplexValue.__init__.
@dataclass(frozen=True)
class ComplexValue:
    value: complex
    err: float = 0.0
