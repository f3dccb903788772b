"""The hyper-Kloosterman layer kernel.

The only performance-critical inner loop in the package is the layered
evaluation of hyper-Kloosterman vectors (one layer per nested summation
variable).  It is a gather over a units x m_prev index matrix rather than a
length-m_prev FFT: at the layer moduli of the benchmark workloads (at most
135) the FFT route measured slower end to end.

All index arithmetic stays far below 2^63: moduli in sweeps are < 10^6 and
the products formed here are (d * x) % m_prev with both factors < m_prev^2.
"""

from __future__ import annotations

import numpy as np

# No jit path exists; perfbench/child.py still reads these for its fingerprint.
HAVE_NUMBA = False
USE_NUMBA = False


def kl_layer(
    units: np.ndarray,
    invs: np.ndarray,
    d: int,
    m_prev: int,
    roots_prev: np.ndarray,
    tail: np.ndarray,
) -> np.ndarray:
    """One summation layer of the hyper-Kloosterman recursion.

    out[r] = sum over units x (with precomputed inverses) of
             e(d*x*r / m_prev) * tail[x^-1],  r = 0..m_prev-1.
    """
    base = (d % m_prev) * units % m_prev
    weights = tail[invs]
    idx = base[:, None] * np.arange(m_prev, dtype=np.int64)[None, :] % m_prev
    return (weights[:, None] * roots_prev[idx]).sum(axis=0)
