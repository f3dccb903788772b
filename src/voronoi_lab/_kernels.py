"""The hyper-Kloosterman layer kernel.

kloosterman_vector walks the divisor-chain tree with its own stacked matrix
products and calls kl_layer only for the tables of the walk's leaves, the
innermost layer (q_K, d_K) of each chain.  A layer is one matrix product:
the m_prev x units block of roots e(d*u*r / m_prev), gathered from the root
table, times the tail rows at the unit inverses.  The tail carries one
column per n, so every n of a leaf goes through the layer in one BLAS call.

All index arithmetic stays far below 2^63: moduli in sweeps are < 10^6 and
the products formed here are r * ((d * u) % m_prev) with both factors < m_prev.
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
             e(d*x*r / m_prev) * tail[x^-1],  r = 0..m_prev-1,
    for a 1-D tail, and column by column for a 2-D tail.
    """
    base = (d % m_prev) * units % m_prev
    exponents = np.arange(m_prev, dtype=np.int64)[:, None] * base[None, :]
    exponents %= m_prev  # in place: the m_prev x units index is the layer's largest array
    return roots_prev[exponents] @ tail[invs]
