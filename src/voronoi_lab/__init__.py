"""Verification toolkit for twisted Dirichlet series identities.

The package computes Gauss sums, hyper-Kloosterman sums, Schur-polynomial
Hecke coefficients, Dirichlet L-values and the truncated series appearing in
Voronoi-type summation formulas, and ships a sweep harness that checks the
identities relating them over finite parameter ranges.  The sums are float64
and are checked against independent oracles (direct nested summation, mpmath
at high precision), which the tests keep in tests/oracles.py.
"""

__version__ = "0.1.0"
