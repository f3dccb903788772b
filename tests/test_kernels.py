"""The exponential-sum kernels against oracles that share none of their code."""

import cmath
import functools
import math

import mpmath
import numpy as np

from voronoi_lab._kernels import kl_layer
from voronoi_lab.characters import primitive_characters
from voronoi_lab.exponential_sums import gauss_sum_error, gauss_sum_vector
from voronoi_lab.numeric import roots_of_unity, sum_error_bound
from voronoi_lab.residues import divisors, inverse_table, unit_residues


def test_kl_layer_matches_double_loop():
    rng = np.random.default_rng(5)
    # the last d of each modulus shares a factor with it
    for m, ds in ((7, (1, 3, 14)), (36, (1, 5, 6)), (199, (2, 198, 398)), (2310, (1, 13, 42))):
        units = unit_residues(m)
        invs = inverse_table(m)[units]
        tail = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        bound = sum_error_bound(len(units), float(np.max(np.abs(tail))))
        xs = [x for x in range(m) if math.gcd(x, m) == 1]
        rs = range(m) if m < 1000 else sorted({0, 1, m - 1} | set(rng.integers(0, m, 40).tolist()))
        for d in ds:
            got = kl_layer(units, invs, d, m, roots_of_unity(m), tail)
            for r in rs:
                want = 0j
                for x in xs:
                    want += cmath.exp(2j * math.pi * (d * x * r % m) / m) * tail[pow(x, -1, m)]
                assert abs(got[r] - want) <= bound, (m, d, r)


@functools.lru_cache(maxsize=None)
def _e30(k: int, den: int):
    """e(k/den) at 30 digits."""
    with mpmath.workdps(30):
        return mpmath.expjpi(2 * mpmath.mpf(k) / den)


def _gauss_oracle(chi_star, c, ms):
    """sum over units u mod c of chi*(u) e(mu/c) for each m, from exact angles.

    chi*(u) = e(value_fraction(u)); with den a common denominator of those
    fractions and of 1/c, every term is e(k/den) for an integer k.
    """
    units = [u for u in range(c) if math.gcd(u, c) == 1]
    turns = [chi_star.value_fraction(u) for u in units]
    den = math.lcm(c, *(t.denominator for t in turns))
    ks = [t.numerator * (den // t.denominator) for t in turns]
    step = den // c
    with mpmath.workdps(30):
        return [
            complex(mpmath.fsum(_e30((k + m * u * step) % den, den) for k, u in zip(ks, units)))
            for m in ms
        ]


def test_gauss_sum_vector_matches_mpmath():
    rng = np.random.default_rng(11)
    cases = []
    for c in range(1, 41):  # every character and every m
        for cstar in divisors(c):
            for chi_star in primitive_characters(cstar):
                cases.append((chi_star, c, range(c)))
    for c in (199, 256, 840, 1009, 2310):  # a few characters, sampled m
        stars = dict.fromkeys(
            [primitive_characters(1)[0]]
            + [chars[-1] for cstar in divisors(c)[-3:] if (chars := primitive_characters(cstar))]
        )
        ms = {0, 1, c - 1, c // 2, c // 6} | set(rng.integers(0, c, 6).tolist())
        cases += [(chi_star, c, sorted(ms)) for chi_star in stars]
    for chi_star, c, ms in cases:
        vec = gauss_sum_vector(chi_star, c)
        for m, want in zip(ms, _gauss_oracle(chi_star, c, ms)):
            assert abs(vec[m] - want) <= gauss_sum_error(c), (chi_star.label, c, m)
