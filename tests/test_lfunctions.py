"""Hurwitz zeta, Dirichlet L-values, gamma ratios, functional equation."""

import cmath
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from voronoi_lab import lfunctions
from voronoi_lab.characters import enumerate_characters, primitive_characters
from voronoi_lab.harness import SweepConfig, run_suite
from voronoi_lab.lfunctions import (
    GammaFactorSpec,
    LValueRequest,
    _digamma,
    _loggamma,
    bernoulli_number,
    dirichlet_l,
    dirichlet_l_refusal,
    functional_equation_check,
    g_pm_eval,
    log_gamma,
    twisted_l_isobaric,
)

from oracles import hurwitz_zeta, hurwitz_zeta_mp, induce, principal

CHI4 = primitive_characters(4)[0]


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_euler_maclaurin_weights_are_the_rounded_bernoulli_ratios():
    # the literal table is B_2j/(2j)! for j = 1..20, rounded once to float
    assert len(lfunctions._EM_WEIGHTS) == 20
    for j, weight in enumerate(lfunctions._EM_WEIGHTS, start=1):
        want = float(bernoulli_number(2 * j) / math.factorial(2 * j))
        assert weight.hex() == want.hex(), j


def test_hurwitz_point_oracles():
    assert abs(hurwitz_zeta(2, 1) - 1.6449340668482264) < 1e-12
    assert abs(hurwitz_zeta(-1, 1) - (-1 / 12)) < 1e-12


def test_hurwitz_random_grid_vs_mpmath():
    rng = np.random.default_rng(7)
    checked = 0
    with mp.workdps(40):
        for _ in range(100):
            radius = rng.uniform(0, 30)
            theta = rng.uniform(0, 2 * math.pi)
            s = complex(radius * math.cos(theta), radius * math.sin(theta))
            if abs(s - 1) < 1e-3:
                continue
            c = int(rng.integers(1, 25))
            r = int(rng.integers(1, c + 1))
            mine = hurwitz_zeta(s, Fraction(r, c))
            ref = complex(mp.zeta(mp.mpc(s), mp.mpf(r) / c))
            assert abs(mine - ref) <= max(1e-12, 5e-14 * abs(ref)), (s, r, c)
            checked += 1
    assert checked > 90


def test_hurwitz_seam_and_corners():
    # summation/reflection handoff plus far corners of the |s| <= 30 disc
    points = [-0.25, -0.25 + 29.9j, -0.26, -30, -29.5 + 1j, 0.5, 29.5 + 1j, 1 + 30j, -1e-7]
    with mp.workdps(40):
        for s in points:
            for r, c in [(1, 2), (1, 24), (23, 24), (1, 1), (5, 7)]:
                mine = hurwitz_zeta(s, Fraction(r, c))
                ref = complex(mp.zeta(mp.mpc(s), mp.mpf(r) / c))
                assert abs(mine - ref) <= max(1e-12, 5e-14 * abs(ref)), (s, r, c)


def test_hurwitz_pole_and_shift_domain():
    for bad in (1, 1 + 1e-9j, 1.0000005):
        with pytest.raises(ValueError):
            hurwitz_zeta(bad, Fraction(1, 3))
    with pytest.raises(ValueError):
        hurwitz_zeta(-2.5, 0.3)  # not an exact small rational
    # negative-integer s short-circuits through the Bernoulli formula
    with mp.workdps(40):
        assert abs(hurwitz_zeta(-2, 0.3) - complex(mp.zeta(-2, mp.mpf(0.3)))) < 1e-12
        assert abs(hurwitz_zeta(-2.5, 0.25) - complex(mp.zeta(-2.5, mp.mpf(1) / 4))) < 1e-12


def test_hurwitz_precision_agreement():
    v1 = hurwitz_zeta(-12.5 + 3j, Fraction(3, 7))
    v2 = hurwitz_zeta_mp(-12.5 + 3j, Fraction(3, 7), precision=120)
    assert abs(v1 - v2) < max(1e-12, 1e-13 * abs(v1))


def test_dirichlet_l_point_oracles():
    assert abs(dirichlet_l(2, CHI4) - 0.915965594177219015) < 1e-10
    assert abs(dirichlet_l(0, CHI4) - 0.5) < 1e-12
    assert abs(dirichlet_l(3, principal(1)) - complex(mp.zeta(3))) < 1e-12
    assert abs(dirichlet_l(1, CHI4) - math.pi / 4) < 1e-12


def test_dirichlet_l_against_direct_series():
    M = 2 * 10**5
    narr = np.arange(1, M + 1, dtype=np.float64)
    idx = np.arange(1, M + 1)
    for cstar in range(1, 13):
        for chi in primitive_characters(cstar):
            vv = chi.value_vector[idx % cstar]
            for s in (2, 3):
                partial = complex(np.sum(vv * narr ** (-float(s))))
                mine = dirichlet_l(s, chi)
                if cstar == 1:
                    # Euler-Maclaurin remainder for the positive tail
                    direct = partial + M ** (1 - s) / (s - 1) + 0.5 * M ** (-s)
                    slack = 1e-12
                else:
                    direct = partial
                    slack = 2 * cstar * M ** (-float(s))  # Abel bound on the tail
                assert abs(mine - direct) < 1e-10 + slack, (cstar, chi.label, s)


def test_dirichlet_l_imprimitive_euler_factors():
    chi12 = induce(CHI4, 12)
    for s in (2.3 + 1.1j, 1):
        want = dirichlet_l(s, CHI4) * (1 - CHI4.value_vector[3 % 4] * 3 ** (-complex(s)))
        got = dirichlet_l(s, chi12)
        assert abs(got - want) < 1e-12 * max(1, abs(want))


def _dirichlet_l_per_residue(s: complex, chi) -> complex:
    """dirichlet_l left of Re s = -0.25 the way it was first written: one
    reflected zeta(s, r/c), with its own c Euler-Maclaurin sums, per unit r."""
    c = chi.modulus
    u = 1.0 - s
    pref = 2.0 * cmath.exp(_loggamma(u) - u * math.log(2.0 * math.pi * c))
    terms = []
    for r in range(1, c + 1):
        if math.gcd(r, c) != 1:
            continue
        zeta_r = pref * lfunctions._csum(
            [
                cmath.cos(math.pi * u / 2.0 - 2.0 * math.pi * k * r / c)
                * lfunctions._hurwitz_em(u, k / c)
                for k in range(1, c + 1)
            ]
        )
        terms.append(chi.value_vector[r % c] * zeta_r)
    return c ** (-s) * lfunctions._csum(terms)


def _chex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def test_reflected_dirichlet_l_keeps_the_per_residue_bits():
    # even and odd, primitive and imprimitive characters with c <= 30
    chars = [
        *(chi for c in (1, 4, 5, 7) for chi in primitive_characters(c)),
        induce(CHI4, 12),
        *(chi for chi in enumerate_characters(30) if chi.conductor in (1, 3, 5, 15)),
    ]
    assert {chi.parity for chi in chars} == {1, -1}
    for s in (-1.5, -1.5 + 1j, -1.5 - 1j, -3.7 + 2j):
        for chi in chars:
            want = _dirichlet_l_per_residue(complex(s), chi)
            assert _chex(dirichlet_l(s, chi)) == _chex(want), (s, chi.modulus, chi.label)


def test_reflected_dirichlet_l_reads_one_euler_maclaurin_table(monkeypatch):
    # c sums zeta(1 - s, k/c), k = 1..c, serve every unit r; one table per r
    # would make phi(c) c of them
    shifts = []
    em = lfunctions._hurwitz_em
    monkeypatch.setattr(lfunctions, "_hurwitz_em", lambda s, a: shifts.append(a) or em(s, a))
    for c in (5, 12, 30):
        shifts.clear()
        dirichlet_l(-1.5 + 1j, enumerate_characters(c)[-1])
        assert shifts == [k / c for k in range(1, c + 1)], c


def test_dirichlet_l_principal_pole():
    with pytest.raises(ValueError):
        dirichlet_l(1, principal(6))


def test_dirichlet_l_raises_exactly_its_refusal():
    # config validation reads the same rule: where dirichlet_l_refusal names a
    # message dirichlet_l raises it, and where it gives None dirichlet_l evaluates
    chi_4099 = primitive_characters(4099)[1]
    for s, chi, want in (
        (1, principal(6), "pole at s = 1"),
        (1 + 1e-7, CHI4, "exactly at s = 1"),
        (1 - 1e-7j, CHI4, "exactly at s = 1"),
        (-1.5 + 2j, chi_4099, "reflection formula"),
        (1, CHI4, None),
        (-1.5, CHI4, None),
        (-2, chi_4099, None),  # exact non-positive integers take the Bernoulli formula
    ):
        refusal = dirichlet_l_refusal(s, chi.modulus, chi.conductor == 1)
        if want is None:
            assert refusal is None, s
            assert cmath.isfinite(dirichlet_l(s, chi)), s
        else:
            assert want in refusal, s
            with pytest.raises(ValueError, match=re.escape(refusal)):
                dirichlet_l(s, chi)
    # the reflection limit: a modulus above 4096 left of Re s = -0.25, in double precision only
    assert dirichlet_l_refusal(-1.5, 4096, False) is None
    assert dirichlet_l_refusal(-0.25, 4097, False) is None
    assert dirichlet_l_refusal(-0.2500001, 4097, False) is not None
    assert dirichlet_l_refusal(-1.5, 4097, False, precision=64) is None
    assert dirichlet_l_refusal(1 + 1e-7, 4097, False, precision=64) is not None


def test_log_gamma():
    assert abs(log_gamma(3.5 + 2j) - complex(mp.loggamma(mp.mpc(3.5, 2)))) < 1e-12
    with pytest.raises(ValueError):
        log_gamma(-3 + 1e-8j)


def _loggamma_error(z: complex) -> float:
    """|_loggamma(z) - log Gamma(z)| against 200-bit mpmath.

    The imaginary parts are compared as they are, not mod 2 pi, so a result
    off the principal branch fails.
    """
    with mp.workprec(200):
        return abs(complex(mp.mpc(_loggamma(z)) - mp.loggamma(mp.mpc(z))))


def test_loggamma_grid_on_the_principal_branch():
    rng = np.random.default_rng(19)
    grid = rng.uniform(-6, 12, 20_000) + 1j * rng.uniform(-12, 12, 20_000)
    assert max(_loggamma_error(complex(z)) for z in grid) <= 1e-13


def test_loggamma_next_to_the_poles():
    # sin(pi z) in the reflection must keep its relative accuracy here; the
    # naive cmath.sin(math.pi * z) is off by about 5e-10 next to -1 .. -6
    points = []
    for pole in range(0, -7, -1):
        for radius in (1e-6, 1e-5, 1e-4, 1e-3):
            points += [pole - radius, pole + radius]
            points += [pole + radius * cmath.exp(2j * math.pi * (k + 0.5) / 16) for k in range(16)]
    assert max(_loggamma_error(complex(z)) for z in points) <= 1e-13


def test_loggamma_at_every_default_sweep_argument(monkeypatch):
    seen = set()

    def recording(z):
        seen.add(z)
        return _loggamma(z)

    monkeypatch.setattr(lfunctions, "_loggamma", recording)
    for suite in ("lfunc", "voronoi-core"):
        run_suite(SweepConfig(suite=suite, seed=1))
    # the g_pm_eval pairs of both suites, left of 0 included
    assert seen and min(z.real for z in seen) < 0
    assert max(_loggamma_error(z) for z in seen) <= 1e-13


def test_digamma_at_rationals():
    with mp.workprec(200):
        for c in range(1, 65):
            for r in range(1, c + 1):
                exact = mp.digamma(mp.mpf(r) / c)
                assert abs(float((_digamma(r / c) - exact) / exact)) <= 1e-14, (r, c)


def test_g_pm_classical_ratios():
    spec_even = GammaFactorSpec((0,), 0)
    assert abs(g_pm_eval(0.5, spec_even) - 1) < 1e-14
    with mp.workdps(40):
        for s in (-1.5, -0.3, 0.25 + 2j, 2.2 - 1j):
            classical = complex(
                mp.power(mp.pi, -(mp.mpf(1) / 2 - mp.mpc(s)))
                * mp.gamma((1 - mp.mpc(s)) / 2)
                / mp.gamma(mp.mpc(s) / 2)
            )
            assert abs(g_pm_eval(s, spec_even) - classical) < 1e-12 * max(1, abs(classical))
        spec_odd = GammaFactorSpec((0,), 1)
        for s in (-1.5, 0.25 + 2j):
            classical = complex(
                mp.mpc(0, -1)
                * mp.power(mp.pi, -(mp.mpf(1) / 2 - mp.mpc(s)))
                * mp.gamma((2 - mp.mpc(s)) / 2)
                / mp.gamma((1 + mp.mpc(s)) / 2)
            )
            assert abs(g_pm_eval(s, spec_odd) - classical) < 1e-12 * max(1, abs(classical))


def test_g_pm_factors_over_imaginary_lambdas():
    lams = (-1j, 0, 1j)
    s = -0.75 + 0.4j
    for delta in (0, 1):
        whole = g_pm_eval(s, GammaFactorSpec(lams, delta))
        parts = 1
        for lam in lams:
            parts *= g_pm_eval(s, GammaFactorSpec((lam,), delta))
        assert abs(whole - parts) < 1e-12 * max(1, abs(parts))
    v1 = g_pm_eval(-1.5, GammaFactorSpec(lams, 1))
    v2 = g_pm_eval(-1.5, GammaFactorSpec(lams, 1), precision=150)
    assert abs(v1 - v2) < 1e-12 * max(1, abs(v1))


def test_twisted_l_is_shifted_product():
    req = LValueRequest(2, CHI4, (1j, 0, -1j))
    prod = dirichlet_l(2 + 1j, CHI4) * dirichlet_l(2, CHI4) * dirichlet_l(2 - 1j, CHI4)
    assert abs(twisted_l_isobaric(req, {}) - prod) < 1e-13 * abs(prod)


def test_functional_equation_sweep():
    worst = 0.0
    for cstar in range(3, 9):
        for chi in primitive_characters(cstar):
            for shifts in [(0j,), (1j, 0j, -1j)]:
                for s in (-1.5, -0.5, 0.25 + 2j):
                    lhs, rhs = functional_equation_check(LValueRequest(s, chi, shifts))
                    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
                    worst = max(worst, rel)
                    assert rel < 1e-9, (cstar, chi.label, shifts, s, rel)
    assert worst < 1e-9


def test_functional_equation_precision_mode():
    lhs, rhs = functional_equation_check(
        LValueRequest(-1.5, CHI4, (1j, 0j, -1j)), precision=160
    )
    assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs))


def test_functional_equation_rejects_trivial_character():
    with pytest.raises(ValueError):
        functional_equation_check(LValueRequest(2, principal(1), (0j,)))


def test_conjugate_symmetry():
    for s in (2.0, 3.5):
        for chi in primitive_characters(5):
            a = twisted_l_isobaric(LValueRequest(s, chi, (1j, 0j, -1j)), {})
            b = twisted_l_isobaric(LValueRequest(s, chi.conjugate(), (1j, 0j, -1j)), {})
            assert abs(a - b.conjugate()) < 1e-12 * max(1, abs(a))
