"""Dirichlet character enumeration, orthogonality, conductor bookkeeping."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from voronoi_lab.characters import enumerate_characters, primitive_characters
from voronoi_lab.numeric import roots_of_unity
from voronoi_lab.residues import euler_phi, unit_residues

from oracles import induce, principal


def test_enumeration_counts_and_labels():
    for c in (1, 2, 3, 4, 5, 8, 12, 15, 24):
        chars = enumerate_characters(c)
        assert len(chars) == euler_phi(c)
        assert len({ch.label for ch in chars}) == len(chars)
        for ch in chars:
            assert ch.modulus == c


def _fraction_reference(chi, n):
    # The Fraction sum of k_i t_i / s_i over the unit-group factors, reduced
    # mod 1, and the root of unity read at its reduced denominator.
    n %= chi.modulus
    if math.gcd(n, chi.modulus) != 1:
        return None, 0j
    acc = Fraction(0)
    for k, f in zip(chi.exponents, chi.group.factors):
        if k:
            acc += Fraction(k * int(f.dlog[n % f.prime_power]), f.order)
    acc %= 1
    return acc, complex(roots_of_unity(acc.denominator)[acc.numerator])


def test_values_match_fraction_reference_bit_for_bit():
    for c in range(1, 73):
        for chi in enumerate_characters(c):
            for n in range(-3, c + 3):
                frac, val = _fraction_reference(chi, n)
                assert chi.value_fraction(n) == frac, (chi.label, n)
                got = chi(n)
                assert struct.pack("<dd", got.real, got.imag) == struct.pack(
                    "<dd", val.real, val.imag
                ), (chi.label, n)


def test_turn_table_matches_fraction_reference():
    for c in range(1, 73):
        m = enumerate_characters(c)[0].group.exponent
        for chi in enumerate_characters(c):
            table = chi.turn_table
            assert table.dtype == np.int64 and table.shape == (c,)
            assert not table.flags.writeable
            for n in range(c):
                frac, _ = _fraction_reference(chi, n)
                want = -1 if frac is None else int(frac * m)
                assert table[n] == want, (chi.label, n)
            want_vv = np.where(table >= 0, roots_of_unity(m)[table], 0j)
            assert chi.value_vector.tobytes() == want_vv.tobytes()


def test_mod_five_orders():
    orders = sorted(ch.order for ch in enumerate_characters(5))
    assert orders == [1, 2, 4, 4]


def test_orthogonality():
    for c in (3, 5, 8, 12):
        chars = enumerate_characters(c)
        units = unit_residues(c)
        for chi in chars:
            for psi in chars:
                inner = sum(chi.value_vector[a] * np.conj(psi.value_vector[a]) for a in units)
                want = euler_phi(c) if chi is psi else 0.0
                assert abs(inner - want) < 1e-10
        # column orthogonality: sum over characters detects a = 1
        for a in units:
            col = sum(ch.value_vector[a] for ch in chars)
            want = euler_phi(c) if a % c == 1 % c else 0.0
            assert abs(col - want) < 1e-10


def test_multiplicative_and_zero_off_units():
    for c in (6, 9, 10):
        for ch in enumerate_characters(c):
            vv = ch.value_vector
            # holds on non-units too: both sides vanish
            for a in range(c):
                for b in range(c):
                    assert abs(vv[a * b % c] - vv[a] * vv[b]) < 1e-12
            for a in range(c):
                if math.gcd(a, c) > 1:
                    assert vv[a] == 0
                assert ch(a) == vv[a % c]


def test_parity():
    for c in (3, 4, 5, 8):
        for ch in enumerate_characters(c):
            assert ch.parity in (1, -1)
            assert abs(ch.value_vector[(c - 1) % c] - ch.parity) < 1e-12


def test_conductor_and_induction_round_trip():
    for c in (8, 9, 12, 15, 24):
        for ch in enumerate_characters(c):
            cstar, chi_star = ch.conductor, ch.primitive()
            assert c % cstar == 0
            assert chi_star.is_primitive
            assert chi_star.modulus == cstar == ch.conductor
            again = induce(chi_star, c)
            assert again == ch
            # induced values agree with the primitive ones on units of c
            for a in unit_residues(c):
                assert abs(ch.value_vector[a] - chi_star.value_vector[a % cstar]) < 1e-12


def test_primitive_characters():
    assert primitive_characters(2) == ()
    assert len(primitive_characters(1)) == 1
    for c in (3, 4, 5, 8, 9, 12):
        prims = primitive_characters(c)
        assert all(ch.is_primitive and ch.conductor == c for ch in prims)
        from_enum = [ch for ch in enumerate_characters(c) if ch.is_primitive]
        assert list(prims) == from_enum
    # lfunc keeps a unit per conductor, and knows its twists' parities, by
    # these rules, enumerating no characters
    for c in range(1, 301):
        parities = {chi.parity for chi in primitive_characters(c)}
        assert bool(parities) == (c % 4 != 2), c
        assert (len(parities) == 2) == (c % 4 != 2 and c not in (1, 3, 4, 12)), c


def test_principal_and_conjugate():
    chi0 = principal(12)
    assert chi0.order == 1
    assert all(chi0.value_vector[a] == 1 for a in unit_residues(12))
    for ch in enumerate_characters(5):
        conj = ch.conjugate()
        assert np.allclose(conj.value_vector, np.conj(ch.value_vector))
        prod = ch * conj
        assert prod.order == 1


def test_label_shape():
    ch = enumerate_characters(12)[0]
    mod, exps = ch.label.split(":")
    assert int(mod) == 12
    assert len(exps.split(",")) >= 1
