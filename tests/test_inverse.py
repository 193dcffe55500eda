"""Closed-form inverse: the Bezoutian kernel, both entry formulas, the integer
factor, and edges."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bernmass.exact import identity_exact, mass_exact, mat_mul, mat_vec, rational_inverse
from bernmass.inverse import (
    hankel_inverse_entry,
    hankel_inverse_exact,
    inverse_entry_dual_exact,
    inverse_entry_exact,
    inverse_matrix,
    last_column_y,
    last_column_y_exact,
)
from bernmass.bernstein import mass_matrix


def test_two_by_two_inverse():
    assert np.array_equal(inverse_matrix(1), [[4.0, -2.0], [-2.0, 4.0]])
    assert np.array_equal(inverse_matrix(0), [[1.0]])


def test_formulas_agree_exactly():
    for n in range(7):
        for i in range(n + 1):
            for j in range(n + 1):
                a = inverse_entry_exact(n, i, j)
                b = inverse_entry_dual_exact(n, i, j)
                assert a == b, (n, i, j)


def test_exact_formula_inverts_mass():
    for n in range(7):
        inv = [[inverse_entry_exact(n, i, j) for j in range(n + 1)] for i in range(n + 1)]
        assert mat_mul(mass_exact(n), inv) == identity_exact(n + 1)


def test_exact_formula_matches_elimination():
    for n in range(7):
        byform = [[inverse_entry_exact(n, i, j) for j in range(n + 1)] for i in range(n + 1)]
        byelim = rational_inverse(mass_exact(n))
        assert byform == byelim


def test_hankel_inverse_is_scaled_integer():
    for n in range(7):
        for i in range(n + 1):
            for j in range(n + 1):
                v = hankel_inverse_entry(n, i, j)
                assert isinstance(v, int)
                scaled = inverse_entry_exact(n, i, j) * math.comb(n, i) * math.comb(n, j)
                assert v == scaled


def test_bezoutian_kernel_matches_entry_formula():
    for n in range(21):
        assert hankel_inverse_exact(n) == [
            [hankel_inverse_entry(n, i, j) for j in range(n + 1)] for i in range(n + 1)
        ], n


def test_inverse_matrix_rounds_exact_entries_once():
    for n in range(41):
        # int / int rounds the exact quotient once, like float(Fraction)
        expected = [
            [
                hankel_inverse_entry(n, i, j) / (math.comb(n, i) * math.comb(n, j))
                for j in range(n + 1)
            ]
            for i in range(n + 1)
        ]
        assert np.array_equal(inverse_matrix(n), np.array(expected)), n
    for n in (4, 9):
        exact = [[float(inverse_entry_exact(n, i, j)) for j in range(n + 1)] for i in range(n + 1)]
        assert np.array_equal(inverse_matrix(n), np.array(exact))


def test_inverse_matrix_overflows_to_signed_inf():
    a = inverse_matrix(512)  # the first degree with entries past double range
    idx = np.arange(513)
    assert np.isinf(a).any() and not np.isnan(a).any()
    assert np.array_equal(np.sign(a), (-1.0) ** (idx[:, None] + idx[None, :]))


def test_inverse_matrix_symmetric_and_correct():
    for n in (3, 6, 10):
        inv = inverse_matrix(n)
        assert np.allclose(inv, inv.T)
        prod = mass_matrix(n).matrix @ inv
        assert np.max(np.abs(prod - np.eye(n + 1))) <= 1e-9


def test_index_bounds_checked():
    with pytest.raises(IndexError):
        inverse_entry_exact(3, 4, 0)
    with pytest.raises(IndexError):
        inverse_entry_dual_exact(3, 0, -1)
    with pytest.raises(IndexError):
        hankel_inverse_entry(2, 3, 0)


def test_last_column_solves_unit_vector():
    for n in range(8):
        y = [Fraction(v) for v in last_column_y_exact(n)]
        prod = mat_vec(mass_exact(n), y)
        expected = [Fraction(0)] * n + [Fraction(1)]
        assert prod == expected


def test_last_column_closed_form():
    y = last_column_y(3)
    expected = [(-1) ** (3 + i) * 4 * math.comb(4, i) for i in range(4)]
    assert np.array_equal(y, np.array(expected, dtype=float))


def test_last_column_matches_inverse_column():
    for n in (2, 5):
        inv = [[inverse_entry_exact(n, i, j) for j in range(n + 1)] for i in range(n + 1)]
        col = [inv[i][n] for i in range(n + 1)]
        assert col == [Fraction(v) for v in last_column_y_exact(n)]
