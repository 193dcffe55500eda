"""Closed-form inverse: the Bezoutian kernel, both entry formulas, the integer
factor, and edges."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from bernmass import inverse
from bernmass.inverse import hankel_inverse_exact, inverse_matrix
from bernmass.bernstein import DegreeTooLargeError, _squared_binomial_row, binomial_row, mass_matrix
from bernmass.oracle import (
    bezout_coeff_u,
    bezout_coeff_v,
    bezout_matrix,
    hankel_inverse_entry,
    identity_exact,
    inverse_entry_dual_exact,
    inverse_entry_exact,
    last_column_y_exact,
    mass_exact,
    mat_mul,
    mat_vec,
    rational_inverse,
)


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


def test_inverse_matrix_refused_past_its_last_degree_before_building(monkeypatch):
    calls = []
    band = inverse._hankel_inverse_band

    def counting(n):
        calls.append(n)
        return band(n)

    monkeypatch.setattr(inverse, "_hankel_inverse_band", counting)
    for n in (512, 583, 10**6):
        with pytest.raises(DegreeTooLargeError) as info:
            inverse_matrix(n)
        assert type(info.value) is DegreeTooLargeError
        assert str(info.value) == f"closed-form inverse entries overflow double precision at n={n}"
    assert calls == []


def _entries_within_double_range(n: int) -> bool:
    # exactly: every |h_ij| / (C(n,i) C(n,j)) below the largest double, in integers
    top = int(sys.float_info.max)
    binom = binomial_row(n)
    return all(
        abs(h) < top * ci * cj
        for row, ci in zip(hankel_inverse_exact(n), binom)
        for h, cj in zip(row, binom)
    )


def test_last_degree_is_the_last_whose_exact_entries_are_doubles():
    last = inverse._LAST_DEGREE
    assert last == 511
    assert _entries_within_double_range(last)
    assert not _entries_within_double_range(last + 1)


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
    y = np.array(last_column_y_exact(3), dtype=float)
    expected = [(-1) ** (3 + i) * 4 * math.comb(4, i) for i in range(4)]
    assert np.array_equal(y, np.array(expected, dtype=float))


def test_last_column_matches_inverse_column():
    for n in (2, 5):
        inv = [[inverse_entry_exact(n, i, j) for j in range(n + 1)] for i in range(n + 1)]
        col = [inv[i][n] for i in range(n + 1)]
        assert col == [Fraction(v) for v in last_column_y_exact(n)]


@pytest.mark.parametrize("n", list(range(41)) + [63, 64, 127, 128, 255, 256, 511, 512])
def test_hankel_inverse_exact_equals_full_bezoutian(n):
    # every entry of Bez(v, u), each divided by v[-1] on its own
    v = bezout_coeff_v(n)
    full = [[e // v[-1] for e in row] for row in bezout_matrix(v, bezout_coeff_u(n))]
    assert hankel_inverse_exact(n) == full


@pytest.mark.parametrize("n", range(41))
def test_bezoutian_increment_is_rank_one_in_the_squared_binomial_row(n):
    # the Heinig-Rost increment of the band kernel, with u divided by v[-1]
    v = bezout_coeff_v(n)
    u = [e // v[-1] for e in bezout_coeff_u(n)]
    s = _squared_binomial_row(n)
    for i in range(n + 1):
        for j in range(i, n + 1):
            assert v[j + 1] * u[i] - v[i] * u[j + 1] == -(j - i + 1) * s[i] * s[j + 1], (i, j)


@pytest.mark.parametrize("n", [63, 64, 128])
def test_inverse_matrix_symmetric_and_persymmetric(n):
    a = inverse_matrix(n)
    assert np.array_equal(a, a.T)
    assert np.array_equal(a, a[::-1, ::-1].T)
    for i, j in [(0, 0), (0, n), (n, 0), (1, n - 2), (n // 2, n // 2), (n // 2, n // 2 + 1),
                 (n // 3, 2 * n // 3 + 1), (n - 1, 2), (n, n)]:
        want = hankel_inverse_entry(n, i, j) / (math.comb(n, i) * math.comb(n, j))
        assert a[i, j] == want, (i, j)
