"""Rational-arithmetic oracle: self-consistency of the exact layer."""

from fractions import Fraction

import pytest

from bernmass.oracle import (
    SingularMatrixError,
    binom,
    elevation_exact,
    identity_exact,
    legendre_exact,
    mass_entry_exact,
    mass_exact,
    mat_mul,
    mat_vec,
    rational_inverse,
    rational_solve,
    transpose,
)


def test_binom_basics():
    assert binom(5, 2) == 10
    assert binom(5, 0) == 1
    assert binom(5, 5) == 1
    assert binom(5, 6) == 0
    assert binom(5, -1) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_mass_entries_small():
    # 2x2 case worked out by hand from the defining integrals
    assert mass_entry_exact(1, 0, 0) == Fraction(1, 3)
    assert mass_entry_exact(1, 0, 1) == Fraction(1, 6)
    assert mass_entry_exact(1, 1, 1) == Fraction(1, 3)
    assert mass_entry_exact(0, 0, 0) == Fraction(1)


def test_mass_symmetry_and_row_sums():
    for n in range(6):
        m = mass_exact(n)
        for i in range(n + 1):
            for j in range(n + 1):
                assert m[i][j] == m[j][i]
                assert m[i][j] > 0
            # each basis function integrates to 1/(n+1)
            assert sum(m[i]) == Fraction(1, n + 1)


def test_mass_total_sum_is_one():
    # the basis sums to 1, so all pairwise inner products sum to integral of 1
    for n in range(8):
        m = mass_exact(n)
        assert sum(sum(row) for row in m) == 1


def test_elevation_reproduces_lower_degree_mass():
    # elevating the basis must preserve all inner products
    for m_deg in range(4):
        for n_deg in range(m_deg, m_deg + 3):
            e = elevation_exact(m_deg, n_deg)
            lhs = mat_mul(mat_mul(transpose(e), mass_exact(n_deg)), e)
            assert lhs == mass_exact(m_deg)


def test_elevation_sums():
    e = elevation_exact(2, 5)
    # constants are preserved, so every row sums to one
    for i in range(6):
        assert sum(e[i][j] for j in range(3)) == 1
    # elevation preserves the coefficient mean, so columns sum to (m+1)/(n+1)
    for j in range(3):
        assert sum(e[i][j] for i in range(6)) == Fraction(6, 3)


def test_legendre_exact_orthogonality():
    # coefficient vectors of the orthogonal polynomials diagonalize the mass
    for n in range(6):
        vecs = [legendre_exact(k) for k in range(n + 1)]
        m = mass_exact(n)
        for j, vj in enumerate(vecs):
            ej = elevation_exact(j, n)
            cj = mat_vec(ej, vj)
            for k, vk in enumerate(vecs):
                ek = elevation_exact(k, n)
                ck = mat_vec(ek, vk)
                val = sum(ci * x for ci, x in zip(cj, mat_vec(m, ck)))
                expected = Fraction(1, 2 * k + 1) if j == k else 0
                assert val == expected


def test_legendre_exact_endpoint_normalization():
    for k in range(8):
        assert legendre_exact(k)[-1] == 1  # value 1 at the right endpoint


def test_rational_inverse_roundtrip():
    for n in range(6):
        m = mass_exact(n)
        inv = rational_inverse(m)
        assert mat_mul(m, inv) == identity_exact(n + 1)
        assert mat_mul(inv, m) == identity_exact(n + 1)


def test_rational_solve_matches_inverse():
    m = mass_exact(3)
    b = [Fraction(1), Fraction(0), Fraction(-2), Fraction(1, 7)]
    x = rational_solve(m, b)
    assert mat_vec(m, x) == b


def test_singular_matrix_raises():
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(SingularMatrixError):
        rational_inverse(singular)
    with pytest.raises(SingularMatrixError):
        rational_solve(singular, [Fraction(1), Fraction(1)])


def test_pivoting_handles_leading_zero():
    a = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    inv = rational_inverse(a)
    assert inv == a  # a permutation is its own inverse here
