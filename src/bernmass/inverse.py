"""The closed-form inverse mass matrix.

The inverse of the binomially descaled (Hankel) factor is an integer matrix,
the Bezoutian of two binomial coefficient vectors divided by one of their
entries.  `hankel_inverse_exact` builds it in O(n^2) exact integer steps and
`inverse_matrix` rounds each of its descaled entries once.  Two independent
published entry formulas are kept in exact arithmetic as test oracles; they
agree with each other and with the Bezoutian exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .structured import bezout_coeff_u, bezout_coeff_v, bezout_matrix

__all__ = [
    "inverse_entry_exact",
    "inverse_entry_dual_exact",
    "hankel_inverse_entry",
    "hankel_inverse_exact",
    "inverse_matrix",
    "last_column_y",
    "last_column_y_exact",
]


def _check_indices(n, i, j):
    if not (0 <= i <= n and 0 <= j <= n):
        raise IndexError(f"indices ({i}, {j}) out of range for degree n={n}")


def _primary_terms(n, i, j):
    """Integer summands of the primary entry formula, nonzero k only."""
    return [
        (2 * k + 1 - i + j) * math.comb(n + 1, i - k) ** 2 * math.comb(n + 1, j + k + 1) ** 2
        for k in range(min(i, n - j) + 1)
    ]


def _dual_terms(n, i, j):
    """Integer summands of the dual-basis entry formula, nonzero k only."""
    return [
        (2 * k + 1)
        * math.comb(n + k + 1, n - j)
        * math.comb(n - k, n - j)
        * math.comb(n + k + 1, n - i)
        * math.comb(n - k, n - i)
        for k in range(min(i, j) + 1)
    ]


def inverse_entry_exact(n: int, i: int, j: int) -> Fraction:
    """Entry (i, j) of the inverse mass matrix from the primary closed form.

    The value is (-1)^(i+j) / (C(n,i) C(n,j)) times a sum over k of
    (2k+1-i+j) C(n+1,i-k)^2 C(n+1,j+k+1)^2; k runs where both binomials
    are nonzero.  Evaluated exactly over the rationals.
    """
    _check_indices(n, i, j)
    sign = -1 if (i + j) % 2 else 1
    return Fraction(sign * sum(_primary_terms(n, i, j)), math.comb(n, i) * math.comb(n, j))


def inverse_entry_dual_exact(n: int, i: int, j: int) -> Fraction:
    """The dual-basis formula evaluated exactly over the rationals."""
    _check_indices(n, i, j)
    sign = -1 if (i + j) % 2 else 1
    return Fraction(sign * sum(_dual_terms(n, i, j)), math.comb(n, i) * math.comb(n, j))


def hankel_inverse_entry(n: int, i: int, j: int) -> int:
    """Entry (i, j) of the inverse of the binomially descaled (Hankel) factor.

    Equal to C(n,i) C(n,j) times the inverse-mass entry; an exact integer.
    """
    _check_indices(n, i, j)
    sign = -1 if (i + j) % 2 else 1
    return sign * sum(_primary_terms(n, i, j))


def hankel_inverse_exact(n: int) -> list:
    """The integer inverse of the descaled (Hankel) factor as nested lists.

    Bez(v, u) / v_{n+1} with u, v from bezout_coeff_u/v (Heinig & Rost),
    O(n^2) exact integer work; entry (i, j) equals hankel_inverse_entry.
    """
    v = bezout_coeff_v(n)
    return [[e // v[-1] for e in row] for row in bezout_matrix(v, bezout_coeff_u(n))]


def inverse_matrix(n: int) -> np.ndarray:
    """The dense inverse mass matrix, each entry the exact value rounded once.

    The exact entry is hankel_inverse_exact(n)[i][j] / (C(n,i) C(n,j)); an
    entry beyond double range becomes +-inf.  O(n^2) big-integer work; the
    upper triangle is rounded and mirrored.
    """
    binom = [math.comb(n, i) for i in range(n + 1)]
    a = np.empty((n + 1, n + 1))
    for i, row in enumerate(hankel_inverse_exact(n)):
        for j in range(i, n + 1):
            try:
                e = row[j] / (binom[i] * binom[j])  # int division rounds once
            except OverflowError:
                e = math.inf if row[j] > 0 else -math.inf
            a[i, j] = a[j, i] = e
    return a


def last_column_y(n: int) -> np.ndarray:
    """The last column of the inverse mass matrix: (-1)^(n+i) (n+1) C(n+1,i)."""
    return np.array(last_column_y_exact(n), dtype=float)


def last_column_y_exact(n: int) -> list:
    """Integer form of the last column of the inverse."""
    return [(-1) ** (n + i) * (n + 1) * math.comb(n + 1, i) for i in range(n + 1)]
