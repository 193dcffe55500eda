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

from .structured import bezout_coeff_u, bezout_coeff_v

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


def _hankel_inverse_band(n: int) -> list:
    """Rows 0..n//2 of the integer inverse of the descaled factor, on the band i <= j <= n-i.

    The inverse is Bez(v, u) / v_{n+1} with u, v from bezout_coeff_u/v
    (Heinig & Rost).  Since v_{n+1} = (-1)^n (n+1) divides every u_i and the
    Bezoutian is bilinear, u is divided once, up front.  Row i of the band
    comes from row i-1 by the recurrence b_ij = b_{i-1,j+1} + v_{j+1} u_i -
    v_i u_{j+1}, which reads row i-1 only at j+1 <= n-i+1, inside its band.
    The inverse is symmetric and, as h_s = h_{2n-s}, persymmetric, so this
    quarter of its entries determines the rest.
    """
    v = bezout_coeff_v(n)
    u = [e // v[-1] for e in bezout_coeff_u(n)]
    band = []
    above = [0] * (n + 3)
    for i in range(n // 2 + 1):
        ui, vi = u[i], v[i]
        above = [
            a + vj * ui - vi * uj
            for a, uj, vj in zip(above[2:], u[i + 1 : n - i + 2], v[i + 1 : n - i + 2])
        ]
        band.append(above)
    return band


def hankel_inverse_exact(n: int) -> list:
    """The integer inverse of the descaled (Hankel) factor as nested lists.

    Bez(v, u) / v_{n+1} with u, v from bezout_coeff_u/v (Heinig & Rost),
    O(n^2) exact integer work on a quarter of the entries, the rest filled in
    by symmetry and persymmetry; entry (i, j) equals hankel_inverse_entry.
    """
    band = _hankel_inverse_band(n)
    # row i <= n//2: column i of the rows above, its band, then by persymmetry
    # entry (i, n-k) = (k, n-i) for k = i-1..0
    rows = [
        [band[k][i - k] for k in range(i)]
        + row
        + [band[k][n - i - k] for k in range(i - 1, -1, -1)]
        for i, row in enumerate(band)
    ]
    # the inverse is centrosymmetric: row n-i is row i reversed
    return rows + [rows[n - i][::-1] for i in range(len(rows), n + 1)]


def _rounded(num: int, den: int) -> float:
    try:
        return num / den  # int division rounds once
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def inverse_matrix(n: int) -> np.ndarray:
    """The dense inverse mass matrix, each entry the exact value rounded once.

    The exact entry is hankel_inverse_exact(n)[i][j] / (C(n,i) C(n,j)); an
    entry beyond double range becomes +-inf.  O(n^2) big-integer work on the
    band of _hankel_inverse_band; since the binomial diagonal is persymmetric
    too, the band's rounded entries fill the rest of the matrix by symmetry
    and persymmetry.
    """
    binom = [math.comb(n, i) for i in range(n + 1)]
    a = np.empty((n + 1, n + 1))
    for i, row in enumerate(_hankel_inverse_band(n)):
        bi, cols = binom[i], binom[i : n - i + 1]
        try:
            vals = [e / (bi * bj) for e, bj in zip(row, cols)]
        except OverflowError:
            vals = [_rounded(e, bi * bj) for e, bj in zip(row, cols)]
        # row i's band, mirrored, is the frame of the square ring i..n-i
        ring = slice(i, n - i + 1)
        a[i, ring] = vals
        top = a[i, ring]
        a[ring, i] = top
        a[n - i, ring] = top[::-1]
        a[ring, n - i] = top[::-1]
    return a


def last_column_y(n: int) -> np.ndarray:
    """The last column of the inverse mass matrix: (-1)^(n+i) (n+1) C(n+1,i)."""
    return np.array(last_column_y_exact(n), dtype=float)


def last_column_y_exact(n: int) -> list:
    """Integer form of the last column of the inverse."""
    return [(-1) ** (n + i) * (n + 1) * math.comb(n + 1, i) for i in range(n + 1)]
