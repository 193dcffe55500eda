"""The closed-form inverse mass matrix.

The inverse of the binomially descaled (Hankel) factor is an integer matrix,
the Bezoutian of two binomial coefficient vectors divided by one of their
entries.  `hankel_inverse_exact` builds it in O(n^2) exact integer steps and
`inverse_matrix` rounds each of its descaled entries once.  The two
published entry formulas and the full Bezout matrix, which agree with this
kernel exactly, are validation routes and live in bernmass.oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bernstein import binomial_row

__all__ = [
    "bezout_coeff_u",
    "bezout_coeff_v",
    "hankel_inverse_exact",
    "inverse_matrix",
]


def bezout_coeff_u(n: int) -> list:
    """Monomial coefficients (length n+2) generating the scaled-inverse Bezoutian.

    Entry i is (-1)^(n+i) (n+1) C(n,i) C(n+1,i) for i <= n, padded by one
    zero (degree elevation in the monomial basis).
    """
    c, c1 = binomial_row(n), binomial_row(n + 1)
    return [(-1) ** (n + i) * (n + 1) * c[i] * c1[i] for i in range(n + 1)] + [0]


def bezout_coeff_v(n: int) -> list:
    """The companion coefficient vector: entry i is (-1)^(i+1) (n+1) C(n+1,i) C(n,i-1).

    This is the reversal of the zero-padded u vector.
    """
    c, c1 = binomial_row(n), binomial_row(n + 1)
    return [0] + [(-1) ** (i + 1) * (n + 1) * c1[i] * c[i - 1] for i in range(1, n + 2)]


@functools.lru_cache(maxsize=1)
def _hankel_inverse_band(n: int) -> list:
    """Rows 0..n//2 of the integer inverse of the descaled factor, on the band i <= j <= n-i.

    The last degree's band is kept, so an exact reference and the rounded
    inverse of the same degree share one build; callers only read it.

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
    by symmetry and persymmetry; entry (i, j) equals oracle.hankel_inverse_entry.
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
    if n < 0:
        raise ValueError("degree must be nonnegative")
    binom = binomial_row(n)
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
