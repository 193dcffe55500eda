"""The closed-form inverse mass matrix.

The inverse of the binomially descaled (Hankel) factor is an integer
Bezoutian (Heinig & Rost) whose recurrence has increments rank-one in the
row s_m = (-1)^m C(n+1, m)^2 that the dft split is built from.
`hankel_inverse_exact` builds it in O(n^2) exact integer steps and
`inverse_matrix` rounds each of its descaled entries once.  Past
_LAST_DEGREE (511), the last_degree of solvers' direct handle,
inverse_matrix raises DegreeTooLargeError before building anything.  The entry
formulas, the Bezout coefficient vectors and the full Bezout matrix agree
with this kernel exactly and live in bernmass.oracle.
"""

from __future__ import annotations

import functools

import numpy as np

from .bernstein import DegreeTooLargeError, _squared_binomial_row, binomial_row

__all__ = ["hankel_inverse_exact", "inverse_matrix"]


@functools.lru_cache(maxsize=1)
def _hankel_inverse_band(n: int) -> list:
    """Rows 0..n//2 of the integer inverse of the descaled factor, on the band i <= j <= n-i.

    The last degree's band is kept, so an exact reference and the rounded
    inverse of the same degree share one build; callers only read it.

    The inverse is Bez(v, u) / v_{n+1} of the oracle's bezout_coeff_u/v, and
    with u divided by v_{n+1} their Heinig-Rost increment v_{j+1} u_i - v_i u_{j+1}
    is rank-one: -(j-i+1) s_i s_{j+1}, s = _squared_binomial_row(n).  So row i
    is row i-1 shifted by two, less s_i s_{j+1} (j-i+1): one big-integer product
    an entry, reading row i-1 only at j+1 <= n-i+1, inside its band.  The
    inverse is symmetric and, as h_s = h_{2n-s}, persymmetric, so this quarter
    of its entries determines the rest.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    s = _squared_binomial_row(n)
    band = []
    above = [0] * (n + 3)
    for i in range(n // 2 + 1):
        si = s[i]
        steps = zip(range(1, n - 2 * i + 2), above[2:], s[i + 1 : n - i + 2])
        above = [a - si * sj * w for w, a, sj in steps]
        band.append(above)
    return band


def hankel_inverse_exact(n: int) -> list:
    """The integer inverse of the descaled (Hankel) factor as nested lists.

    O(n^2) exact integer work on the quarter band of _hankel_inverse_band,
    the rest filled in by symmetry and persymmetry; entry (i, j) equals
    oracle.hankel_inverse_entry.
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


# The last degree built: every exact entry of the inverse is below the largest
# double through n = 511, and from 512 some entry passes it
_LAST_DEGREE = 511


def _too_large(n: int) -> DegreeTooLargeError:
    """The refusal of a degree n past _LAST_DEGREE, raised before anything is built."""
    return DegreeTooLargeError(f"closed-form inverse entries overflow double precision at n={n}")


def inverse_matrix(n: int) -> np.ndarray:
    """The dense inverse mass matrix, each entry the exact value rounded once.

    The exact entry is hankel_inverse_exact(n)[i][j] / (C(n,i) C(n,j)).
    Past _LAST_DEGREE (511), where some entry would pass double range, it
    raises _too_large(n) before building anything.  O(n^2) big-integer
    work on the band of _hankel_inverse_band; since the binomial diagonal
    is persymmetric too, the band's rounded entries fill the rest of the
    matrix by symmetry and persymmetry.
    """
    if n > _LAST_DEGREE:
        raise _too_large(n)
    band = _hankel_inverse_band(n)
    binom = binomial_row(n)
    a = np.empty((n + 1, n + 1))
    for i, row in enumerate(band):
        bi, cols = binom[i], binom[i : n - i + 1]
        # row i's band, mirrored, is the frame of the square ring i..n-i
        ring = slice(i, n - i + 1)
        a[i, ring] = [e / (bi * bj) for e, bj in zip(row, cols)]  # int division rounds once
        top = a[i, ring]
        a[ring, i] = top
        a[n - i, ring] = top[::-1]
        a[ring, n - i] = top[::-1]
    return a
