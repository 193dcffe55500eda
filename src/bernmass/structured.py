"""Structured (Toeplitz/Hankel/Bezout) machinery for the inverse mass matrix.

The binomially descaled mass matrix is Hankel, and its inverse splits into a
difference of Toeplitz-times-Hankel products whose entries are signed squared
binomials.  All of those operators are applied through circulant embedding
and numpy's real FFT, giving an O(n log n) solve.  The Bezout matrix of two
polynomials, built by the Heinig-Rost recurrence, underlies the closed-form
inverse (whose kernel runs the recurrence on a quarter band only); the
Hankel inversion formula around it is kept for validation.

The dense builders (toeplitz_dense, hankel_dense, bezout_matrix and the
*_exact split) work over plain Python numbers, so feeding them ints or
Fractions keeps everything exact.
"""

from __future__ import annotations

import math

import numpy as np

from .bernstein import DegreeTooLargeError, binomial_diag

__all__ = [
    "next_pow2",
    "toeplitz_matvec",
    "hankel_matvec",
    "toeplitz_dense",
    "hankel_dense",
    "bezout_matrix",
    "bezout_coeff_u",
    "bezout_coeff_v",
    "hankel_extension",
    "heinig_rost_inverse",
    "StructuredInverse",
    "structured_inverse",
    "structured_inverse_exact",
    "solve_dft",
]


# ---------------------------------------------------------------------------
# circulant embedding


def next_pow2(m: int) -> int:
    """Smallest power of two >= m (and >= 1)."""
    p = 1
    while p < m:
        p <<= 1
    return p


def _embed_spectrum(first_col, first_row, plan):
    """Real FFT of the circulant column that embeds a Toeplitz matrix.

    The circulant's first column is laid out bit-exactly as
    [first_col | zeros | reverse(first_row[1:])] of total length plan, so
    that entry (i-j) mod plan reproduces the Toeplitz band for |i-j| < s.
    """
    s = len(first_col)
    c = np.zeros(plan)
    c[:s] = first_col
    if s > 1:
        c[plan - s + 1 :] = first_row[1:][::-1]
    return np.fft.rfft(c)


def _apply_spectrum(spectrum, x, s, plan):
    return np.fft.irfft(spectrum * np.fft.rfft(x, plan), plan)[:s]


def toeplitz_matvec(first_col, first_row, x) -> np.ndarray:
    """Toeplitz product via circulant embedding and FFTs, O(n log n).

    first_col and first_row fix the matrix (their leading entries must
    agree); the embedding size is the next power of two at least twice the
    dimension.
    """
    col = np.asarray(first_col, dtype=float)
    row = np.asarray(first_row, dtype=float)
    xv = np.asarray(x, dtype=float)
    if not col.size == row.size == xv.size:
        raise ValueError("first column, first row, and vector lengths must agree")
    if col[0] != row[0]:
        raise ValueError("first column and first row must share their leading entry")
    plan = next_pow2(2 * col.size)
    return _apply_spectrum(_embed_spectrum(col, row, plan), xv, col.size, plan)


def hankel_matvec(antidiagonals, x) -> np.ndarray:
    """Hankel product H x with H_{ij} = h_{i+j}, via the Toeplitz path.

    Reversing x turns the anti-diagonal structure into a diagonal one, so the
    product is a Toeplitz matvec with band h_{n}..h_{2n} down and h_{n}..h_0
    across.
    """
    h = np.asarray(antidiagonals, dtype=float)
    xv = np.asarray(x, dtype=float)
    s = xv.size
    if h.size != 2 * s - 1:
        raise ValueError(
            f"need 2n+1 anti-diagonals for an (n+1)-vector, got {h.size} and {s}"
        )
    return toeplitz_matvec(h[s - 1 :], h[s - 1 :: -1], xv[::-1])


# ---------------------------------------------------------------------------
# dense builders (generic over the scalar type)


def toeplitz_dense(first_col, first_row):
    """Dense Toeplitz matrix as nested lists; ints/Fractions pass through."""
    s = len(first_col)
    if len(first_row) != s:
        raise ValueError("first column and first row lengths must agree")
    if first_col[0] != first_row[0]:
        raise ValueError("first column and first row must share their leading entry")
    return [
        [first_col[i - j] if i >= j else first_row[j - i] for j in range(s)]
        for i in range(s)
    ]


def hankel_dense(antidiagonals):
    """Dense Hankel matrix as nested lists from its 2n+1 anti-diagonal values."""
    if len(antidiagonals) % 2 == 0:
        raise ValueError("a Hankel matrix has an odd number of anti-diagonals")
    s = (len(antidiagonals) + 1) // 2
    return [[antidiagonals[i + j] for j in range(s)] for i in range(s)]


# ---------------------------------------------------------------------------
# Bezout matrices


def bezout_matrix(u, v):
    """Bezout matrix of two polynomials given by monomial coefficients.

    For u, v of length n+2 (degree at most n+1) the result is the
    (n+1) x (n+1) matrix of coefficients of (u(s)v(t) - u(t)v(s))/(s - t):
    b_{ij} = sum_k u_{j+k+1} v_{i-k} - u_{i-k} v_{j+k+1}, k = 0..min(i, n-j).
    Each row comes from the one above by the Heinig-Rost recurrence
    b_{ij} = b_{i-1,j+1} + u_{j+1} v_i - u_i v_{j+1} (entries outside the
    matrix are zero), so the build is O(n^2).  Works over any scalar type
    (ints and Fractions stay exact).
    """
    if len(u) != len(v):
        raise ValueError("coefficient vectors must have equal length")
    if len(u) < 2:
        raise ValueError("need polynomials of degree at least 1")
    s = len(u) - 1
    rows = []
    above = [0] * (s + 1)
    for i in range(s):
        row = [above[j + 1] + u[j + 1] * v[i] - u[i] * v[j + 1] for j in range(s)]
        rows.append(row)
        above = row + [0]
    return rows


def bezout_coeff_u(n: int) -> list:
    """Monomial coefficients (length n+2) generating the scaled-inverse Bezoutian.

    Entry i is (-1)^(n+i) (n+1) C(n,i) C(n+1,i) for i <= n, padded by one
    zero (degree elevation in the monomial basis).
    """
    u = [
        (-1) ** (n + i) * (n + 1) * math.comb(n, i) * math.comb(n + 1, i)
        for i in range(n + 1)
    ]
    u.append(0)
    return u


def bezout_coeff_v(n: int) -> list:
    """The companion coefficient vector: entry i is (-1)^(i+1) (n+1) C(n+1,i) C(n,i-1).

    This is the reversal of the zero-padded u vector.
    """
    return [
        (-1) ** (i + 1) * (n + 1) * math.comb(n + 1, i) * (math.comb(n, i - 1) if i >= 1 else 0)
        for i in range(n + 2)
    ]


# ---------------------------------------------------------------------------
# Hankel inversion via Bezoutians


def hankel_extension(antidiagonals, x):
    """Border a symmetric-profile Hankel matrix so the reversed solve carries over.

    Given H with anti-diagonal values h (which must read the same forwards
    and backwards, as the descaled mass matrix does) and x solving
    H x = e_n (last unit vector) with x_0 != 0, returns (alpha, beta) such
    that appending anti-diagonals alpha then beta yields an extended matrix
    satisfying Hhat x^P = e_{n+1}, where x^P reverses [x; 0].
    """
    h = np.asarray(antidiagonals, dtype=float)
    xv = np.asarray(x, dtype=float)
    s = xv.size
    if h.size != 2 * s - 1:
        raise ValueError("anti-diagonal count must be twice the size minus one")
    if xv[0] == 0.0:
        raise ValueError("extension requires a nonzero leading solve entry")
    if not np.allclose(h, h[::-1], rtol=1e-12, atol=0.0):
        raise ValueError("extension formulas require a symmetric anti-diagonal profile")
    e_last = np.zeros(s)
    e_last[-1] = 1.0
    resid = np.asarray(hankel_dense(h), dtype=float) @ xv - e_last
    if np.max(np.abs(resid)) > 1e-10 * max(1.0, np.max(np.abs(xv))):
        raise ValueError("x does not solve H x = e_n to the required accuracy")
    alpha = -float(h[: s - 1] @ xv[1:]) / xv[0]
    if s == 1:
        beta = 1.0 / xv[0]
    else:
        beta = (1.0 - alpha * xv[1] - float(h[: s - 2] @ xv[2:])) / xv[0]
    return alpha, beta


def heinig_rost_inverse(antidiagonals) -> np.ndarray:
    """Invert a symmetric-profile Hankel matrix through its Bezoutian.

    u is the last column of the inverse (zero-padded by one), v its reversal,
    which the extension lemma identifies with the last column of the inverse
    of the bordered matrix.  The Bezoutian of (v, u) divided by the trailing
    entry of v reproduces the inverse; this argument order is the one that
    actually satisfies H * result = I (the opposite order yields the negated
    matrix).
    """
    h = np.asarray(antidiagonals, dtype=float)
    s = (h.size + 1) // 2
    dense = np.asarray(hankel_dense(h), dtype=float)
    e_last = np.zeros(s)
    e_last[-1] = 1.0
    x = np.linalg.solve(dense, e_last)
    if x[0] == 0.0:
        raise ValueError("inversion formula requires a nonzero leading solve entry")
    # validates the solve and the symmetric profile
    hankel_extension(h, x)
    u = np.append(x, 0.0)
    v = u[::-1]
    return np.asarray(bezout_matrix(v, u), dtype=float) / v[-1]


# ---------------------------------------------------------------------------
# the Toeplitz/Hankel split of the inverse


def _squared_binomial_row(n: int) -> list:
    """The integers (-1)^d C(n+1, d)^2, d = 0..n+1, behind every split factor.

    Entries 0..n are the first column of the unit-diagonal lower-triangular
    Toeplitz factor; entries 1..n+1, followed by n zeros, are the 2n+1
    anti-diagonals of the Hankel factor.  C(n+1, d) comes from the ratio
    recurrence c <- c (n+1-d) / (d+1), exact in integers.
    """
    c = 1
    row = [1]
    for d in range(n + 1):
        c = c * (n + 1 - d) // (d + 1)
        row.append(c * c if d % 2 else -c * c)
    return row


def structured_inverse_exact(n: int):
    """The four split factors as exact integer matrices (nested lists).

    Returns (t, t_weighted, h, h_weighted): the inverse of the descaled mass
    matrix equals t_weighted @ h - t @ h_weighted, and conjugating by the
    inverse binomial diagonal gives the inverse mass matrix itself.
    """
    row = _squared_binomial_row(n)
    band = row[:-1]
    anti = row[1:] + [0] * n
    t = toeplitz_dense(band, [band[0]] + [0] * n)
    tw = toeplitz_dense([d * band[d] for d in range(n + 1)], [0] * (n + 1))
    h = hankel_dense(anti)
    hw = hankel_dense([(s + 1) * anti[s] for s in range(2 * n + 1)])
    return t, tw, h, hw


class StructuredInverse:
    """Compressed form of the inverse split, ready for FFT application.

    Holds the Toeplitz bands and Hankel anti-diagonals of the four factors,
    the binomial diagonal, and the precomputed circulant spectra at the
    shared plan size (next power of two >= 2n+2).
    """

    def __init__(self, degree, t_col, tt_col, h, ht, binom_diag):
        self.degree = degree
        self.t_col = t_col
        self.tt_col = tt_col
        self.h = h
        self.ht = ht
        self.binom_diag = binom_diag
        self.plan_size = next_pow2(2 * degree + 2)
        s = degree + 1
        zero_row = np.zeros(s)
        t_row = zero_row.copy()
        t_row[0] = t_col[0]
        # overflow here is detected afterwards, not warned about per entry
        with np.errstate(over="ignore", invalid="ignore"):
            self._t_hat = _embed_spectrum(t_col, t_row, self.plan_size)
            self._tt_hat = _embed_spectrum(tt_col, zero_row, self.plan_size)
            # Hankel factors act as Toeplitz operators on the reversed input
            self._h_hat = _embed_spectrum(h[s - 1 :], h[s - 1 :: -1], self.plan_size)
            self._ht_hat = _embed_spectrum(ht[s - 1 :], ht[s - 1 :: -1], self.plan_size)

    def __repr__(self):
        return f"StructuredInverse(degree={self.degree})"


def structured_inverse(n: int) -> StructuredInverse:
    """Build the compressed inverse factors for degree n.

    Raises ValueError when the squared binomial factors (or their circulant
    spectra) are not representable in doubles; the overflow is reported by
    that error alone, not by numpy warnings.
    """
    try:
        row = np.array(_squared_binomial_row(n), dtype=float)
    except OverflowError:
        raise ValueError(
            f"squared binomial factors overflow double precision at degree n={n}"
        ) from None
    if not np.all(np.isfinite(row)):
        raise ValueError(
            f"squared binomial factors overflow double precision at degree n={n}"
        )
    t_col = row[:-1]
    anti = np.concatenate((row[1:], np.zeros(n)))
    with np.errstate(over="ignore"):
        tt_col = np.arange(n + 1) * t_col
        ht = np.arange(1, 2 * n + 2) * anti
    si = StructuredInverse(n, t_col, tt_col, anti, ht, binomial_diag(n))
    for spectrum in (si._t_hat, si._tt_hat, si._h_hat, si._ht_hat):
        if not np.all(np.isfinite(spectrum)):
            raise ValueError(
                f"circulant spectra overflow double precision at degree n={n}"
            )
    return si


def solve_dft(si: StructuredInverse, b) -> np.ndarray:
    """Apply the inverse mass matrix entirely through FFT matvecs.

    Descale by the binomial diagonal, push through the two Hankel factors
    (sharing one forward transform of the reversed vector), then the two
    Toeplitz factors, subtract, and descale again.  O(n log n) total.

    Raises DegreeTooLargeError when the products leave double range (from
    n = 257 on for right-hand sides of order one), instead of returning nan.
    """
    bv = np.asarray(b, dtype=float)
    s = si.degree + 1
    if bv.size != s:
        raise ValueError(f"vector length {bv.size} does not match degree {si.degree}")
    plan = si.plan_size
    # overflow here is detected afterwards, not warned about per entry
    with np.errstate(over="ignore", invalid="ignore"):
        rev_hat = np.fft.rfft((bv / si.binom_diag)[::-1], plan)
        hy = np.fft.irfft(si._h_hat * rev_hat, plan)[:s]
        hty = np.fft.irfft(si._ht_hat * rev_hat, plan)[:s]
        z = _apply_spectrum(si._tt_hat, hy, s, plan) - _apply_spectrum(si._t_hat, hty, s, plan)
        x = z / si.binom_diag
    if not np.all(np.isfinite(x)):
        raise DegreeTooLargeError(
            f"structured inverse products overflow double precision at degree n={si.degree}"
        )
    return x
