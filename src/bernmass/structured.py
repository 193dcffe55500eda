"""The FFT-based structured apply of the inverse mass matrix (the dft method).

The binomially descaled mass matrix is Hankel, and its inverse splits into a
difference of Toeplitz-times-Hankel products whose entries are signed squared
binomials.  All of those operators are applied through circulant embedding
and numpy's real FFT, giving an O(n log n) solve.  The dense split factors,
the Bezout matrix and the Hankel inversion formula behind them are
validation routes and live in bernmass.oracle.
"""

from __future__ import annotations

import numpy as np

from .bernstein import DegreeTooLargeError, binomial_diag, binomial_row

__all__ = [
    "next_pow2",
    "toeplitz_matvec",
    "hankel_matvec",
    "StructuredInverse",
    "structured_inverse",
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


def _embed_spectrum(first_col, first_row, plan, out=None):
    """Real FFT of the circulant column that embeds a Toeplitz matrix.

    The circulant's first column is laid out bit-exactly as
    [first_col | zeros | reverse(first_row[1:])] of total length plan, so
    that entry (i-j) mod plan reproduces the Toeplitz band for |i-j| < s.
    The spectrum is written into out when one is given.
    """
    s = len(first_col)
    c = np.zeros(plan)
    c[:s] = first_col
    if s > 1:
        c[plan - s + 1 :] = first_row[1:][::-1]
    return np.fft.rfft(c, out=out)


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
    return np.fft.irfft(_embed_spectrum(col, row, plan) * np.fft.rfft(xv, plan), plan)[: col.size]


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
# the Toeplitz/Hankel split of the inverse


def _squared_binomial_row(n: int) -> list:
    """The integers (-1)^d C(n+1, d)^2, d = 0..n+1, behind every split factor.

    Entries 0..n are the first column of the unit-diagonal lower-triangular
    Toeplitz factor; entries 1..n+1, followed by n zeros, are the 2n+1
    anti-diagonals of the Hankel factor.  The squares of binomial_row(n+1).
    """
    return [-c * c if d % 2 else c * c for d, c in enumerate(binomial_row(n + 1))]


class StructuredInverse:
    """Compressed form of the inverse split, ready for FFT application.

    Holds the Toeplitz bands and Hankel anti-diagonals of the four factors,
    the binomial diagonal, and the precomputed circulant spectra at the
    shared plan size (next power of two >= 2n+2).  The spectra are paired in
    the order solve_dft applies them, so each pair is one 2-row transform:
    _h_pair rows (H, Ht) and _t_pair rows (Tt, T); _h_hat, _ht_hat, _tt_hat
    and _t_hat are views of those rows.
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
        self._h_pair = np.empty((2, self.plan_size // 2 + 1), dtype=complex)
        self._t_pair = np.empty_like(self._h_pair)
        self._h_hat, self._ht_hat = self._h_pair
        self._tt_hat, self._t_hat = self._t_pair
        # overflow here is detected afterwards, not warned about per entry;
        # one 1-D rfft per spectrum, into its row (a 2-D embedding builds slower)
        with np.errstate(over="ignore", invalid="ignore"):
            # Hankel factors act as Toeplitz operators on the reversed input
            _embed_spectrum(h[s - 1 :], h[s - 1 :: -1], self.plan_size, self._h_hat)
            _embed_spectrum(ht[s - 1 :], ht[s - 1 :: -1], self.plan_size, self._ht_hat)
            _embed_spectrum(tt_col, zero_row, self.plan_size, self._tt_hat)
            _embed_spectrum(t_col, t_row, self.plan_size, self._t_hat)

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
    if not (np.all(np.isfinite(si._h_pair)) and np.all(np.isfinite(si._t_pair))):
        raise ValueError(f"circulant spectra overflow double precision at degree n={n}")
    return si


def solve_dft(si: StructuredInverse, b) -> np.ndarray:
    """Apply the inverse mass matrix entirely through FFT matvecs.

    Descale by the binomial diagonal, push through the two Hankel factors
    (sharing one forward transform of the reversed vector), then the two
    Toeplitz factors, subtract, and descale again.  O(n log n) total, in
    four numpy FFT calls: each spectrum pair is applied as one 2-row
    transform, which numpy computes row by row exactly as it would two 1-D
    calls.

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
        # rows H y and Ht y, then Tt H y and T Ht y
        hy = np.fft.irfft(si._h_pair * rev_hat, plan)[:, :s]
        w = np.fft.irfft(si._t_pair * np.fft.rfft(hy, plan), plan)
        x = (w[0, :s] - w[1, :s]) / si.binom_diag
    if not np.all(np.isfinite(x)):
        raise DegreeTooLargeError(
            f"structured inverse products overflow double precision at degree n={si.degree}"
        )
    return x
