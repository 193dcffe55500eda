"""The FFT-based structured apply of the inverse mass matrix (the dft method).

The binomially descaled mass matrix is Hankel, and its inverse splits into a
difference of Toeplitz-times-Hankel products whose entries are signed squared
binomials.  All of those operators are applied through circulant embedding
and numpy's real FFT, whose compiled kernels bernmass.kernels binds, giving
an O(n log n) apply, _dft_apply: solvers runs it for solve and for the
public solve_dft.  Every transform writes into an output allocated here at
the plan's shape.  One builder, structured_inverse(n), makes degree n's four
circulant spectra in one 2-D rfft; solvers' dft handle calls it at the
first solve of each degree.  Past _LAST_DEGREE, the last_degree of that
handle, it raises DegreeTooLargeError before building anything: the spectra
leave double range one degree on, the squared binomials from 516.  The
dense split factors, the Bezout matrix, the Hankel inversion formula behind
them, the FFT Toeplitz product toeplitz_matvec and a Hankel product through
it are validation routes and live in bernmass.oracle.
"""

from __future__ import annotations

import numpy as np

from .bernstein import DegreeTooLargeError, _squared_binomial_row, binomial_diag
from .kernels import irfft as _irfft
from .kernels import rfft as _rfft

__all__ = [
    "next_pow2",
    "StructuredInverse",
    "structured_inverse",
]


# ---------------------------------------------------------------------------
# circulant embedding


def next_pow2(m: int) -> int:
    """Smallest power of two >= m (and >= 1)."""
    p = 1
    while p < m:
        p <<= 1
    return p


# ---------------------------------------------------------------------------
# the Toeplitz/Hankel split of the inverse


class StructuredInverse:
    """Compressed form of the inverse split, ready for FFT application.

    Holds the Toeplitz bands and Hankel anti-diagonals of the four factors,
    the binomial diagonal, and the circulant spectra at the shared plan size
    (next power of two >= 2n+2).  The spectra are paired in the order
    _dft_apply applies them, so each pair is one 2-row transform: h_pair rows
    (H, Ht) and t_pair rows (Tt, T), each pair C-contiguous.
    """

    def __init__(self, degree, t_col, tt_col, h, ht, binom_diag, h_pair, t_pair):
        self.degree = degree
        self.t_col = t_col
        self.tt_col = tt_col
        self.h = h
        self.ht = ht
        self.binom_diag = binom_diag
        self.plan_size = 2 * (h_pair.shape[1] - 1)
        self._h_pair = h_pair
        self._t_pair = t_pair

    def __repr__(self):
        return f"StructuredInverse(degree={self.degree})"


# The last degree built: each FFT intermediate is at most its row's l1 norm, and
# Ht's, sum_k k C(n+1, k)^2, is 0.398 of the largest double at n = 509 and past it
# at 510 (as is the Nyquist bin).  C(n+1, k)^2 stops being a double at n = 516
_LAST_DEGREE = 509


def _too_large(n: int) -> DegreeTooLargeError:
    """The refusal of a degree n past _LAST_DEGREE, raised before anything is built."""
    what = "squared binomial factors" if n > 515 else "circulant spectra"
    return DegreeTooLargeError(f"{what} overflow double precision at degree n={n}")


def structured_inverse(n: int) -> StructuredInverse:
    """Build the compressed inverse factors and circulant spectra of degree n.

    The four circulant embeddings are written as rows (H, Ht, Tt, T) of one
    zero-filled (4, plan) block, and the block is one 2-D rfft, which numpy
    computes row by row exactly as it would 1-D calls; the two pairs are
    views of its spectra.  A negative n raises ValueError, and one past
    _LAST_DEGREE _too_large(n), before anything is built: one degree on the
    circulant spectra would leave double range, and from n = 516 the squared
    binomial factors would.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > _LAST_DEGREE:
        raise _too_large(n)
    row = np.array(_squared_binomial_row(n), dtype=float)
    t_col = row[:-1]
    h = np.concatenate((row[1:], np.zeros(n)))
    tt_col, ht = np.arange(n + 1) * t_col, np.arange(1, 2 * n + 2) * h
    binom_diag = binomial_diag(n)
    plan = next_pow2(2 * n + 2)
    # everything the build keeps, the spectra last, is allocated before the embedding
    # block, so freeing the block on return leaves no hole below them
    spectra = np.empty((4, plan // 2 + 1), dtype=complex)
    block = np.zeros((4, plan))
    # the Hankel factors act as Toeplitz operators on the reversed input:
    # [h_n..h_2n | zeros | h_0..h_(n-1)]; the Toeplitz ones are lower triangular
    block[0, : n + 1] = h[n:]
    block[0, plan - n :] = h[:n]
    block[1, : n + 1] = ht[n:]
    block[1, plan - n :] = ht[:n]
    block[2, : n + 1] = tt_col
    block[3, : n + 1] = t_col
    _rfft(block, plan, out=spectra)
    return StructuredInverse(n, t_col, tt_col, h, ht, binom_diag, spectra[:2], spectra[2:])


def _dft_apply(si: StructuredInverse, bv: np.ndarray) -> np.ndarray:
    """The dft apply, bare: descale by the binomial diagonal, push through the
    two Hankel factors (sharing one forward transform of the reversed
    vector), then the two Toeplitz factors, subtract, and descale again.
    bv is a float64 vector of the right length; solvers._apply checks b and
    guards an overflow.  Each spectrum pair is applied as one 2-row
    transform, which numpy computes row by row exactly as it would two 1-D
    calls.  The four outputs are allocated at the plan's shapes, and the
    last descaling is in place."""
    s = si.degree + 1
    plan = si.plan_size
    half = plan // 2 + 1
    rev_hat = _rfft((bv / si.binom_diag)[::-1], plan, np.empty(half, dtype=complex))
    # rows H y and Ht y, then Tt H y and T Ht y
    hy = _irfft(si._h_pair * rev_hat, plan, np.empty((2, plan)))[:, :s]
    hy_hat = _rfft(hy, plan, np.empty((2, half), dtype=complex))
    w = _irfft(si._t_pair * hy_hat, plan, np.empty((2, plan)))
    x = w[0, :s] - w[1, :s]
    x /= si.binom_diag
    return x
