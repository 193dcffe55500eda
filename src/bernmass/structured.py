"""The FFT-based structured apply of the inverse mass matrix (the dft method).

The binomially descaled mass matrix is Hankel, and its inverse splits into a
difference of Toeplitz-times-Hankel products whose entries are signed squared
binomials.  All of those operators are applied through circulant embedding
and numpy's real FFT, whose compiled kernels bernmass.kernels binds, giving
an O(n log n) apply, _dft_apply: solvers runs it for solve and for the
public solve_dft.  One builder, structured_inverse_sweep, makes the
circulant spectra of a whole sweep of degrees: the degrees that share a
plan size are transformed together, as rows of one 2-D rfft, and
structured_inverse(n) is the sweep of [n]; the tables prefill their dft
spectra through it; from n = 510 it raises DegreeTooLargeError.  The dense
split factors, the Bezout matrix, the Hankel inversion formula behind them,
the FFT Toeplitz product toeplitz_matvec and a Hankel product through it
are validation routes and live in bernmass.oracle.
"""

from __future__ import annotations

import numpy as np

from .bernstein import DegreeTooLargeError, _squared_binomial_row, binomial_diag
from .kernels import irfft as _irfft
from .kernels import rfft as _rfft
from .spectral import _SWEEP_BLOCK

__all__ = [
    "next_pow2",
    "StructuredInverse",
    "structured_inverse",
    "structured_inverse_sweep",
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
    (H, Ht) and t_pair rows (Tt, T), each pair C-contiguous; _h_hat,
    _ht_hat, _tt_hat and _t_hat are views of those rows.
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
        self._h_hat, self._ht_hat = h_pair
        self._tt_hat, self._t_hat = t_pair

    def __repr__(self):
        return f"StructuredInverse(degree={self.degree})"


def structured_inverse(n: int) -> StructuredInverse:
    """Build the compressed inverse factors for degree n: structured_inverse_sweep([n])[0].

    Raises DegreeTooLargeError when the squared binomial factors (or their
    circulant spectra) are not representable in doubles, which is from
    n = 510 on; the overflow is reported by that error alone, not by numpy
    warnings.
    """
    return structured_inverse_sweep([n])[0]


def _split_factors(n: int) -> tuple:
    """(t_col, tt_col, h, ht, binom_diag) of degree n: the Toeplitz bands, the
    Hankel anti-diagonals and the binomial diagonal."""
    try:
        row = np.array(_squared_binomial_row(n), dtype=float)
    except OverflowError:
        raise DegreeTooLargeError(
            f"squared binomial factors overflow double precision at degree n={n}"
        ) from None
    t_col = row[:-1]
    h = np.concatenate((row[1:], np.zeros(n)))
    with np.errstate(over="ignore"):
        return t_col, np.arange(n + 1) * t_col, h, np.arange(1, 2 * n + 2) * h, binomial_diag(n)


def _spectra(chunk: list, factors: dict, plan: int) -> np.ndarray:
    """The (4k, plan//2+1) spectra of k degrees sharing a plan size, rows (H, Ht, Tt, T) each.

    The spectra, which the degrees keep, are allocated before the embedding
    block, and the block is freed on return, so freeing it leaves no hole
    below them.
    """
    spectra = np.empty((4 * len(chunk), plan // 2 + 1), dtype=complex)
    block = np.zeros((4 * len(chunk), plan))
    for r, n in zip(range(0, block.shape[0], 4), chunk):
        t_col, tt_col, h, ht, _ = factors[n]
        # the Hankel factors act as Toeplitz operators on the reversed input:
        # [h_n..h_2n | zeros | h_0..h_(n-1)]; the Toeplitz ones are lower triangular
        block[r, : n + 1] = h[n:]
        block[r, plan - n :] = h[:n]
        block[r + 1, : n + 1] = ht[n:]
        block[r + 1, plan - n :] = ht[:n]
        block[r + 2, : n + 1] = tt_col
        block[r + 3, : n + 1] = t_col
    # overflow here is detected afterwards, not warned about per entry
    with np.errstate(over="ignore", invalid="ignore"):
        return _rfft(block, plan, out=spectra)


def structured_inverse_sweep(degrees) -> list:
    """structured_inverse(n) for every n in degrees, bit for bit, spectra batched by plan size.

    The degrees that share a plan size have the four circulant embeddings of
    each written as rows (H, Ht, Tt, T) of one zero-filled (4k, plan) block
    of at most spectral._SWEEP_BLOCK entries, and each block is one 2-D
    rfft, which numpy computes row by row exactly as it would 1-D calls;
    each degree's two pairs are views of its block's spectra.  Raises
    structured_inverse's DegreeTooLargeError for the first degree, in the order
    given, whose squared binomials overflow; failing that, for the first
    whose spectra do.
    """
    degrees = list(degrees)
    if any(n < 0 for n in degrees):
        raise ValueError("degree must be nonnegative")
    factors = {n: _split_factors(n) for n in degrees}
    groups: dict = {}
    for n in factors:
        groups.setdefault(next_pow2(2 * n + 2), []).append(n)
    built, overflowed = {}, set()
    for plan, group in groups.items():
        count = max(1, _SWEEP_BLOCK // (4 * plan))
        for start in range(0, len(group), count):
            chunk = group[start : start + count]
            spectra = _spectra(chunk, factors, plan)
            finite = np.isfinite(spectra).reshape(len(chunk), -1).all(axis=1)
            for r, n, ok in zip(range(0, spectra.shape[0], 4), chunk, finite):
                built[n] = StructuredInverse(n, *factors[n], spectra[r : r + 2], spectra[r + 2 : r + 4])
                if not ok:
                    overflowed.add(n)
    for n in filter(overflowed.__contains__, factors):
        raise DegreeTooLargeError(f"circulant spectra overflow double precision at degree n={n}")
    return [built[n] for n in degrees]


def _dft_apply(si: StructuredInverse, bv: np.ndarray) -> np.ndarray:
    """The dft apply, bare: descale by the binomial diagonal, push through the
    two Hankel factors (sharing one forward transform of the reversed
    vector), then the two Toeplitz factors, subtract, and descale again.
    bv is a float64 vector of the right length; solvers._apply checks b and
    guards an overflow.  Each spectrum pair is applied as one 2-row
    transform, which numpy computes row by row exactly as it would two 1-D
    calls."""
    s = si.degree + 1
    plan = si.plan_size
    rev_hat = _rfft((bv / si.binom_diag)[::-1], plan)
    # rows H y and Ht y, then Tt H y and T Ht y
    hy = _irfft(si._h_pair * rev_hat, plan)[:, :s]
    w = _irfft(si._t_pair * _rfft(hy, plan), plan)
    return (w[0, :s] - w[1, :s]) / si.binom_diag
