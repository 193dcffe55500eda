"""Bernstein basis core: polynomials, their evaluation, and the mass matrix.

The basis on [0,1] is B^n_i(x) = C(n,i) x^i (1-x)^(n-i).  A polynomial is
carried as its degree-n coefficient vector.  The mass matrix of pairwise L2
inner products factors as M = D H D where D is the diagonal of binomial
coefficients and H is a Hankel matrix; both factors, and the eigenvalues
of spectral, come from one float ratio run, _ratio_run, so no factorial is
ever formed.  Every public entry point that takes a degree checks it first
by one rule, _degree.  basis_values refuses a degree past 1029, where
C(n, n//2) is not a double, before any work.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "BernsteinPoly",
    "MassMatrix",
    "DegreeTooLargeError",
    "mass_matrix",
    "hankel_moments",
    "binomial_diag",
    "binomial_row",
    "evaluate",
    "basis_values",
]


class DegreeTooLargeError(ValueError):
    """The requested degree cannot be represented in double precision."""


def _degree(n, what: str, last: int | None = None) -> int:
    """n as an int, by the one degree rule of every public entry point, before any work.

    operator.index takes an int or a numpy integer; a bool, a float or any
    other object raises TypeError, its message naming the degree of what.
    A negative n raises ValueError, and one past last DegreeTooLargeError
    naming what would be built.
    """
    if isinstance(n, bool) or not hasattr(type(n), "__index__"):
        raise TypeError(f"{what} degree must be an integer, not {type(n).__name__}")
    n = operator.index(n)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if last is not None and n > last:
        raise DegreeTooLargeError(f"{what} degree n={n} is past the supported limit {last}")
    return n


class BernsteinPoly:
    """A polynomial held as its Bernstein coefficients on [0, 1].

    The degree is implicit in the coefficient length: n+1 coefficients mean
    degree n.
    """

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a nonempty 1-d vector")
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        return f"BernsteinPoly(degree={self.degree}, coeffs={self.coeffs!r})"


class MassMatrix:
    """Dense symmetric positive-definite Gram matrix of the degree-n basis.

    Alongside the dense entries, keeps the two structured factors:
    ``hankel_factor`` holds the 2n+1 anti-diagonal values of the binomially
    descaled matrix, and ``binom_diag`` the diagonal scaling C(n,i), so that
    matrix[i, j] = binom_diag[i] * hankel_factor[i+j] * binom_diag[j].  From
    n = 536 the middle values round to 0; the entries do not, since they are
    assembled from moments scaled into the normal range.
    """

    def __init__(self, degree, matrix, hankel_factor, binom_diag):
        self.degree = degree
        self.matrix = matrix
        self.hankel_factor = hankel_factor
        self.binom_diag = binom_diag

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"MassMatrix(degree={self.degree})"


def _ratio_run(v: float, numerators, denominators) -> np.ndarray:
    """v, then v <- v a / b for each a, b of two integer runs, as an array.

    Each step rounds v a, then its quotient by b: the float ratio recurrence
    of hankel_moments, binomial_diag and spectral.eigenvalues.
    """
    out = [v]
    for a, b in zip(numerators, denominators):
        v = v * a / b
        out.append(v)
    return np.array(out)


def hankel_moments(n: int, scale_exp: int = 0) -> np.ndarray:
    """Anti-diagonal values (2n-s)! s! / (2n+1)! for s = 0..2n, times 2^scale_exp.

    Generated by the ratio recurrence h(s+1) = h(s) (s+1)/(2n-s) from
    h(0) = 2^scale_exp/(2n+1), which never touches a factorial.
    """
    n = _degree(n, "Hankel moments")
    return _ratio_run(math.ldexp(1.0, scale_exp) / (2 * n + 1), range(1, 2 * n + 1), range(2 * n, 0, -1))


def binomial_row(n: int) -> list:
    """The integers C(n,i), i = 0..n, by the exact ratio recurrence c (n-i) // (i+1)."""
    n = _degree(n, "binomial row")
    c = 1
    row = [c]
    for i in range(n):
        c = c * (n - i) // (i + 1)
        row.append(c)
    return row


def _squared_binomial_row(n: int) -> list:
    """The integers (-1)^d C(n+1, d)^2, d = 0..n+1, the squares of binomial_row(n+1).

    Entries 0..n are the first column of the dft split's unit-diagonal lower
    Toeplitz factor and entries 1..n+1, then n zeros, its Hankel factor's
    anti-diagonals; the exact inverse's band grows by rank-one steps in it.
    """
    return [-c * c if d % 2 else c * c for d, c in enumerate(binomial_row(n + 1))]


def binomial_diag(n: int) -> np.ndarray:
    """The diagonal C(n,i), i = 0..n, by the float ratio recurrence
    d(i+1) = d(i) (n-i)/(i+1) from d(0) = 1.

    Not binomial_row rounded: from n = 55 the recurrence's rounding differs
    from the correctly rounded row, and M's bits are tied to this one.
    """
    n = _degree(n, "binomial diagonal")
    return _ratio_run(1.0, range(n, 0, -1), range(1, n + 1))


_MAX_DEGREE = 582  # the supported range of assembly, Q and the eigenvalues, all checked through it
_LAST_BASIS_DEGREE = 1029  # C(1029, 514) is a double, C(1030, 515) is not


def mass_matrix(n: int) -> MassMatrix:
    """Assemble the (n+1) x (n+1) mass matrix in double precision.

    Near n = 510 the middle moments, about 4^-n, leave the normal range and
    would keep only a few bits.  So the moment recurrence runs from
    h(0) 2^s, s = max(0, 2n - 1000), and 2^-s is folded into the column
    diagonal: entry (i, j) is (d_i h_s(i+j)) (d_j 2^-s), accurate to a few
    ulps or a few subnormal spacings.  Through n = 500, where s = 0, nothing
    is multiplied by 2^0 = 1.0.  Degrees past _MAX_DEGREE (582) raise
    DegreeTooLargeError.
    """
    n = _degree(n, "mass matrix", _MAX_DEGREE)
    s = max(0, 2 * n - 1000)
    h = hankel_moments(n, s)
    d = binomial_diag(n)
    # the Hankel matrix is a strided view of h, entry (i, j) being h[i + j], read only here;
    # group as (d_i * h) * d_j: d_i alone can be huge while d_i*h is tame
    m = d[:, None] * np.ndarray((n + 1, n + 1), buffer=h, strides=(8, 8))
    if s:
        unscale = math.ldexp(1.0, -s)
        m *= d * unscale
        return MassMatrix(n, m, h * unscale, d)
    m *= d
    return MassMatrix(n, m, h, d)


def evaluate(p: BernsteinPoly, x):
    """Evaluate p at x (scalar or array) by de Casteljau's recursion.

    Each step replaces neighbouring coefficients by their convex combination
    (1-x) c_i + x c_{i+1}; for x in [0,1] this is unconditionally backward
    stable.  x outside [0,1] is allowed.  A scalar x gives a float, and an
    array x an array of its shape, each entry that of x flattened.
    """
    xa = np.asarray(x, dtype=float)
    xv = xa.reshape(-1)
    w = np.repeat(p.coeffs[:, None], xv.size, axis=1)
    for _ in range(p.degree):
        w = (1.0 - xv) * w[:-1] + xv * w[1:]
    out = w[0]
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


def basis_values(n: int, x) -> np.ndarray:
    """All basis values B^n_i(x_q): shape (len(x), n+1).

    Uses the closed form C(n,i) x^i (1-x)^(n-i); on [0,1] every factor is
    nonnegative, so there is no cancellation.  Past _LAST_BASIS_DEGREE
    (1029), where C(n, n//2) is not a double, it raises DegreeTooLargeError
    before any work.
    """
    n = _degree(n, "Bernstein basis", _LAST_BASIS_DEGREE)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    return _basis_from_powers(n, *_power_tables(xv, n))


def _power_tables(xv: np.ndarray, n: int) -> tuple:
    """x^k for k = 0..n, and (1-x)^k for k = n..0, each of shape (len(x), n+1).

    The second table runs backwards, so degree m's powers (1-x)^(m-i),
    i = 0..m, are its last m+1 columns, read forwards.
    """
    return xv[:, None] ** np.arange(n + 1), (1.0 - xv)[:, None] ** np.arange(n, -1, -1)


def _basis_from_powers(n: int, xp: np.ndarray, yr: np.ndarray) -> np.ndarray:
    """basis_values(n, x) from _power_tables of x reaching at least degree n."""
    c = np.array(binomial_row(n), dtype=float)
    return c * xp[:, : n + 1] * yr[:, yr.shape[1] - n - 1 :]
