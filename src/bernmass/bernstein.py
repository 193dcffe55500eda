"""Bernstein basis core: polynomials, degree elevation, and the mass matrix.

The basis on [0,1] is B^n_i(x) = C(n,i) x^i (1-x)^(n-i).  A polynomial is
carried as its degree-n coefficient vector.  The mass matrix of pairwise L2
inner products factors as M = D H D where D is the diagonal of binomial
coefficients and H is a Hankel matrix; both factors are generated by ratio
recurrences so no factorial is ever formed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BernsteinPoly",
    "MassMatrix",
    "DegreeTooLargeError",
    "mass_matrix",
    "hankel_moments",
    "binomial_diag",
    "elevation_matrix",
    "elevate",
    "evaluate",
    "basis_values",
    "legendre_coeffs",
    "m_inner",
]


class DegreeTooLargeError(ValueError):
    """The requested degree cannot be represented in double precision."""


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
        if dtype is not None:
            return self.matrix.astype(dtype)
        return self.matrix

    def __repr__(self):
        return f"MassMatrix(degree={self.degree})"


def hankel_moments(n: int, scale_exp: int = 0) -> np.ndarray:
    """Anti-diagonal values (2n-s)! s! / (2n+1)! for s = 0..2n, times 2^scale_exp.

    Generated by the ratio recurrence h(s+1) = h(s) (s+1)/(2n-s) from
    h(0) = 2^scale_exp/(2n+1), which never touches a factorial.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    v = math.ldexp(1.0, scale_exp) / (2 * n + 1)
    h = [v]
    for s in range(2 * n):
        v = v * (s + 1) / (2 * n - s)
        h.append(v)
    return np.array(h)


def binomial_diag(n: int) -> np.ndarray:
    """The diagonal C(n,i), i = 0..n, by the ratio recurrence."""
    v = 1.0
    d = [v]
    for i in range(n):
        v = v * (n - i) / (i + 1)
        d.append(v)
    return np.array(d)


_MAX_DEGREE = 582  # the supported assembly range, through which Q and the eigenvalues are checked


def mass_matrix(n: int) -> MassMatrix:
    """Assemble the (n+1) x (n+1) mass matrix in double precision.

    Near n = 510 the middle moments, about 4^-n, leave the normal range and
    would keep only a few bits.  So the moment recurrence runs from
    h(0) 2^s, s = max(0, 2n - 1000), and 2^-s is folded into the column
    diagonal: entry (i, j) is (d_i h_s(i+j)) (d_j 2^-s), accurate to a few
    ulps or a few subnormal spacings.  Degrees past _MAX_DEGREE (582) raise
    DegreeTooLargeError.
    """
    if n > _MAX_DEGREE:
        raise DegreeTooLargeError(
            f"mass matrix degree n={n} is past the supported limit {_MAX_DEGREE}"
        )
    s = max(0, 2 * n - 1000)
    h = hankel_moments(n, s)
    d = binomial_diag(n)
    unscale = math.ldexp(1.0, -s)
    # the Hankel matrix as a read-only strided view of h: entry (i, j) is h[i + j]
    hankel = np.ndarray((n + 1, n + 1), buffer=h, strides=(8, 8))
    hankel.flags.writeable = False
    # group as (d_i * h) * d_j: d_i alone can be huge while d_i*h is tame
    m = d[:, None] * hankel
    m *= d * unscale
    return MassMatrix(n, m, h * unscale, d)


def elevation_matrix(m: int, n: int) -> np.ndarray:
    """The (n+1) x (m+1) matrix taking degree-m coefficients to degree n >= m.

    Entry (i, j) is C(m,j) C(n-m,i-j) / C(n,i); each row is a convex
    combination, so rows sum to one.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    e = np.zeros((n + 1, m + 1))
    for i in range(n + 1):
        den = math.comb(n, i)
        for j in range(max(0, i - (n - m)), min(m, i) + 1):
            e[i, j] = math.comb(m, j) * math.comb(n - m, i - j) / den
    return e


def elevate(p: BernsteinPoly, n: int) -> BernsteinPoly:
    """Re-express p in the degree-n basis (n >= p.degree); values are unchanged."""
    if n < p.degree:
        raise ValueError(f"cannot elevate degree {p.degree} down to {n}")
    if n == p.degree:
        return BernsteinPoly(p.coeffs.copy())
    return BernsteinPoly(elevation_matrix(p.degree, n) @ p.coeffs)


def evaluate(p: BernsteinPoly, x):
    """Evaluate p at x (scalar or array) by de Casteljau's recursion.

    Each step replaces neighbouring coefficients by their convex combination
    (1-x) c_i + x c_{i+1}; for x in [0,1] this is unconditionally backward
    stable.  x outside [0,1] is allowed.
    """
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xv = np.atleast_1d(xa)
    w = np.repeat(p.coeffs[:, None], xv.size, axis=1)
    for _ in range(p.degree):
        w = (1.0 - xv) * w[:-1] + xv * w[1:]
    out = w[0]
    return float(out[0]) if scalar else out


def basis_values(n: int, x) -> np.ndarray:
    """All basis values B^n_i(x_q): shape (len(x), n+1).

    Uses the closed form C(n,i) x^i (1-x)^(n-i); on [0,1] every factor is
    nonnegative, so there is no cancellation.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    i = np.arange(n + 1)
    c = np.array([float(math.comb(n, k)) for k in range(n + 1)])
    return c * xv[:, None] ** i * (1.0 - xv)[:, None] ** (n - i)


def legendre_coeffs(k: int, n: int) -> BernsteinPoly:
    """Degree-n Bernstein coefficients of the orthogonal polynomial L^k on [0,1].

    L^k is the Legendre polynomial mapped to [0,1] and scaled so L^k(1) = 1;
    its native degree-k coefficients are (-1)^(k+i) C(k,i), elevated to n.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    base = np.array([(-1.0) ** (k + i) * math.comb(k, i) for i in range(k + 1)])
    return elevate(BernsteinPoly(base), n)


def m_inner(p: BernsteinPoly, q: BernsteinPoly) -> float:
    """The L2 inner product of p and q, computed as p^T M q."""
    if p.degree != q.degree:
        raise ValueError(
            f"inner product needs equal degrees, got {p.degree} and {q.degree}"
        )
    m = mass_matrix(p.degree).matrix
    return float(p.coeffs @ m @ q.coeffs)
