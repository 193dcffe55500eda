"""Spectral decomposition of the mass matrix.

The eigenvalues are known in closed form, and the orthogonal eigenvector
matrix Q has columns proportional to degree-elevated Legendre coefficient
vectors: as functions of the row index these are the discrete Chebyshev
(Gram, Hahn alpha = beta = 0) polynomials at the Bernstein nodes (Farouki
2000; Koekoek, Lesky & Swarttouw 2010, sec. 9.5).  build_q assembles Q in
O(n^2) by marching their difference equation down the rows.  The naive
construction that elevates each Legendre vector separately costs O(n^3)
and is kept for cross-checking.
"""

from __future__ import annotations

import math

import numpy as np

from .bernstein import legendre_coeffs

__all__ = [
    "SpectralDecomp",
    "eigenvalue",
    "eigenvalues",
    "build_q",
    "build_q_by_elevation",
    "solve_spectral",
    "apply_mass_spectral",
]


class SpectralDecomp:
    """Orthogonal eigenvectors and eigenvalues of the degree-n mass matrix."""

    def __init__(self, degree, q, lam):
        self.degree = degree
        self.q = q
        self.lam = lam

    def __repr__(self):
        return f"SpectralDecomp(degree={self.degree})"


def eigenvalues(n: int) -> np.ndarray:
    """All eigenvalues (n!)^2 / ((n+i+1)!(n-i)!), i = 0..n, largest first.

    Built by the ratio recurrence lam(i+1) = lam(i) (n-i)/(n+i+2) from
    lam(0) = 1/(n+1), avoiding explicit factorials.
    """
    lam = np.empty(n + 1)
    lam[0] = 1.0 / (n + 1)
    for i in range(n):
        lam[i + 1] = lam[i] * (n - i) / (n + i + 2)
    return lam


def eigenvalue(n: int, i: int) -> float:
    """The i-th eigenvalue of the degree-n mass matrix (decreasing in i)."""
    if not 0 <= i <= n:
        raise IndexError(f"eigenvalue index {i} out of range for degree {n}")
    lam = 1.0 / (n + 1)
    for k in range(i):
        # same operation order as eigenvalues() so both routes agree bitwise
        lam = lam * (n - k) / (n + k + 2)
    return lam


def build_q(n: int) -> SpectralDecomp:
    """Assemble the orthogonal eigenvector matrix in O(n^2) operations.

    Column j, read down the rows i, solves the Hahn difference equation
    B_i q[i+1] = (B_i + D_i + mu_j) q[i] - D_i q[i-1] with B_i = (i+1)(i-n),
    D_i = i(i-n-1) and mu_j = j(j+1).  Row 0 is (-1)^j s_j with
    s_j = sqrt((2j+1) lam_j), the unit 2-norm scale, taken by its own ratio
    recurrence because lam_j itself underflows near n = 540.  The march runs
    from the small corner entries to the middle row, where the wanted
    solution dominates, one vector step per row; persymmetry
    q[n-i, j] = (-1)^j q[i, j] gives the other half, so the last row is
    s_j > 0.
    """
    lam = eigenvalues(n)
    j = np.arange(n + 1.0)
    k = j[:-1]
    ratio = np.sqrt((2.0 * k + 3.0) * (n - k) / ((2.0 * k + 1.0) * (n + k + 2.0)))
    s = np.cumprod(np.concatenate(([1.0 / math.sqrt(n + 1)], ratio)))
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    mu = j * (j + 1.0)
    q = np.empty((n + 1, n + 1))
    q[0] = sign * s
    prev = np.zeros(n + 1)
    for i in range(n // 2):
        b, d = (i + 1.0) * (i - n), i * (i - n - 1.0)
        q[i + 1] = ((b + d + mu) * q[i] - d * prev) / b
        prev = q[i]
    half = n // 2
    q[half + 1 :] = sign * q[n - np.arange(half + 1, n + 1)]
    return SpectralDecomp(n, q, lam)


def build_q_by_elevation(n: int) -> SpectralDecomp:
    """Reference eigenvector construction: elevate each Legendre vector directly.

    O(n^3) work; exists to validate build_q.
    """
    lam = eigenvalues(n)
    q = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        q[:, j] = legendre_coeffs(j, n).coeffs
    q *= np.sqrt((2.0 * np.arange(n + 1) + 1.0) * lam)
    return SpectralDecomp(n, q, lam)


def solve_spectral(d: SpectralDecomp, b) -> np.ndarray:
    """Apply the inverse mass matrix: Q diag(1/lam) Q^T b, O(n^2)."""
    b = np.asarray(b, dtype=float)
    return d.q @ ((d.q.T @ b) / d.lam)


def apply_mass_spectral(d: SpectralDecomp, c) -> np.ndarray:
    """Apply the mass matrix itself through the decomposition: Q diag(lam) Q^T c."""
    c = np.asarray(c, dtype=float)
    return d.q @ (d.lam * (d.q.T @ c))
