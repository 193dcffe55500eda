"""Spectral decomposition of the mass matrix.

The eigenvalues are known in closed form and made by bernstein's float
ratio run, as M's moments and binomial diagonal are.  The orthogonal
eigenvector matrix Q has columns proportional to degree-elevated Legendre
coefficient vectors: as functions of the row index these are the discrete
Chebyshev (Gram, Hahn alpha = beta = 0) polynomials at the Bernstein nodes
(Farouki 2000; Koekoek, Lesky & Swarttouw 2010, sec. 9.5).  build_q assembles Q in
O(n^2) by marching their difference equation down the rows, and
build_q_sweep gives a sweep of degrees the same Qs, bit for bit, from
marches batched across the degrees.  Both refuse a degree past
bernstein._MAX_DEGREE, as mass_matrix does: Q is checked orthogonal through
it.  The eig method's apply through Q, and its last degree, are solvers'
eig handle's.  The naive construction that elevates each Legendre vector
separately costs O(n^3); it is kept for cross-checking as
bernmass.oracle.build_q_by_elevation.
"""

from __future__ import annotations

import math

import numpy as np

from .bernstein import _ratio_run, _supported

__all__ = [
    "SpectralDecomp",
    "eigenvalues",
    "build_q",
    "build_q_sweep",
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
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _ratio_run(1.0 / (n + 1), range(n, 0, -1), range(n + 2, 2 * n + 2))


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
    s_j > 0.  Past bernstein._MAX_DEGREE (582) it raises DegreeTooLargeError
    before building: it is checked only through there, and from n near 1050
    it is far from orthogonal.
    """
    _supported(n, "eigenvector matrix")
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
    np.multiply(sign, q[n - half - 1 :: -1], out=q[half + 1 :])
    return SpectralDecomp(n, q, lam)


# padded entries one batched march of build_q_sweep holds (2 MB of doubles),
# so the tables' Q prefill holds little beyond the Qs it returns
_SWEEP_BLOCK = 1 << 18


def build_q_sweep(degrees) -> list:
    """build_q(n) for every n in degrees, bit for bit, from batched marches.

    The degrees are marched in descending order, so those still marching at
    row i (n//2 > i) form a prefix, and each row step is one set of numpy
    calls over a padded (degree x column) array rather than one per degree.
    Every entry gets build_q's IEEE operations: b, d and b + d are exact
    integers held as per-degree columns, and row 0 is a cumprod along the
    row, which is sequential, so each degree's prefix is its own 1-D
    cumprod.  The padding stays 0.  One degree is faster through build_q.
    A degree past bernstein._MAX_DEGREE raises build_q's DegreeTooLargeError,
    for the largest, before anything is built.
    """
    _supported(max(degrees, default=0), "eigenvector matrix")
    order = sorted(set(degrees), reverse=True)
    built = {}
    start = 0
    while start < len(order):
        top = order[start]
        count = max(1, _SWEEP_BLOCK // ((top // 2 + 1) * (top + 1)))
        for spec in _march_block(order[start : start + count]):
            built[spec.degree] = spec
        start += count
    return [built[n] for n in degrees]


def _march_block(order: list) -> list:
    """build_q for a block of distinct degrees, largest first, in one padded march."""
    top = order[0]
    nv = np.array(order, dtype=float)[:, None]
    j = np.arange(top + 1.0)
    k = j[:-1]
    # the padding (k >= n) clipped to a ratio of 0 rather than sqrt(negative)
    ratio = np.sqrt((2.0 * k + 3.0) * np.maximum(nv - k, 0.0) / ((2.0 * k + 1.0) * (nv + k + 2.0)))
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    mu = j * (j + 1.0)
    rows = np.zeros((len(order), top // 2 + 1, top + 1))
    s = rows[:, 0]
    s[:, :1] = 1.0 / np.sqrt(nv + 1.0)
    s[:, 1:] = ratio
    np.cumprod(s, axis=1, out=s)
    s *= sign
    halves = [n // 2 for n in order]
    active = len(order)
    for i in range(top // 2):
        while halves[active - 1] <= i:
            active -= 1
        n = nv[:active]
        b, d = (i + 1.0) * (i - n), i * (i - n - 1.0)
        prev = rows[:active, i - 1] if i else 0.0
        rows[:active, i + 1] = ((b + d + mu) * rows[:active, i] - d * prev) / b
    out = []
    for slab, n in zip(rows, order):
        # a fresh C-contiguous Q, since matmul's bits depend on the layout
        half = n // 2
        q = np.empty((n + 1, n + 1))
        q[: half + 1] = slab[: half + 1, : n + 1]
        np.multiply(sign[: n + 1], q[n - half - 1 :: -1], out=q[half + 1 :])
        out.append(SpectralDecomp(n, q, eigenvalues(n)))
    return out
