"""Cross-check routes: exact rational arithmetic, the derivations of M^-1
that the solvers do not run, and single-degree forms of the table inputs.

The paper reaches the inverse mass matrix several ways; production keeps one
per method, and every other route lives here for the tests and demos to hold
the production paths against:

- exact rationals: the mass matrix, degree elevation, Legendre coefficients
  and Gauss-Jordan inversion over ``fractions.Fraction``;
- the two published entry formulas of the inverse and its integer last
  column;
- the Hankel inversion through a Bezoutian (Heinig & Rost), its coefficient
  vectors, the dense Toeplitz/Hankel split of the inverse, the FFT Toeplitz
  product and a Hankel product through it;
- Q built by elevating each Legendre vector, in O(n^3);
- the projection table's moments, function norm and Legendre reference
  for one degree at a time, which run_projection forms for all its
  degrees in one pass.

Matrices are plain row-major lists of lists, so ints and Fractions stay
exact.  Nothing in the package imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bernstein import BernsteinPoly, _squared_binomial_row, basis_values, binomial_row
from .experiments import _legendre_projections, default_rule
from .kernels import _scaled_norm
from .quadrature import QuadratureRule
from .spectral import SpectralDecomp, eigenvalues
from .structured import next_pow2

# Row-major rational matrix; plain ints are accepted anywhere a Fraction is.
RationalMatrix = list[list[Fraction]]


class SingularMatrixError(ValueError):
    """Exact elimination found a column with no nonzero pivot."""


# ---------------------------------------------------------------------------
# exact rationals


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_indices(n, i, j):
    if not (0 <= i <= n and 0 <= j <= n):
        raise IndexError(f"indices ({i}, {j}) out of range for degree n={n}")


def mass_entry_exact(n: int, i: int, j: int) -> Fraction:
    """Exact L2 inner product of the degree-n Bernstein basis functions i and j.

    Equals C(n,i) C(n,j) (2n-i-j)! (i+j)! / (2n+1)!.
    """
    _check_indices(n, i, j)
    num = binom(n, i) * binom(n, j) * math.factorial(2 * n - i - j) * math.factorial(i + j)
    return Fraction(num, math.factorial(2 * n + 1))


def mass_exact(n: int) -> RationalMatrix:
    """Exact (n+1) x (n+1) Bernstein mass matrix."""
    return [[mass_entry_exact(n, i, j) for j in range(n + 1)] for i in range(n + 1)]


def elevation_exact(m: int, n: int) -> RationalMatrix:
    """Exact (n+1) x (m+1) degree-elevation matrix from degree m to degree n >= m."""
    if not 0 <= m <= n:
        raise ValueError(f"elevation_exact requires 0 <= m <= n, got m={m}, n={n}")
    return [
        [Fraction(binom(m, j) * binom(n - m, i - j), binom(n, i)) for j in range(m + 1)]
        for i in range(n + 1)
    ]


def legendre_exact(k: int) -> list[int]:
    """Degree-k Bernstein coefficients of the shifted Legendre polynomial, exactly.

    Component i is (-1)^(k+i) C(k, i); the normalization puts value 1 at x=1.
    """
    return [(-1) ** (k + i) * binom(k, i) for i in range(k + 1)]


def identity_exact(size: int) -> RationalMatrix:
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if len(a[0]) != len(b):
        raise ValueError(f"mat_mul: inner dimensions {len(a[0])} and {len(b)} differ")
    cols = len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_vec(a: RationalMatrix, x: list) -> list:
    if len(a[0]) != len(x):
        raise ValueError(f"mat_vec: matrix has {len(a[0])} columns, vector has {len(x)}")
    return [sum(row[k] * x[k] for k in range(len(x))) for row in a]


def transpose(a: RationalMatrix) -> RationalMatrix:
    return [list(col) for col in zip(*a)]


def _eliminate(a: RationalMatrix, rhs: RationalMatrix) -> RationalMatrix:
    """Gauss-Jordan over the rationals, returning the solution of a X = rhs.

    Pivots on the first nonzero entry in each column; exact arithmetic needs no
    magnitude-based pivot selection.
    """
    size = len(a)
    work = [[Fraction(v) for v in row] for row in a]
    out = [[Fraction(v) for v in row] for row in rhs]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"zero pivot column {col} during exact elimination")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            out[col], out[pivot_row] = out[pivot_row], out[col]
        inv_piv = 1 / work[col][col]
        work[col] = [v * inv_piv for v in work[col]]
        out[col] = [v * inv_piv for v in out[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * p for v, p in zip(work[r], work[col])]
                out[r] = [v - factor * p for v, p in zip(out[r], out[col])]
    return out


def rational_inverse(a: RationalMatrix) -> RationalMatrix:
    """Exact inverse of a square rational matrix; a @ result is the identity exactly."""
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("rational_inverse requires a square matrix")
    return _eliminate(a, identity_exact(size))


def rational_solve(a: RationalMatrix, b: list) -> list[Fraction]:
    """Exact solution of a x = b over the rationals."""
    col = _eliminate(a, [[Fraction(v)] for v in b])
    return [row[0] for row in col]


# ---------------------------------------------------------------------------
# degree elevation and Legendre coefficients in floats


def elevation_matrix(m: int, n: int) -> np.ndarray:
    """The (n+1) x (m+1) matrix taking degree-m coefficients to degree n >= m.

    Each entry C(m,j) C(n-m,i-j) / C(n,i) of elevation_exact, rounded once;
    each row is a convex combination, so rows sum to one.
    """
    return np.array([[float(v) for v in row] for row in elevation_exact(m, n)])


def elevate(p: BernsteinPoly, n: int) -> BernsteinPoly:
    """Re-express p in the degree-n basis (n >= p.degree); values are unchanged."""
    if n < p.degree:
        raise ValueError(f"cannot elevate degree {p.degree} down to {n}")
    if n == p.degree:
        return BernsteinPoly(p.coeffs.copy())
    return BernsteinPoly(elevation_matrix(p.degree, n) @ p.coeffs)


def legendre_coeffs(k: int, n: int) -> BernsteinPoly:
    """Degree-n Bernstein coefficients of the orthogonal polynomial L^k on [0,1].

    L^k is the Legendre polynomial mapped to [0,1] and scaled so L^k(1) = 1;
    its native degree-k coefficients are legendre_exact(k), elevated to n.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return elevate(BernsteinPoly(np.array(legendre_exact(k), dtype=float)), n)


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


# ---------------------------------------------------------------------------
# entry formulas of the inverse


def _primary_terms(n, i, j):
    """Integer summands of the primary entry formula, nonzero k only."""
    return [
        (2 * k + 1 - i + j) * math.comb(n + 1, i - k) ** 2 * math.comb(n + 1, j + k + 1) ** 2
        for k in range(min(i, n - j) + 1)
    ]


def _dual_terms(n, i, j):
    """Integer summands of the dual-basis entry formula, nonzero k only."""
    return [
        (2 * k + 1)
        * math.comb(n + k + 1, n - j)
        * math.comb(n - k, n - j)
        * math.comb(n + k + 1, n - i)
        * math.comb(n - k, n - i)
        for k in range(min(i, j) + 1)
    ]


def hankel_inverse_entry(n: int, i: int, j: int) -> int:
    """Entry (i, j) of the inverse of the binomially descaled (Hankel) factor.

    The primary closed form: (-1)^(i+j) times a sum over k of
    (2k+1-i+j) C(n+1,i-k)^2 C(n+1,j+k+1)^2, where k runs while both
    binomials are nonzero.  An exact integer, C(n,i) C(n,j) times the
    inverse-mass entry.
    """
    _check_indices(n, i, j)
    return (-1) ** (i + j) * sum(_primary_terms(n, i, j))


def inverse_entry_exact(n: int, i: int, j: int) -> Fraction:
    """Entry (i, j) of the inverse mass matrix from the primary closed form, exactly."""
    return Fraction(hankel_inverse_entry(n, i, j), math.comb(n, i) * math.comb(n, j))


def inverse_entry_dual_exact(n: int, i: int, j: int) -> Fraction:
    """The dual-basis formula evaluated exactly over the rationals."""
    _check_indices(n, i, j)
    total = (-1) ** (i + j) * sum(_dual_terms(n, i, j))
    return Fraction(total, math.comb(n, i) * math.comb(n, j))


def last_column_y_exact(n: int) -> list:
    """The last column of the inverse mass matrix, (-1)^(n+i) (n+1) C(n+1,i), as integers."""
    return [(-1) ** (n + i) * (n + 1) * c for i, c in enumerate(binomial_row(n + 1)[:-1])]


# ---------------------------------------------------------------------------
# dense structured builders (generic over the scalar type)


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


def toeplitz_matvec(first_col, first_row, x) -> np.ndarray:
    """Toeplitz product via circulant embedding and FFTs, O(n log n).

    first_col and first_row fix the matrix (their leading entries must
    agree); the embedding size is the next power of two at least twice the
    dimension.  The circulant's first column is [first_col | zeros |
    reverse(first_row[1:])], so entry (i-j) mod plan reproduces the band.
    """
    col = np.asarray(first_col, dtype=float)
    row = np.asarray(first_row, dtype=float)
    xv = np.asarray(x, dtype=float)
    if not col.size == row.size == xv.size:
        raise ValueError("first column, first row, and vector lengths must agree")
    if col[0] != row[0]:
        raise ValueError("first column and first row must share their leading entry")
    s = col.size
    plan = next_pow2(2 * s)
    c = np.zeros(plan)
    c[:s] = col
    c[plan - s + 1 :] = row[:0:-1]
    return np.fft.irfft(np.fft.rfft(c) * np.fft.rfft(xv, plan), plan)[:s]


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


def bezout_coeff_u(n: int) -> list:
    """Monomial coefficients (length n+2) generating the scaled-inverse Bezoutian.

    Entry i is (-1)^(n+i) (n+1) C(n,i) C(n+1,i) for i <= n, padded by one
    zero (degree elevation).  Bez(v, u) / v_{n+1} is hankel_inverse_exact(n).
    """
    c, c1 = binomial_row(n), binomial_row(n + 1)
    return [(-1) ** (n + i) * (n + 1) * c[i] * c1[i] for i in range(n + 1)] + [0]


def bezout_coeff_v(n: int) -> list:
    """The companion coefficient vector: entry i is (-1)^(i+1) (n+1) C(n+1,i) C(n,i-1).

    This is the reversal of the zero-padded u vector.
    """
    c, c1 = binomial_row(n), binomial_row(n + 1)
    return [0] + [(-1) ** (i + 1) * (n + 1) * c1[i] * c[i - 1] for i in range(1, n + 2)]


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


# ---------------------------------------------------------------------------
# the projection table's inputs, one degree at a time


def moments(f, n: int, rule: QuadratureRule | None = None) -> np.ndarray:
    """Right-hand side b_i = integral of f times the i-th degree-n basis function."""
    rule = rule or default_rule()
    fv = np.asarray(f(rule.nodes), dtype=float)
    return (rule.weights * fv) @ basis_values(n, rule.nodes)


def function_norm(f, rule: QuadratureRule | None = None) -> float:
    """L2 norm of f over [0,1] under the moment rule."""
    rule = rule or default_rule()
    return _scaled_norm(np.sqrt(rule.weights) * np.asarray(f(rule.nodes), dtype=float))


def legendre_reference(f, n: int, rule: QuadratureRule | None = None) -> BernsteinPoly:
    """Degree-n best approximation of f assembled from its Legendre series.

    The orthogonal-series coefficients (2k+1) (f, L_k) only need numerical
    integration, so this route never touches the mass matrix and serves as
    the independent reference for the projection experiments.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    rule = rule or default_rule()
    fv = np.asarray(f(rule.nodes), dtype=float)
    return BernsteinPoly(_legendre_projections(fv, n, rule)[n])
