"""Eigenvalues and the orthogonal eigenvector construction."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bernmass.bernstein import DegreeTooLargeError, mass_matrix
from bernmass.oracle import build_q_by_elevation, mass_exact, rational_solve
from bernmass.solvers import solve, solve_spectral
from bernmass.spectral import build_q, build_q_sweep, eigenvalues


def eigenvalue_exact(n, i):
    return Fraction(
        math.factorial(n) ** 2,
        math.factorial(n + i + 1) * math.factorial(n - i),
    )


def test_eigenvalues_match_exact_formula():
    for n in range(21):
        lam = eigenvalues(n)
        for i in range(n + 1):
            assert lam[i] == pytest.approx(float(eigenvalue_exact(n, i)), rel=1e-14)


def test_eigenvalues_sorted_descending():
    lam = eigenvalues(12)
    assert np.all(np.diff(lam) < 0)


def test_trace_identity():
    # the eigenvalues must sum to the trace of the assembled matrix
    for n in (3, 8, 15):
        lam = eigenvalues(n)
        tr = np.trace(mass_matrix(n).matrix)
        assert np.sum(lam) == pytest.approx(tr, rel=1e-13)


def test_build_q_diagonalizes():
    for n in (0, 1, 2, 7, 15, 20):
        d = build_q(n)
        mm = mass_matrix(n).matrix
        resid = mm @ d.q - d.q * d.lam
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-12
        ortho = d.q.T @ d.q - np.eye(n + 1)
        assert np.max(np.abs(ortho)) <= 1e-12


def test_build_q_column_sign_convention():
    # columns end with the positive scale factor sqrt((2k+1) lam_k)
    for n in (1, 4, 9):
        d = build_q(n)
        ends = d.q[n, :]
        expected = np.sqrt((2 * np.arange(n + 1) + 1) * d.lam)
        assert np.allclose(ends, expected, rtol=1e-10)


def test_build_q_matches_elevation_route():
    for n in range(0, 31, 5):
        qa = build_q(n).q
        qb = build_q_by_elevation(n).q
        assert np.max(np.abs(qa - qb)) <= 1e-11


def accurate_mass(n):
    """M to a few ulps through n = 581, from math.comb.

    The moments 1/((2n+1) C(2n,s)) are rounded once with a 2^500 scale, so
    they stay normal doubles where mass_matrix's go subnormal (n > 510).
    """
    c = np.array([float(math.comb(n, i)) for i in range(n + 1)])
    h = np.array([(1 << 500) / ((2 * n + 1) * math.comb(2 * n, s)) for s in range(2 * n + 1)])
    idx = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    return (c[:, None] * h[idx]) * c[None, :] * 2.0**-500


def test_build_q_orthogonal_at_large_degree():
    # 415 has the largest orthogonality defect of all n <= 581 (2.83 (n+1) eps)
    for n in (64, 128, 256, 415, 512, 540, 581):
        d = build_q(n)
        bound = 4 * (n + 1) * np.finfo(float).eps
        assert np.max(np.abs(d.q.T @ d.q - np.eye(n + 1))) <= bound
        resid = accurate_mass(n) @ d.q - d.q * d.lam
        assert np.max(np.abs(resid)) / d.lam[0] <= bound
        assert np.all(d.q[n] > 0.0)


def test_build_q_matches_exact_oracle_at_degree_100():
    # q[i, j] = sum_k (-1)^(j+k) C(j,k)^2 C(n-j,i-k) / C(n,i) * sqrt((2j+1) lam_j):
    # the elevated Legendre coefficients exactly, the square-root scale in mpmath
    mpmath = pytest.importorskip("mpmath")
    n = 100
    exact = np.empty((n + 1, n + 1))
    with mpmath.workdps(40):
        for j in range(n + 1):
            lam = eigenvalue_exact(n, j)
            scale = mpmath.sqrt((2 * j + 1) * mpmath.mpf(lam.numerator) / lam.denominator)
            cj = [math.comb(j, k) ** 2 * (-1) ** (j + k) for k in range(j + 1)]
            cnj = [math.comb(n - j, t) for t in range(n - j + 1)]
            for i in range(n + 1):
                num = sum(cj[k] * cnj[i - k] for k in range(max(0, i - n + j), min(i, j) + 1))
                exact[i, j] = float(mpmath.mpf(num) / math.comb(n, i) * scale)
    q = build_q(n).q
    assert np.max(np.abs(q - exact)) <= 1e-14
    assert np.max(np.abs(q[:6] - exact[:6]) / np.abs(exact[:6])) <= 1e-12


def test_solve_spectral_matches_rational():
    for n in (1, 4, 8):
        d = build_q(n)
        b = np.linspace(-1.0, 1.0, n + 1)
        x = solve_spectral(d, b)
        exact = rational_solve(mass_exact(n), [Fraction(float(v)) for v in b])
        assert np.allclose(x, [float(v) for v in exact], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("n", [508, 509, 545])
def test_solve_spectral_refused_where_solve_refuses_eig(n):
    # from 509 lambda_min is subnormal, and three eigenvalues are 0 at 545:
    # refused before dividing, with solve's error and no numpy warning
    d, b = build_q(n), np.ones(n + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if n == 508:
            x = solve_spectral(d, b)
            assert np.all(np.isfinite(x))
            assert x.tobytes() == solve("eig", n, b, max_degree=600).solution.tobytes()
            return
        with pytest.raises(DegreeTooLargeError) as got:
            solve_spectral(d, b)
        with pytest.raises(DegreeTooLargeError) as want:
            solve("eig", n, b, max_degree=600)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"degree n={n} left double range (smallest eigenvalue ")


def test_apply_mass_spectral_matches_assembly():
    n = 9
    d = build_q(n)
    mm = mass_matrix(n).matrix
    rng = np.random.default_rng(11)
    c = rng.standard_normal(n + 1)
    assert np.allclose(d.q @ (d.lam * (d.q.T @ c)), mm @ c, atol=1e-14)


def test_solve_then_apply_roundtrip():
    n = 12
    d = build_q(n)
    rng = np.random.default_rng(13)
    b = rng.standard_normal(n + 1)
    assert np.allclose(d.q @ (d.lam * (d.q.T @ solve_spectral(d, b))), b, atol=1e-9)


def _build_q_gathered(n):
    # build_q's march with the lower half mirrored by a fancy-index gather
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
    return q, lam


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 20, 63, 64, 255, 256, 511, 512, 580, 581])
def test_build_q_bitwise_equal_to_gathered_mirror(n):
    want_q, want_lam = _build_q_gathered(n)
    got = build_q(n)
    assert got.q.tobytes() == want_q.tobytes()
    assert got.lam.tobytes() == want_lam.tobytes()
    assert eigenvalues(n).tobytes() == want_lam.tobytes()


@pytest.mark.parametrize("degrees", [list(range(41)), [128, 255, 256, 509, 512, 581, 582]])
def test_build_q_sweep_bitwise_equal_to_build_q(degrees):
    # degrees in ascending order, so the batched march reorders them; its
    # padding must raise no warning (sqrt of a negative ratio, say)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = build_q_sweep(degrees)
    assert [d.degree for d in got] == degrees
    for n, d in zip(degrees, got):
        want = build_q(n)
        assert d.q.flags.c_contiguous, n
        assert d.q.tobytes() == want.q.tobytes(), n
        assert d.lam.tobytes() == want.lam.tobytes(), n


def test_build_q_refused_past_the_assembly_limit():
    # Q is checked orthogonal through 582, as M is assembled; from n near 1050 it is far
    # from orthogonal, so past 582 both builds refuse before building, as mass_matrix does
    assert build_q(582).q.shape == (583, 583)
    for build in (build_q, lambda n: build_q_sweep([3, n, 5])):
        with pytest.raises(DegreeTooLargeError, match="^eigenvector matrix degree n=583 is past the supported limit 582$"):
            build(583)
