"""The scalar recurrences against the loops they replaced, bit for bit.

Each _old_* function below is the earlier code, copied: the three float
ratio loops of hankel_moments, binomial_diag and eigenvalues, now one
bernstein._ratio_run, and the two Legendre three-term loops of the
quadrature rule and of the tables' Legendre reference, now one
quadrature._legendre_run (the reference's signed row then stepped as
integers by one subtraction per entry; it is now binomial_row signed).
"""

import math

import numpy as np
import pytest

from bernmass.bernstein import _MAX_DEGREE, binomial_diag, hankel_moments
from bernmass.experiments import _legendre_projections, default_rule, f1, f2
from bernmass.quadrature import gauss_legendre
from bernmass.spectral import eigenvalues


def _old_hankel_moments(n, scale_exp=0):
    v = math.ldexp(1.0, scale_exp) / (2 * n + 1)
    h = [v]
    for s in range(2 * n):
        v = v * (s + 1) / (2 * n - s)
        h.append(v)
    return np.array(h)


def _old_binomial_diag(n):
    v = 1.0
    d = [v]
    for i in range(n):
        v = v * (n - i) / (i + 1)
        d.append(v)
    return np.array(d)


def _old_eigenvalues(n):
    v = 1.0 / (n + 1)
    lam = [v]
    for i in range(n):
        v = v * (n - i) / (n + i + 2)
        lam.append(v)
    return np.array(lam)


def _old_legendre_value_derivative(m, x):
    p_prev, p = np.ones_like(x), x
    for k in range(1, m):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _old_gauss_legendre(m):
    x, _ = np.polynomial.legendre.leggauss(m)
    p, dp = _old_legendre_value_derivative(m, x)
    x = x - p / dp
    _, dp = _old_legendre_value_derivative(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x + 1.0), 0.5 * w


def _old_legendre_projections(fv, n_max, rule):
    y = 2.0 * rule.nodes - 1.0
    p_prev, p = np.ones_like(y), y
    steps = np.arange(n_max + 1.0)
    signed = [1]
    a = np.zeros(1)
    out = []
    for n in range(n_max + 1):
        lk = p_prev if n == 0 else p
        cn = (2 * n + 1) * float(rule.weights @ (fv * lk))
        if n:
            r = steps[1 : n + 1] / n
            a, prev = np.zeros(n + 1), a
            np.multiply(r[::-1], prev, out=a[:-1])
            a[1:] += r * prev
            p_prev, p = p, ((2 * n + 1) * y * p - n * p_prev) / (n + 1)
            signed = [u - v for u, v in zip([0, *signed], [*signed, 0])]
        a += cn * np.array(signed, dtype=float)
        out.append(a)
    return out


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_hankel_moments_are_the_old_loop_through_the_assembly_limit():
    # both the unscaled run and mass_matrix's, scaled by 2^max(0, 2n - 1000)
    for n in range(583):
        for s in sorted({0, max(0, 2 * n - 1000)}):
            assert _same_bits(hankel_moments(n, s), _old_hankel_moments(n, s)), (n, s)


def test_binomial_diag_is_the_old_loop_into_overflow():
    # from n = 1030 the middle entries are inf, and they must match too
    assert np.isinf(binomial_diag(1100)).any()
    for n in range(1101):
        assert _same_bits(binomial_diag(n), _old_binomial_diag(n)), n


def test_eigenvalues_are_the_old_loop_into_underflow():
    # through their last degree, assembly's 582; the first zeros come at 545
    assert (eigenvalues(_MAX_DEGREE) == 0.0).any()
    for n in range(_MAX_DEGREE + 1):
        assert _same_bits(eigenvalues(n), _old_eigenvalues(n)), n


def test_gauss_legendre_is_the_old_loop():
    for m in range(1, 65):
        rule = gauss_legendre(m)
        nodes, weights = _old_gauss_legendre(m)
        assert _same_bits(rule.nodes, nodes) and _same_bits(rule.weights, weights), m


@pytest.mark.parametrize("f", [f1, f2], ids=["f1", "f2"])
def test_legendre_projections_are_the_old_loop(f):
    rule = default_rule()
    fv = f(rule.nodes)
    got = _legendre_projections(fv, 300, rule)
    want = _old_legendre_projections(fv, 300, rule)
    assert len(got) == len(want) == 301
    for n, (g, w) in enumerate(zip(got, want)):
        assert _same_bits(g, w), n
