"""Gauss-Legendre rules checked against an independent implementation."""

import math

import numpy as np
import pytest

from bernmass.quadrature import QuadratureRule, composite_gauss_legendre, gauss_legendre, integrate


def test_one_point_rule_is_midpoint():
    r = gauss_legendre(1)
    assert np.array_equal(r.nodes, [0.5])
    assert np.array_equal(r.weights, [1.0])


def test_two_point_rule_closed_form():
    r = gauss_legendre(2)
    third = 1.0 / (2.0 * math.sqrt(3.0))
    assert r.nodes == pytest.approx([0.5 - third, 0.5 + third], abs=1e-15)
    assert r.weights == pytest.approx([0.5, 0.5], abs=1e-15)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 16, 32, 64])
def test_rules_match_numpy_reference(m):
    r = gauss_legendre(m)
    xs, ws = np.polynomial.legendre.leggauss(m)
    assert np.max(np.abs(r.nodes - (xs + 1.0) / 2.0)) <= 5e-15
    assert np.max(np.abs(r.weights - ws / 2.0)) <= 5e-15


def test_rule_matches_high_precision_reference():
    mpmath = pytest.importorskip("mpmath")
    m = 32
    r = gauss_legendre(m)
    with mpmath.workdps(50):
        for x0, w in zip(r.nodes, r.weights):
            x = mpmath.findroot(lambda t: mpmath.legendre(m, t), 2 * mpmath.mpf(x0) - 1)
            # at a root, P_m' = m P_{m-1} / (1 - x^2); halved for [0, 1]
            w_ref = (1 - x * x) / (m * mpmath.legendre(m - 1, x)) ** 2
            assert abs(w - w_ref) <= 1e-14 * w_ref
            assert abs(x0 - (x + 1) / 2) <= 2.5e-16


@pytest.mark.parametrize("m", [1, 2, 4, 7, 12, 32])
def test_weights_positive_and_normalized(m):
    r = gauss_legendre(m)
    assert np.all(r.weights > 0)
    assert abs(np.sum(r.weights) - 1.0) <= 1e-14
    assert np.all(np.diff(r.nodes) > 0)
    assert np.all((r.nodes > 0) & (r.nodes < 1))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9])
def test_polynomial_exactness(m):
    r = gauss_legendre(m)
    for k in range(2 * m):
        got = integrate(lambda x: x**k, r)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-13), (m, k)


def test_invalid_point_count():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_composite_rule_layout():
    r = composite_gauss_legendre(4, 3)
    assert len(r) == 12
    assert abs(np.sum(r.weights) - 1.0) <= 1e-14
    # each third of the nodes lies in its own cell
    assert np.all(r.nodes[:4] < 1 / 3)
    assert np.all((r.nodes[4:8] > 1 / 3) & (r.nodes[4:8] < 2 / 3))
    assert np.all(r.nodes[8:] > 2 / 3)
    with pytest.raises(ValueError):
        composite_gauss_legendre(4, 0)


def test_composite_rule_self_convergence():
    # the fixed experiment rule agrees with a doubled-resolution rule
    coarse = composite_gauss_legendre(32, 8)
    fine = composite_gauss_legendre(64, 16)
    for f in (
        lambda x: 1.0 / (1.0 + 396.0 * (x - 0.5) ** 2),
        lambda x: 0.01 + x / (x * x + 1.0),
    ):
        a = integrate(f, coarse)
        b = integrate(f, fine)
        assert abs(a - b) <= 1e-15 * max(1.0, abs(b))


def test_integrate_simple():
    r = composite_gauss_legendre(8, 2)
    assert integrate(np.exp, r) == pytest.approx(math.e - 1.0, rel=1e-14)
