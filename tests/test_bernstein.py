"""Basis operations: assembly, elevation and evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bernmass import bernstein
from bernmass.bernstein import (
    BernsteinPoly,
    DegreeTooLargeError,
    _basis_from_powers,
    _power_tables,
    basis_values,
    binomial_diag,
    binomial_row,
    evaluate,
    hankel_moments,
    mass_matrix,
)
from bernmass.oracle import elevate, elevation_matrix, legendre_coeffs, mass_exact
from bernmass.quadrature import composite_gauss_legendre


def test_mass_matrix_matches_rational_oracle():
    for n in range(10):
        m = mass_matrix(n).matrix
        exact = np.array([[float(v) for v in row] for row in mass_exact(n)])
        # assembly is accurate to one ulp of the largest entry
        assert np.max(np.abs(m - exact)) <= 2e-16 * np.max(exact)


def test_mass_matrix_structure():
    mm = mass_matrix(4)
    assert mm.degree == 4
    assert mm.matrix.shape == (5, 5)
    assert np.allclose(mm.matrix, mm.matrix.T)
    # descaled factor is Hankel: constant along anti-diagonals
    h = mm.hankel_factor
    hs = hankel_moments(4)
    for i in range(5):
        for j in range(5):
            assert h[i + j] == hs[i + j]
    assert np.allclose(np.asarray(mm), mm.matrix)


def test_mass_matrix_array_protocol_honours_copy():
    # np.array copies, np.asarray shares where no conversion is needed, as for an ndarray
    mm = mass_matrix(3)
    assert not np.shares_memory(np.array(mm), mm.matrix)
    assert np.shares_memory(np.asarray(mm), mm.matrix)
    assert np.shares_memory(np.asarray(mm, dtype=float, copy=False), mm.matrix)
    single = np.asarray(mm, dtype=np.float32)
    assert single.dtype == np.float32 and np.array_equal(single, mm.matrix.astype(np.float32))
    with pytest.raises(ValueError):
        np.asarray(mm, dtype=np.float32, copy=False)


def test_hankel_moments_values():
    h = hankel_moments(2)
    expected = [Fraction(math.factorial(4 - s) * math.factorial(s), math.factorial(5)) for s in range(5)]
    assert np.allclose(h, [float(v) for v in expected], rtol=1e-15)


def test_binomial_diag():
    assert np.array_equal(binomial_diag(4), [1.0, 4.0, 6.0, 4.0, 1.0])


def test_mass_matrix_degree_guard():
    mass_matrix(582)  # largest degree whose entries stay inside double range
    with pytest.raises(DegreeTooLargeError):
        mass_matrix(583)


def test_elevation_matrix_one_step():
    n = 5
    e = elevation_matrix(n, n + 1)
    for i in range(n + 2):
        for j in range(n + 1):
            if j == i:
                assert e[i, j] == pytest.approx((n + 1 - i) / (n + 1))
            elif j == i - 1:
                assert e[i, j] == pytest.approx(i / (n + 1))
            else:
                assert e[i, j] == 0.0


def test_elevation_preserves_values():
    p = BernsteinPoly(np.array([0.3, -1.0, 2.0, 0.7]))
    q = elevate(p, 7)
    x = np.linspace(0.0, 1.0, 33)
    assert np.allclose(q(x), p(x), atol=1e-14)
    assert q.degree == 7


def test_multi_step_elevation_composes():
    a = elevation_matrix(3, 6)
    b = elevation_matrix(5, 6) @ elevation_matrix(3, 5)
    assert np.allclose(a, b, atol=1e-14)


def test_evaluate_against_closed_form():
    n = 6
    coeffs = np.array([1.0, 0.0, 2.0, -1.0, 0.5, 3.0, -2.0])
    p = BernsteinPoly(coeffs)
    x = np.linspace(0.0, 1.0, 17)
    direct = basis_values(n, x) @ coeffs
    assert np.allclose(evaluate(p, x), direct, atol=1e-13)
    # scalar input comes back as a scalar
    assert np.isscalar(float(p(0.25)))


def _flat_evaluate(p, x):
    # evaluate as it was written for a scalar or 1-D x only
    xa = np.asarray(x, dtype=float)
    xv = np.atleast_1d(xa)
    w = np.repeat(p.coeffs[:, None], xv.size, axis=1)
    for _ in range(p.degree):
        w = (1.0 - xv) * w[:-1] + xv * w[1:]
    return float(w[0][0]) if xa.ndim == 0 else w[0]


@pytest.mark.parametrize("shape", [(2, 3), (2, 1, 2)])
def test_evaluate_keeps_the_shape_of_x(shape):
    # an x of any shape gives an array of that shape, entry for entry the flat
    # evaluation's; scalar and 1-D x keep their bits
    rng = np.random.default_rng(len(shape))
    x = rng.uniform(-0.5, 1.5, shape)
    for n in range(6):
        p = BernsteinPoly(rng.uniform(-1.0, 1.0, n + 1))
        flat = evaluate(p, x.ravel())
        got = evaluate(p, x)
        assert got.shape == shape and got.tobytes() == flat.reshape(shape).tobytes(), n
        assert flat.shape == (x.size,) and flat.tobytes() == _flat_evaluate(p, x.ravel()).tobytes(), n
        for v in (x.flat[0], 0.25, np.float64(0.75)):
            got = evaluate(p, v)
            assert type(got) is float and got == _flat_evaluate(p, v), n


def test_basis_partition_of_unity():
    x = np.linspace(0.0, 1.0, 11)
    for n in (1, 4, 9):
        assert np.allclose(basis_values(n, x).sum(axis=1), 1.0, atol=1e-14)


def test_basis_refused_past_its_last_degree_before_any_work(monkeypatch):
    # C(1029, 514) is a double and C(1030, 515) is not
    x = np.array([0.0, 0.25, 0.5, 1.0])
    vals = basis_values(1029, x)
    assert vals.shape == (4, 1030) and np.allclose(vals.sum(axis=1), 1.0, atol=1e-12)
    monkeypatch.setattr(bernstein, "_power_tables", lambda *args: pytest.fail("the powers were taken"))
    for n in (1030, 5000):
        with pytest.raises(DegreeTooLargeError) as info:
            basis_values(n, x)
        assert type(info.value) is DegreeTooLargeError
        assert str(info.value) == f"Bernstein basis degree n={n} is past the supported limit 1029"


@pytest.mark.parametrize("row", [binomial_row, binomial_diag, hankel_moments])
def test_binomials_and_moments_refuse_a_negative_degree(row):
    # binomial_row(-3) and binomial_diag(-3) once gave [1]
    for n in (-1, -3):
        with pytest.raises(ValueError) as info:
            row(n)
        assert type(info.value) is ValueError and str(info.value) == "degree must be nonnegative"


def test_basis_endpoint_values():
    vals = basis_values(3, np.array([0.0, 1.0]))
    assert np.array_equal(vals[0], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(vals[1], [0.0, 0.0, 0.0, 1.0])


def test_legendre_coeffs_native_degree():
    # at its own degree the coefficient vector is alternating binomials
    for k in range(6):
        c = legendre_coeffs(k, k).coeffs
        expected = [(-1) ** (k + i) * math.comb(k, i) for i in range(k + 1)]
        assert np.array_equal(c, np.array(expected, dtype=float))


def test_legendre_coeffs_elevated_linear():
    # the degree-1 orthogonal polynomial elevated to degree n
    for n in (2, 5, 9):
        c = legendre_coeffs(1, n).coeffs
        expected = (2 * np.arange(n + 1) - n) / n
        assert np.allclose(c, expected, atol=1e-14)


def test_legendre_value_at_one():
    for k in range(6):
        p = legendre_coeffs(k, k + 3)
        assert p(1.0) == pytest.approx(1.0, abs=1e-12)


def test_m_inner_matches_exact():
    p = BernsteinPoly(np.array([1.0, 2.0, 3.0]))
    q = BernsteinPoly(np.array([-1.0, 0.0, 1.0]))
    m = mass_exact(2)
    expected = 0.0
    for i in range(3):
        for j in range(3):
            expected += float(m[i][j]) * p.coeffs[i] * q.coeffs[j]
    assert p.coeffs @ mass_matrix(2).matrix @ q.coeffs == pytest.approx(expected, rel=1e-14)


def _unscaled_assembly(n):
    # (d_i h_{i+j}) d_j from the unscaled moments: the scaled assembly must
    # reproduce it bit for bit wherever the moments stay normal doubles
    h, d = hankel_moments(n), binomial_diag(n)
    idx = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    return (d[:, None] * h[idx]) * d[None, :]


def test_mass_matrix_unchanged_through_degree_500():
    for n in list(range(41)) + [64, 128, 255, 256, 499, 500]:
        assert np.array_equal(mass_matrix(n).matrix, _unscaled_assembly(n)), n


@pytest.mark.parametrize("n", [512, 515, 525, 535, 560, 581])
def test_mass_matrix_accurate_past_degree_500(n):
    # entry (i, j) = C(n,i) C(n,j) / ((2n+1) C(2n, i+j)), rounded once by
    # int/int division
    m = mass_matrix(n).matrix
    c = [math.comb(n, k) for k in range(n + 1)]
    den = [(2 * n + 1) * math.comb(2 * n, s) for s in range(2 * n + 1)]
    want = np.array([[ci * cj / den[i + j] for j, cj in enumerate(c)] for i, ci in enumerate(c)])
    tol = (n + 1) * np.finfo(float).eps * np.abs(want) + 16 * 2.0**-1074
    assert np.all(np.abs(m - want) <= tol)


def _numpy_moments(n, scale_exp):
    # the ratio recurrences stepped through numpy scalars, entry by entry
    h = np.empty(2 * n + 1)
    h[0] = math.ldexp(1.0, scale_exp) / (2 * n + 1)
    for s in range(2 * n):
        h[s + 1] = h[s] * (s + 1) / (2 * n - s)
    d = np.empty(n + 1)
    d[0] = 1.0
    for i in range(n):
        d[i + 1] = d[i] * (n - i) / (i + 1)
    return h, d


def _gathered_assembly(n):
    # the scaled assembly through an (n+1)^2 index array and a gather of h
    s = max(0, 2 * n - 1000)
    h, d = _numpy_moments(n, s)
    idx = np.add.outer(np.arange(n + 1), np.arange(n + 1))
    return (d[:, None] * h[idx]) * (d * math.ldexp(1.0, -s))[None, :], h, d


@pytest.mark.parametrize(
    "n", list(range(41)) + [64, 255, 256, 499, 500, 501, 509, 512, 535, 581, 582]
)
def test_mass_matrix_bitwise_equal_to_gathered_assembly(n):
    want, h, d = _gathered_assembly(n)
    s = max(0, 2 * n - 1000)
    assert np.array_equal(hankel_moments(n, s), h)
    assert np.array_equal(binomial_diag(n), d)
    mm = mass_matrix(n)
    assert mm.matrix.tobytes() == want.tobytes()
    assert mm.hankel_factor.tobytes() == (h * math.ldexp(1.0, -s)).tobytes()
    assert mm.matrix.flags.writeable and mm.matrix.flags.c_contiguous


def _two_multiply_assembly(n):
    # mass_matrix as it was before it skipped the x 2^0 = 1.0 rescale through n = 500
    s = max(0, 2 * n - 1000)
    h = hankel_moments(n, s)
    d = binomial_diag(n)
    unscale = math.ldexp(1.0, -s)
    hankel = np.ndarray((n + 1, n + 1), buffer=h, strides=(8, 8))
    hankel.flags.writeable = False
    m = d[:, None] * hankel
    m *= d * unscale
    return m, h * unscale, d


def test_mass_matrix_bitwise_equal_to_two_multiply_assembly():
    for n in range(583):
        mm = mass_matrix(n)
        m, h, d = _two_multiply_assembly(n)
        assert mm.matrix.tobytes() == m.tobytes(), n
        assert mm.hankel_factor.tobytes() == h.tobytes(), n
        assert mm.binom_diag.tobytes() == d.tobytes(), n
        assert mm.matrix.flags.writeable and mm.matrix.flags.owndata, n


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 40, 300])
def test_basis_bitwise_equal_to_closed_form_per_degree(n):
    # the closed form with its powers taken for this degree alone; basis_values
    # and the projection tables read them from power tables instead
    x = composite_gauss_legendre(32, 8).nodes
    i = np.arange(n + 1)
    c = np.array([float(math.comb(n, k)) for k in range(n + 1)])
    want = c * x[:, None] ** i * (1.0 - x)[:, None] ** (n - i)
    got = basis_values(n, x)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    from_table = _basis_from_powers(n, *_power_tables(x, 300))
    assert from_table.flags.c_contiguous and from_table.tobytes() == want.tobytes()
