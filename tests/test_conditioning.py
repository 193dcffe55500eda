"""Condition numbers, mixed operator norms, and the perturbation study."""

import math
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from bernmass import conditioning
from bernmass.bernstein import DegreeTooLargeError, mass_matrix
from bernmass.conditioning import (
    condition_table,
    kappa_2,
    kappa_m_to_2,
    op_norm_2_to_m,
    op_norm_m_to_2,
    perturbation_study,
)
from bernmass.oracle import mass_exact
from bernmass.inverse import inverse_matrix
from bernmass.rng import Xorshift64Star
from bernmass.spectral import eigenvalues


def test_kappa2_matches_big_integer_formula():
    # correctly rounded at every degree it returns: exact through n = 27, below 2^53
    for n in range(conditioning._LAST_DEGREE + 1):
        exact = math.factorial(2 * n + 1) // (math.factorial(n + 1) * math.factorial(n))
        assert exact == math.comb(2 * n + 1, n)
        assert kappa_2(n) == float(exact), n
        assert n > 27 or kappa_2(n) == exact, n


def test_kappa2_at_twenty():
    assert math.comb(41, 20) == 269128937220
    assert kappa_2(20) == 269128937220.0
    assert kappa_2(5) == 462.0 and repr(kappa_2(5)) == "462.0"


def test_kappa_m_to_2_is_square_root():
    for n in (0, 3, 10, 20):
        assert kappa_m_to_2(n) == math.sqrt(float(math.comb(2 * n + 1, n)))


def test_kappa2_equals_eigenvalue_ratio():
    for n in (1, 5, 12):
        lam = eigenvalues(n)
        assert kappa_2(n) == pytest.approx(lam[0] / lam[-1], rel=1e-12)


def test_condition_table_contents():
    table = condition_table(6)
    assert len(table) == 7
    for rec in table:
        lam = eigenvalues(rec.degree)
        assert rec.kappa2 == float(math.comb(2 * rec.degree + 1, rec.degree))
        assert rec.kappa_m_to_2 == kappa_m_to_2(rec.degree)
        assert rec.lambda_max == pytest.approx(lam[0], rel=1e-14)
        assert rec.lambda_min == pytest.approx(lam[-1], rel=1e-14)


def test_last_degree_is_the_last_whose_kappa_2_is_a_double():
    # C(2n+1, n) grows with n: C(1029, 514) = 1.4298e308 is below the largest double,
    # C(1031, 515) is not
    largest = int(sys.float_info.max)
    last = conditioning._LAST_DEGREE
    assert math.comb(2 * last + 1, last) < largest < math.comb(2 * last + 3, last + 1)
    assert last == 514


def test_kappa_2_within_n_plus_1_eps_through_its_last_degree():
    eps = Fraction(sys.float_info.epsilon)
    for n in range(conditioning._LAST_DEGREE + 1):
        exact = math.comb(2 * n + 1, n)
        assert abs(Fraction(kappa_2(n)) - exact) <= (n + 1) * eps * exact, n


@pytest.mark.parametrize("f", [kappa_2, kappa_m_to_2, condition_table], ids=lambda f: f.__name__)
def test_refused_past_the_last_degree_before_any_work(monkeypatch, f):
    # from 515 the product would round to inf; nothing is computed first
    calls = []
    monkeypatch.setattr(conditioning, "eigenvalues", lambda n: calls.append(n))
    for n in (515, 520, 3000):
        with pytest.raises(DegreeTooLargeError) as info:
            f(n)
        assert type(info.value) is DegreeTooLargeError
        assert str(info.value) == f"condition number C(2n+1, n) overflows double precision at degree n={n}"
    assert calls == []


def test_mixed_norm_of_mass_is_sqrt_lambda_max():
    for n in (2, 5, 8):
        mm = mass_matrix(n).matrix
        lam = eigenvalues(n)
        got = op_norm_m_to_2(mm)
        assert got == pytest.approx(math.sqrt(lam[0]), rel=1e-8)


def test_mixed_norm_of_inverse_is_inv_sqrt_lambda_min():
    for n in (2, 5, 8):
        lam = eigenvalues(n)
        got = op_norm_2_to_m(inverse_matrix(n))
        assert got == pytest.approx(1.0 / math.sqrt(lam[-1]), rel=1e-8)


def test_mixed_norm_product_is_condition_number():
    for n in (2, 5, 8, 12):
        mm = mass_matrix(n).matrix
        a = op_norm_m_to_2(mm)
        b = op_norm_2_to_m(inverse_matrix(n))
        assert a * b == pytest.approx(kappa_m_to_2(n), rel=1e-8)


def test_identity_norms_are_extreme_eigenvalue_roots():
    # the identity map seen M -> 2 has norm lam_min^{-1/2}
    n = 6
    lam = eigenvalues(n)
    got = op_norm_m_to_2(np.eye(n + 1))
    assert got == pytest.approx(lam[-1] ** -0.5, rel=1e-8)
    got = op_norm_2_to_m(np.eye(n + 1))
    assert got == pytest.approx(math.sqrt(lam[0]), rel=1e-8)


def _pencil_reference(a):
    """Both mixed norms of a float matrix to 60 digits, through the exact M.

    With M = L L^T, ||A||_{M->2}^2 is the largest eigenvalue of the pencil
    (A^T A, M), that of L^-1 A^T A L^-T, and ||A||_{2->M}^2 that of A^T M A.
    """
    n = a.shape[0] - 1
    with mpmath.workdps(60):
        m = mpmath.matrix([[mpmath.mpf(e.numerator) / e.denominator for e in row] for row in mass_exact(n)])
        am = mpmath.matrix(a.tolist())
        b = am * mpmath.inverse(mpmath.cholesky(m)).T

        def top(s):
            return float(mpmath.sqrt(max(mpmath.eigsy(s, eigvals_only=True))))

        return top(b.T * b), top(am.T * m * am)


@pytest.mark.parametrize("n", [20, 25, 29, 30, 40])
def test_mixed_norms_of_random_matrix_match_pencil_reference(n):
    # up to and past n = 30, where the float M stops being numerically
    # positive definite
    a = Xorshift64Star(3).uniform(-1.0, 1.0, (n + 1, n + 1))
    fwd, bwd = _pencil_reference(a)
    assert op_norm_m_to_2(a) == pytest.approx(fwd, rel=1e-13)
    assert op_norm_2_to_m(a) == pytest.approx(bwd, rel=1e-13)


@pytest.mark.parametrize("n", [509, 520])
def test_refused_once_smallest_eigenvalue_is_subnormal(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (op_norm_m_to_2, op_norm_2_to_m):
            with pytest.raises(DegreeTooLargeError, match="left double range"):
                call(np.eye(n + 1))
        with pytest.raises(DegreeTooLargeError, match="left double range"):
            perturbation_study(n, samples=10)


@pytest.mark.parametrize("shape", [(3,), (), (3, 3, 1)], ids=["1-D", "0-D", "3-D"])
def test_operator_norms_refuse_an_array_that_is_not_2d(shape):
    for call in (op_norm_m_to_2, op_norm_2_to_m):
        with pytest.raises(ValueError) as info:
            call(np.ones(shape))
        assert str(info.value) == f"an operator norm needs one 2-D array, not an array of shape {shape}"
    # the vector as a (3, 1) operator: the constant 1 has M-norm 1
    assert op_norm_2_to_m(np.ones((3, 1))) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("samples", [0, -1])
def test_perturbation_study_refuses_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match=f"^perturbation_study needs at least one sample, not {samples}$"):
        perturbation_study(6, samples=samples)


def test_perturbation_study_hits_bound():
    st = perturbation_study(10, samples=1000, seed=12345)
    lam = eigenvalues(10)
    assert st.bound == pytest.approx(lam[-1] ** -0.5, rel=1e-13)
    assert st.ratios.shape == (1001,)
    # every ratio obeys the bound (up to roundoff), and the appended
    # worst-case direction attains it
    assert np.max(st.ratios) <= st.bound * (1 + 1e-8)
    assert st.worst_ratio >= 0.99 * st.bound
    assert st.quantile_99 <= st.bound


def test_perturbation_study_random_part_stays_below_bound():
    # random directions alone essentially never reach the extreme ratio
    st = perturbation_study(10, samples=1000, seed=12345)
    assert np.max(st.ratios[:-1]) <= 0.999 * st.bound


def test_perturbation_study_deterministic():
    a = perturbation_study(6, samples=50, seed=9)
    b = perturbation_study(6, samples=50, seed=9)
    assert np.array_equal(a.ratios, b.ratios)
