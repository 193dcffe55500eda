"""The uniform solve front end and its error metrics."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bernmass.bernstein import DegreeTooLargeError, mass_matrix
from bernmass.exact import mass_exact, rational_solve
from bernmass.experiments import reference_solution
from bernmass.inverse import inverse_matrix
from bernmass.solvers import (
    METHODS,
    DegreeRangeError,
    NotPositiveDefiniteError,
    UnknownMethodError,
    canonical_method,
    cholesky_factor,
    clear_cache,
    metrics,
    solve,
    solve_cholesky,
)


def exact_solution(n, b):
    sol = rational_solve(mass_exact(n), [Fraction(float(v)) for v in b])
    return np.array([float(v) for v in sol])


def test_canonical_names_and_aliases():
    assert canonical_method("direct") == "direct"
    assert canonical_method("exact-inverse") == "direct"
    assert canonical_method("spectral") == "eig"
    assert canonical_method("cholesky") == "cho"
    assert canonical_method("dft") == "dft"
    with pytest.raises(UnknownMethodError):
        canonical_method("lu")


def test_all_methods_agree_small_degrees():
    for n in (0, 1, 3, 6):
        b = np.linspace(0.5, -0.5, n + 1)
        ref = exact_solution(n, b)
        for method in METHODS:
            rep = solve(method, n, b)
            assert rep.method == method
            assert rep.degree == n
            assert np.allclose(rep.solution, ref, rtol=1e-8, atol=1e-10), method
            assert rep.residual <= 1e-8


def test_known_two_by_two_solution():
    for method in METHODS:
        rep = solve(method, 1, [1.0, 0.0])
        assert np.allclose(rep.solution, [4.0, -2.0], atol=1e-9)


def test_residuals_small_for_well_scaled_rhs():
    # right-hand sides in the range of the matrix keep all residuals tiny
    rng = np.random.default_rng(17)
    for n in (5, 12, 20):
        x = rng.uniform(-0.5, 0.5, n + 1)
        b = mass_matrix(n).matrix @ x
        for method in ("eig", "cho"):
            rep = solve(method, n, b)
            assert rep.residual <= 1e-13, (method, n)


def test_degree_range_guard():
    with pytest.raises(DegreeRangeError):
        solve("cho", 26, np.zeros(27))
    with pytest.raises(DegreeRangeError):
        solve("cho", -1, np.zeros(0))
    # a larger cap opts in to higher degrees
    rep = solve("cho", 26, np.ones(27) / 27.0, max_degree=30)
    assert rep.solution.shape == (27,)


def test_rhs_shape_guard():
    with pytest.raises(ValueError):
        solve("cho", 3, np.zeros(3))


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_rhs_rejected(method):
    for bad in (np.nan, np.inf, -np.inf):
        b = np.full(5, 0.25)
        b[2] = bad
        with pytest.raises(ValueError, match="not finite"):
            solve(method, 4, b)
    # finite entries whose 2-norm itself overflows are refused too
    with pytest.raises(ValueError, match="not finite"):
        solve(method, 4, np.full(5, 1e308))
    # b.b overflows here, but the 2-norm (2.2e300) does not
    rep = solve(method, 4, np.full(5, 1e300))
    assert np.all(np.isfinite(rep.solution)) and math.isfinite(rep.residual)


@pytest.mark.parametrize("method", METHODS)
def test_rhs_near_top_of_double_range(method):
    # |b|_2 = 2.4e304: finite, or a typed refusal, never "not finite" and no
    # RuntimeWarning (pytest's filter turns one into an error)
    try:
        rep = solve(method, 5, np.full(6, 1e304))
    except DegreeTooLargeError:
        return
    assert np.all(np.isfinite(rep.solution)) and math.isfinite(rep.residual)


@pytest.mark.parametrize("method", ["direct", "eig"])
def test_overflowing_apply_refused_unwarned(method):
    with pytest.raises(DegreeTooLargeError, match="its apply overflowed"):
        solve(method, 5, [1e308, 1e308, 0, 0, 0, 0])


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, bernmass; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_unknown_method_raises():
    with pytest.raises(UnknownMethodError):
        solve("qr", 2, np.zeros(3))


def test_cholesky_factor_and_substitution():
    n = 6
    mm = mass_matrix(n).matrix
    factor = cholesky_factor(mm)
    assert factor.degree == n
    assert np.allclose(factor.lower @ factor.lower.T, mm, atol=1e-15)
    b = np.linspace(0.0, 1.0, n + 1)
    x = solve_cholesky(factor, b)
    assert np.allclose(mm @ x, b, atol=1e-12)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_breakdown_degree():
    # the factorization holds throughout the experiment range...
    for n in (20, 25):
        cholesky_factor(mass_matrix(n).matrix)
    # ...and first loses positive definiteness somewhere in the window
    # where the 2-norm condition number times machine epsilon is far past
    # one (observed at n = 31; the exact degree varies with the BLAS)
    first = None
    for n in range(26, 46):
        try:
            cholesky_factor(mass_matrix(n).matrix)
        except NotPositiveDefiniteError:
            first = n
            break
    assert first is not None


def test_zero_rhs_zero_residual():
    rep = solve("direct", 4, np.zeros(5))
    assert np.allclose(rep.solution, 0.0)
    assert rep.residual == 0.0


@pytest.mark.parametrize("n", [512, 520, 545])
def test_solve_refuses_non_finite_residual(n):
    # the eigenvalues leave the normal range: the residual overflows at 512
    # and 520, and at 545 three of them are 0, so the solution holds inf/nan
    with np.errstate(all="ignore"):
        with pytest.raises(DegreeTooLargeError, match="left double range"):
            solve("eig", n, np.ones(n + 1), max_degree=600)


@pytest.mark.parametrize("method", METHODS)
def test_zero_rhs_gives_exact_zeros(method):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, 7, 20):
            rep = solve(method, n, np.zeros(n + 1))
            assert np.array_equal(rep.solution, np.zeros(n + 1)) and rep.residual == 0.0
        if method == "eig":  # where some eigenvalues underflow to 0
            rep = solve(method, 545, np.zeros(546), max_degree=600)
            assert np.array_equal(rep.solution, np.zeros(546)) and rep.residual == 0.0


def test_report_error_fields():
    n = 4
    b = np.linspace(1.0, 2.0, n + 1)
    ref = exact_solution(n, b)
    rep = solve("eig", n, b, x_ref=ref)
    assert rep.err_2 is not None and rep.err_2 <= 1e-11
    assert rep.err_m is not None and rep.err_m <= 1e-11
    plain = solve("eig", n, b)
    assert plain.err_2 is None and plain.err_m is None


def test_metrics_values():
    mm = np.eye(2)
    e2, em, res = metrics([1.0, 1.0], [1.0, 0.0], [1.0, 0.0], mm)
    assert e2 == pytest.approx(1.0)
    assert em == pytest.approx(1.0)
    assert res == pytest.approx(1.0)
    with pytest.raises(ValueError):
        metrics([1.0], [0.0], [1.0], np.eye(1))
    # b.b and r.r overflow, their 2-norms do not
    e2, em, res = metrics([2.0, 1.0], [1.0, 1.0], [1e300, 1e300], 1e300 * np.eye(2))
    assert e2 == pytest.approx(math.sqrt(0.5)) and res == pytest.approx(math.sqrt(0.5))


def test_metrics_m_norm_matches_exact_norm():
    # past the Cholesky breakdown the quadratic form d.(M d) cancels to garbage
    # (even below 0); the spectral M-norm must still match the rational one
    rng = np.random.default_rng(17)
    for n in (15, 20, 25, 31, 35):
        mm = mass_matrix(n).matrix
        x_true = rng.uniform(-0.5, 0.5, n + 1)
        b = mm @ x_true
        x_ref = reference_solution(n, b)
        x_hat = solve("eig", n, b, max_degree=n).solution
        _, errm, _ = metrics(x_hat, x_ref, b, mm)
        exact = mass_exact(n)

        def quad(v):
            f = [Fraction(float(t)) for t in v]
            return sum(fi * sum(a * fj for a, fj in zip(row, f)) for fi, row in zip(f, exact))

        want = math.sqrt(quad(x_hat - x_ref) / quad(x_ref))
        assert abs(errm - want) <= 1e-11 * want


def test_cache_reuse_is_deterministic():
    clear_cache()
    b = np.linspace(-1.0, 1.0, 8)
    first = solve("dft", 7, b).solution
    second = solve("dft", 7, b).solution
    assert np.array_equal(first, second)
    clear_cache()
    third = solve("dft", 7, b).solution
    assert np.array_equal(first, third)


@pytest.mark.parametrize("n", [509, 512, 520, 545])
def test_eig_refused_once_smallest_eigenvalue_is_subnormal(n):
    # refused before solve_spectral divides, so no numpy warning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegreeTooLargeError, match="left double range"):
            solve("eig", n, np.ones(n + 1), max_degree=600)


@pytest.mark.parametrize("n", [511, 512, 582])
def test_direct_apply_overflow_refused_unwarned(n):
    # the inverse's entries pass 1e307 at 510 and overflow from 512, so the
    # apply overflows; pytest's filter makes any RuntimeWarning an error
    with pytest.raises(DegreeTooLargeError, match="left double range"):
        solve("direct", n, np.ones(n + 1), max_degree=600)


def test_direct_apply_near_overflow_still_solved():
    # no bound proves this apply safe, yet it stays finite: the same x as before
    n = 511
    b = np.random.default_rng(n).uniform(-0.5, 0.5, n + 1)
    rep = solve("direct", n, b, max_degree=600)
    assert np.array_equal(rep.solution, inverse_matrix(n) @ b)
    assert np.all(np.isfinite(rep.solution))


@pytest.mark.parametrize(
    "method, n, rhs",
    [("direct", 286, "uniform"), ("direct", 300, "ones"), ("direct", 508, "ones"),
     ("eig", 300, "uniform"), ("eig", 314, "ones"), ("eig", 508, "ones")],
)
def test_residual_norm_overflow_is_rescaled(method, n, rhs):
    # |r| passes about 1e154 here, so r.r overflows although r and x are finite
    b = np.ones(n + 1) if rhs == "ones" else np.random.default_rng(n).uniform(-0.5, 0.5, n + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve(method, n, b, max_degree=600)
    r = mass_matrix(n).matrix @ rep.solution - b
    assert np.all(np.isfinite(rep.solution)) and np.isinf(np.vdot(r, r))
    want = math.hypot(*r.tolist()) / math.hypot(*b.tolist())
    assert rep.residual == pytest.approx(want, rel=1e-14)
