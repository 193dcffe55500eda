"""The uniform solve front end and its error metrics."""

import inspect
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

import bernmass
from bernmass.bernstein import DegreeTooLargeError, mass_matrix
from bernmass.experiments import reference_solution
from bernmass import inverse, kernels, solvers, structured
from bernmass.inverse import inverse_matrix
from bernmass.oracle import mass_exact, rational_solve
from bernmass.solvers import (
    METHODS,
    NotPositiveDefiniteError,
    UnknownMethodError,
    _scaled_norm,
    canonical_method,
    cholesky_factor,
    clear_cache,
    metrics,
    solve,
    solve_cholesky,
    solve_dft,
    solve_spectral,
)
from bernmass.spectral import build_q, build_q_sweep, eigenvalues
from bernmass.structured import structured_inverse
from test_structured import _seven_call_apply, _solve_dft_seven_calls


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
    # solve has no max_degree cap and no DegreeRangeError: the degree goes by
    # bernstein's rule, and past it only by the method's last_degree
    assert list(inspect.signature(solve).parameters) == ["method", "n", "b"]
    assert not hasattr(solvers, "DegreeRangeError") and "DegreeRangeError" not in bernmass.__all__
    with pytest.raises(ValueError) as info:
        solve("cho", -1, np.zeros(0))
    assert type(info.value) is ValueError and str(info.value) == "degree must be nonnegative"
    # past the old default cap of 25, with no opt-in
    rep = solve("cho", 26, np.ones(27) / 27.0)
    assert rep.solution.shape == (27,)


def test_float_degree_refused_alike_cached_or_not():
    # a float equal to a cached degree once found that degree's entry and was solved
    clear_cache()
    try:
        messages = []
        for _ in range(2):
            with pytest.raises(TypeError) as info:
                solve("eig", 2.0, np.ones(3))
            messages.append(str(info.value))
            solve("eig", 2, np.ones(3))  # degree 2 is cached for the second round
        assert messages == ["eig solve degree must be an integer, not float"] * 2
    finally:
        clear_cache()


@pytest.mark.parametrize("method", METHODS)
def test_bool_degree_refused(method):
    # True and False are ints to Python, and once solved as degrees 1 and 0
    clear_cache()
    try:
        for n in (True, False):
            for _ in range(2):  # cold, then with the degree of the same value cached
                with pytest.raises(TypeError) as info:
                    solve(method, n, np.ones(n + 1))
                assert str(info.value) == f"{method} solve degree must be an integer, not bool"
                solve(method, int(n), np.ones(n + 1))
        # a numpy integer is a degree, and reads the entry of its plain int
        assert solve(method, np.int64(1), np.ones(2)).degree == 1 and len(solvers._cache) == 2
    finally:
        clear_cache()


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
def test_complex_rhs_rejected(method):
    # refused, not solved for its real part with a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (np.ones(4) + 1j, np.ones(4, dtype=np.complex64), [1.0, 2.0, 3.0, 4j]):
            with pytest.raises(ValueError, match="right-hand side is complex"):
                solve(method, 3, b)
    # other dtypes are converted to float64 as before
    want = solve(method, 3, np.arange(4.0)).solution
    for b in (np.arange(4), [0, 1, 2, 3], np.arange(4, dtype=np.float32)):
        assert solve(method, 3, b).solution.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_rhs_near_top_of_double_range(method):
    # |b|_2 = 2.4e304: finite, or a typed refusal, never "not finite" and no
    # RuntimeWarning (pytest's filter turns one into an error)
    try:
        rep = solve(method, 5, np.full(6, 1e304))
    except DegreeTooLargeError:
        return
    assert np.all(np.isfinite(rep.solution)) and math.isfinite(rep.residual)


@pytest.mark.parametrize("method", METHODS)
def test_rhs_whose_squares_underflow_is_solved(method):
    # b.b underflows to 0 here, so |b|_2 once read 0 and the b = 0 shortcut
    # returned x = 0 for every method; x is 4e-170 in every entry
    n, b = 3, np.full(4, 1e-170)
    x_ref = reference_solution(n, b)
    rep = solve(method, n, b)
    assert math.isfinite(rep.residual)
    up = 2.0**565  # exact: the vectors scaled up to order one
    e, x = (rep.solution - x_ref) * up, x_ref * up
    eps = np.finfo(float).eps
    if method == "dft":
        # held, as bench/checks.py holds it, to |C (x_hat - x)| <= 4 S with
        # S = eps log2(P) (|tt| |h| + |t| |ht|) |b / C| the rounding of its FFT
        # products: its 2-norm error, 7.5e-14 here and 2.9e-14 at b = ones,
        # passes 8 kappa_2 eps = 6.2e-14
        si = structured_inverse(n)
        nrm = np.linalg.norm
        s = (nrm(si.tt_col) * nrm(si.h) + nrm(si.t_col) * nrm(si.ht)) * nrm(b * up / si.binom_diag)
        assert nrm(si.binom_diag * e) <= 4.0 * eps * math.log2(si.plan_size) * s
    else:
        assert np.linalg.norm(e) / np.linalg.norm(x) <= 8 * math.comb(2 * n + 1, n) * eps
    # the 2-norm and M-norm errors are those of the scaled vectors, not 0/0
    err_2, err_m, _ = metrics(rep.solution * up, x, b * up, mass_matrix(n).matrix)
    rep_2, rep_m, _ = metrics(rep.solution, x_ref, b, mass_matrix(n).matrix)
    assert rep_2 == pytest.approx(err_2, rel=1e-13)
    assert rep_m == pytest.approx(err_m, rel=1e-13)


def test_norm_unchanged_where_squares_are_normal():
    # only a v.v outside the normal range is rescaled; elsewhere sqrt(v.v) stands
    rng = np.random.default_rng(5)
    for e in range(-150, 151, 10):
        v = rng.standard_normal(7) * 10.0**e
        assert _scaled_norm(v) == math.sqrt(np.vdot(v, v)), e
    assert _scaled_norm(np.array([2.0**-511])) == 2.0**-511  # v.v is the smallest normal double
    assert _scaled_norm(np.array([3.0, 4.0]) * 2.0**-600) == 5.0 * 2.0**-600
    assert _scaled_norm(np.zeros(3)) == 0.0


def test_weighted_norm_unchanged_where_sums_are_normal():
    # the weighted norm is the 2-norm of sqrt(w) v: within (m+2) eps of sqrt(w.v^2),
    # for m entries, where that sum is normal (each side within (m+5) eps / 4 of the
    # exact norm); rescaled where v^2 leaves range
    rng = np.random.default_rng(6)
    w = rng.uniform(0.01, 1.0, 9)
    sw = np.sqrt(w)
    bound = (9 + 2) * np.finfo(float).eps
    for e in range(-150, 151, 10):
        v = rng.standard_normal(9) * 10.0**e
        want = math.sqrt(w @ (v * v))
        assert abs(_scaled_norm(sw * v) - want) <= bound * want, e
    v = rng.standard_normal(9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-200, 1e200):
            assert _scaled_norm(sw * (scale * v)) == pytest.approx(scale * _scaled_norm(sw * v), rel=1e-15)
    assert _scaled_norm(sw[:3] * np.zeros(3)) == 0.0
    # all of v under a zero weight: the sum stays 0 after the one rescale
    assert _scaled_norm(np.sqrt([0.0, 1.0]) * np.array([1e-200, 0.0])) == 0.0


@pytest.mark.parametrize("scale", [1e-310, 1e-315])
def test_tiny_rhs_keeps_its_digits(scale):
    # unscaled, the eig and cho intermediates went subnormal: relative errors of 0.23 and
    # 0.017 at 1e-310, 6.8 and 2.4 at 1e-315, against 7.6e-8 and 8e-7 at unit scale
    n = 20
    b = mass_matrix(n).matrix @ np.random.default_rng(3).uniform(-0.5, 0.5, n + 1) * scale
    x_ref = reference_solution(n, b)
    for method in ("eig", "cho", "direct"):
        x = solve(method, n, b).solution
        assert np.linalg.norm((x - x_ref) / scale) <= 1e-5 * np.linalg.norm(x_ref / scale), method


@pytest.mark.parametrize("method", METHODS)
def test_warm_solve_enters_no_errstate(monkeypatch, method):
    entered = []
    errstate = np.errstate

    def counting(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    b = np.linspace(-1.0, 1.0, 21)
    solve(method, 20, b)
    monkeypatch.setattr(np, "errstate", counting)
    solve(method, 20, b)
    assert entered == []
    # a b past the cap does, so the count sees solvers' calls
    with pytest.raises(DegreeTooLargeError):
        solve(method, 20, [1e308, 1e308] + [0.0] * 19)
    assert entered == [{"over": "ignore", "invalid": "ignore"}]


@pytest.mark.parametrize("method", METHODS)
def test_overflowing_apply_refused_unwarned(method):
    message = f"{method} solve at degree n=5 left double range (its apply overflowed)"
    if method == "dft":
        message = "structured inverse products overflow double precision at degree n=5"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegreeTooLargeError) as info:
            solve(method, 5, [1e308, 1e308, 0, 0, 0, 0])
    assert str(info.value) == message


def _cap_shapes(n):
    # ones, alternating signs, the first, middle and last unit vectors, and a random b
    units = np.eye(n + 1)[sorted({0, n // 2, n})]
    return [np.ones(n + 1), (-1.0) ** np.arange(n + 1), *units,
            np.random.default_rng(n + 700).uniform(-1.0, 1.0, n + 1)]


def test_dft_cap_boundary():
    # at the cap the seven-call FFT apply cannot overflow, and solve_dft runs bare and
    # gives its x; just past it, solve runs the checked path and gives that apply's x
    # or its refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for si in map(structured_inverse, range(510)):
            n = si.degree
            cap = solvers._Dft(n, si).cap  # the cap of the handle a first solve caches
            for shape in _cap_shapes(n):
                b = shape * (cap / _scaled_norm(shape))
                while _scaled_norm(b) > cap:
                    b = np.nextafter(b, 0.0)
                assert b.any(), n  # a subnormal cap (3.7e-316 at n = 509) still reaches b
                x = _seven_call_apply(si, b)
                assert np.all(np.isfinite(x)), n
                assert x.tobytes() == solve_dft(si, b).tobytes(), n
                past = b
                while _scaled_norm(past) <= cap:
                    past = np.where(past != 0.0, np.nextafter(past, np.copysign(np.inf, past)), 0.0)
                try:
                    want = _solve_dft_seven_calls(si, past)
                except DegreeTooLargeError as exc:
                    with pytest.raises(DegreeTooLargeError) as info:
                        solve("dft", n, past)
                    assert str(info.value) == str(exc), n
                else:
                    try:
                        got = solve("dft", n, past).solution
                    except DegreeTooLargeError as exc:
                        # x finite, but |M x - b| / |b| is not: solve's own residual refusal
                        assert "relative residual" in str(exc), n
                        assert not math.isfinite(_scaled_norm(mass_matrix(n).matrix @ want - past) / _scaled_norm(past))
                    else:
                        assert got.tobytes() == want.tobytes(), n
            clear_cache()  # M of every degree to 509 would hold 350 MB


def test_cho_overflow_refused_unwarned_below_cap_unchanged():
    # x from numpy.linalg.solve turned inf without a warning, and the residual
    # then formed inf*0; past lambda_min's cap the apply runs unwarned instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegreeTooLargeError, match="cho solve at degree n=1 left double range"):
            solve("cho", 1, np.full(2, 1e308))
        for n in range(30):
            rng = np.random.default_rng(n)
            shapes = (np.ones(n + 1), (-1.0) ** np.arange(n + 1), rng.uniform(-1.0, 1.0, n + 1))
            lower = cholesky_factor(mass_matrix(n).matrix).lower
            cap = sys.float_info.max / 2.0 * eigenvalues(n)[-1]
            for e in range(150, 309, 4):
                for shape in shapes:
                    b = shape / math.sqrt(np.vdot(shape, shape)) * 10.0**e
                    try:
                        x = solve("cho", n, b).solution
                    except DegreeTooLargeError:
                        assert _scaled_norm(b) > cap, (n, e)
                        continue
                    assert np.all(np.isfinite(x)), (n, e)
                    if _scaled_norm(b) <= cap:
                        assert x.tobytes() == _two_linalg_solves(lower, b).tobytes(), (n, e)


def _two_linalg_solves(lower, b):
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


def test_cho_entry_bitwise_equal_to_solve_cholesky():
    # the cached handle's and solve_cholesky's bare LAPACK calls against numpy.linalg.solve's,
    # at every degree that factors
    try:
        for n in range(30):
            factor = cholesky_factor(mass_matrix(n).matrix)
            handle = solvers._Cho(n, solvers._Degree(n))
            for b in _cap_shapes(n):
                want = _two_linalg_solves(factor.lower, b).tobytes()
                assert handle.apply(b).tobytes() == want, n
                assert solve_cholesky(factor, b).tobytes() == want, n
                assert solve("cho", n, b).solution.tobytes() == want, n
    finally:
        clear_cache()


def _matmul_and_vdot_forms(method, n, b):
    # a warm solve with @ for the direct and eig applies and the residual, and np.vdot for its norm
    degree = solvers._Degree(n)
    if method == "direct":
        x = inverse_matrix(n) @ b
    elif method == "eig":
        spec = degree.spectral
        x = spec.q @ ((spec.q.T @ b) / spec.lam)
    else:
        x = degree.handle(method).apply(b)
    r = degree.mass @ x
    r -= b
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "vdot", np.vdot)
        return x, _scaled_norm(r) / _scaled_norm(b)


@pytest.mark.parametrize(
    "method, degrees",
    [(m, range(26)) for m in METHODS] + [("direct", (100, 300, 509)), ("eig", (300, 508))],
)
def test_warm_solve_bitwise_equal_to_matmul_and_vdot(method, degrees):
    # ndarray.dot and the undispatched vdot give the bits of matmul and np.vdot
    clear_cache()
    try:
        for n in degrees:
            handle = solvers._Degree(n).handle(method)
            if n < 26:
                rhs = _oracle_rhs(n)
            else:  # of order one, which every apply here takes finite
                rhs = np.ones(n + 1), np.random.default_rng(n).uniform(-0.5, 0.5, n + 1)
            for b in rhs:
                want_x, want_res = _matmul_and_vdot_forms(method, n, b)
                assert handle.apply(b).tobytes() == want_x.tobytes(), (method, n)
                for _ in range(2):  # the cold solve, then the warm one
                    rep = solve(method, n, b)
                    assert rep.solution.tobytes() == want_x.tobytes(), (method, n)
                    assert rep.residual == want_res, (method, n)
    finally:
        clear_cache()


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
            solve("eig", n, np.ones(n + 1))


@pytest.mark.parametrize("method", METHODS)
def test_zero_rhs_gives_exact_zeros(method):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (0, 7, 20):
            rep = solve(method, n, np.zeros(n + 1))
            assert np.array_equal(rep.solution, np.zeros(n + 1)) and rep.residual == 0.0
        if method == "eig":  # where some eigenvalues underflow to 0
            rep = solve(method, 545, np.zeros(546))
            assert np.array_equal(rep.solution, np.zeros(546)) and rep.residual == 0.0


def test_report_error_fields():
    n = 4
    b = np.linspace(1.0, 2.0, n + 1)
    ref = exact_solution(n, b)
    rep = solve("eig", n, b)
    err_2, err_m, _ = metrics(rep.solution, ref, b, mass_matrix(n).matrix)
    assert err_2 <= 1e-11
    assert err_m <= 1e-11


def test_metrics_values():
    mm = np.eye(2)
    e2, em, res = metrics([1.0, 1.0], [1.0, 0.0], [1.0, 0.0], mm)
    assert e2 == pytest.approx(1.0)
    assert em == pytest.approx(1.0)
    assert res == pytest.approx(1.0)
    with pytest.raises(ValueError):
        metrics([1.0], [0.0], [1.0], np.eye(1))
    # a nonzero x_ref whose M-norm coordinates underflow to 0 is refused, not divided by
    with pytest.raises(ValueError, match="^reference solution has zero norm$"):
        metrics(np.full(21, 1e-323), np.full(21, 5e-324), np.ones(21), mass_matrix(20).matrix)
    # b.b and r.r overflow, their 2-norms do not
    e2, em, res = metrics([2.0, 1.0], [1.0, 1.0], [1e300, 1e300], 1e300 * np.eye(2))
    assert e2 == pytest.approx(math.sqrt(0.5)) and res == pytest.approx(math.sqrt(0.5))


def test_metrics_answer_strided_arguments_as_their_contiguous_copies():
    rng = np.random.default_rng(1702)
    for n in range(26):
        mm = mass_matrix(n).matrix
        b = rng.uniform(-1.0, 1.0, n + 1)
        x_hat, x_ref = solve("eig", n, b).solution, reference_solution(n, b)
        want = metrics(x_hat, x_ref, b, mm)
        rev = [v[::-1].copy()[::-1] for v in (x_hat, x_ref, b)]
        assert metrics(*rev, np.asfortranarray(mm)) == want, n


def test_metrics_m_norm_overflow_rescaled():
    # the squares of the M-norm coordinates overflow; the column is rescaled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e2, em, _ = metrics(np.full(3, 2e200), np.full(3, 1e200), np.ones(3), np.eye(3))
    assert e2 == pytest.approx(1.0) and em == pytest.approx(1.0)


def test_metrics_m_norm_matches_exact_norm():
    # past the Cholesky breakdown the quadratic form d.(M d) cancels to garbage
    # (even below 0); the spectral M-norm must still match the rational one
    rng = np.random.default_rng(17)
    for n in (15, 20, 25, 31, 35):
        mm = mass_matrix(n).matrix
        x_true = rng.uniform(-0.5, 0.5, n + 1)
        b = mm @ x_true
        x_ref = reference_solution(n, b)
        x_hat = solve("eig", n, b).solution
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
            solve("eig", n, np.ones(n + 1))


@pytest.mark.parametrize("n", [511, 512, 582])
def test_direct_apply_overflow_refused_unwarned(n):
    # the inverse's entries pass 1e307 at 510, so at 511 the apply overflows; from 512
    # they pass double range and the inverse is refused before it is built.  pytest's
    # filter makes any RuntimeWarning an error
    with pytest.raises(DegreeTooLargeError) as info:
        solve("direct", n, np.ones(n + 1))
    if n <= solvers._Direct.last_degree:
        assert str(info.value) == f"direct solve at degree n={n} left double range (its apply overflowed)"
    else:
        assert str(info.value) == f"closed-form inverse entries overflow double precision at n={n}"


def test_direct_apply_near_overflow_still_solved():
    # no bound proves this apply safe, yet it stays finite: the same x as before
    n = 511
    b = np.random.default_rng(n).uniform(-0.5, 0.5, n + 1)
    rep = solve("direct", n, b)
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
        rep = solve(method, n, b)
    r = mass_matrix(n).matrix @ rep.solution - b
    assert np.all(np.isfinite(rep.solution)) and np.isinf(np.vdot(r, r))
    want = math.hypot(*r.tolist()) / math.hypot(*b.tolist())
    assert rep.residual == pytest.approx(want, rel=1e-14)


def _oracle(method, n, b):
    # the explicit per-method apply, then |M x - b| / |b|, each built afresh
    bv = np.asarray(b, dtype=float)
    if _scaled_norm(bv) == 0.0:
        # the b = 0 shortcut; the 1e-200 rows, whose b.b underflows, reach the apply
        return np.zeros(n + 1), 0.0
    mm = mass_matrix(n).matrix
    if method == "direct":
        x = inverse_matrix(n) @ bv
    elif method == "dft":
        x = _seven_call_apply(structured_inverse(n), bv)
    elif method == "eig":
        d = build_q(n)
        x = d.q @ ((d.q.T @ bv) / d.lam)
    else:
        x = _two_linalg_solves(cholesky_factor(mm).lower, bv)
    return x, _scaled_norm(mm @ x - bv) / _scaled_norm(bv)


def _oracle_rhs(n):
    rng = np.random.default_rng(n + 900)
    yield mass_matrix(n).matrix @ rng.uniform(-0.5, 0.5, n + 1)
    yield np.ones(n + 1)
    yield rng.standard_normal(n + 1) * 1e3
    yield rng.uniform(-1.0, 1.0, n + 1) * 1e-200


@pytest.mark.parametrize("method", METHODS)
def test_solve_bitwise_equal_to_per_method_oracle(method):
    clear_cache()
    for n in range(26):
        for b in _oracle_rhs(n):
            want_x, want_res = _oracle(method, n, b)
            for _ in range(2):  # the cold solve, then the warm one
                rep = solve(method, n, b)
                assert rep.solution.tobytes() == want_x.tobytes(), (method, n)
                assert rep.residual == want_res, (method, n)


@pytest.mark.parametrize(
    "method, n, error, message",
    [
        ("eig", 509, DegreeTooLargeError,
         "degree n=509 left double range (smallest eigenvalue 1.4e-308 is not a normal double)"),
        ("eig", 545, DegreeTooLargeError,
         "degree n=545 left double range (smallest eigenvalue 0 is not a normal double)"),
        ("eig", 583, DegreeTooLargeError,  # past the eigenvalues' own last degree, refused all the same
         "degree n=583 left double range (smallest eigenvalue 0 is not a normal double)"),
        ("direct", 512, DegreeTooLargeError,  # past its last degree: the builder's refusal
         "closed-form inverse entries overflow double precision at n=512"),
        ("direct", 583, DegreeTooLargeError,  # past assembly's limit, refused all the same
         "closed-form inverse entries overflow double precision at n=583"),
        ("direct", 510, DegreeTooLargeError,  # one past its last working degree
         "direct solve at degree n=510 left double range (its apply overflowed)"),
        ("dft", 255, DegreeTooLargeError,  # one past its last working degree
         "structured inverse products overflow double precision at degree n=255"),
        ("dft", 257, DegreeTooLargeError,
         "structured inverse products overflow double precision at degree n=257"),
        ("dft", 510, DegreeTooLargeError,
         "circulant spectra overflow double precision at degree n=510"),
        ("dft", 516, DegreeTooLargeError,
         "squared binomial factors overflow double precision at degree n=516"),
        ("cho", 30, NotPositiveDefiniteError,  # one past its last working degree
         "Cholesky failed for degree 30: Matrix is not positive definite"),
    ],
)
def test_refusals_keep_type_and_message(method, n, error, message):
    for _ in range(2):  # a refusal raised while building is not cached
        with pytest.raises(error) as info:
            solve(method, n, np.ones(n + 1))
        assert type(info.value) is error and str(info.value) == message
    # the b = 0 shortcut still runs before anything is built
    assert not solve(method, n, np.zeros(n + 1)).solution.any()


@pytest.mark.parametrize("method, n", [("direct", 509), ("dft", 254), ("eig", 508), ("cho", 29)])
def test_last_working_degree_gives_finite_x(method, n):
    # each method's limit for b = 1: one degree on, test_refusals_keep_type_and_message refuses it
    clear_cache()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(method, n, np.ones(n + 1))
        assert np.all(np.isfinite(rep.solution)) and math.isfinite(rep.residual)
    finally:
        clear_cache()


def test_warm_solve_builds_nothing(monkeypatch):
    built = []

    def counting(fn):
        def wrapped(*args):
            built.append(fn.__name__)
            return fn(*args)
        return wrapped

    for name in ("mass_matrix", "inverse_matrix", "structured_inverse", "build_q", "cholesky_factor"):
        monkeypatch.setattr(solvers, name, counting(getattr(solvers, name)))
    clear_cache()
    try:
        for method, builders in (
            ("direct", ["inverse_matrix", "mass_matrix"]),
            ("dft", ["structured_inverse"]),
            ("eig", ["build_q"]),
            ("cho", ["cholesky_factor"]),
        ):
            b = np.linspace(-1.0, 1.0, 12)
            del built[:]
            first = solve(method, 11, b)
            assert built == builders, method  # M is built once, for the first method
            second = solve(method, 11, b)
            assert built == builders, method
            assert second.solution.tobytes() == first.solution.tobytes()
    finally:
        clear_cache()


def test_threaded_first_solves_match_serial():
    n = 23
    bs = [np.random.default_rng(k).uniform(-1.0, 1.0, n + 1) for k in range(3)]

    def run_all():
        return [(rep.solution.tobytes(), rep.residual)
                for m in METHODS for b in bs for rep in [solve(m, n, b)]]

    clear_cache()
    serial = run_all()
    clear_cache()
    start = threading.Barrier(4)
    results, errors = [None] * 4, []

    def worker(i):
        try:
            start.wait()
            results[i] = run_all()
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside builds and stores
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        clear_cache()
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(r == serial for r in results)


_BUILDERS = ("mass_matrix", "inverse_matrix", "structured_inverse", "build_q", "cholesky_factor")


def _count_builders(monkeypatch, names=_BUILDERS):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    for name in names:
        monkeypatch.setattr(solvers, name, counting(name, getattr(solvers, name)))
    return calls


@pytest.mark.parametrize("method", [m for m in METHODS if solvers._HANDLES[m].last_degree is not None])
def test_last_degree_builds_and_the_next_is_refused_before_building(method, monkeypatch):
    handle = solvers._HANDLES[method]
    last = handle.last_degree
    calls = _count_builders(monkeypatch)
    clear_cache()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            degree = solvers._Degree(last)
            built = degree.handle(method)  # what a first solve at the last degree keeps
        assert calls and built.degree == last and 0.0 < built.cap < math.inf
        assert degree.handles == {method: built}
        clear_cache()
        del calls[:]
        for _ in range(2):  # a refusal is not cached
            with pytest.raises(DegreeTooLargeError) as info:
                solve(method, last + 1, np.ones(last + 2))
            assert str(info.value) == str(handle.too_large(last + 1))
        assert calls == [] and not solvers._cache
        # the b = 0 shortcut runs ahead of the refusal
        assert not solve(method, last + 1, np.zeros(last + 2)).solution.any()
        assert calls == []
    finally:
        clear_cache()


def test_last_degrees_are_where_each_build_leaves_double_range():
    # direct: the closed-form inverse's own last degree, finite through it
    # (test_last_degree_is_the_last_whose_exact_entries_are_doubles derives it)
    assert solvers._Direct.last_degree == inverse._LAST_DEGREE
    assert np.all(np.isfinite(inverse_matrix(solvers._Direct.last_degree)))
    # dft: the structured split's own last degree
    assert solvers._Dft.last_degree == structured._LAST_DEGREE
    # eig: lambda_min is a normal double through 508 and not from 509
    last = solvers._Eig.last_degree
    assert eigenvalues(last)[-1] >= sys.float_info.min > eigenvalues(last + 1)[-1]
    # cho: no structural limit; LAPACK's factorization decides (test_cholesky_breakdown_degree)
    assert solvers._Cho.last_degree is None


def test_raw_applies_call_no_builder_and_no_eigenvalues(monkeypatch):
    # the raw applies wrap the caller's object in the method's handle, whose cap is O(1)
    n = 20
    b = np.linspace(-1.0, 1.0, n + 1)
    routes = (
        (solve_dft, structured_inverse(n)),
        (solve_spectral, build_q(n)),
        (solve_cholesky, cholesky_factor(mass_matrix(n).matrix)),
    )
    want = [apply(obj, b).tobytes() for apply, obj in routes]
    calls = _count_builders(monkeypatch)
    # nor can they read the eigenvalues: every cap, and eig's refusal, takes lambda_min in closed form
    assert not hasattr(solvers, "eigenvalues")
    clear_cache()  # so a raw apply that reached for the cached M would build it
    try:
        assert [apply(obj, b).tobytes() for apply, obj in routes] == want
        assert calls == [] and not solvers._cache
    finally:
        clear_cache()


def test_cho_cap_is_lambda_min_in_closed_form():
    # within an ulp or two of the recurrence's lambda_min, the bound the apply needs
    for n in range(30):
        factor = cholesky_factor(mass_matrix(n).matrix)
        cap = solvers._Cho(n, factor).cap
        assert cap == pytest.approx(sys.float_info.max / 2.0 * eigenvalues(n)[-1], rel=4 * sys.float_info.epsilon)
        assert solvers._Eig(n, build_q(n)).cap == cap


def test_direct_eig_and_cho_share_one_cap():
    # one lambda_min bound: |M^-1|_2 = 1/lambda_min bounds every partial sum of each apply
    for n in range(30):
        factor = cholesky_factor(mass_matrix(n).matrix)
        caps = solvers._Direct(n, inverse_matrix(n)).cap, solvers._Cho(n, factor).cap, solvers._Eig(n, build_q(n)).cap
        assert caps[0] == caps[1] == caps[2], n


def _at_cap(shape, cap):
    # shape scaled to a 2-norm of cap, stepped down an ulp at a time until within it
    b = shape * (cap / _scaled_norm(shape))
    while _scaled_norm(b) > cap:
        b = np.nextafter(b, 0.0)
    return b


def _adversarial_rhs(method):
    # (handle, right-hand sides) per degree: for direct the sign patterns of rows 0 and
    # n//2 and of the row of largest l1 norm; for the others Q's last column, the
    # direction M^-1 amplifies most, and for cho and dft the inverse's sign pattern too
    if method == "direct":
        for n in range(inverse._LAST_DEGREE + 1):
            inv = inverse_matrix(n)
            l1 = np.ldexp(np.abs(inv), -10).sum(axis=1)  # scaled so no row sum overflows
            yield solvers._Direct(n, inv), [np.sign(inv[i]) for i in (0, n // 2, int(np.argmax(l1)))]
    elif method == "cho":
        for n in range(30):
            factor = cholesky_factor(mass_matrix(n).matrix)
            yield solvers._Cho(n, factor), [build_q(n).q[:, n], (-1.0) ** np.arange(n + 1)]
    else:
        last = solvers._HANDLES[method].last_degree
        degrees = sorted({*range(0, last + 1, 23), last - 1, last})
        for d in (d for d in build_q_sweep(last) if d.degree in degrees):
            n, shapes = d.degree, [d.q[:, d.degree]]
            if method == "eig":
                yield solvers._Eig(n, d), shapes
            else:
                yield solvers._Dft(n, structured_inverse(n)), [*shapes, (-1.0) ** np.arange(n + 1)]


@pytest.mark.parametrize("method", METHODS)
def test_caps_hold_for_adversarial_rhs(method):
    # a b whose 2-norm is the handle's cap goes through _apply bare, where no numpy
    # floating-point error may occur
    with np.errstate(over="raise", invalid="raise"):
        for handle, shapes in _adversarial_rhs(method):
            for shape in shapes:
                b = _at_cap(shape, handle.cap)
                x = solvers._apply(handle, b, _scaled_norm(b))
                assert np.all(np.isfinite(x)), (method, handle.degree)


def _max_entry_cap(inv):
    # the cap direct's handle held before it shared lambda_min's, from max|M^-1|
    return sys.float_info.max / float(np.max(np.abs(inv))) / (2.0 * math.sqrt(inv.shape[0]))


@pytest.mark.parametrize("n", [20, 509, 510, 511])
def test_direct_solutions_unchanged_by_the_lambda_min_cap(n):
    # a b between the max|M^-1| cap and the lambda_min one runs bare under one and checked
    # under the other, for the same bits; a b below 2^-511 is applied as 2^k b, with k
    # from the cap's exponent, which the two caps share
    inv = inverse_matrix(n)
    old, new = _max_entry_cap(inv), sys.float_info.max / 2.0 * (1 / ((2 * n + 1) * math.comb(2 * n, n)))
    shape = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
    between = shape * ((old + new) / 2.0 / _scaled_norm(shape))
    assert min(old, new) < _scaled_norm(between) < max(old, new)
    tiny = shape * (2.0**-600 / _scaled_norm(shape))
    k = min(0, math.frexp(old)[1] - 1) - math.frexp(_scaled_norm(tiny))[1]
    try:
        for b, want in ((between, inv @ between), (tiny, np.ldexp(inv @ np.ldexp(tiny, k), -k))):
            assert solve("direct", n, b).solution.tobytes() == want.tobytes()
    finally:
        clear_cache()


def test_table_solves_raise_only_value_errors_on_numpys_public_kernels(monkeypatch):
    # numpy's public cholesky and solve, which stand in where the bare kernels cannot be
    # imported, raise LinAlgError; cholesky_factor turns the first into
    # NotPositiveDefiniteError, and the triangular solves of a factor that succeeded
    # never raise, so a table catches ValueError alone and flags cho's cells past 29
    from bernmass.experiments import run_projection, run_random

    monkeypatch.setattr(solvers, "_cholesky", np.linalg.cholesky)
    monkeypatch.setattr(solvers, "_solve1", np.linalg.solve)
    clear_cache()
    try:
        with pytest.raises(NotPositiveDefiniteError):
            solve("cho", 30, np.ones(31))
        for records in (run_projection("f1", 32, ["cho"]), run_random(32, 5, ["cho"])):
            cells = [list(rec.values.values()) for rec in records]
            assert all(math.isfinite(v) for row in cells[:30] for v in row)
            assert all(math.isnan(v) for row in cells[30:] for v in row)
    finally:
        clear_cache()


def test_readme_limits_table_cites_the_handles_last_degrees():
    # the "works through / then raises" table: each row's last degree is the contract
    # test's, its solve's for a method and mass_matrix's for assembly, and no measured
    # b = 1 limit passes it
    from test_contract import ENTRY_POINTS

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = {}
    for line in lines:
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[1].startswith("n = "):
            rows[cells[0].strip("`")] = int(cells[1][len("n = "):]), cells[3]
    assert set(rows) == {*METHODS, "assembly", "eigenvalues"}
    for name, (works, last) in rows.items():
        limit = ENTRY_POINTS["mass_matrix" if name == "assembly" else name][1]
        if limit is None:
            assert last.startswith("—"), name
        else:
            assert int(last) == limit and works <= limit, name
    # for eig, assembly and the eigenvalues the structural limit is the measured one
    for name in ("eig", "assembly", "eigenvalues"):
        assert rows[name][0] == int(rows[name][1]), name
