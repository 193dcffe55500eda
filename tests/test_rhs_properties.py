"""Every solve method, every alias, the exact reference and the public raw applies take and refuse b alike."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernmass.bernstein import DegreeTooLargeError, mass_matrix
from bernmass.experiments import reference_solution
from bernmass.kernels import _SQRT_TINY, _scaled_norm
from bernmass.solvers import METHOD_ALIASES, METHODS, cholesky_factor, solve, solve_cholesky, solve_dft, solve_spectral
from bernmass.spectral import build_q
from bernmass.structured import structured_inverse

# each name of METHOD_ALIASES, through solve, the exact reference and the public raw applies
ROUTES = {name: (lambda n, b, name=name: solve(name, n, b).solution) for name in sorted(METHOD_ALIASES)}
ROUTES["reference_solution"] = reference_solution
ROUTES["solve_dft"] = lambda n, b: solve_dft(structured_inverse(n), b)
ROUTES["solve_spectral"] = lambda n, b: solve_spectral(build_q(n), b)
ROUTES["solve_cholesky"] = lambda n, b: solve_cholesky(cholesky_factor(mass_matrix(n).matrix), b)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

degrees = st.integers(0, 12)
finite = st.floats(-1e3, 1e3, allow_nan=False)


def _outcome(route, n, b):
    try:
        route(n, b)
    except Exception as exc:  # compared across routes below
        return type(exc), str(exc)
    return None


def _same_refusal(n, b):
    outcomes = {name: _outcome(route, n, b) for name, route in ROUTES.items()}
    first = outcomes["direct"]
    assert first is not None and first[0] is ValueError, outcomes
    assert all(o == first for o in outcomes.values()), outcomes


@SETTINGS
@given(degrees.flatmap(lambda n: st.lists(st.integers(-1000, 1000), min_size=n + 1, max_size=n + 1)
                        | st.lists(st.booleans(), min_size=n + 1, max_size=n + 1)))
def test_ints_bools_and_lists_taken_as_float64(values):
    n = len(values) - 1
    b = np.array(values, dtype=float)
    for name, route in ROUTES.items():
        want = route(n, b).tobytes()
        for form in (values, tuple(values), np.array(values), np.array(values, dtype=np.int32), b.tolist()):
            assert route(n, form).tobytes() == want, (name, form)
        if name in METHOD_ALIASES:  # an alias answers as its method does
            assert want == ROUTES[METHOD_ALIASES[name]](n, b).tobytes(), name


@SETTINGS
@given(degrees.flatmap(lambda n: st.tuples(
    st.lists(finite, min_size=n + 1, max_size=n + 1),
    st.integers(0, n),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)))
def test_non_finite_entries_refused_alike(case):
    values, at, bad = case
    values[at] = bad
    _same_refusal(len(values) - 1, np.array(values))
    _same_refusal(len(values) - 1, values)


@SETTINGS
@given(degrees.flatmap(lambda n: st.tuples(
    st.lists(finite, min_size=n + 1, max_size=n + 1),
    st.sampled_from([np.complex64, np.complex128, "list"]),
)))
def test_complex_refused_alike(case):
    values, kind = case
    n = len(values) - 1
    if kind == "list":
        _same_refusal(n, values[:-1] + [complex(values[-1], 1.0)])
    else:
        _same_refusal(n, np.array(values, dtype=kind))


@SETTINGS
@given(degrees, finite, st.sampled_from(["float", "int", "numpy", "0-d array"]))
def test_zero_dimensional_refused_alike(n, value, kind):
    b = {"float": value, "int": int(value), "numpy": np.float64(value), "0-d array": np.array(value)}[kind]
    _same_refusal(n, b)


@SETTINGS
@given(degrees, st.integers(0, 15), st.sampled_from(["vector", "column", "row"]))
def test_wrong_shape_refused_alike(n, size, layout):
    if layout == "vector":
        if size == n + 1:
            size += 1
        b = np.ones(size)
    else:
        b = np.ones((n + 1, 1) if layout == "column" else (1, n + 1))
    _same_refusal(n, b)


@SETTINGS
@given(degrees, st.sampled_from(["zeros", "negative zeros", "int list"]))
def test_zero_rhs_answered_with_zeros(n, kind):
    b = {"zeros": np.zeros(n + 1), "negative zeros": np.full(n + 1, -0.0), "int list": [0] * (n + 1)}[kind]
    for name, route in ROUTES.items():
        x = route(n, b)
        assert x.dtype == np.float64 and x.shape == (n + 1,) and not x.any(), name


# views of a vector b whose entries are b's, each laid out apart from it
LAYOUTS = {
    "reversed": lambda b: b[::-1].copy()[::-1],
    "every other": lambda b: np.repeat(b, 2)[::2],
    "matrix column": lambda b: np.column_stack([b, b, b])[:, 1],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_strided_rhs_answered_as_its_contiguous_copy(layout):
    # matmul takes another loop for a negative stride, and np.vdot sums a
    # strided vector in another order, so b is made contiguous first
    rng = np.random.default_rng(1701)
    raw = ("solve_dft", "solve_spectral", "solve_cholesky")
    for n in range(26):
        for _ in range(5):
            b = rng.uniform(-1.0, 1.0, n + 1)
            view = LAYOUTS[layout](b)
            assert np.array_equal(view, b) and (n == 0 or not view.flags.c_contiguous)
            for m in METHODS:
                got, want = solve(m, n, view), solve(m, n, b)
                assert got.solution.tobytes() == want.solution.tobytes(), (m, n)
                assert got.residual == want.residual, (m, n)
            for name in raw:
                assert ROUTES[name](n, view).tobytes() == ROUTES[name](n, b).tobytes(), (name, n)


RAW = ("solve_dft", "solve_spectral", "solve_cholesky")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 29).flatmap(lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1)),
    st.integers(-1070, 1020),
    st.booleans(),
)
@example([0.25, -0.5, 0.125, 1.0, -0.75, 0.5], -1045, True)  # subnormal intermediates at degree 5
@example(np.random.default_rng(20).uniform(-0.5, 0.5, 21).tolist(), -1030, True)
@example([1.0] * 30, 1020, True)  # past every method's cap
@example([1e307] * 21, 0, False)  # b = 1e307 * 1 at degree 20: the eig and cho applies overflow
def test_rhs_scaled_across_double_range(x, e, times_mass):
    # b = M x 2^e, or x 2^e: each solve and each public raw apply is finite or a typed
    # refusal, never a numpy warning; a b whose 2-norm is below 2^-511 is answered as
    # 2^k b is, scaled back by 2^-k
    n = len(x) - 1
    b = np.ldexp(mass_matrix(n).matrix @ np.array(x) if times_mass else np.array(x), e)
    bnorm = _scaled_norm(b)
    for name in sorted(METHOD_ALIASES) + list(RAW):
        route = ROUTES[name] if name in RAW else lambda n, b, name=name: solve(name, n, b).solution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = route(n, b)
            except ValueError as exc:  # DegreeTooLargeError among them
                assert type(exc) in (DegreeTooLargeError, ValueError), name
                continue
        assert np.all(np.isfinite(got)), (name, e)
        if name not in RAW:
            assert math.isfinite(solve(name, n, b).residual), (name, e)
        if 0.0 < bnorm < _SQRT_TINY:
            k = -math.frexp(bnorm)[1]
            assert got.tobytes() == np.ldexp(route(n, np.ldexp(b, k)), -k).tobytes(), (name, e)
