"""Every public entry point that takes a degree, an n_max or a b keeps one degree rule.

A degree is an int or a numpy integer: a bool, a float, a string or any
other object raises TypeError naming the argument, a negative one
ValueError("degree must be nonnegative"), and one past the entry point's
last degree DegreeTooLargeError, before any work.  Nothing escapes as an
OverflowError, KeyError, IndexError, ZeroDivisionError or LinAlgError, and
no call issues a RuntimeWarning.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bernmass as bm
from bernmass import bernstein, conditioning, inverse, solvers, structured
from bernmass.bernstein import DegreeTooLargeError, binomial_diag, binomial_row, hankel_moments
from bernmass.spectral import build_q_sweep


def _ones(n):
    """b = 1 of n+1 entries (at least one) for an integer n, and of three for any other n."""
    return np.ones(max(n + 1, 1)) if isinstance(n, (int, np.integer)) else np.ones(3)


_ASSEMBLY = bernstein._MAX_DEGREE

# name: (the call of one degree, its last degree or None, the valid degrees drawn).  The
# valid degrees are a cheap range: a table at assembly's last degree takes tens of seconds
ENTRY_POINTS = {
    "mass_matrix": (bm.mass_matrix, _ASSEMBLY, range(41)),
    "hankel_moments": (hankel_moments, None, range(41)),
    "binomial_row": (binomial_row, None, range(41)),
    "binomial_diag": (binomial_diag, None, range(41)),
    "basis_values": (lambda n: bm.basis_values(n, [0.0, 0.5, 1.0]), bernstein._LAST_BASIS_DEGREE, range(41)),
    "eigenvalues": (bm.eigenvalues, _ASSEMBLY, range(41)),
    "build_q": (bm.build_q, _ASSEMBLY, range(41)),
    "build_q_sweep": (lambda n: list(build_q_sweep(n)), _ASSEMBLY, range(41)),
    "inverse_matrix": (bm.inverse_matrix, inverse._LAST_DEGREE, range(41)),
    "structured_inverse": (bm.structured_inverse, structured._LAST_DEGREE, range(41)),
    "kappa_2": (bm.kappa_2, conditioning._LAST_DEGREE, range(41)),
    "kappa_m_to_2": (bm.kappa_m_to_2, conditioning._LAST_DEGREE, range(41)),
    "condition_table": (bm.condition_table, conditioning._LAST_DEGREE, range(41)),
    "perturbation_study": (lambda n: bm.perturbation_study(n, samples=8), solvers._Eig.last_degree, range(41)),
    "reference_solution": (lambda n: bm.reference_solution(n, _ones(n)), None, range(41)),
    "run_projection": (lambda n: bm.run_projection("f1", n), _ASSEMBLY, range(21)),
    "run_random": (bm.run_random, _ASSEMBLY, range(21)),
    "gauss_legendre": (bm.gauss_legendre, None, range(1, 41)),
    # solve, one entry per method: cho's M stops factoring at 30
    **{
        name: (lambda n, name=name: bm.solve(name, n, _ones(n)), h.last_degree, range(30 if name == "cho" else 41))
        for name, h in solvers._HANDLES.items()
    },
}

NOT_INTEGERS = [2.0, 2.5, -1.0, float("nan"), float("inf"), np.float64(3.0), True, False, np.True_,
                "3", None, 3 + 0j, Fraction(3), [3]]


def _cases(last, valid):
    """(degree, the error it must raise or None) for one entry point."""
    kinds = [
        st.integers(-3, -1).map(lambda n: (n, ValueError)),
        st.tuples(st.sampled_from(valid), st.sampled_from([int, np.int64, np.int32, np.uint16, np.int8])).map(
            lambda c: (c[1](c[0]), None)
        ),
        st.sampled_from(NOT_INTEGERS).map(lambda v: (v, TypeError)),
    ]
    if last is not None:
        kinds.append(st.integers(last + 1, last + 3).map(lambda n: (n, DegreeTooLargeError)))
    return st.one_of(kinds)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_entry_point_keeps_the_degree_rule(name, data):
    call, last, valid = ENTRY_POINTS[name]
    n, error = data.draw(_cases(last, valid), label="degree, error")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if error is None:
                call(n)
                return
            with pytest.raises(error) as info:
                call(n)
    finally:
        solvers.clear_cache()
    # the type itself: LinAlgError and DegreeTooLargeError are ValueErrors too
    assert type(info.value) is error, (name, n, info.value)
    message = str(info.value)
    if error is TypeError:
        assert message.endswith(f"degree must be an integer, not {type(n).__name__}"), message
    elif error is ValueError:
        assert message == "degree must be nonnegative"
