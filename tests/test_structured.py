"""Circulant-embedded products, Bezout machinery, and the compressed
inverse split."""

import functools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bernmass import solvers, structured
from bernmass.bernstein import DegreeTooLargeError, _squared_binomial_row, binomial_diag, mass_matrix
from bernmass.experiments import run_projection
from bernmass.inverse import inverse_matrix
from bernmass.oracle import (
    bezout_coeff_u,
    bezout_coeff_v,
    bezout_matrix,
    hankel_dense,
    hankel_extension,
    hankel_inverse_entry,
    hankel_matvec,
    heinig_rost_inverse,
    identity_exact,
    mass_exact,
    mat_mul,
    rational_inverse,
    structured_inverse_exact,
    toeplitz_dense,
    toeplitz_matvec,
)
from bernmass.solvers import solve_dft
from bernmass.structured import (
    _dft_apply,
    next_pow2,
    structured_inverse,
)


# ---------------------------------------------------------------------------
# circulant embedding


def test_next_pow2():
    assert [next_pow2(k) for k in (0, 1, 2, 3, 4, 5, 9, 16, 17)] == [
        1, 1, 2, 4, 4, 8, 16, 16, 32,
    ]


# ---------------------------------------------------------------------------
# structured products


def test_toeplitz_matvec_matches_dense():
    rng = np.random.default_rng(6)
    for s in (1, 2, 3, 5, 17):
        col = rng.standard_normal(s)
        row = np.concatenate([[col[0]], rng.standard_normal(s - 1)])
        x = rng.standard_normal(s)
        dense = np.asarray(toeplitz_dense(col.tolist(), row.tolist()), dtype=float)
        got = toeplitz_matvec(col, row, x)
        assert np.max(np.abs(got - dense @ x)) <= 1e-12 * max(1.0, np.max(np.abs(dense @ x)))


def test_toeplitz_matvec_validates_input():
    with pytest.raises(ValueError):
        toeplitz_matvec([1.0, 2.0], [3.0, 4.0], [1.0, 1.0])  # corners disagree
    with pytest.raises(ValueError):
        toeplitz_matvec([1.0, 2.0], [1.0], [1.0, 1.0])


def test_hankel_matvec_matches_dense():
    rng = np.random.default_rng(8)
    for s in (1, 2, 4, 9):
        h = rng.standard_normal(2 * s - 1)
        x = rng.standard_normal(s)
        dense = np.asarray(hankel_dense(h.tolist()), dtype=float)
        got = hankel_matvec(h, x)
        assert np.allclose(got, dense @ x, atol=1e-12)
    with pytest.raises(ValueError):
        hankel_matvec(np.zeros(4), np.zeros(2))


def test_dense_builders_keep_exact_types():
    t = toeplitz_dense([Fraction(1), Fraction(2)], [Fraction(1), Fraction(3)])
    assert t == [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(1)]]
    h = hankel_dense([1, 2, 3])
    assert h == [[1, 2], [2, 3]]
    with pytest.raises(ValueError):
        hankel_dense([1, 2])


# ---------------------------------------------------------------------------
# Bezout route


def test_bezout_small_hand_case():
    # (u, v) generating the 2x2 inverse of the descaled mass matrix
    u = bezout_coeff_u(1)
    v = bezout_coeff_v(1)
    assert u == [-2, 4, 0]
    assert v == [0, 4, -2]
    assert v == u[::-1]
    assert bezout_matrix(u, v) == [[8, -4], [-4, 8]]


def test_bezout_coefficient_reversal():
    for n in range(6):
        u = bezout_coeff_u(n)
        assert bezout_coeff_v(n) == u[::-1]


def _bezout_by_sums(u, v):
    # the defining O(n^3) sum, the reference for the O(n^2) recurrence
    s = len(u) - 1
    return [
        [
            sum(
                u[j + k + 1] * v[i - k] - u[i - k] * v[j + k + 1]
                for k in range(min(i, s - 1 - j) + 1)
            )
            for j in range(s)
        ]
        for i in range(s)
    ]


def test_bezout_recurrence_matches_defining_sum():
    rng = np.random.default_rng(11)
    for length in range(2, 12):
        for _ in range(5):
            u = [int(c) for c in rng.integers(-50, 51, length)]
            v = [int(c) for c in rng.integers(-50, 51, length)]
            assert bezout_matrix(u, v) == _bezout_by_sums(u, v), (u, v)


def test_bezout_antisymmetry_in_arguments():
    u = [1, -3, 2, 5]
    v = [0, 2, 1, -4]
    a = np.asarray(bezout_matrix(u, v))
    b = np.asarray(bezout_matrix(v, u))
    assert np.array_equal(a, -b)


def test_bezout_of_coefficients_gives_scaled_inverse():
    # the Bezout matrix of (v, u), divided by v's trailing entry, equals the
    # integer inverse of the descaled (Hankel) mass factor
    for n in range(21):
        u = bezout_coeff_u(n)
        v = bezout_coeff_v(n)
        bez = bezout_matrix(v, u)
        for i in range(n + 1):
            for j in range(n + 1):
                assert bez[i][j] % v[-1] == 0
                assert bez[i][j] // v[-1] == hankel_inverse_entry(n, i, j)


def test_hankel_extension_hand_case():
    # bordering the 2x2 descaled mass factor: worked out by hand
    alpha, beta = hankel_extension([1 / 3, 1 / 6, 1 / 3], [-2.0, 4.0])
    assert alpha == pytest.approx(2 / 3, rel=1e-12)
    assert beta == pytest.approx(5 / 6, rel=1e-12)


def test_hankel_extension_size_one():
    alpha, beta = hankel_extension([0.25], [4.0])
    assert alpha == 0.0
    assert beta == pytest.approx(0.25)


def test_hankel_extension_validates():
    with pytest.raises(ValueError):
        hankel_extension([1.0, 2.0, 3.0], [1.0, 1.0])  # profile not symmetric
    with pytest.raises(ValueError):
        hankel_extension([1 / 3, 1 / 6, 1 / 3], [1.0, 1.0])  # not a solution
    with pytest.raises(ValueError):
        hankel_extension([1 / 3, 1 / 6, 1 / 3], [0.0, 2.0])  # leading entry zero


def test_heinig_rost_inverts_descaled_mass():
    for n in range(9):
        mm = mass_matrix(n)
        h = mm.hankel_factor
        inv = heinig_rost_inverse(h)
        dense = np.asarray(hankel_dense(list(h)), dtype=float)
        resid = dense @ inv - np.eye(n + 1)
        assert np.max(np.abs(resid)) <= 1e-7, n


def test_heinig_rost_matches_integer_entries():
    n = 4
    inv = heinig_rost_inverse(mass_matrix(n).hankel_factor)
    expected = np.array(
        [[hankel_inverse_entry(n, i, j) for j in range(n + 1)] for i in range(n + 1)],
        dtype=float,
    )
    assert np.max(np.abs(inv - expected) / np.abs(expected).max()) <= 1e-10


# ---------------------------------------------------------------------------
# the compressed inverse split


def test_exact_split_reproduces_rational_inverse():
    for n in range(7):
        t, tw, h, hw = structured_inverse_exact(n)
        a = mat_mul(tw, h)
        b = mat_mul(t, hw)
        inv = rational_inverse(mass_exact(n))
        d = [Fraction(int(v)) for v in binomial_diag(n)]
        for i in range(n + 1):
            for j in range(n + 1):
                assert Fraction(a[i][j] - b[i][j]) / (d[i] * d[j]) == inv[i][j]


def test_split_factors_are_integer_structured():
    t, tw, h, hw = structured_inverse_exact(3)
    # unit-diagonal lower-triangular Toeplitz
    for i in range(4):
        assert t[i][i] == 1
        for j in range(i + 1, 4):
            assert t[i][j] == 0
            assert tw[i][j] == 0
    # Hankel symmetry
    for i in range(4):
        for j in range(4):
            assert h[i][j] == h[j][i]
            assert hw[i][j] == hw[j][i]


def test_solve_dft_matches_direct_inverse():
    for n in (0, 1, 2, 5, 9):
        si = structured_inverse(n)
        inv = inverse_matrix(n)
        rng = np.random.default_rng(n + 21)
        b = rng.standard_normal(n + 1)
        x = solve_dft(si, b)
        ref = inv @ b
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(x - ref)) <= 1e-7 * max(scale, 1.0)


def test_solve_dft_refuses_overflowing_products():
    rng = np.random.default_rng(3)

    def solve_at(n):
        b = mass_matrix(n).matrix @ rng.uniform(-0.5, 0.5, n + 1)
        return solve_dft(structured_inverse(n), b)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(solve_at(256)))  # the last degree with finite products
        for n in (257, 509):
            with pytest.raises(DegreeTooLargeError):
                solve_at(n)


def test_solve_dft_shape_guard():
    si = structured_inverse(4)
    with pytest.raises(ValueError):
        solve_dft(si, np.zeros(4))


def test_structured_inverse_metadata():
    si = structured_inverse(6)
    assert si.degree == 6
    assert si.plan_size == 16  # next power of two at least 2n+2 = 14
    assert "degree=6" in repr(si)


def test_structured_inverse_overflow_guards():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is reported by the ValueError alone
        structured_inverse(509)  # largest degree with representable spectra
        for n in (510, 512):
            with pytest.raises(ValueError):
                structured_inverse(n)  # spectra overflow
        with pytest.raises(ValueError):
            structured_inverse(600)  # band entries overflow


def test_last_degree_is_where_the_split_leaves_double_range():
    # every FFT intermediate of an embedded row is at most the row's l1 norm; the Tt and Ht
    # rows weight C(n+1, k)^2 by k, k = 0..n and 1..n+1, as structured_inverse does
    def l1_norms(n):
        squares = [math.comb(n + 1, k) ** 2 for k in range(n + 2)]
        return sum(k * c for k, c in enumerate(squares[:-1])), sum(k * c for k, c in enumerate(squares))

    last, top = structured._LAST_DEGREE, sys.float_info.max
    assert max(l1_norms(last)) <= top < min(l1_norms(last + 1))
    # the squared binomials are doubles through n = 515, and the build refuses them from 516
    assert math.isfinite(float(math.comb(516, 258) ** 2))
    with pytest.raises(OverflowError):
        float(math.comb(517, 258) ** 2)
    for n, what in ((last + 1, "circulant spectra"), (515, "circulant spectra"), (516, "squared binomial factors")):
        with pytest.raises(DegreeTooLargeError, match=f"^{what} overflow double precision at degree n={n}$"):
            structured_inverse(n)


def test_refused_before_anything_is_built(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_squared_binomial_row", "_rfft"):
        monkeypatch.setattr(structured, name, counting(getattr(structured, name)))
    with pytest.raises(DegreeTooLargeError, match="squared binomial factors .* n=600"):
        structured_inverse(600)
    with pytest.raises(DegreeTooLargeError, match="circulant spectra .* n=510"):
        structured_inverse(510)
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        structured_inverse(-1)
    with pytest.raises(DegreeTooLargeError, match="circulant spectra .* n=512"):
        solvers.solve("dft", 512, np.ones(513), max_degree=600)
    assert calls == []
    structured_inverse(3)  # the counters see a build
    assert calls == ["_squared_binomial_row", "rfft"]


def _comb_split_lists(n):
    # the Toeplitz band and the Hankel anti-diagonals, each entry from math.comb
    band = [(-1) ** d * math.comb(n + 1, d) ** 2 for d in range(n + 1)]
    anti = [(-1) ** (s + 1) * math.comb(n + 1, s + 1) ** 2 for s in range(2 * n + 1)]
    return band, anti


@pytest.mark.parametrize("n", list(range(41)) + [509])
def test_squared_binomial_row_gives_band_and_anti_diagonals(n):
    band, anti = _comb_split_lists(n)
    row = _squared_binomial_row(n)
    assert row[:-1] == band
    assert row[1:] + [0] * n == anti
    t, tw, h, hw = structured_inverse_exact(n)
    assert [r[0] for r in t] == band and h[0] + h[-1][1:] == anti


@pytest.mark.parametrize("n", list(range(41)) + [255, 256, 509])
def test_structured_inverse_bitwise_equal_to_comb_lists(n):
    band, anti = _comb_split_lists(n)
    t_col = np.array(band, dtype=float)
    h = np.array(anti, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        want = {
            "t_col": t_col,
            "tt_col": np.arange(n + 1) * t_col,
            "h": h,
            "ht": np.arange(1, 2 * n + 2) * h,
            "binom_diag": binomial_diag(n),
        }
    got = structured_inverse(n)
    for field, value in want.items():
        assert getattr(got, field).tobytes() == value.tobytes(), field
    # its spectra: test_spectra_bitwise_equal_to_one_rfft_each, at every degree


# ---------------------------------------------------------------------------
# the paired FFT apply against one 1-D call per transform


def _spectrum_1d(first_col, first_row, plan):
    # [first_col | zeros | reverse(first_row[1:])], one 1-D rfft
    s = len(first_col)
    c = np.zeros(plan)
    c[:s] = first_col
    if s > 1:
        c[plan - s + 1 :] = first_row[1:][::-1]
    return np.fft.rfft(c)


def _seven_call_apply(si, bv):
    # the reference apply, bare: every transform a separate 1-D public numpy FFT call
    s, plan = si.degree + 1, si.plan_size

    def apply(spectrum, x):
        return np.fft.irfft(spectrum * np.fft.rfft(x, plan), plan)[:s]

    rev_hat = np.fft.rfft((bv / si.binom_diag)[::-1], plan)
    (h_hat, ht_hat), (tt_hat, t_hat) = si._h_pair, si._t_pair
    hy = np.fft.irfft(h_hat * rev_hat, plan)[:s]
    hty = np.fft.irfft(ht_hat * rev_hat, plan)[:s]
    return (apply(tt_hat, hy) - apply(t_hat, hty)) / si.binom_diag


def _solve_dft_seven_calls(si, b):
    bv = np.asarray(b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _seven_call_apply(si, bv)
    if not np.all(np.isfinite(x)):
        raise DegreeTooLargeError(
            f"structured inverse products overflow double precision at degree n={si.degree}"
        )
    return x


def _right_hand_sides(n):
    rng = np.random.default_rng(n + 500)
    yield mass_matrix(n).matrix @ rng.uniform(-0.5, 0.5, n + 1)
    yield rng.standard_normal(n + 1) * 1e3
    yield np.ones(n + 1)
    yield rng.uniform(-1.0, 1.0, n + 1) * 1e-200


_SPECTRA_DEGREES = list(range(510))


@functools.lru_cache(maxsize=1)
def _held_builds():
    # one pass of single builds over every degree 509..0, all held at once, as the
    # handles of a table's solves hold them
    return {n: structured_inverse(n) for n in range(509, -1, -1)}


@functools.lru_cache(maxsize=None)
def _comb_spectra(n):
    # the four spectra from math.comb rows, one 1-D public numpy rfft each
    band, anti = _comb_split_lists(n)
    t_col, h = np.array(band, dtype=float), np.array(anti, dtype=float)
    s, plan = n + 1, next_pow2(2 * n + 2)
    t_row = np.zeros(s)
    t_row[0] = t_col[0]
    with np.errstate(over="ignore", invalid="ignore"):
        tt_col, ht = np.arange(n + 1) * t_col, np.arange(1, 2 * n + 2) * h
        return plan, {
            ("_h_pair", 0): _spectrum_1d(h[s - 1 :], h[s - 1 :: -1], plan),
            ("_h_pair", 1): _spectrum_1d(ht[s - 1 :], ht[s - 1 :: -1], plan),
            ("_t_pair", 0): _spectrum_1d(tt_col, np.zeros(s), plan),
            ("_t_pair", 1): _spectrum_1d(t_col, t_row, plan),
        }


@pytest.mark.parametrize(
    "n, held",
    [pytest.param(n, False, id=str(n)) for n in _SPECTRA_DEGREES]
    + [pytest.param(n, True, id=f"sweep-{n}") for n in _SPECTRA_DEGREES],
)
def test_spectra_bitwise_equal_to_one_rfft_each(n, held):
    # a fresh build, and (ids sweep-<n>) the same degree's build from a pass over
    # all 510 degrees, all held at once
    si = _held_builds()[n] if held else structured_inverse(n)
    assert si.degree == n
    assert si._h_pair.flags.c_contiguous and si._t_pair.flags.c_contiguous
    plan, want = _comb_spectra(n)
    assert si.plan_size == plan
    for (field, row), spectrum in want.items():
        assert getattr(si, field)[row].tobytes() == spectrum.tobytes(), (field, row)


def test_solve_dft_bitwise_equal_to_seven_call_apply():
    # the same x, or the same refusal (from 257 for b of order one)
    refused = set()
    for n in list(range(257)) + [257, 300, 509]:
        si = structured_inverse(n)
        for b in _right_hand_sides(n):
            try:
                want = _solve_dft_seven_calls(si, b)
            except DegreeTooLargeError as exc:
                refused.add(n)
                with pytest.raises(DegreeTooLargeError, match=str(exc)):
                    solve_dft(si, b)
            else:
                assert solve_dft(si, b).tobytes() == want.tobytes(), n
    assert {257, 300, 509} <= refused


def test_dft_apply_bitwise_equal_to_seven_call_apply_at_every_degree():
    # the bound kernels against public numpy.fft calls; from n = 257 the products
    # of b of order one overflow, and the inf and nan entries agree bit for bit too
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(510):
            si = _held_builds()[n]
            for b in _right_hand_sides(n):
                assert _dft_apply(si, b).tobytes() == _seven_call_apply(si, b).tobytes(), n


@pytest.mark.parametrize("func", ["f1", "f2"])
def test_projection_table_bitwise_equal_under_seven_call_apply(func, monkeypatch):
    got = run_projection(func, 20, ["dft"])
    ran = []

    def seven_calls(si, b):
        ran.append(si.degree)
        return _solve_dft_seven_calls(si, b)

    # the solves of the second table hit the cache, yet must reach the patched kernel
    monkeypatch.setattr(solvers, "_dft_apply", seven_calls)
    want = run_projection(func, 20, ["dft"])
    assert ran == list(range(21))
    assert [r.degree for r in got] == [r.degree for r in want]
    for g, w in zip(got, want):
        assert np.array(list(g.values.values())).tobytes() == np.array(list(w.values.values())).tobytes()
        assert list(g.values) == list(w.values)


def test_fft_call_counts(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_rfft", "_irfft"):
        monkeypatch.setattr(structured, name, counting(getattr(structured, name)))
    for n in (0, 5, 20, 25):
        del calls[:]
        si = structured_inverse(n)
        assert calls == ["rfft"], n  # the four spectra in one 2-D transform
        del calls[:]
        solve_dft(si, np.ones(n + 1))
        assert sorted(calls) == ["irfft", "irfft", "rfft", "rfft"], n
