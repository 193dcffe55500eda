"""Experiment harnesses: moments, references, runs, and CSV emission."""

import io
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernmass import experiments, solvers
from bernmass.bernstein import BernsteinPoly, DegreeTooLargeError, evaluate
from bernmass.conditioning import condition_table
from bernmass.experiments import (
    COLUMN_TAGS,
    ExperimentRecord,
    _legendre_projections,
    default_rule,
    f1,
    f2,
    reference_solution,
    render_csv,
    run_projection,
    run_random,
    write_csv,
)
from bernmass.oracle import function_norm, hankel_inverse_exact, legendre_reference, mass_exact, moments, rational_solve
from bernmass.solvers import METHODS, NotPositiveDefiniteError, UnknownMethodError, cholesky_factor, clear_cache, metrics, solve
from bernmass.bernstein import mass_matrix
from bernmass.rng import Xorshift64Star
from bernmass.structured import next_pow2


def test_target_functions_pointwise():
    assert f1(0.5) == pytest.approx(1.0)
    assert f1(0.0) == pytest.approx(1.0 / 100.0)
    assert f1(np.array([0.2, 0.8]))[0] == pytest.approx(f1(np.array([0.2, 0.8]))[1])
    assert f2(0.0) == pytest.approx(0.01)
    assert f2(1.0) == pytest.approx(0.51)


def test_moments_of_constant():
    for n in (0, 3, 7):
        b = moments(lambda x: np.ones_like(x), n)
        assert np.allclose(b, 1.0 / (n + 1), atol=1e-15)


def test_moments_of_linear():
    b = moments(lambda x: x, 1)
    assert b == pytest.approx([1.0 / 6.0, 1.0 / 3.0], abs=1e-15)
    # and the solve recovers the linear function's coefficients
    x = solve("cho", 1, b).solution
    assert np.allclose(x, [0.0, 1.0], atol=1e-13)


def test_moments_accuracy_against_fine_rule():
    from bernmass.quadrature import composite_gauss_legendre

    fine = composite_gauss_legendre(64, 16)
    for f in (f1, f2):
        for n in (5, 12):
            coarse_b = moments(f, n)
            fine_b = moments(f, n, fine)
            assert np.max(np.abs(coarse_b - fine_b)) <= 1e-15


def test_legendre_reference_constant_and_linear():
    r = legendre_reference(lambda x: np.ones_like(x), 2)
    assert np.allclose(r.coeffs, 1.0, atol=1e-14)
    r = legendre_reference(lambda x: x, 2)
    assert np.allclose(r.coeffs, [0.0, 0.5, 1.0], atol=1e-13)


def test_legendre_reference_is_orthogonal_projection():
    # the reference residual must be orthogonal to the polynomial space
    rule = default_rule()
    n = 6
    ref = legendre_reference(f2, n, rule)
    fv = f2(rule.nodes)
    pv = evaluate(ref, rule.nodes)
    from bernmass.bernstein import basis_values

    resid = (rule.weights * (fv - pv)) @ basis_values(n, rule.nodes)
    assert np.max(np.abs(resid)) <= 1e-14


def test_legendre_reference_error_decreases():
    rule = default_rule()
    errs = []
    for n in range(9):
        ref = legendre_reference(f2, n, rule)
        pv = evaluate(ref, rule.nodes)
        errs.append(math.sqrt(float(rule.weights @ (f2(rule.nodes) - pv) ** 2)))
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_run_projection_degree_zero():
    recs = run_projection("f2", 0)
    assert len(recs) == 1
    rec = recs[0]
    # degree-0 projection is the mean; all methods coincide on a 1x1 system
    rule = default_rule()
    mean = float(rule.weights @ f2(rule.nodes))
    x = solve("direct", 0, moments(f2, 0)).solution
    assert x[0] == pytest.approx(mean, rel=1e-14)
    vals = [rec.values[k] for k in ("directfp", "DFTfp", "Eigfp", "chofp")]
    assert max(vals) - min(vals) <= 1e-15
    assert rec.values["directfp"] > 0.3  # constant fit is genuinely poor


def test_run_projection_columns_and_values():
    recs = run_projection("f2", 4)
    expected = [
        f"{tag}{fam}"
        for fam in ("fp", "Pifp", "err", "res")
        for tag in ("direct", "DFT", "Eig", "cho")
    ]
    assert list(recs[0].values.keys()) == expected
    for rec in recs:
        for v in rec.values.values():
            assert np.isfinite(v) and v >= 0.0


def test_run_projection_method_subset():
    recs = run_projection("f2", 2, methods=["cholesky", "eig"])
    assert list(recs[0].values.keys()) == [
        "Eigfp", "chofp", "EigPifp", "choPifp", "Eigerr", "choerr", "Eigres", "chores",
    ]


def test_run_projection_flags_failed_cells():
    # the factorization method stops being usable once conditioning
    # overwhelms double precision; those cells carry nan and the run goes on
    recs = run_projection("f2", 36, methods=["cho"])
    assert len(recs) == 37
    assert np.isfinite(recs[10].values["chofp"])
    assert math.isnan(recs[36].values["chofp"])
    assert math.isnan(recs[36].values["chores"])


def test_run_random_flags_failed_cells():
    # Cholesky breaks down in the 30s; its cells carry nan and the run goes on
    recs = run_random(36, seed=42)
    assert len(recs) == 37
    for rec in recs:
        try:
            cholesky_factor(mass_matrix(rec.degree).matrix)
            failed = False
        except NotPositiveDefiniteError:
            failed = True
        cho = [rec.values[f"cho{fam}"] for fam in ("L2err", "Merr", "res")]
        assert all(map(math.isnan, cho)) == failed, rec.degree
        assert np.isfinite(rec.values["directres"]) and np.isfinite(rec.values["Eigres"])
    assert math.isnan(recs[36].values["choL2err"])


def test_run_random_deterministic():
    a = run_random(6, seed=42)
    b = run_random(6, seed=42)
    assert render_csv(a) == render_csv(b)
    c = run_random(6, seed=43)
    assert render_csv(a) != render_csv(c)


def test_run_random_columns_and_residuals():
    recs = run_random(8, seed=42)
    expected = [
        f"{tag}{fam}"
        for fam in ("L2err", "Merr", "res")
        for tag in ("direct", "DFT", "Eig", "cho")
    ]
    assert list(recs[0].values.keys()) == expected
    for rec in recs:
        assert rec.values["Eigres"] <= 1e-13
        assert rec.values["chores"] <= 1e-13
        for v in rec.values.values():
            assert np.isfinite(v) and v >= 0.0


def test_reference_solution_uses_rational_oracle():
    rng = np.random.default_rng(23)
    for n in (2, 7, 12, 15, 20, 30):
        b = rng.uniform(-1.0, 1.0, n + 1)
        got = reference_solution(n, b)
        sol = rational_solve(mass_exact(n), [Fraction(float(v)) for v in b])
        assert np.array_equal(got, np.array([float(v) for v in sol]))


def test_reference_solution_overflow_is_typed(monkeypatch, capsys):
    # the exact entries pass double range from n = 538 for this b: a typed
    # refusal, as solve gives, not the bare int/int OverflowError
    assert np.all(np.isfinite(reference_solution(537, np.sin(np.arange(538.0)))))
    for n in (538, 539):
        with pytest.raises(DegreeTooLargeError) as info:
            reference_solution(n, np.sin(np.arange(n + 1.0)))
        assert str(info.value) == f"exact reference solution at degree n={n} left double range (an entry overflows)"
    # the CLI reports it with exit 3
    from bernmass import cli

    monkeypatch.setattr(cli, "run_random", lambda n_max, seed: [reference_solution(539, np.sin(np.arange(540.0)))])
    assert cli.main(["random"]) == 3
    assert "left double range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "b",
    [[1.0, 2.0], [1, 2, 3, 4, 5], np.ones((4, 1)), 1.0, [0.5, np.inf, 0.5, 0.5], [0.5, -np.inf, 0.5, 0.5],
     [np.nan, 0.5, 0.5, 0.5], np.full(4, 1e308), np.ones(4) + 1j, [1.0, 2.0, 3.0, 4j]],
    ids=["short", "long", "column", "scalar", "inf", "-inf", "nan", "norm-overflows", "complex", "complex-list"],
)
def test_reference_solution_refuses_as_solve_does(b):
    # once a short or long b was truncated by zip and answered, inf raised a
    # bare OverflowError and nan numpy's "cannot convert NaN to integer ratio"
    with pytest.raises(ValueError) as want:
        solve("direct", 3, b)
    with pytest.raises(ValueError) as got:
        reference_solution(3, b)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_csv_rendering_and_round_trip():
    recs = [
        ExperimentRecord(0, {"a": 1.0 / 3.0, "b": 269128937220.0}),
        ExperimentRecord(1, {"a": float("nan"), "b": 2.5e-17}),
    ]
    text = render_csv(recs)
    lines = text.split("\n")
    assert lines[0] == "n,a,b"
    assert text.endswith("\n")
    # 17 significant digits reproduce every double exactly
    parsed = lines[1].split(",")
    assert float(parsed[1]) == 1.0 / 3.0
    assert float(parsed[2]) == 269128937220.0
    assert lines[2].split(",")[1] == "nan"
    # writing then re-rendering is byte-identical
    rebuilt = []
    for line in lines[1:3]:
        parts = line.split(",")
        rebuilt.append(
            ExperimentRecord(int(parts[0]), {"a": float(parts[1]), "b": float(parts[2])})
        )
    assert render_csv(rebuilt) == text


def _rendered_cell(x):
    return render_csv([ExperimentRecord(0, {"v": x})]).split("\n")[1].split(",")[1]


# every bit pattern with an all-ones exponent and a nonzero mantissa, either sign
nan_bits = st.builds(lambda sign, mantissa: (sign << 63) | (0x7FF << 52) | mantissa,
                     st.integers(0, 1), st.integers(1, (1 << 52) - 1))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.floats(allow_nan=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(math.inf)
@example(-math.inf)
def test_csv_cell_round_trips_every_non_nan_double_bit_for_bit(x):
    # +-0, subnormals and +-inf included: float() of the %.17g text is x itself
    assert struct.pack("<d", float(_rendered_cell(x))) == struct.pack("<d", x)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(nan_bits)
def test_csv_cell_renders_every_nan_as_nan(bits):
    (x,) = struct.unpack("<d", struct.pack("<Q", bits))
    assert math.isnan(x) and _rendered_cell(x) == "nan"


def test_write_csv_to_path_and_buffer(tmp_path):
    recs = [ExperimentRecord(0, {"v": 0.125})]
    out = tmp_path / "rec.csv"
    write_csv(recs, out)
    assert out.read_text() == "n,v\n0,0.125\n"
    buf = io.StringIO()
    write_csv(recs, buf)
    assert buf.getvalue() == "n,v\n0,0.125\n"


def test_render_csv_rejects_mismatched_records():
    recs = [ExperimentRecord(0, {"a": 1.0}), ExperimentRecord(1, {"b": 1.0})]
    with pytest.raises(ValueError):
        render_csv(recs)
    with pytest.raises(ValueError):
        render_csv([])


def test_function_norm_positive():
    rule = default_rule()
    assert function_norm(f1) > 0.1
    assert function_norm(f2) == pytest.approx(math.sqrt(float(rule.weights @ f2(rule.nodes) ** 2)), rel=1e-14)


def test_function_norm_rescales_where_squares_leave_double_range():
    rule = default_rule()
    fv = f2(rule.nodes)
    # within (m+2) eps of the plain sum where w.f^2 is normal, for the rule's m nodes
    want = math.sqrt(rule.weights @ (fv * fv))
    assert abs(function_norm(f2) - want) <= (fv.size + 2) * np.finfo(float).eps * want
    for scale in (1e-170, 1e170):
        assert function_norm(lambda x: scale * f2(x)) == pytest.approx(scale * function_norm(f2), rel=1e-15)


def test_projection_of_tiny_function_is_finite():
    # w.f^2 underflows to 0 here, so fnorm once read 0 and fp divided by it
    records = run_projection(lambda x: 1e-170 * np.ones_like(x), 3)
    assert all(math.isfinite(v) for rec in records for v in rec.values.values())


def test_projection_is_scale_invariant_far_below_one():
    # 2^-570 f2 squares to below the smallest normal double; every relative cell stays put
    tiny = run_projection(lambda x: 2.0**-570 * f2(x), 8)
    plain = run_projection("f2", 8)
    for a, b in zip(tiny, plain):
        assert list(a.values) == list(b.values)
        for key, want in b.values.items():
            assert abs(a.values[key] - want) <= 1e-12 * abs(want), (a.degree, key)


def _series_coeffs(fv, n_max, rule):
    # c_k = (2k+1) (f, L_k), by the sweep's own recurrence and operation order
    y = 2.0 * rule.nodes - 1.0
    p_prev, p = np.ones_like(y), y
    out = []
    for k in range(n_max + 1):
        lk = p_prev if k == 0 else p
        out.append((2 * k + 1) * float(rule.weights @ (fv * lk)))
        if k:
            p_prev, p = p, ((2 * k + 1) * y * p - k * p_prev) / (k + 1)
    return out


@pytest.mark.parametrize("f", [f1, f2])
def test_legendre_projections_match_exact_elevation(f):
    # the same c_k, with L_k elevated exactly: coefficient i of degree n is
    # sum_k c_k sum_j (-1)^(k+j) C(k,j)^2 C(n-k,i-j) / C(n,i)
    rule = default_rule()
    fv = f(rule.nodes)
    sweep = _legendre_projections(fv, 20, rule)
    c = [Fraction(v) for v in _series_coeffs(fv, 20, rule)]
    for n, got in enumerate(sweep):
        exact = [
            sum(
                c[k]
                * sum(
                    (-1) ** (k + j) * math.comb(k, j) ** 2 * math.comb(n - k, i - j)
                    for j in range(max(0, i - n + k), min(k, i) + 1)
                )
                for k in range(n + 1)
            )
            / math.comb(n, i)
            for i in range(n + 1)
        ]
        want = np.array([float(v) for v in exact])
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want)), n


def test_legendre_reference_is_the_sweep_entry():
    rule = default_rule()
    for f in (f1, f2):
        sweep = _legendre_projections(f(rule.nodes), 20, rule)
        for n in (0, 1, 7, 20):
            assert np.array_equal(legendre_reference(f, n, rule).coeffs, sweep[n])


def test_run_projection_moments_are_bitwise(monkeypatch):
    seen = {}
    real = solvers._Degree.solve

    def spy(degree, method, b):
        seen[degree.n] = np.array(b)
        return real(degree, method, b)

    monkeypatch.setattr(solvers._Degree, "solve", spy)
    for f in (f1, f2):
        seen.clear()
        run_projection(f, 20, methods=["eig"])
        assert sorted(seen) == list(range(21))
        for n, b in seen.items():
            assert np.array_equal(b, moments(f, n)), n


def _fraction_reference(n, b):
    # a rational route: b in Fractions, the integer Bezoutian applied entry by entry
    binom = [math.comb(n, i) for i in range(n + 1)]
    y = [Fraction(float(v)) / c for v, c in zip(b, binom)]
    return np.array(
        [float(sum(h * yj for h, yj in zip(row, y)) / c) for row, c in zip(hankel_inverse_exact(n), binom)]
    )


@pytest.mark.parametrize("n", [40, 60, 100])
def test_reference_solution_matches_fraction_route(n):
    rng = np.random.default_rng(n)
    b = rng.uniform(-1.0, 1.0, n + 1) * 2.0 ** rng.integers(-60, 60, n + 1)
    b[:4] = [0.0, -0.0, -3.0, 2.0**-1074]
    got = reference_solution(n, b)
    want = _fraction_reference(n, b)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_pifp_and_metrics_match_rational_m_norm():
    # past the Cholesky breakdown the quadratic form d.(M d) cancels to 0 or
    # worse; both M-norms go through Q and must match the rational one
    rule = default_rule()
    fnorm = function_norm(f1, rule)
    recs = run_projection("f1", 40, methods=["eig"])
    for n in (20, 30, 35, 38, 40):
        b = moments(f1, n, rule)
        x_hat = solve("eig", n, b, max_degree=40).solution
        ref = legendre_reference(f1, n, rule).coeffs
        exact = mass_exact(n)

        def m_norm(v):
            f = [Fraction(float(t)) for t in v]
            return math.sqrt(sum(fi * sum(a * fj for a, fj in zip(row, f)) for fi, row in zip(f, exact)))

        want = m_norm(x_hat - ref)
        assert abs(recs[n].values["EigPifp"] * fnorm - want) <= 1e-6 * want, n
        _, errm, _ = metrics(x_hat, ref, b, mass_matrix(n).matrix)
        want_rel = want / m_norm(ref)
        assert abs(errm - want_rel) <= 1e-6 * want_rel, n


def test_tables_flag_degree_too_large_cells(monkeypatch):
    # a solve whose result leaves double range raises DegreeTooLargeError;
    # the tables mark that method's cells nan at that degree and go on
    real = solvers._Degree.solve

    def failing(degree, method, b):
        if method == "eig" and degree.n == 3:
            raise DegreeTooLargeError("eig solve left double range")
        return real(degree, method, b)

    monkeypatch.setattr(solvers._Degree, "solve", failing)
    for recs, families in (
        (run_projection("f2", 5), ("fp", "Pifp", "err", "res")),
        (run_random(5, seed=42), ("L2err", "Merr", "res")),
    ):
        for rec in recs:
            eig = [rec.values[f"Eig{fam}"] for fam in families]
            assert all(map(math.isnan, eig)) == (rec.degree == 3)
            assert np.isfinite(rec.values[f"cho{families[0]}"])


def test_run_random_assembles_each_mass_matrix_once(monkeypatch):
    built = []

    def counting(n):
        built.append(n)
        return mass_matrix(n)

    monkeypatch.setattr(solvers, "mass_matrix", counting)
    solvers.clear_cache()
    try:
        run_random(8, seed=3)
    finally:
        solvers.clear_cache()
    assert built == list(range(9))


def test_cho_table_keeps_no_mass_matrix_where_cho_refuses(monkeypatch):
    # cho factors through degree 29: each degree's M is assembled once, for its
    # row alone, and the table keeps none, where it factored or not
    built = []

    def counting(n):
        built.append(n)
        return mass_matrix(n)

    monkeypatch.setattr(solvers, "mass_matrix", counting)
    solvers.clear_cache()
    try:
        recs = run_projection("f1", 40, ["cho"])
        assert not solvers._cache
    finally:
        solvers.clear_cache()
    assert built == list(range(41))
    assert math.isnan(recs[30].values["chofp"]) and not math.isnan(recs[29].values["chofp"])


def _forbid_table_work(monkeypatch) -> list:
    """Make each step of a table's work record its name and fail, so none may run."""
    calls = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} ran")
        return record

    for module, name in ((experiments, "_power_tables"), (experiments, "_legendre_projections"),
                         (experiments, "build_q_sweep"), (solvers, "mass_matrix")):
        monkeypatch.setattr(module, name, forbidden(name))
    return calls


def test_tables_past_the_assembly_limit_refused_before_any_work(monkeypatch):
    calls = _forbid_table_work(monkeypatch)
    for run, what in ((lambda n: run_projection("f1", n), "projection table"),
                      (run_random, "random table")):
        for n in (583, 1030):
            with pytest.raises(DegreeTooLargeError) as info:
                run(n)
            assert type(info.value) is DegreeTooLargeError
            assert str(info.value) == f"{what} degree n={n} is past the supported limit 582"
    assert calls == []


def test_random_table_reads_nan_where_the_exact_reference_leaves_double_range(monkeypatch):
    # seed 42: the exact reference is a double vector at n = 543 and leaves
    # double range at 544; the table goes on with 544's cells nan.  Every
    # method refuses both degrees, so solve is stubbed to give a report there
    # and to refuse below, where the reference is stubbed too; the errors
    # against the reference, past any double M-norm at 543, are recorded
    from types import SimpleNamespace

    real_reference = experiments.reference_solution
    refused = []

    def reference(n, b):
        if n < 543:
            return np.zeros(n + 1)
        try:
            return real_reference(n, b)
        except DegreeTooLargeError:
            refused.append(n)
            raise

    def fake_solve(degree, method, b):
        if degree.n < 543:
            raise ValueError("refused")
        return SimpleNamespace(solution=np.zeros(degree.n + 1), residual=0.0)

    monkeypatch.setattr(experiments, "reference_solution", reference)
    monkeypatch.setattr(solvers._Degree, "solve", fake_solve)
    monkeypatch.setattr(solvers._Degree, "spectral", None)  # the stubbed errors read no Q
    measured = []
    monkeypatch.setattr(experiments, "_errors", lambda spec, x_hat, x_ref: measured.append(x_ref) or (1.0, 2.0))
    records = run_random(544, 42, ["eig"])
    assert refused == [544]
    assert [len(x_ref) for x_ref in measured] == [544] and np.all(np.isfinite(measured[0]))
    assert [rec.degree for rec in records] == list(range(545))
    assert records[543].values == {"EigL2err": 1.0, "EigMerr": 2.0, "Eigres": 0.0}
    assert all(map(math.isnan, records[544].values.values()))


def test_random_table_forms_the_exact_reference_only_where_a_method_returned(monkeypatch):
    # cho refuses from n = 30, so a cho-only table forms no exact reference there;
    # with every method (eig returns through n = 40) each degree forms one, and the
    # cho columns of the two tables are the same bytes
    formed = []
    real = experiments._hankel_inverse_apply
    monkeypatch.setattr(experiments, "_hankel_inverse_apply", lambda n, y: formed.append(n) or real(n, y))
    clear_cache()
    try:
        cho_only = run_random(40, methods=["cho"])
        assert formed == list(range(30))
        del formed[:]
        every = run_random(40)
        assert formed == list(range(41))
    finally:
        clear_cache()
    assert all(math.isnan(v) for rec in cho_only[30:] for v in rec.values.values())
    for alone, rec in zip(cho_only, every):
        cells = np.array([rec.values[k] for k in alone.values])
        assert cells.tobytes() == np.array(list(alone.values.values())).tobytes(), alone.degree


def test_negative_degrees_and_unknown_functions_refused_before_any_work(monkeypatch):
    calls = _forbid_table_work(monkeypatch)
    monkeypatch.setattr(experiments, "default_rule", lambda: calls.append("default_rule"))
    for run in (lambda n: run_projection("f1", n), run_random, condition_table):
        for n in (-1, -7):
            with pytest.raises(ValueError) as info:
                run(n)
            assert type(info.value) is ValueError and str(info.value) == "degree must be nonnegative"
    for name in ("f3", "F1", ""):
        with pytest.raises(ValueError) as info:
            run_projection(name, 3)
        assert type(info.value) is ValueError
        assert str(info.value) == f"unknown function {name!r}; expected one of ['f1', 'f2']"
    for methods in (["bogus"], ["eig", "bogus"]):
        for run in (lambda: run_projection("f1", 20, methods), lambda: run_random(20, methods=methods)):
            with pytest.raises(UnknownMethodError, match="^unknown method 'bogus'"):
                run()
    assert calls == []


def test_run_random_forms_one_residual_per_cell(monkeypatch):
    # M x_hat - b is formed once per cell, by solve; the table takes report.residual
    products = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            products.append(np.ndim(other))
            return self.view(np.ndarray) @ other

        def dot(self, other):
            products.append(np.ndim(other))
            return self.view(np.ndarray).dot(other)

    monkeypatch.setattr(solvers, "mass_matrix", lambda n: type("Assembled", (), {"matrix": mass_matrix(n).matrix.view(Counting)}))
    # the package's own conversions keep the subclass, so every product with
    # the cached M counts, wherever it is formed
    monkeypatch.setattr(np, "asarray", np.asanyarray)
    solvers.clear_cache()
    try:
        recs = run_random(12, seed=5)
    finally:
        solvers.clear_cache()
    # per degree: b = M x_true, then one residual for each of the four methods
    assert products == [1] * (13 * (1 + len(solvers.METHODS)))
    monkeypatch.undo()
    # and every cell is metrics' value, bit for bit
    gen = Xorshift64Star(5)
    for rec in recs:
        n, mm = rec.degree, mass_matrix(rec.degree).matrix
        b = mm @ gen.uniform(-0.5, 0.5, n + 1)
        x_ref = reference_solution(n, b)
        for m, tag in COLUMN_TAGS.items():
            want = metrics(solve(m, n, b, max_degree=12).solution, x_ref, b, mm)
            assert tuple(rec.values[tag + col] for col in ("L2err", "Merr", "res")) == want, (m, n)


def test_random_table_builds_each_band_once():
    # the exact reference and the direct solve of a degree share one Bezoutian band
    builds = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "_hankel_inverse_band":
            builds.append(frame.f_locals["n"])

    clear_cache()
    sys.setprofile(count)
    try:
        run_random(20, 7)
    finally:
        sys.setprofile(None)
    assert builds == list(range(21))


def _tables(n_max, seed):
    return [render_csv(run_projection(f, n_max)) for f in ("f1", "f2")] + [
        render_csv(run_random(n_max, seed))
    ]


@pytest.mark.parametrize("n_max", [20, 40])
def test_tables_unchanged_by_batched_q(monkeypatch, n_max):
    # the tables read every degree's Q from one batched build_q_sweep; with each Q
    # built by build_q instead, one degree at a time, the bytes are the same
    from bernmass.spectral import build_q

    swept = _tables(n_max, 11)
    monkeypatch.setattr(experiments, "build_q_sweep", lambda top: map(build_q, range(top + 1)))
    assert _tables(n_max, 11) == swept


@pytest.mark.parametrize("n_max", [20, 40])
def test_tables_unchanged_by_dft_sweep(n_max):
    # the tables build each degree's dft spectra as its first solve does; with
    # each dft handle cached beforehand by solve, one degree at a time, the bytes
    # are the same, and the tables leave those handles where they were
    clear_cache()
    try:
        swept = _tables(n_max, 11)
        for n in range(n_max + 1):
            solve("dft", n, np.ones(n + 1), max_degree=n_max)
        singles = {n: d.handles["dft"] for n, d in solvers._cache.items()}
        one_by_one = _tables(n_max, 11)
        assert {n: d.handles["dft"] for n, d in solvers._cache.items()} == singles
        assert all(solvers._cache[n].handles["dft"] is h for n, h in singles.items())
    finally:
        clear_cache()
    assert swept == one_by_one


def test_dft_table_builds_each_degree_once(monkeypatch):
    built, handles = [], []
    original = solvers.structured_inverse
    monkeypatch.setattr(solvers, "structured_inverse", lambda n: built.append(n) or original(n))
    real = solvers._Degree.handle
    monkeypatch.setattr(solvers._Degree, "handle", lambda degree, name: handles.append(real(degree, name)) or handles[-1])
    clear_cache()
    try:
        run_projection("f2", 40, ["dft"])
        assert built == list(range(41))
        for n, handle in enumerate(handles):
            assert handle.obj.degree == handle.degree == n
            k = math.comb(2 * n + 2, n + 1)
            assert handle.cap == sys.float_info.max / 2.0 / k / k / (next_pow2(2 * n + 2) * (n + 1) ** 3.5)
        run_projection("f1", 40, ["dft"])  # the table kept nothing: a second one builds each degree again
        assert built == list(range(41)) * 2 and not solvers._cache
    finally:
        clear_cache()


def test_tables_read_their_qs_in_turn_from_one_sweep(monkeypatch):
    sweeps, read = [], []
    original = experiments.build_q_sweep

    def counting(n_max):
        sweeps.append(n_max)
        return (read.append(spec.degree) or spec for spec in original(n_max))

    monkeypatch.setattr(experiments, "build_q_sweep", counting)
    clear_cache()
    try:
        run_projection("f1", 20, ["dft"])
        assert sweeps == [20] and read == list(range(21))
        run_projection("f2", 20, ["eig"])  # the table kept no Q: the next one sweeps again
        assert sweeps == [20, 20] and read == list(range(21)) * 2
        # cho refuses from n = 30, so a cho table reads no Q past 29, nor marches its block
        del read[:]
        run_random(60, 3, ["cho"])
        assert sweeps[-1] == 60 and read == list(range(30))
        assert not solvers._cache
    finally:
        clear_cache()


def test_tables_leave_solves_cache_as_they_found_it():
    # a table keeps its rows' builds to itself: after it, the cache holds the same
    # degree objects, with the same handles, M and Q, and nothing else
    clear_cache()
    try:
        for m in METHODS:
            solve(m, 7, np.ones(8))
        solve("eig", 12, np.ones(13))
        metrics(np.ones(16), np.ones(16), np.ones(16), np.eye(16))  # caches degree 15's Q alone
        before = {n: (d, dict(d.handles), dict(vars(d))) for n, d in solvers._cache.items()}
        assert sorted(before) == [7, 12, 15]
        run_projection("f1", 20)
        run_random(20, 3)
        assert sorted(solvers._cache) == sorted(before)
        for n, (d, handles, state) in before.items():
            assert solvers._cache[n] is d
            assert d.handles.keys() == handles.keys() and all(d.handles[m] is h for m, h in handles.items())
            assert vars(d).keys() == state.keys() and all(vars(d)[k] is v for k, v in state.items())
    finally:
        clear_cache()


# VmHWM is this process's own peak: ru_maxrss would also count the parent's
# memory the child shared until exec
_PEAK_RSS = """
from bernmass.experiments import run_projection, run_random
{call}
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.parametrize("call", ['run_projection("f1", 300)', 'run_random(582, methods=["cho"])'],
                         ids=["projection-f1-300", "random-582-cho"])
def test_table_peak_memory_holds_about_one_degree(call):
    # each table in a fresh process: its rows' builds go with the row, so the peak is
    # the interpreter's and numpy's plus about one degree and one block of the Q sweep
    # (a table that kept every degree's M, Q and handles peaked at 288 and 879 MB)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS.format(call=call)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    peak_mb = int(out.stdout) / 1024  # VmHWM is in kB
    assert peak_mb <= 80, peak_mb


def test_eig_only_tables_make_no_dft_transform(monkeypatch):
    from bernmass import structured

    calls = []
    rfft = structured._rfft

    def counting(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(structured, "_rfft", counting)
    clear_cache()
    try:
        run_projection("f1", 20, ["eig"])
        run_random(20, 7, ["eig"])
        assert not calls
        assert not solvers._cache
        run_projection("f1", 20, ["dft"])
        assert calls
    finally:
        clear_cache()
