"""Experiment harnesses: moments, references, runs, and CSV emission."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from bernmass.bernstein import BernsteinPoly, evaluate
from bernmass.exact import mass_exact, rational_solve
from bernmass.experiments import (
    ExperimentRecord,
    default_rule,
    f1,
    f2,
    function_norm,
    legendre_reference,
    moments,
    reference_solution,
    render_csv,
    run_projection,
    run_random,
    write_csv,
)
from bernmass.quadrature import integrate
from bernmass.solvers import NotPositiveDefiniteError, cholesky_factor, solve
from bernmass.bernstein import mass_matrix


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
    mean = integrate(f2, default_rule())
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
    assert function_norm(f1) > 0.1
    assert function_norm(f2) == pytest.approx(
        math.sqrt(integrate(lambda x: f2(x) ** 2, default_rule())), rel=1e-14
    )
