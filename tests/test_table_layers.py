"""The tables' per-degree layers against the expressions they replaced.

Each _old_* function below is the earlier code of one layer, copied:
- the M-norm of one vector, through a one-column matrix product and
  norm(axis=0), and the random table's two M-norms, through one
  two-column product and norm(axis=0);
- the basis, read from a forward (1-x) power table by a negative stride;
- the Legendre reference, elevated by np.append, with a float Pascal row
  from binomial_row;
- the table loop, which formed the column names per cell;
- the CSV, formatted cell by cell as "%.17g" % float(v).
The M-norms now sum their squares through _scaled_norm, in another order,
and are held to the a-priori rounding bound of a sum of nonnegative terms;
with the other four layers put back, the tables keep their bytes.
"""

import math

import numpy as np
import pytest

from bernmass import experiments, solvers
from bernmass.bernstein import _basis_from_powers, _power_tables, binomial_row, mass_matrix
from bernmass.experiments import (
    ExperimentRecord,
    _legendre_projections,
    default_rule,
    reference_solution,
    render_csv,
    run_projection,
    run_random,
)
from bernmass.kernels import _SQRT_TINY, _scaled_norm
from bernmass.quadrature import composite_gauss_legendre
from bernmass.solvers import _errors, _m_norm, clear_cache, solve
from bernmass.spectral import build_q, build_q_sweep


def _old_m_norm(spec, v):
    coords = np.sqrt(spec.lam)[:, None] * (spec.q.T @ np.column_stack([v]))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(coords, axis=0)
    for j, nrm in enumerate(norms.tolist()):
        if not _SQRT_TINY <= nrm < math.inf:
            norms[j] = _scaled_norm(coords[:, j])
    return float(norms[0])


def _old_errors_m_norm(spec, x_hat, x_ref):
    d = x_hat - x_ref
    coords = np.sqrt(spec.lam)[:, None] * (spec.q.T @ np.column_stack((d, x_ref)))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(coords, axis=0)
    for j, nrm in enumerate(norms.tolist()):
        if not _SQRT_TINY <= nrm < math.inf:
            norms[j] = _scaled_norm(coords[:, j])
    dm, rm = norms
    return float(dm / rm)


def _old_power_tables(xv, n):
    k = np.arange(n + 1)
    return xv[:, None] ** k, (1.0 - xv)[:, None] ** k


def _old_basis_from_powers(n, xp, yp):
    c = np.array(binomial_row(n), dtype=float)
    return c * xp[:, : n + 1] * yp[:, n::-1]


def _old_legendre_projections(fv, n_max, rule):
    y = 2.0 * rule.nodes - 1.0
    p_prev, p = np.ones_like(y), y
    a = np.zeros(1)
    out = []
    for n in range(n_max + 1):
        lk = p_prev if n == 0 else p
        cn = (2 * n + 1) * float(rule.weights @ (fv * lk))
        if n:
            i = np.arange(n + 1.0)
            a = np.append(0.0, i[1:] / n * a) + np.append((n - i[:-1]) / n * a, 0.0)
            p_prev, p = p, ((2 * n + 1) * y * p - n * p_prev) / (n + 1)
        pascal = np.array(binomial_row(n), dtype=float)
        pascal[(n + 1) % 2 :: 2] *= -1.0
        a = a + cn * pascal
        out.append(a)
    return out


def _old_run_table(families, chosen, n_max, row):
    qs = build_q_sweep(n_max)
    records = []
    for n in range(n_max + 1):
        degree = solvers._Degree(n, qs)
        b, measure = row(degree)
        cells = {}
        for m in chosen:
            try:
                report = degree.solve(m, b)
            except (ValueError, np.linalg.LinAlgError):
                cells[m] = (math.nan,) * len(families)
            else:
                cells[m] = measure(report)
        values = {f"{solvers.COLUMN_TAGS[m]}{fam}": cells[m][k] for k, fam in enumerate(families) for m in chosen}
        records.append(ExperimentRecord(n, values))
    return records


def _old_render_csv(records):
    keys = list(records[0].values.keys())
    lines = [",".join(["n"] + keys)]
    for rec in records:
        lines.append(",".join([str(rec.degree)] + ["%.17g" % float(rec.values[k]) for k in keys]))
    return "\n".join(lines) + "\n"


_SCALES = (1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e160, 1e200)


@pytest.mark.parametrize("n", [*range(61), 100, 255, 256, 300, 508, 509, 582])
def test_m_norm_of_one_vector_is_bitwise(n):
    # the 2-norm of the coordinates sqrt(lam) Q^T v bit for bit, as numpy.linalg.norm
    # forms it where their squares' sum is normal, and within 2(n+1) eps of the old
    # sum everywhere: the same n+1 squares summed in two orders, each within
    # (n+2) eps / 2 of the exact norm.  Scales from 1e-200 to 1e200: the squares
    # underflow below about 1e-154 and overflow above about 1e154, so both rescaled
    # retakes run; RuntimeWarnings are errors here, so neither warns
    rng = np.random.default_rng(n)
    bound = 2 * (n + 1) * np.finfo(float).eps
    spec = build_q(n)
    for scale in _SCALES:
        for v in (rng.uniform(-1.0, 1.0, n + 1) * scale, np.full(n + 1, scale)):
            got = _m_norm(spec, v)
            assert type(got) is float
            if 1e-100 <= scale <= 1e100:
                assert got == np.linalg.norm(np.sqrt(spec.lam) * spec.q.T.dot(v)), (n, scale)
            want = _old_m_norm(spec, v)
            assert abs(got - want) <= bound * want, (n, scale)


@pytest.mark.parametrize("n", range(61))
def test_errors_m_norm_within_rounding_of_the_old_sums(n):
    # the random table's M-norm error: both norms from one two-column product, each
    # within 2(n+1) eps of the old sum, so their ratio within 4(n+1) eps plus its
    # rounding.  An eig error's M-norm is far below its 2-norm, so two gemvs, which
    # round Q^T d otherwise, move it by far more (EigMerr by 2.8e5 ulps at n <= 40)
    rng = np.random.default_rng(n + 100)
    bound = (4 * (n + 1) + 1) * np.finfo(float).eps
    try:
        b = mass_matrix(n).matrix @ rng.uniform(-0.5, 0.5, n + 1)
        x_ref = reference_solution(n, b)
        x_hat = solve("eig", n, b).solution
        spec = build_q(n)
        for scale in _SCALES:
            got = _errors(spec, x_hat * scale, x_ref * scale)[1]
            want = _old_errors_m_norm(spec, x_hat * scale, x_ref * scale)
            assert type(got) is float
            assert abs(got - want) <= bound * want, (n, scale)
    finally:
        clear_cache()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 40, 300])
def test_basis_from_reversed_table_is_bitwise(n):
    x = composite_gauss_legendre(32, 8).nodes
    for top in (n, 300):
        xp, yr = _power_tables(x, top)
        assert yr.flags.c_contiguous
        got = _basis_from_powers(n, xp, yr)
        want = _old_basis_from_powers(n, *_old_power_tables(x, top))
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes(), top


@pytest.mark.parametrize("f", [experiments.f1, experiments.f2, np.sin], ids=["f1", "f2", "sin"])
@pytest.mark.parametrize("n_max", [0, 1, 20, 300])
def test_legendre_projections_are_bitwise(f, n_max):
    rule = default_rule()
    fv = f(rule.nodes)
    got = _legendre_projections(fv, n_max, rule)
    want = _old_legendre_projections(fv, n_max, rule)
    assert len(got) == len(want) == n_max + 1
    for n, (a, b) in enumerate(zip(got, want)):
        assert a.shape == (n + 1,) and a.tobytes() == b.tobytes(), n


def test_render_csv_is_bitwise_on_every_cell_kind():
    cells = [
        {"a": 1.0 / 3.0, "b": -0.0, "c": 5e-324, "d": 2.0**70},
        {"a": math.nan, "b": -math.inf, "c": math.inf, "d": -math.nan},
        {"a": 3, "b": 10**30, "c": np.int64(-7), "d": True},
        {"a": np.float64(0.1), "b": np.float32(0.1), "c": 1.5, "d": math.nan},
        {"a": 2**53 + 1, "b": 0.25, "c": np.uint64(2**64 - 1), "d": -1e-300},
    ]
    records = [ExperimentRecord(n, values) for n, values in enumerate(cells)]
    assert render_csv(records) == _old_render_csv(records)
    floats = [records[0], records[1]]
    assert render_csv(floats) == _old_render_csv(floats)
    # an int prints as str() does through |v| = 2^53
    ints = [ExperimentRecord(0, {"a": 0, "b": -(2**53), "c": 2**53, "d": np.int64(10**15)})]
    assert render_csv(ints) == "n,a,b,c,d\n0,0,-9007199254740992,9007199254740992,1000000000000000\n"
    assert render_csv([ExperimentRecord(4, {})]) == "n\n4\n"


def _tables(n_max, seed, render):
    return [render(run_projection(f, n_max)) for f in ("f1", "f2")] + [render(run_random(n_max, seed))]


@pytest.mark.parametrize("n_max", [20, 40])
def test_tables_unchanged_by_the_old_layers(monkeypatch, n_max):
    clear_cache()
    try:
        new = _tables(n_max, 11, render_csv)
        clear_cache()
        monkeypatch.setattr(experiments, "_power_tables", _old_power_tables)
        monkeypatch.setattr(experiments, "_basis_from_powers", _old_basis_from_powers)
        monkeypatch.setattr(experiments, "_legendre_projections", _old_legendre_projections)
        monkeypatch.setattr(experiments, "_run_table", _old_run_table)
        old = _tables(n_max, 11, _old_render_csv)
    finally:
        clear_cache()
    assert new == old
