"""Acceptance suite: nine end-to-end checks at fixed tolerances.

Each test prints one summary line (acceptance k (name): PASS/FAIL) so a
full run documents the verdicts in order.
"""

import math
import time
from fractions import Fraction

import numpy as np

from bernmass.bernstein import binomial_diag, mass_matrix
from bernmass.cli import main
from bernmass.conditioning import (
    condition_table,
    kappa_2,
    kappa_m_to_2,
    op_norm_2_to_m,
    op_norm_m_to_2,
    perturbation_study,
)
from bernmass.exact import mass_exact, mat_mul, rational_inverse
from bernmass.experiments import default_rule, f2, moments, run_projection, run_random
from bernmass.inverse import (
    hankel_inverse_entry,
    inverse_entry_dual_exact,
    inverse_entry_exact,
    inverse_matrix,
)
from bernmass.spectral import build_q, build_q_by_elevation, eigenvalues
from bernmass.structured import structured_inverse_exact, toeplitz_dense, toeplitz_matvec
from bernmass.bernstein import BernsteinPoly, basis_values, evaluate
from bernmass.solvers import solve


def _report(num, name, ok):
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}", flush=True)


def test_acceptance_1_exact_structure():
    ok = False
    try:
        start = time.perf_counter()
        for n in range(9):
            inv = rational_inverse(mass_exact(n))
            d = [int(v) for v in binomial_diag(n)]
            t, tw, h, hw = structured_inverse_exact(n)
            a = mat_mul(tw, h)
            b = mat_mul(t, hw)
            for i in range(n + 1):
                for j in range(n + 1):
                    entry = inv[i][j]
                    # both closed forms reproduce the eliminated inverse
                    assert inverse_entry_exact(n, i, j) == entry
                    assert inverse_entry_dual_exact(n, i, j) == entry
                    # the Toeplitz/Hankel split equals it after descaling
                    assert Fraction(a[i][j] - b[i][j], d[i] * d[j]) == entry
                    # the integer Hankel-factor inverse equals the conjugation
                    assert hankel_inverse_entry(n, i, j) == entry * d[i] * d[j]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"exact suite took {elapsed:.1f}s"
        ok = True
    finally:
        _report(1, "exact structure", ok)


def test_acceptance_2_eigen_suite():
    ok = False
    try:
        for n in range(21):
            d = build_q(n)
            mm = mass_matrix(n).matrix
            resid = mm @ d.q - d.q * d.lam
            assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-12, n
            assert np.max(np.abs(d.q.T @ d.q - np.eye(n + 1))) <= 1e-12, n
        for n in range(31):
            diff = np.abs(build_q(n).q - build_q_by_elevation(n).q)
            assert np.max(diff) <= 1e-11, n
        ok = True
    finally:
        _report(2, "eigen suite", ok)


def test_acceptance_3_conditioning_table():
    ok = False
    try:
        table = condition_table(20)
        assert len(table) == 21
        for rec in table:
            n = rec.degree
            exact = math.factorial(2 * n + 1) // (math.factorial(n + 1) * math.factorial(n))
            assert abs(rec.kappa2 - exact) <= 1e-12 * exact
            root = math.sqrt(exact)
            assert abs(rec.kappa_m_to_2 - root) <= 1e-12 * root
        assert math.comb(41, 20) == 269128937220
        assert round(table[20].kappa2) == 269128937220
        ok = True
    finally:
        _report(3, "conditioning table", ok)


def test_acceptance_4_mixed_norm_propositions():
    ok = False
    try:
        for n in (2, 5, 8, 12):
            mm = mass_matrix(n).matrix
            lam = eigenvalues(n)
            fwd = op_norm_m_to_2(mm)
            bwd = op_norm_2_to_m(inverse_matrix(n))
            assert abs(fwd - math.sqrt(lam[0])) <= 1e-8 * math.sqrt(lam[0])
            target = lam[-1] ** -0.5
            assert abs(bwd - target) <= 1e-8 * target
            kappa = kappa_m_to_2(n)
            assert abs(fwd * bwd - kappa) <= 1e-8 * kappa
        ok = True
    finally:
        _report(4, "mixed norm propositions", ok)


def test_acceptance_5_perturbation_bound():
    ok = False
    try:
        st = perturbation_study(10, samples=1000, seed=12345)
        assert st.ratios.shape[0] == 1001
        peak = np.max(st.ratios)
        assert peak >= 0.99 * st.bound
        assert peak <= (1.0 + 1e-8) * st.bound
        ok = True
    finally:
        _report(5, "perturbation bound", ok)


def test_acceptance_6_stability_ordering():
    ok = False
    try:
        records = run_random(20, seed=42)
        for rec in records:
            assert rec.values["Eigres"] <= 1e-13, rec.degree
            assert rec.values["chores"] <= 1e-13, rec.degree
        top = records[20].values
        assert top["DFTMerr"] > top["directMerr"]
        assert top["directMerr"] >= top["EigMerr"]
        assert top["directMerr"] >= top["choMerr"]
        ok = True
    finally:
        _report(6, "stability ordering", ok)


def test_acceptance_7_projection_experiment():
    ok = False
    try:
        smooth = run_projection("f2", 12, methods=["cho"])
        assert smooth[12].values["chofp"] <= 1e-6
        bump = run_projection("f1", 20, methods=["cho"])
        errs = [rec.values["chofp"] for rec in bump]
        # the target is symmetric, so odd-degree steps repeat the previous
        # best approximation; allow roundoff-level noise on those exact ties
        for a, b in zip(errs, errs[1:]):
            assert b <= a * (1.0 + 1e-12), (a, b)
        rule = default_rule()
        fv = f2(rule.nodes)
        for n in range(11):
            b = moments(f2, n, rule)
            x = solve("cho", n, b).solution
            pv = evaluate(BernsteinPoly(x), rule.nodes)
            resid = (rule.weights * (fv - pv)) @ basis_values(n, rule.nodes)
            assert np.max(np.abs(resid)) <= 1e-10, n
        ok = True
    finally:
        _report(7, "projection experiment", ok)


def test_acceptance_8_performance_shape():
    ok = False
    try:
        def best(f, reps):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                f()
                times.append(time.perf_counter() - t0)
            return min(times)

        t256 = best(lambda: build_q(256), 3)
        t512 = best(lambda: build_q(512), 3)
        assert t512 <= 8.0 * t256, (t256, t512)

        size = 4096
        rng = np.random.default_rng(7)
        col = rng.standard_normal(size)
        row = np.concatenate([[col[0]], rng.standard_normal(size - 1)])
        x = rng.standard_normal(size)
        idx = np.arange(size)
        gap = idx[:, None] - idx[None, :]
        dense = np.where(gap >= 0, col[np.abs(gap)], row[np.abs(gap)])
        t_dense = best(lambda: dense @ x, 5)
        t_fft = best(lambda: toeplitz_matvec(col, row, x), 5)
        assert t_fft < t_dense, (t_fft, t_dense)
        ok = True
    finally:
        _report(8, "performance shape", ok)


def test_acceptance_9_determinism(tmp_path):
    ok = False
    try:
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(["random", "--seed", "42", "--out", str(first)]) == 0
        assert main(["random", "--seed", "42", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) > 0
        ok = True
    finally:
        _report(9, "determinism", ok)
