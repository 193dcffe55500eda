#!/usr/bin/env python3
"""Self-test of the checks: each accepts a real bernmass answer and rejects a corrupted one.

    python3 bench/selftest.py

Prints one line per case and exits 1 if a check lets a corruption through
or refuses a correct answer, or if a package call that raises is not
counted as a failed operation.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bernmass as bm  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402


def swap_columns(text, a, b, header_too=True):
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    i, j = header.index(a), header.index(b)
    out = []
    for k, line in enumerate(lines):
        f = line.split(",")
        if k > 0 or header_too:
            f[i], f[j] = f[j], f[i]
        out.append(",".join(f))
    return "\n".join(out) + "\n"


def scale_cell(text, column, n, factor):
    lines = text[:-1].split("\n")
    col = lines[0].split(",").index(column)
    f = lines[n + 1].split(",")
    f[col] = "%.17g" % (float(f[col]) * factor)
    lines[n + 1] = ",".join(f)
    return "\n".join(lines) + "\n"


def cases():
    n_tab = inputs.TABLE_DEGREE
    project = bm.render_csv(bm.run_projection("f1", n_tab))
    yield "project CSV", lambda t: checks.check_projection_csv("f1", t, n_tab), project, {
        "swapped columns Eigfp and chofp": swap_columns(project, "Eigfp", "chofp"),
        "swapped data of DFTres and Eigres": swap_columns(project, "DFTres", "Eigres", header_too=False),
        "Eigfp off the Legendre projection by 1e-6": scale_cell(project, "Eigfp", 10, 1 + 1e-6),
        "missing last row": project[: project.rindex("\n", 0, -1) + 1],
        "DFTerr a thousand times larger": scale_cell(project, "DFTerr", 10, 1e3),
    }
    seed = inputs.table_seeds(1)[0]
    random_csv = bm.render_csv(bm.run_random(n_tab, seed))
    yield "random CSV", lambda t: checks.check_random_csv(seed, t, n_tab), random_csv, {
        "swapped columns EigMerr and DFTMerr": swap_columns(random_csv, "EigMerr", "DFTMerr"),
        "chores a million times larger": scale_cell(random_csv, "chores", 15, 1e6),
        "DFTL2err a thousand times larger": scale_cell(random_csv, "DFTL2err", 10, 1e3),
    }
    cond = bm.render_csv(
        [bm.ExperimentRecord(n, {"kappa2": bm.kappa_2(n), "kappam2": bm.kappa_m_to_2(n)}) for n in range(n_tab + 1)]
    )
    yield "conditioning CSV", lambda t: checks.check_conditioning_csv(t, n_tab), cond, {
        "kappa2 off by 1e-12": scale_cell(cond, "kappa2", 20, 1 + 1e-12),
        "swapped columns": swap_columns(cond, "kappa2", "kappam2"),
    }

    n = 20
    mass = bm.mass_matrix(n).matrix
    bumped = mass.copy()
    bumped[3, 7] *= 1 + 1e-13
    yield "mass matrix", lambda a: checks.check_mass(n, a), mass, {"one entry off by 1e-13": bumped}

    inv = bm.inverse_matrix(16)
    flipped = inv.copy()
    flipped[2, 5] = -flipped[2, 5]
    flipped[5, 2] = -flipped[5, 2]
    last = inv.copy()
    last[4, 16] *= 1 + 1e-12
    yield "inverse", lambda a: checks.check_inverse(16, a), inv, {
        "sign flipped in entry (2,5) and (5,2)": flipped,
        "last column off by 1e-12": last,
    }

    n = 128
    si = bm.structured_inverse(n)
    x, b = inputs.probe_system(n)
    x_dft = bm.solve_dft(si, b)

    class Split:
        def __init__(self, **changed):
            for k in ("t_col", "tt_col", "h", "ht", "binom_diag"):
                setattr(self, k, changed.get(k, getattr(si, k)))

    def flipped_entry(v, i):
        v = v.copy()
        v[i] = -v[i]
        return v

    yield "dft split and a solve through its spectra", lambda o: checks.check_structured(n, o[0], x, b, o[1]), (si, x_dft), {
        "sign flipped in the Toeplitz band": (Split(t_col=flipped_entry(si.t_col, 3)), x_dft),
        "sign flipped in the weighted Toeplitz band": (Split(tt_col=flipped_entry(si.tt_col, 40)), x_dft),
        "sign flipped in the weighted Hankel factor": (Split(ht=flipped_entry(si.ht, 100)), x_dft),
        "binomial diagonal off by 1e-9": (Split(binom_diag=si.binom_diag * (1 + 1e-9 * (np.arange(n + 1) == 7))), x_dft),
        "solve_dft with 100 times its error": (si, x + 100 * (x_dft - x)),
    }

    d = bm.build_q(16)
    skew = d.q.copy()
    skew[:, 3] += 1e-9 * skew[:, 4]
    lam = d.lam.copy()
    lam[5] *= 1 + 1e-10
    yield "Q", lambda q: checks.check_q(16, q, d.lam), d.q, {"column 3 mixed with column 4 by 1e-9": skew}
    yield "eigenvalues", lambda v: checks.check_eigenvalues(16, v), d.lam, {"lambda_5 off by 1e-10": lam}

    low = bm.cholesky_factor(bm.mass_matrix(24).matrix).lower
    low_bad = low.copy()
    low_bad[10, 4] *= 1 + 1e-9
    yield "Cholesky factor", lambda a: checks.check_cholesky(24, a), low, {"entry (10,4) off by 1e-9": low_bad}

    n = 10
    x_true, b = (v[0] for v in inputs.stream_inputs(1)[n])
    x = bm.solve("dft", n, b).solution
    yield "dft solve", lambda s: checks.check_solve("dft", n, s, x_true, b), x, {
        "solution perturbed by 1e-3": x * (1 + 1e-3 * np.linspace(-1, 1, n + 1)),
        "zeroed solution": np.zeros(n + 1),
        "a nan in the solution": np.where(np.arange(n + 1) == 3, np.nan, x),
    }

    n = 20
    x_true, b = (v[0] for v in inputs.stream_inputs(1)[n])
    for method in ("direct", "eig", "cho"):
        x = bm.solve(method, n, b).solution
        bad = x * (1 + 1e-3 * np.linspace(-1, 1, n + 1))
        yield f"{method} solve", lambda s, m=method: checks.check_solve(m, n, s, x_true, b), x, {
            "solution perturbed by 1e-3": bad,
            "a nan in the solution": np.where(np.arange(n + 1) == 3, np.nan, x),
        }
    errs = {m: checks.m_norm_error(n, bm.solve(m, n, b).solution, x_true) for m in inputs.METHODS}
    swapped = dict(errs, dft=errs["direct"], direct=errs["dft"])
    yield "error ordering", lambda e: checks.check_ordering(n, e, "selftest"), errs, {"dft and direct swapped": swapped}


def failures_are_counted() -> bool:
    """A build that raises is a failed operation of its round, not a crash of the benchmark."""
    from clock import Clock
    from workloads import LargeDegree

    original = bm.structured_inverse

    def refuse_large(n):
        if n > 200:
            raise ValueError("refused for the self-test")
        return original(n)

    workload = LargeDegree(bm, 1, str(ROOT), Clock())
    baseline = workload.round(None, with_cli=False).failed
    bm.structured_inverse = refuse_large
    try:
        r = workload.round(None, with_cli=False)
    finally:
        bm.structured_inverse = original
    expected = baseline + sum(n > 200 for n in inputs.SWEEPS["dft"])
    print(f"failed operations: {r.failed} of {r.attempted} counted, {expected} expected")
    return r.failed == expected and not workload.problems


def main() -> int:
    ok = failures_are_counted()
    for name, check, good, corrupted in cases():
        found = check(good)
        status = "accepts the real answer" if not found else f"REFUSES the real answer: {found[0]}"
        ok = ok and not found
        print(f"{name}: {status}")
        for what, bad in corrupted.items():
            found = check(bad)
            ok = ok and bool(found)
            print(f"  {'rejects' if found else 'MISSES'} {what}" + (f": {found[0]}" if found else ""))
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
