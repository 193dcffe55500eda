"""The three workloads.  Each runs whole rounds of the same operations.

A round times its operations, then checks what they returned (untimed).
Outputs are compared bit for bit with the last verified output of the same
operation, so a repeated answer is checked once and a changed one again.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

import checks
import inputs
from inputs import METHODS

IN_PROCESS_PASSES = 5


class Round:
    """Times of one round: wall seconds, and seconds scaled to the reference speed (clock.py)."""

    def __init__(self):
        self.wall = 0.0
        self.seconds = 0.0
        self.method_samples = {m: [] for m in METHODS}
        self.attempted = 0
        self.failed = 0

    def add(self, wall: float, factor: float, method=None) -> None:
        """One timed segment; a method's segment is also one sample of its time."""
        self.wall += wall
        self.seconds += wall * factor
        if method is not None:
            self.method_samples[method].append(wall * factor)

    @property
    def factor(self) -> float:
        return self.seconds / self.wall if self.wall > 0 else 1.0


class Workload:
    """Shared bookkeeping: problems are wrong outputs; faults are failed operations."""

    name = ""

    def __init__(self, bm, seed: int, root: str, clock):
        self.bm = bm
        self.root = root
        self.clock = clock
        self.problems = []
        self.faults = []
        self._verified = {}

    def verify(self, key, outputs, check) -> list:
        """Run check(*outputs) unless these exact outputs already passed or failed it."""
        seen = self._verified.get(key)
        if seen is not None and all(np.array_equal(a, b) for a, b in zip(seen[0], outputs)):
            return seen[1]
        found = check(*outputs)
        self._verified[key] = ([np.array(a, copy=True) for a in outputs], found)
        return found

    def note(self, found, bucket) -> None:
        for p in found:
            if p not in bucket:
                bucket.append(p)

    def attempt(self, what: str, fn, *args):
        """Run one operation; one that raises has failed, and returns None."""
        try:
            return fn(*args)
        except Exception as exc:  # whatever the package raises is that operation's failure
            self.note([f"{what}: {type(exc).__name__}: {exc}"], self.faults)
            return None


class PaperTables(Workload):
    """The paper's four CSV tables at CLI defaults, by CLI process and then in-process."""

    name = "paper-tables"

    def __init__(self, bm, seed, root, clock):
        super().__init__(bm, seed, root, clock)
        self.tables = (
            [("project", "f1"), ("project", "f2")]
            + [("random", s) for s in inputs.table_seeds(seed)]
            + [("conditioning", None)]
        )
        self.expected = {}

    @staticmethod
    def cli_args(table) -> list:
        kind, arg = table
        if kind == "project":
            return ["project", "--func", arg]
        if kind == "random":
            return ["random", "--seed", str(arg)]
        return ["conditioning"]

    def in_process(self, table, methods) -> str:
        bm, (kind, arg) = self.bm, table
        bm.clear_cache()
        if kind == "project":
            records = bm.run_projection(arg, inputs.TABLE_DEGREE, methods)
        elif kind == "random":
            records = bm.run_random(inputs.TABLE_DEGREE, arg, methods)
        else:  # built as the CLI builds it
            records = [
                bm.ExperimentRecord(n, {"kappa2": bm.kappa_2(n), "kappam2": bm.kappa_m_to_2(n)})
                for n in range(inputs.TABLE_DEGREE + 1)
            ]
        return bm.render_csv(records)

    def check_table(self, table, text) -> list:
        kind, arg = table
        if kind == "project":
            return checks.check_projection_csv(arg, text, inputs.TABLE_DEGREE)
        if kind == "random":
            return checks.check_random_csv(arg, text, inputs.TABLE_DEGREE)
        return checks.check_conditioning_csv(text, inputs.TABLE_DEGREE)

    def prepare(self) -> None:
        # the full tables in-process, with the CLI's arguments: the bytes every CLI run must print
        for table in self.tables:
            text = self.attempt(f"in-process {table}", self.in_process, table, METHODS)
            if text is not None:
                self.note(self.check_table(table, text), self.problems)
            self.expected[table] = text

    def round(self, tracer, with_cli: bool) -> Round:
        r, clock, perf = Round(), self.clock, time.perf_counter
        outputs = []  # (table, methods, CSV text or the CLI process)
        clock.mark()
        if with_cli:
            for table in self.tables:
                t0 = perf()
                proc = subprocess.run(
                    [sys.executable, "-m", "bernmass.cli"] + self.cli_args(table),
                    cwd=self.root, capture_output=True, timeout=120,
                )
                r.add(perf() - t0, clock.mark())
                outputs.append((table, None, proc))
        # each method's projection tables (`project --methods m`) a few times per round:
        # its time is a median of several samples
        projections = [table for table in self.tables if table[0] == "project"]
        for _ in range(IN_PROCESS_PASSES):
            for m in METHODS:
                t0 = perf()
                texts = [self.attempt(f"in-process {table} [{m}]", self.in_process, table, [m]) for table in projections]
                r.add(perf() - t0, clock.mark(), m)
                outputs += [(table, m, text) for table, text in zip(projections, texts)]
        # the random and conditioning tables once, with every method, as the CLI makes them
        for table in self.tables:
            if table[0] != "project":
                t0 = perf()
                text = self.attempt(f"in-process {table}", self.in_process, table, METHODS)
                r.add(perf() - t0, clock.mark())
                outputs.append((table, "all", text))
        r.attempted = len(outputs)

        for table, method, result in outputs:
            expected = self.expected[table]
            if method is None:
                what = "cli " + " ".join(self.cli_args(table))
                if result.returncode != 0:
                    r.failed += 1
                    self.note([f"{what}: exit {result.returncode}"], self.faults)
                elif expected is None:
                    self.note([f"{what}: printed a table the in-process run failed to make"], self.problems)
                elif result.stdout != expected.encode():
                    self.note([f"{what}: CSV differs from in-process render_csv"], self.problems)
            elif result is None:
                r.failed += 1
            elif method == "all":
                if result != expected:
                    self.note([f"in-process {table}: CSV differs from the first run"], self.problems)
            else:
                if result != checks.select_columns(expected, checks.projection_columns([method])):
                    self.note([f"in-process {table} methods=[{method}]: columns differ from the full table"], self.problems)
        return r


class SolveStream(Workload):
    """Warm solve(method, n, b) for all four methods over degrees 5..25."""

    name = "solve-stream"

    def __init__(self, bm, seed, root, clock):
        super().__init__(bm, seed, root, clock)
        self.inputs = inputs.stream_inputs(seed)
        self.raw = {}

    def prepare(self) -> None:
        bm = self.bm
        for n, (_, bs) in self.inputs.items():
            for m in METHODS:
                self.attempt(f"cold solve {m} n={n}", bm.solve, m, n, bs[0])  # fills the cache
        # the raw applies the traced rounds time beside each solve, built by the public builders
        for n in self.inputs:
            a = self.attempt(f"inverse_matrix({n})", bm.inverse_matrix, n)
            si = self.attempt(f"structured_inverse({n})", bm.structured_inverse, n)
            d = self.attempt(f"build_q({n})", bm.build_q, n)
            f = self.attempt(f"cholesky_factor(n={n})", lambda: bm.cholesky_factor(bm.mass_matrix(n).matrix))
            self.raw[("direct", n)] = ("inverse.apply", a, lambda a, b: a @ b)
            self.raw[("dft", n)] = ("structured.solve_dft", si, bm.solve_dft)
            self.raw[("eig", n)] = ("spectral.solve_spectral", d, bm.solve_spectral)
            self.raw[("cho", n)] = ("solvers.solve_cholesky", f, bm.solve_cholesky)

    def round(self, tracer, with_cli: bool) -> Round:
        bm, r, perf = self.bm, Round(), time.perf_counter
        solutions = {}
        self.clock.mark()
        # one method's solves at a time, each block timed against its own calibration: interleaved
        # with the dft's long FFTs, the cho solves took 45% longer and their run-to-run spread was
        # four times as wide, swinging with the machine's load more than the calibration does
        for m in METHODS:
            wall = 0.0
            for n, (_, bs) in self.inputs.items():
                for k, b in enumerate(bs):
                    t0 = perf()
                    try:  # inline rather than attempt(): a call here would add to every timed solve
                        x = bm.solve(m, n, b).solution
                    except Exception as exc:  # whatever the package raises is that solve's failure
                        x = None
                        self.note([f"solve {m} n={n}: {type(exc).__name__}: {exc}"], self.faults)
                    wall += perf() - t0
                    solutions[(m, n, k)] = x
                    if tracer is not None:
                        name, pre, apply = self.raw[(m, n)]
                        if pre is not None:
                            with tracer.span(name, n):
                                apply(pre, b)
            r.add(wall, self.clock.mark(), m)
        r.attempted = len(solutions)

        r.failed = sum(x is None for x in solutions.values())
        for n, (xs, bs) in self.inputs.items():
            for k in range(len(bs)):
                outs = {m: solutions[(m, n, k)] for m in METHODS if solutions[(m, n, k)] is not None}
                check = lambda *o, n=n, k=k, ms=tuple(outs): self.check(n, xs[k], bs[k], dict(zip(ms, o)))
                self.note(self.verify((n, k), list(outs.values()), check), self.problems)
        return r

    @staticmethod
    def check(n, x_true, b, outs) -> list:
        found = []
        for m, x in outs.items():
            found += checks.check_solve(m, n, x, x_true, b)
        if not found and len(outs) == len(METHODS):
            errors = {m: checks.m_norm_error(n, x, x_true) for m, x in outs.items()}
            found += checks.check_ordering(n, errors, "solve-stream")
        return found


class LargeDegree(Workload):
    """Cold builds of each method's precomputation, with the mass matrix a cold solve needs."""

    name = "large-degree"

    def build(self, m, n, mass):
        bm = self.bm
        if m == "direct":
            return bm.inverse_matrix(n)
        if m == "dft":
            return bm.structured_inverse(n)
        if m == "eig":
            return bm.build_q(n)
        return bm.cholesky_factor(mass)

    def cold_build(self, m, n) -> tuple:
        self.bm.clear_cache()
        mass = self.bm.mass_matrix(n).matrix
        return mass, self.build(m, n, mass)

    def prepare(self) -> None:
        # one small build per method, so first-call costs stay out of the rounds
        for m in METHODS:
            self.attempt(f"{m} build n={inputs.SWEEPS[m][0]}", self.cold_build, m, inputs.SWEEPS[m][0])

    def round(self, tracer, with_cli: bool) -> Round:
        r, perf = Round(), time.perf_counter
        built = {}
        self.clock.mark()
        for m in METHODS:
            t0 = perf()
            for n in inputs.SWEEPS[m]:
                built[(m, n)] = self.attempt(f"{m} build n={n}", self.cold_build, m, n)
                r.attempted += 1
            r.add(perf() - t0, self.clock.mark(), m)

        for (m, n), out in built.items():
            if out is None:
                r.failed += 1
                continue
            mass, p = out
            self.note(self.verify(("mass", n), [mass], lambda a, n=n: checks.check_mass(n, a)), self.problems)
            if m == "direct":
                self.note(self.verify((m, n), [p], lambda a, n=n: checks.check_inverse(n, a)), self.problems)
            elif m == "dft":
                x, b, x_dft = None, None, None
                if n <= inputs.DFT_PROBE_UP_TO:  # one solve through the built spectra (untimed)
                    x, b = inputs.probe_system(n)
                    try:
                        x_dft = self.bm.solve_dft(p, b)
                    except Exception:  # a split the dft solve cannot use is a wrong answer of its build
                        x_dft = np.full(n + 1, np.nan)
                outs = [getattr(p, k, ()) for k in ("t_col", "tt_col", "h", "ht", "binom_diag")] + [x_dft]
                check = lambda *o, n=n, p=p, x=x, b=b, x_dft=x_dft: checks.check_structured(n, p, x, b, x_dft)
                self.note(self.verify((m, n), outs, check), self.problems)
            elif m == "cho":
                self.note(self.verify((m, n), [p.lower], lambda a, n=n: checks.check_cholesky(n, a)), self.problems)
            else:
                self.note(self.verify(("lam", n), [p.lam], lambda a, n=n: checks.check_eigenvalues(n, a)), self.problems)
                # a non-orthogonal Q is the known build_q fault: a failed operation, not a wrong answer
                found = self.verify((m, n), [p.q, p.lam], lambda q, lam, n=n: checks.check_q(n, q, lam))
                if found:
                    r.failed += 1
                    self.note(found, self.faults)
        return r


WORKLOADS = {w.name: w for w in (PaperTables, SolveStream, LargeDegree)}
