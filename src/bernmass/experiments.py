"""Projection and random-system experiment harnesses with CSV output.

Two smooth target functions are projected onto Bernstein spaces of rising
degree by solving M x = b with each of the four methods, and compared with
an independently computed Legendre-series projection.  A projection table
is one sweep over the degrees: f is evaluated once, the Legendre reference
of degree n is that of degree n-1 elevated by one step plus one new series
term, integrated against quadrature's Legendre run, and one basis matrix
per degree gives both the moments b and each method's values at the
quadrature nodes.  The basis is read from power
tables of x and of 1-x taken once per table, the second stored backwards,
so each degree's columns are a forward slice.  Every norm of a cell is
kernels._scaled_norm's 2-norm: the rule's L2 norm as that of sqrt(w) v,
with sqrt(w) taken once per table, and an M-norm as that of
Lambda^(1/2) Q^T v.  A second harness solves
randomly generated systems and reports error/residual metrics per method
against the exact solution of the rounded system, found in integer
arithmetic: the integer inverse's product with an integer scaling of b,
formed by inverse._hankel_inverse_apply, then one division per entry,
only at a degree where some chosen method returned; where that solution
leaves double range, the degree's cells read nan.
Both harnesses run one table loop, which solves, flags a failing method's
cells nan and orders the columns.  Records go to CSV with 17-significant-
digit floats so runs are reproducible byte for byte, one % operation per
record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bernstein import DegreeTooLargeError, _basis_from_powers, _power_tables, _supported, binomial_row
from .inverse import _hankel_inverse_apply
from .kernels import _checked_rhs, _scaled_norm
from .quadrature import QuadratureRule, _legendre_run, composite_gauss_legendre
from .rng import Xorshift64Star
from .solvers import COLUMN_TAGS, METHODS, _errors, _m_norm, _mass, _prefill, canonical_method, solve

__all__ = [
    "f1",
    "f2",
    "FUNCTIONS",
    "COLUMN_TAGS",
    "default_rule",
    "ExperimentRecord",
    "run_projection",
    "run_random",
    "reference_solution",
    "render_csv",
    "write_csv",
]


def f1(x):
    """A shifted, scaled Runge bump: symmetric about 1/2, slow to approximate."""
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + 396.0 * (x - 0.5) ** 2)


def f2(x):
    """A gently sloped rational function; its projections converge fast."""
    x = np.asarray(x, dtype=float)
    return 0.01 + x / (x * x + 1.0)


FUNCTIONS = {"f1": f1, "f2": f2}

@functools.cache
def default_rule() -> QuadratureRule:
    """The fixed moment-integration rule: 32 Gauss points on each of 8 cells, built once."""
    return composite_gauss_legendre(32, 8)


def _legendre_projections(fv, n_max: int, rule: QuadratureRule) -> list:
    """Bernstein coefficients of the Legendre-series projections of degree 0..n_max.

    fv holds f at the rule's nodes.  The series coefficients
    c_k = (2k+1) (f, L_k) are integrated once; degree n is degree n-1
    elevated by one step, (i/n) a_{i-1} + ((n-i)/n) a_i, plus c_n times the
    native coefficients (-1)^(n+i) C(n,i) of L_n, signed from binomial_row(n).
    L_n(x) is P_n(2x - 1), read from quadrature's _legendre_run.  O(n) vector
    steps per degree, and neither the mass matrix nor Q is touched.
    """
    steps = np.arange(n_max + 1.0)
    a = np.zeros(1)
    out = []
    # range first: zip stops before asking the run for L_(n_max+1)
    for n, lk in zip(range(n_max + 1), _legendre_run(2.0 * rule.nodes - 1.0)):
        cn = (2 * n + 1) * float(rule.weights @ (fv * lk))
        if n:
            # the elevation, written into a fresh vector: ((n-i)/n) a_i at i < n
            # and 0 at i = n, then (i/n) a_{i-1} added at i >= 1; r holds i/n.
            # Entry 0 rounds as the sum 0 + (n/n) a_0 would: a_0 is never -0
            r = steps[1 : n + 1] / n
            a, prev = np.zeros(n + 1), a
            np.multiply(r[::-1], prev, out=a[:-1])
            a[1:] += r * prev
        signed = np.array(binomial_row(n), dtype=float)
        signed[(n + 1) % 2 :: 2] *= -1.0
        a += cn * signed
        out.append(a)
    return out


@dataclass
class ExperimentRecord:
    """One degree's worth of metrics; values keep their insertion order."""

    degree: int
    values: dict


def _run_table(families, methods, n_max: int, rows) -> list:
    """The table loop: one record per degree 0..n_max, columns family x method tag.

    rows yields, per degree, (b, measure): each chosen method solves M x = b
    and measure(report) gives its values in family order.  A method whose
    solve fails reads nan in every family and the run continues.  The Qs
    of the M-norms are built up front by solvers._prefill, in one batched
    sweep; each method's own build is its first solve's, one degree at a time.
    """
    requested = {canonical_method(m) for m in methods}
    chosen = [m for m in METHODS if m in requested]
    _prefill(n_max)
    columns = [f"{COLUMN_TAGS[m]}{fam}" for fam in families for m in chosen]
    failed = (math.nan,) * len(families)
    records = []
    for n, (b, measure) in enumerate(rows):
        cells = []
        for m in chosen:
            try:
                report = solve(m, n, b, max_degree=n_max)
            except ValueError:
                cells.append(failed)
            else:
                cells.append(measure(report))
        # family-major: each family's values in method order
        records.append(ExperimentRecord(n, dict(zip(columns, [v for fam in zip(*cells) for v in fam]))))
    return records


def run_projection(func, n_max: int, methods=METHODS) -> list:
    """Project a target function at degrees 0..n_max with the chosen solvers.

    The moments and every L2 norm are integrated by default_rule().  Per
    degree and method the record carries: relative L2 function error
    ("fp"), relative L2 gap to the Legendre reference projection ("Pifp"),
    relative 2-norm coefficient error against that reference ("err"), and
    relative residual ("res").  A solver failure flags its four values as
    nan and the run continues.  Before any work, a negative n_max raises
    ValueError, one past bernstein._MAX_DEGREE (582), the last degree
    assembled, DegreeTooLargeError, and a func named by a string not in
    FUNCTIONS a ValueError naming the known ones.
    """
    _supported(n_max, "projection table")
    if isinstance(func, str) and func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}; expected one of {sorted(FUNCTIONS)}")
    f = FUNCTIONS[func] if isinstance(func, str) else func
    rule = default_rule()
    w = rule.weights
    sw = np.sqrt(w)  # the L2 norm of g under the rule is the 2-norm of sw * g
    fv = np.asarray(f(rule.nodes), dtype=float)
    fnorm = _scaled_norm(sw * fv)
    wf = w * fv  # the moments are wf.dot(basis)
    xp, yr = _power_tables(rule.nodes, n_max)

    def rows():
        for n, ref in enumerate(_legendre_projections(fv, n_max, rule)):
            # one basis matrix per degree, bitwise basis_values(n, nodes): the
            # moments b and each method's values p = basis.dot(x_hat), one gemv each
            basis = _basis_from_powers(n, xp, yr)
            ref_norm = _scaled_norm(ref)

            def measure(report):
                x_hat = report.solution
                d = x_hat - ref
                fp = _scaled_norm(sw * (fv - basis.dot(x_hat))) / fnorm
                return fp, _m_norm(n, d) / fnorm, _scaled_norm(d) / ref_norm, report.residual

            yield wf.dot(basis), measure

    return _run_table(("fp", "Pifp", "err", "res"), methods, n_max, rows())


def reference_solution(n: int, b) -> np.ndarray:
    """Exact solution of M x = b for the rounded b, each entry rounded once.

    M^-1 = D^-1 H^-1 D^-1 with D the binomial diagonal and H^-1 the integer
    Bezoutian inverse.  With 2^e the largest denominator among the entries
    of b and L = lcm C(n,i), y_i = 2^e L b_i / C(n,i) is an integer, so
    x_i = (H^-1 y)_i / (C(n,i) 2^e L) is one integer quotient, which int/int
    division rounds correctly; inverse._hankel_inverse_apply forms H^-1 y.
    An entry past double range raises DegreeTooLargeError, as solve does
    (for b = sin(0..n) from n = 538), and a b that solve refuses raises its
    ValueError.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    bv, _ = _checked_rhs(n, b)
    ratios = [v.as_integer_ratio() for v in bv.tolist()]
    e = max(den.bit_length() for _, den in ratios) - 1
    binom = binomial_row(n)
    lcm = math.lcm(*binom)
    y = [
        (num << (e + 1 - den.bit_length())) * (lcm // c)
        for (num, den), c in zip(ratios, binom)
    ]
    scale = lcm << e
    try:
        return np.array([v / (c * scale) for v, c in zip(_hankel_inverse_apply(n, y), binom)])
    except OverflowError:
        raise DegreeTooLargeError(
            f"exact reference solution at degree n={n} left double range (an entry overflows)"
        ) from None


def run_random(n_max: int, seed: int = 42, methods=METHODS) -> list:
    """Solve one random system per degree 0..n_max with each chosen method.

    A random solution vector is drawn uniformly from [-0.5, 0.5]^{n+1} and
    the right-hand side formed by multiplication (so residuals are measured
    against a consistent, well-scaled b).  Errors are reported against the
    exact solution of the rounded system, in the 2-norm ("L2err") and the
    M-norm ("Merr"), together with the relative residual ("res").  A solver
    failure flags its three values as nan, a degree whose exact solution
    leaves double range (for seed 42 first at n = 544) all its cells, and
    the run continues.  The exact solution is formed once some chosen
    method returned at the degree, so one where all refused never forms
    it; b is drawn at every degree, so the generator's stream is the same.
    A negative n_max raises ValueError, and one past bernstein._MAX_DEGREE
    (582), the last degree assembled, DegreeTooLargeError, before any work.
    """
    _supported(n_max, "random table")
    gen = Xorshift64Star(seed)

    def rows():
        for n in range(n_max + 1):
            mm = _mass(n)  # the matrix solve() caches for its residuals
            x_true = gen.uniform(-0.5, 0.5, n + 1)
            b = mm @ x_true
            yield b, _measure_random(n, b)

    return _run_table(("L2err", "Merr", "res"), methods, n_max, rows())


def _measure_random(n: int, b):
    """The measure of a random-table row: metrics' two errors against the exact
    reference, and the residual solve reported.  The reference is formed at
    the first call, so a degree where every chosen method refused never forms
    it; where it leaves double range, every cell of the degree reads nan."""

    @functools.cache
    def reference():
        try:
            return reference_solution(n, b)
        except DegreeTooLargeError:
            return None

    def measure(report):
        x_ref = reference()
        if x_ref is None:
            return (math.nan,) * 3
        return (*_errors(report.solution, x_ref), report.residual)

    return measure


def render_csv(records) -> str:
    """Records as CSV text: header, one line per degree, newline-terminated.

    Every cell is formatted by "%.17g", one % operation per record: a float
    or numpy scalar prints as float(v) to 17 significant digits, and an int
    as str(v) does through |v| = 2^53, past which it is rounded to a double.
    """
    if not records:
        raise ValueError("no records to render")
    keys = list(records[0].values.keys())
    floats = ",%.17g" * len(keys)
    lines = [",".join(["n"] + keys)]
    for rec in records:
        if list(rec.values.keys()) != keys:
            raise ValueError("records disagree on their columns")
        lines.append(str(rec.degree) + floats % tuple(rec.values.values()))
    return "\n".join(lines) + "\n"


def write_csv(records, destination) -> None:
    """Render records and write them to a path or file-like object."""
    text = render_csv(records)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", newline="") as fh:
            fh.write(text)
