"""Projection and random-system experiment harnesses with CSV output.

Two smooth target functions are projected onto Bernstein spaces of rising
degree by solving M x = b with each of the four methods, and compared with
an independently computed Legendre-series projection.  A projection table
is one sweep over the degrees: f is evaluated once, the Legendre reference
of degree n is that of degree n-1 elevated by one step plus one new series
term, and one basis matrix per degree gives both the moments b and each
method's values at the quadrature nodes.  A second harness solves randomly
generated systems and reports error/residual metrics per method against
the exact solution of the rounded system, found in integer arithmetic.
Records go to CSV with 17-significant-digit floats so runs are
reproducible byte for byte.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinPoly, _basis_from_powers, _power_tables, basis_values
from .inverse import hankel_inverse_exact
from .quadrature import QuadratureRule, composite_gauss_legendre
from .rng import Xorshift64Star
from .solvers import METHODS, _m_norms, _mass, _norm, _spectral_sweep, canonical_method, metrics, solve

__all__ = [
    "f1",
    "f2",
    "FUNCTIONS",
    "COLUMN_TAGS",
    "default_rule",
    "moments",
    "function_norm",
    "legendre_reference",
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

# CSV column tags per solver, in fixed output order
COLUMN_TAGS = {"direct": "direct", "dft": "DFT", "eig": "Eig", "cho": "cho"}

_RULE = None


def default_rule() -> QuadratureRule:
    """The fixed moment-integration rule: 32 Gauss points on each of 8 cells."""
    global _RULE
    if _RULE is None:
        _RULE = composite_gauss_legendre(32, 8)
    return _RULE


def moments(f, n: int, rule: QuadratureRule | None = None) -> np.ndarray:
    """Right-hand side b_i = integral of f times the i-th degree-n basis function."""
    rule = rule or default_rule()
    fv = np.asarray(f(rule.nodes), dtype=float)
    return (rule.weights * fv) @ basis_values(n, rule.nodes)


def function_norm(f, rule: QuadratureRule | None = None) -> float:
    """L2 norm of f over [0,1] under the moment rule."""
    rule = rule or default_rule()
    fv = np.asarray(f(rule.nodes), dtype=float)
    return float(np.sqrt(rule.weights @ (fv * fv)))


def _legendre_projections(fv, n_max: int, rule: QuadratureRule) -> list:
    """Bernstein coefficients of the Legendre-series projections of degree 0..n_max.

    fv holds f at the rule's nodes.  The series coefficients
    c_k = (2k+1) (f, L_k) are integrated once; degree n is degree n-1
    elevated by one step, (i/n) a_{i-1} + ((n-i)/n) a_i, plus c_n times the
    native coefficients (-1)^(n+i) C(n,i) of L_n.  O(n) vector steps per
    degree, and neither the mass matrix nor Q is touched.
    """
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
        pascal = [(-1.0) ** (n + k) * math.comb(n, k) for k in range(n + 1)]
        a = a + cn * np.array(pascal)
        out.append(a)
    return out


def legendre_reference(f, n: int, rule: QuadratureRule | None = None) -> BernsteinPoly:
    """Degree-n best approximation of f assembled from its Legendre series.

    The orthogonal-series coefficients (2k+1) (f, L_k) only need numerical
    integration, so this route never touches the mass matrix and serves as
    the independent reference for the projection experiments.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    rule = rule or default_rule()
    fv = np.asarray(f(rule.nodes), dtype=float)
    return BernsteinPoly(_legendre_projections(fv, n, rule)[n])


@dataclass
class ExperimentRecord:
    """One degree's worth of metrics; values keep their insertion order."""

    degree: int
    values: dict


def _ordered_methods(methods) -> list:
    requested = {canonical_method(m) for m in methods}
    return [m for m in METHODS if m in requested]


def _weighted_norm(weights, e) -> float:
    """sqrt(sum w e^2), rescaled by max|e| where that sum overflows (|e| past about 1e154)."""
    with np.errstate(over="ignore"):
        total = float(weights @ e**2)
    if total == math.inf:
        big = float(np.max(np.abs(e)))
        if big < math.inf:
            return big * math.sqrt(float(weights @ (e / big) ** 2))
    return math.sqrt(total)


def run_projection(func, n_max: int, methods=METHODS, rule: QuadratureRule | None = None) -> list:
    """Project a target function at degrees 0..n_max with the chosen solvers.

    Per degree and method the record carries: relative L2 function error
    ("fp"), relative L2 gap to the Legendre reference projection ("Pifp"),
    relative 2-norm coefficient error against that reference ("err"), and
    relative residual ("res").  A solver failure flags its four values as
    nan and the run continues.
    """
    f = FUNCTIONS[func] if isinstance(func, str) else func
    rule = rule or default_rule()
    chosen = _ordered_methods(methods)
    fv = np.asarray(f(rule.nodes), dtype=float)
    fnorm = float(np.sqrt(rule.weights @ (fv * fv)))  # function_norm's expression
    _spectral_sweep(n_max)  # every degree's Q for Pifp, in one batched build
    xp, yp = _power_tables(rule.nodes, n_max)
    records = []
    for n, ref in enumerate(_legendre_projections(fv, n_max, rule)):
        # one basis matrix per degree, bitwise basis_values(n, nodes): the moments b
        # exactly as `moments` forms them, and each method's values p = basis @ x_hat
        basis = _basis_from_powers(n, xp, yp)
        b = (rule.weights * fv) @ basis
        ref_norm = _norm(ref)
        per_method: dict = {m: {} for m in chosen}
        for m in chosen:
            try:
                report = solve(m, n, b, max_degree=n_max)
            except (ValueError, np.linalg.LinAlgError):
                per_method[m] = dict.fromkeys(("fp", "Pifp", "err", "res"), float("nan"))
                continue
            x_hat = report.solution
            fp = _weighted_norm(rule.weights, fv - basis @ x_hat) / fnorm
            d = x_hat - ref
            pifp = float(_m_norms(n, d)[0]) / fnorm
            err = _norm(d) / ref_norm
            per_method[m] = {"fp": fp, "Pifp": pifp, "err": err, "res": report.residual}
        values = {}
        for family in ("fp", "Pifp", "err", "res"):
            for m in chosen:
                values[f"{COLUMN_TAGS[m]}{family}"] = per_method[m][family]
        records.append(ExperimentRecord(n, values))
    return records


def reference_solution(n: int, b) -> np.ndarray:
    """Exact solution of M x = b for the rounded b, each entry rounded once.

    M^-1 = D^-1 H^-1 D^-1 with D the binomial diagonal and H^-1 the integer
    Bezoutian inverse.  With 2^e the largest denominator among the entries
    of b and L = lcm C(n,i), y_i = 2^e L b_i / C(n,i) is an integer, so
    x_i = (H^-1 y)_i / (C(n,i) 2^e L) is one integer quotient, which int/int
    division rounds correctly.
    """
    ratios = [v.as_integer_ratio() for v in np.asarray(b, dtype=float).tolist()]
    e = max(den.bit_length() for _, den in ratios) - 1
    binom = [math.comb(n, i) for i in range(n + 1)]
    lcm = math.lcm(*binom)
    y = [
        (num << (e + 1 - den.bit_length())) * (lcm // c)
        for (num, den), c in zip(ratios, binom)
    ]
    scale = lcm << e
    return np.array(
        [
            sum(map(operator.mul, row, y)) / (c * scale)
            for row, c in zip(hankel_inverse_exact(n), binom)
        ]
    )


def run_random(n_max: int, seed: int = 42, methods=METHODS) -> list:
    """Solve one random system per degree 0..n_max with each chosen method.

    A random solution vector is drawn uniformly from [-0.5, 0.5]^{n+1} and
    the right-hand side formed by multiplication (so residuals are measured
    against a consistent, well-scaled b).  Errors are reported against the
    exact solution of the rounded system, in the 2-norm ("L2err") and the
    M-norm ("Merr"), together with the relative residual ("res").  A solver
    failure flags its three values as nan and the run continues.
    """
    chosen = _ordered_methods(methods)
    gen = Xorshift64Star(seed)
    _spectral_sweep(n_max)  # every degree's Q for Merr, in one batched build
    records = []
    for n in range(n_max + 1):
        mm = _mass(n)  # the matrix solve() caches for its residuals
        x_true = gen.uniform(-0.5, 0.5, n + 1)
        b = mm @ x_true
        x_ref = reference_solution(n, b)
        per_method: dict = {}
        for m in chosen:
            try:
                report = solve(m, n, b, max_degree=n_max)
            except (ValueError, np.linalg.LinAlgError):
                per_method[m] = dict.fromkeys(("L2err", "Merr", "res"), float("nan"))
                continue
            err2, errm, res = metrics(report.solution, x_ref, b, mm)
            per_method[m] = {"L2err": err2, "Merr": errm, "res": res}
        values = {}
        for family in ("L2err", "Merr", "res"):
            for m in chosen:
                values[f"{COLUMN_TAGS[m]}{family}"] = per_method[m][family]
        records.append(ExperimentRecord(n, values))
    return records


def _format_value(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def render_csv(records, degree_column: str = "n") -> str:
    """Records as CSV text: header, one line per degree, newline-terminated."""
    if not records:
        raise ValueError("no records to render")
    keys = list(records[0].values.keys())
    lines = [",".join([degree_column] + keys)]
    for rec in records:
        if list(rec.values.keys()) != keys:
            raise ValueError("records disagree on their columns")
        lines.append(",".join([str(rec.degree)] + [_format_value(rec.values[k]) for k in keys]))
    return "\n".join(lines) + "\n"


def write_csv(records, destination, degree_column: str = "n") -> None:
    """Render records and write them to a path or file-like object."""
    text = render_csv(records, degree_column)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", newline="") as fh:
            fh.write(text)
