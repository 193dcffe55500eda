"""Unified front end for the four ways of solving M x = b.

Methods: the closed-form inverse applied densely ("direct"), the FFT-based
structured apply ("dft"), the spectral decomposition ("eig"), and a Cholesky
factorization ("cho").  Factorizations and precomputations are cached per
degree so repeated solves at the same degree only pay the assembly cost once.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .bernstein import DegreeTooLargeError, mass_matrix
from .inverse import inverse_matrix
from .spectral import SpectralDecomp, build_q, solve_spectral
from .structured import StructuredInverse, solve_dft, structured_inverse

__all__ = [
    "METHODS",
    "METHOD_ALIASES",
    "NotPositiveDefiniteError",
    "DegreeRangeError",
    "UnknownMethodError",
    "CholeskyFactor",
    "cholesky_factor",
    "solve_cholesky",
    "SolveReport",
    "solve",
    "metrics",
    "canonical_method",
    "clear_cache",
]

METHODS = ("direct", "dft", "eig", "cho")

METHOD_ALIASES = {
    "direct": "direct",
    "exact-inverse": "direct",
    "dft": "dft",
    "eig": "eig",
    "spectral": "eig",
    "cho": "cho",
    "cholesky": "cho",
}


class NotPositiveDefiniteError(ValueError):
    """The matrix handed to the Cholesky routine was not numerically SPD."""


class DegreeRangeError(ValueError):
    """Requested degree is outside the range the caller allowed."""


class UnknownMethodError(ValueError):
    """Method name is not one of the known solvers or their aliases."""


def canonical_method(name: str) -> str:
    try:
        return METHOD_ALIASES[name]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {name!r}; expected one of {sorted(METHOD_ALIASES)}"
        ) from None


@dataclass
class CholeskyFactor:
    """Lower-triangular factor L with M = L L^T."""

    degree: int
    lower: np.ndarray


def cholesky_factor(mass) -> CholeskyFactor:
    """Factor a mass matrix, translating LinAlgError into a domain error."""
    a = np.asarray(mass, dtype=float)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky failed for degree {a.shape[0] - 1}: {exc}"
        ) from exc
    return CholeskyFactor(a.shape[0] - 1, lower)


def solve_cholesky(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve with L, then with L^T, through a cached factor."""
    bv = np.asarray(b, dtype=float)
    y = np.linalg.solve(factor.lower, bv)
    return np.linalg.solve(factor.lower.T, y)


@dataclass
class SolveReport:
    """One solve: the answer plus its residual and (optional) error metrics."""

    method: str
    degree: int
    solution: np.ndarray
    residual: float
    err_2: float | None = None
    err_m: float | None = None


_cache: dict = {}
_cache_lock = threading.Lock()


def _cached(kind: str, n: int, builder):
    key = (kind, n)
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit
    value = builder(n)
    with _cache_lock:
        _cache.setdefault(key, value)
        return _cache[key]


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()


def _mass(n: int) -> np.ndarray:
    return _cached("mass", n, lambda k: mass_matrix(k).matrix)


def _inverse(n: int) -> np.ndarray:
    return _cached("inverse", n, inverse_matrix)


def _structured(n: int) -> StructuredInverse:
    return _cached("structured", n, structured_inverse)


def _spectral(n: int) -> SpectralDecomp:
    return _cached("spectral", n, build_q)


def _cholesky(n: int) -> CholeskyFactor:
    return _cached("cholesky", n, lambda k: cholesky_factor(_mass(k)))


def _norm(v: np.ndarray) -> float:
    # sqrt(v.v) as numpy.linalg.norm forms it, bit for bit, but np.vdot
    # returns inf on overflow without a RuntimeWarning
    return math.sqrt(np.vdot(v, v))


def _residual(n: int, x: np.ndarray, b: np.ndarray, bnorm: float) -> float:
    if bnorm == 0.0:
        return 0.0
    r = _mass(n) @ x - b
    rnorm = _norm(r)
    if not math.isfinite(rnorm):
        # r.r overflows once |r| passes about 1e154: scale by max|r| and retry
        with np.errstate(over="ignore", invalid="ignore"):
            big = float(np.max(np.abs(r)))
            rnorm = big * _norm(r / big)
    return rnorm / bnorm


def solve(method: str, n: int, b, x_ref=None, max_degree: int = 25) -> SolveReport:
    """Solve M x = b at degree n with the chosen method.

    Accepts canonical method names and their long aliases.  If a reference
    solution is supplied the report carries relative 2-norm and M-norm
    errors alongside the residual.  A right-hand side with a nan or inf
    entry raises ValueError, for every method; so does a finite one whose
    2-norm overflows.  A solution whose residual is not finite raises
    DegreeTooLargeError; so does eig, before dividing, once the smallest
    eigenvalue is not a normal double (from n = 509).  A residual whose
    plain 2-norm overflows (|r| past about 1e154, from n near 286 for b
    of order one) is taken again scaled by max|r|.  b = 0 gives x = 0.
    """
    name = canonical_method(method)
    if not 0 <= n <= max_degree:
        raise DegreeRangeError(f"degree {n} outside allowed range [0, {max_degree}]")
    bv = np.asarray(b, dtype=float)
    if bv.shape != (n + 1,):
        raise ValueError(f"right-hand side shape {bv.shape} does not match degree {n}")
    # one norm serves as the finiteness check and the residual's scale
    bnorm = _norm(bv)
    if not math.isfinite(bnorm):
        raise ValueError(f"right-hand side is not finite (2-norm {bnorm})")
    if bnorm == 0.0:
        # M is nonsingular, so x = 0; no method runs, none can form 0/0
        x = np.zeros(n + 1)
    elif name == "direct":
        x = _inverse(n) @ bv
    elif name == "dft":
        x = solve_dft(_structured(n), bv)
    elif name == "eig":
        spec = _spectral(n)
        if spec.lam[-1] < sys.float_info.min:  # the smallest normal double
            raise DegreeTooLargeError(
                f"eig solve at degree n={n} left double range "
                f"(smallest eigenvalue {spec.lam[-1]:.3g} is not a normal double)"
            )
        x = solve_spectral(spec, bv)
    else:
        x = solve_cholesky(_cholesky(n), bv)
    residual = _residual(n, x, bv, bnorm)
    if not math.isfinite(residual):
        raise DegreeTooLargeError(
            f"{name} solve at degree n={n} left double range (relative residual {residual})"
        )
    report = SolveReport(name, n, x, residual)
    if x_ref is not None:
        report.err_2, report.err_m, _ = metrics(x, x_ref, bv, _mass(n))
    return report


def _m_norms(n: int, *vectors) -> np.ndarray:
    """The M-norms ||Lambda^(1/2) Q^T v|| of degree-n vectors, through the cached Q.

    Unlike sqrt(v^T M v), this never cancels: that quadratic form turns
    negative once the float M stops being numerically positive definite
    (n >= 30).
    """
    spec = _spectral(n)
    coords = np.sqrt(spec.lam)[:, None] * (spec.q.T @ np.column_stack(vectors))
    return np.linalg.norm(coords, axis=0)


def metrics(x_hat, x_ref, b, m) -> tuple:
    """Relative 2-norm error, relative M-norm error, relative residual.

    Both M-norms come from _m_norms, through the degree's cached spectral
    decomposition; m feeds only the residual.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    bv = np.asarray(b, dtype=float)
    ref2 = float(np.linalg.norm(x_ref))
    if ref2 == 0.0:
        raise ValueError("reference solution has zero norm")
    d = x_hat - x_ref
    err2 = float(np.linalg.norm(d)) / ref2
    dm, rm = _m_norms(x_ref.size - 1, d, x_ref)
    errm = float(dm / rm)
    bnorm = float(np.linalg.norm(bv))
    mm = np.asarray(m, dtype=float)
    res = float(np.linalg.norm(mm @ x_hat - bv)) / bnorm if bnorm > 0.0 else 0.0
    return err2, errm, res
