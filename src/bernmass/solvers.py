"""Unified front end for the four ways of solving M x = b.

Methods: the closed-form inverse applied densely ("direct"), the FFT-based
structured apply ("dft"), the spectral decomposition ("eig"), and a Cholesky
factorization ("cho").  The first solve of a method at a degree caches one
entry: the method's apply, the largest |b|_2 it cannot overflow at, and M
for the residual.  Every later solve there is one dictionary lookup, the
apply and the residual.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .bernstein import _MAX_DEGREE, DegreeTooLargeError, mass_matrix
from .inverse import _hankel_inverse_band, inverse_matrix
from .spectral import SpectralDecomp, build_q, build_q_sweep, eigenvalues, solve_spectral
from .structured import solve_dft, structured_inverse

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
    """Solve with L, then with L^T, through a cached factor.

    numpy.linalg.solve does not know L is triangular: it runs a pivoted LU
    of L and then of L^T on every call, so each solve is O(n^3).
    """
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


_HALF_MAX = sys.float_info.max / 2.0

_cache: dict = {}
_cache_lock = threading.Lock()


def _cached(kind: str, n: int, builder):
    # a hit takes no lock; a miss builds outside it, and the first value stored wins
    key = (kind, n)
    hit = _cache.get(key)
    if hit is not None:
        return hit
    value = builder(n)
    with _cache_lock:
        return _cache.setdefault(key, value)


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()
    _hankel_inverse_band.cache_clear()


def _mass(n: int) -> np.ndarray:
    return _cached("mass", n, lambda k: mass_matrix(k).matrix)


def _spectral(n: int) -> SpectralDecomp:
    return _cached("spectral", n, build_q)


def _spectral_sweep(n_max: int) -> None:
    """Cache Q for every uncached degree 0..min(n_max, 582) through one build_q_sweep."""
    missing = [k for k in range(min(n_max, _MAX_DEGREE) + 1) if ("spectral", k) not in _cache]
    for spec in build_q_sweep(missing):
        _cached("spectral", spec.degree, lambda _, built=spec: built)


def _spectral_checked(n: int) -> SpectralDecomp:
    """The cached decomposition, refused once lambda_min is not a normal double (n >= 509)."""
    spec = _spectral(n)
    if spec.lam[-1] < sys.float_info.min:
        raise DegreeTooLargeError(
            f"degree n={n} left double range "
            f"(smallest eigenvalue {spec.lam[-1]:.3g} is not a normal double)"
        )
    return spec


def _overflowed(name: str, n: int) -> DegreeTooLargeError:
    return DegreeTooLargeError(f"{name} solve at degree n={n} left double range (its apply overflowed)")


def _solver(name: str, n: int) -> tuple:
    """(apply, cap, M): x = apply(b) cannot overflow while |b|_2 <= cap, and M
    gives the residual.  Each apply finds its function when called, patched or not."""
    if name == "direct":
        inv = inverse_matrix(n)
        amax = float(np.max(np.abs(inv)))
        if amax == math.inf:
            # from n = 512: inf*b_j, or inf*0 = nan, reaches x for every b
            raise _overflowed(name, n)
        # every partial sum of (inv @ b)_i is at most sqrt(n+1) max|inv| |b|_2, so
        # a b whose 2-norm is within the cap (halved for rounding) cannot overflow
        apply, cap = (lambda bv: inv @ bv), sys.float_info.max / amax / (2.0 * math.sqrt(n + 1))
    elif name == "dft":
        si = structured_inverse(n)
        apply, cap = (lambda bv: solve_dft(si, bv)), math.inf  # refuses its own overflow
    elif name == "eig":
        spec = _spectral_checked(n)
        # |Q^T b| <= |b|_2 and Q's rows are unit vectors, so no partial sum
        # passes |b|_2 / lambda_min, kept below half the largest double
        apply, cap = (lambda bv: solve_spectral(spec, bv)), _HALF_MAX * float(spec.lam[-1])
    else:
        factor = cholesky_factor(_mass(n))
        # |L^-1 b|_2 <= |b|_2 / sqrt(lambda_min) and |x|_2 <= |b|_2 / lambda_min:
        # eig's cap, with lambda_min in closed form (the tests sweep n <= 29 under it)
        apply, cap = (lambda bv: solve_cholesky(factor, bv)), _HALF_MAX * float(eigenvalues(n)[-1])
    return apply, cap, _mass(n)


# 2^-511: a norm below it exactly when v.v is below the smallest normal double
_SQRT_TINY = math.sqrt(sys.float_info.min)


def _norm(v: np.ndarray) -> float:
    # sqrt(v.v) as numpy.linalg.norm forms it, bit for bit, but np.vdot
    # returns inf on overflow without a RuntimeWarning.  v.v overflows once
    # |v| passes about 1e154 and leaves the normal range below about 1e-154
    # (reading 0 from about 1e-162), so then v is scaled by max|v| and retaken
    nrm = math.sqrt(np.vdot(v, v))
    if not _SQRT_TINY <= nrm < math.inf and v.size:
        big = float(np.max(np.abs(v)))
        if 0.0 < big < math.inf:
            nrm = big * math.sqrt(np.vdot(v / big, v / big))
    return nrm


def _apply_unwarned(name: str, n: int, apply, bv: np.ndarray) -> np.ndarray:
    """x = apply(bv) for a b past the cap below which the apply cannot overflow:
    an x left non-finite raises DegreeTooLargeError, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = apply(bv)
    if not np.all(np.isfinite(x)):
        raise _overflowed(name, n)
    return x


def solve(method: str, n: int, b, x_ref=None, max_degree: int = 25) -> SolveReport:
    """Solve M x = b at degree n with the chosen method.

    Accepts canonical method names and their long aliases.  If a reference
    solution is supplied the report carries relative 2-norm and M-norm
    errors alongside the residual.  A right-hand side with a nan or inf
    entry raises ValueError, for every method; so does a finite one whose
    2-norm overflows (not merely b.b: like the residual's, from n near 286
    for b of order one, it is rescaled by max|b|, as it is where b.b
    underflows, so a tiny nonzero b is not read as 0).  A solution whose
    residual is not finite raises DegreeTooLargeError; so does an
    overflowing direct apply (from n = 510 or so for b of order one), eig
    or cho apply (b near the top of double range), and eig, before
    dividing, once the smallest eigenvalue is not a normal double (from
    n = 509).  b = 0 gives x = 0.
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
        # M is nonsingular, so x = 0; nothing is built, no method can form 0/0
        x, residual = np.zeros(n + 1), 0.0
    else:
        apply, cap, mass = _cache.get((name, n)) or _cached(name, n, lambda k: _solver(name, k))
        x = apply(bv) if bnorm <= cap else _apply_unwarned(name, n, apply, bv)
        r = mass @ x
        r -= bv
        residual = _norm(r) / bnorm
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
    (n >= 30).  A column whose squares overflow or leave the normal range
    is retaken by _norm, rescaled by its max|.|.
    """
    spec = _spectral(n)
    coords = np.sqrt(spec.lam)[:, None] * (spec.q.T @ np.column_stack(vectors))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(coords, axis=0)
    for j, nrm in enumerate(norms.tolist()):
        if not _SQRT_TINY <= nrm < math.inf:
            norms[j] = _norm(coords[:, j])
    return norms


def metrics(x_hat, x_ref, b, m) -> tuple:
    """Relative 2-norm error, relative M-norm error, relative residual.

    The 2-norms are _norm's, rescaled where v.v overflows; both M-norms
    come from _m_norms, through the degree's cached spectral decomposition;
    m feeds only the residual.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    bv = np.asarray(b, dtype=float)
    ref2 = _norm(x_ref)
    if ref2 == 0.0:
        raise ValueError("reference solution has zero norm")
    d = x_hat - x_ref
    err2 = _norm(d) / ref2
    dm, rm = _m_norms(x_ref.size - 1, d, x_ref)
    errm = float(dm / rm)
    bnorm = _norm(bv)
    mm = np.asarray(m, dtype=float)
    res = _norm(mm @ x_hat - bv) / bnorm if bnorm > 0.0 else 0.0
    return err2, errm, res
