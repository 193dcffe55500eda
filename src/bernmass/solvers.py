"""Unified front end for the four ways of solving M x = b.

Methods: the closed-form inverse applied densely ("direct"), the FFT-based
structured apply ("dft"), the spectral decomposition ("eig"), and a Cholesky
factorization ("cho"), each one record of _TABLE: its CSV tag, aliases,
build, apply, cap, batched prefill and overflow refusal.  One _apply runs
every method's apply, for solve and for the public raw applies solve_dft,
solve_spectral and solve_cholesky alike: bare within the cap below which it
cannot overflow, checked past it, and a tiny b rescaled.  The first solve
of a method at a degree caches one entry: the apply bound to the method's
build, its cap, and M for the residual.  Every later solve there is one
dictionary lookup, the apply and the residual.  The tables fill the eig Qs
and the dft spectra of all their degrees up front, through one prefill loop
over the batched sweeps.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bernstein import _MAX_DEGREE, DegreeTooLargeError, mass_matrix
from .inverse import _hankel_inverse_band, inverse_matrix
from .kernels import _SQRT_TINY, _checked_rhs, _scaled_norm
from .kernels import cholesky as _cholesky
from .kernels import solve1 as _solve1
from .spectral import SpectralDecomp, _eig_apply, _normal_lam_min, build_q, build_q_sweep, eigenvalues
from .structured import StructuredInverse, _dft_apply, structured_inverse, structured_inverse_sweep

__all__ = [
    "METHODS",
    "METHOD_ALIASES",
    "NotPositiveDefiniteError",
    "DegreeRangeError",
    "UnknownMethodError",
    "CholeskyFactor",
    "cholesky_factor",
    "solve_cholesky",
    "solve_dft",
    "solve_spectral",
    "SolveReport",
    "solve",
    "metrics",
    "canonical_method",
    "clear_cache",
]


class NotPositiveDefiniteError(ValueError):
    """The matrix handed to the Cholesky routine was not numerically SPD."""


class DegreeRangeError(ValueError):
    """Requested degree is outside the range the caller allowed."""


class UnknownMethodError(ValueError):
    """Method name is not one of the known solvers or their aliases."""


@dataclass
class CholeskyFactor:
    """Lower-triangular factor L with M = L L^T."""

    degree: int
    lower: np.ndarray


def cholesky_factor(mass) -> CholeskyFactor:
    """Factor a mass matrix, translating LinAlgError into a domain error.

    mass must be one square matrix of at least 1x1: any other shape (a
    vector, a non-square or stacked array, a 0x0 or 0-D one) raises
    ValueError naming it, before LAPACK runs.  The matrix goes through
    numpy.linalg.cholesky's LAPACK kernel bare (kernels.cholesky), for the
    same L bit for bit.  A factor whose diagonal is not finite (from a nan
    or inf entry, which LAPACK does not flag) raises
    NotPositiveDefiniteError too.
    """
    a = np.asarray(mass, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"Cholesky needs one square matrix of at least 1x1, not an array of shape {a.shape}")
    try:
        lower = _cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"Cholesky failed for degree {a.shape[0] - 1}: {exc}"
        ) from exc
    # LAPACK passes a nan or inf through unflagged.  The diagonal's 2-norm is finite exactly when
    # every entry is: L_ii <= sqrt(a_ii) is finite, and where the squares overflow (L_ii past
    # about 1e153) _scaled_norm rescales.  Its vdot costs less than a sum's reduction here
    if not math.isfinite(_scaled_norm(lower.diagonal())):
        raise NotPositiveDefiniteError(
            f"Cholesky failed for degree {a.shape[0] - 1}: the factor's diagonal is not finite"
        )
    return CholeskyFactor(a.shape[0] - 1, lower)


@dataclass
class SolveReport:
    """One solve: the answer plus its relative residual."""

    method: str
    degree: int
    solution: np.ndarray
    residual: float


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


def _apply_overflowed(name: str):
    """A method's refusal at degree n once its apply has overflowed."""
    return lambda n: DegreeTooLargeError(f"{name} solve at degree n={n} left double range (its apply overflowed)")


def _direct_cap(inv: np.ndarray) -> float:
    amax = float(np.max(np.abs(inv)))
    if amax == math.inf:
        # from n = 512: inf*b_j, or inf*0 = nan, reaches x for every b
        raise _TABLE["direct"].overflowed(inv.shape[0] - 1)
    # every partial sum of (inv @ b)_i is at most sqrt(n+1) max|inv| |b|_2, so
    # a b whose 2-norm is within the cap (halved for rounding) cannot overflow
    return sys.float_info.max / amax / (2.0 * math.sqrt(inv.shape[0]))


def _dft_cap(si: StructuredInverse) -> float:
    # A circulant spectrum is at most its column's l1 norm: the squared
    # binomials of H and of T each sum to below k = C(2n+2, n+1) = 2 kappa_2(n),
    # and Ht and Tt weight them by at most n+1.  So, with B = |b/D|_1 <= sqrt(s) |b|_2,
    # rfft(b/D) is at most B, its products with the H spectra s k B, and so is
    # each entry of H y and Ht y; their first s entries sum to s^2 k B, which
    # the T spectra raise to s^3 k^2 B.  An unnormalised irfft sum of plan
    # terms grows that by plan at most, so no intermediate passes
    # plan s^3.5 k^2 |b|_2, kept below half the largest double
    s = si.degree + 1
    k = math.comb(2 * s, s)
    return _HALF_MAX / k / k / (si.plan_size * s**3.5)


# One record per method.  build(n) gives the method's precomputation obj at
# degree n, apply(obj, bv) its x, and cap(obj) the largest |b|_2 at which that
# apply cannot overflow (or raises the method's refusal where every b
# overflows).  prefill is None or (cache kind, sweep(degrees) -> the values
# built, last buildable degree).  overflowed(n) is the DegreeTooLargeError
# raised where the apply overflowed.  Each build and sweep looks up its
# builder as a module global when called, so a patched builder is the one
# that runs; so does the dft apply, its kernel.
_Method = namedtuple("_Method", "tag aliases build apply cap prefill overflowed")

_TABLE = {
    "direct": _Method(
        "direct", ("exact-inverse",), lambda n: inverse_matrix(n), np.ndarray.dot, _direct_cap, None,
        _apply_overflowed("direct"),
    ),
    # 509: the last degree whose circulant spectra are finite doubles
    "dft": _Method(
        "DFT", (), lambda n: _cached("structured", n, structured_inverse), lambda si, bv: _dft_apply(si, bv),
        _dft_cap, ("structured", lambda ks: structured_inverse_sweep(ks), 509),
        lambda n: DegreeTooLargeError(f"structured inverse products overflow double precision at degree n={n}"),
    ),
    # |Q^T b| <= |b|_2 and Q's rows are unit vectors, so no partial sum passes
    # |b|_2 / lambda_min, kept below half the largest double
    "eig": _Method(
        "Eig", ("spectral",), _spectral, _eig_apply, lambda d: _HALF_MAX * float(_normal_lam_min(d).lam[-1]),
        ("spectral", lambda ks: build_q_sweep(ks), _MAX_DEGREE), _apply_overflowed("eig"),
    ),
    # |L^-1 b|_2 <= |b|_2 / sqrt(lambda_min) and |x|_2 <= |b|_2 / lambda_min: eig's
    # cap, with lambda_min in closed form (the tests sweep n <= 29 under it).  The
    # apply is numpy.linalg.solve's kernel, bare, twice: L from a Cholesky that
    # succeeded is nonsingular
    "cho": _Method(
        "cho", ("cholesky",), lambda n: cholesky_factor(_mass(n)),
        lambda f, bv: _solve1(f.lower.T, _solve1(f.lower, bv)),
        lambda f: _HALF_MAX * float(eigenvalues(f.degree)[-1]), None, _apply_overflowed("cho"),
    ),
}

METHODS = tuple(_TABLE)

METHOD_ALIASES = {alias: name for name, m in _TABLE.items() for alias in (name, *m.aliases)}

# CSV column tags per solver, in fixed output order
COLUMN_TAGS = {name: m.tag for name, m in _TABLE.items()}


def canonical_method(name: str) -> str:
    try:
        return METHOD_ALIASES[name]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {name!r}; expected one of {sorted(METHOD_ALIASES)}"
        ) from None


def _prefill(n_max: int, methods) -> None:
    """Cache what a table over degrees 0..n_max builds up front: eig's Qs, which
    its M-norms read, and the prefill of each canonical method in methods.  Each
    kind is one sweep of its uncached degrees up to its last buildable one."""
    for kind, sweep, last in filter(None, dict.fromkeys(_TABLE[m].prefill for m in ("eig", *methods))):
        missing = [k for k in range(min(n_max, last) + 1) if (kind, k) not in _cache]
        for built in sweep(missing):
            _cached(kind, built.degree, lambda _, value=built: value)


def _bound(name: str, obj) -> tuple:
    """(apply, cap): the method's apply bound to obj, as obj.method binds it
    (for direct, the ndarray's own dot), and its cap."""
    m = _TABLE[name]
    return m.apply.__get__(obj), m.cap(obj)


def _entry(name: str, n: int) -> tuple:
    """(apply, cap, M): what the first solve of a method at degree n caches."""
    return (*_bound(name, _TABLE[name].build(n)), _mass(n))


def _apply(name: str, n: int, apply, cap: float, bv: np.ndarray, bnorm: float) -> np.ndarray:
    """x = apply(bv) for a degree-n b of 2-norm bnorm, with the cap below which the apply cannot overflow.

    Bare for bnorm in [2^-511, cap].  Past the cap it runs without numpy
    warnings, and an x left non-finite raises the method's
    DegreeTooLargeError.  A tiny b (0 < bnorm < 2^-511) is applied as 2^k b,
    with 2^k bnorm in [1/2, 1) or, where the cap is below 1, below the cap,
    and x is scaled back by 2^-k, so the apply's intermediates do not go
    subnormal: both scalings are exact, so a b whose unscaled apply stays
    normal gets the same bits.
    """
    if _SQRT_TINY <= bnorm <= cap:
        return apply(bv)
    if bnorm > cap:
        with np.errstate(over="ignore", invalid="ignore"):
            x = apply(bv)
        if not np.all(np.isfinite(x)):
            raise _TABLE[name].overflowed(n)
        return x
    k = min(0, math.frexp(cap)[1] - 1) - math.frexp(bnorm)[1]
    return np.ldexp(apply(np.ldexp(bv, k)), -k) if k > 0 else apply(bv)


def _solve_raw(name: str, obj, b) -> np.ndarray:
    """A public raw apply: b checked as solve checks it, then _apply through obj."""
    bv, bnorm = _checked_rhs(obj.degree, b)
    return _apply(name, obj.degree, *_bound(name, obj), bv, bnorm)


def solve_dft(si: StructuredInverse, b) -> np.ndarray:
    """Apply the inverse mass matrix through si's FFT split, O(n log n).

    solve's dft apply (structured._dft_apply), through the same _apply: b
    is checked and a tiny b rescaled as solve does, and products that leave
    double range (from n = 255 for b = 1, and from n = 257 or 258 for
    b = M x with x uniform in [-1/2, 1/2)) raise DegreeTooLargeError, with
    no numpy warning.
    """
    return _solve_raw("dft", si, b)


def solve_spectral(d: SpectralDecomp, b) -> np.ndarray:
    """Apply the inverse mass matrix: Q diag(1/lam) Q^T b, O(n^2).

    solve's eig apply, through the same _apply: b is checked and a tiny b
    rescaled as solve does, and an apply that overflows (b near the top of
    double range) raises DegreeTooLargeError, as does every b from n = 509,
    where lambda_min is not a normal double, before dividing.
    """
    return _solve_raw("eig", d, b)


def solve_cholesky(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve with L, then with L^T: numpy.linalg.solve's LAPACK kernel twice, bare.

    solve's cho apply, through the same _apply: b is checked and a tiny b
    rescaled as solve does, and an apply that overflows (b near the top of
    double range) raises DegreeTooLargeError.
    """
    return _solve_raw("cho", factor, b)


def solve(method: str, n: int, b, max_degree: int = 25) -> SolveReport:
    """Solve M x = b at degree n with the chosen method.

    Accepts canonical method names and their long aliases; metrics() gives
    the errors against a reference solution.  A complex right-hand side, or
    one with a nan or inf entry, raises ValueError, for every method; so
    does a finite one whose 2-norm overflows (not merely b.b: like the
    residual's, from n near 286 for b of order one, it is rescaled by
    max|b|, as it is where b.b underflows, so a tiny nonzero b is not read
    as 0).  A solution whose
    residual is not finite raises DegreeTooLargeError; so does an
    overflowing direct apply (from n = 510 or so for b of order one), dft
    apply (from n = 255 for b = 1, 257 or 258 for b = M x with x uniform in
    [-1/2, 1/2)), eig or cho apply (b near the top of double range), and
    eig, before dividing, once the smallest eigenvalue is not a normal
    double (from n = 509).  b = 0 gives x = 0 and builds nothing; any other
    b goes through _apply, bare within the method's cap, and a b with
    0 < |b|_2 < 2^-511 applied as 2^k b.  The residual is that of the x
    returned, against b.
    """
    name = canonical_method(method)
    if not 0 <= n <= max_degree:
        raise DegreeRangeError(f"degree {n} outside allowed range [0, {max_degree}]")
    bv, bnorm = _checked_rhs(n, b)
    if bnorm == 0.0:
        # M is nonsingular, so x = 0; nothing is built, no method can form 0/0
        x, residual = np.zeros(n + 1), 0.0
    else:
        apply, cap, mass = _cache.get((name, n)) or _cached(name, n, lambda k: _entry(name, k))
        x = _apply(name, n, apply, cap, bv, bnorm)
        r = mass.dot(x)
        r -= bv
        residual = _scaled_norm(r) / bnorm
        if not math.isfinite(residual):
            raise DegreeTooLargeError(
                f"{name} solve at degree n={n} left double range (relative residual {residual})"
            )
    return SolveReport(name, n, x, residual)


def _m_norm(n: int, v: np.ndarray) -> float:
    """The M-norm ||Lambda^(1/2) Q^T v|| of a degree-n vector, through the cached Q.

    Unlike sqrt(v^T M v), this never cancels: that quadratic form turns
    negative once the float M stops being numerically positive definite
    (n >= 30).  Squares that overflow or leave the normal range are
    retaken by _scaled_norm, rescaled by max|.|.
    """
    spec = _spectral(n)
    coords = np.sqrt(spec.lam) * spec.q.T.dot(v)
    with np.errstate(over="ignore"):
        nrm = math.sqrt(np.add.reduce(coords * coords))
    if not _SQRT_TINY <= nrm < math.inf:
        nrm = _scaled_norm(coords)
    return nrm


def _errors(x_hat: np.ndarray, x_ref: np.ndarray) -> tuple:
    """metrics' relative 2-norm and M-norm errors of x_hat against x_ref.

    Both M-norms come from one two-column product with Q^T, each column's
    squares summed by norm(axis=0) and retaken as _m_norm retakes them.
    Not two _m_norm calls: two gemvs and two pairwise sums give other bits.
    """
    ref2 = _scaled_norm(x_ref)
    if ref2 == 0.0:
        raise ValueError("reference solution has zero norm")
    d = x_hat - x_ref
    spec = _spectral(x_ref.size - 1)
    coords = np.sqrt(spec.lam)[:, None] * (spec.q.T @ np.column_stack((d, x_ref)))
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(coords, axis=0)
    for j, nrm in enumerate(norms.tolist()):
        if not _SQRT_TINY <= nrm < math.inf:
            norms[j] = _scaled_norm(coords[:, j])
    dm, rm = norms
    return _scaled_norm(d) / ref2, float(dm / rm)


def metrics(x_hat, x_ref, b, m) -> tuple:
    """Relative 2-norm error, relative M-norm error, relative residual.

    The 2-norms are _scaled_norm's, rescaled where v.v overflows; both M-norms
    come from _errors, through the degree's cached spectral decomposition;
    m feeds only the residual.  Strided arguments are copied C-contiguous,
    so their layout does not change the sums, as in solve.
    """
    x_hat = np.ascontiguousarray(x_hat, dtype=float)
    err2, errm = _errors(x_hat, np.ascontiguousarray(x_ref, dtype=float))
    bv = np.ascontiguousarray(b, dtype=float)
    bnorm = _scaled_norm(bv)
    mm = np.ascontiguousarray(m, dtype=float)
    res = _scaled_norm(mm @ x_hat - bv) / bnorm if bnorm > 0.0 else 0.0
    return err2, errm, res
