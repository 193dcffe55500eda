"""Unified front end for the four ways of solving M x = b.

Methods: the closed-form inverse applied densely ("direct"), the FFT-based
structured apply ("dft"), the spectral decomposition ("eig"), and a Cholesky
factorization ("cho"), each one small class under _Handle with its CSV tag,
aliases, last degree and refusals, build and apply.  A handle is one
method at one degree.  Its cap, the 2-norm of b below which the apply
cannot overflow, is one bound from M's smallest eigenvalue for direct, eig
and cho; only dft, whose intermediates grow like kappa_2^2, has its own.
Past its method's last degree a handle is refused before anything is
built.  One _apply runs every handle's apply, for solve and for
the public raw applies solve_dft, solve_spectral and solve_cholesky alike:
bare within the cap below which it cannot overflow, checked past it, and a
tiny b rescaled.  One _Degree holds a degree's builds: M and Q, each made
at its first read, and each method's handle, built from them (eig takes
the Q, cho factors the M; the residual reads the M).  solve's cache keeps
one _Degree per degree, stored only once a handle is built on it, so a
solve refused at a fresh degree caches nothing (a cho solve that LAPACK
refuses keeps no M); every later solve there is two dictionary lookups,
the apply and the residual.  A raw apply wraps the caller's object in its
method's handle.  A table makes its own _Degree for each row, with the Q
from the table's build_q_sweep, and drops it after the row, so it leaves
the cache as it found it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import inverse, structured
from .bernstein import DegreeTooLargeError, mass_matrix
from .inverse import _hankel_inverse_band, inverse_matrix
from .kernels import _SQRT_TINY, _checked_rhs, _scaled_norm
from .kernels import cholesky as _cholesky
from .kernels import solve1 as _solve1
from .spectral import SpectralDecomp, build_q, eigenvalues
from .structured import StructuredInverse, _dft_apply, structured_inverse

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

    mass must be one real square matrix of at least 1x1: a complex one
    raises ValueError naming its dtype, and any other shape (a vector, a
    non-square or stacked array, a 0x0 or 0-D one) ValueError naming it,
    both before LAPACK runs.  The matrix goes through
    numpy.linalg.cholesky's LAPACK kernel bare (kernels.cholesky), for the
    same L bit for bit.  A factor whose diagonal is not finite (from a nan
    or inf entry, which LAPACK does not flag) raises
    NotPositiveDefiniteError too.
    """
    a = np.asarray(mass)
    if a.dtype.kind == "c":
        raise ValueError(f"Cholesky needs a real matrix, not one of dtype {a.dtype}; M is real")
    a = a.astype(float, copy=False)
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

# solve's _Degree per degree; a miss builds outside any lock, and the first value stored wins
_cache: dict = {}


def clear_cache() -> None:
    _cache.clear()
    _hankel_inverse_band.cache_clear()


class _Degree:
    """One degree's builds: M and Q, each made at its first read, and each method's handle.

    solve's cache keeps one per degree.  A table makes one per row and
    drops it after the row; its Qs come from the table's build_q_sweep, an
    iterator the rows read in turn, so a row takes the next Q at its degree.
    Every builder is looked up as a module global when called, so a patched
    builder is the one that runs.
    """

    def __init__(self, n: int, qs=None):
        self.n, self.handles, self._qs = n, {}, qs

    @functools.cached_property
    def mass(self) -> np.ndarray:
        return mass_matrix(self.n).matrix

    @functools.cached_property
    def spectral(self) -> SpectralDecomp:
        if self._qs is None:
            return build_q(self.n)
        return next(spec for spec in self._qs if spec.degree == self.n)

    def handle(self, name: str) -> "_Handle":
        """name's handle at this degree, built and kept; refused past its last degree before anything is built."""
        return self.handles.setdefault(name, _HANDLES[name](self.n, self))

    def solve(self, name: str, b) -> SolveReport:
        """solve's work at this degree for a canonical method name: see solve."""
        n = self.n
        bv, bnorm = _checked_rhs(n, b)
        if bnorm == 0.0:
            # M is nonsingular, so x = 0; nothing is built, no method can form 0/0
            return SolveReport(name, n, np.zeros(n + 1), 0.0)
        h = self.handles.get(name) or self.handle(name)
        # _apply's bare case inline, so a warm solve makes no more calls than the apply's
        x = h.apply(bv) if _SQRT_TINY <= bnorm <= h.cap else _apply(h, bv, bnorm)
        r = self.mass.dot(x)
        r -= bv
        residual = _scaled_norm(r) / bnorm
        if not math.isfinite(residual):
            raise DegreeTooLargeError(
                f"{name} solve at degree n={n} left double range (relative residual {residual})"
            )
        return SolveReport(name, n, x, residual)


class _Handle:
    """One solve method at one degree: the base of the four method classes.

    Class data: the method's name, its CSV tag and aliases, last_degree (the
    last degree it builds; None where no structural limit holds and LAPACK
    decides), too_large(n), its refusal past that degree (direct and dft
    take both from their builders' modules, which refuse the same degrees
    themselves), overflow, the text of its refusal once the apply has
    overflowed.  _Handle(n, obj) is refused past last_degree before
    anything is built.  Given degree n's _Degree, it holds obj, the method's
    build(obj) from that degree's builds: what a solve keeps there.  Given
    any other obj, a raw apply's, it wraps it.  Either holds the cap below
    which apply(bv) cannot overflow, computed once here: one from lambda_min
    for direct, eig and cho, and dft's own.  Each build looks up its builder
    as a module global when called, so a patched builder is the one that
    runs; so does the dft apply, its kernel.
    """

    aliases, last_degree = (), None
    overflow = "{name} solve at degree n={n} left double range (its apply overflowed)"

    def __init__(self, n: int, obj):
        if self.last_degree is not None and n > self.last_degree:
            raise self.too_large(n)
        self.degree, self.obj = n, self.build(obj) if isinstance(obj, _Degree) else obj
        self.cap = self._cap()

    def _cap(self) -> float:
        # |Q^T b| <= |b|_2 and Q's rows are unit vectors, so no partial sum of the eig
        # apply passes |b|_2 / lambda_min; nor does one of the direct apply, as
        # |sum_{j in S} inv_ij b_j| <= |row_i|_2 |b|_2 <= |b|_2 / lambda_min; and for cho
        # |L^-1 b|_2 <= |b|_2 / sqrt(lambda_min) and |x|_2 <= |b|_2 / lambda_min; kept below
        # half the largest double, with lambda_min = 1/((2n+1) C(2n, n)) in closed form,
        # one correctly rounded division
        return _HALF_MAX * (1 / ((2 * self.degree + 1) * math.comb(2 * self.degree, self.degree)))


class _Direct(_Handle):
    name, tag, aliases, last_degree = "direct", "direct", ("exact-inverse",), inverse._LAST_DEGREE
    too_large = staticmethod(inverse._too_large)

    def build(self, d: _Degree) -> np.ndarray:
        return inverse_matrix(d.n)

    def apply(self, bv: np.ndarray) -> np.ndarray:
        return self.obj.dot(bv)


class _Dft(_Handle):
    name, tag, last_degree = "dft", "DFT", structured._LAST_DEGREE
    overflow = "structured inverse products overflow double precision at degree n={n}"
    too_large = staticmethod(structured._too_large)

    def build(self, d: _Degree) -> StructuredInverse:
        return structured_inverse(d.n)

    def apply(self, bv: np.ndarray) -> np.ndarray:
        return _dft_apply(self.obj, bv)

    def _cap(self) -> float:
        # A circulant spectrum is at most its column's l1 norm: the squared
        # binomials of H and of T each sum to below k = C(2n+2, n+1) = 2 kappa_2(n),
        # and Ht and Tt weight them by at most n+1.  So, with B = |b/D|_1 <= sqrt(s) |b|_2,
        # rfft(b/D) is at most B, its products with the H spectra s k B, and so is
        # each entry of H y and Ht y; their first s entries sum to s^2 k B, which
        # the T spectra raise to s^3 k^2 B.  An unnormalised irfft sum of plan
        # terms grows that by plan at most, so no intermediate passes
        # plan s^3.5 k^2 |b|_2, kept below half the largest double
        s = self.degree + 1
        k = math.comb(2 * s, s)
        return _HALF_MAX / k / k / (self.obj.plan_size * s**3.5)


class _Eig(_Handle):
    # from n = 509 lambda_min is not a normal double (from 545 it is 0): refused before
    # anything divides by it
    name, tag, aliases, last_degree = "eig", "Eig", ("spectral",), 508

    def build(self, d: _Degree) -> SpectralDecomp:
        return d.spectral

    @classmethod
    def too_large(cls, n: int) -> DegreeTooLargeError:
        return DegreeTooLargeError(
            f"degree n={n} left double range "
            f"(smallest eigenvalue {eigenvalues(n)[-1]:.3g} is not a normal double)"
        )

    def apply(self, bv: np.ndarray) -> np.ndarray:
        # Q diag(1/lam) Q^T b, O(n^2); ndarray.dot skips matmul's dispatch for the same bits
        return self.obj.q.dot(self.obj.q.T.dot(bv) / self.obj.lam)


class _Cho(_Handle):
    name, tag, aliases = "cho", "cho", ("cholesky",)

    def build(self, d: _Degree) -> CholeskyFactor:
        return cholesky_factor(d.mass)

    def apply(self, bv: np.ndarray) -> np.ndarray:
        # numpy.linalg.solve's kernel, bare, twice: L from a Cholesky that succeeded is nonsingular
        return _solve1(self.obj.lower.T, _solve1(self.obj.lower, bv))


_HANDLES = {h.name: h for h in (_Direct, _Dft, _Eig, _Cho)}

METHODS = tuple(_HANDLES)

METHOD_ALIASES = {alias: name for name, h in _HANDLES.items() for alias in (name, *h.aliases)}

# CSV column tags per solver, in fixed output order
COLUMN_TAGS = {name: h.tag for name, h in _HANDLES.items()}


def canonical_method(name: str) -> str:
    try:
        return METHOD_ALIASES[name]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {name!r}; expected one of {sorted(METHOD_ALIASES)}"
        ) from None


def _apply(h: _Handle, bv: np.ndarray, bnorm: float) -> np.ndarray:
    """x = h.apply(bv) for a b of 2-norm bnorm, with h.cap, below which the apply cannot overflow.

    Bare for bnorm in [2^-511, cap].  Past the cap it runs without numpy
    warnings, and an x left non-finite raises the method's
    DegreeTooLargeError.  A tiny b (0 < bnorm < 2^-511) is applied as 2^k b,
    with 2^k bnorm in [1/2, 1) or, where the cap is below 1, below the cap,
    and x is scaled back by 2^-k, so the apply's intermediates do not go
    subnormal: both scalings are exact, so a b whose unscaled apply stays
    normal gets the same bits.
    """
    if _SQRT_TINY <= bnorm <= h.cap:
        return h.apply(bv)
    if bnorm > h.cap:
        with np.errstate(over="ignore", invalid="ignore"):
            x = h.apply(bv)
        if not np.all(np.isfinite(x)):
            raise DegreeTooLargeError(h.overflow.format(name=h.name, n=h.degree))
        return x
    k = min(0, math.frexp(h.cap)[1] - 1) - math.frexp(bnorm)[1]
    return np.ldexp(h.apply(np.ldexp(bv, k)), -k) if k > 0 else h.apply(bv)


def _solve_raw(method: type, obj, b) -> np.ndarray:
    """A public raw apply: b checked as solve checks it, then _apply through obj's handle."""
    bv, bnorm = _checked_rhs(obj.degree, b)
    return _apply(method(obj.degree, obj), bv, bnorm)


def solve_dft(si: StructuredInverse, b) -> np.ndarray:
    """Apply the inverse mass matrix through si's FFT split, O(n log n).

    solve's dft apply (structured._dft_apply), through the same _apply: b
    is checked and a tiny b rescaled as solve does, and products that leave
    double range (from n = 255 for b = 1, and from n = 257 or 258 for
    b = M x with x uniform in [-1/2, 1/2)) raise DegreeTooLargeError, with
    no numpy warning.  structured_inverse builds no si past the dft
    handle's last_degree.
    """
    return _solve_raw(_Dft, si, b)


def solve_spectral(d: SpectralDecomp, b) -> np.ndarray:
    """Apply the inverse mass matrix: Q diag(1/lam) Q^T b, O(n^2).

    solve's eig apply, through the same _apply: b is checked and a tiny b
    rescaled as solve does, and an apply that overflows (b near the top of
    double range) raises DegreeTooLargeError, as does every b past the eig
    handle's last_degree, where lambda_min is not a normal double, before
    dividing.
    """
    return _solve_raw(_Eig, d, b)


def solve_cholesky(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve with L, then with L^T: numpy.linalg.solve's LAPACK kernel twice, bare.

    solve's cho apply, through the same _apply: b is checked and a tiny b
    rescaled as solve does, and an apply that overflows (b near the top of
    double range) raises DegreeTooLargeError.
    """
    return _solve_raw(_Cho, factor, b)


def solve(method: str, n: int, b, max_degree: int = 25) -> SolveReport:
    """Solve M x = b at degree n with the chosen method.

    Accepts canonical method names and their long aliases; metrics() gives
    the errors against a reference solution.  A complex right-hand side, or
    one with a nan or inf entry, raises ValueError, for every method; so
    does a finite one whose 2-norm overflows (not merely b.b: like the
    residual's, from n near 286 for b of order one, it is rescaled by
    max|b|, as it is where b.b underflows, so a tiny nonzero b is not read
    as 0).  b = 0 gives x = 0 and builds nothing.  Past the method's
    last_degree (_Direct, _Dft, _Eig) any other b raises
    DegreeTooLargeError before anything is built; so does an overflowing
    direct apply (from n = 510 or so for b of order one), dft apply (from
    n = 255 for b = 1, 257 or 258 for b = M x with x uniform in
    [-1/2, 1/2)), and eig or cho apply (b near the top of double range), and
    a solution whose residual is not finite.  Every apply goes through
    _apply, bare within the method's cap, and a b with 0 < |b|_2 < 2^-511
    applied as 2^k b.  The residual is that of the x returned, against b.
    """
    name = canonical_method(method)
    if not 0 <= n <= max_degree:
        raise DegreeRangeError(f"degree {n} outside allowed range [0, {max_degree}]")
    d = _cache.get(n)
    if d is not None:
        return d.solve(name, b)
    d = _Degree(n)
    report = d.solve(name, b)
    if d.handles:  # kept once a handle is built, so a refused solve caches nothing
        _cache.setdefault(n, d)
    return report


def _cached_q(n: int) -> SpectralDecomp:
    """Degree n's Q from solve's cache: its _Degree's, stored if new once the Q is built."""
    d = _cache.get(n) or _Degree(n)
    spec = d.spectral
    _cache.setdefault(n, d)
    return spec


def _m_norm(spec: SpectralDecomp, v: np.ndarray) -> float:
    """The M-norm ||Lambda^(1/2) Q^T v|| of a vector, through its degree's Q.

    Unlike sqrt(v^T M v), this never cancels: that quadratic form turns
    negative once the float M stops being numerically positive definite
    (n >= 30).  The coordinates' 2-norm is _scaled_norm's.
    """
    return _scaled_norm(np.sqrt(spec.lam) * spec.q.T.dot(v))


def _errors(spec: SpectralDecomp, x_hat: np.ndarray, x_ref: np.ndarray) -> tuple:
    """metrics' relative 2-norm and M-norm errors of x_hat against x_ref.

    Both M-norms' coordinates come from one two-column product with Q^T,
    and each column's 2-norm is _scaled_norm's.  Not two _m_norm gemvs: the
    error's M-norm is far below its 2-norm, so the rounding of Q^T d shows.
    An x_ref whose M-norm is 0 (x_ref = 0, or one so tiny that its
    coordinates underflow) raises ValueError.
    """
    d = x_hat - x_ref
    dm, rm = map(_scaled_norm, np.sqrt(spec.lam) * (spec.q.T @ np.column_stack((d, x_ref))).T)
    if rm == 0.0:
        raise ValueError("reference solution has zero norm")
    return _scaled_norm(d) / _scaled_norm(x_ref), dm / rm


def metrics(x_hat, x_ref, b, m) -> tuple:
    """Relative 2-norm error, relative M-norm error, relative residual.

    Every norm is _scaled_norm's, rescaled where v.v leaves the normal
    range: the 2-norms of the vectors, and both M-norms of _errors as the
    2-norms of their coordinates in the degree's cached spectral
    decomposition; m feeds only the residual.  Strided arguments are
    copied C-contiguous, so their layout does not change the sums, as in
    solve.
    """
    x_hat = np.ascontiguousarray(x_hat, dtype=float)
    x_ref = np.ascontiguousarray(x_ref, dtype=float)
    err2, errm = _errors(_cached_q(x_ref.size - 1), x_hat, x_ref)
    bv = np.ascontiguousarray(b, dtype=float)
    bnorm = _scaled_norm(bv)
    mm = np.ascontiguousarray(m, dtype=float)
    res = _scaled_norm(mm @ x_hat - bv) / bnorm if bnorm > 0.0 else 0.0
    return err2, errm, res
