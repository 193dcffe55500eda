"""The bare pieces the solve methods share.

rfft, irfft and solve1 are the compiled kernels that numpy.fft.rfft,
numpy.fft.irfft and numpy.linalg.solve (with a vector b) run, called
without those functions' per-call Python code: the same kernel with the
same normalisation (1 forward, 1/plan backward), so the same bits.  The
normalisation goes in as a read-only 0-d float64 array made once, _UNIT
forward and _inverse_scale(plan) backward, since numpy converts a Python
number at every call; the caller allocates the output at the plan's
shape, and it goes in positionally.  This module is the only one that
names numpy's private modules; where they cannot be imported (numpy < 2,
or a numpy that moves them), the public functions stand in, and COMPILED
is False.  vdot is numpy.vdot's own C
function, which numpy.vdot reaches through its __array_function__
dispatch, or numpy.vdot itself where numpy keeps no _implementation.
cholesky runs numpy.linalg.cholesky's LAPACK kernel on a square float64
matrix without that function's Python wrappers, and is that function
where the kernel cannot be imported.  _checked_rhs is the right-hand-side
check of solve and of the public applies, and _scaled_norm the one
rescaled 2-norm that it, the residuals and every metric take: a weighted
L2 norm as the norm of sqrt(w) v, an M-norm as that of Lambda^(1/2) Q^T v.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

__all__ = ["COMPILED", "rfft", "irfft", "solve1", "vdot", "cholesky"]


def _read_only_scalar(value: float) -> np.ndarray:
    """value as a 0-d float64 array that cannot be written: a normalisation the
    FFT kernels take as it is, where a Python number is converted at every call."""
    scalar = np.array(value)
    scalar.flags.writeable = False
    return scalar


# rfft's normalisation, numpy's own 1 for the forward transform
_UNIT = _read_only_scalar(1.0)


@functools.cache
def _inverse_scale(plan: int) -> np.ndarray:
    """irfft's normalisation, numpy's own 1/plan, made once per plan."""
    return _read_only_scalar(1.0 / plan)


try:
    from numpy.fft._pocketfft_umath import irfft as _irfft_ufunc
    from numpy.fft._pocketfft_umath import rfft_n_even as _rfft_ufunc
    from numpy.linalg._umath_linalg import solve1
except ImportError:
    COMPILED = False

    def rfft(a, plan: int, out: np.ndarray) -> np.ndarray:
        """numpy.fft.rfft(a, plan) along the last axis, into out."""
        out[...] = np.fft.rfft(a, plan)
        return out

    def irfft(a, plan: int, out: np.ndarray) -> np.ndarray:
        """numpy.fft.irfft(a, plan) along the last axis, into out."""
        out[...] = np.fft.irfft(a, plan)
        return out

    solve1 = np.linalg.solve
else:
    COMPILED = True

    def rfft(a, plan: int, out: np.ndarray) -> np.ndarray:
        """numpy.fft.rfft(a, plan) along the last axis, into out; plan is even."""
        return _rfft_ufunc(a, _UNIT, out)

    def irfft(a, plan: int, out: np.ndarray) -> np.ndarray:
        """numpy.fft.irfft(a, plan) along the last axis, into out."""
        return _irfft_ufunc(a, _inverse_scale(plan), out)


try:
    from numpy._core.umath import _extobj_contextvar, _make_extobj
    from numpy.linalg._linalg import _raise_linalgerror_nonposdef
    from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo
except ImportError:
    cholesky = np.linalg.cholesky
else:

    def cholesky(a: np.ndarray) -> np.ndarray:
        """numpy.linalg.cholesky(a) for a 2-D square float64 array a, bit for bit.

        The cholesky_lo kernel runs bare, under the error state
        numpy.linalg.cholesky sets, so a failure raises its
        LinAlgError("Matrix is not positive definite").  a must be that one
        square native float64 matrix, as cholesky_factor makes it: any other
        shape or dtype is not checked, and would run another loop.
        """
        state = _make_extobj(
            call=_raise_linalgerror_nonposdef, invalid="call", over="ignore", divide="ignore", under="ignore"
        )
        token = _extobj_contextvar.set(state)
        try:
            return _cholesky_lo(a)
        finally:
            _extobj_contextvar.reset(token)


# the same C function, without the dispatch; not ndarray.dot, which warns
# "overflow encountered in dot" where vdot overflows to inf silently
vdot = getattr(np.vdot, "_implementation", np.vdot)

_FLOAT64 = np.dtype(float)

# 2^-511: a norm below it exactly when v.v is below the smallest normal double
_SQRT_TINY = math.sqrt(sys.float_info.min)


def _scaled_norm(v: np.ndarray) -> float:
    """sqrt(v.v), bit for bit as numpy.linalg.norm forms it.

    Where v.v overflows (|v| past about 1e154) or leaves the normal range
    (below about 1e-154; it reads 0 from about 1e-162), v is scaled by
    max|v| and the sum retaken, once: v / max|v| has max 1.  vdot overflows
    to inf unwarned, so no call enters np.errstate.  A sum of m nonnegative
    squares is within about m eps of exact in any order, so a weighted or
    M-norm taken through it differs from another order's sum by a few ulps.
    """
    nrm = math.sqrt(vdot(v, v))
    if not _SQRT_TINY <= nrm < math.inf and v.size:
        big = float(np.max(np.abs(v)))
        if 0.0 < big < math.inf and big != 1.0:
            nrm = big * _scaled_norm(v / big)
    return nrm


def _checked_rhs(n: int, b) -> tuple:
    """(b as a C-contiguous float64 vector, |b|_2) for a degree-n right-hand
    side; ValueError for a complex b, one not of shape (n+1,), and one with a
    nan or inf entry or whose 2-norm overflows.

    A strided b is copied, so the products and sums over it take the order
    they take over its contiguous copy, and give the same bits.
    """
    bv = np.asarray(b)
    if bv.dtype is not _FLOAT64:  # a float64 b, as every warm solve passes, skips both
        if bv.dtype.kind == "c":
            raise ValueError(f"right-hand side is complex ({bv.dtype}); M x = b is real")
        bv = bv.astype(float)
    if bv.shape != (n + 1,):
        raise ValueError(f"right-hand side shape {bv.shape} does not match degree {n}")
    if not bv.flags.c_contiguous:
        bv = bv.copy()
    # one norm serves as the finiteness check and the residual's scale
    bnorm = _scaled_norm(bv)
    if not math.isfinite(bnorm):
        raise ValueError(f"right-hand side is not finite (2-norm {bnorm})")
    return bv, bnorm
