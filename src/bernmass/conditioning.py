"""Condition numbers and operator norms of the mass matrix.

The 2-norm condition number has the closed form (2n+1)!/((n+1)! n!), i.e.
the central-adjacent binomial coefficient C(2n+1, n), rounded once to a
double; the mixed M-to-2-norm condition number is its square root.  Both,
and the condition table, are refused with DegreeTooLargeError past
_LAST_DEGREE (514), the last degree whose C(2n+1, n) is below the largest
double, before any work.  Each mixed
operator norm is one 2-norm through the degree's cached M = Q Lambda Q^T,
refused as eig is past its last degree, where lambda_min is not a normal
double, before Q is built.
Past n near 30, that of the float M or of its float inverse is the norm of
the rounded matrix, not of the exact one: lambda_min^{-1/2} amplifies its
rounding.  A sampling study shows random perturbations almost never realize
the worst-case M-norm amplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import DegreeTooLargeError
from .rng import Xorshift64Star
from .solvers import _Eig, _cached_q
from .spectral import SpectralDecomp, eigenvalues

__all__ = [
    "kappa_2",
    "kappa_m_to_2",
    "ConditionRecord",
    "condition_table",
    "op_norm_m_to_2",
    "op_norm_2_to_m",
    "PerturbationStudy",
    "perturbation_study",
]


_LAST_DEGREE = 514  # C(1029, 514) is below the largest double, C(1031, 515) is not


def _supported(n: int) -> None:
    """Refuse a degree n before any work: below 0, or past _LAST_DEGREE, where kappa_2 would overflow."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > _LAST_DEGREE:
        raise DegreeTooLargeError(f"condition number C(2n+1, n) overflows double precision at degree n={n}")


def kappa_2(n: int) -> float:
    """2-norm condition number lambda_max/lambda_min = C(2n+1, n), correctly rounded.

    The exact integer from math.comb, rounded once: exact through n = 27,
    where C(2n+1, n) is below 2^53.  Past _LAST_DEGREE (514), where
    C(2n+1, n) is not a double, it raises DegreeTooLargeError.
    """
    _supported(n)
    return float(math.comb(2 * n + 1, n))


def kappa_m_to_2(n: int) -> float:
    """Condition number of the identity map from the M-norm to the 2-norm.

    The square root of kappa_2(n), refused as kappa_2 is past _LAST_DEGREE
    (514).
    """
    return float(np.sqrt(kappa_2(n)))


@dataclass
class ConditionRecord:
    degree: int
    kappa2: float
    kappa_m_to_2: float
    lambda_min: float
    lambda_max: float


def condition_table(n_max: int) -> list:
    """Condition numbers and extreme eigenvalues for all degrees up to n_max.

    A negative n_max raises ValueError, and one past _LAST_DEGREE (514)
    kappa_2's DegreeTooLargeError, before any row is computed.
    """
    _supported(n_max)
    out = []
    for n in range(n_max + 1):
        lam = eigenvalues(n)
        out.append(
            ConditionRecord(n, kappa_2(n), kappa_m_to_2(n), float(lam[-1]), float(lam[0]))
        )
    return out


def _decomp(n: int) -> SpectralDecomp:
    """The cached M = Q Lambda Q^T of degree n, refused with eig's error past eig's last degree."""
    if n > _Eig.last_degree:
        raise _Eig.too_large(n)
    return _cached_q(n)


def _operator(a) -> np.ndarray:
    """a as a float64 array, refused with a ValueError naming its shape unless it is 2-D."""
    av = np.asarray(a, dtype=float)
    if av.ndim != 2:
        raise ValueError(f"an operator norm needs one 2-D array, not an array of shape {av.shape}")
    return av


def op_norm_m_to_2(a) -> float:
    """Operator norm of A from the M-inner-product space to Euclidean space.

    With M = Q Lambda Q^T the cached decomposition of the degree given by
    A's column count, ||A||_{M->2} = ||A Q Lambda^{-1/2}||_2.  A must be
    2-D: any other array raises ValueError naming its shape.
    """
    av = _operator(a)
    spec = _decomp(av.shape[1] - 1)
    return float(np.linalg.norm((av @ spec.q) / np.sqrt(spec.lam), 2))


def op_norm_2_to_m(a) -> float:
    """Operator norm of A from Euclidean space into the M-inner-product space.

    With M = Q Lambda Q^T the cached decomposition of the degree given by
    A's row count, ||A||_{2->M} = ||Lambda^{1/2} Q^T A||_2.  A must be 2-D,
    as for op_norm_m_to_2: pass a vector of n+1 entries as (n+1, 1).
    """
    av = _operator(a)
    spec = _decomp(av.shape[0] - 1)
    return float(np.linalg.norm(np.sqrt(spec.lam)[:, None] * (spec.q.T @ av), 2))


@dataclass
class PerturbationStudy:
    degree: int
    bound: float
    ratios: np.ndarray
    worst_ratio: float
    quantile_99: float


def perturbation_study(n: int, samples: int = 1000, seed: int = 12345) -> PerturbationStudy:
    """How much a right-hand-side perturbation grows in solution M-norm.

    For delta b of unit 2-norm the M-norm of the solution perturbation is
    at most lambda_min^{-1/2}, attained only along the last eigenvector.
    Random directions are sampled and the extremal direction appended as the
    final row, so the returned ratios always contain the sharp case.  Like
    the mixed norms, it is refused past eig's last degree.  samples below 1
    raise ValueError: the 99% quantile needs at least one random direction.
    """
    if samples < 1:
        raise ValueError(f"perturbation_study needs at least one sample, not {samples}")
    d = _decomp(n)
    gen = Xorshift64Star(seed)
    draws = gen.uniform(-1.0, 1.0, (samples, n + 1))
    draws = np.vstack([draws, d.q[:, n]])
    c = draws @ d.q  # rows are spectral coordinates of each direction
    num = np.sum(c * c / d.lam, axis=1)
    den = np.sum(c * c, axis=1)
    ratios = np.sqrt(num / den)
    bound = float(d.lam[n] ** -0.5)
    return PerturbationStudy(
        n,
        bound,
        ratios,
        float(np.max(ratios)),
        float(np.quantile(ratios[:-1], 0.99)),
    )
