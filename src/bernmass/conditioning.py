"""Condition numbers and operator norms of the mass matrix.

The 2-norm condition number has the closed form (2n+1)!/((n+1)! n!), i.e.
the central-adjacent binomial coefficient C(2n+1, n); the mixed M-to-2-norm
condition number is its square root.  Each mixed operator norm is one
2-norm through the degree's cached M = Q Lambda Q^T, refused from n = 509,
where lambda_min is not a normal double.  Past n near 30, that of the float
M or of its float inverse is the norm of the rounded matrix, not of the
exact one: lambda_min^{-1/2} amplifies its rounding.  A sampling study
shows random perturbations almost never realize the worst-case M-norm
amplification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Xorshift64Star
from .solvers import _spectral_checked
from .spectral import eigenvalues

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


def kappa_2(n: int) -> float:
    """2-norm condition number lambda_max/lambda_min = C(2n+1, n), exactly.

    Computed as the product of (n+1+i)/i for i = 1..n so intermediate
    values stay near the final magnitude.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    value = 1.0
    for i in range(1, n + 1):
        value *= (n + 1 + i) / i
    return value


def kappa_m_to_2(n: int) -> float:
    """Condition number of the identity map from the M-norm to the 2-norm."""
    return float(np.sqrt(kappa_2(n)))


@dataclass
class ConditionRecord:
    degree: int
    kappa2: float
    kappa_m_to_2: float
    lambda_min: float
    lambda_max: float


def condition_table(n_max: int) -> list:
    """Condition numbers and extreme eigenvalues for all degrees up to n_max."""
    out = []
    for n in range(n_max + 1):
        lam = eigenvalues(n)
        out.append(
            ConditionRecord(n, kappa_2(n), kappa_m_to_2(n), float(lam[-1]), float(lam[0]))
        )
    return out


def op_norm_m_to_2(a) -> float:
    """Operator norm of A from the M-inner-product space to Euclidean space.

    With M = Q Lambda Q^T the cached decomposition of the degree given by
    A's column count, ||A||_{M->2} = ||A Q Lambda^{-1/2}||_2.
    """
    av = np.asarray(a, dtype=float)
    spec = _spectral_checked(av.shape[1] - 1)
    return float(np.linalg.norm((av @ spec.q) / np.sqrt(spec.lam), 2))


def op_norm_2_to_m(a) -> float:
    """Operator norm of A from Euclidean space into the M-inner-product space.

    With M = Q Lambda Q^T the cached decomposition of the degree given by
    A's row count, ||A||_{2->M} = ||Lambda^{1/2} Q^T A||_2.
    """
    av = np.asarray(a, dtype=float)
    spec = _spectral_checked(av.shape[0] - 1)
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
    the mixed norms, it is refused from n = 509.
    """
    d = _spectral_checked(n)
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
