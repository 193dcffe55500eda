"""Gauss-Legendre quadrature on [0, 1], plain and composite.

Nodes on [-1, 1] are the roots of the Legendre polynomial P_m: numpy's
`leggauss` nodes polished by one Newton step on the three-term recurrence,
_legendre_run, which also gives the projection tables' Legendre reference
its P_n.  Weights are 2 / ((1 - x^2) P_m'(x)^2) at the polished nodes.
The rule is then mapped affinely to [0, 1] and optionally replicated over a
uniform partition into cells, which is how the projection experiments
integrate their target functions: the integral of f is
rule.weights @ f(rule.nodes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bernstein import _degree

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "composite_gauss_legendre",
]


@dataclass
class QuadratureRule:
    """Nodes and weights for integration over [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return self.nodes.size


def _legendre_run(x: np.ndarray):
    """P_0(x), P_1(x), ... without end, by the three-term recurrence
    P_(k+1) = ((2k+1) x P_k - k P_(k-1)) / (k+1); each is formed when asked for."""
    p_prev, p = np.ones_like(x), x
    yield p_prev
    for k in itertools.count(1):
        yield p
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)


def _legendre_value_derivative(m: int, x: np.ndarray) -> tuple:
    """P_m(x) and P_m'(x) from _legendre_run; |x| < 1, m >= 1."""
    p_prev, p = itertools.islice(_legendre_run(x), m - 1, m + 1)
    # derivative from the lower-degree value: (x^2-1) P_m' = m (x P_m - P_{m-1})
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(m: int) -> QuadratureRule:
    """The m-point Gauss-Legendre rule mapped to [0, 1]; exact to degree 2m-1.

    m is the degree of the Legendre polynomial P_m whose roots are the
    nodes, and goes by bernstein's degree rule (a bool, a float or any other
    non-integer raises TypeError, a negative m ValueError); m = 0 raises
    ValueError too.
    """
    if _degree(m, "Legendre polynomial") < 1:
        raise ValueError("need at least one quadrature point")
    x, _ = np.polynomial.legendre.leggauss(m)
    # numpy's own weights are ten times less accurate than these at m = 32
    p, dp = _legendre_value_derivative(m, x)
    x = x - p / dp
    _, dp = _legendre_value_derivative(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w)


def composite_gauss_legendre(points: int, cells: int) -> QuadratureRule:
    """The points-per-cell rule replicated over `cells` equal subintervals of [0, 1]."""
    if cells < 1:
        raise ValueError("need at least one cell")
    base = gauss_legendre(points)
    width = 1.0 / cells
    nodes = (base.nodes[None, :] + np.arange(cells)[:, None]) * width
    weights = np.tile(base.weights * width, cells)
    return QuadratureRule(nodes.reshape(-1), weights)

