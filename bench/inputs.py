"""What the benchmark hands the package: degrees, seeds and right-hand sides.

Everything is derived from the workload seed here, so the same seed gives the
same inputs in the measuring process and in the fresh-interpreter set-up
probes.  Only math and numpy are imported, to keep the probes light.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

METHODS = ("direct", "dft", "eig", "cho")

# paper-tables: the CLI default --max-degree
TABLE_DEGREE = 20
RANDOM_TABLES = 3

# solve-stream: every degree the default solve(max_degree=25) admits above the trivial ones
STREAM_DEGREES = tuple(range(5, 26))
STREAM_RHS = 8

# large-degree: each method's sweep stops at its stated limit (README.md)
SWEEPS = {
    "direct": (16, 32, 64, 128),
    "dft": (16, 32, 64, 128, 256, 509),
    "eig": (16, 32, 64, 128, 256, 512),
    "cho": (8, 16, 24, 29),
}

# large-degree: each dft build is also used for one solve_dft up to here; past it the products overflow
DFT_PROBE_UP_TO = 256

EXACT_MASS_UP_TO = 128  # above this, exact big-rational entries cost seconds per matrix


@functools.lru_cache(maxsize=None)
def mass_reference(n: int) -> np.ndarray:
    """M_ij = C(n,i) C(n,j) / ((2n+1) C(2n,i+j)), built from math.comb.

    Up to EXACT_MASS_UP_TO each entry is the exact rational rounded once
    (Python's int division rounds correctly).  Above it the three binomials
    are rounded once each and combined in floats, within 3 eps of exact.
    """
    c = [math.comb(n, i) for i in range(n + 1)]
    d = [math.comb(2 * n, k) for k in range(2 * n + 1)]
    if n <= EXACT_MASS_UP_TO:
        m = np.array([[(c[i] * c[j]) / ((2 * n + 1) * d[i + j]) for j in range(n + 1)] for i in range(n + 1)])
    else:
        cf = np.array(c, dtype=float)
        df = np.array(d, dtype=float)
        idx = np.arange(n + 1)
        m = (cf[:, None] / df[idx[:, None] + idx[None, :]]) * cf[None, :] / (2 * n + 1)
    m.flags.writeable = False  # shared by every caller through the cache
    return m


def table_seeds(seed: int) -> list:
    """Seeds for the random-system tables, drawn from the workload seed."""
    rnd = random.Random(seed)
    return [rnd.randrange(1, 2**31) for _ in range(RANDOM_TABLES)]


def stream_inputs(seed: int) -> dict:
    """{n: (x_true, b)} with STREAM_RHS rows each; x_true uniform in [-1/2, 1/2), b = M x_true."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in STREAM_DEGREES:
        x = rng.uniform(-0.5, 0.5, (STREAM_RHS, n + 1))
        out[n] = (x, x @ mass_reference(n))  # M is symmetric
    return out


def probe_system(n: int) -> tuple:
    """(x, M x) for a fixed x uniform in [-1/2, 1/2): the same for every seed, so checked once."""
    x = np.random.default_rng(n).uniform(-0.5, 0.5, n + 1)
    return x, mass_reference(n) @ x
