"""Wall time scaled to a reference machine speed.

On a virtual machine whose cores are shared with other tenants, such as the
2-vCPU one the reference figures in README.md come from, speed moves by up
to 1.5x from one minute to the next.  So every
timed segment is bracketed by a short fixed calibration computation
(big-integer arithmetic, small numpy calls, a dense matvec and small Python
calls: the kinds of work bernmass does), and its wall time is scaled by
CAL_REF_S / (the mean of the two calibration times).  On an uncontended
reference machine the result equals the wall time; on a slowed one, it is
what the wall time would have been at the reference speed.  A change to
bernmass moves these times as it moves wall time, since the calibration
never calls the package.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the calibration's duration on the reference machine (README.md), when uncontended
CAL_REF_S = 0.003

_A = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
_V = np.linspace(0.0, 1.0, 128)


def calibration() -> float:
    """Seconds taken by the fixed calibration computation."""
    t0 = time.perf_counter()
    total = 0
    for k in range(300):
        total += math.comb(200 + k, 100) // (k + 1)
    a = np.arange(64.0)
    for _ in range(400):
        a = a * 1.0000001 + 1e-9
    v = _V
    for _ in range(150):
        v = _A @ v
        v /= np.linalg.norm(v)
    x = 0.0
    for _ in range(3000):
        x = _step(x, y=1.0)
    z = np.zeros(8)
    for _ in range(300):
        np.asarray(z, dtype=float)
        np.isfinite(z).all()
    return time.perf_counter() - t0


def _step(x, *, y=1.0, z=None):
    # a small Python function with keyword arguments, like the wrappers a solve passes through
    if isinstance(x, float) and z is None:
        return x + y
    return x


class Clock:
    """Calibrates at each mark; mark() gives the scale factor for the interval since the last one."""

    def __init__(self):
        self.last = calibration()
        self.samples = [self.last]

    def mark(self) -> float:
        """Calibrate now and return CAL_REF_S over the mean of this and the previous calibration."""
        previous, self.last = self.last, calibration()
        self.samples.append(self.last)
        return CAL_REF_S * 2.0 / (previous + self.last)
