"""The Toeplitz/Hankel split of the inverse and the FFT apply route.

The inverse mass matrix factors through banded Toeplitz and Hankel
pieces whose matvecs reduce to circulant products, so applying the
inverse costs O(n log n) instead of O(n^2).  The catch: the band
entries are squared binomial coefficients, so the fast route is only
usable at tiny degrees before cancellation destroys it.  This script
shows both the speed and the blow-up.
"""

import time

import numpy as np

from bernmass import (
    Xorshift64Star,
    inverse_matrix,
    solve_dft,
    structured_inverse,
)
from bernmass.oracle import toeplitz_matvec


def bench(f, reps=5):
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


# --- part 1: the fast matvec really is fast -------------------------------
size = 4096
rng = Xorshift64Star(20240817)
col = rng.uniform(-1.0, 1.0, size)
row = np.concatenate([[col[0]], rng.uniform(-1.0, 1.0, size - 1)])
x = rng.uniform(-1.0, 1.0, size)

idx = np.arange(size)
gap = idx[:, None] - idx[None, :]
dense = np.where(gap >= 0, col[np.abs(gap)], row[np.abs(gap)])

t_dense = bench(lambda: dense @ x)
t_fft = bench(lambda: toeplitz_matvec(col, row, x))
err = np.max(np.abs(dense @ x - toeplitz_matvec(col, row, x)))
print(f"Toeplitz matvec, size {size}:")
print(f"  dense   {1e3 * t_dense:8.3f} ms")
print(f"  FFT     {1e3 * t_fft:8.3f} ms   (max gap {err:.2e})")

# --- part 2: applying the inverse through the split -----------------------
print("\ninverse apply through the structured split:")
print(f"{'n':>4} {'max |dft - direct|':>20} {'band magnitude':>16}")
for n in (4, 8, 12, 16, 20):
    si = structured_inverse(n)
    b = Xorshift64Star(n).uniform(-0.5, 0.5, n + 1)
    fast = solve_dft(si, b)
    ref = inverse_matrix(n) @ b
    band = max(abs(v) for v in si.t_col)
    print(f"{n:4d} {np.max(np.abs(fast - ref)):20.3e} {band:16.3e}")

print("\nband entries are squared binomials, so they grow like 4^n; the")
print("split multiplies pairs of them, and those ~16^n intermediates have")
print("to cancel down to O(1) inverse entries -- hence the blow-up above:")
for n in (8, 16, 32, 64):
    band = max(abs(v) for v in structured_inverse(n).t_col)
    print(f"  n={n:3d}  largest band entry {band:.3e}  (4^n = {4.0 ** n:.3e})")
