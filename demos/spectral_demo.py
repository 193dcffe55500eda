"""Spectral decomposition of the mass matrix, without ever calling eig.

The eigenvalues follow a two-term ratio recurrence and the eigenvector
matrix comes from the Hahn difference equation, one vector step per row
of Q, so the whole decomposition costs O(n^2).  The script prints the
eigenvalue decay, verifies orthogonality and the diagonalization
residual, and cross-checks the fast construction against the slower
degree-elevation route.
"""

import numpy as np

from bernmass import build_q, build_q_by_elevation, eigenvalues, mass_matrix

n = 12
lam = eigenvalues(n)
print(f"eigenvalues for degree {n} (largest first):")
for i, v in enumerate(lam):
    print(f"  lam[{i:2d}] = {v:.6e}")
print(f"spread lam_max/lam_min = {lam[0] / lam[-1]:.6e}")

d = build_q(n)
q = d.q
print("\northogonality  max|Q^T Q - I| =", np.max(np.abs(q.T @ q - np.eye(n + 1))))

m = mass_matrix(n).matrix
resid = m @ q - q * lam
print("diagonalization max column residual =",
      np.max(np.linalg.norm(resid, axis=0)))

# same Q by elevating shifted-Legendre coefficient vectors degree by degree
q_slow = build_q_by_elevation(n).q
print("difference equation vs elevation construction, max entry gap =",
      np.max(np.abs(q - q_slow)))

# columns are polynomial coefficient vectors; the last entry is the value
# at x = 1 and is positive by the sign convention
print("\nlast row of Q (values at x=1, all positive):")
print(q[n])

# trace check: sum of eigenvalues equals sum of diagonal entries of M
print("\ntrace(M) - sum(lam) =", np.trace(m) - np.sum(lam))
