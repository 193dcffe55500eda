"""Conditioning of the mass matrix in three different norms.

The 2-norm condition number has the closed form binom(2n+1, n) and
explodes exponentially, but measuring the inverse from the energy norm
into the 2-norm gives only its square root, and that bound is sharp.
The script tabulates both, confirms the mixed operator norms, each one
2-norm through M's spectral decomposition, against the closed forms, and
probes sharpness with random perturbations.
"""

import numpy as np

from bernmass import (
    condition_table,
    eigenvalues,
    inverse_matrix,
    mass_matrix,
    op_norm_2_to_m,
    op_norm_m_to_2,
    perturbation_study,
)

print(f"{'n':>3} {'kappa_2':>22} {'sqrt (energy->2)':>18}")
for rec in condition_table(20):
    print(f"{rec.degree:3d} {rec.kappa2:22.6e} {rec.kappa_m_to_2:18.6e}")

print("\nmixed operator norms vs closed forms:")
for n in (2, 5, 8, 12):
    m = mass_matrix(n).matrix
    lam = eigenvalues(n)
    fwd = op_norm_m_to_2(m)
    bwd = op_norm_2_to_m(inverse_matrix(n))
    print(f"  n={n:2d}  |M|_{{M->2}} = {fwd:.12e}  (sqrt lam_max = {np.sqrt(lam[0]):.12e})")
    print(f"        |M^-1|_{{2->M}} = {bwd:.12e}  (lam_min^-1/2 = {lam[-1] ** -0.5:.12e})")

# how tight is the lam_min^{-1/2} amplification bound for M^{-1} b?
st = perturbation_study(10, samples=1000, seed=12345)
print(f"\nperturbation study at n=10 ({len(st.ratios) - 1} random directions")
print("plus the extremal eigendirection appended last):")
print(f"  bound lam_min^-1/2      = {st.bound:.6e}")
print(f"  worst observed ratio    = {st.worst_ratio:.6e}")
print(f"  worst / bound           = {st.worst_ratio / st.bound:.15f}")
print(f"  99% quantile (random)   = {st.quantile_99:.6e}")
print("random directions rarely get close; the extremal one is sharp.")
