"""Tour of the mass matrix and its closed-form inverse.

Assembles the Gram matrix of the degree-n Bernstein basis, compares it
against the exact rational oracle, and then inverts it three ways: the
explicit entry formula, its dual form, and the integer Hankel-factor
route (the Bezoutian that `inverse_matrix` rounds once per entry).
Everything here is small enough to check by eye.
"""

import numpy as np

from bernmass import inverse_matrix, mass_matrix
from bernmass.bernstein import binomial_diag
from bernmass.oracle import (
    hankel_inverse_entry,
    inverse_entry_dual_exact,
    inverse_entry_exact,
    last_column_y_exact,
    mass_exact,
)


def main():
    n = 4
    mm = mass_matrix(n)
    print(f"mass matrix, degree {n}:")
    print(mm.matrix)

    exact = np.array([[float(v) for v in row] for row in mass_exact(n)])
    print("\nmax deviation from the rational oracle:",
          np.max(np.abs(mm.matrix - exact)))

    # the matrix factors as D * H * D with D binomial and H Hankel
    d = binomial_diag(n)
    print("\nbinomial diagonal:", d)
    print("Hankel factor (constant anti-diagonals):")
    print(np.array(mm.hankel_factor))

    inv = inverse_matrix(n)
    print("\nclosed-form inverse (note the checkerboard signs):")
    print(inv)
    print("max |M @ inv(M) - I| =", np.max(np.abs(mm.matrix @ inv - np.eye(n + 1))))

    # the primary and dual entry formulas agree exactly in rational arithmetic
    i, j = 1, 3
    print(f"\nentry ({i},{j}): rounded once  {float(inv[i, j])!r}")
    print(f"             rational      {inverse_entry_exact(n, i, j)}")
    print(f"             dual rational {inverse_entry_dual_exact(n, i, j)}")

    # conjugating by the binomial diagonal clears all denominators
    print("\nscaled inverse entries are integers:")
    scaled = [[hankel_inverse_entry(n, a, b) for b in range(n + 1)] for a in range(n + 1)]
    for row in scaled:
        print(" ", row)

    # the last column of the inverse is a signed integer pattern
    y = np.array(last_column_y_exact(n), dtype=float)
    print("\ninteger solution of M y = e_n:", y)
    print("check M @ y:", np.round(mm.matrix @ y, 12))


if __name__ == "__main__":
    main()
