"""Structured linear algebra for the univariate Bernstein mass matrix.

Assembly, four inversion/apply strategies (closed-form inverse, FFT-based
structured apply, spectral decomposition, Cholesky), an exact rational
oracle, conditioning analysis, and experiment harnesses with a CLI.
"""

from .bernstein import (
    BernsteinPoly,
    DegreeTooLargeError,
    MassMatrix,
    basis_values,
    binomial_diag,
    elevate,
    elevation_matrix,
    evaluate,
    hankel_moments,
    legendre_coeffs,
    m_inner,
    mass_matrix,
)
from .conditioning import (
    ConditionRecord,
    PerturbationStudy,
    condition_table,
    kappa_2,
    kappa_m_to_2,
    op_norm_2_to_m,
    op_norm_m_to_2,
    perturbation_study,
)
from .exact import (
    SingularMatrixError,
    mass_entry_exact,
    mass_exact,
    rational_inverse,
    rational_solve,
)
from .experiments import (
    ExperimentRecord,
    f1,
    f2,
    legendre_reference,
    moments,
    reference_solution,
    render_csv,
    run_projection,
    run_random,
    write_csv,
)
from .inverse import (
    hankel_inverse_entry,
    inverse_entry_dual_exact,
    inverse_entry_exact,
    inverse_matrix,
    last_column_y,
    last_column_y_exact,
)
from .quadrature import QuadratureRule, composite_gauss_legendre, gauss_legendre, integrate
from .rng import Xorshift64Star
from .solvers import (
    METHODS,
    CholeskyFactor,
    DegreeRangeError,
    NotPositiveDefiniteError,
    SolveReport,
    UnknownMethodError,
    cholesky_factor,
    clear_cache,
    metrics,
    solve,
    solve_cholesky,
)
from .spectral import (
    SpectralDecomp,
    apply_mass_spectral,
    build_q,
    build_q_by_elevation,
    eigenvalue,
    eigenvalues,
    solve_spectral,
)
from .structured import (
    StructuredInverse,
    bezout_matrix,
    hankel_matvec,
    heinig_rost_inverse,
    solve_dft,
    structured_inverse,
    toeplitz_matvec,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bernstein
    "BernsteinPoly",
    "DegreeTooLargeError",
    "MassMatrix",
    "basis_values",
    "binomial_diag",
    "elevate",
    "elevation_matrix",
    "evaluate",
    "hankel_moments",
    "legendre_coeffs",
    "m_inner",
    "mass_matrix",
    # conditioning
    "ConditionRecord",
    "PerturbationStudy",
    "condition_table",
    "kappa_2",
    "kappa_m_to_2",
    "op_norm_2_to_m",
    "op_norm_m_to_2",
    "perturbation_study",
    # exact oracle
    "SingularMatrixError",
    "mass_entry_exact",
    "mass_exact",
    "rational_inverse",
    "rational_solve",
    # experiments
    "ExperimentRecord",
    "f1",
    "f2",
    "legendre_reference",
    "moments",
    "reference_solution",
    "render_csv",
    "run_projection",
    "run_random",
    "write_csv",
    # inverse formulas
    "hankel_inverse_entry",
    "inverse_entry_dual_exact",
    "inverse_entry_exact",
    "inverse_matrix",
    "last_column_y",
    "last_column_y_exact",
    # quadrature
    "QuadratureRule",
    "composite_gauss_legendre",
    "gauss_legendre",
    "integrate",
    # rng
    "Xorshift64Star",
    # solvers
    "METHODS",
    "CholeskyFactor",
    "DegreeRangeError",
    "NotPositiveDefiniteError",
    "SolveReport",
    "UnknownMethodError",
    "cholesky_factor",
    "clear_cache",
    "metrics",
    "solve",
    "solve_cholesky",
    # spectral
    "SpectralDecomp",
    "apply_mass_spectral",
    "build_q",
    "build_q_by_elevation",
    "eigenvalue",
    "eigenvalues",
    "solve_spectral",
    # structured
    "StructuredInverse",
    "bezout_matrix",
    "hankel_matvec",
    "heinig_rost_inverse",
    "solve_dft",
    "structured_inverse",
    "toeplitz_matvec",
]
