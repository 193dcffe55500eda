"""Structured linear algebra for the univariate Bernstein mass matrix.

Assembly, four inversion/apply strategies (closed-form inverse, FFT-based
structured apply, spectral decomposition, Cholesky), conditioning analysis,
and experiment harnesses with a CLI.  The exact rational oracle and the
cross-check routes live in bernmass.oracle, which this package never
imports; every other name is importable from its own module.
"""

from .bernstein import BernsteinPoly, DegreeTooLargeError, MassMatrix, basis_values, evaluate, mass_matrix
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
from .experiments import (
    ExperimentRecord,
    f1,
    f2,
    reference_solution,
    render_csv,
    run_projection,
    run_random,
    write_csv,
)
from .inverse import inverse_matrix
from .quadrature import QuadratureRule, composite_gauss_legendre, gauss_legendre
from .rng import Xorshift64Star
from .solvers import (
    METHODS,
    CholeskyFactor,
    NotPositiveDefiniteError,
    SolveReport,
    UnknownMethodError,
    cholesky_factor,
    clear_cache,
    metrics,
    solve,
    solve_cholesky,
    solve_dft,
    solve_spectral,
)
from .spectral import SpectralDecomp, build_q, eigenvalues
from .structured import StructuredInverse, structured_inverse

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # bernstein
    "BernsteinPoly",
    "MassMatrix",
    "DegreeTooLargeError",
    "mass_matrix",
    "evaluate",
    "basis_values",
    # inverse
    "inverse_matrix",
    # structured
    "StructuredInverse",
    "structured_inverse",
    # spectral
    "SpectralDecomp",
    "eigenvalues",
    "build_q",
    # solvers
    "METHODS",
    "solve",
    "solve_dft",
    "solve_spectral",
    "SolveReport",
    "NotPositiveDefiniteError",
    "UnknownMethodError",
    "CholeskyFactor",
    "cholesky_factor",
    "solve_cholesky",
    "metrics",
    "clear_cache",
    # conditioning
    "ConditionRecord",
    "PerturbationStudy",
    "condition_table",
    "kappa_2",
    "kappa_m_to_2",
    "op_norm_2_to_m",
    "op_norm_m_to_2",
    "perturbation_study",
    # experiments
    "ExperimentRecord",
    "f1",
    "f2",
    "reference_solution",
    "run_projection",
    "run_random",
    "render_csv",
    "write_csv",
    # quadrature
    "QuadratureRule",
    "gauss_legendre",
    "composite_gauss_legendre",
    # rng
    "Xorshift64Star",
]
