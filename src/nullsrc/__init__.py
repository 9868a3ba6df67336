"""Localized-source identification for elliptic PDEs from boundary data.

Implements nullspace-weighted Tikhonov regularization for the problem
-div(sigma grad u) + eps*u = f with homogeneous Neumann conditions and
Dirichlet boundary observations, plus the experiment harness that
reproduces the reference numerical studies.
"""

from .control_space import (
    ControlBasis,
    build_control_basis,
    coefficients_to_cell_field,
    control_load_matrix,
    project_cell_function,
)
from .errors import (
    ConfigError,
    DegenerateBasis,
    GammaTooLarge,
    GammaTooSmall,
    IllConditioned,
    IncompatibleGrids,
    InvalidSpec,
    LengthMismatch,
    NonPositiveCoefficient,
    NullsrcError,
    SingularState,
)
from .fem import CoefficientField, FemSystem, StateSolver, assemble
from .mesh import DomainSpec, Mesh, Shape, build_mesh, refine_uniform
from .solvers import (
    Method,
    SolveResult,
    min_norm_lsq,
    morozov,
    solve_method,
    tikhonov,
)
from .spectral import (
    ForwardModel,
    SpectralData,
    analyze,
    build_forward_model,
    optimal_scalar_weight,
    spectral_data_from_matrix,
)

__version__ = "0.1.0"
