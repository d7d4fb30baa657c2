"""Over-relaxed proximal splitting with runtime certification.

Solves min f(x) + g(y) subject to A x + B y = b for nonsmooth prox-capable f
and smooth (possibly weakly convex) g, with an over-relaxation stepsize in
(0, 2), and checks every inequality behind its convergence guarantee on the
fly.  The names below are the documented entry points; everything else lives
in the submodules.
"""

from .certify import rate_bound_checks
from .errors import ConfigurationError, GeneratorError, InnerSolveError, OracleError
from .generators import generate_instance, scalar_fixture
from .linalg import project_onto_range, range_inclusion_gap, spectral_summary
from .oracles import (BoxIndicator, ConvexQuadratic, CosineQuadratic, L0Penalty,
                      QuadraticSmooth, SphereIndicator)
from .params import eta0_from_rhs, eta0_seed, gamma, min_admissible_beta
from .problem import ProblemInstance, validate_assumptions
from .solver import ExplicitG, LinearizedG, SolverConfig, ZeroG, run

__version__ = "0.1.0"

__all__ = [
    "BoxIndicator", "ConfigurationError", "ConvexQuadratic", "CosineQuadratic",
    "ExplicitG", "GeneratorError", "InnerSolveError", "L0Penalty", "LinearizedG",
    "OracleError", "ProblemInstance", "QuadraticSmooth", "SolverConfig",
    "SphereIndicator", "ZeroG", "eta0_from_rhs", "eta0_seed", "gamma",
    "generate_instance", "min_admissible_beta", "project_onto_range",
    "range_inclusion_gap", "rate_bound_checks", "run", "scalar_fixture",
    "spectral_summary", "validate_assumptions",
]
