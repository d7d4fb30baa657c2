"""Over-relaxed proximal splitting with runtime certification.

Solves min f(x) + g(y) subject to A x + B y = b for nonsmooth prox-capable f
and smooth (possibly weakly convex) g, with an over-relaxation stepsize in
(0, 2), and checks every inequality behind its convergence guarantee on the
fly.
"""

from .certify import Certifier, CheckResult, rate_bound_checks
from .errors import (AssumptionError, ConfigurationError, GeneratorError,
                     InnerSolveError, OracleError)
from .generators import FAMILIES, generate_instance, scalar_fixture
from .linalg import (SpectralSummary, project_onto_range, range_inclusion_gap,
                     reduced_svd, spectral_summary)
from .oracles import (BoxIndicator, ConvexQuadratic, CosineQuadratic, L0Penalty,
                      QuadraticSmooth, SphereIndicator)
from .params import (StrongPenaltyCheck, DerivedConstants, Eta0Solution, c1,
                     strong_penalty_check, delta1, delta2, derive_constants,
                     eta0_from_rhs, eta0_seed, gamma, kappa, min_admissible_beta)
from .problem import (ProblemInstance, ValidationReport, aug_lagrangian, delta0,
                      validate_assumptions)
from .solver import (ExplicitG, IterateRecord, LinearizedG, RunResult,
                     SolverConfig, StartRecord, ZeroG, run)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError", "BoxIndicator", "Certifier", "CheckResult",
    "ConfigurationError", "ConvexQuadratic", "StrongPenaltyCheck",
    "CosineQuadratic", "DerivedConstants", "Eta0Solution", "ExplicitG",
    "FAMILIES", "GeneratorError", "InnerSolveError", "IterateRecord",
    "L0Penalty", "LinearizedG", "OracleError", "ProblemInstance",
    "QuadraticSmooth", "RunResult", "SolverConfig", "SpectralSummary",
    "SphereIndicator", "StartRecord", "ValidationReport", "ZeroG",
    "aug_lagrangian", "c1", "strong_penalty_check", "delta0", "delta1",
    "delta2", "derive_constants", "eta0_from_rhs", "eta0_seed", "gamma",
    "generate_instance", "kappa", "min_admissible_beta", "project_onto_range",
    "range_inclusion_gap", "rate_bound_checks", "reduced_svd", "run",
    "scalar_fixture", "spectral_summary", "validate_assumptions",
]
