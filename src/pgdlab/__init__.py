"""Projected gradient descent for constrained least squares, with local
convergence certificates: asymptotic rates, regions of linear convergence,
optimal step sizes, and iteration bounds, checked against measured runs."""

from .analysis import (
    ConvergenceReport,
    analyze_fixed_point,
    eigendecompose,
    exp_integral_e1,
    gradient_contraction,
    iteration_bound,
    iterations_to_accuracy,
    optimal_step,
    quadratic_coefficient,
    convergence_radius,
    transient_offset,
)
from .applications import (
    ApplicationReport,
    analyze_iht,
    analyze_lcls,
    analyze_mcp,
    analyze_problem,
    analyze_sphere,
    mcp_problem,
)
from .constraints import (
    AffineConstraint,
    Constraint,
    Linearization,
    LowRankConstraint,
    SparsityConstraint,
    SphereConstraint,
    constraint_from_json,
    finite_difference_check,
    quadratic_bound_margin,
    rank_tangent_basis,
)
from .empirics import (
    RateEstimate,
    default_etas,
    estimate_rate,
    make_instance,
    run_experiment,
)
from .engine import (
    Problem,
    Trace,
    TraceBlock,
    run_pgd,
)
from .errors import (
    ConstraintDomainError,
    DivergenceError,
    GenerationError,
    InfeasibleStartWarning,
    NoCertificateError,
    NonUniqueProjectionWarning,
    ProblemFileError,
    RateEstimationError,
    StationarityError,
)
from .problem_io import load_problem, save_problem

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
