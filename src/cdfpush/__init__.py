"""Exact propagation of probability distributions through the quadratic
interval map x -> r*x*(1-x), with closed-form checks and Monte Carlo
verification."""

__version__ = "0.1.0"

from .analysis import (
    convergence_table,
    fixed_point_residual,
    ks_band,
    ks_statistic,
    sup_distance,
)
from .distributions import (
    Cdf,
    DistSpec,
    cdf_beta,
    cdf_kumaraswamy,
    sample,
)
from .errors import (
    ConvergenceError,
    DegenerateOrbitError,
    DomainError,
    MonotonicityError,
    NumericsError,
    ParameterError,
    ResourceLimitError,
)
from .pushforward import (
    DEFAULT_GRID_SIZE,
    EXACT_ITERATION_LIMIT,
    iterate_pushforward,
    iterates,
    preimage_pair,
    pushforward_cdf,
    standard_grid,
    validate_map_param,
)
from .simulate import (
    ErgodicRun,
    Trajectory,
    ensemble_push,
    ergodic_empirical,
    trajectory,
)
from .verify import CheckResult, run_verification

__all__ = [
    "Cdf",
    "CheckResult",
    "ConvergenceError",
    "DEFAULT_GRID_SIZE",
    "DegenerateOrbitError",
    "DistSpec",
    "DomainError",
    "EXACT_ITERATION_LIMIT",
    "ErgodicRun",
    "MonotonicityError",
    "NumericsError",
    "ParameterError",
    "ResourceLimitError",
    "Trajectory",
    "cdf_beta",
    "cdf_kumaraswamy",
    "convergence_table",
    "ensemble_push",
    "ergodic_empirical",
    "fixed_point_residual",
    "iterate_pushforward",
    "iterates",
    "ks_band",
    "ks_statistic",
    "preimage_pair",
    "pushforward_cdf",
    "run_verification",
    "sample",
    "standard_grid",
    "sup_distance",
    "trajectory",
    "validate_map_param",
]
