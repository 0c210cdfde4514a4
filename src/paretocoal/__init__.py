"""Coalescents from normalized heavy-tailed sampling.

Monte Carlo estimators for the finite-population merger process, exact
limit rate tables and transition matrices, simulators for the limiting
coalescents, stable-limit scaling constants for heavy-tailed sums, and the
forward branching model with top-N selection whose genealogy these
coalescents describe.
"""

__version__ = "0.1.0"

from .finite_mc import (
    BlockState,
    DiscreteTrajectory,
    PartitionModel,
    estimate_c_N,
    estimate_c_N_conditional,
    estimate_p_ij,
    estimate_p_row,
    estimate_p_rows_nested,
    run_discrete_coalescent,
)
from .forward import (
    ForwardConfig,
    ForwardState,
    fittest_stats,
    initial_state,
    legendre,
    pressure,
    speed_estimate,
    step,
    trajectory,
)
from .rates import (
    Params,
    RateTable,
    block_loss_rate,
    build_rate_table,
    c_N_asymptotic,
    comes_down_diagnostic,
    kingman_rate,
    lambda_rate,
    lambda_row,
    mean_first_collision_size,
    stirling_case_matrix,
    total_rate,
    xi_transition_matrix,
)
from .regression import ScalingFit, ScalingPoint, fit_c_N_scaling
from .samplers import (
    GcltConstants,
    RngStream,
    SumStats,
    frechet_sample,
    gclt_constants,
    pareto_sample,
    poisson_arrivals,
    standardized_sum_stats,
)
from .simulate import (
    DiscreteFunctionals,
    TreeFunctionals,
    functional_scaling_report,
    kingman_functionals,
    simulate_lambda,
    simulate_xi,
)
from .weighted import WeightedEstimate

__all__ = [
    "__version__",
    "BlockState",
    "DiscreteFunctionals",
    "DiscreteTrajectory",
    "ForwardConfig",
    "ForwardState",
    "GcltConstants",
    "Params",
    "PartitionModel",
    "RateTable",
    "RngStream",
    "ScalingFit",
    "ScalingPoint",
    "SumStats",
    "TreeFunctionals",
    "WeightedEstimate",
    "block_loss_rate",
    "build_rate_table",
    "c_N_asymptotic",
    "comes_down_diagnostic",
    "estimate_c_N",
    "estimate_c_N_conditional",
    "estimate_p_ij",
    "estimate_p_row",
    "estimate_p_rows_nested",
    "fit_c_N_scaling",
    "fittest_stats",
    "frechet_sample",
    "functional_scaling_report",
    "gclt_constants",
    "initial_state",
    "kingman_functionals",
    "kingman_rate",
    "lambda_rate",
    "lambda_row",
    "legendre",
    "mean_first_collision_size",
    "pareto_sample",
    "poisson_arrivals",
    "pressure",
    "run_discrete_coalescent",
    "simulate_lambda",
    "simulate_xi",
    "speed_estimate",
    "standardized_sum_stats",
    "step",
    "stirling_case_matrix",
    "total_rate",
    "trajectory",
    "xi_transition_matrix",
]
