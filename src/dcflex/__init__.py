"""dcflex: co-optimized data center scheduling and regulation bidding.

Day-ahead joint optimization of workload placement across geo-distributed
data centers (a space-time network) and frequency-regulation capacity
commitments with probabilistic deliverability guarantees, plus an
intra-slot delivery simulator that replays regulation signals against a
committed solution.
"""

__version__ = "0.1.0"

from .spacetime import SpaceTimeIndex, VirtualLink
from .signals import (
    GaussianEnvelope,
    RegulationTrace,
    VaRTable,
    build_var_table,
    cumulative_windows,
    empirical_quantile,
    fit_direct_gaussian,
    fit_gaussian_envelope,
    generate_trace,
    inverse_normal_cdf,
)
from .workload import (
    DataCenterSpec,
    JobCluster,
    LatencyMap,
    aggregate_load,
    baseline_assignment,
    effective_latency,
    qos_deviation,
)
from .grid import Bus, Generator, GridCase, Line, line_flow, power_balance_residual, validate_case
from .standard_form import LinearRow, StandardFormModel, Variable
from .simplex import LPResult, solve_lp
from .bnb import MIPResult, solve_mip
from .optimizer import (
    FittedSignal,
    InfeasibleModel,
    ModelConfig,
    ProblemInstance,
    QueueParameters,
    Solution,
    build_model,
    chance_coefficient,
    derived_link_flows,
    resolve_config,
    run_strategy,
    solve_model,
)
from .validate import ValidationReport, validate_solution
from .simulator import ScenarioResult, compliance_report, monte_carlo, simulate
from .instance import (
    GenParams,
    build_synthetic,
    fit_signal_artifacts,
    generate_instance,
    load_bundle,
    materialize_demo,
)

__all__ = [
    "SpaceTimeIndex",
    "VirtualLink",
    "GaussianEnvelope",
    "RegulationTrace",
    "VaRTable",
    "build_var_table",
    "cumulative_windows",
    "empirical_quantile",
    "fit_direct_gaussian",
    "fit_gaussian_envelope",
    "generate_trace",
    "inverse_normal_cdf",
    "DataCenterSpec",
    "JobCluster",
    "LatencyMap",
    "aggregate_load",
    "baseline_assignment",
    "effective_latency",
    "qos_deviation",
    "Bus",
    "Generator",
    "GridCase",
    "Line",
    "line_flow",
    "power_balance_residual",
    "validate_case",
    "LinearRow",
    "StandardFormModel",
    "Variable",
    "LPResult",
    "solve_lp",
    "MIPResult",
    "solve_mip",
    "FittedSignal",
    "InfeasibleModel",
    "ModelConfig",
    "ProblemInstance",
    "QueueParameters",
    "Solution",
    "build_model",
    "chance_coefficient",
    "derived_link_flows",
    "resolve_config",
    "run_strategy",
    "solve_model",
    "ValidationReport",
    "validate_solution",
    "ScenarioResult",
    "compliance_report",
    "monte_carlo",
    "simulate",
    "GenParams",
    "build_synthetic",
    "fit_signal_artifacts",
    "generate_instance",
    "load_bundle",
    "materialize_demo",
]
