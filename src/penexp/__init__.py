"""Penalized regression estimators, their first-order expansions, and a
seeded simulation harness for checking error rates, risk identities,
confidence-interval coverage, cone membership and sparsity."""

from .cones import (
    GroupCone,
    LassoCone,
    group_cone,
    group_penalty_level,
    lasso_cone,
    lasso_penalty_level,
    minimax_rate,
)
from .diagnostics import (
    InferenceReport,
    RiskIdentityReport,
    debiased_estimate,
    prox_risk_mc,
    risk_identity_check,
    sparsity_constant,
    sparsity_count,
)
from .harness import (
    ExperimentConfig,
    GridPoint,
    parse_config,
    rate_fit,
    run_experiment,
)
from .losses import (
    LOGISTIC,
    SQUARED,
    LogisticLoss,
    SquaredLoss,
    curvature_matrix,
    get_loss,
    norm_ratio_bound,
)
from .model import (
    CovarianceModel,
    Dataset,
    GroupStructure,
    flat_signal,
    generate_design,
    generate_linear,
    generate_logistic,
    load_dataset,
    noise_scale,
    save_dataset,
    stream_rng,
)
from .penalties import (
    GroupPenalty,
    L1BallConstraint,
    L1Penalty,
    project_l1_ball,
    soft_threshold,
)
from .solver import (
    SolverConfig,
    SolverResult,
    expansion_center,
    fit_expansion,
    fit_penalized,
    smooth_gradient,
)

__all__ = [
    "CovarianceModel", "Dataset", "GroupStructure",
    "flat_signal", "generate_design", "generate_linear", "generate_logistic",
    "load_dataset", "noise_scale", "save_dataset", "stream_rng",
    "LOGISTIC", "SQUARED", "LogisticLoss", "SquaredLoss",
    "curvature_matrix", "get_loss", "norm_ratio_bound",
    "GroupPenalty", "L1BallConstraint", "L1Penalty", "project_l1_ball",
    "soft_threshold",
    "SolverConfig", "SolverResult", "expansion_center", "fit_expansion",
    "fit_penalized", "smooth_gradient",
    "GroupCone", "LassoCone", "group_cone", "group_penalty_level",
    "lasso_cone", "lasso_penalty_level", "minimax_rate",
    "InferenceReport", "RiskIdentityReport", "debiased_estimate",
    "prox_risk_mc", "risk_identity_check", "sparsity_constant",
    "sparsity_count",
    "ExperimentConfig", "GridPoint", "parse_config", "rate_fit",
    "run_experiment",
]
