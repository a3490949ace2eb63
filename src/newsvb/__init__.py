"""Variational Bayes decision rules for the data-driven newsvendor.

Exposes the demand model, the quadrature posterior oracle, the log-normal
variational engine, the NVB/LCVB/Bayes decision rules, and the consistency
experiment harness.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ConstantRisk,
    NewsvendorModel,
    NewsvendorRisk,
    Observations,
    fisher_information,
    log_likelihood,
    log_prior,
    loss,
    risk,
    sample_demand,
    true_optimal_action,
)
from .numerics import NumericalError  # noqa: F401
from .vb import (  # noqa: F401
    CalibratedObjective,
    FitDiagnostics,
    FitSettings,
    LogNormalVariational,
    calibrated_objective,
    elbo,
    elbo_gradient,
    fit_lcvb,
    fit_nvb,
    kl_decomposition_check,
    variational_variance,
)
from .decisions import (  # noqa: F401
    DecisionOutcome,
    Rule,
    expected_risk_under_q,
    lcvb_decide,
    nvb_decide,
    optimality_gap,
)
from .oracle import (  # noqa: F401
    PosteriorGrid,
    bayes_decision,
    build_posterior,
    calibrated_posterior_density,
    mle,
    posterior_expected_risk,
)
from .experiment import (  # noqa: F401
    ExperimentConfig,
    QuantileCurve,
    estimate_rate,
    reference_config,
    run_experiment,
    simulate_path,
    write_results,
)
