"""Decision rules: two-stage naive VB and the nested min-max calibrated rule.

The naive rule fits one variational posterior and then minimizes the
predicted expected cost H_q(a) = E_q[G(a, theta)] over the action interval.
The calibrated rule solves, for each candidate action, an inner fit of the
loss-calibrated objective and minimizes the resulting inner maximum over
actions, warm-starting each inner fit from the nearest solved neighbour.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    NewsvendorModel,
    Observations,
    Risk,
    expected_risk,
    risk,
    true_optimal_action,
)
from .numerics import (
    NumericalError,
    gauss_hermite_standard,
    golden_section_minimize,  # noqa: F401 - unused here; perfbench/tracing.py wraps this name
    minimize_on_grid_then_golden,
)
from .vb import (
    FitDiagnostics,
    FitSettings,
    LogNormalVariational,
    calibrated_objective,
    fit_lcvb,
    fit_nvb,
)

if TYPE_CHECKING:  # pragma: no cover
    from .oracle import PosteriorGrid

__all__ = [
    "Rule",
    "DecisionOutcome",
    "expected_risk_under_q",
    "decide_on_measure",
    "nvb_decide",
    "decide_with_variational",
    "lcvb_decide",
    "optimality_gap",
]

LCVB_COARSE_POINTS = 33
LCVB_OUTER_TOLERANCE = 1e-4


class Rule(enum.Enum):
    NVB = "NVB"
    LCVB = "LCVB"
    BAYES = "BAYES"


@dataclass(frozen=True)
class DecisionOutcome:
    action: float
    objective_value: float
    rule: Rule
    inner_fit: FitDiagnostics | None = None
    probe_count: int = 0


def _gauss_hermite_measure(q: LogNormalVariational, node_count: int = 64):
    """q as a discrete measure: (rate nodes, weights) of Gauss-Hermite quadrature."""
    z, w = gauss_hermite_standard(node_count)
    return np.exp(q.mu + q.sigma * z), w


def expected_risk_under_q(a, q: LogNormalVariational, model: NewsvendorModel, node_count: int = 64):
    """Predicted expected cost H_q(a) = E_q[G(a, theta)] by Gauss-Hermite.

    ``a`` may be one action or an array of actions; the result has its shape.
    """
    return expected_risk(a, *_gauss_hermite_measure(q, node_count), model)


def decide_on_measure(
    theta, weights, model: NewsvendorModel, rule: Rule, inner_fit: FitDiagnostics | None = None
) -> DecisionOutcome:
    """Minimize sum_i weights[i] * G(a, theta[i]) over the action interval.

    The naive rule passes q's Gauss-Hermite nodes and the Bayes rule the
    posterior grid; both run the same 512-point scan plus golden-section
    refinement to 1e-8, ties broken toward the smaller action.
    """
    lo, hi = model.action_interval
    action, value, probes = minimize_on_grid_then_golden(
        lambda a: expected_risk(a, theta, weights, model), lo, hi
    )
    return DecisionOutcome(action, value, rule, inner_fit, probes)


def decide_with_variational(
    q: LogNormalVariational,
    model: NewsvendorModel,
    diagnostics: FitDiagnostics | None = None,
) -> DecisionOutcome:
    """Minimize H_q over the action interval for an already fitted q."""
    return decide_on_measure(*_gauss_hermite_measure(q), model, Rule.NVB, diagnostics)


def nvb_decide(
    data: Observations,
    model: NewsvendorModel,
    settings: FitSettings | None = None,
) -> DecisionOutcome:
    """Two-stage rule: fit q once, then minimize the predicted expected cost.

    A fit that misses the gradient tolerance is reported in the outcome's
    diagnostics rather than raised; the best iterate still decides.
    """
    q, diagnostics = fit_nvb(data, model, settings)
    return decide_with_variational(q, model, diagnostics)


def lcvb_decide(
    data: Observations,
    model: NewsvendorModel,
    grid: "PosteriorGrid",
    settings: FitSettings | None = None,
    risk: Risk | None = None,
    nvb_start: LogNormalVariational | None = None,
) -> DecisionOutcome:
    """Nested min-max rule over (action, variational member).

    The outer minimization is ``minimize_on_grid_then_golden`` with a
    33-point scan and a 1e-4 golden tolerance. Every inner maximization is
    one ascent warm-started from the nearest previously solved action (the
    first from the plain variational fit); the scan's points are solved
    left to right, so each starts from its left neighbour. Probes rank by
    the ascent's own maximum ELBO + E_q[log G], since the log evidence is
    constant in the action; ``grid`` enters once, in the chosen action's
    calibrated objective, which also checks that it matches the data.
    Inner failures invalidate single probes; the rule aborts only when
    every probe fails. ``risk=None`` uses the model's newsvendor risk.
    """
    settings = settings or FitSettings()
    q_warm = fit_nvb(data, model, settings)[0] if nvb_start is None else nvb_start

    solved: dict[float, tuple[LogNormalVariational, FitDiagnostics]] = {}

    def inner_max(a: float) -> float:
        start = solved[min(solved, key=lambda b: abs(b - a))][0] if solved else q_warm
        try:
            solved[a] = fit_lcvb(a, data, model, settings, risk=risk, initial=start)
        except NumericalError:
            return math.inf  # invalid probe, never the minimum
        return solved[a][1].objective

    def outer(a):
        if np.ndim(a):  # the coarse scan, an increasing array
            return [inner_max(float(x)) for x in a]
        return inner_max(a)

    lo, hi = model.action_interval
    action, value, probes = minimize_on_grid_then_golden(
        outer, lo, hi, LCVB_COARSE_POINTS, LCVB_OUTER_TOLERANCE
    )
    if not math.isfinite(value):
        raise NumericalError("every outer action probe failed its inner fit")
    q, diagnostics = solved[action]
    objective = calibrated_objective(action, q, data, model, grid, risk, settings.node_count)
    return DecisionOutcome(action, objective.value, Rule.LCVB, diagnostics, probes)


def optimality_gap(outcome: DecisionOutcome, model: NewsvendorModel) -> tuple[float, float]:
    """(|a - a0*|, regret G(a, theta0) - G(a0*, theta0)) against the true rate."""
    a_star = true_optimal_action(model)
    gap_action = abs(outcome.action - a_star)
    gap_regret = risk(outcome.action, model.theta0, model) - risk(a_star, model.theta0, model)
    return gap_action, max(gap_regret, 0.0)
