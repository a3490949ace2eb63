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
    NewsvendorRisk,
    Observations,
    Risk,
    risk,
    true_optimal_action,
    validate_action,
)
from .numerics import (
    NumericalError,
    gauss_hermite_standard,
    golden_section_minimize,
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
    "nvb_decide",
    "decide_with_variational",
    "lcvb_decide",
    "optimality_gap",
]

ACTION_GRID_POINTS = 512
ACTION_TOLERANCE = 1e-8
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


def expected_risk_under_q(a, q: LogNormalVariational, model: NewsvendorModel, node_count: int = 64):
    """Predicted expected cost H_q(a) = E_q[G(a, theta)] by Gauss-Hermite.

    ``a`` may be one action or an array of actions; the result has its shape.
    """
    validate_action(a, model)
    a = np.asarray(a, dtype=float)
    z, w = gauss_hermite_standard(node_count)
    theta = np.exp(q.mu + q.sigma * z)
    values = NewsvendorRisk(model.h, model.b).value(a[..., None], theta)
    out = np.einsum("...i,i->...", values, w)  # same sum per action at any a.shape
    return out if a.ndim else float(out)


def decide_with_variational(
    q: LogNormalVariational,
    model: NewsvendorModel,
    diagnostics: FitDiagnostics | None = None,
) -> DecisionOutcome:
    """Minimize H_q over the action interval for an already fitted q."""
    lo, hi = model.action_interval

    def objective(a):
        return expected_risk_under_q(a, q, model)

    action, value, probes = minimize_on_grid_then_golden(
        objective, lo, hi, ACTION_GRID_POINTS, ACTION_TOLERANCE
    )
    return DecisionOutcome(
        action=action,
        objective_value=value,
        rule=Rule.NVB,
        inner_fit=diagnostics,
        probe_count=probes,
    )


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

    The outer minimization scans a coarse action grid and refines the best
    cell by golden section; every inner maximization is one ascent
    warm-started from the nearest previously solved action (the first
    from the plain variational fit). Inner failures invalidate single
    probes; the rule aborts only when every probe fails. ``risk=None``
    uses the model's newsvendor risk.
    """
    settings = settings or FitSettings()
    lo, hi = model.action_interval
    if nvb_start is None:
        q_warm, _ = fit_nvb(data, model, settings)
    else:
        q_warm = nvb_start

    solved: list[tuple[float, LogNormalVariational, float, FitDiagnostics]] = []
    failures = 0

    def inner_max(a: float) -> float:
        nonlocal failures
        if solved:
            nearest = min(solved, key=lambda entry: abs(entry[0] - a))
            start = nearest[1]
        else:
            start = q_warm
        try:
            q_a, diag = fit_lcvb(a, data, model, grid, settings, risk=risk, initial=start)
            objective = calibrated_objective(
                a, q_a, data, model, grid, risk=risk, node_count=settings.node_count
            )
        except NumericalError:
            failures += 1
            return math.inf  # invalid probe, excluded from the argmin
        solved.append((a, q_a, objective.value, diag))
        return objective.value

    coarse = np.linspace(lo, hi, LCVB_COARSE_POINTS)
    coarse_values = np.array([inner_max(a) for a in coarse])
    if not np.any(np.isfinite(coarse_values)):
        raise NumericalError("every outer action probe failed its inner fit")
    k = int(np.argmin(coarse_values))
    bracket_lo = float(coarse[max(k - 1, 0)])
    bracket_hi = float(coarse[min(k + 1, LCVB_COARSE_POINTS - 1)])
    if bracket_hi - bracket_lo > LCVB_OUTER_TOLERANCE:
        golden_section_minimize(inner_max, bracket_lo, bracket_hi, LCVB_OUTER_TOLERANCE)

    best_a, _, best_value, best_diag = min(solved, key=lambda entry: (entry[2], entry[0]))
    return DecisionOutcome(
        action=best_a,
        objective_value=best_value,
        rule=Rule.LCVB,
        inner_fit=best_diag,
        probe_count=len(solved) + failures,
    )


def optimality_gap(outcome: DecisionOutcome, model: NewsvendorModel) -> tuple[float, float]:
    """(|a - a0*|, regret G(a, theta0) - G(a0*, theta0)) against the true rate."""
    a_star = true_optimal_action(model)
    gap_action = abs(outcome.action - a_star)
    gap_regret = risk(outcome.action, model.theta0, model) - risk(a_star, model.theta0, model)
    return gap_action, max(gap_regret, 0.0)
