"""Decision rules: two-stage naive VB and the nested min-max calibrated rule.

The naive rule fits one variational posterior and then minimizes the
predicted expected cost H_q(a) = E_q[G(a, theta)] over the action interval
at the root of its first-order condition, found by Newton's method.
The calibrated rule minimizes the inner maximum V(a) = max_q F(a, q) of the
loss-calibrated objective by a local root search on dV/da, which the
envelope theorem gives from each inner fit, starting at the naive action;
a global scan over actions is its fallback.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    NewsvendorModel,
    Observations,
    Risk,
    expected_risk,
    resolve_risk,
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
    "envelope_slope",
    "lcvb_decide",
    "optimality_gap",
]

LCVB_COARSE_POINTS = 33
LCVB_OUTER_TOLERANCE = 1e-4
LCVB_FIRST_STEP = 0.01
LCVB_ROOT_WIDTH = 1e-6
NVB_MAX_NEWTON_STEPS = 100

logger = logging.getLogger(__name__)


class Rule(enum.Enum):
    NVB = "NVB"
    LCVB = "LCVB"
    BAYES = "BAYES"


@dataclass(frozen=True)
class DecisionOutcome:
    """A rule's action; for NVB, ``q`` is the plain fit it was decided with."""

    action: float
    objective_value: float
    rule: Rule
    inner_fit: FitDiagnostics | None = None
    probe_count: int = 0
    q: LogNormalVariational | None = None


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
    """Minimize H(a) = sum_i weights[i] * G(a, theta[i]) over the action interval.

    For the newsvendor H'(a) = h*W - (b+h)*exp(psi(a)), with W = sum(weights)
    and psi(a) = log sum_i weights[i]*exp(-a*theta[i]); H is convex, so its
    minimizer is a_lo if psi(a_lo) <= c = log(h*W/(b+h)), a_hi if
    psi(a_hi) >= c, and otherwise the root of psi(a) = c. psi is convex and
    decreasing, so Newton's iterates from a_lo rise to that root without
    overshooting; they stop once a step is at most 1e-15*(1 + a), and 100
    steps without that raise ``NumericalError``. ``probe_count`` counts the
    evaluations of psi. The naive rule passes q's Gauss-Hermite nodes.
    """
    keep = weights > 0  # zero weights drop out of psi
    nodes, log_weights = theta[keep], np.log(weights[keep])
    evaluations = 0

    def psi(a: float) -> tuple[float, float]:
        """psi(a) and -psi'(a), the mean of theta under the tilted weights."""
        nonlocal evaluations
        evaluations += 1
        log_terms = log_weights - a * nodes
        peak = log_terms.max()
        terms = np.exp(log_terms - peak)
        total = terms.sum()
        return float(peak + math.log(total)), float(terms @ nodes / total)

    lo, hi = model.action_interval
    level = math.log(model.h * weights.sum() / (model.b + model.h))
    value, tilted_mean = psi(lo)
    if value <= level:
        action, where = lo, "at a_lo"
    elif psi(hi)[0] >= level:
        action, where = hi, "at a_hi"
    else:
        action, where = lo, "interior"
        for _ in range(NVB_MAX_NEWTON_STEPS):
            step = (value - level) / tilted_mean
            if step <= 1e-15 * (1.0 + action):
                break
            action = min(action + step, hi)
            value, tilted_mean = psi(action)
        else:
            raise NumericalError(
                f"{rule.value} first-order root not reached in {NVB_MAX_NEWTON_STEPS} Newton steps"
            )
    action = float(action)
    logger.debug(
        "%s action %.9g after %d psi evaluations, %s", rule.value, action, evaluations, where
    )
    return DecisionOutcome(
        action, expected_risk(action, theta, weights, model), rule, inner_fit, evaluations
    )


def decide_with_variational(
    q: LogNormalVariational,
    model: NewsvendorModel,
    diagnostics: FitDiagnostics | None = None,
) -> DecisionOutcome:
    """Minimize H_q over the action interval for an already fitted q."""
    outcome = decide_on_measure(*_gauss_hermite_measure(q), model, Rule.NVB, diagnostics)
    return replace(outcome, q=q)


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


def envelope_slope(a: float, q: LogNormalVariational, risk: Risk, node_count: int = 64) -> float:
    """E_q[dG/da / G] by Gauss-Hermite, raising ``NumericalError`` if not finite.

    At the inner maximizer q*(a) of F(a, .) this is dV/da for
    V(a) = max_q F(a, q), by the envelope theorem.
    """
    theta, weights = _gauss_hermite_measure(q, node_count)
    value = float(weights @ (risk.action_slope(a, theta) / risk.value(a, theta)))
    if not math.isfinite(value):
        raise NumericalError(f"envelope slope is {value} at a={a:.6g}")
    return value


def _envelope_root(slope, a0: float, lo: float, hi: float) -> float:
    """Where ``slope`` turns from negative to nonnegative next to ``a0``: doubling
    steps downhill bracket the sign change (``NumericalError`` if lo or hi comes
    first), then Illinois regula falsi, bisecting when an interpolate is not
    strictly inside, narrows it to LCVB_ROOT_WIDTH. Returns the last point."""
    b, sb, step = a0, slope(a0), LCVB_FIRST_STEP
    rightward = sb < 0
    while (sb >= 0) != rightward:  # no sign change yet
        if b == (hi if rightward else lo):
            raise NumericalError(f"no sign change of the envelope slope up to a={b:.6g}")
        a, s = b, sb
        b = min(a + step, hi) if rightward else max(a - step, lo)
        sb, step = slope(b), 2 * step
    (left, s_left), (right, s_right) = sorted([(a, s), (b, sb)])
    last, side = b, 0
    while right - left > LCVB_ROOT_WIDTH:
        last = right - s_right * (right - left) / (s_right - s_left)
        if not left < last < right:
            last = 0.5 * (left + right)
        s = slope(last)
        if s < 0:  # Illinois: when one end moves twice running, halve the other's slope
            s_right *= 0.5 if side < 0 else 1.0
            left, s_left, side = last, s, -1
        else:
            s_left *= 0.5 if side > 0 else 1.0
            right, s_right, side = last, s, 1
    return last


def lcvb_decide(
    data: Observations,
    model: NewsvendorModel,
    grid: "PosteriorGrid",
    settings: FitSettings | None = None,
    risk: Risk | None = None,
    nvb_start: DecisionOutcome | None = None,
) -> DecisionOutcome:
    """Nested min-max rule: min_a V(a), V(a) = max_q F(a, q).

    ``_envelope_root`` follows ``envelope_slope`` from the naive action,
    ``nvb_start`` (an NVB outcome with its q) or else ``nvb_decide``'s;
    each inner fit is one ascent warm-started from the nearest solved
    action (the first from the plain fit). A local search sees one minimum
    only: if a fit fails, the slope is not finite or no sign change lies
    before the interval's end, a 33-point scan plus golden refinement to
    1e-4 ranks inner maxima instead, where failed fits only void their
    probe. ``probe_count`` counts every inner fit. ``grid`` enters once,
    in the chosen action's calibrated objective, which checks that it
    matches the data. ``risk=None`` uses the model's newsvendor risk.
    """
    settings = settings or FitSettings()
    risk = resolve_risk(risk, model)
    nvb = nvb_decide(data, model, settings) if nvb_start is None else nvb_start
    q_warm, a0 = nvb.q, nvb.action
    solved: dict[float, tuple[LogNormalVariational, FitDiagnostics]] = {}
    fits = 0

    def solve(a: float) -> tuple[LogNormalVariational, FitDiagnostics]:
        nonlocal fits
        start = solved[min(solved, key=lambda b: abs(b - a))][0] if solved else q_warm
        fits += 1
        solved[a] = fit_lcvb(a, data, model, settings, risk=risk, initial=start)
        return solved[a]

    def slope(a: float) -> float:
        return envelope_slope(a, solve(a)[0], risk, settings.node_count)

    def outer(a):
        if np.ndim(a):  # the coarse scan, an increasing array
            return [outer(float(x)) for x in a]
        try:
            return solve(a)[1].objective
        except NumericalError:
            return math.inf  # invalid probe, never the minimum

    lo, hi = model.action_interval
    try:
        action, how = _envelope_root(slope, a0, lo, hi), "local"
    except NumericalError as exc:
        how = f"scan fallback: {exc}"
        solved.clear()  # the scan warm-starts from the plain fit alone
        action, value, _ = minimize_on_grid_then_golden(
            outer, lo, hi, LCVB_COARSE_POINTS, LCVB_OUTER_TOLERANCE
        )
        if not math.isfinite(value):
            raise NumericalError("every outer action probe failed its inner fit") from exc
    q, diagnostics = solved[action]
    objective = calibrated_objective(action, q, data, model, grid, risk, settings.node_count)
    logger.debug("LCVB action %.9g after %d inner fits, %s", action, fits, how)
    return DecisionOutcome(action, objective.value, Rule.LCVB, diagnostics, fits)


def optimality_gap(outcome: DecisionOutcome, model: NewsvendorModel) -> tuple[float, float]:
    """(|a - a0*|, regret G(a, theta0) - G(a0*, theta0)) against the true rate."""
    a_star = true_optimal_action(model)
    gap_action = abs(outcome.action - a_star)
    gap_regret = risk(outcome.action, model.theta0, model) - risk(a_star, model.theta0, model)
    return gap_action, max(gap_regret, 0.0)
