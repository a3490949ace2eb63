"""Decision rules: two-stage naive VB and the nested min-max calibrated rule.

The naive rule fits one variational posterior and then minimizes the
predicted expected cost H_q(a) = E_q[G(a, theta)] over the action interval
at the root of its first-order condition, found by Newton's method.
The calibrated rule minimizes the inner maximum V(a) = max_q F(a, q) of the
loss-calibrated objective by Newton's method on dV/da, starting at the
naive action. Each inner fit's last kernel pass gives the search what it
reads: dV/da = F_a at the maximizer q*(a) (the envelope theorem), the
tangent dq*/da = -F_qq^{-1} F_qa, along which the next fit's start is
predicted, and d^2V/da^2 = F_aa + F_aq . dq*/da (the implicit function
theorem), whose sign certifies the minimum. A global scan over actions is
the fallback.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .model import (
    NewsvendorModel,
    Observations,
    Risk,
    expected_risk,
    resolve_risk,
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
    "decide_across_h",
    "decide_with_variational",
    "lcvb_decide",
    "optimality_gap",
]

LCVB_COARSE_POINTS = 33
LCVB_OUTER_TOLERANCE = 1e-4
LCVB_MAX_NEWTON_STEPS = 50
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
    theta,
    weights,
    models: Sequence[NewsvendorModel],
    rule: Rule,
    inner_fit: FitDiagnostics | None = None,
    q: LogNormalVariational | None = None,
) -> list[DecisionOutcome | NumericalError]:
    """Minimize H(a) = sum_i weights[i] * G(a, theta[i]) for each model.

    The models must differ only in h (``ValueError`` otherwise). For the
    newsvendor H'(a) = h*W - (b+h)*exp(psi(a)), with W = sum(weights) and
    psi(a) = log sum_i weights[i]*exp(-a*theta[i]); H is convex, so its
    minimizer is a_lo if psi(a_lo) <= c_h = log(h*W/(b+h)), a_hi if
    psi(a_hi) >= c_h, and otherwise the root of psi(a) = c_h. psi is
    convex, decreasing and the same for every h, so one pass gives every row
    psi(a_lo) and psi(a_hi), and Newton's iterates from a_lo rise to each
    row's root without overshooting, in one (rows, nodes) pass per step over
    the rows still moving. A row stops once its step is at most
    1e-15*(1 + a); a row still moving after 100 steps gets a
    ``NumericalError`` in its place, which fails it alone.
    ``probe_count`` counts the evaluations of psi that a row used. The
    naive rule passes q's Gauss-Hermite nodes, and q and ``inner_fit`` to
    record in each outcome.
    """
    first = models[0]
    fixed = vars(first) | {"h": None}  # every field but h
    if any(vars(model) | {"h": None} != fixed for model in models):
        raise ValueError("models decided on one measure must differ only in h")
    keep = weights > 0  # zero weights drop out of psi
    nodes, log_weights = theta[keep], np.log(weights[keep])

    def psi(actions: list[float]) -> tuple[list[float], list[float]]:
        """psi and -psi', the mean of theta under the tilted weights, at each
        action, in one (actions, nodes) pass."""
        terms = log_weights - np.array(actions)[:, None] * nodes
        peak = np.maximum.reduce(terms, axis=1, keepdims=True)
        terms -= peak
        np.exp(terms, out=terms)
        total = np.add.reduce(terms, axis=1)  # row sums, unlike BLAS, ignore the row count
        mean = np.add.reduce(terms * nodes, axis=1) / total
        return (peak[:, 0] + np.log(total)).tolist(), mean.tolist()

    lo, hi = (float(end) for end in first.action_interval)
    total_weight = weights.sum()
    levels = [math.log(model.h * total_weight / (model.b + model.h)) for model in models]
    (value_lo, value_hi), (mean_lo, _) = psi([lo, hi])  # one pass; a row at a_lo uses one
    where = [
        "at a_lo" if value_lo <= level else "at a_hi" if value_hi >= level else "interior"
        for level in levels
    ]
    action = [hi if w == "at a_hi" else lo for w in where]
    evaluations = [1 if w == "at a_lo" else 2 for w in where]
    # The rows still moving, with psi and the tilted mean at their action.
    moving = {row: (value_lo, mean_lo) for row, w in enumerate(where) if w == "interior"}
    for _ in range(NVB_MAX_NEWTON_STEPS):
        for row, (value, tilted_mean) in list(moving.items()):
            step = (value - levels[row]) / tilted_mean
            if step <= 1e-15 * (1.0 + action[row]):
                del moving[row]
            else:
                action[row] = min(action[row] + step, hi)
                evaluations[row] += 1
        if not moving:
            break
        rows = list(moving)
        values, tilted_means = psi([action[row] for row in rows])
        moving = dict(zip(rows, zip(values, tilted_means)))
    # NewsvendorRisk.value's arithmetic with one h per row, summed as in expected_risk.
    actions = np.array(action)[:, None]
    h = np.array([model.h for model in models])[:, None]
    log_scale = np.array([math.log(first.b + model.h) for model in models])[:, None]
    values = np.exp((log_scale - np.log(theta)) - actions * theta)
    values += h * actions
    values -= h / theta
    objective = np.einsum("...i,i->...", values, weights).tolist()
    outcomes: list[DecisionOutcome | NumericalError] = []
    for row, model in enumerate(models):
        if row in moving:  # still moving after the last step
            outcomes.append(
                NumericalError(
                    f"{rule.value} first-order root not reached in {NVB_MAX_NEWTON_STEPS} "
                    f"Newton steps at h={model.h:g}"
                )
            )
            continue
        a, count, end = action[row], evaluations[row], where[row]
        logger.debug("%s action %.9g after %d psi evaluations, %s", rule.value, a, count, end)
        outcomes.append(DecisionOutcome(a, objective[row], rule, inner_fit, count, q))
    return outcomes


def decide_across_h(
    q: LogNormalVariational,
    models: Sequence[NewsvendorModel],
    diagnostics: FitDiagnostics | None = None,
) -> list[DecisionOutcome | NumericalError]:
    """``decide_on_measure`` on q's nodes for models that differ only in h."""
    return decide_on_measure(*_gauss_hermite_measure(q), models, Rule.NVB, diagnostics, q)


def decide_with_variational(
    q: LogNormalVariational,
    model: NewsvendorModel,
    diagnostics: FitDiagnostics | None = None,
) -> DecisionOutcome:
    """Minimize H_q over the action interval for an already fitted q."""
    (outcome,) = decide_across_h(q, [model], diagnostics)
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


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


def _along_tangent(
    q: LogNormalVariational, tangent: tuple[float, float], step: float
) -> LogNormalVariational | None:
    """q moved by ``step`` in a along its tangent (dmu/da, drho/da), or None
    when the move leaves the family."""
    try:
        sigma = math.exp(math.log(q.sigma) + tangent[1] * step)
        return LogNormalVariational(q.mu + tangent[0] * step, sigma)
    except (OverflowError, ValueError):
        return None


def lcvb_decide(
    data: Observations,
    model: NewsvendorModel,
    grid: "PosteriorGrid",
    settings: FitSettings | None = None,
    risk: Risk | None = None,
    nvb_start: DecisionOutcome | None = None,
) -> DecisionOutcome:
    """Nested min-max rule: min_a V(a), V(a) = max_q F(a, q).

    Newton's method on the envelope slope dV/da = F_a, from the naive
    action (``nvb_start``, an NVB outcome with its q, or else
    ``nvb_decide``'s): each inner fit reports F_a and the envelope curvature
    V'' of its maximizer, and the next action is a - F_a/V'' clamped to the
    action interval. The search stops at the fitted action once
    |F_a|/V'' <= 1e-9*(1 + a), or once the clamped step leaves it at an
    interval end, where F_a then points out of the interval; V'' > 0 there
    certifies a local minimum of V. Each inner fit is one ascent from the
    previous member moved along its tangent to the new action (the first
    from the naive fit). The unmoved member is the start instead, counted as
    a cold start, when the move leaves the family or the fit from the moved
    start raises (its objective is not finite there, say). A local search
    sees one minimum only: if a fit fails, F_a is not finite, V'' is not
    positive and finite, or 50 steps do not stop, a 33-point scan plus
    golden refinement to 1e-4 ranks inner maxima instead, each fit started
    from the nearest member the scan solved, where failed fits only void
    their probe. ``probe_count`` counts every inner fit. ``grid`` enters
    once, in the chosen action's calibrated objective, which checks that it
    matches the data. ``risk=None`` uses the model's newsvendor risk.
    """
    settings = settings or FitSettings()
    risk = resolve_risk(risk, model)
    nvb = nvb_decide(data, model, settings) if nvb_start is None else nvb_start
    fits = iterations = cold_starts = 0

    def solve(a: float, start: LogNormalVariational, predicted=None):
        """The inner fit at ``a`` from ``predicted``, or from ``start`` when
        there is no prediction or the fit from it raises."""
        nonlocal fits, iterations, cold_starts
        fits += 1
        initial = start if predicted is None else predicted
        try:
            q, fit = fit_lcvb(a, data, model, settings, risk=risk, initial=initial)
        except NumericalError:
            if predicted is None:
                raise
            cold_starts += 1
            q, fit = fit_lcvb(a, data, model, settings, risk=risk, initial=start)
        iterations += fit.iterations
        return q, fit

    def newton() -> tuple[float, LogNormalVariational, FitDiagnostics]:
        nonlocal cold_starts
        a = nvb.action
        q, fit = solve(a, nvb.q)
        for _ in range(LCVB_MAX_NEWTON_STEPS):
            slope, curvature = fit.envelope_slope, fit.envelope_curvature
            if not math.isfinite(slope):
                raise NumericalError(f"envelope slope is {slope} at a={a:.6g}")
            if not (curvature is not None and 0.0 < curvature < math.inf):
                raise NumericalError(f"envelope curvature is {curvature} at a={a:.6g}")
            target = min(max(a - slope / curvature, lo), hi)
            if abs(slope) <= 1e-9 * (1.0 + a) * curvature or target == a:
                return a, q, fit
            predicted = _along_tangent(q, fit.tangent, target - a)
            cold_starts += predicted is None
            a, (q, fit) = target, solve(target, q, predicted)
        raise NumericalError(f"no envelope root in {LCVB_MAX_NEWTON_STEPS} Newton steps")

    solved: dict[float, tuple[LogNormalVariational, FitDiagnostics]] = {}

    def outer(a):
        if np.ndim(a):  # the coarse scan, an increasing array
            return [outer(float(x)) for x in a]
        start = solved[min(solved, key=lambda b: abs(b - a))][0] if solved else nvb.q
        try:
            solved[a] = solve(a, start)
        except NumericalError:
            return math.inf  # invalid probe, never the minimum
        return solved[a][1].objective

    lo, hi = model.action_interval
    try:
        action, q, diagnostics = newton()
        how = "local"
    except NumericalError as exc:
        how = f"scan fallback: {exc}"
        action, value, _ = minimize_on_grid_then_golden(
            outer, lo, hi, LCVB_COARSE_POINTS, LCVB_OUTER_TOLERANCE
        )
        if not math.isfinite(value):
            raise NumericalError("every outer action probe failed its inner fit") from exc
        q, diagnostics = solved[action]
    objective = calibrated_objective(action, q, data, model, grid, risk, settings.node_count)
    logger.debug(
        "LCVB action %.9g after %d inner fits (%d iterations, %d cold starts), %s",
        action, fits, iterations, cold_starts, how,
    )
    return DecisionOutcome(action, objective.value, Rule.LCVB, diagnostics, fits)


def optimality_gap(outcome: DecisionOutcome, model: NewsvendorModel) -> tuple[float, float]:
    """(|a - a0*|, regret G(a, theta0) - G(a0*, theta0)) against the true rate.

    In float arithmetic, associated as ``NewsvendorRisk.value``; a negative
    action raises ``ValueError`` as ``risk`` does.
    """
    a_star = true_optimal_action(model)
    if outcome.action < 0:
        raise ValueError("action a must be nonnegative")
    h, theta = model.h, model.theta0
    log_scale = math.log(model.b + h) - math.log(theta)

    def cost(a: float) -> float:
        try:
            tail = math.exp(log_scale - a * theta)
        except OverflowError:  # where numpy's exp, and so ``risk``, gives inf
            tail = math.inf
        return tail + h * a - h / theta

    return abs(outcome.action - a_star), max(cost(outcome.action) - cost(a_star), 0.0)
