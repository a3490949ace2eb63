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
