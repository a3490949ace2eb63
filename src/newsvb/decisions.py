"""Decision rules: two-stage naive VB and the calibrated saddle-point rule.

The naive rule fits one variational posterior and then minimizes the
predicted expected cost H_q(a) = E_q[G(a, theta)] over the action interval
at the root of its first-order condition, found by Newton's method.
The calibrated rule finds the saddle point min_a max_q F(a, q) of the
loss-calibrated objective by Newton's method on F's gradient in
(a, mu, rho), from the naive action and member, reading every derivative
from one kernel pass per step. Its certificate is F_qq negative definite
and d^2V/da^2 = F_aa - F_aq F_qq^{-1} F_qa > 0 for V(a) = max_q F(a, q)
(the implicit function theorem), or at an interval end dV/da = F_a (the
envelope theorem) pointing outward. A global scan is the fallback.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    NewsvendorModel,
    Observations,
    Risk,
    expected_risk,
    newsvendor_expected_risk,
    resolve_risk,
    true_optimal_action,
)
from .numerics import (
    NumericalError,
    gauss_hermite_standard,
    golden_section_minimize,  # noqa: F401 - unused here; perfbench/tracing.py wraps this name
    minimize_on_grid_then_golden,
    newton_direction,
)
from .vb import (
    NODE_COUNT,
    TOLERANCE,
    FitDiagnostics,
    FitSettings,
    LogNormalVariational,
    _lcvb_objective,
    calibrated_objective,  # noqa: F401 - unused here; perfbench/tracing.py wraps this name
    fit_lcvb,
    fit_nvb,
)

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
    """A rule's action; ``q`` is the member NVB or LCVB decided with."""

    action: float
    objective_value: float
    rule: Rule
    inner_fit: FitDiagnostics | None = None
    probe_count: int = 0
    q: LogNormalVariational | None = None


def _gauss_hermite_measure(q: LogNormalVariational):
    """q as a discrete measure: (rate nodes, weights) of Gauss-Hermite quadrature."""
    z, w = gauss_hermite_standard(NODE_COUNT)
    return np.exp(q.mu + q.sigma * z), w


def expected_risk_under_q(a, q: LogNormalVariational, model: NewsvendorModel):
    """Predicted expected cost H_q(a) = E_q[G(a, theta)] by Gauss-Hermite.

    ``a`` may be one action or an array of actions; the result has its shape.
    """
    return expected_risk(a, *_gauss_hermite_measure(q), model)


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
    ``probe_count`` counts the evaluations of psi that a row used, and each
    row logs one debug line (BAYES rows excepted, for ``bayes_decision``
    logs its own). The naive rule passes q's Gauss-Hermite nodes, and q and
    ``inner_fit`` to record in each outcome; the Bayes oracle passes the
    posterior grid.
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
    # expected_risk's own sum, one h per row.
    hs = np.array([model.h for model in models])
    objective = newsvendor_expected_risk(np.array(action), hs, first.b, theta, weights).tolist()
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
        if rule is not Rule.BAYES:  # the oracle logs its root with the scan that checks it
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
    # Ignored: the fits read ``vb``'s constants. Kept because the benchmark's
    # workloads (perfbench/workloads.py) pass it.
    settings: FitSettings | None = None,
) -> DecisionOutcome:
    """Two-stage rule: fit q once, then minimize the predicted expected cost.

    A fit that misses the gradient tolerance is reported in the outcome's
    diagnostics rather than raised; the best iterate still decides.
    """
    q, diagnostics = fit_nvb(data, model)
    return decide_with_variational(q, model, diagnostics)


def _lcvb_scan(data: Observations, model: NewsvendorModel, risk, start):
    """The global LCVB search: a 33-point scan plus golden refinement to 1e-4
    of the maxima ``fit_lcvb`` reaches, each fit started from the member
    ``start`` or the nearest solved action's; a failed fit voids its probe.
    Returns the action, its (q, diagnostics), the fits made and their kernel
    passes, or raises ``NumericalError`` if every fit failed."""
    solved: dict[float, tuple[LogNormalVariational, FitDiagnostics]] = {}

    def inner(a: float) -> float:
        nearest = solved[min(solved, key=lambda b: abs(b - a))][0] if solved else start
        try:
            solved[a] = fit_lcvb(a, data, model, risk, nearest)
        except NumericalError:
            return math.inf  # invalid probe, never the minimum
        return solved[a][1].objective

    action, value, fits = minimize_on_grid_then_golden(
        inner, *model.action_interval, LCVB_COARSE_POINTS, LCVB_OUTER_TOLERANCE
    )
    if not math.isfinite(value):
        raise NumericalError("every outer action probe failed its inner fit")
    return action, solved[action], fits, sum(fit.evaluations for _, fit in solved.values())


def lcvb_decide(
    data: Observations,
    model: NewsvendorModel,
    # Ignored, as ``settings``: the decide needs no evidence. Kept because the
    # benchmark's workloads (perfbench/workloads.py) pass it.
    grid=None,
    settings: FitSettings | None = None,  # ignored, as in ``nvb_decide``
    risk: Risk | None = None,
    nvb_start: DecisionOutcome | None = None,
) -> DecisionOutcome:
    """Calibrated rule: the saddle point min_a max_q F(a, q).

    Newton's method on F's gradient in (a, mu, rho = log sigma), one kernel
    pass per step, from the naive action and member (``nvb_start``, an NVB
    outcome with its q, or else ``nvb_decide``'s). With s = -F_qq^{-1} F_qa
    and V'' = F_aa + F_aq . s, the step is da = -(F_a + s . grad_q F)/V''
    (= (F_aq . F_qq^{-1} grad_q F - F_a)/V'') and
    dq = -F_qq^{-1} grad_q F + s*da, until |da| <= 1e-9*(1 + a) and
    |grad_q F| < ``TOLERANCE`` at the evaluated point, where F_qq negative
    definite and V'' > 0 certify a local minimum of V(a) = max_q F(a, q).
    A step across an interval end is cut there, q moving along s. At an
    end (that one, or the naive action's) a is held while q steps by
    -F_qq^{-1} grad_q F to |grad_q F| < ``TOLERANCE``, where F_a pointing
    strictly outward certifies the end; else Newton resumes there. A
    non-finite objective or slope, F_qq not negative definite (V'' is None
    then), V'' <= 0 off a held end or 50 steps fall back to ``_lcvb_scan``.
    ``probe_count`` counts all steps and the scan's fits; ``inner_fit`` and
    ``q`` describe the last evaluation, and ``objective_value`` is its
    ELBO + E_q[log G] (= F + log p(X), which needs no evidence).
    ``risk=None`` uses the model's newsvendor risk.
    """
    risk = resolve_risk(risk, model)
    nvb = nvb_decide(data, model) if nvb_start is None else nvb_start
    lo, hi = model.action_interval
    steps = fits = passes = 0

    def saddle() -> tuple[float, LogNormalVariational, FitDiagnostics, str]:
        nonlocal steps, passes
        a, x = nvb.action, (nvb.q.mu, math.log(nvb.q.sigma))
        held = a in (lo, hi)  # a fixed at an end while q climbs to its inner maximum
        while True:
            passes += 1
            objective = _lcvb_objective(a, data, model, risk)
            value, gradient, f_qq, _, *envelope = objective(x)
            if not (math.isfinite(value) and all(map(math.isfinite, gradient))):
                raise NumericalError(f"calibrated objective is not finite at a={a:.6g}")
            f_a, tangent, curvature = envelope
            if not math.isfinite(f_a):
                raise NumericalError(f"envelope slope is {f_a} at a={a:.6g}")
            norm = math.hypot(*gradient)
            if held and norm < TOLERANCE:
                if f_a > 0 if a == lo else f_a < 0:  # F_a points out of the interval
                    how = "at a_lo" if a == lo else "at a_hi"
                    break
                held = False  # F_a points inward: Newton resumes from the end
            # None: F_qq not < 0; a held end needs no V''
            if not (tangent is not None and (held or 0.0 < curvature < math.inf)):
                raise NumericalError(f"envelope curvature is {curvature} at a={a:.6g}")
            ascent = newton_direction(gradient, f_qq)  # -F_qq^{-1} grad_q F
            if not held:
                step = -(f_a + tangent[0] * gradient[0] + tangent[1] * gradient[1]) / curvature
                if abs(step) <= 1e-9 * (1.0 + a) and norm < TOLERANCE:
                    how = "local"
                    break
            if steps == LCVB_MAX_NEWTON_STEPS:
                raise NumericalError(f"no saddle point in {LCVB_MAX_NEWTON_STEPS} Newton steps")
            steps += 1
            if held:
                x = (x[0] + ascent[0], x[1] + ascent[1])
            elif lo <= a + step <= hi:
                a += step
                x = (x[0] + ascent[0] + tangent[0] * step, x[1] + ascent[1] + tangent[1] * step)
            else:  # cut at the end crossed, q moving along the tangent
                end, held = (lo if a + step < lo else hi), True
                a, x = end, (x[0] + tangent[0] * (end - a), x[1] + tangent[1] * (end - a))
        fit = FitDiagnostics(
            steps, norm, True, value, envelope_slope=f_a, tangent=tangent,
            envelope_curvature=curvature, evaluations=passes,
        )
        return a, LogNormalVariational(x[0], math.exp(x[1])), fit, how

    try:
        action, q, diagnostics, how = saddle()
    except NumericalError as exc:
        how = f"scan fallback: {exc}"
        action, (q, diagnostics), fits, scan_passes = _lcvb_scan(data, model, risk, nvb.q)
        passes += scan_passes
    logger.debug(
        "LCVB action %.9g after %d Newton steps (%d kernel passes), %s",
        action, steps, passes, how,
    )
    return DecisionOutcome(action, diagnostics.objective, Rule.LCVB, diagnostics, steps + fits, q)


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
