"""Decision rules: two-stage naive VB and the calibrated saddle-point rule.

The naive rule fits one variational posterior and then minimizes the
predicted expected cost H_q(a) = E_q[G(a, theta)] over the action interval
at the root of its first-order condition, found by Newton's method from
Jensen's plug-in action.
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
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    NewsvendorModel,
    Observations,
    Risk,
    _exp_table,
    _positive_measure,
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
    _member,
    calibrated_objective,  # noqa: F401 - unused here; perfbench/tracing.py wraps this name
    fit_lcvb,
    fit_nvb,
)

__all__ = [
    "Rule",
    "DecisionOutcome",
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
# log(float min/eps): a row whose level c_h = log(h*W/(b+h)) is below it fails,
# since psi's sum, at least e^c_h at each action Newton evaluates, could leave
# the normal floats.
LEVEL_FLOOR = math.log(sys.float_info.min / sys.float_info.epsilon)

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
    """q as a discrete measure: (rate nodes, weights) of Gauss-Hermite
    quadrature. A rate exp(mu + sigma*z) outside the normal floats (inf, or
    0 or subnormal), checked at the extreme nodes before any exp, is a
    ``NumericalError``."""
    z, w = gauss_hermite_standard(NODE_COUNT)
    lowest, highest = q.mu + q.sigma * z[0], q.mu + q.sigma * z[-1]  # sigma > 0
    if not (math.log(sys.float_info.min) <= lowest and highest <= math.log(sys.float_info.max)):
        raise NumericalError(
            f"q's Gauss-Hermite rates exp(mu + sigma*z) leave the float range "
            f"at mu={q.mu:.6g}, sigma={q.sigma:.6g}"
        )
    return np.exp(q.mu + q.sigma * z), w


def decide_on_measure(
    measure,
    models: Sequence[NewsvendorModel],
    rule: Rule,
    inner_fit: FitDiagnostics | None = None,
    q: LogNormalVariational | None = None,
) -> list[DecisionOutcome | NumericalError]:
    """Minimize H(a) = sum_i w_i * G(a, theta_i) for each model, on a
    ``measure`` that ``model._positive_measure`` prepared.

    The models, at least one, must differ only in h, and some weight must be
    positive (``ValueError`` otherwise).
    For the newsvendor H'(a) = h*W - (b+h)*exp(psi(a)), with W =
    sum_i w_i and psi(a) = log sum_i w_i*exp(-a*theta_i); H is
    convex, so its minimizer is a_lo if psi(a_lo) <= c_h = log(h*W/(b+h)),
    a_hi if psi(a_hi) >= c_h, and otherwise the root of psi(a) = c_h. By
    Jensen psi(a) >= log W - a*m for the mean rate m = sum_i
    w_i*theta_i / W, so the plug-in action s_h = log((b+h)/h)/m
    lies at or left of row h's root. A row with s_h >= a_hi is at a_hi;
    every other row starts at max(s_h, a_lo), and one starting at a_lo is
    at a_lo if psi(a_lo) <= c_h. Each pass over actions a_k makes one table
    E = exp(-a_k*theta_i) and one einsum contraction of it with the rows
    w_i, w_i*theta_i and s_i = w_i/theta_i, each column the bits of its own
    row sum: psi = log sum_i w_i*E, -psi' = sum_i w_i*theta_i*E / sum_i
    w_i*E and the tail sum_i s_i*E of H = (b+h)*tail + h*(a*W - sum_i s_i).
    The first pass, over every start and a_hi, gives psi there; Newton's
    iterates then rise to each row's root without overshooting, one pass
    per step over the rows still moving. A row stops once its step is at
    most 1e-15*(1 + a), and its ``objective_value`` is H from the tail of
    the pass it stopped in (an a_hi row's from the first pass's a_hi
    column), equal to ``expected_risk`` at the action bit for bit. The
    iterates keep psi >= c_h, so their sums stay normal floats while c_h >=
    log(float min/eps) ~ -672.3 (``LEVEL_FLOOR``); a row with s_h < a_hi
    below that level gets a ``NumericalError`` naming it, as does a row
    still moving after 100 steps, and fails alone. A psi(a_lo) or psi(a_hi)
    that underflows reads -inf. ``probe_count`` counts the row's psi
    evaluations: none where s_h >= a_hi, one at a_lo, and otherwise two
    (its start and a_hi) plus one per Newton step. Each row logs one debug
    line, except BAYES rows, which ``bayes_decision`` logs with its scan.
    NVB passes q's Gauss-Hermite nodes, with q and ``inner_fit`` to record
    in each outcome; the Bayes oracle passes the posterior grid.
    """
    if not models:
        raise ValueError("decide_on_measure needs at least one model")
    first = models[0]
    fixed = vars(first) | {"h": None}  # every field but h
    if any(vars(model) | {"h": None} != fixed for model in models[1:]):
        raise ValueError("models decided on one measure must differ only in h")
    neg_nodes, columns, total_weight, sum_s, mean_rate = measure
    if not total_weight > 0:
        raise ValueError("the measure has no node of positive weight")

    def evaluate(actions: list[float]) -> list[tuple[float, float, float]]:
        """(psi, -psi' = the mean of theta under the tilted weights, the tail
        sum_i s_i*exp(-a*theta_i)) at each action. A sum that underflows (at
        a_lo or a_hi only) gives psi = -inf and no mean. Unlike BLAS's @, the
        contraction's columns are each row's own row sums, bit for bit."""
        sums = np.einsum("ij,kj->ik", _exp_table(np.array(actions), neg_nodes), columns)
        return [
            (math.log(total), tilted / total, tail) if total else (-math.inf, math.nan, tail)
            for total, tilted, tail in sums.tolist()
        ]

    lo, hi = (float(end) for end in first.action_interval)
    levels = [math.log(model.h * total_weight / (model.b + model.h)) for model in models]
    # s_h clamped to [a_lo, a_hi]; a zero mean rate puts s_h at infinity.
    start = [
        min(max(math.log((model.b + model.h) / model.h) / mean_rate, lo), hi) if mean_rate > 0
        else hi for model in models
    ]
    action, evaluations = list(start), [0] * len(models)
    # Each row's failure, or None.
    errors = [
        f"psi's level log(h*W/(b+h)) = {level:.6g} is below log(float min/eps) = "
        f"{LEVEL_FLOOR:.6g}" if a < hi and level < LEVEL_FLOOR else None
        for a, level in zip(start, levels)
    ]
    rows = [row for row, a in enumerate(start) if a < hi and errors[row] is None]
    *firsts, (value_hi, _, tail_hi) = evaluate([start[row] for row in rows] + [hi])
    tails = [tail_hi if a == hi else math.nan for a in start]  # at a stopped row's action
    moving = []  # (row, psi, mean, tail) at each row still moving
    for row, (value, tilted_mean, tail) in zip(rows, firsts):
        if start[row] == lo and value <= levels[row]:
            evaluations[row], tails[row] = 1, tail
        elif value_hi >= levels[row]:
            action[row], evaluations[row], tails[row] = hi, 2, tail_hi
        else:
            evaluations[row] = 2
            moving.append((row, value, tilted_mean, tail))
    for _ in range(NVB_MAX_NEWTON_STEPS):
        rows = []
        for row, value, tilted_mean, tail in moving:
            step = (value - levels[row]) / tilted_mean
            if step <= 1e-15 * (1.0 + action[row]):
                tails[row] = tail
            else:
                action[row] = min(action[row] + step, hi)
                evaluations[row] += 1
                rows.append(row)
        if not rows:
            break
        moving = [(row, *out) for row, out in zip(rows, evaluate([action[row] for row in rows]))]
    else:  # rows still moving after the last step
        for row, *_ in moving:
            errors[row] = f"first-order root not reached in {NVB_MAX_NEWTON_STEPS} Newton steps"
    outcomes: list[DecisionOutcome | NumericalError] = []
    for model, a, count, tail, error in zip(models, action, evaluations, tails, errors):
        if error is not None:
            outcomes.append(NumericalError(f"{rule.value} {error} at h={model.h:g}"))
            continue
        # expected_risk's affine part, on the tail of the pass the row stopped in.
        objective = (first.b + model.h) * tail + model.h * (a * total_weight - sum_s)
        if rule is not Rule.BAYES:  # the oracle logs its root with the scan that checks it
            end = "at a_lo" if count == 1 else "at a_hi" if a == hi else "interior"
            logger.debug("%s action %.9g after %d psi evaluations, %s", rule.value, a, count, end)
        outcomes.append(DecisionOutcome(a, objective, rule, inner_fit, count, q))
    return outcomes


def decide_across_h(
    q: LogNormalVariational,
    models: Sequence[NewsvendorModel],
    diagnostics: FitDiagnostics | None = None,
) -> list[DecisionOutcome | NumericalError]:
    """``decide_on_measure`` on q's nodes for models that differ only in h."""
    measure = _positive_measure(*_gauss_hermite_measure(q))
    return decide_on_measure(measure, models, Rule.NVB, diagnostics, q)


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
    """Two-stage rule: fit q once, then minimize the predicted expected cost."""
    q, diagnostics = fit_nvb(data, model)
    return decide_with_variational(q, model, diagnostics)


def _lcvb_scan(data: Observations, model: NewsvendorModel, risk, start):
    """The global LCVB search: a 33-point scan plus golden refinement to 1e-4
    of the maxima ``fit_lcvb`` reaches, each fit started from the member
    ``start`` or the nearest solved action's; a fit that fails or does not
    converge voids its probe (and logs no warning). Returns the action, its
    (q, diagnostics), the fits made and their kernel passes, or raises
    ``NumericalError`` if no fit converged."""
    solved: dict[float, tuple[LogNormalVariational, FitDiagnostics]] = {}

    def inner(a: float) -> float:
        nearest = solved[min(solved, key=lambda b: abs(b - a))][0] if solved else start
        try:
            solved[a] = fit_lcvb(a, data, model, risk, nearest, warn=False)
        except NumericalError:
            return math.inf  # invalid probe, never the minimum
        return solved[a][1].objective if solved[a][1].converged else math.inf

    action, value, fits = minimize_on_grid_then_golden(
        inner, *model.action_interval, LCVB_COARSE_POINTS, LCVB_OUTER_TOLERANCE
    )
    if not math.isfinite(value):
        raise NumericalError("no outer action probe's inner fit converged")
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
    ``q`` describe the last evaluation, and ``objective_value`` is
    ELBO + E_q[log G] (= F + log p(X), which needs no evidence) at ``q``.
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
        q, value, missed = _member(objective, x, value)  # F at the returned member
        passes += missed
        fit = FitDiagnostics(steps, norm, True, value, envelope_slope=f_a,
                             envelope_curvature=curvature, evaluations=passes)
        return a, q, fit, how

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
    action is a ``ValueError``.
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
