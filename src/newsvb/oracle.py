"""Quadrature-grade reference computations for the rate posterior.

Gauss-Legendre nodes in log(theta) between the posterior density's level
crossings about its closed-form mode (``build_posterior``) give the
evidence and the normalized posterior weights, and on them the exact Bayes
decision (``bayes_decision``) - the ground truth the variational machinery
is validated against.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .decisions import DecisionOutcome, Rule, decide_on_measure
from .model import NewsvendorModel, Observations, _positive_measure, newsvendor_expected_risk
from .numerics import (
    NumericalError,
    gauss_legendre,
    minimize_on_grid_then_golden,  # noqa: F401 - unused here; perfbench/tracing.py wraps this name
)

__all__ = [
    "PosteriorGrid",
    "mle",
    "build_posterior",
    "bayes_decision",
]

POSTERIOR_NODES = 256
# Edge density against the peak; at 1e-12 n = 1 grids lost 1.7e-10 of their variance.
LOG_BOUNDARY_RATIO = math.log(1e-20)
MAX_CROSSING_STEPS = 100  # Newton steps to each edge's crossing
# Window edges in u = log(theta) whose e^u is a finite normal float.
LOG_THETA_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))
BAYES_SCAN_POINTS = 512
# H(root) may exceed the scan's minimum by this fraction of it, the rounding
# of a sum whose terms h*a and h/theta cancel (H read at most 19 eps from a
# 50-digit sum over 400 random posteriors).
BAYES_SCAN_ROUNDING = 1e-12

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class PosteriorGrid:
    """Normalized posterior on Gauss-Legendre nodes u_i in log(theta).

    ``nodes`` are the rates theta_i = e^u_i and ``window`` the rates at the
    window's edges. ``log_evidence`` is the log-sum-exp of the log weights
    log(weight in u x theta_i x unnormalized posterior density at theta_i),
    and ``normalized_weights`` are the probabilities exp(log weight -
    log_evidence), summing to one. ``measure`` is
    ``model._positive_measure`` of the nodes and normalized weights, read-only
    and prepared on first use, so every Bayes root and scan on the grid
    reads the same rows.
    """

    nodes: np.ndarray
    log_evidence: float
    normalized_weights: np.ndarray
    window: tuple[float, float]

    @cached_property
    def measure(self):
        measure = _positive_measure(self.nodes, self.normalized_weights)
        for array in measure[:2]:  # -theta and the rows [w, w*theta, w/theta]
            array.setflags(write=False)
        return measure


def mle(data: Observations) -> float:
    """Maximum-likelihood rate n / sum(x)."""
    if data.sum_s <= 0:
        raise ValueError("degenerate data: all observed demands are zero")
    return data.n / data.sum_s


def _crossing(p: float, a: float, b: float, cap: float) -> float:
    """The offset d > 0 at which r(d) = p*d - a*expm1(d) - b*expm1(-d), a log
    density less its peak at its mode (a - b = p), falls to the boundary
    level, or inf past ``cap``. r is strictly concave, and r(d) <= -a*d^2/2
    and r(d) <= b - min(a, b)*expm1(d) start Newton past the crossing, from
    where it falls to it without passing it. r is summed as -a*(expm1(d) -
    d) - b*(expm1(-d) + d), whose terms do not cancel."""
    level, cap = LOG_BOUNDARY_RATIO, min(cap, LOG_THETA_RANGE[1])  # e^d finite
    d = min(math.sqrt(-2.0 * level / a), math.log1p((b - level) / min(a, b)), cap)
    for _ in range(MAX_CROSSING_STEPS):
        e, f = math.expm1(d), math.expm1(-d)
        inward = d - (level + a * (e - d) + b * (f + d)) / (a * e - b * f)
        if not inward < d:
            break
        d = inward
    return d if d < cap else math.inf


def build_posterior(data: Observations, model: NewsvendorModel) -> PosteriorGrid:
    """Quadrature posterior on ``POSTERIOR_NODES`` nodes in u = log(theta).

    There the posterior GIG(p = n - alpha, 2S, 2beta) has the strictly
    concave log density p*u - S*e^u - beta*e^-u, whose mode e^u* = t is the
    positive root of S*t^2 - p*t - beta. At offset d from u* it is peak +
    ``_crossing``'s r(d) with a = S*t and b = beta/t, and the window ends
    where r falls 1e-20 below the peak; a mode, S*t or beta/t outside the
    floats, or an edge whose e^u is not a finite normal float, is a
    numerical error. Node i's log weight, log(w_i * half-width) + peak +
    r(d_i) + alpha*log(beta) - lgamma(alpha), is log p(X | theta) +
    log pi(theta) + u at theta = e^u_i; r's terms are of size S*t*d^2, not
    S*t ~ n, and the normalized weights come from the part after the peak,
    so the grid's moments do not lose n*eps.
    """
    s, p, beta = data.sum_s, data.n - model.alpha, model.beta
    if s <= 0:
        raise ValueError("degenerate data: all observed demands are zero")
    root = math.sqrt(p * p + 4.0 * s * beta)
    # The root of S*t^2 - p*t - beta in the form free of cancellation.
    mode = (p + root) / (2.0 * s) if p >= 0 else 2.0 * beta / (root - p)
    # Checked before beta/mode: an overflowing p^2 or S*beta puts the mode at 0 or inf.
    in_range = sys.float_info.min <= mode <= sys.float_info.max
    st, bt = (s * mode, beta / mode) if in_range else (0.0, 0.0)
    if not min(st, bt) > 0:
        raise NumericalError(f"posterior mode {mode:.3g} or S*mode, beta/mode leave the float range")
    center = math.log(mode)
    d_lo = -_crossing(-p, bt, st, center - LOG_THETA_RANGE[0])
    d_hi = _crossing(p, st, bt, LOG_THETA_RANGE[1] - center)
    lo, hi = center + d_lo, center + d_hi
    if not (LOG_THETA_RANGE[0] <= lo and hi <= LOG_THETA_RANGE[1]):
        raise NumericalError(f"posterior window e^[{lo:.6g}, {hi:.6g}] leaves the float range")
    x, w = gauss_legendre(POSTERIOR_NODES)
    half = 0.5 * (d_hi - d_lo)
    d = 0.5 * (d_hi + d_lo) + half * x
    nodes = np.exp(center + d)
    # The log weights less the peak.
    relative = np.log(w * half) - st * (np.expm1(d) - d) - bt * (np.expm1(-d) + d)
    # Log-sum-exp about the largest term, which becomes the 1 inside log1p.
    k = int(np.argmax(relative))
    shifted = relative - relative[k]
    shifted[k] = -np.inf
    log_mass = float(np.log1p(np.exp(shifted).sum()) + relative[k])
    peak = p * center - st - bt
    offset = peak + model.alpha * math.log(beta) - math.lgamma(model.alpha)
    log_evidence = log_mass + offset
    if not math.isfinite(log_evidence):
        raise NumericalError("posterior evidence is not finite")
    return PosteriorGrid(
        nodes=nodes,
        log_evidence=log_evidence,
        # From the relative weights: the log weights relative + offset round
        # at the offset's ulp, ~n*eps, which exp(log weight - log_evidence)
        # would carry.
        normalized_weights=np.exp(relative - log_mass),
        window=(math.exp(lo), math.exp(hi)),
    )


@lru_cache(maxsize=16)
def _scan_actions(lo: float, hi: float) -> np.ndarray:
    """The Bayes scan's ``BAYES_SCAN_POINTS`` actions on [lo, hi], read-only."""
    actions = np.linspace(lo, hi, BAYES_SCAN_POINTS)
    actions.setflags(write=False)
    return actions


def bayes_decision(
    grid: PosteriorGrid,
    model: NewsvendorModel,
    root: DecisionOutcome | NumericalError | None = None,
) -> DecisionOutcome:
    """Exact Bayes rule: argmin over actions of the model's posterior expected risk.

    The action is the first-order root of H(a) = E_post[G(a, theta)] on the
    grid, Newton's method on psi(a) = log E_post[exp(-a*theta)] in
    ``decide_on_measure`` (to 1e-15*(1 + a), or an interval end where H'
    points outward). ``root`` is that call's outcome for this model, or the
    error that failed it, where a caller decided several holding costs on
    the grid at once; without it the root is computed here for this h
    alone, with the same bits. A failed root raises its ``NumericalError``.
    The root and the scan read the grid's prepared ``measure``. A 512-point
    scan of H, on actions prepared once per action interval, is the root's
    derivative-free certificate: the root must lie between the neighbours
    of the scan's best point (or, where H ties that minimum to rounding,
    1e-12 of it, at several points, of the first and last of those), and H
    there must not exceed the scan's minimum by more than that rounding;
    otherwise ``NumericalError``. ``probe_count`` counts the 512 scan
    probes and the root's psi evaluations: two, at Jensen's plug-in action
    and at a_hi, then one per Newton step (one alone at a_lo, none where
    the plug-in action is past a_hi), whether the root was passed in or
    not. It is the reference the variational rules are measured against.
    """
    measure = grid.measure
    if root is None:
        (root,) = decide_on_measure(measure, [model], Rule.BAYES)
    if isinstance(root, NumericalError):
        raise root
    lo, hi = model.action_interval
    scan = _scan_actions(lo, hi)
    values = newsvendor_expected_risk(scan, model.h, model.b, measure)  # expected_risk's sum
    k = int(np.argmin(values))  # first minimum = smallest action
    a, value, evaluations = root.action, root.objective_value, root.probe_count
    ceiling = values[k] * (1.0 + BAYES_SCAN_ROUNDING)
    left, right = scan[max(k - 1, 0)], scan[min(k + 1, BAYES_SCAN_POINTS - 1)]
    if not left <= a <= right:  # H may tie its minimum to rounding across many points
        tied = np.flatnonzero(values <= ceiling)
        left, right = scan[max(tied[0] - 1, 0)], scan[min(tied[-1] + 1, BAYES_SCAN_POINTS - 1)]
    if not (left <= a <= right and value <= ceiling):
        raise NumericalError(
            f"root a={a:.9g} with H={value:.17g} fails the scan check: best scan cell "
            f"[{left:.9g}, {right:.9g}], scan minimum {values[k]:.17g}"
        )
    where = "at a_lo" if a == lo else "at a_hi" if a == hi else "interior"
    logger.debug(
        "BAYES action %.9g after %d psi evaluations and %d scan probes, %s",
        a, evaluations, BAYES_SCAN_POINTS, where,
    )
    return DecisionOutcome(a, value, Rule.BAYES, None, evaluations + BAYES_SCAN_POINTS)
