"""Quadrature-grade reference computations for the rate posterior.

The posterior pi(theta | X) over the exponential rate concentrates around
the maximum-likelihood estimate at rate sqrt(n), so a fixed integration
domain wastes nodes as n grows. Instead, Gauss-Legendre nodes are placed
on an MLE-centered window that widens automatically until the posterior
density at both edges is negligible relative to its peak. The resulting
grid yields the evidence, posterior moments, posterior expected risk, the
exact Bayes decision, and the risk-tilted (calibrated) posterior density -
the ground truth the variational machinery is validated against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .decisions import DecisionOutcome, Rule, decide_on_measure
from .model import (
    NewsvendorModel,
    Observations,
    Risk,
    expected_risk,
    log_posterior_unnormalized,
    resolve_risk,
)
from .numerics import (
    NumericalError,
    gauss_legendre,
    minimize_on_grid_then_golden,  # noqa: F401 - unused here; perfbench/tracing.py wraps this name
)

__all__ = [
    "PosteriorGrid",
    "mle",
    "build_posterior",
    "posterior_expected_risk",
    "bayes_decision",
    "calibrated_posterior_density",
]

BOUNDARY_DENSITY_RATIO = 1e-12
MAX_WINDOW_EXPANSIONS = 20
MIN_POSTERIOR_NODES = 32
# The node table takes O(n^2) recurrence steps (~0.25 s at 4,096 nodes), and
# the Bayes scan's blocks hold 128 x n floats.
MAX_POSTERIOR_NODES = 4096
BAYES_SCAN_POINTS = 512
# H(root) may exceed the scan's minimum by this fraction of it, the rounding
# of a sum whose terms h*a and h/theta cancel (~25 eps at worst measured).
BAYES_SCAN_ROUNDING = 1e-12

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class PosteriorGrid:
    """Normalized posterior on Gauss-Legendre nodes over a finite window.

    ``log_weights[i]`` is log(quadrature weight x unnormalized posterior
    density) at node i, and ``log_evidence`` their log-sum-exp, so
    ``exp(log_weights - log_evidence)`` are probabilities summing to one.
    The grid keeps a handle on the data it was built from, which lets the
    posterior density be evaluated off-grid.
    """

    nodes: np.ndarray
    log_weights: np.ndarray
    log_evidence: float
    window: tuple[float, float]
    data: Observations

    @property
    def normalized_weights(self) -> np.ndarray:
        return np.exp(self.log_weights - self.log_evidence)

    def mean(self) -> float:
        return float(self.normalized_weights @ self.nodes)

    def variance(self) -> float:
        w = self.normalized_weights
        m = float(w @ self.nodes)
        return float(w @ (self.nodes - m) ** 2)

    def mass_within(self, center: float, radius: float) -> float:
        """Posterior probability of {|theta - center| <= radius} on the grid."""
        inside = np.abs(self.nodes - center) <= radius
        return float(self.normalized_weights[inside].sum())


def mle(data: Observations) -> float:
    """Maximum-likelihood rate n / sum(x)."""
    if data.sum_s <= 0:
        raise ValueError("degenerate data: all observed demands are zero")
    return data.n / data.sum_s


def build_posterior(
    data: Observations, model: NewsvendorModel, node_count: int = 256
) -> PosteriorGrid:
    """Quadrature posterior on an adaptive MLE-centered window.

    The initial window is theta_hat * [max(1 - 12/sqrt(n), 1e-3),
    1 + 12/sqrt(n)] + 10/n on the right, then each edge is pushed outward
    (left halved, right extended by the current width) until the density
    there falls below 1e-12 of the peak. More than 20 expansions on either
    side aborts with a numerical error.
    """
    if not MIN_POSTERIOR_NODES <= node_count <= MAX_POSTERIOR_NODES:
        bounds = f"[{MIN_POSTERIOR_NODES}, {MAX_POSTERIOR_NODES}]"
        raise ValueError(f"node_count (posterior_nodes) must lie in {bounds}")
    theta_hat = mle(data)
    spread = 12.0 / math.sqrt(data.n)
    lo = theta_hat * max(1.0 - spread, 1e-3)
    hi = theta_hat * (1.0 + spread) + 10.0 / data.n

    def log_density(theta):
        return log_posterior_unnormalized(theta, data, model)

    peak = log_density(theta_hat)
    for expansion in range(MAX_WINDOW_EXPANSIONS + 1):
        lo_ok = log_density(lo) - peak < math.log(BOUNDARY_DENSITY_RATIO)
        hi_ok = log_density(hi) - peak < math.log(BOUNDARY_DENSITY_RATIO)
        if lo_ok and hi_ok:
            break
        if expansion == MAX_WINDOW_EXPANSIONS:
            raise NumericalError(
                "posterior window failed to localize the density after "
                f"{MAX_WINDOW_EXPANSIONS} expansions"
            )
        if not lo_ok:
            lo = lo / 2.0
        if not hi_ok:
            hi = hi + (hi - lo)

    x, w = gauss_legendre(node_count)
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo) + half * x
    log_weights = np.log(w * half) + log_density(nodes)
    # Log-sum-exp about the largest term, which becomes the 1 inside log1p.
    k = int(np.argmax(log_weights))
    shifted = log_weights - log_weights[k]
    shifted[k] = -np.inf
    log_evidence = float(np.log1p(np.exp(shifted).sum()) + log_weights[k])
    if not math.isfinite(log_evidence):
        raise NumericalError("posterior evidence is not finite")
    return PosteriorGrid(
        nodes=nodes,
        log_weights=log_weights,
        log_evidence=log_evidence,
        window=(lo, hi),
        data=data,
    )


def posterior_expected_risk(
    a,
    grid: PosteriorGrid,
    model: NewsvendorModel,
    risk: Risk | None = None,
):
    """Posterior expectation of the risk, E_post[G(a, theta)], on the grid.

    ``a`` may be one action or an array of actions; the result has its shape.
    """
    return expected_risk(a, grid.nodes, grid.normalized_weights, model, risk)


def bayes_decision(grid: PosteriorGrid, model: NewsvendorModel) -> DecisionOutcome:
    """Exact Bayes rule: argmin over actions of the model's posterior expected risk.

    The action is the first-order root of H(a) = E_post[G(a, theta)] on the
    grid, Newton's method on psi(a) = log E_post[exp(-a*theta)] in
    ``decide_on_measure`` (to 1e-15*(1 + a), or an interval end where H'
    points outward). A 512-point scan of H is its derivative-free
    certificate: the root must lie between the neighbours of the scan's best
    point, and H there must not exceed the scan's minimum by more than
    rounding (1e-12 of it); otherwise ``NumericalError``. ``probe_count``
    counts psi evaluations and scan probes. It is the reference the
    variational rules are measured against.
    """
    nodes, weights = grid.nodes, grid.normalized_weights
    lo, hi = model.action_interval
    scan = np.linspace(lo, hi, BAYES_SCAN_POINTS)
    values = expected_risk(scan, nodes, weights, model)
    k = int(np.argmin(values))  # first minimum = smallest action
    (outcome,) = decide_on_measure(nodes, weights, [model], Rule.BAYES)
    if isinstance(outcome, NumericalError):
        raise outcome
    a, value, evaluations = outcome.action, outcome.objective_value, outcome.probe_count
    left, right = scan[max(k - 1, 0)], scan[min(k + 1, BAYES_SCAN_POINTS - 1)]
    if not (left <= a <= right and value <= values[k] * (1.0 + BAYES_SCAN_ROUNDING)):
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


def calibrated_posterior_density(
    a: float,
    theta: float,
    grid: PosteriorGrid,
    model: NewsvendorModel,
    risk: Risk | None = None,
) -> float:
    """Risk-tilted posterior density G(a, theta) pi(theta|X) / E_post[G(a, .)].

    Defined for theta inside the grid window; reduces to the plain
    posterior density whenever the risk is constant in theta.
    """
    lo, hi = grid.window
    if not lo <= theta <= hi:
        raise ValueError(f"theta={theta:.6g} outside the posterior window [{lo:.6g}, {hi:.6g}]")
    risk = resolve_risk(risk, model)
    log_post = log_posterior_unnormalized(theta, grid.data, model) - grid.log_evidence
    normalizer = posterior_expected_risk(a, grid, model, risk)
    return float(risk.value(a, theta)) * math.exp(log_post) / normalizer
