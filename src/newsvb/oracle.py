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

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

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
    if node_count < MIN_POSTERIOR_NODES:
        raise ValueError(f"node_count must be at least {MIN_POSTERIOR_NODES}")
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
    log_evidence = float(logsumexp(log_weights))
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

    ``decide_on_measure`` over the grid's nodes and normalized weights:
    a 512-point scan plus golden-section refinement to 1e-8, ties broken
    toward the smaller action.
    """
    return decide_on_measure(grid.nodes, grid.normalized_weights, model, Rule.BAYES)


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
