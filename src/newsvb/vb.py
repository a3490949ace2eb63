"""Log-normal variational machinery for the exponential-rate posterior.

The variational family is q(theta; mu, sigma) = LogNormal(mu, sigma^2) over
theta in (0, inf). For this model the evidence lower bound has a closed
form in (mu, sigma):

    ELBO = n*mu - S*exp(mu + sigma^2/2)
         + alpha*log(beta) - lgamma(alpha) - (alpha + 1)*mu
         - beta*exp(-mu + sigma^2/2)
         + mu + 0.5*log(2*pi*e*sigma^2)

with S the sample sum, equal to E_q[log p(X|theta) + log pi(theta) - log q].
The gap log p(X) - ELBO is exactly KL(q || posterior), so the quadrature
oracle's evidence turns the bound into an exact divergence.

The loss-calibrated objective for an action a is

    F(a, q) = -KL(q || posterior) + E_q[log G(a, theta)],

a lower bound on log E_posterior[G(a, theta)] by Jensen's inequality. The
expectation E_q[log G] is computed with deterministic Gauss-Hermite nodes
(theta = exp(mu + sigma*z), z ~ N(0,1)), which keeps the nested decision
loops reproducible.

Each fit is one Armijo-backtracked ascent over (mu, rho = log sigma) from
its start, with a curvature-derived diagonal step scaling; the likelihood
curvature in mu grows like n while the rho curvature stays O(1), so
unscaled steps would stall long before the 1e-8 gradient tolerance. One
ascent suffices for the plain fit: the ELBO is strictly concave in
(mu, sigma^2) (a sum of negated exponentials of linear forms, linear
terms and 0.5*log(sigma^2)), so its maximizer is unique.

The risk G enters through a ``Risk`` object (``model.Risk``); passing
``risk=None`` selects the model's own newsvendor risk.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    NewsvendorModel,
    Observations,
    Risk,
    expected_risk,
    log_posterior_unnormalized,
    resolve_risk,
    validate_action,
)
from .numerics import NumericalError, ascend, gauss_hermite_standard

if TYPE_CHECKING:  # pragma: no cover
    from .oracle import PosteriorGrid

__all__ = [
    "LogNormalVariational",
    "FitDiagnostics",
    "FitSettings",
    "CalibratedObjective",
    "elbo",
    "elbo_gradient",
    "fit_nvb",
    "calibrated_objective",
    "fit_lcvb",
    "kl_decomposition_check",
    "variational_variance",
]

logger = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)
_RISK_FLOOR = 1e-300


@dataclass(frozen=True)
class LogNormalVariational:
    """One member of the variational family: log(theta) ~ N(mu, sigma^2)."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise ValueError("require finite mu and sigma > 0")

    def mean_theta(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def mean_inverse_theta(self) -> float:
        return math.exp(-self.mu + 0.5 * self.sigma**2)

    def mean_log_theta(self) -> float:
        return self.mu

    def entropy(self) -> float:
        return self.mu + 0.5 * (1.0 + _LOG_2PI) + math.log(self.sigma)

    def log_density(self, theta):
        theta_arr = np.asarray(theta, dtype=float)
        log_theta = np.log(theta_arr)
        out = (
            -log_theta
            - math.log(self.sigma)
            - 0.5 * _LOG_2PI
            - 0.5 * ((log_theta - self.mu) / self.sigma) ** 2
        )
        return float(out) if np.ndim(theta) == 0 else out


def variational_variance(q: LogNormalVariational) -> float:
    """Var_q[theta] = (exp(sigma^2) - 1) * exp(2*mu + sigma^2)."""
    v = q.sigma**2
    return math.expm1(v) * math.exp(2.0 * q.mu + v)


@dataclass(frozen=True)
class FitDiagnostics:
    """How one ascent ended, with the value it reached: the ELBO for
    ``fit_nvb``, ELBO + E_q[log G] (F plus the log evidence) for ``fit_lcvb``."""

    iterations: int
    final_gradient_norm: float
    converged: bool
    objective: float
    # Always 0: every fit is a single ascent. Kept because the benchmark's
    # tracer (perfbench/tracing.py) reads it.
    restarts_used: int = 0


@dataclass(frozen=True)
class FitSettings:
    """Optimizer contract shared by the NVB and LCVB fits."""

    tolerance: float = 1e-8
    max_iterations: int = 10_000
    node_count: int = 64


@dataclass(frozen=True)
class CalibratedObjective:
    """Value and decomposition of F(a, q) = -kl_term + log_risk_term."""

    value: float
    kl_term: float
    log_risk_term: float
    clamped: bool = False


def _guarded_exp(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def _elbo_terms(mu: float, rho: float, n: int, total: float, alpha: float, beta: float):
    """Value and (d/dmu, d/drho) gradient of the closed-form bound."""
    sigma = _guarded_exp(rho)
    v = sigma * sigma
    ep = _guarded_exp(mu + 0.5 * v)  # E_q[theta]
    em = _guarded_exp(-mu + 0.5 * v)  # E_q[1/theta]
    if not (math.isfinite(ep) and math.isfinite(em) and math.isfinite(v)):
        return -math.inf, np.zeros(2)
    value = (
        n * mu
        - total * ep
        + alpha * math.log(beta)
        - math.lgamma(alpha)
        - (alpha + 1.0) * mu
        - beta * em
        + mu
        + 0.5 * (1.0 + _LOG_2PI)
        + rho
    )
    g_mu = n - alpha - total * ep + beta * em
    g_rho = 1.0 - v * (total * ep + beta * em)
    return value, np.array([g_mu, g_rho])


def _elbo_preconditioner(n: int, total: float, alpha: float, beta: float):
    """Positive diagonal step scaling from the bound's curvature profile."""

    def precondition(x):
        mu, rho = float(x[0]), float(x[1])
        sigma = _guarded_exp(rho)
        v = sigma * sigma
        t = total * _guarded_exp(mu + 0.5 * v) + beta * _guarded_exp(-mu + 0.5 * v)
        t = min(t, 1e300) if math.isfinite(t) else 1e300
        c_mu = t + 1.0
        c_rho = min(v * t * (2.0 + v), 1e300) + 2.0
        return np.array([1.0 / c_mu, 1.0 / c_rho])

    return precondition


def elbo(q: LogNormalVariational, data: Observations, model: NewsvendorModel) -> float:
    """Closed-form evidence lower bound at q."""
    value, _ = _elbo_terms(q.mu, math.log(q.sigma), data.n, data.sum_s, model.alpha, model.beta)
    return value


def elbo_gradient(q: LogNormalVariational, data: Observations, model: NewsvendorModel) -> np.ndarray:
    """Analytic gradient of the bound with respect to (mu, log sigma)."""
    _, grad = _elbo_terms(q.mu, math.log(q.sigma), data.n, data.sum_s, model.alpha, model.beta)
    return grad


def _fit(value_and_grad, x0, data: Observations, model: NewsvendorModel, settings: FitSettings):
    """One preconditioned ascent from ``x0``, as (member, diagnostics)."""
    result = ascend(
        value_and_grad,
        x0,
        tolerance=settings.tolerance,
        max_iterations=settings.max_iterations,
        preconditioner=_elbo_preconditioner(data.n, data.sum_s, model.alpha, model.beta),
    )
    q = LogNormalVariational(mu=float(result.x[0]), sigma=math.exp(float(result.x[1])))
    diagnostics = FitDiagnostics(
        iterations=result.iterations,
        final_gradient_norm=result.gradient_norm,
        converged=result.converged,
        objective=result.value,
    )
    return q, diagnostics


def fit_nvb(
    data: Observations,
    model: NewsvendorModel,
    settings: FitSettings | None = None,
) -> tuple[LogNormalVariational, FitDiagnostics]:
    """Fit the plain variational posterior by maximizing the bound.

    One ascent from mu = log of the maximum-likelihood rate and
    sigma = 1/sqrt(n); the bound is strictly concave in (mu, sigma^2), so
    its maximizer is unique. A run that fails the gradient tolerance is
    still returned, flagged in the diagnostics.
    """
    settings = settings or FitSettings()
    if data.sum_s <= 0:
        raise ValueError("degenerate data: all observed demands are zero")
    x0 = np.array([math.log(data.n / data.sum_s), -0.5 * math.log(data.n)])

    def value_and_grad(x):
        return _elbo_terms(float(x[0]), float(x[1]), data.n, data.sum_s, model.alpha, model.beta)

    q, diagnostics = _fit(value_and_grad, x0, data, model, settings)
    if not diagnostics.converged:
        logger.warning(
            "variational fit stopped at gradient norm %.3e after %d iterations",
            diagnostics.final_gradient_norm,
            diagnostics.iterations,
        )
    return q, diagnostics


def _log_risk_term(a: float, mu: float, rho: float, risk: Risk, node_count: int):
    """E_q[log G(a, theta)] and its (mu, rho) gradient by Gauss-Hermite.

    Returns (value, g_mu, g_rho, clamped). Raises when the risk is not
    strictly positive at some node; positive values below the floating
    floor are clamped and flagged.
    """
    z, w = gauss_hermite_standard(node_count)
    scaled_z = math.exp(rho) * z
    theta = np.exp(mu + scaled_z)
    values = risk.value(a, theta)
    lowest = values.min()  # NaN propagates, so NaN fails the test below too
    if not (lowest > 0.0 and values.max() < math.inf):
        raise NumericalError(
            f"risk must be strictly positive over the quadrature nodes (a={a:.6g})"
        )
    clamped = bool(lowest < _RISK_FLOOR)
    if clamped:
        logger.warning("risk values clamped at %.1e before taking logs (a=%.6g)", _RISK_FLOOR, a)
        values = np.maximum(values, _RISK_FLOOR)
    # d(log G)/dmu = theta * dG/dtheta / G
    relative = risk.theta_slope(a, theta) / values
    value = float(w @ np.log(values))
    g_mu = float(w @ relative)
    g_rho = float(w @ (relative * scaled_z))
    return value, g_mu, g_rho, clamped


def calibrated_objective(
    a: float,
    q: LogNormalVariational,
    data: Observations,
    model: NewsvendorModel,
    grid: "PosteriorGrid",
    risk: Risk | None = None,
    node_count: int = 64,
) -> CalibratedObjective:
    """Evaluate F(a, q) = -KL(q || posterior) + E_q[log G(a, theta)].

    The divergence uses the quadrature oracle's log evidence, making it
    exact up to the evidence's own quadrature error.
    """
    validate_action(a, model)
    log_risk, _, _, clamped = _log_risk_term(
        a, q.mu, math.log(q.sigma), resolve_risk(risk, model), node_count
    )
    kl_term = grid.log_evidence - elbo(q, data, model)
    if kl_term < -1e-6:
        raise NumericalError(
            f"evidence {grid.log_evidence:.9g} fell below the bound by {-kl_term:.3e}; "
            "the posterior grid does not match this dataset"
        )
    kl_term = max(kl_term, 0.0)
    return CalibratedObjective(
        value=-kl_term + log_risk,
        kl_term=kl_term,
        log_risk_term=log_risk,
        clamped=clamped,
    )


def fit_lcvb(
    a: float,
    data: Observations,
    model: NewsvendorModel,
    settings: FitSettings | None = None,
    risk: Risk | None = None,
    initial: LogNormalVariational | None = None,
) -> tuple[LogNormalVariational, FitDiagnostics]:
    """Maximize the calibrated objective over q for a fixed action.

    The -log p(X) part of F is constant in q, so the ascent maximizes
    ELBO + E_q[log G], needs no evidence, and reports that maximum as the
    diagnostics' ``objective``. One ascent, stopped as in ``fit_nvb``,
    from ``initial`` (e.g. the neighbouring solution in an outer action
    loop) or else from the plain variational fit. The E_q[log G] term need
    not be concave, so the result is the maximum reached from that start.
    """
    settings = settings or FitSettings()
    validate_action(a, model)
    risk = resolve_risk(risk, model)
    q0 = fit_nvb(data, model, settings)[0] if initial is None else initial
    x0 = np.array([q0.mu, math.log(q0.sigma)])

    def value_and_grad(x):
        mu, rho = float(x[0]), float(x[1])
        value, grad = _elbo_terms(mu, rho, data.n, data.sum_s, model.alpha, model.beta)
        if not math.isfinite(value):
            return -math.inf, grad
        lr_value, lr_mu, lr_rho, _ = _log_risk_term(a, mu, rho, risk, settings.node_count)
        return value + lr_value, grad + np.array([lr_mu, lr_rho])

    q, diagnostics = _fit(value_and_grad, x0, data, model, settings)
    if not diagnostics.converged:
        logger.warning(
            "calibrated fit at a=%.6g stopped at gradient norm %.3e",
            a,
            diagnostics.final_gradient_norm,
        )
    return q, diagnostics


def kl_decomposition_check(
    a: float,
    q: LogNormalVariational,
    data: Observations,
    model: NewsvendorModel,
    grid: "PosteriorGrid",
    risk: Risk | None = None,
    node_count: int = 128,
    reference_node_count: int = 96,
) -> float:
    """Residual of the divergence identity against the risk-tilted posterior.

    Both sides of

        KL(q || G*post/Z_G) = KL(q || post) - E_q[log G] + log E_post[G]

    are evaluated numerically: the left side by direct Gauss-Hermite
    quadrature of the integrand with ``node_count`` nodes, the right side
    from the closed-form bound plus an independent ``reference_node_count``
    quadrature. Returns the absolute difference.
    """
    risk = resolve_risk(risk, model)
    z, w = gauss_hermite_standard(node_count)
    log_theta = q.mu + q.sigma * z
    theta = np.exp(log_theta)
    log_q = -log_theta - math.log(q.sigma) - 0.5 * _LOG_2PI - 0.5 * z * z
    log_joint = log_posterior_unnormalized(theta, data, model)
    g_nodes = risk.value(a, theta)
    if np.any(g_nodes <= 0.0):
        raise NumericalError("risk must be strictly positive over the quadrature nodes")
    log_zg = math.log(expected_risk(a, grid.nodes, grid.normalized_weights, model, risk))

    lhs = float(w @ (log_q - np.log(g_nodes) - log_joint)) + grid.log_evidence + log_zg
    kl_q_post = grid.log_evidence - elbo(q, data, model)
    ref_log_risk, _, _, _ = _log_risk_term(
        a, q.mu, math.log(q.sigma), risk, reference_node_count
    )
    rhs = kl_q_post - ref_log_risk + log_zg
    return abs(lhs - rhs)
