"""Test-side references: the realized loss, the validated closed-form risk and
the log-normal member's density and variance, which the Monte Carlo and
closed-form checks compare the package against."""

import math

import numpy as np

from newsvb.model import NewsvendorModel, NewsvendorRisk, _as_positive_theta

LOG_2PI = math.log(2.0 * math.pi)


def loss(a: float, xi, model: NewsvendorModel):
    """Realized newsvendor cost h*(a - xi)^+ + b*(xi - a)^+.

    ``xi`` may be a scalar or an array of demands.
    """
    if a < 0:
        raise ValueError("action a must be nonnegative")
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr < 0):
        raise ValueError("demand xi must be nonnegative")
    out = model.h * np.maximum(a - xi_arr, 0.0) + model.b * np.maximum(xi_arr - a, 0.0)
    return float(out) if np.ndim(xi) == 0 else out


def risk(a: float, theta, model: NewsvendorModel):
    """Expected cost G(a, theta) of the model's newsvendor risk, validated."""
    if a < 0:
        raise ValueError("action a must be nonnegative")
    out = NewsvendorRisk(model.h, model.b).value(a, _as_positive_theta(theta))
    return float(out) if np.ndim(theta) == 0 else out


def log_density(q, theta):
    """log q(theta) for the member q: log(theta) ~ N(mu, sigma^2)."""
    log_theta = np.log(np.asarray(theta, dtype=float))
    out = (
        -log_theta
        - math.log(q.sigma)
        - 0.5 * LOG_2PI
        - 0.5 * ((log_theta - q.mu) / q.sigma) ** 2
    )
    return float(out) if np.ndim(theta) == 0 else out


def variational_variance(q) -> float:
    """Var_q[theta] = (exp(sigma^2) - 1) * exp(2*mu + sigma^2)."""
    v = q.sigma**2
    return math.expm1(v) * math.exp(2.0 * q.mu + v)
