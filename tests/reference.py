"""Test-side references: the realized loss, the validated closed-form risk and
the log-normal member's density and variance, which the Monte Carlo and
closed-form checks compare the package against; a constant ``Risk``, under
which the calibrated fit collapses to the plain one; and the results CSV's
parser, which reads back what ``write_results`` wrote."""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from newsvb.experiment import CSV_HEADER, CurvePoint, QuantileCurve, _parse_rule
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


@dataclass(frozen=True)
class ConstantRisk:
    """G(a, theta) = level for every action and rate."""

    level: float

    def value(self, a, theta):
        return np.full(np.broadcast_shapes(np.shape(a), np.shape(theta)), float(self.level))

    def log_terms(self, a, u):
        out = np.zeros((6, *np.broadcast_shapes(np.shape(a), np.shape(u))))
        out[0] = math.log(self.level)  # every derivative is zero
        return out


def read_results(csv_path) -> list[QuantileCurve]:
    """Parse a results CSV back into quantile curves (inverse of write)."""
    text = Path(csv_path).read_text(encoding="utf-8")
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected results header in {csv_path}")
    grouped: dict[tuple, list[CurvePoint]] = {}
    order: list[tuple] = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"malformed results row: {line!r}")
        rule = _parse_rule(fields[0])
        h = float(fields[1])
        level = float(fields[3])
        point = CurvePoint(
            n=int(fields[2]),
            gap_action_q=float(fields[4]) if fields[4] else None,
            gap_regret_q=float(fields[5]) if fields[5] else None,
            replications=int(fields[6]),
            failures=int(fields[7]),
        )
        key = (rule, h, level)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(point)
    return [
        QuantileCurve(rule=rule, h=h, quantile_level=level, points=tuple(grouped[(rule, h, level)]))
        for rule, h, level in order
    ]
