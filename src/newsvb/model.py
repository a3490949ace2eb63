"""Exponential-demand newsvendor model.

Demand is exponentially distributed with unknown rate theta > 0. Stocking
``a`` units against a realized demand ``xi`` costs ``h`` per leftover unit
and ``b`` per unit of unmet demand. The expected cost of an action under
rate theta has the closed form

    G(a, theta) = h*a - h/theta + (b + h) * exp(-a*theta) / theta,

which is convex in ``a`` with unique minimizer log((b + h) / h) / theta.
The rate carries a (deliberately non-conjugate) inverse-gamma prior with
shape ``alpha`` and rate ``beta``.

All functions here are pure; random draws consume an explicit generator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "Observations",
    "NewsvendorModel",
    "Risk",
    "NewsvendorRisk",
    "ConstantRisk",
    "resolve_risk",
    "expected_risk",
    "newsvendor_expected_risk",
    "loss",
    "risk",
    "true_optimal_action",
    "log_likelihood",
    "log_prior",
    "log_posterior_unnormalized",
    "sample_demand",
    "fisher_information",
    "validate_action",
]


class Observations:
    """A demand sample with cached sufficient statistics (n, sum)."""

    __slots__ = ("values", "n", "sum_s")

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("observations must form a non-empty 1-D sequence")
        # min is NaN with a NaN and negative with a negative demand; an
        # infinite one shows in the sum, which max then tells from overflow.
        if not arr.min() >= 0:
            raise ValueError("demand observations must be finite and nonnegative")
        with np.errstate(over="ignore"):
            total = float(arr.sum())
        if not math.isfinite(total):
            if arr.max() == math.inf:
                raise ValueError("demand observations must be finite and nonnegative")
            raise ValueError("demand observations sum past the floating-point range")
        arr.setflags(write=False)
        self.values = arr
        self.n = int(arr.size)
        self.sum_s = total

    def prefix(self, n: int) -> "Observations":
        """First ``n`` observations as a fresh sample (nested-sample design)."""
        if not 1 <= n <= self.n:
            raise ValueError(f"prefix length {n} outside [1, {self.n}]")
        return Observations(self.values[:n])

    def __repr__(self):
        return f"Observations(n={self.n}, sum_s={self.sum_s:.6g})"


@dataclass(frozen=True)
class NewsvendorModel:
    """Cost/prior configuration for one newsvendor instance.

    ``theta0`` is the data-generating rate when known; decisions can be
    computed without it, but gap metrics and demand synthesis need it.
    ``action_interval`` is the compact decision interval [a_lo, a_hi].
    """

    h: float
    b: float
    theta0: float | None
    alpha: float
    beta: float
    action_interval: tuple[float, float] = (0.0, 50.0)

    def __post_init__(self):
        positive = [
            ("holding cost h", self.h),
            ("backorder cost b", self.b),
            ("prior shape alpha", self.alpha),
            ("prior rate beta", self.beta),
        ]
        if self.theta0 is not None:
            positive.append(("true rate theta0", self.theta0))
        for label, value in positive:
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{label} must be positive and finite, got {value!r}")
        lo, hi = self.action_interval
        if not (0 <= lo < hi < math.inf):
            raise ValueError(f"action_interval must satisfy 0 <= a_lo < a_hi < inf, got {lo, hi}")
        if self.theta0 is not None:
            a_star = true_optimal_action(self)
            if not lo < a_star < hi:
                raise ValueError(
                    f"optimal action {a_star:.6g} lies outside the action "
                    f"interval [{lo:.6g}, {hi:.6g}]"
                )

    @property
    def action_lo(self) -> float:
        return self.action_interval[0]

    @property
    def action_hi(self) -> float:
        return self.action_interval[1]


def _as_positive_theta(theta):
    arr = np.asarray(theta, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise ValueError("theta must be positive and finite")
    return arr


def validate_action(a, model: NewsvendorModel):
    """Reject actions (one or an array) outside the model's decision interval."""
    lo, hi = model.action_interval
    for extreme in (a.min(), a.max()) if isinstance(a, np.ndarray) else (a,):
        if not lo <= extreme <= hi:
            raise ValueError(
                f"action {extreme:.6g} outside the decision interval [{lo:.6g}, {hi:.6g}]"
            )


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


class Risk(Protocol):
    """An expected cost G(a, theta) and its derivatives over broadcast arrays of
    ``a`` and ``theta``: ``theta_terms`` gives, from one shared tail, (G,
    theta*dG/dtheta, theta*d(theta*dG/dtheta)/dtheta, dG/da,
    theta*d(dG/da)/dtheta, d^2G/da^2), the rate derivatives taken in log
    theta."""

    def value(self, a, theta) -> np.ndarray: ...

    def theta_terms(self, a, theta) -> tuple[np.ndarray, ...]: ...


@dataclass(frozen=True)
class NewsvendorRisk:
    """The newsvendor's G(a, theta) = h*a - h/theta + (b+h)*exp(-a*theta)/theta.

    The exponential tail is evaluated in log space, which keeps the term
    well-behaved for extreme a*theta and tiny theta. Inputs are not
    validated; ``risk`` is the checked entry point.
    """

    h: float
    b: float

    def _tail(self, a, theta):
        return np.exp((math.log(self.b + self.h) - np.log(theta)) - a * theta)

    def value(self, a, theta):
        out = self._tail(a, theta)  # a fresh array of the broadcast shape
        out += self.h * a
        out -= self.h / theta
        return out

    def theta_terms(self, a, theta):
        a_theta = a * theta
        tail, h_theta = self._tail(a, theta), self.h / theta
        value = tail + self.h * a - h_theta  # the arithmetic of ``value``
        slope = h_theta - tail * (a_theta + 1.0)
        # tail*(a_theta^2 + a_theta + 1) - h_theta in place, a_theta capped at
        # 1e154 in the square: past it the tail is 0, so the cap changes no
        # finite value and keeps the square from overflowing into 0 * inf.
        curvature = np.minimum(a_theta, 1e154)
        curvature *= curvature
        curvature += a_theta
        curvature += 1.0
        curvature *= tail
        curvature -= h_theta
        tail_theta = tail * theta  # (b+h)*exp(-a*theta)
        g_a, g_a_theta, g_aa = self.h - tail_theta, a_theta * tail_theta, tail_theta * theta
        return value, slope, curvature, g_a, g_a_theta, g_aa


@dataclass(frozen=True)
class ConstantRisk:
    """G(a, theta) = level for every action and rate."""

    level: float

    def value(self, a, theta):
        return np.full(np.broadcast_shapes(np.shape(a), np.shape(theta)), float(self.level))

    def theta_terms(self, a, theta):
        zero = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(theta)))
        return self.value(a, theta), zero, zero, zero, zero, zero  # every derivative is zero


def resolve_risk(risk: Risk | None, model: NewsvendorModel) -> Risk:
    """``risk``, or the model's own newsvendor risk when it is None."""
    return NewsvendorRisk(model.h, model.b) if risk is None else risk


# Actions per pass of ``newsvendor_expected_risk``: a 512-action scan of a
# 256-node grid allocates (and page-faults in) no megabyte temporaries.
ACTION_BLOCK = 128
OUTER_MIN_ROWS = 8  # from where ``_exp_table``'s einsum outer product beats broadcasting


def _positive_measure(theta: np.ndarray, weights: np.ndarray):
    """The nodes of positive weight, prepared once for the exp tables and
    sums of ``newsvendor_expected_risk`` and ``decide_on_measure``: (-theta_i,
    the C-contiguous rows w_i, w_i*theta_i and s_i = w_i/theta_i, W = sum_i
    w_i, sum_i s_i, the mean rate sum_i w_i*theta_i / W). A posterior grid
    keeps its own, read-only, as ``PosteriorGrid.measure``. A NaN or
    negative weight is a ``ValueError``."""
    if not weights.min() >= 0:  # NaN with a NaN weight
        raise ValueError("measure weights must be nonnegative, not NaN")
    keep = weights > 0
    theta, weights = theta[keep], weights[keep]
    columns = np.array([weights, weights * theta, weights / theta])
    # Each row's pairwise sum, as np.add.reduce sums it alone.
    total, tilted = np.add.reduce(columns[:2], axis=1).tolist()
    # sum_i s_i in a row's own order: at a = 0 it is the tail, bit for bit.
    sum_s = float(np.einsum("j,j->", np.ones(len(theta)), columns[2]))
    return -theta, columns, total, sum_s, tilted / total if total else math.nan


def _exp_table(a: np.ndarray, neg_theta: np.ndarray) -> np.ndarray:
    """The fresh table exp(a_i * neg_theta_j): a broadcast product for fewer
    than ``OUTER_MIN_ROWS`` rows, else an einsum outer product (both the bits
    of ``np.multiply.outer``; on 256 nodes 1.1 against 2.1 us at one row, 37
    against 19 at 128), and an in-place exp."""
    few = len(a) < OUTER_MIN_ROWS
    terms = a[:, None] * neg_theta if few else np.einsum("i,j->ij", a, neg_theta)
    return np.exp(terms, out=terms)


def newsvendor_expected_risk(a: np.ndarray, h, b: float, measure):
    """The newsvendor's sum_i w_i * G(a, theta_i) at each of the 1-D
    nonnegative actions ``a``, with ``h`` one holding cost or an array of one
    per action:

        (b + h) * sum_i exp(-a*theta_i) * s_i + h*(a*W - sum_i s_i)

    on a ``measure`` that ``_positive_measure`` prepared, so a zero weight
    drops out even where its G overflows. A block of ``ACTION_BLOCK``
    actions takes an ``_exp_table`` and an einsum row sum against the
    measure's s row, whose rows, unlike BLAS's ``@``, do not depend on the
    row count, so an action's value is the same bits in any call with its
    h. sum_i s_i is the same row sum over ones, so at small a*theta the tail
    and h*sum_i s_i cancel with the same rounding (H's worst error against
    50 digits over 200 random posteriors read 12.6 eps, 51 with
    ``np.add.reduce`` there). Actions are not validated.
    """
    neg_theta, columns, total, sum_s, _ = measure
    tails = np.empty(len(a))
    for start in range(0, len(a), ACTION_BLOCK):
        block = slice(start, start + ACTION_BLOCK)
        tails[block] = np.einsum("ij,j->i", _exp_table(a[block], neg_theta), columns[2])
    return (b + h) * tails + h * (a * total - sum_s)


def expected_risk(a, theta, weights, model: NewsvendorModel, risk: Risk | None = None):
    """Expected risk sum_i weights[i] * G(a, theta[i]) under a discrete measure.

    ``a`` may be one action or an array of actions; the result has its shape.
    The newsvendor risk is summed by ``newsvendor_expected_risk`` on the
    measure ``_positive_measure`` prepares; any other risk sums its
    ``value`` over the nodes.
    """
    validate_action(a, model)
    a = np.asarray(a, dtype=float)
    theta, weights = np.asarray(theta, dtype=float), np.asarray(weights, dtype=float)
    risk = resolve_risk(risk, model)
    actions = a.reshape(-1)
    if isinstance(risk, NewsvendorRisk):
        out = newsvendor_expected_risk(actions, risk.h, risk.b, _positive_measure(theta, weights))
    else:
        out = np.einsum("...i,i->...", risk.value(actions[:, None], theta), weights)
    return out.reshape(a.shape) if a.ndim else float(out[0])


def risk(a: float, theta, model: NewsvendorModel):
    """Expected cost G(a, theta) of the model's newsvendor risk, validated."""
    if a < 0:
        raise ValueError("action a must be nonnegative")
    out = NewsvendorRisk(model.h, model.b).value(a, _as_positive_theta(theta))
    return float(out) if np.ndim(theta) == 0 else out


def true_optimal_action(model: NewsvendorModel) -> float:
    """Unique minimizer log((b + h)/h) / theta0 of the convex map a -> G(a, theta0)."""
    if model.theta0 is None:
        raise ValueError("model has no known true rate theta0")
    return math.log((model.b + model.h) / model.h) / model.theta0


def log_likelihood(theta, data: Observations):
    """Exponential i.i.d. log likelihood n*log(theta) - theta*sum(x)."""
    theta_arr = _as_positive_theta(theta)
    out = data.n * np.log(theta_arr) - theta_arr * data.sum_s
    return float(out) if np.ndim(theta) == 0 else out


def log_prior(theta, model: NewsvendorModel):
    """Inverse-gamma(alpha, beta) log density over the rate."""
    theta_arr = _as_positive_theta(theta)
    out = (
        model.alpha * math.log(model.beta)
        - math.lgamma(model.alpha)
        - (model.alpha + 1.0) * np.log(theta_arr)
        - model.beta / theta_arr
    )
    return float(out) if np.ndim(theta) == 0 else out


def log_posterior_unnormalized(theta, data: Observations, model: NewsvendorModel):
    """log p(X | theta) + log pi(theta), the posterior up to its constant."""
    return log_likelihood(theta, data) + log_prior(theta, model)


def sample_demand(theta: float, count: int, rng) -> Observations:
    """Draw ``count`` i.i.d. Exp(theta) demands by inverse CDF -log(U)/theta.

    Deterministic given the generator state; ``rng`` only needs a
    ``random(count)`` method returning uniforms in [0, 1), as a sequence or
    a fresh array, which the draws overwrite.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    draws = np.asarray(rng.random(count), dtype=float)
    # random() can return exactly 0; nudge to keep -log(U) finite.
    np.maximum(draws, sys.float_info.min, out=draws)
    np.log(draws, out=draws)
    np.negative(draws, out=draws)
    np.divide(draws, theta, out=draws)
    return Observations(draws)


def fisher_information(theta):
    """Fisher information 1/theta^2 of the exponential rate."""
    theta_arr = _as_positive_theta(theta)
    out = 1.0 / (theta_arr * theta_arr)
    return float(out) if np.ndim(theta) == 0 else out
