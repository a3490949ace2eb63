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
(theta = exp(mu + sigma*z), z ~ N(0,1)), which keeps the decision
loops reproducible.

The plain fit is one scalar root (``fit_nvb``); the calibrated fit is one
damped Newton ascent (``numerics.ascend``) over (mu, rho = log sigma) from
its start. With A = S*exp(mu + v/2), B = beta*exp(-mu + v/2) and
v = sigma^2, the bound's Hessian is

    H_mumu = -(A + B),  H_murho = v*(B - A),  H_rhorho = -v*(A + B)*(2 + v),

negative definite everywhere (its determinant is 2v(A+B)^2 + 4v^2*AB > 0).
The calibrated fit adds the Gauss-Hermite Hessian of E_q[log G], which
needs the risk's second derivative in log theta (``Risk.theta_terms``);
where that sum is not negative definite, the step uses the bound's Hessian
alone. Newton steps take the likelihood curvature in mu, which grows like
n, in their stride.

The risk G enters through a ``Risk`` object (``model.Risk``); passing
``risk=None`` selects the model's own newsvendor risk.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
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
from .numerics import NumericalError, ascend, gauss_hermite_standard, newton_direction

if TYPE_CHECKING:  # pragma: no cover
    from .oracle import PosteriorGrid

__all__ = [
    "LogNormalVariational",
    "FitDiagnostics",
    "FitSettings",
    "CalibratedObjective",
    "TOLERANCE",
    "MAX_ITERATIONS",
    "NODE_COUNT",
    "elbo",
    "elbo_gradient",
    "posterior_kl",
    "fit_nvb",
    "calibrated_objective",
    "fit_lcvb",
    "kl_decomposition_check",
    "variational_variance",
]

logger = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)
_RISK_FLOOR = 1e-300

TOLERANCE = 1e-8  # gradient norm at which an ascent, and LCVB's saddle solve, stops
MAX_ITERATIONS = 10_000  # the step cap of an ascent and of the plain fit's root
NODE_COUNT = 64  # Gauss-Hermite nodes of every E_q[.] the fits and decisions take


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
    """How one fit ended, with the value at its member (the ELBO for
    ``fit_nvb``, whose root always converges; ELBO + E_q[log G], F plus the
    log evidence, for ``fit_lcvb``) and the objective evaluations it made.

    ``decisions.lcvb_decide`` reports its joint Newton solve in the same
    fields, with the envelope slope F_a = dV/da and curvature
    V'' = F_aa + F_aq . s (s = -F_qq^{-1} F_qa) at its member; a fit leaves
    both None.
    """

    iterations: int
    final_gradient_norm: float
    converged: bool
    objective: float
    # Always 0: every fit is a single solve. Kept because the benchmark's
    # tracer (perfbench/tracing.py) reads it.
    restarts_used: int = 0
    envelope_slope: float | None = None
    envelope_curvature: float | None = None
    evaluations: int = 0


class FitSettings:
    """The fits' constants as read-only attributes; it takes no arguments.
    Kept because the benchmark's workloads (perfbench/workloads.py) build
    one, read ``node_count`` and pass it to ``nvb_decide`` and
    ``lcvb_decide``, which ignore it."""

    __slots__ = ()
    tolerance = TOLERANCE
    max_iterations = MAX_ITERATIONS
    node_count = NODE_COUNT


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
    """Value, (mu, rho) gradient and Hessian (as nested pairs) of the closed-form bound."""
    sigma = _guarded_exp(rho)
    v = sigma * sigma
    ep = _guarded_exp(mu + 0.5 * v)  # E_q[theta]
    em = _guarded_exp(-mu + 0.5 * v)  # E_q[1/theta]
    if not (math.isfinite(ep) and math.isfinite(em) and math.isfinite(v)):
        return -math.inf, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0))
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
    a_term, b_term = total * ep, beta * em
    both = a_term + b_term
    cross = v * (b_term - a_term)
    gradient = (n - alpha - a_term + b_term, 1.0 - v * both)
    hessian = ((-both, cross), (cross, -v * both * (2.0 + v)))
    return value, gradient, hessian


def elbo(q: LogNormalVariational, data: Observations, model: NewsvendorModel) -> float:
    """Closed-form evidence lower bound at q."""
    return _elbo_terms(q.mu, math.log(q.sigma), data.n, data.sum_s, model.alpha, model.beta)[0]


def elbo_gradient(q: LogNormalVariational, data: Observations, model: NewsvendorModel) -> np.ndarray:
    """Analytic gradient of the bound with respect to (mu, log sigma)."""
    return np.array(
        _elbo_terms(q.mu, math.log(q.sigma), data.n, data.sum_s, model.alpha, model.beta)[1]
    )


def posterior_kl(
    q: LogNormalVariational, data: Observations, model: NewsvendorModel, grid: "PosteriorGrid"
) -> float:
    """KL(q || posterior) as the oracle's log evidence minus the bound.

    Raises ``NumericalError`` when the evidence falls below the bound by
    more than 1e-6: the grid was built for other data, or it cannot resolve
    this posterior. Smaller negative values are rounding and read 0.
    """
    kl = grid.log_evidence - elbo(q, data, model)
    if kl < -1e-6:
        raise NumericalError(
            f"evidence {grid.log_evidence:.9g} fell below the bound by {-kl:.3e}; "
            "the posterior grid does not match or does not resolve this dataset"
        )
    return max(kl, 0.0)


def _member(objective, x, value: float):
    """Member at x = (mu, rho), its value (re-evaluated where log(exp(rho)) != rho) and if it was."""
    q = LogNormalVariational(x[0], math.exp(x[1]))
    at = (q.mu, math.log(q.sigma))
    return q, (value if at == x else objective(at)[0]), at != x


def fit_nvb(
    data: Observations, model: NewsvendorModel
) -> tuple[LogNormalVariational, FitDiagnostics]:
    """The plain variational posterior: the (strictly concave) bound's maximizer.

    With p = n - alpha, A = S*E_q[theta], B = beta*E_q[1/theta] and
    w = 1/sigma^2 its gradient vanishes where A - B = p, A + B = w and
    A*B = S*beta*exp(1/w): x = min(A, B) is the root of the increasing,
    concave phi(x) = log x + log(x + |p|) - 1/(2x + |p|) - log(S*beta).
    Newton from the root x0 of x*(x + |p|) = S*beta (phi < 0 there) rises
    to it monotonically, stopping before the first rise of at most 4 ulps.
    ``NumericalError`` where S*beta leaves the normal floats or the bound
    at the member is not finite.
    """
    if data.sum_s <= 0:
        raise ValueError("degenerate data: all observed demands are zero")
    total, beta, p = data.sum_s, model.beta, data.n - model.alpha
    gap, product = abs(p), total * beta
    if not np.finfo(float).tiny <= product < math.inf:
        raise NumericalError(f"S*beta = {product:.3g} leaves the normal floats")
    log_product = math.log(total) + math.log(beta)
    x = product / (0.5 * gap + math.sqrt(0.25 * gap * gap + product))
    for steps in range(MAX_ITERATIONS):
        w = 2.0 * x + gap
        phi = math.log(x) + math.log(x + gap) - 1.0 / w - log_product
        rise = -phi / (1.0 / x + 1.0 / (x + gap) + 2.0 / (w * w))
        if rise <= 4.0 * math.ulp(x):
            break
        x += rise
    ratio = (x + gap if p >= 0 else x) / total  # A/S = exp(mu + 1/(2w))
    mu, sigma = (math.log(ratio) if ratio > 0.0 else -math.inf) - 0.5 / w, w**-0.5
    value, gradient, _ = _elbo_terms(mu, math.log(sigma), data.n, total, model.alpha, beta)
    if not math.isfinite(value):
        raise NumericalError(f"the bound is {value} at its stationary point")
    norm = math.hypot(*gradient)
    logger.debug("plain fit: %d Newton steps, gradient norm %.3e", steps, norm)
    return LogNormalVariational(mu, sigma), FitDiagnostics(steps, norm, True, value, evaluations=1)


@lru_cache(maxsize=None)
def _moment_basis(node_count: int):
    """Standard Gauss-Hermite nodes z and the (k, 3) columns [w, w*z, w*z^2]."""
    z, w = gauss_hermite_standard(node_count)
    basis = np.column_stack([w, w * z, w * z * z])
    basis.setflags(write=False)
    return z, basis


def _log_risk_term(a: float, mu: float, rho: float, risk: Risk, node_count: int = NODE_COUNT):
    """E_q[log G(a, theta)] with its (mu, rho) gradient and Hessian by Gauss-Hermite.

    Returns (value, gradient, hessian, action, clamped), the derivatives as
    nested pairs of floats and ``action`` the derivatives (F_a, F_a_mu,
    F_a_rho, F_aa) in a, then a and mu, a and rho, and a twice. Raises when
    the risk is not strictly positive at some node; positive values below
    the floating floor are clamped and flagged.
    """
    z, basis = _moment_basis(node_count)
    sigma = math.exp(rho)
    theta = np.exp(mu + sigma * z)
    values, slope, curvature, g_a, g_a_theta, g_aa = risk.theta_terms(a, theta)
    lowest = values.min()  # NaN propagates, so NaN fails the test below too
    if not (lowest > 0.0 and values.max() < math.inf):
        raise NumericalError(
            f"risk must be strictly positive over the quadrature nodes (a={a:.6g})"
        )
    clamped = bool(lowest < _RISK_FLOOR)
    if clamped:
        logger.warning("risk values clamped at %.1e before taking logs (a=%.6g)", _RISK_FLOOR, a)
        values = np.maximum(values, _RISK_FLOOR)
    # Rows log G, l', l'', l_a, l_a' and l_aa of l(u) = log G(a, e^u) at
    # u = mu + sigma*z, with l' = theta*dG/dtheta / G,
    # l'' = theta*d(theta*dG/dtheta)/dtheta / G - l'^2, l_a = dG/da / G,
    # l_a' = theta*d(dG/da)/dtheta / G - l_a*l' and l_aa = d^2G/da^2 / G - l_a^2;
    # one product gives each row's sums against w, w*z and w*z^2.
    terms = np.empty((6, z.size))
    np.log(values, out=terms[0])
    np.divide(slope, values, out=terms[1])
    np.divide(curvature, values, out=terms[2])
    terms[2] -= np.square(terms[1])
    np.divide(g_a, values, out=terms[3])
    np.divide(g_a_theta, values, out=terms[4])
    terms[4] -= terms[3] * terms[1]
    np.divide(g_aa, values, out=terms[5])
    terms[5] -= np.square(terms[3])
    sums = (terms @ basis).tolist()
    (value, _, _), (g_mu, g_rho, _), (h_mu, h_mu_rho, h_rho), (f_a, _, _) = sums[:4]
    (f_a_mu, f_a_rho, _), (f_aa, _, _) = sums[4:]
    g_rho, h_mu_rho = sigma * g_rho, sigma * h_mu_rho
    h_rho = sigma * sigma * h_rho + g_rho
    hessian = ((h_mu, h_mu_rho), (h_mu_rho, h_rho))
    return value, (g_mu, g_rho), hessian, (f_a, f_a_mu, sigma * f_a_rho, f_aa), clamped


def _lcvb_objective(a: float, data: Observations, model: NewsvendorModel, risk: Risk):
    """ELBO + E_q[log G(a, .)] as an ``ascend`` objective of x = (mu, rho),
    with the bound's own Hessian as the fallback curvature. Three further
    values, which ``ascend`` ignores and ``decisions.lcvb_decide`` reads,
    are F_a (the bound does not depend on a), the tangent
    s = -F_qq^{-1} F_qa and the envelope curvature V'' = F_aa + F_aq . s,
    the last two None where F_qq is not negative definite or s is not
    finite."""

    def objective(x):
        value, gradient, hessian = _elbo_terms(*x, data.n, data.sum_s, model.alpha, model.beta)
        if not math.isfinite(value):
            return -math.inf, gradient, hessian, hessian
        log_risk, (l_mu, l_rho), ((m00, m01), (_, m11)), action, _ = _log_risk_term(a, *x, risk)
        (e00, e01), (_, e11) = hessian
        total = ((e00 + m00, e01 + m01), (e01 + m01, e11 + m11))
        gradient = (gradient[0] + l_mu, gradient[1] + l_rho)
        f_a, f_a_mu, f_a_rho, f_aa = action
        tangent = newton_direction((f_a_mu, f_a_rho), total)
        if tangent is None or not all(map(math.isfinite, tangent)):
            return value + log_risk, gradient, total, hessian, f_a, None, None
        curvature = f_aa + f_a_mu * tangent[0] + f_a_rho * tangent[1]
        return value + log_risk, gradient, total, hessian, f_a, tangent, curvature

    return objective


def calibrated_objective(
    a: float,
    q: LogNormalVariational,
    data: Observations,
    model: NewsvendorModel,
    grid: "PosteriorGrid",
    risk: Risk | None = None,
) -> CalibratedObjective:
    """Evaluate F(a, q) = -KL(q || posterior) + E_q[log G(a, theta)].

    The divergence is ``posterior_kl``: exact up to the quadrature
    oracle's own error, and checked against it.
    """
    validate_action(a, model)
    log_risk, _, _, _, clamped = _log_risk_term(
        a, q.mu, math.log(q.sigma), resolve_risk(risk, model)
    )
    kl_term = posterior_kl(q, data, model, grid)
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
    risk: Risk | None = None,
    initial: LogNormalVariational | None = None,
) -> tuple[LogNormalVariational, FitDiagnostics]:
    """Maximize the calibrated objective over q for a fixed action.

    The -log p(X) part of F is constant in q, so the ascent maximizes
    ELBO + E_q[log G], needs no evidence, and reports that maximum as the
    diagnostics' ``objective`` at the returned member. One ascent to the
    gradient norm ``TOLERANCE`` from ``initial`` (e.g. the neighbouring
    solution in an outer action loop) or else the plain fit; a run short of
    it is returned, flagged and logged as a warning. E_q[log G] need not be
    concave, so the result is the maximum reached from that start.
    """
    validate_action(a, model)
    objective = _lcvb_objective(a, data, model, resolve_risk(risk, model))
    q0 = fit_nvb(data, model)[0] if initial is None else initial
    result = ascend(objective, (q0.mu, math.log(q0.sigma)), TOLERANCE, MAX_ITERATIONS)
    q, value, missed = _member(objective, result.x, result.value)
    logger.log(logging.DEBUG if result.converged else logging.WARNING,
               "calibrated fit at a=%.9g: %d iterations, gradient norm %.3e, %d fallback steps%s",
               a, result.iterations, result.gradient_norm, result.fallback_steps,
               "" if result.converged else ", not converged")
    return q, FitDiagnostics(result.iterations, result.gradient_norm, result.converged, value,
                             evaluations=result.evaluations + missed)


def kl_decomposition_check(
    a: float,
    q: LogNormalVariational,
    data: Observations,
    model: NewsvendorModel,
    grid: "PosteriorGrid",
    risk: Risk | None = None,
    node_count: int = 256,
    reference_node_count: int = 192,
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
    ref_log_risk = _log_risk_term(
        a, q.mu, math.log(q.sigma), risk, reference_node_count
    )[0]
    rhs = kl_q_post - ref_log_risk + log_zg
    return abs(lhs - rhs)
