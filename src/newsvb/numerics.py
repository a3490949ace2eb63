"""Shared numerical machinery: quadrature tables, 1-D minimization, Newton ascent."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NumericalError",
    "gauss_legendre",
    "gauss_hermite_standard",
    "golden_section_minimize",
    "minimize_on_grid_then_golden",
    "ascend",
    "AscentResult",
    "newton_direction",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_ARMIJO = 1e-4  # sufficient-increase fraction of the predicted ascent


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence (n >= 1, |x| < 1)."""
    previous, p = np.ones_like(x), x.copy()
    for j in range(1, n):
        previous, p = p, ((2 * j + 1) * x * p - j * previous) / (j + 1)
    return p, n * (x * p - previous) / (x * x - 1.0)


def _hermite(n: int, x: np.ndarray):
    """The orthonormal Hermite polynomial p_n(x) of the weight exp(-x^2) and
    p_n'(x) = sqrt(2n)*p_{n-1}(x), by the three-term recurrence."""
    previous, p = np.zeros_like(x), np.full_like(x, math.pi**-0.25)
    for j in range(1, n + 1):
        previous, p = p, math.sqrt(2.0 / j) * x * p - math.sqrt((j - 1) / j) * previous
    return p, math.sqrt(2.0 * n) * previous


def _mirrored_roots(polynomial, n: int, x: np.ndarray, weight, kind: str, scale=1.0):
    """Newton's method on ``polynomial(n, x) -> (p, p')`` from the decreasing
    starts ``x`` of the ceil(n/2) nonnegative roots, all at once, then the
    nodes mirrored about 0 in increasing order, times ``scale``, with
    ``weight(x, p')``. ``NumericalError`` if Newton stalls or the roots are
    not distinct."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails below
        for _ in range(100):
            p, dp = polynomial(n, x)
            step = p / dp
            x -= step
            if np.all(np.abs(step) <= 1e-14 * np.maximum(1.0, np.abs(x))):  # False for NaN
                break  # Newton squares the error: the step taken was the last one needed
        else:
            raise NumericalError(f"{kind} nodes did not converge for {n} nodes")
        w = weight(x, polynomial(n, x)[1])
    distinct = np.all(np.diff(x) < 0) and x[-1] > -1e-14  # no root found twice
    if not (distinct and np.all((w >= 0) & (w < math.inf))):  # an edge weight may underflow
        raise NumericalError(f"{kind} nodes are not {n} distinct roots")
    upper = slice(n % 2, None)  # an odd n's middle node appears once
    nodes = scale * np.concatenate([-x, x[::-1][upper]])
    weights = np.concatenate([w, w[::-1][upper]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def gauss_legendre(node_count: int):
    """Gauss-Legendre nodes/weights on [-1, 1]; cached, treat as read-only.

    Newton's method on P_n's recurrence from cos(pi*(k - 1/4)/(n + 1/2)),
    k = 1..ceil(n/2); the weights are 2/((1 - x^2)*P_n'(x)^2).
    """
    n = node_count
    k = np.arange(1, (n + 1) // 2 + 1)
    starts = np.cos(math.pi * (k - 0.25) / (n + 0.5))
    return _mirrored_roots(
        _legendre, n, starts, lambda x, dp: 2.0 / ((1.0 - x * x) * dp * dp), "Gauss-Legendre"
    )


@lru_cache(maxsize=None)
def gauss_hermite_standard(node_count: int):
    """Nodes/weights for E[f(Z)], Z ~ N(0, 1): sum(w * f(z)) with sum(w) = 1.

    Newton's method on the orthonormal Hermite recurrence finds the nodes x
    of the weight exp(-x^2), with weights 2/p_n'(x)^2, and z = sqrt(2)*x,
    w/sqrt(pi) rescale them to N(0, 1). The starts are the WKB estimates
    x = sqrt(nu)*cos(t), nu = 2n + 1, with (nu/2)*(t - sin(t)*cos(t)) =
    pi*(k - 1/4) for the k-th largest node; Newton from t = pi/2 solves for
    t monotonically, that function of t being convex and increasing.
    """
    n = node_count
    nu = 2 * n + 1
    phase = 2.0 * math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / nu
    t = np.full_like(phase, 0.5 * math.pi)
    for _ in range(40):
        t -= (t - np.sin(t) * np.cos(t) - phase) / (2.0 * np.sin(t) ** 2)
    return _mirrored_roots(
        _hermite,
        n,
        math.sqrt(nu) * np.cos(t),
        lambda x, dp: 2.0 / dp / dp / math.sqrt(math.pi),
        "Gauss-Hermite",
        math.sqrt(2.0),
    )


def golden_section_minimize(f, lo: float, hi: float, tol: float):
    """Golden-section minimization of a unimodal f on [lo, hi].

    Shrinks the bracket until its width drops below ``tol`` (at most 400
    shrinks) and returns the best evaluated point, breaking exact ties
    toward the smaller abscissa. Returns (x, f(x), evaluations).
    """
    a, b = float(lo), float(hi)
    if not a < b:
        raise ValueError("golden-section bracket must satisfy lo < hi")
    width = b - a
    x1 = b - _INV_PHI * width
    x2 = a + _INV_PHI * width
    f1, f2 = f(x1), f(x2)
    evaluations = 2
    if f1 < f2 or (f1 == f2 and x1 < x2):
        best_x, best_f = x1, f1
    else:
        best_x, best_f = x2, f2
    while (b - a) > tol and evaluations < 402:  # two initial probes + at most 400 shrinks
        if f1 <= f2:  # ties shrink toward the left, keeping smaller x reachable
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
            cand_x, cand_f = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
            cand_x, cand_f = x2, f2
        evaluations += 1
        if cand_f < best_f or (cand_f == best_f and cand_x < best_x):
            best_x, best_f = cand_x, cand_f
    return best_x, best_f, evaluations


def minimize_on_grid_then_golden(f, lo, hi, coarse_points=512, tol=1e-8):
    """Coarse grid scan followed by golden-section refinement.

    ``f`` is called with one float at a time: on each of ``coarse_points``
    evenly spaced abscissae, then by the golden-section refinement of the
    best cell's neighbours. Returns (x, f(x), evaluations) for the best of
    all evaluations, ties broken toward the smaller abscissa. ``tol`` is the
    final bracket width, not an accuracy: compared values stop resolving x
    within about sqrt(eps*|f|/f'') of the minimizer, more than ``tol`` on a
    flat f.
    """
    grid = np.linspace(lo, hi, coarse_points).tolist()
    values = [f(x) for x in grid]
    k = int(np.argmin(values))  # first minimum = smallest abscissa
    best_x, best_f = grid[k], float(values[k])
    evaluations = coarse_points
    bracket_lo, bracket_hi = grid[max(k - 1, 0)], grid[min(k + 1, coarse_points - 1)]
    if bracket_hi - bracket_lo > tol:
        gx, gf, gev = golden_section_minimize(f, bracket_lo, bracket_hi, tol)
        evaluations += gev
        if gf < best_f or (gf == best_f and gx < best_x):
            best_x, best_f = gx, gf
    return best_x, best_f, evaluations


@dataclass(frozen=True)
class AscentResult:
    """The returned point and the number of objective evaluations the run made."""

    x: tuple[float, float]
    value: float
    gradient_norm: float
    iterations: int
    converged: bool
    fallback_steps: int
    evaluations: int


def newton_direction(gradient, hessian):
    """-H^{-1} g for a negative definite 2x2 ``hessian``, else None."""
    (h00, h01), (_, h11) = hessian
    det = h00 * h11 - h01 * h01
    if not (h00 < 0.0 and 0.0 < det < math.inf):  # False for NaN too
        return None
    g0, g1 = gradient
    return (h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det


def ascend(
    objective,
    x0,
    tolerance: float = 1e-8,
    max_iterations: int = 10_000,
) -> AscentResult:
    """Maximize a smooth objective of two parameters by damped Newton ascent.

    ``objective(x) -> (f, g, H, H_fallback, ...)`` gives the value,
    gradient and Hessian at ``x`` and a fallback curvature that is negative
    definite wherever ``f`` is finite; further values are ignored. A pair
    of floats ``x`` goes in, any pair ``g`` and 2x2 nestings (tuples or
    arrays) come out. The result counts the objective evaluations.
    Each step solves the Newton system in closed form with ``H``, or with
    ``H_fallback`` where ``H`` is not negative definite (counted in
    ``fallback_steps``), and halves the step until the Armijo condition
    holds. Stops when the gradient norm drops below ``tolerance`` or the
    iteration cap is hit; a stalled line search, or no negative definite
    curvature at all, ends the run with ``converged=False``.

    The Armijo test tolerates objective changes within a few ulps of the
    current value: near the optimum the analytic gradient keeps far more
    signal than objective differences, which round to zero long before the
    gradient tolerance is met. The best iterate seen is the one returned,
    so the result never undercuts its own starting value.
    """
    x = (float(x0[0]), float(x0[1]))
    current = objective(x)
    value, grad, hess, fallback, *_ = current
    if not math.isfinite(value):
        raise NumericalError("objective is not finite at the initial point")
    best_x, best = x, current
    fallback_steps = 0
    evaluations = 1

    def result(iterations: int, *, stopped_by_tolerance: bool) -> AscentResult:
        out_x, out = (x, current) if stopped_by_tolerance or value >= best[0] else (best_x, best)
        norm = math.hypot(*out[1])
        return AscentResult(
            out_x, out[0], norm, iterations, norm < tolerance, fallback_steps, evaluations
        )

    for iteration in range(max_iterations):
        if math.hypot(*grad) < tolerance:
            return result(iteration, stopped_by_tolerance=True)
        direction = newton_direction(grad, hess)
        if direction is None:
            fallback_steps += 1
            direction = newton_direction(grad, fallback)
            if direction is None:
                return result(iteration, stopped_by_tolerance=False)
        d0, d1 = direction
        slope = grad[0] * d0 + grad[1] * d1
        noise = 64.0 * sys.float_info.epsilon * (1.0 + abs(value))
        step = 1.0
        accepted = False
        while step > 1e-20:
            candidate = (x[0] + step * d0, x[1] + step * d1)
            cand = objective(candidate)
            evaluations += 1
            if math.isfinite(cand[0]) and cand[0] + noise >= value + _ARMIJO * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted or candidate == x:
            return result(iteration + 1, stopped_by_tolerance=False)
        x, current = candidate, cand
        value, grad, hess, fallback, *_ = current
        if value > best[0]:
            best_x, best = x, current
    return result(max_iterations, stopped_by_tolerance=False)
