"""Shared numerical machinery: quadrature tables, 1-D minimization, ascent."""

from __future__ import annotations

import math
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
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class NumericalError(RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""


@lru_cache(maxsize=None)
def gauss_legendre(node_count: int):
    """Gauss-Legendre nodes/weights on [-1, 1]; cached, treat as read-only."""
    x, w = np.polynomial.legendre.leggauss(node_count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def gauss_hermite_standard(node_count: int):
    """Nodes/weights for E[f(Z)], Z ~ N(0, 1): sum(w * f(z)) with sum(w) = 1."""
    x, w = np.polynomial.hermite.hermgauss(node_count)
    z = x * math.sqrt(2.0)
    w = w / math.sqrt(math.pi)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def golden_section_minimize(f, lo: float, hi: float, tol: float, max_iterations: int = 400):
    """Golden-section minimization of a unimodal f on [lo, hi].

    Shrinks the bracket until its width drops below ``tol`` and returns the
    best evaluated point, breaking exact ties toward the smaller abscissa.
    Returns (x, f(x), evaluations).
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
    iterations = 0
    while (b - a) > tol and iterations < max_iterations:
        iterations += 1
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

    ``f`` is first called once with the whole grid, an increasing array of
    ``coarse_points`` abscissae, and must return one value per point; the
    golden-section refinement of the best cell's neighbours then calls it
    with single floats. Returns (x, f(x), evaluations) for the best of all
    evaluations, ties broken toward the smaller abscissa.
    """
    grid = np.linspace(lo, hi, coarse_points)
    values = np.asarray(f(grid), dtype=float)
    k = int(np.argmin(values))  # first minimum = smallest abscissa
    best_x, best_f = float(grid[k]), float(values[k])
    evaluations = coarse_points
    bracket_lo = float(grid[max(k - 1, 0)])
    bracket_hi = float(grid[min(k + 1, coarse_points - 1)])
    if bracket_hi - bracket_lo > tol:
        gx, gf, gev = golden_section_minimize(f, bracket_lo, bracket_hi, tol)
        evaluations += gev
        if gf < best_f or (gf == best_f and gx < best_x):
            best_x, best_f = gx, gf
    return best_x, best_f, evaluations


@dataclass(frozen=True)
class AscentResult:
    x: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    converged: bool


def ascend(
    value_and_grad,
    x0,
    tolerance: float = 1e-8,
    max_iterations: int = 10_000,
    preconditioner=None,
    armijo: float = 1e-4,
) -> AscentResult:
    """Maximize a smooth objective by scaled gradient ascent with Armijo backtracking.

    ``value_and_grad(x) -> (f, g)``; ``preconditioner(x)`` returns a positive
    per-coordinate step scaling (identity when omitted). Stops when the true
    gradient norm drops below ``tolerance`` or the iteration cap is hit; a
    stalled line search ends the run with ``converged=False``.

    The Armijo test tolerates objective changes within a few ulps of the
    current value: near the optimum the analytic gradient keeps far more
    signal than objective differences, which round to zero long before the
    gradient tolerance is met. The best iterate seen is the one returned,
    so the result never undercuts its own starting value.
    """
    x = np.array(x0, dtype=float)
    value, grad = value_and_grad(x)
    if not math.isfinite(value):
        raise NumericalError("objective is not finite at the initial point")
    grad = np.asarray(grad, dtype=float)
    best_x, best_value, best_grad = x, value, grad

    def result(iterations: int, *, stopped_by_tolerance: bool) -> AscentResult:
        if stopped_by_tolerance or value >= best_value:
            out_x, out_value, out_grad = x, value, grad
        else:
            out_x, out_value, out_grad = best_x, best_value, best_grad
        norm = float(np.linalg.norm(out_grad))
        return AscentResult(out_x, out_value, norm, iterations, norm < tolerance)

    for iteration in range(max_iterations):
        gradient_norm = float(np.linalg.norm(grad))
        if gradient_norm < tolerance:
            return result(iteration, stopped_by_tolerance=True)
        scale = preconditioner(x) if preconditioner is not None else 1.0
        direction = grad * scale
        slope = float(grad @ direction)
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(value))
        step = 1.0
        accepted = False
        while step > 1e-20:
            candidate = x + step * direction
            cand_value, cand_grad = value_and_grad(candidate)
            if math.isfinite(cand_value) and cand_value + noise >= value + armijo * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted or np.array_equal(candidate, x):
            return result(iteration + 1, stopped_by_tolerance=False)
        x, value, grad = candidate, cand_value, np.asarray(cand_grad, dtype=float)
        if value > best_value:
            best_x, best_value, best_grad = x, value, grad
    return result(max_iterations, stopped_by_tolerance=False)
