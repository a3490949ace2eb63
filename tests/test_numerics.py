"""Shared numerics: quadrature tables, the coarse scan plus golden-section
contract, Newton ascent."""

import math

import mpmath
import numpy as np
import pytest

from newsvb.numerics import (
    NumericalError,
    ascend,
    gauss_hermite_standard,
    gauss_legendre,
    minimize_on_grid_then_golden,
)


def legendre_reference(n, start):
    """A Gauss-Legendre node and weight in 40-digit arithmetic, by Newton
    from ``start`` on mpmath's own P_n."""
    with mpmath.workdps(40):
        x = mpmath.mpf(start)
        for _ in range(3):
            derivative = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
            x -= mpmath.legendre(n, x) / derivative
        derivative = n * (x * mpmath.legendre(n, x) - mpmath.legendre(n - 1, x)) / (x * x - 1)
        return float(x), float(2 / ((1 - x * x) * derivative**2))


def hermite_reference(n, start):
    """A standard-normal Gauss-Hermite node and weight in 40-digit arithmetic,
    by Newton from ``start`` on mpmath's physicists' H_n."""
    with mpmath.workdps(40):
        x = mpmath.mpf(start) / mpmath.sqrt(2)
        for _ in range(3):
            x -= mpmath.hermite(n, x) / (2 * n * mpmath.hermite(n - 1, x))
        weight = 2 ** (n - 1) * mpmath.factorial(n) / (n * n * mpmath.hermite(n - 1, x) ** 2)
        return float(x * mpmath.sqrt(2)), float(weight)


class TestQuadratureTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 32, 255, 256, 1024])
    def test_legendre_matches_numpy(self, n):
        x, w = gauss_legendre(n)
        reference_x, reference_w = np.polynomial.legendre.leggauss(n)
        assert np.all(np.diff(x) > 0)
        assert np.max(np.abs(x - reference_x)) <= 2.3e-16
        # numpy's eigensolver weights drift by ~2e-11 at 256 nodes, 1.2e-9 at 1,024.
        assert np.max(np.abs(w - reference_w) / reference_w) <= 2e-9
        assert abs(w.sum() - 2.0) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 65, 96, 128, 160])
    def test_hermite_matches_numpy(self, n):
        z, w = gauss_hermite_standard(n)
        x, reference_w = np.polynomial.hermite.hermgauss(n)
        reference_z = math.sqrt(2.0) * x
        assert np.all(np.diff(z) > 0)
        assert np.all(np.abs(z - reference_z) <= 1e-15 * np.maximum(1.0, np.abs(reference_z)))
        assert np.max(np.abs(w - reference_w / math.sqrt(math.pi))) <= 1e-15
        assert abs(w.sum() - 1.0) <= 2e-15

    @pytest.mark.parametrize("n", [32, 256])
    def test_legendre_matches_40_digit_arithmetic(self, n):
        x, w = gauss_legendre(n)
        for i in (0, 1, n // 4, n // 2 - 1):
            node, weight = legendre_reference(n, x[i])
            assert abs(x[i] - node) <= 2.3e-16
            assert abs(w[i] - weight) <= 1e-12 * weight

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_hermite_matches_40_digit_arithmetic(self, n):
        z, w = gauss_hermite_standard(n)
        for i in (0, 1, n // 4, n // 2 - 1):
            node, weight = hermite_reference(n, z[i])
            assert abs(z[i] - node) <= 1e-15 * max(1.0, abs(node))
            assert abs(w[i] - weight) <= 1e-13 * weight

    def test_tables_are_cached_and_read_only(self):
        for table in (gauss_legendre, gauss_hermite_standard):
            nodes, weights = table(64)
            assert table(64)[0] is nodes
            assert not nodes.flags.writeable and not weights.flags.writeable

    def test_hermite_past_the_floating_range_raises(self):
        # The orthonormal recurrence overflows near sqrt(2n) ~ 40 for n = 800.
        with pytest.raises(NumericalError, match="800"):
            gauss_hermite_standard(800)


class TestMinimizeOnGridThenGolden:
    def test_one_float_per_call_and_best_of_all(self):
        def objective(x):
            return math.cos(3.0 * x) + 0.1 * x

        calls = []

        def recording(x):
            calls.append(x)
            return objective(x)

        x, fx, evaluations = minimize_on_grid_then_golden(recording, 0.0, 4.0)
        assert all(type(c) is float for c in calls)
        grid, probes = calls[:512], calls[512:]  # the default scan size
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == 0.0 and grid[-1] == 4.0
        assert probes and evaluations == len(calls)
        pairs = [(objective(c), c) for c in calls]
        assert (fx, x) == min(pairs)
        assert fx < min(v for v, _ in pairs[:512])  # golden refined the scan

    def test_ties_break_toward_smaller_abscissa(self):
        calls = []

        def flat(x):
            calls.append(x)
            return 2.5

        x, fx, evaluations = minimize_on_grid_then_golden(flat, 1.0, 3.0, 9, 1e-3)
        assert (x, fx) == (1.0, 2.5)
        assert all(type(c) is float for c in calls)
        assert len(calls) > 9  # golden ran and found only ties
        assert evaluations == len(calls)

        def twin_minima(x):
            return min((x - 0.25) ** 2, (x - 0.75) ** 2)

        x, fx, _ = minimize_on_grid_then_golden(twin_minima, 0.0, 1.0, 9, 1e-6)
        assert (x, fx) == (0.25, 0.0)


def concave_quadratic(center, curvature):
    """f(x) = -(x - c)'A(x - c)/2 as an ``ascend`` objective."""
    hessian = -np.asarray(curvature, dtype=float)

    def objective(x):
        offset = x - center
        gradient = hessian @ offset
        return 0.5 * float(offset @ gradient), gradient, hessian, hessian

    return objective


class TestAscend:
    def test_concave_quadratic_converges_in_one_step(self):
        center = np.array([1.5, -0.25])
        objective = concave_quadratic(center, [[4.0, 1.0], [1.0, 3.0]])
        result = ascend(objective, [-2.0, 3.0])
        assert result.converged and result.iterations == 1
        assert result.fallback_steps == 0
        assert np.allclose(result.x, center, rtol=0.0, atol=1e-12)

    def test_indefinite_curvature_uses_the_fallback_and_converges(self):
        # f = -log(1 + x0^2) - x1^2 curves upward in x0 where |x0| > 1.
        fallback = np.diag([-2.0, -2.0])

        def objective(x):
            x0, x1 = float(x[0]), float(x[1])
            s = 1.0 + x0 * x0
            hessian = np.diag([-2.0 * (1.0 - x0 * x0) / (s * s), -2.0])
            gradient = np.array([-2.0 * x0 / s, -2.0 * x1])
            return -math.log(s) - x1 * x1, gradient, hessian, fallback

        assert objective(np.array([3.0, 1.0]))[2][0, 0] > 0.0
        result = ascend(objective, [3.0, 1.0])
        assert result.converged and result.fallback_steps > 0
        assert np.allclose(result.x, 0.0, rtol=0.0, atol=1e-8)

    def test_non_finite_start_raises(self):
        def objective(x):
            return -math.inf, np.zeros(2), -np.eye(2), -np.eye(2)

        with pytest.raises(NumericalError, match="initial point"):
            ascend(objective, [0.0, 0.0])

    def test_result_never_falls_below_its_start(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            root = rng.normal(size=(2, 2))
            objective = concave_quadratic(rng.normal(size=2), root @ root.T + 0.1 * np.eye(2))
            start = rng.normal(scale=5.0, size=2)
            result = ascend(objective, start)
            assert result.converged
            assert result.value >= objective(start)[0]

        # A gradient with the wrong sign stalls the line search at once.
        def misleading(x):
            value, gradient, hessian, fallback = concave_quadratic(np.zeros(2), np.eye(2))(x)
            return value, -gradient, hessian, fallback

        start = np.array([0.5, -1.0])
        result = ascend(misleading, start)
        assert not result.converged
        assert result.value == misleading(start)[0]
        assert np.array_equal(result.x, start)
