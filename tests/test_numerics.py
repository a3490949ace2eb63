"""Shared 1-D minimization: the coarse scan plus golden-section contract."""

import numpy as np

from newsvb.numerics import minimize_on_grid_then_golden


class TestMinimizeOnGridThenGolden:
    def test_grid_call_then_scalar_probes_and_best_of_all(self):
        def objective(x):
            return np.cos(3.0 * np.asarray(x)) + 0.1 * np.asarray(x)

        calls = []

        def recording(x):
            calls.append(np.copy(x))
            return objective(x)

        x, fx, evaluations = minimize_on_grid_then_golden(recording, 0.0, 4.0)
        grid = calls[0]
        assert grid.shape == (512,)  # the default scan size
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == 0.0 and grid[-1] == 4.0
        probes = calls[1:]
        assert probes and all(np.ndim(p) == 0 for p in probes)
        assert evaluations == grid.size + len(probes)
        pairs = [(float(v), float(a)) for a, v in zip(grid, objective(grid))]
        pairs += [(float(objective(p)), float(p)) for p in probes]
        assert (fx, x) == min(pairs)
        assert fx < min(v for v, _ in pairs[: grid.size])  # golden refined the scan

    def test_ties_break_toward_smaller_abscissa(self):
        calls = []

        def flat(x):
            calls.append(np.ndim(x))
            return np.full(np.shape(x), 2.5) if np.ndim(x) else 2.5

        x, fx, evaluations = minimize_on_grid_then_golden(flat, 1.0, 3.0, 9, 1e-3)
        assert (x, fx) == (1.0, 2.5)
        assert calls[0] == 1 and len(calls) > 1  # golden ran and found only ties
        assert evaluations == 9 + len(calls) - 1

        def twin_minima(x):
            return np.minimum((np.asarray(x) - 0.25) ** 2, (np.asarray(x) - 0.75) ** 2)

        x, fx, _ = minimize_on_grid_then_golden(twin_minima, 0.0, 1.0, 9, 1e-6)
        assert (x, fx) == (0.25, 0.0)
