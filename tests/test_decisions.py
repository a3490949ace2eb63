"""Decision rules: two-stage NVB, nested LCVB, gap metrics, invariances."""

import math
from dataclasses import replace

import numpy as np
import pytest

from newsvb import (
    ConstantRisk,
    DecisionOutcome,
    LogNormalVariational,
    NewsvendorModel,
    NewsvendorRisk,
    Rule,
    build_posterior,
    bayes_decision,
    expected_risk_under_q,
    fit_nvb,
    lcvb_decide,
    nvb_decide,
    optimality_gap,
    posterior_expected_risk,
    risk,
    sample_demand,
    true_optimal_action,
)
from newsvb.decisions import decide_on_measure, decide_with_variational
from newsvb.numerics import minimize_on_grid_then_golden
from newsvb.vb import FitSettings, calibrated_objective, fit_lcvb


class TestExpectedRiskUnderQ:
    def test_zero_action_lognormal_moment(self, base_model):
        q = LogNormalVariational(-0.4, 0.3)
        expected = base_model.b * math.exp(0.4 + 0.045)
        assert expected_risk_under_q(0.0, q, base_model) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_member_recovers_risk(self, base_model):
        q = LogNormalVariational(math.log(base_model.theta0), 1e-6)
        for a in (0.5, 4.0, 12.0):
            assert abs(
                expected_risk_under_q(a, q, base_model) - risk(a, base_model.theta0, base_model)
            ) < 1e-6

    def test_monte_carlo_oracle(self, base_model):
        q = LogNormalVariational(-0.35, 0.25)
        rng = np.random.default_rng(30)
        thetas = np.exp(q.mu + q.sigma * rng.standard_normal(10_000_000))
        for a in (1.0, 5.0):
            samples = risk(a, thetas, base_model)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(expected_risk_under_q(a, q, base_model) - samples.mean()) <= 3 * se

    def test_action_array_matches_scalar_calls(self, base_model):
        q = LogNormalVariational(-0.35, 0.25)
        actions = np.linspace(0.0, 50.0, 101)
        values = expected_risk_under_q(actions, q, base_model)
        assert values.shape == actions.shape
        for a, value in zip(actions, values):
            assert value == expected_risk_under_q(float(a), q, base_model)

    def test_rejects_action_outside_interval(self, base_model):
        q = LogNormalVariational(0.0, 0.5)
        with pytest.raises(ValueError):
            expected_risk_under_q(-1.0, q, base_model)
        with pytest.raises(ValueError):
            expected_risk_under_q(51.0, q, base_model)


class TestNvbDecide:
    def test_matches_brute_force_grid(self, data_n50, base_model):
        outcome = nvb_decide(data_n50, base_model)
        q, _ = fit_nvb(data_n50, base_model)
        actions = np.linspace(0.0, 50.0, 100_001)
        values = [expected_risk_under_q(float(a), q, base_model) for a in actions]
        brute = actions[int(np.argmin(values))]
        assert abs(outcome.action - brute) <= 5e-4

    def test_near_degenerate_posterior_recovers_optimum(self, base_model):
        data = sample_demand(base_model.theta0, 100_000, np.random.default_rng(31))
        outcome = nvb_decide(data, base_model)
        assert abs(outcome.action - true_optimal_action(base_model)) < 0.05

    def test_objective_value_definition(self, data_n50, base_model):
        outcome = nvb_decide(data_n50, base_model)
        q, _ = fit_nvb(data_n50, base_model)
        assert outcome.rule is Rule.NVB
        assert outcome.objective_value == expected_risk_under_q(outcome.action, q, base_model)

    def test_matches_bayes_when_family_is_the_posterior_grid(self, grid_n50, base_model):
        # Feed the exact posterior-grid expectation through the same
        # action minimizer the variational rule uses.
        lo, hi = base_model.action_interval
        action, _, _ = minimize_on_grid_then_golden(
            lambda a: posterior_expected_risk(a, grid_n50, base_model), lo, hi, 512, 1e-8
        )
        reference = bayes_decision(grid_n50, base_model)
        assert abs(action - reference.action) < 1e-4


class TestDecideOnMeasure:
    def test_posterior_grid_measure_is_the_bayes_rule(self, grid_n50, base_model):
        outcome = decide_on_measure(
            grid_n50.nodes, grid_n50.normalized_weights, base_model, Rule.BAYES
        )
        # Equal outcomes: the same action, value and probe count.
        assert outcome == bayes_decision(grid_n50, base_model)


class TestLcvbDecide:
    def test_constant_risk_returns_lower_endpoint(self, data_n50, base_model, grid_n50):
        outcome = lcvb_decide(data_n50, base_model, grid_n50, risk=ConstantRisk(1.5))
        assert outcome.rule is Rule.LCVB
        assert outcome.action == base_model.action_lo

    def test_large_sample_recovers_optimum(self):
        model = NewsvendorModel(h=0.005, b=0.1, theta0=0.68, alpha=1.0, beta=4.1)
        data = sample_demand(model.theta0, 100_000, np.random.default_rng(32))
        grid = build_posterior(data, model)
        outcome = lcvb_decide(data, model, grid)
        assert abs(outcome.action - true_optimal_action(model)) < 0.05

    def test_returned_value_beats_independent_probes(self, data_n50, base_model, grid_n50):
        outcome = lcvb_decide(data_n50, base_model, grid_n50)
        settings = FitSettings()
        for a in np.linspace(0.0, 50.0, 33):
            q_a, _ = fit_lcvb(float(a), data_n50, base_model, grid_n50, settings)
            value = calibrated_objective(
                float(a), q_a, data_n50, base_model, grid_n50
            ).value
            assert outcome.objective_value <= value + 1e-6

    def test_argmin_invariant_under_risk_scaling(self, data_n50, base_model, grid_n50):
        # G is linear in (h, b), so scaling both costs scales G by ``scale``.
        scale = 5.0
        scaled = replace(base_model, h=scale * base_model.h, b=scale * base_model.b)
        plain = lcvb_decide(data_n50, base_model, grid_n50)
        rescaled = lcvb_decide(data_n50, scaled, grid_n50)
        assert abs(plain.action - rescaled.action) < 1e-6
        # inner values shift by the additive constant log(scale)
        assert rescaled.objective_value - plain.objective_value == pytest.approx(
            math.log(scale), abs=1e-6
        )

    def test_every_probe_failing_is_a_hard_error(self, data_n50, base_model, grid_n50):
        from newsvb.numerics import NumericalError

        class Hostile:
            def value(self, a, theta):
                return np.full_like(theta, -1.0)

            def theta_slope(self, a, theta):
                return np.zeros_like(theta)

        with pytest.raises(NumericalError):
            lcvb_decide(data_n50, base_model, grid_n50, risk=Hostile())

    def test_partial_probe_failures_are_excluded(self, data_n50, base_model, grid_n50):
        # Probes beyond a=25 violate positivity and must be skipped, not fatal.
        class Patchy:
            builtin = NewsvendorRisk(base_model.h, base_model.b)

            def value(self, a, theta):
                if a > 25.0:
                    return np.full_like(theta, -1.0)
                return self.builtin.value(a, theta)

            def theta_slope(self, a, theta):
                return self.builtin.theta_slope(a, theta)

        outcome = lcvb_decide(data_n50, base_model, grid_n50, risk=Patchy())
        assert outcome.action <= 25.0
        reference = lcvb_decide(data_n50, base_model, grid_n50)
        assert abs(outcome.action - reference.action) < 1e-6


class TestOptimalityGap:
    def test_zero_at_true_optimum(self, base_model):
        outcome = DecisionOutcome(
            action=true_optimal_action(base_model),
            objective_value=0.0,
            rule=Rule.NVB,
        )
        gap_action, gap_regret = optimality_gap(outcome, base_model)
        assert gap_action == 0.0
        assert gap_regret == 0.0

    def test_regret_nonnegative(self, base_model):
        rng = np.random.default_rng(33)
        for _ in range(100):
            outcome = DecisionOutcome(
                action=float(rng.uniform(0, 50)), objective_value=0.0, rule=Rule.NVB
            )
            _, gap_regret = optimality_gap(outcome, base_model)
            assert gap_regret >= 0.0

    def test_regret_bounded_by_lipschitz_constant(self, base_model):
        # Numeric Lipschitz bound of G(., theta0) over the interval.
        actions = np.linspace(0.0, 50.0, 20_001)
        values = np.array([risk(float(a), base_model.theta0, base_model) for a in actions])
        lipschitz = float(np.max(np.abs(np.diff(values) / np.diff(actions))))
        rng = np.random.default_rng(34)
        for _ in range(100):
            outcome = DecisionOutcome(
                action=float(rng.uniform(0, 50)), objective_value=0.0, rule=Rule.NVB
            )
            gap_action, gap_regret = optimality_gap(outcome, base_model)
            assert gap_regret <= lipschitz * gap_action + 1e-9


class TestMonotoneConsistency:
    def test_median_gap_shrinks_with_sample_size(self, base_model):
        sizes = [10, 100, 1000, 10_000]
        gaps = {Rule.NVB: {n: [] for n in sizes}, Rule.LCVB: {n: [] for n in sizes}}
        for seed in range(100):
            stream = sample_demand(
                base_model.theta0, sizes[-1], np.random.default_rng(5000 + seed)
            )
            for n in sizes:
                data = stream.prefix(n)
                grid = build_posterior(data, base_model)
                q, diag = fit_nvb(data, base_model)
                nvb = decide_with_variational(q, base_model, diag)
                lcvb = lcvb_decide(data, base_model, grid, nvb_start=q)
                gaps[Rule.NVB][n].append(optimality_gap(nvb, base_model)[0])
                gaps[Rule.LCVB][n].append(optimality_gap(lcvb, base_model)[0])
        for rule in (Rule.NVB, Rule.LCVB):
            medians = [float(np.median(gaps[rule][n])) for n in sizes]
            for earlier, later in zip(medians, medians[1:]):
                assert later <= earlier * 1.2, f"{rule}: {medians}"
