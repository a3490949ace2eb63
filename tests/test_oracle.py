"""Quadrature oracle: evidence stability, posterior moments, Bayes rule."""

import math
from dataclasses import replace

import numpy as np
import pytest

from newsvb import (
    ConstantRisk,
    NewsvendorModel,
    Observations,
    bayes_decision,
    build_posterior,
    calibrated_posterior_density,
    log_likelihood,
    mle,
    posterior_expected_risk,
    risk,
    sample_demand,
    true_optimal_action,
)
from newsvb.decisions import Rule
from newsvb.model import log_posterior_unnormalized


def sample_from_grid(grid, count, rng):
    """Inverse-CDF draws from the discretized posterior (test-side oracle)."""
    weights = grid.normalized_weights
    cdf = np.cumsum(weights)
    cdf = cdf / cdf[-1]
    u = rng.random(count)
    return grid.nodes[np.searchsorted(cdf, u)]


class TestBuildPosterior:
    def test_weights_normalize(self, grid_n50):
        assert abs(grid_n50.normalized_weights.sum() - 1.0) < 1e-10

    def test_nodes_strictly_increasing_and_evidence_finite(self, grid_n50):
        assert np.all(np.diff(grid_n50.nodes) > 0)
        assert math.isfinite(grid_n50.log_evidence)

    def test_evidence_stable_under_node_doubling(self, data_n50, base_model, data_n2000):
        for data in (data_n50, data_n2000):
            coarse = build_posterior(data, base_model, node_count=128)
            fine = build_posterior(data, base_model, node_count=256)
            assert abs(coarse.log_evidence - fine.log_evidence) < 1e-9

    def test_posterior_concentrates_near_true_rate(self, base_model):
        data = sample_demand(base_model.theta0, 2000, np.random.default_rng(42))
        grid = build_posterior(data, base_model)
        sd = math.sqrt(grid.variance())
        assert abs(grid.mean() - 0.68) <= 3 * sd
        assert grid.mean() == pytest.approx(mle(data), abs=3 * sd)

    def test_rejects_small_node_count(self, data_n50, base_model):
        with pytest.raises(ValueError):
            build_posterior(data_n50, base_model, node_count=16)

    def test_tiny_sample_is_supported(self, base_model):
        grid = build_posterior(Observations([2.0]), base_model)
        assert abs(grid.normalized_weights.sum() - 1.0) < 1e-10

    def test_mass_concentration_across_seeds(self, base_model):
        # Mass outside a 0.1-ball around theta0 at n=5000, over 40 seeds.
        hits = 0
        for seed in range(40):
            data = sample_demand(base_model.theta0, 5000, np.random.default_rng(1000 + seed))
            grid = build_posterior(data, base_model)
            if 1.0 - grid.mass_within(0.68, 0.1) < 1e-3:
                hits += 1
        assert hits >= 38  # 95% of seeds


class TestMle:
    def test_basic_values(self):
        assert mle(Observations([1, 2, 3])) == pytest.approx(0.5)
        assert mle(Observations([2.0])) == pytest.approx(0.5)

    def test_matches_likelihood_grid_argmax(self, data_n50):
        thetas = np.linspace(0.05, 3.0, 200_001)
        values = log_likelihood(thetas, data_n50)
        best = thetas[np.argmax(values)]
        assert abs(mle(data_n50) - best) <= thetas[1] - thetas[0]

    def test_degenerate_data(self):
        with pytest.raises(ValueError):
            mle(Observations([0.0, 0.0]))


class TestPosteriorExpectedRisk:
    def test_constant_risk_returns_constant(self, grid_n50, base_model):
        value = posterior_expected_risk(3.0, grid_n50, base_model, risk=ConstantRisk(7.25))
        assert value == pytest.approx(7.25)

    def test_zero_action_is_posterior_moment(self, grid_n50, base_model):
        moment = float(grid_n50.normalized_weights @ (1.0 / grid_n50.nodes))
        value = posterior_expected_risk(0.0, grid_n50, base_model)
        assert value == pytest.approx(base_model.b * moment, rel=1e-12)

    def test_monte_carlo_oracle(self, grid_n50, base_model):
        rng = np.random.default_rng(21)
        thetas = sample_from_grid(grid_n50, 1_000_000, rng)
        for a in (0.5, 3.0, 10.0):
            samples = risk(a, thetas, base_model)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            # allow for the discretization bias of the grid sampler as well
            assert abs(posterior_expected_risk(a, grid_n50, base_model) - samples.mean()) <= 3 * se + 1e-6

    def test_strictly_positive(self, grid_n50, base_model):
        rng = np.random.default_rng(22)
        for _ in range(50):
            assert posterior_expected_risk(float(rng.uniform(0, 50)), grid_n50, base_model) > 0

    def test_action_array_matches_scalar_calls(self, grid_n50, base_model):
        actions = np.linspace(0.0, 50.0, 101)
        values = posterior_expected_risk(actions, grid_n50, base_model)
        assert values.shape == actions.shape
        for a, value in zip(actions, values):
            assert value == posterior_expected_risk(float(a), grid_n50, base_model)


class TestBayesDecision:
    def test_large_sample_recovers_true_optimum(self, base_model):
        data = sample_demand(base_model.theta0, 100_000, np.random.default_rng(5))
        grid = build_posterior(data, base_model)
        outcome = bayes_decision(grid, base_model)
        assert outcome.rule is Rule.BAYES
        assert abs(outcome.action - true_optimal_action(base_model)) < 1e-2

    def test_tiny_data_matches_brute_force(self, base_model):
        grid = build_posterior(Observations([2.0]), base_model)
        outcome = bayes_decision(grid, base_model)
        actions = np.linspace(0.0, 50.0, 100_001)
        values = [posterior_expected_risk(a, grid, base_model) for a in actions]
        brute = actions[int(np.argmin(values))]
        assert abs(outcome.action - brute) <= 50.0 / 100_000

    def test_beats_every_grid_probe(self, grid_n50, base_model):
        outcome = bayes_decision(grid_n50, base_model)
        probes = np.linspace(0.0, 50.0, 512)
        values = [posterior_expected_risk(a, grid_n50, base_model) for a in probes]
        assert outcome.objective_value <= min(values) + 1e-12

    def test_argmin_invariant_under_risk_scaling(self, grid_n50, base_model):
        # G is linear in (h, b), so scaling both costs by 5 scales G by 5.
        scaled = replace(base_model, h=5.0 * base_model.h, b=5.0 * base_model.b)
        plain = bayes_decision(grid_n50, base_model)
        rescaled = bayes_decision(grid_n50, scaled)
        assert abs(plain.action - rescaled.action) < 1e-6
        assert rescaled.objective_value == pytest.approx(5.0 * plain.objective_value, rel=1e-9)


class TestCalibratedPosteriorDensity:
    def test_constant_risk_equals_posterior_density(self, grid_n50, base_model):
        for theta in (0.4, 0.55, 0.7):
            calibrated = calibrated_posterior_density(
                1.0, theta, grid_n50, base_model, risk=ConstantRisk(2.5)
            )
            log_post = log_posterior_unnormalized(theta, grid_n50.data, base_model)
            posterior = math.exp(log_post - grid_n50.log_evidence)
            assert calibrated == pytest.approx(posterior, rel=1e-12)

    def test_integrates_to_one(self, grid_n50, base_model):
        # Pure quadrature weights = exp(log_weights - log posterior at node).
        log_post = log_posterior_unnormalized(grid_n50.nodes, grid_n50.data, base_model)
        quad_weights = np.exp(grid_n50.log_weights - log_post)
        for a in (0.0, 2.0, 20.0):
            density = np.array(
                [
                    calibrated_posterior_density(a, float(t), grid_n50, base_model)
                    for t in grid_n50.nodes
                ]
            )
            assert abs(float(quad_weights @ density) - 1.0) < 1e-8

    def test_mean_shifts_toward_high_risk(self, grid_n50, base_model):
        # At a=0 the risk b/theta grows as theta falls, so tilting the
        # posterior by it must pull the mean down; brute-force comparison
        # of the two quadrature means.
        log_post = log_posterior_unnormalized(grid_n50.nodes, grid_n50.data, base_model)
        quad_weights = np.exp(grid_n50.log_weights - log_post)
        density = np.array(
            [
                calibrated_posterior_density(0.0, float(t), grid_n50, base_model)
                for t in grid_n50.nodes
            ]
        )
        calibrated_mean = float((quad_weights * density) @ grid_n50.nodes)
        assert calibrated_mean < grid_n50.mean()

    def test_rejects_theta_outside_window(self, grid_n50, base_model):
        with pytest.raises(ValueError):
            calibrated_posterior_density(1.0, grid_n50.window[1] * 10, grid_n50, base_model)
