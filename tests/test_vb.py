"""Variational engine: closed-form bound, calibrated objective, fits, identities."""

import math

import numpy as np
import pytest

from newsvb import (
    ConstantRisk,
    LogNormalVariational,
    NewsvendorModel,
    Observations,
    build_posterior,
    calibrated_objective,
    elbo,
    elbo_gradient,
    fit_lcvb,
    fit_nvb,
    kl_decomposition_check,
    posterior_expected_risk,
    sample_demand,
    variational_variance,
)
from newsvb.model import log_likelihood, log_prior
from newsvb.numerics import NumericalError, gauss_hermite_standard
from newsvb.vb import FitSettings

LOG_2PI = math.log(2 * math.pi)


def random_members(rng, center_mu, count, sigma_range=(0.05, 1.0), mu_spread=1.5):
    mus = center_mu + rng.uniform(-mu_spread, mu_spread, size=count)
    sigmas = rng.uniform(*sigma_range, size=count)
    return [LogNormalVariational(float(m), float(s)) for m, s in zip(mus, sigmas)]


def elbo_by_quadrature(q, data, model, node_count=64):
    """Independent check: E_q[log p(X|th) + log pi(th) - log q(th)] by
    Gauss-Hermite over z with theta = exp(mu + sigma z)."""
    z, w = gauss_hermite_standard(node_count)
    theta = np.exp(q.mu + q.sigma * z)
    integrand = log_likelihood(theta, data) + log_prior(theta, model) - q.log_density(theta)
    return float(w @ integrand)


class TestFamilyMoments:
    def test_moment_formulas(self):
        q = LogNormalVariational(0.3, 0.7)
        assert q.mean_theta() == pytest.approx(math.exp(0.3 + 0.49 / 2))
        assert q.mean_inverse_theta() == pytest.approx(math.exp(-0.3 + 0.49 / 2))
        assert q.mean_log_theta() == 0.3
        assert q.entropy() == pytest.approx(0.3 + 0.5 * math.log(2 * math.pi * math.e * 0.49))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            LogNormalVariational(0.0, 0.0)
        with pytest.raises(ValueError):
            LogNormalVariational(math.nan, 1.0)

    def test_variance_formula_and_limits(self):
        assert variational_variance(LogNormalVariational(0.0, 1.0)) == pytest.approx(
            (math.e - 1.0) * math.e, rel=1e-12
        )
        assert variational_variance(LogNormalVariational(1.3, 1e-9)) < 1e-15
        rng = np.random.default_rng(1)
        for q in random_members(rng, 0.0, 50, sigma_range=(0.01, 2.0)):
            assert variational_variance(q) > 0.0

    def test_variance_monte_carlo_oracle(self):
        rng = np.random.default_rng(2)
        draws = np.exp(rng.standard_normal(10_000_000))
        mc = draws.var(ddof=1)
        assert variational_variance(LogNormalVariational(0.0, 1.0)) == pytest.approx(
            mc, rel=5e-3
        )


class TestElbo:
    def test_closed_form_value_unit_case(self):
        # mu=0, sigma=1, X={1}, alpha=beta=1: -2*sqrt(e) + (1 + log 2 pi)/2
        model = NewsvendorModel(h=1.0, b=1.0, theta0=1.0, alpha=1.0, beta=1.0,
                                action_interval=(0.0, 5.0))
        q = LogNormalVariational(0.0, 1.0)
        expected = -2.0 * math.sqrt(math.e) + 0.5 * (1.0 + LOG_2PI)
        assert elbo(q, Observations([1.0]), model) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-1.8785040082, abs=1e-9)

    def test_monte_carlo_oracle_unit_case(self):
        model = NewsvendorModel(h=1.0, b=1.0, theta0=1.0, alpha=1.0, beta=1.0,
                                action_interval=(0.0, 5.0))
        data = Observations([1.0])
        q = LogNormalVariational(0.0, 1.0)
        rng = np.random.default_rng(3)
        log_theta = rng.standard_normal(10_000_000)
        theta = np.exp(log_theta)
        integrand = (
            log_likelihood(theta, data) + log_prior(theta, model) - q.log_density(theta)
        )
        se = integrand.std(ddof=1) / math.sqrt(integrand.size)
        assert abs(elbo(q, data, model) - integrand.mean()) <= 5 * se

    def test_lower_bounds_log_evidence(self, data_n50, base_model, grid_n50):
        rng = np.random.default_rng(4)
        center = math.log(data_n50.n / data_n50.sum_s)
        for q in random_members(rng, center, 100, sigma_range=(0.01, 2.0), mu_spread=2.0):
            assert elbo(q, data_n50, base_model) <= grid_n50.log_evidence + 1e-10

    def test_matches_quadrature_oracle(self, data_n50, base_model):
        rng = np.random.default_rng(5)
        center = math.log(data_n50.n / data_n50.sum_s)
        for q in random_members(rng, center, 50):
            closed = elbo(q, data_n50, base_model)
            quadrature = elbo_by_quadrature(q, data_n50, base_model)
            assert abs(closed - quadrature) < 1e-8

    def test_gradient_matches_central_differences(self, data_n50, base_model):
        rng = np.random.default_rng(6)
        center = math.log(data_n50.n / data_n50.sum_s)
        step = 1e-6
        for q in random_members(rng, center, 50):
            analytic = elbo_gradient(q, data_n50, base_model)
            x = np.array([q.mu, math.log(q.sigma)])
            numeric = np.empty(2)
            for i in range(2):
                up, down = x.copy(), x.copy()
                up[i] += step
                down[i] -= step
                numeric[i] = (
                    elbo(LogNormalVariational(up[0], math.exp(up[1])), data_n50, base_model)
                    - elbo(LogNormalVariational(down[0], math.exp(down[1])), data_n50, base_model)
                ) / (2 * step)
            scale = max(float(np.linalg.norm(analytic)), 1.0)
            assert float(np.linalg.norm(analytic - numeric)) <= 1e-5 * scale


class TestFitNvb:
    def test_improves_on_initialization(self, data_n50, base_model):
        q_init = LogNormalVariational(
            math.log(data_n50.n / data_n50.sum_s), 1.0 / math.sqrt(data_n50.n)
        )
        q, diagnostics = fit_nvb(data_n50, base_model)
        assert elbo(q, data_n50, base_model) >= elbo(q_init, data_n50, base_model)
        assert diagnostics.converged
        assert diagnostics.final_gradient_norm <= FitSettings().tolerance

    def test_kl_gap_nonnegative_and_below_random_members(self, base_model):
        # One ascent per fit must reach the global optimum at every sample
        # size; the stream's first 50 draws are the data_n50 fixture.
        stream = sample_demand(base_model.theta0, 6400, np.random.default_rng(20))
        for n in (1, 50, 6400):
            data = stream.prefix(n)
            grid = build_posterior(data, base_model)
            q, _ = fit_nvb(data, base_model)
            kl_best = grid.log_evidence - elbo(q, data, base_model)
            assert kl_best >= -1e-10, n
            rng = np.random.default_rng(7)
            center = math.log(data.n / data.sum_s)
            for member in random_members(rng, center, 100, sigma_range=(0.01, 2.0)):
                kl_member = grid.log_evidence - elbo(member, data, base_model)
                assert kl_best <= kl_member + 1e-10, n

    def test_posterior_mean_consistency_across_seeds(self, base_model):
        hits = 0
        for seed in range(100):
            data = sample_demand(base_model.theta0, 5000, np.random.default_rng(2000 + seed))
            q, _ = fit_nvb(data, base_model)
            if abs(q.mean_theta() - base_model.theta0) < 0.05:
                hits += 1
        assert hits >= 95

    def test_degenerate_data_raises(self, base_model):
        with pytest.raises(ValueError):
            fit_nvb(Observations([0.0, 0.0, 0.0]), base_model)

    def test_sqrt_n_variance_shrinkage(self, base_model):
        # Fitted variance should decay like 1/n: slope of the log-log line
        # across a quadrupling schedule stays near -1.
        rng = np.random.default_rng(8)
        stream = sample_demand(base_model.theta0, 6400, rng)
        sizes = [100, 400, 1600, 6400]
        variances = []
        for n in sizes:
            q, _ = fit_nvb(stream.prefix(n), base_model)
            variances.append(variational_variance(q))
        slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
        assert -1.3 <= slope <= -0.7


class TestCalibratedObjective:
    def test_constant_risk_decomposition(self, data_n50, base_model, grid_n50):
        constant = 3.7
        q, _ = fit_nvb(data_n50, base_model)
        objective = calibrated_objective(
            2.0, q, data_n50, base_model, grid_n50, risk=ConstantRisk(constant)
        )
        kl = grid_n50.log_evidence - elbo(q, data_n50, base_model)
        assert objective.log_risk_term == pytest.approx(math.log(constant), rel=1e-12)
        assert objective.value == pytest.approx(-kl + math.log(constant), rel=1e-9)
        assert objective.value == -objective.kl_term + objective.log_risk_term
        assert objective.kl_term >= 0.0

    def test_jensen_lower_bound(self, data_n50, base_model, grid_n50):
        rng = np.random.default_rng(9)
        center = math.log(data_n50.n / data_n50.sum_s)
        members = random_members(rng, center, 100)
        actions = rng.uniform(0.0, 50.0, size=100)
        for a, q in zip(actions, members):
            value = calibrated_objective(float(a), q, data_n50, base_model, grid_n50).value
            bound = math.log(posterior_expected_risk(float(a), grid_n50, base_model))
            assert value <= bound + 1e-8

    def test_log_risk_term_stable_under_node_doubling(self, data_n50, base_model, grid_n50):
        rng = np.random.default_rng(10)
        center = math.log(data_n50.n / data_n50.sum_s)
        members = random_members(rng, center, 50, sigma_range=(0.05, 0.6))
        actions = rng.uniform(0.0, 50.0, size=50)
        for a, q in zip(actions, members):
            coarse = calibrated_objective(
                float(a), q, data_n50, base_model, grid_n50, node_count=64
            )
            fine = calibrated_objective(
                float(a), q, data_n50, base_model, grid_n50, node_count=128
            )
            assert abs(coarse.log_risk_term - fine.log_risk_term) < 1e-8

    def test_nonpositive_risk_raises(self, data_n50, base_model, grid_n50):
        class SignFlip:
            def value(self, a, theta):
                return np.where(theta > 0.5, -1.0, 1.0)

            def theta_slope(self, a, theta):
                return np.zeros_like(theta)

        q = LogNormalVariational(0.0, 0.5)
        with pytest.raises(NumericalError):
            calibrated_objective(1.0, q, data_n50, base_model, grid_n50, risk=SignFlip())

    def test_rejects_action_outside_interval(self, data_n50, base_model, grid_n50):
        q = LogNormalVariational(0.0, 0.5)
        with pytest.raises(ValueError):
            calibrated_objective(60.0, q, data_n50, base_model, grid_n50)


class TestFitLcvb:
    def test_constant_risk_collapses_to_plain_fit(self, base_model):
        for seed in range(10):
            data = sample_demand(base_model.theta0, 80, np.random.default_rng(3000 + seed))
            grid = build_posterior(data, base_model)
            q_plain, _ = fit_nvb(data, base_model)
            q_cal, _ = fit_lcvb(1.5, data, base_model, grid, risk=ConstantRisk(2.0))
            assert abs(q_cal.mu - q_plain.mu) < 1e-6
            assert abs(q_cal.sigma - q_plain.sigma) < 1e-6

    def test_improves_on_plain_solution(self, data_n50, base_model, grid_n50):
        q_plain, _ = fit_nvb(data_n50, base_model)
        for a in (0.5, 3.0, 20.0):
            q_cal, _ = fit_lcvb(a, data_n50, base_model, grid_n50)
            at_plain = calibrated_objective(a, q_plain, data_n50, base_model, grid_n50).value
            at_cal = calibrated_objective(a, q_cal, data_n50, base_model, grid_n50).value
            assert at_cal >= at_plain - 1e-9

    def test_posterior_mean_consistency_across_seeds(self, base_model):
        for a in (1.0, 3.0, 6.0):
            hits = 0
            for seed in range(100):
                data = sample_demand(
                    base_model.theta0, 5000, np.random.default_rng(4000 + seed)
                )
                grid = build_posterior(data, base_model)
                q, _ = fit_lcvb(a, data, base_model, grid)
                if abs(q.mean_theta() - base_model.theta0) < 0.05:
                    hits += 1
            assert hits >= 95, f"only {hits}/100 seeds concentrated at a={a}"


class TestKlDecomposition:
    def test_constant_risk_cancels(self, data_n50, base_model, grid_n50):
        q = LogNormalVariational(math.log(0.7), 0.3)
        assert kl_decomposition_check(
            2.0, q, data_n50, base_model, grid_n50, risk=ConstantRisk(4.2)
        ) < 1e-8

    def test_random_probes(self, data_n50, base_model, grid_n50):
        rng = np.random.default_rng(11)
        center = math.log(data_n50.n / data_n50.sum_s)
        members = random_members(rng, center, 100)
        actions = rng.uniform(0.0, 50.0, size=100)
        for a, q in zip(actions, members):
            residual = kl_decomposition_check(float(a), q, data_n50, base_model, grid_n50)
            assert residual < 1e-6

    def test_residual_shrinks_with_node_count(self, data_n50, base_model, grid_n50):
        # Wide member + large action make the coarse quadrature visibly off;
        # the two sides must use distinct node counts or their shared
        # quadrature error cancels instead of being measured.
        q = LogNormalVariational(math.log(0.6), 0.9)
        coarse = kl_decomposition_check(
            35.0, q, data_n50, base_model, grid_n50, node_count=16, reference_node_count=64
        )
        fine = kl_decomposition_check(
            35.0, q, data_n50, base_model, grid_n50, node_count=160, reference_node_count=128
        )
        assert fine < coarse
