"""Model layer: loss, closed-form risk, optimum formula, densities, sampling."""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from newsvb import (
    ConstantRisk,
    NewsvendorModel,
    NewsvendorRisk,
    Observations,
    fisher_information,
    log_likelihood,
    log_prior,
    loss,
    risk,
    sample_demand,
    true_optimal_action,
)
from newsvb.model import _positive_measure, newsvendor_expected_risk


def make_model(h, b, theta0=1.0, alpha=1.0, beta=1.0, interval=(0.0, 50.0)):
    return NewsvendorModel(h=h, b=b, theta0=theta0, alpha=alpha, beta=beta,
                           action_interval=interval)


def golden_min(f, lo, hi, tol=1e-10):
    """Independent golden-section reference minimizer."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    while b - a > tol:
        x1 = b - inv_phi * (b - a)
        x2 = a + inv_phi * (b - a)
        if f(x1) <= f(x2):
            b = x2
        else:
            a = x1
    return 0.5 * (a + b)


class TestLoss:
    def test_zero_when_action_matches_demand(self):
        assert loss(3.0, 3.0, make_model(0.1, 0.1)) == 0.0

    def test_pure_backorder(self):
        assert loss(0.0, 5.0, make_model(0.1, 0.1)) == pytest.approx(0.5)

    def test_pure_overage(self):
        assert loss(2.0, 1.0, make_model(0.1, 0.3)) == pytest.approx(0.1)

    def test_rejects_negative_inputs(self):
        model = make_model(0.1, 0.1)
        with pytest.raises(ValueError):
            loss(-1.0, 1.0, model)
        with pytest.raises(ValueError):
            loss(1.0, -1.0, model)

    def test_nonnegative_with_equality_only_at_match(self):
        model = make_model(0.2, 0.7)
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, xi = rng.uniform(0, 10, size=2)
            value = loss(a, xi, model)
            assert value >= 0.0
            if a != xi:
                assert value > 0.0


class TestRisk:
    def test_zero_action_reduces_to_backorder_moment(self):
        # G(0, theta) = b * E[xi] = b / theta
        model = make_model(0.123, 0.1, theta0=0.68)
        assert risk(0.0, 0.68, model) == pytest.approx(0.1 / 0.68, rel=1e-12)

    def test_symmetric_unit_costs_match_analytic_value(self):
        model = make_model(1.0, 1.0, interval=(0.0, 5.0))
        assert risk(1.0, 1.0, model) == pytest.approx(2.0 / math.e, rel=1e-12)

    def test_monte_carlo_oracle_symmetric_case(self):
        # Mean of loss(1, xi), xi ~ Exp(1), 10^7 draws.
        model = make_model(1.0, 1.0, interval=(0.0, 5.0))
        rng = np.random.default_rng(11)
        draws = rng.exponential(1.0, size=10_000_000)
        samples = loss(1.0, draws, model)
        mc = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(risk(1.0, 1.0, model) - mc) <= 5 * se

    def test_grid_search_locates_stated_minimum(self):
        model = make_model(0.001, 0.1, theta0=0.68)
        actions = np.arange(0.0, 50.0, 1e-4)
        values = risk_curve(actions, 0.68, model)
        a_min = actions[np.argmin(values)]
        assert a_min == pytest.approx(6.7869, abs=2e-4)
        assert a_min == pytest.approx(true_optimal_action(model), abs=1e-4)

    def test_monte_carlo_agreement_over_domain(self):
        model = make_model(0.3, 0.9, interval=(0.0, 50.0))
        rng = np.random.default_rng(12)
        for _ in range(8):
            a = float(rng.uniform(0.0, 50.0))
            theta = float(rng.uniform(0.1, 5.0))
            draws = rng.exponential(1.0 / theta, size=1_000_000)
            samples = loss(a, draws, model)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(risk(a, theta, model) - samples.mean()) <= 5 * se

    def test_convex_in_action(self):
        model = make_model(0.05, 0.4)
        rng = np.random.default_rng(13)
        for _ in range(300):
            a1, a2 = rng.uniform(0, 50, size=2)
            lam = float(rng.uniform(0, 1))
            theta = float(rng.uniform(0.1, 5.0))
            mix = risk(lam * a1 + (1 - lam) * a2, theta, model)
            assert mix <= lam * risk(a1, theta, model) + (1 - lam) * risk(a2, theta, model) + 1e-12

    def test_strictly_positive(self):
        model = make_model(0.01, 0.2)
        rng = np.random.default_rng(14)
        for _ in range(300):
            assert risk(float(rng.uniform(0, 50)), float(rng.uniform(0.05, 8)), model) > 0.0

    def test_extreme_exponent_stays_finite(self):
        model = make_model(0.01, 0.2, interval=(0.0, 1e4))
        value = risk(1e4, 0.2, model)  # a*theta = 2000, tail underflows cleanly
        assert math.isfinite(value)
        assert value == pytest.approx(model.h * 1e4 - model.h / 0.2)

    def test_rejects_nonpositive_theta(self):
        model = make_model(0.1, 0.1)
        with pytest.raises(ValueError):
            risk(1.0, 0.0, model)
        with pytest.raises(ValueError):
            risk(1.0, -2.0, model)


    def test_risk_object_broadcasts_and_slope_matches_differences(self):
        model = make_model(0.05, 0.4)
        builtin = NewsvendorRisk(model.h, model.b)
        actions = np.linspace(0.0, 20.0, 7)
        thetas = np.linspace(0.1, 5.0, 11)
        values = builtin.value(actions[:, None], thetas[None, :])
        assert values.shape == (7, 11)
        assert np.array_equal(values[3], risk(float(actions[3]), thetas, model))
        eps = 1e-6
        central = (
            builtin.value(actions[:, None], thetas * (1 + eps))
            - builtin.value(actions[:, None], thetas * (1 - eps))
        ) / (2 * eps)
        value, slope, _, slope_a, _, _ = builtin.theta_terms(actions[:, None], thetas[None, :])
        assert np.array_equal(value, values)  # the same arithmetic as ``value``
        assert np.allclose(slope, central, rtol=1e-6, atol=1e-9)
        central_a = (
            builtin.value(actions[:, None] + eps, thetas)
            - builtin.value(actions[:, None] - eps, thetas)
        ) / (2 * eps)
        assert slope_a.shape == (7, 11)
        assert np.allclose(slope_a, central_a, rtol=1e-6, atol=1e-9)
        constant = ConstantRisk(2.5)
        assert np.array_equal(constant.value(actions[:, None], thetas), np.full((7, 11), 2.5))
        value, *derivatives = constant.theta_terms(1.0, thetas)
        assert np.array_equal(value, np.full(11, 2.5))
        assert len(derivatives) == 5 and not np.any(derivatives)

    def test_theta_curvature_matches_differences_of_the_slope_in_log_theta(self):
        model = make_model(0.05, 0.4)
        builtin = NewsvendorRisk(model.h, model.b)
        actions = np.linspace(0.0, 20.0, 7)[:, None]
        thetas = np.linspace(0.1, 5.0, 11)
        eps = 1e-6
        central = (
            builtin.theta_terms(actions, thetas * math.exp(eps))[1]
            - builtin.theta_terms(actions, thetas * math.exp(-eps))[1]
        ) / (2 * eps)
        curvature = builtin.theta_terms(actions, thetas)[2]
        assert curvature.shape == (7, 11)
        assert np.allclose(curvature, central, rtol=1e-6, atol=1e-9)
        assert not np.any(ConstantRisk(2.5).theta_terms(actions, thetas)[2])

    def test_theta_curvature_keeps_its_bits_and_warns_nothing_past_the_float_range(self):
        # tail*((a*theta)^2 + a*theta + 1) - h/theta, bit for bit wherever it
        # is finite; where (a*theta)^2 overflows the tail is 0, and the
        # curvature is its limit -h/theta instead of 0 * inf.
        builtin = NewsvendorRisk(0.05, 0.4)
        actions = np.array([0.0, 1e-3, 5.0, 50.0])[:, None]
        thetas = np.array([1e-3, 0.68, 1e3, 1e150, 1.2e154, 2e154, 1e160, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curvature = builtin.theta_terms(actions, thetas)[2]
        a_theta, tail, h_theta = actions * thetas, builtin._tail(actions, thetas), 0.05 / thetas
        with np.errstate(over="ignore", invalid="ignore"):
            textbook = tail * (a_theta * a_theta + a_theta + 1.0) - h_theta
        finite = np.isfinite(textbook)
        assert np.array_equal(curvature[finite], textbook[finite])
        assert 0 < np.count_nonzero(~finite)
        assert np.array_equal(curvature[~finite], np.broadcast_to(-h_theta, finite.shape)[~finite])

    def test_action_cross_term_matches_differences_of_the_action_slope_in_log_theta(self):
        model = make_model(0.05, 0.4)
        builtin = NewsvendorRisk(model.h, model.b)
        actions = np.linspace(0.0, 20.0, 7)[:, None]
        thetas = np.linspace(0.1, 5.0, 11)
        eps = 1e-6
        central = (
            builtin.theta_terms(actions, thetas * math.exp(eps))[3]
            - builtin.theta_terms(actions, thetas * math.exp(-eps))[3]
        ) / (2 * eps)
        cross = builtin.theta_terms(actions, thetas)[4]
        assert cross.shape == (7, 11)
        assert np.allclose(cross, central, rtol=1e-6, atol=1e-9)
        assert not np.any(ConstantRisk(2.5).theta_terms(actions, thetas)[4])

    def test_action_curvature_matches_differences_of_the_action_slope(self):
        model = make_model(0.05, 0.4)
        builtin = NewsvendorRisk(model.h, model.b)
        actions = np.linspace(0.0, 20.0, 7)[:, None]
        thetas = np.linspace(0.1, 5.0, 11)
        eps = 1e-6
        central = (
            builtin.theta_terms(actions + eps, thetas)[3]
            - builtin.theta_terms(actions - eps, thetas)[3]
        ) / (2 * eps)
        action_curvature = builtin.theta_terms(actions, thetas)[5]
        assert action_curvature.shape == (7, 11)
        assert np.allclose(action_curvature, central, rtol=1e-6, atol=1e-9)
        assert not np.any(ConstantRisk(2.5).theta_terms(actions, thetas)[5])


class TestNewsvendorExpectedRisk:
    @settings(deadline=None, max_examples=60, derandomize=True, database=None)
    @example(nodes=300, actions=600, zero_share=0.1, h_per_action=True, seed=1)
    @example(nodes=257, actions=129, zero_share=0.5, h_per_action=False, seed=2)
    @given(
        nodes=st.integers(1, 300),
        actions=st.integers(1, 600),
        zero_share=st.sampled_from([0.0, 0.1, 0.5]),
        h_per_action=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_an_action_keeps_its_bits_in_any_call_with_its_h(
        self, nodes, actions, zero_share, h_per_action, seed
    ):
        # Rates over six decades and actions over [0, 50], so exponents from
        # 0 to far below the floats' range, and up to 600 actions, so they
        # cross blocks of ACTION_BLOCK.
        rng = np.random.default_rng(seed)
        theta = 10.0 ** rng.uniform(-3.0, 3.0, nodes)
        weights = rng.uniform(1e-3, 1.0, nodes) * (rng.random(nodes) >= zero_share)
        weights[rng.integers(nodes)] = rng.uniform(1e-3, 1.0)  # one positive weight at least
        a = rng.uniform(0.0, 50.0, actions)
        a[rng.integers(actions)] = 0.0
        h = 10.0 ** rng.uniform(-3.0, -0.3, actions) if h_per_action else 0.005
        b = float(10.0 ** rng.uniform(-2.0, 0.0))
        measure = _positive_measure(theta, weights)
        values = newsvendor_expected_risk(a, h, b, measure)
        for i in range(actions):
            one = newsvendor_expected_risk(a[i : i + 1], h[i] if h_per_action else h, b, measure)
            assert one.tobytes() == values[i : i + 1].tobytes(), i


def risk_curve(actions, theta, model):
    log_theta = math.log(theta)
    tail = np.exp(math.log(model.b + model.h) - actions * theta - log_theta)
    return model.h * actions - model.h / theta + tail


class TestTrueOptimalAction:
    def test_low_holding_cost_case(self):
        model = make_model(0.001, 0.1, theta0=0.68)
        reference = golden_min(lambda a: risk(a, 0.68, model), 0.0, 50.0)
        assert true_optimal_action(model) == pytest.approx(math.log(101.0) / 0.68, rel=1e-12)
        assert true_optimal_action(model) == pytest.approx(reference, abs=1e-6)

    def test_high_holding_cost_case(self):
        model = make_model(0.009, 0.1, theta0=0.68)
        reference = golden_min(lambda a: risk(a, 0.68, model), 0.0, 50.0)
        assert true_optimal_action(model) == pytest.approx(math.log(109.0 / 9.0) / 0.68, rel=1e-12)
        assert true_optimal_action(model) == pytest.approx(reference, abs=1e-6)

    def test_symmetric_costs_give_median(self):
        model = make_model(0.25, 0.25, theta0=1.0)
        assert true_optimal_action(model) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_matches_dense_grid_argmin(self):
        model = make_model(0.004, 0.1, theta0=0.9)
        actions = np.linspace(0.0, 50.0, 200_001)
        a_grid = actions[np.argmin(risk_curve(actions, 0.9, model))]
        assert abs(true_optimal_action(model) - a_grid) <= 50.0 / 200_000

    def test_requires_known_rate(self):
        model = NewsvendorModel(h=0.1, b=0.1, theta0=None, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            true_optimal_action(model)


class TestLogDensities:
    def test_log_likelihood_unit_rate(self):
        assert log_likelihood(1.0, Observations([1, 2, 3])) == pytest.approx(-6.0)

    def test_log_likelihood_single_point(self):
        assert log_likelihood(2.0, Observations([0.5])) == pytest.approx(math.log(2) - 1)

    def test_log_likelihood_half_rate(self):
        assert log_likelihood(0.5, Observations([1, 1])) == pytest.approx(2 * math.log(0.5) - 1)

    def test_log_likelihood_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            log_likelihood(0.0, Observations([1.0]))

    def test_log_prior_unit_parameters(self):
        assert log_prior(1.0, make_model(0.1, 0.1, alpha=1.0, beta=1.0)) == pytest.approx(-1.0)

    def test_log_prior_density_at_beta(self):
        # For shape 1 the density at theta = beta is exp(-1)/beta.
        model = make_model(0.1, 0.1, theta0=0.3, alpha=1.0, beta=4.1)
        assert math.exp(log_prior(4.1, model)) == pytest.approx(math.exp(-1.0) / 4.1, rel=1e-12)

    def test_log_prior_normalizes(self):
        model = make_model(0.1, 0.1, alpha=1.7, beta=2.3)
        integral, err = quad(lambda t: math.exp(log_prior(t, model)), 0.0, np.inf, limit=200)
        assert integral == pytest.approx(1.0, abs=max(1e-9, 10 * err))

    @pytest.mark.parametrize("alpha", [0.3, 1.7, 2.5])
    def test_log_prior_matches_gammaln_form(self, alpha):
        beta = 2.0
        theta = np.array([0.2, 1.0, 3.5])
        expected = (
            alpha * math.log(beta) - gammaln(alpha) - (alpha + 1.0) * np.log(theta) - beta / theta
        )
        model = make_model(0.1, 0.1, alpha=alpha, beta=beta)
        np.testing.assert_allclose(log_prior(theta, model), expected, rtol=1e-12, atol=0)

    def test_log_prior_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            log_prior(-1.0, make_model(0.1, 0.1))


class _StubStream:
    def __init__(self, u):
        self.u = u

    def random(self, count):
        return np.full(count, self.u)


class TestSampleDemand:
    def test_inverse_cdf_identity(self):
        data = sample_demand(0.68, 1, _StubStream(math.exp(-0.68)))
        assert data.values[0] == pytest.approx(1.0, rel=1e-12)

    def test_law_of_large_numbers(self):
        data = sample_demand(0.68, 1_000_000, np.random.default_rng(15))
        assert abs(data.values.mean() - 1.0 / 0.68) <= 0.005

    def test_fixed_seed_replays_identically(self):
        first = sample_demand(0.68, 100, np.random.default_rng(99))
        second = sample_demand(0.68, 100, np.random.default_rng(99))
        assert np.array_equal(first.values, second.values)

    @pytest.mark.parametrize(
        "make_stream",
        [partial(np.random.default_rng, seed) for seed in (0, 99, 424242)]
        + [partial(_StubStream, 0.0)],  # a zero uniform, nudged to the smallest normal
        ids=["seed 0", "seed 99", "seed 424242", "u = 0"],
    )
    def test_draws_are_the_bits_of_minus_log_u_over_theta(self, make_stream):
        u = np.asarray(make_stream().random(500), dtype=float)
        expected = -np.log(np.maximum(u, np.finfo(float).tiny)) / 0.68
        drawn = sample_demand(0.68, 500, make_stream()).values
        assert np.all(np.isfinite(drawn)) and drawn.tobytes() == expected.tobytes()

    def test_validates_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_demand(0.0, 5, rng)
        with pytest.raises(ValueError):
            sample_demand(1.0, 0, rng)


class TestFisherInformation:
    @pytest.mark.parametrize("theta,expected", [(1.0, 1.0), (0.68, 1.0 / 0.4624), (2.0, 0.25)])
    def test_values(self, theta, expected):
        assert fisher_information(theta) == pytest.approx(expected, rel=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fisher_information(0.0)


class TestObservations:
    def test_caches_sufficient_statistics(self):
        data = Observations([1.0, 2.5, 0.0])
        assert data.n == 3
        assert data.sum_s == float(np.array([1.0, 2.5, 0.0]).sum())

    def test_prefix_recomputes_statistics(self):
        data = Observations([1.0, 2.0, 3.0])
        head = data.prefix(2)
        assert head.n == 2 and head.sum_s == 3.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Observations([])
        with pytest.raises(ValueError):
            Observations([1.0, -0.5])
        with pytest.raises(ValueError):
            Observations([np.nan])

    @pytest.mark.parametrize(
        "values,message",
        [
            ([math.nan], "finite and nonnegative"),
            ([math.inf], "finite and nonnegative"),
            ([-math.inf], "finite and nonnegative"),
            ([-1.0], "finite and nonnegative"),
            ([1.0, math.inf, math.nan], "finite and nonnegative"),
            ([-0.0], None),
            ([1e308, 1e308], "sum past the floating-point range"),
        ],
    )
    def test_validation_reads_min_then_the_sum_without_a_warning(self, values, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message is None:
                data = Observations(values)
                assert data.n == len(values) and data.sum_s == 0.0
            else:
                with pytest.raises(ValueError, match=message):
                    Observations(values)

    def test_rejects_an_overflowing_sum_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum past the floating-point range"):
                Observations([1e308, 1e308])


class TestModelValidation:
    def test_rejects_optimum_outside_interval(self):
        # ln(101)/0.68 = 6.79 does not fit in [0, 5].
        with pytest.raises(ValueError):
            make_model(0.001, 0.1, theta0=0.68, interval=(0.0, 5.0))

    def test_rejects_nonpositive_costs(self):
        with pytest.raises(ValueError):
            make_model(0.0, 0.1)
        with pytest.raises(ValueError):
            make_model(0.1, -0.1)

    def test_allows_unknown_rate(self):
        model = NewsvendorModel(h=0.1, b=0.1, theta0=None, alpha=1.0, beta=1.0)
        assert model.theta0 is None
