"""Quadrature oracle: evidence stability, posterior moments, Bayes rule."""

import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import newsvb.decisions
import newsvb.model
import newsvb.oracle as oracle
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
from newsvb.decisions import Rule, decide_on_measure
from newsvb.experiment import derive_path_seed, reference_config, simulate_path
from newsvb.model import _positive_measure, expected_risk, log_posterior_unnormalized
from newsvb.numerics import NumericalError, gauss_legendre


def sample_from_grid(grid, count, rng):
    """Inverse-CDF draws from the discretized posterior (test-side oracle)."""
    weights = grid.normalized_weights
    cdf = np.cumsum(weights)
    cdf = cdf / cdf[-1]
    u = rng.random(count)
    return grid.nodes[np.searchsorted(cdf, u)]


def exact_bayes_root(data, model, start):
    """Root of (b+h)*E_post[exp(-a*theta)] = h for the exact posterior, by mpmath.

    The posterior is GIG(p = n - alpha, 2S, 2beta), so
    E_post[exp(-a*theta)] = (S/(S+a))^(p/2) K_p(2 sqrt((S+a) beta)) / K_p(2 sqrt(S beta)).
    """
    with mpmath.workdps(30):
        p = mpmath.mpf(data.n) - model.alpha
        s, beta = mpmath.mpf(data.sum_s), mpmath.mpf(model.beta)
        level = mpmath.log(mpmath.mpf(model.h) / (mpmath.mpf(model.b) + model.h))

        def log_k(a):
            return mpmath.log(mpmath.besselk(p, 2 * mpmath.sqrt((s + a) * beta)))

        base = log_k(0)

        def log_laplace_minus_level(a):
            return p / 2 * mpmath.log(s / (s + a)) + log_k(a) - base - level

        return float(mpmath.findroot(log_laplace_minus_level, mpmath.mpf(start)))


def _window(log_f, peak, start_step, lower=-mpmath.inf, drop=100):
    """Quadrature points from ``peak``, the mode of the unimodal log integrand
    ``log_f`` on [lower, inf), out to where it has fallen ``drop`` below its
    peak on each side (or to ``lower``), in steps doubling from
    ``start_step``, or from 1 where that is larger: a flat integrand's
    curvature scale (5e74 for K_0 at x = 4e-150) would step past its fall
    to where mpmath's exp overflows."""
    top, points = log_f(peak), [peak]
    for direction in (-1, 1):
        t, step = peak, min(start_step, 1)
        while log_f(t) > top - drop and (direction > 0 or t > lower):
            t = t + step if direction > 0 else max(t - step, lower)
            points.append(t)
            step *= 2
    return sorted(points)


def log_besselk(order, x):
    """log K_order(x) = log int_0^inf exp(-x cosh t) cosh(order t) dt by mpmath
    quadrature about the integrand's peak t* = asinh(|order|/x), scaled to 1
    there. The integrand is unimodal on t >= 0, and the window runs from t*
    until it has fallen e^-100 below its peak, or to t = 0: where x << |order|
    it falls only as e^(-|order|*(t* - t)) to the left of t*, which a window
    of fixed width misses. Where the integrand stays flat until it falls
    within one doubled step (K_0 at x = 4e-150 falls near t = 345, inside
    [255, 511]), tanh-sinh needs degree 10 for 30 digits; mpmath's default
    read 3.8e-7 off there. ``mpmath.besselk`` is wrong at 30 digits for
    some large non-integer orders (log K_247.15(176.67) reads 20.17 against
    -25.33), which the evidence test's priors reach; ``exact_bayes_root``
    keeps it, as it agrees with this on that test's integer and small
    orders."""
    order = abs(order)
    peak = mpmath.asinh(order / x)
    shift = order * peak - x * mpmath.cosh(peak)

    def log_integrand(t):
        return -x * mpmath.cosh(t) - shift + mpmath.log(mpmath.cosh(order * t))

    points = _window(log_integrand, peak, 1 / mpmath.sqrt(mpmath.hypot(x, order)), lower=0)
    integral = mpmath.quad(lambda t: mpmath.exp(log_integrand(t)), points, maxdegree=10)
    return shift + mpmath.log(integral)


def log_evidence_in_u(data, model):
    """log p(X) by mpmath quadrature of the posterior's log density
    p*u - S*e^u - beta*e^-u (p = n - alpha) in u = log(theta), about its mode
    out to e^-100 below it, plus alpha log beta - lgamma(alpha): a reference
    that shares no Bessel function with ``exact_log_evidence``."""
    with mpmath.workdps(30):
        p = mpmath.mpf(data.n) - model.alpha
        s, alpha, beta = mpmath.mpf(data.sum_s), mpmath.mpf(model.alpha), mpmath.mpf(model.beta)
        root = mpmath.sqrt(p * p + 4 * s * beta)
        # log of the positive root of S*t^2 - p*t - beta, free of cancellation.
        mode = mpmath.log((p + root) / (2 * s) if p >= 0 else 2 * beta / (root - p))

        def log_density(u):
            return p * u - s * mpmath.exp(u) - beta * mpmath.exp(-u)

        width = 1 / mpmath.sqrt(s * mpmath.exp(mode) + beta * mpmath.exp(-mode))
        points = _window(log_density, mode, width)
        integral = mpmath.quad(lambda u: mpmath.exp(log_density(u)), points)
        return float(alpha * mpmath.log(beta) - mpmath.loggamma(alpha) + mpmath.log(integral))


def exact_log_evidence(data, model):
    """log p(X) of the GIG(p = n - alpha, 2S, 2beta) posterior by mpmath:
    alpha log beta - lgamma(alpha) + log 2 + (p/2) log(beta/S) + log K_p(2 sqrt(S beta))."""
    with mpmath.workdps(30):
        p = mpmath.mpf(data.n) - model.alpha
        s, alpha, beta = mpmath.mpf(data.sum_s), mpmath.mpf(model.alpha), mpmath.mpf(model.beta)
        return float(
            alpha * mpmath.log(beta) - mpmath.loggamma(alpha) + mpmath.log(2)
            + p / 2 * mpmath.log(beta / s) + log_besselk(p, 2 * mpmath.sqrt(s * beta))
        )


def exact_moments(data, model):
    """Mean and variance of the GIG(p = n - alpha, 2S, 2beta) posterior by mpmath:
    E[theta^k] = (beta/S)^(k/2) K_(p+k)(2 sqrt(S beta)) / K_p(2 sqrt(S beta))."""
    with mpmath.workdps(30):
        p = mpmath.mpf(data.n) - model.alpha
        s, beta = mpmath.mpf(data.sum_s), mpmath.mpf(model.beta)
        x = 2 * mpmath.sqrt(s * beta)
        base = log_besselk(p, x)
        mean = mpmath.sqrt(beta / s) * mpmath.exp(log_besselk(p + 1, x) - base)
        second = beta / s * mpmath.exp(log_besselk(p + 2, x) - base)
        return float(mean), float(second - mean**2)


@st.composite
def gig_cells(draw):
    """(n, one demand repeated n times, alpha, beta): the ranges of the log
    weight property, or a flat posterior, |p| = |n - alpha| < 1."""
    n = draw(st.integers(1, 2000))
    if draw(st.booleans()):
        alpha = n - draw(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    else:
        alpha = draw(st.floats(0.1, 10.0))
    return n, 10.0 ** draw(st.floats(-3.0, 3.0)), alpha, 10.0 ** draw(st.floats(-3.0, 3.0))


def demands_id(values):
    return ",".join(f"{v:g}" for v in values)


def bayes_slope(a, grid, model):
    """H'(a) = h - (b+h)*E_post[exp(-a*theta)] on the grid."""
    laplace = float(grid.normalized_weights @ np.exp(-a * grid.nodes))
    return model.h - (model.b + model.h) * laplace


class TestBuildPosterior:
    def test_weights_normalize(self, grid_n50):
        assert abs(grid_n50.normalized_weights.sum() - 1.0) < 1e-10

    def test_nodes_strictly_increasing_and_evidence_finite(self, grid_n50):
        assert np.all(np.diff(grid_n50.nodes) > 0)
        assert math.isfinite(grid_n50.log_evidence)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 4.1), (0.3, 2.0), (2.5, 0.7)])
    def test_evidence_matches_the_exact_gig_evidence(self, alpha, beta):
        model = NewsvendorModel(h=0.005, b=0.1, theta0=0.68, alpha=alpha, beta=beta)
        for seed in range(5):
            stream = sample_demand(model.theta0, 6400, np.random.default_rng(7000 + seed))
            for n in (1, 50, 1250, 6400):
                data = stream.prefix(n)
                exact = exact_log_evidence(data, model)
                grid = build_posterior(data, model)
                assert abs(grid.log_evidence - exact) <= 1e-12 * (1.0 + abs(exact)), (seed, n)

    @pytest.mark.parametrize(
        "values,alpha,beta",
        [
            # p = n - alpha = -0.238 and 2*sqrt(S*beta) ~ 4.4e-106: the Bessel
            # integrand falls only as e^(-0.238*(t* - t)) left of its peak
            # t* ~ 242, so a window of width 40 read 0.724116 against 0.724173.
            ([9.67e-212], 1.238, 0.491),
            ([0.06217503342306251], 0.9901176959782227, 0.004249787808419375),
            ([1.1, 0.3, 2.5], 1.0, 4.1),
        ],
    )
    def test_the_bessel_reference_matches_a_direct_quadrature_in_u(self, values, alpha, beta):
        data = Observations(values)
        model = NewsvendorModel(h=0.005, b=0.1, theta0=None, alpha=alpha, beta=beta)
        exact = exact_log_evidence(data, model)
        assert abs(exact - log_evidence_in_u(data, model)) <= 1e-14 * (1.0 + abs(exact))

    @pytest.mark.parametrize("alpha,beta", [(1.0, 4.1), (0.3, 2.0), (2.5, 0.7)])
    def test_moments_match_the_exact_gig_moments(self, alpha, beta):
        # The weights come from log weights less the peak, whose rounding does
        # not grow like n: the worst of 960 cells of seeds 8000-8019 and
        # 9000-9019 (n from 1 to 6,400) read 16.3 eps, the bound is 32 eps.
        model = NewsvendorModel(h=0.005, b=0.1, theta0=0.68, alpha=alpha, beta=beta)
        for seed in range(2):
            stream = sample_demand(model.theta0, 6400, np.random.default_rng(7000 + seed))
            for n in (1, 3, 50, 1250, 6400):
                data = stream.prefix(n)
                mean, variance = exact_moments(data, model)
                grid = build_posterior(data, model)
                bound = 32 * np.finfo(float).eps
                assert abs(grid.mean() - mean) <= bound * mean, (seed, n)
                assert abs(grid.variance() - variance) <= bound * variance, (seed, n)

    @settings(deadline=None, max_examples=50, derandomize=True, database=None)
    @given(
        n=st.integers(1, 2000),
        log_scale=st.floats(-3.0, 3.0),
        alpha=st.floats(0.1, 10.0),
        log_beta=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    def test_log_weights_are_the_log_posterior_at_the_nodes(
        self, n, log_scale, alpha, log_beta, seed
    ):
        # The closed form p*u - S*e^u - beta*e^-u + alpha*log(beta) - lgamma(alpha)
        # against the model's own log likelihood and prior at theta = e^u.
        model = NewsvendorModel(h=0.005, b=0.1, theta0=None, alpha=alpha, beta=10.0**log_beta)
        data = sample_demand(10.0**-log_scale, n, np.random.default_rng(seed))
        grid = build_posterior(data, model)
        _, w = gauss_legendre(oracle.POSTERIOR_NODES)
        lo, hi = np.log(grid.window)
        u = np.log(grid.nodes)
        reference = np.log(w * (0.5 * (hi - lo))) + u + log_posterior_unnormalized(
            grid.nodes, data, model
        )
        assert np.all(np.abs(grid.log_weights - reference) <= 1e-12 * (1.0 + np.abs(reference)))

    @settings(deadline=None, max_examples=40, derandomize=True, database=None)
    @given(cell=gig_cells())
    # One demand with p = n - alpha = 0.0099, where a window of 12 Laplace
    # standard deviations, u in [-66, 64], read log p(X) 1.1e-6 off.
    @example(cell=(1, 0.06217503342306251, 0.9901176959782227, 0.004249787808419375))
    def test_evidence_matches_the_exact_gig_evidence_on_random_posteriors(self, cell):
        n, demand, alpha, beta = cell
        model = NewsvendorModel(h=0.005, b=0.1, theta0=None, alpha=alpha, beta=beta)
        data = Observations(np.full(n, demand))
        exact = exact_log_evidence(data, model)
        grid = build_posterior(data, model)
        assert abs(grid.log_evidence - exact) <= 1e-12 * (1.0 + abs(exact))

    # Demands far from the prior's scale, where an MLE-centred window was
    # off by up to 3.2e8 nats ([1e12, 2e12]) or failed ([1e-12, 1e-12]), and
    # where the Laplace window failed: [1e-9] and [1e-300] are flat over u in
    # [-2.4, 24.6] and [-2.4, 694.6], and [1e300]'s window is 1e-74 wide about
    # u = -344.7, where every node rounds to the mode.
    @pytest.mark.parametrize(
        "values",
        [[1e12, 2e12], [1e6], [300.0], [1e-12, 1e-12], [1e-9], [1e-300], [1e300]],
        ids=demands_id,
    )
    def test_extreme_data_keep_the_exact_evidence(self, base_model, values):
        data = Observations(values)
        exact = exact_log_evidence(data, base_model)
        grid = build_posterior(data, base_model)
        assert abs(grid.log_evidence - exact) <= 1e-12 * (1.0 + abs(exact))

    # [0.0, 1e-320] puts the mode past the float range, and [1e-320] the
    # window's right edge (near e^740).
    @pytest.mark.parametrize("values", [[1e-320], [0.0, 1e-320]], ids=demands_id)
    def test_a_window_past_the_float_range_is_a_numerical_error(self, base_model, values):
        with pytest.raises(NumericalError, match="float range"):
            build_posterior(Observations(values), base_model)

    def test_posterior_concentrates_near_true_rate(self, base_model):
        data = sample_demand(base_model.theta0, 2000, np.random.default_rng(42))
        grid = build_posterior(data, base_model)
        sd = math.sqrt(grid.variance())
        assert abs(grid.mean() - 0.68) <= 3 * sd
        assert grid.mean() == pytest.approx(mle(data), abs=3 * sd)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 4.1), (0.3, 2.0), (2.5, 0.7)])
    def test_log_evidence_matches_scipy_logsumexp(self, alpha, beta):
        model = NewsvendorModel(h=0.005, b=0.1, theta0=0.68, alpha=alpha, beta=beta)
        for seed in range(5):
            stream = sample_demand(model.theta0, 6400, np.random.default_rng(7000 + seed))
            for n in (1, 50, 1250, 6400):
                grid = build_posterior(stream.prefix(n), model)
                reference = float(logsumexp(grid.log_weights))
                assert abs(grid.log_evidence - reference) <= 1e-15 * abs(reference)

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

    def test_matches_a_50_digit_sum(self, data_n2000, base_model):
        # The worst error here reads 2.66 eps, at a = 0 with h = 0.5, where
        # (b+h)*tail and h*sum w/theta cancel to a sixth of their size. The
        # reference study's n = 1 grid on path 0 reaches rates whose
        # exponentials underflow: 42% of its exponents here are below -707.
        config = reference_config()
        rng = np.random.default_rng(derive_path_seed(config.master_seed, 0))
        path_0 = sample_demand(config.theta0, max(config.n_schedule), rng).prefix(1)
        actions = np.linspace(*base_model.action_interval, 33)
        for data in [data_n2000.prefix(n) for n in (1, 3, 10, 2000)] + [path_0]:
            grid = build_posterior(data, base_model)
            keep = grid.normalized_weights > 0
            with mpmath.workdps(50):
                theta = [mpmath.mpf(float(t)) for t in grid.nodes[keep]]
                weights = [mpmath.mpf(float(w)) for w in grid.normalized_weights[keep]]
                ratios = [w / t for w, t in zip(weights, theta)]
                total, total_ratio = mpmath.fsum(weights), mpmath.fsum(ratios)
                tails = [
                    mpmath.fsum(r * mpmath.exp(-mpmath.mpf(a) * t) for r, t in zip(ratios, theta))
                    for a in actions
                ]
                for h in (0.001, 0.005, 0.009, 0.5):
                    model = replace(base_model, h=h, theta0=None)
                    values = expected_risk(actions, grid.nodes, grid.normalized_weights, model)
                    for a, value, tail in zip(actions, values, tails):
                        exact = (model.b + mpmath.mpf(h)) * tail + h * (
                            mpmath.mpf(a) * total - total_ratio
                        )
                        assert abs(value - exact) <= 1e-13 * exact, (data.n, h, a)

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

    def test_matches_the_exact_gig_root(self, base_model):
        stream = sample_demand(base_model.theta0, 1250, np.random.default_rng(20))
        cells = [
            (stream.prefix(n), replace(base_model, h=h))
            for n in (1, 2, 10, 50, 250, 1250)
            for h in (0.001, 0.005, 0.05)
        ]
        # One small demand under a vague prior: an MLE-centred window missed
        # this root by 1.1e-3.
        single = NewsvendorModel(h=0.001, b=0.1, theta0=None, alpha=0.3, beta=0.89)
        cells.append((Observations([0.0279976]), single))
        for data, model in cells:
            action = bayes_decision(build_posterior(data, model), model).action
            assert abs(action - exact_bayes_root(data, model, action)) <= 1e-10, (data, model)

    @settings(deadline=None, max_examples=50, derandomize=True, database=None)
    @given(
        n=st.integers(1, 2000),
        mean_demand=st.floats(0.05, 20.0),
        beta=st.floats(0.5, 5.0),
        h=st.floats(1e-3, 0.5),
        raise_by=st.floats(0.0, 0.5),
        b=st.floats(0.01, 1.0),
        lo=st.floats(0.0, 5.0),
        width=st.floats(0.5, 50.0),
    )
    # The root at a_hi for h = 0.005 and at a_lo for h = 0.305.
    @example(n=5, mean_demand=2.0, beta=1.0, h=0.005, raise_by=0.3, b=0.1, lo=0.5, width=1.0)
    def test_root_is_certified_and_non_increasing_in_h(
        self, n, mean_demand, beta, h, raise_by, b, lo, width
    ):
        low = NewsvendorModel(
            h=h, b=b, theta0=None, alpha=1.0, beta=beta, action_interval=(lo, lo + width)
        )
        high = replace(low, h=h + raise_by)
        grid = build_posterior(Observations(np.full(n, mean_demand)), low)
        actions = []
        for model in (low, high):
            a = bayes_decision(grid, model).action
            slope = bayes_slope(a, grid, model)
            if a == lo:  # H rises from a_lo
                assert slope >= -1e-12
            elif a == lo + width:  # H still falls at a_hi
                assert slope <= 1e-12
            else:  # (b+h) E_post[exp(-a theta)] = h
                assert abs(slope) <= 1e-12 * model.h
            actions.append(a)
        # Equal roots may differ by the Newton stop, 1e-15 * (1 + a).
        assert actions[1] <= actions[0] + 1e-13

    @settings(deadline=None, max_examples=50, derandomize=True, database=None)
    @given(
        n=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(0.05, 20.0),
        alpha=st.floats(0.1, 10.0),
        beta=st.floats(0.1, 10.0),
        hs=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=9, unique=True),
        b=st.floats(0.01, 1.0),
        lo=st.floats(0.0, 5.0),
        width=st.floats(0.5, 50.0),
    )
    # The reference study's n = 1 cell on path 0, where 42% of the scan's
    # exponents fall below log(float min).
    @example(
        n=1, seed=derive_path_seed(424242, 0), theta=0.68, alpha=1.0, beta=4.1,
        hs=[0.001 * k for k in range(1, 10)], b=0.1, lo=0.0, width=50.0,
    )
    def test_batched_roots_decide_each_cell_as_its_own_root(
        self, n, seed, theta, alpha, beta, hs, b, lo, width
    ):
        models = [
            NewsvendorModel(
                h=h, b=b, theta0=None, alpha=alpha, beta=beta, action_interval=(lo, lo + width)
            )
            for h in hs
        ]
        grid = build_posterior(sample_demand(theta, n, np.random.default_rng(seed)), models[0])
        fresh = _positive_measure(grid.nodes, grid.normalized_weights)
        roots = decide_on_measure(fresh, models, Rule.BAYES)
        # As simulate_path decides them: on the grid's prepared measure.
        prepared = decide_on_measure(grid.measure, models, Rule.BAYES)
        for model, root, again in zip(models, roots, prepared):
            if isinstance(root, NumericalError):
                assert isinstance(again, NumericalError) and str(again) == str(root)
            else:
                for field in ("action", "objective_value"):
                    assert getattr(again, field).hex() == getattr(root, field).hex(), field
                assert again.probe_count == root.probe_count
            try:
                alone = bayes_decision(grid, model)
            except NumericalError as exc:
                for passed in (root, again):
                    with pytest.raises(NumericalError, match=re.escape(str(exc))):
                        bayes_decision(grid, model, root=passed)
                continue
            for passed in (root, again):
                batched = bayes_decision(grid, model, root=passed)
                for field in ("action", "objective_value"):
                    assert getattr(batched, field).hex() == getattr(alone, field).hex(), field
                assert batched.probe_count == alone.probe_count

    def test_the_grid_measure_and_scan_actions_are_prepared_once_read_only(
        self, data_n50, base_model
    ):
        grid = build_posterior(data_n50, base_model)
        assert "measure" not in vars(grid)  # prepared on first use
        measure = grid.measure
        assert grid.measure is measure
        fresh = _positive_measure(grid.nodes, grid.normalized_weights)
        for kept, made in zip(measure[:2], fresh[:2]):  # -theta and the rows
            assert kept.shape == made.shape and kept.tobytes() == made.tobytes()
            assert kept.flags.c_contiguous
            with pytest.raises(ValueError):
                kept[(0,) * kept.ndim] = 1.0
        assert [x.hex() for x in measure[2:]] == [x.hex() for x in fresh[2:]]
        lo, hi = base_model.action_interval
        scan = oracle._scan_actions(lo, hi)
        assert oracle._scan_actions(lo, hi) is scan
        assert scan.tobytes() == np.linspace(lo, hi, 512).tobytes()
        with pytest.raises(ValueError):
            scan[0] = 1.0

    def test_a_path_prepares_each_measure_once_per_n(self, monkeypatch):
        # Every module that prepares a measure looks the helper up by name.
        prepared = []
        for module in (newsvb.model, newsvb.decisions, oracle):
            def counting(theta, weights, original=module._positive_measure):
                prepared.append(len(theta))
                return original(theta, weights)

            monkeypatch.setattr(module, "_positive_measure", counting)
        config = reference_config(rules=(Rule.NVB, Rule.BAYES), replications=1)
        records = simulate_path(config, 0)
        assert len(records) == 2 * 9 * 4 and not any(record.failed for record in records)
        # One posterior grid and one NVB member per n, not one grid per h.
        assert len(prepared) == 2 * len(config.n_schedule) == 8

    def test_root_above_the_scan_minimum_fails_the_scan_check(
        self, grid_n50, base_model, monkeypatch
    ):
        root = oracle.decide_on_measure

        def root_reporting_a_higher_risk(*args):
            (outcome,) = root(*args)
            return [replace(outcome, objective_value=2.0 * outcome.objective_value)]

        monkeypatch.setattr(oracle, "decide_on_measure", root_reporting_a_higher_risk)
        with pytest.raises(NumericalError, match="with H=.* fails the scan check"):
            bayes_decision(grid_n50, base_model)

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
