"""Variational engine: closed-form bound, calibrated objective, fits, identities."""

import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import newsvb.vb as vb
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
    lcvb_decide,
    posterior_expected_risk,
    sample_demand,
    variational_variance,
)
from newsvb.cli import _check_dataset, posterior_cell, probe_members
from newsvb.model import NewsvendorRisk, log_likelihood, log_prior
from newsvb.numerics import NumericalError, ascend, gauss_hermite_standard
from newsvb.vb import (
    MAX_ITERATIONS,
    NODE_COUNT,
    TOLERANCE,
    FitSettings,
    _elbo_terms,
    _lcvb_objective,
    _log_risk_term,
    posterior_kl,
)

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


def bound_objective(data, model):
    """The bound as an ``ascend`` objective of x = (mu, rho), its own fallback."""

    def objective(x):
        value, gradient, hessian = _elbo_terms(*x, data.n, data.sum_s, model.alpha, model.beta)
        return value, gradient, hessian, hessian

    return objective


def hessian_by_differences(objective, x, step=1e-6):
    """Central differences of ``objective``'s analytic gradient, column by column."""
    columns = []
    for i in range(2):
        up, down = x.copy(), x.copy()
        up[i] += step
        down[i] -= step
        columns.append(np.subtract(objective(up)[1], objective(down)[1]) / (2 * step))
    return np.column_stack(columns)


class TestHessians:
    # The members and dataset of ``newsvb check``'s elbo-gradient check.
    model, data, _ = _check_dataset()
    members = probe_members(np.random.default_rng(64), data.n / data.sum_s, 50)

    def assert_matches_differences(self, objective, q):
        x = np.array([q.mu, math.log(q.sigma)])
        hessian, fallback = map(np.asarray, objective(x)[2:4])
        numeric = hessian_by_differences(objective, x)
        scale = max(float(np.linalg.norm(hessian)), 1.0)
        assert float(np.linalg.norm(hessian - numeric)) <= 1e-5 * scale
        assert hessian[0, 1] == hessian[1, 0]
        assert np.all(np.linalg.eigvalsh(fallback) < 0.0)  # the bound's own, never indefinite
        return hessian, fallback

    def test_elbo_hessian_matches_differences_of_its_gradient(self):
        objective = bound_objective(self.data, self.model)
        for q in self.members:
            hessian, fallback = self.assert_matches_differences(objective, q)
            assert np.array_equal(hessian, fallback)

    def test_calibrated_hessian_matches_differences_of_its_gradient(self):
        builtin = NewsvendorRisk(self.model.h, self.model.b)
        actions = np.random.default_rng(65).uniform(0.0, 50.0, size=len(self.members))
        elbo_only = bound_objective(self.data, self.model)
        for a, q in zip(actions, self.members):
            objective = _lcvb_objective(float(a), self.data, self.model, builtin)
            _, fallback = self.assert_matches_differences(objective, q)
            x = np.array([q.mu, math.log(q.sigma)])
            assert np.array_equal(fallback, np.asarray(elbo_only(x)[2]))


class TestFitSettings:
    def test_reads_the_constants_and_takes_no_arguments(self):
        settings = FitSettings()
        values = (settings.tolerance, settings.max_iterations, settings.node_count)
        assert values == (TOLERANCE, MAX_ITERATIONS, NODE_COUNT) == (1e-8, 10_000, 64)
        for name, value in zip(("tolerance", "max_iterations", "node_count"), values):
            with pytest.raises(TypeError):
                FitSettings(**{name: value})
            with pytest.raises(AttributeError):
                setattr(settings, name, value)
        with pytest.raises(TypeError):
            FitSettings(1e-8)


@st.composite
def plain_fit_cells(draw):
    """(n, S, alpha, beta): n up to 50,000, and the mean demand, alpha and beta
    log-uniform over eight, three and six decades."""
    n = draw(st.integers(1, 50_000))
    mean, alpha, beta = (10.0 ** draw(st.floats(lo, hi)) for lo, hi in ((-4, 4), (-1, 2), (-3, 3)))
    return n, n * mean, alpha, beta


# Inputs on which the damped ascent from (log(n/S), -log(n)/2) stalls short
# of the gradient tolerance: 1,250 demands of 0.36576845185177836, and
# n = 50,000 with S = 18461.28441697861.
STALL_CELLS = (
    (1250, 457.21056481472294, 7.551009874824191, 7.339745453129197),
    (50_000, 18461.28441697861, 4.020536218762695, 0.1917277670156741),
)


def plain_fit_problem(n, total, alpha, beta):
    """A model and ``n`` demands summing to exactly ``total``."""
    model = NewsvendorModel(h=0.005, b=0.1, theta0=None, alpha=alpha, beta=beta)
    return Observations([total] + [0.0] * (n - 1)), model


class TestFitNvb:
    @settings(deadline=None, max_examples=50, derandomize=True, database=None)
    @given(cell=plain_fit_cells())
    @example(cell=(3, 1.5, 40.0, 2.0))  # n < alpha: x = A, the root's p < 0 branch
    @example(cell=(1, 1e-4, 1.0, 1e-3))  # S*beta = 1e-7
    @example(cell=(50_000, 5e8, 1.0, 1e3))  # S*beta = 5e11
    @example(cell=STALL_CELLS[0])
    @example(cell=STALL_CELLS[1])
    def test_matches_the_damped_ascent_and_meets_the_gradient_tolerance(self, cell):
        data, model = plain_fit_problem(*cell)
        q, diagnostics = fit_nvb(data, model)
        gradient = elbo_gradient(q, data, model)
        assert diagnostics.converged
        assert diagnostics.final_gradient_norm == float(np.hypot(*gradient)) < TOLERANCE
        assert diagnostics.objective == elbo(q, data, model)
        # The ascent's gradient stop, scaled by the bound's least curvature
        # at q, puts its end within ~1e-8 of the maximizer.
        at_q = bound_objective(data, model)((q.mu, math.log(q.sigma)))
        curvature = float(np.linalg.eigvalsh(-np.array(at_q[2])).min())
        x0 = (math.log(data.n / data.sum_s), -0.5 * math.log(data.n))
        tolerance = TOLERANCE * min(1.0, curvature)
        reference = ascend(bound_objective(data, model), x0, tolerance, MAX_ITERATIONS)
        if reference.converged:
            assert abs(q.mu - reference.x[0]) <= 1e-8
            assert abs(q.sigma - math.exp(reference.x[1])) <= 1e-8 * q.sigma

    @pytest.mark.parametrize("cell", STALL_CELLS, ids=["n1250", "n50000"])
    def test_ends_converged_where_the_damped_ascent_stalls(self, cell):
        data, model = plain_fit_problem(*cell)
        x0 = (math.log(data.n / data.sum_s), -0.5 * math.log(data.n))
        assert not ascend(bound_objective(data, model), x0, TOLERANCE, MAX_ITERATIONS).converged
        q, diagnostics = fit_nvb(data, model)
        assert diagnostics.converged and diagnostics.final_gradient_norm <= 1e-12
        assert float(np.hypot(*elbo_gradient(q, data, model))) <= 1e-12

    @pytest.mark.parametrize(
        "values, beta, match",
        [([1e-300], 1e-10, "leaves the normal floats"), ([0.0, 1e-320], 1e20, "the bound is")],
        ids=["product-below-the-normal-floats", "member-past-the-floats"],
    )
    def test_a_problem_past_the_floats_is_a_numerical_error(self, values, beta, match):
        model = NewsvendorModel(h=0.005, b=0.1, theta0=None, alpha=1.0, beta=beta)
        with pytest.raises(NumericalError, match=match):
            fit_nvb(Observations(values), model)

    def test_improves_on_initialization(self, data_n50, base_model):
        q_init = LogNormalVariational(
            math.log(data_n50.n / data_n50.sum_s), 1.0 / math.sqrt(data_n50.n)
        )
        q, diagnostics = fit_nvb(data_n50, base_model)
        assert elbo(q, data_n50, base_model) >= elbo(q_init, data_n50, base_model)
        assert diagnostics.converged
        assert diagnostics.final_gradient_norm <= TOLERANCE

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


def weighted_sums(log_g, slope, curvature, w, scaled_z):
    """E_q[log G] with its (mu, rho) gradient and Hessian from per-node log G,
    l' and l'', one weighted sum per entry."""
    g_rho = float((w * slope) @ scaled_z)
    h_mu_rho = float((w * curvature) @ scaled_z)
    h_rho = float((w * curvature) @ (scaled_z * scaled_z)) + g_rho
    gradient = np.array([float(w @ slope), g_rho])
    hessian = np.array([[float(w @ curvature), h_mu_rho], [h_mu_rho, h_rho]])
    return float(w @ log_g), gradient, hessian


def log_risk_reference(a, mu, rho, risk, node_count=64):
    """``_log_risk_term`` node by node from the newsvendor's value, rate slope and
    rate curvature, plus the same sums over absolute terms: the scale that
    rounding errors of the sums are measured against."""
    z, w = gauss_hermite_standard(node_count)
    scaled_z = math.exp(rho) * z
    theta = np.exp(mu + scaled_z)
    a_theta = a * theta
    tail = np.exp((math.log(risk.b + risk.h) - np.log(theta)) - a_theta)
    value = tail + risk.h * a - risk.h / theta
    slope = (risk.h / theta - tail * (a_theta + 1.0)) / value
    curvature = (tail * (a_theta * a_theta + a_theta + 1.0) - risk.h / theta) / value
    curvature -= slope * slope
    rows = (np.log(value), slope, curvature)
    exact = weighted_sums(*rows, w, scaled_z)
    scale = weighted_sums(*map(np.abs, rows), w, np.abs(scaled_z))
    # F_a, F_a_mu, F_a_rho and F_aa from l_a = dG/da / G, its derivative in
    # log theta and l_aa = d^2G/da^2 / G - l_a^2.
    tail_theta = tail * theta
    l_a = (risk.h - tail_theta) / value
    cross = a_theta * tail_theta / value - l_a * slope
    l_aa = tail_theta * theta / value - l_a * l_a
    action = np.array([w @ l_a, w @ cross, (w * cross) @ scaled_z, w @ l_aa])
    action_scale = np.array(
        [
            w @ np.abs(l_a),
            w @ np.abs(cross),
            (w * np.abs(cross)) @ np.abs(scaled_z),
            w @ np.abs(l_aa),
        ]
    )
    return (*exact, action), (*scale, action_scale)


class TestLogRiskTerm:
    def test_one_pass_matches_the_node_by_node_reference(self):
        rng = np.random.default_rng(66)
        corners = [
            (a, mu, sigma)
            for a in (0.0, 50.0)
            for mu in (math.log(1e-3), math.log(5.0))
            for sigma in (0.01, 1.0)
        ]
        draws = zip(
            rng.uniform(0.0, 50.0, 300),
            rng.uniform(math.log(1e-3), math.log(5.0), 300),
            rng.uniform(0.01, 1.0, 300),
        )
        for i, (a, mu, sigma) in enumerate([*corners, *draws]):
            risk = NewsvendorRisk((0.001, 0.005, 0.05)[i % 3], 0.1)
            rho = math.log(sigma)
            value, gradient, hessian, action, clamped = _log_risk_term(a, mu, rho, risk, 64)
            exact, scale = log_risk_reference(a, mu, rho, risk)
            assert not clamped
            # Only the order of the sums differs: 1e-12 relative to the summed terms.
            for got, want, size in zip((value, gradient, hessian, action), exact, scale):
                assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * size)
            assert hessian[0][1] == hessian[1][0]

    def test_constant_risk_has_zero_gradient_and_hessian(self):
        for mu, sigma in [(-3.0, 0.01), (0.0, 0.5), (1.5, 1.0)]:
            value, gradient, hessian, action, clamped = _log_risk_term(
                2.0, mu, math.log(sigma), ConstantRisk(3.7), 64
            )
            assert value == pytest.approx(math.log(3.7), rel=1e-14)
            assert gradient == (0.0, 0.0)
            assert hessian == ((0.0, 0.0), (0.0, 0.0))
            assert action == (0.0, 0.0, 0.0, 0.0)
            assert not clamped


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

    def test_log_risk_term_stable_under_node_doubling(self, data_n50, base_model):
        rng = np.random.default_rng(10)
        center = math.log(data_n50.n / data_n50.sum_s)
        members = random_members(rng, center, 50, sigma_range=(0.05, 0.6))
        actions = rng.uniform(0.0, 50.0, size=50)
        risk = NewsvendorRisk(base_model.h, base_model.b)
        for a, q in zip(actions, members):
            point = (float(a), q.mu, math.log(q.sigma), risk)
            coarse, fine = (_log_risk_term(*point, count)[0] for count in (NODE_COUNT, 128))
            assert abs(coarse - fine) < 1e-8

    def test_nonpositive_risk_raises(self, data_n50, base_model, grid_n50):
        class SignFlip:
            def value(self, a, theta):
                return np.where(theta > 0.5, -1.0, 1.0)

            def theta_terms(self, a, theta):
                return self.value(a, theta), *[np.zeros_like(theta)] * 5

        q = LogNormalVariational(0.0, 0.5)
        with pytest.raises(NumericalError):
            calibrated_objective(1.0, q, data_n50, base_model, grid_n50, risk=SignFlip())

    def test_rejects_action_outside_interval(self, data_n50, base_model, grid_n50):
        q = LogNormalVariational(0.0, 0.5)
        with pytest.raises(ValueError):
            calibrated_objective(60.0, q, data_n50, base_model, grid_n50)

    def test_grid_from_other_data_raises(self, data_n50, base_model, grid_n2000):
        q, _ = fit_nvb(data_n50, base_model)
        with pytest.raises(NumericalError, match="does not match"):
            calibrated_objective(2.0, q, data_n50, base_model, grid_n2000)


class TestFitLcvb:
    def test_constant_risk_collapses_to_plain_fit(self, base_model):
        for seed in range(10):
            data = sample_demand(base_model.theta0, 80, np.random.default_rng(3000 + seed))
            q_plain, _ = fit_nvb(data, base_model)
            q_cal, _ = fit_lcvb(1.5, data, base_model, risk=ConstantRisk(2.0))
            assert abs(q_cal.mu - q_plain.mu) < 1e-6
            assert abs(q_cal.sigma - q_plain.sigma) < 1e-6

    def test_diagnostics_report_the_maximized_objective(self, data_n50, base_model, grid_n50):
        q_plain, diagnostics = fit_nvb(data_n50, base_model)
        assert abs(diagnostics.objective - elbo(q_plain, data_n50, base_model)) < 1e-9
        for a in (0.5, 3.0, 20.0):
            q_cal, diagnostics = fit_lcvb(a, data_n50, base_model)
            objective = calibrated_objective(a, q_cal, data_n50, base_model, grid_n50)
            assert abs(diagnostics.objective - (objective.value + grid_n50.log_evidence)) < 1e-9

    def test_improves_on_plain_solution(self, data_n50, base_model, grid_n50):
        q_plain, _ = fit_nvb(data_n50, base_model)
        for a in (0.5, 3.0, 20.0):
            q_cal, _ = fit_lcvb(a, data_n50, base_model)
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
                q, _ = fit_lcvb(a, data, base_model)
                if abs(q.mean_theta() - base_model.theta0) < 0.05:
                    hits += 1
            assert hits >= 95, f"only {hits}/100 seeds concentrated at a={a}"


    @settings(deadline=None, max_examples=50, derandomize=True, database=None)
    @given(
        n=st.integers(1, 6400),
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(0.0, 50.0),
        h=st.floats(0.001, 0.05),
        alpha=st.floats(0.5, 5.0),
        beta=st.floats(0.5, 10.0),
    )
    # Here log(exp(rho)) misses the ascent's rho, and the value there by an ulp.
    @example(n=1, seed=0, a=1.849000756552556, h=0.001, alpha=0.5, beta=2.0)
    def test_converges_and_never_ends_below_its_start(self, n, seed, a, h, alpha, beta):
        model = NewsvendorModel(h=h, b=0.1, theta0=None, alpha=alpha, beta=beta)
        data = sample_demand(0.68, n, np.random.default_rng(seed))
        q0, _ = fit_nvb(data, model)
        ends = []

        def recorded(*args):
            result = ascend(*args)
            ends.append(result.x)
            return result

        with mock.patch.object(vb, "ascend", recorded):
            q, diagnostics = fit_lcvb(a, data, model, initial=q0)
        objective = _lcvb_objective(a, data, model, NewsvendorRisk(h, 0.1))
        at_start = objective(np.array([q0.mu, math.log(q0.sigma)]))[0]
        assert diagnostics.converged
        assert diagnostics.objective >= at_start
        (x,) = ends
        assert (q.mu, q.sigma) == (x[0], math.exp(x[1]))
        assert diagnostics.objective == objective(np.array([q.mu, math.log(q.sigma)]))[0]

    def test_one_debug_line_per_fit(self, data_n50, base_model, caplog):
        with caplog.at_level(logging.DEBUG, logger="newsvb.vb"):
            _, plain = fit_nvb(data_n50, base_model)
            _, calibrated = fit_lcvb(2.0, data_n50, base_model)  # fits q0 first
        lines = [record.getMessage() for record in caplog.records]
        assert len(lines) == 3
        assert lines[0] == lines[1] == (
            f"plain fit: {plain.iterations} Newton steps, "
            f"gradient norm {plain.final_gradient_norm:.3e}"
        )
        assert lines[2] == (
            f"calibrated fit at a=2: {calibrated.iterations} iterations, "
            f"gradient norm {calibrated.final_gradient_norm:.3e}, 0 fallback steps"
        )


    def test_a_fit_short_of_the_tolerance_logs_one_warning(
        self, data_n50, base_model, caplog, monkeypatch
    ):
        q0, _ = fit_nvb(data_n50, base_model)
        monkeypatch.setattr(vb, "MAX_ITERATIONS", 1)
        with caplog.at_level(logging.DEBUG, logger="newsvb.vb"):
            _, diagnostics = fit_lcvb(2.0, data_n50, base_model, initial=q0)
        assert not diagnostics.converged
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (
                logging.WARNING,
                "calibrated fit at a=2: 1 iterations, "
                f"gradient norm {diagnostics.final_gradient_norm:.3e}, "
                "0 fallback steps, not converged",
            )
        ]


RANDOM_CELLS = dict(
    n=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.1, 5.0),
    h=st.floats(1e-3, 0.5),
    b=st.floats(0.01, 1.0),
    alpha=st.floats(0.5, 5.0),
    beta=st.floats(0.5, 10.0),
    a=st.floats(0.0, 50.0),
    offset=st.floats(-1.5, 1.5),
    sigma=st.floats(0.05, 1.0),
)


# n = 1 data whose saddle solve is cut at a_hi = 50 and held there, F_a < 0.
END_CELL = dict(
    n=1, seed=0, theta=0.125, h=2**-8, b=1.0, alpha=4.0, beta=0.5, offset=0.0, sigma=0.5
)
# A wide member at a large action and small h (``newsvb check``'s
# kl-decomposition-n1-b0.9 cell), where E_q[log G] converges slowly.
WIDE_CELL = dict(
    n=1, seed=11, theta=1.0, h=0.001, b=0.9, alpha=1.0, beta=1.0, offset=0.0, sigma=1.0
)


class TestIdentityProperties:
    @settings(deadline=None, max_examples=50, derandomize=True, database=None)
    @given(**RANDOM_CELLS)
    @example(**END_CELL, a=50.0)  # at a_hi
    def test_jensen_bound_holds(self, a, **cell):
        model, data, grid, q = posterior_cell(**cell)
        value = calibrated_objective(a, q, data, model, grid).value
        assert value <= math.log(posterior_expected_risk(a, grid, model)) + 1e-8

    @settings(deadline=None, max_examples=50, derandomize=True, database=None)
    @given(**RANDOM_CELLS)
    @example(**END_CELL, a=50.0)  # at a_hi
    @example(**WIDE_CELL, a=32.1)
    def test_kl_identity_holds(self, a, **cell):
        # Both sides carry sums the size of KL(q || posterior); the 256- and
        # 192-node quadratures of E_q[log G] agree to ~1e-7 at sigma = 1.
        model, data, grid, q = posterior_cell(**cell)
        residual = kl_decomposition_check(a, q, data, model, grid)
        assert residual <= 1e-5 * (1.0 + posterior_kl(q, data, model, grid))


    @settings(deadline=None, max_examples=50, derandomize=True, database=None)
    @given(**RANDOM_CELLS)
    @example(**END_CELL, a=0.0)  # ends at a_hi
    def test_lcvb_decide_ends_on_a_certified_local_minimum(self, a, **cell):
        model, data, _, _ = posterior_cell(**cell)
        lines = []
        handler = logging.Handler(logging.DEBUG)
        handler.emit = lambda record: lines.append(record.getMessage())
        logger = logging.getLogger("newsvb.decisions")
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        try:
            outcome = lcvb_decide(data, model)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        how = lines[-1].rsplit(", ", 1)[1]
        action, fit = outcome.action, outcome.inner_fit
        slope, curvature = fit.envelope_slope, fit.envelope_curvature
        lo, hi = model.action_interval
        outward = slope > 0 if action == lo else slope < 0 if action == hi else False
        if how == "local":
            assert curvature > 0
            assert outward or abs(slope) / curvature <= 1e-9 * (1.0 + action)
        else:  # an end held by the saddle solve is certified by F_a pointing out
            assert (how, action) in (("at a_lo", lo), ("at a_hi", hi))
            assert outward
        # The inner maximum V is no lower a step away inside the interval.
        for b in (action - 1e-3, action + 1e-3):
            if lo <= b <= hi:
                assert fit_lcvb(b, data, model)[1].objective >= fit.objective


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
