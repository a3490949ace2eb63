"""Decision rules: two-stage NVB, nested LCVB, gap metrics, invariances."""

import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    risk,
    sample_demand,
    true_optimal_action,
)
from newsvb.decisions import decide_on_measure, decide_with_variational, envelope_slope
from newsvb.model import expected_risk
from newsvb.numerics import NumericalError, minimize_on_grid_then_golden
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


@st.composite
def measures(draw):
    """Positive rates with weights, some zero and at least one positive."""
    size = draw(st.integers(1, 40))
    theta = draw(st.lists(st.floats(0.2, 5.0), min_size=size, max_size=size))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = draw(
        st.lists(weight, min_size=size, max_size=size).filter(lambda w: max(w) > 0)
    )
    return np.array(theta), np.array(weights)


def measure_model(h, b, lo, width):
    interval = (lo, lo + width)
    return NewsvendorModel(h=h, b=b, theta0=None, alpha=1.0, beta=1.0, action_interval=interval)


def psi(a, theta, weights):
    """log sum_i weights[i] * exp(-a * theta[i]), over the positive weights."""
    keep = weights > 0
    return float(np.logaddexp.reduce(np.log(weights[keep]) - a * theta[keep]))


def action_slope_sum(a, theta, weights, model):
    """H'(a) = sum_i weights[i] * dG/da(a, theta[i])."""
    return float(weights @ NewsvendorRisk(model.h, model.b).action_slope(a, theta))


PROPERTY_SETTINGS = settings(deadline=None, max_examples=50, derandomize=True, database=None)
COSTS = dict(
    h=st.floats(1e-3, 0.5),
    b=st.floats(0.01, 1.0),
    lo=st.floats(0.0, 5.0),
    width=st.floats(0.5, 50.0),
)


class TestDecideOnMeasure:
    def test_posterior_grid_measure_is_the_bayes_rule(self, grid_n50, base_model):
        # Two independent searches of the same posterior expected risk: the
        # first-order root and the oracle's derivative-free scan.
        root = decide_on_measure(
            grid_n50.nodes, grid_n50.normalized_weights, base_model, Rule.BAYES
        )
        scan = bayes_decision(grid_n50, base_model)
        assert abs(root.action - scan.action) <= 1e-7
        assert root.objective_value <= scan.objective_value + 1e-15 * abs(scan.objective_value)

    @PROPERTY_SETTINGS
    @given(measure=measures(), **COSTS)
    def test_root_solves_the_first_order_condition(self, measure, h, b, lo, width):
        theta, weights = measure
        model = measure_model(h, b, lo, width)
        outcome = decide_on_measure(theta, weights, model, Rule.NVB)
        a = outcome.action
        assert type(a) is float
        if a == model.action_lo:  # H rises from a_lo
            assert action_slope_sum(a, theta, weights, model) >= -1e-12
        elif a == model.action_hi:  # H still falls at a_hi
            assert action_slope_sum(a, theta, weights, model) <= 1e-12
        else:
            level = math.log(h * weights.sum() / (b + h))
            assert abs(psi(a, theta, weights) - level) <= 1e-10
        assert outcome.objective_value == expected_risk(a, theta, weights, model)

    @PROPERTY_SETTINGS
    @given(measure=measures(), **COSTS)
    def test_root_agrees_with_the_scan(self, measure, h, b, lo, width):
        theta, weights = measure
        model = measure_model(h, b, lo, width)
        outcome = decide_on_measure(theta, weights, model, Rule.NVB)
        action, _, _ = minimize_on_grid_then_golden(
            lambda a: expected_risk(a, theta, weights, model), lo, lo + width
        )
        assert abs(outcome.action - action) <= 1e-6

    @PROPERTY_SETTINGS
    @given(measure=measures(), raise_by=st.floats(0.0, 0.5), **COSTS)
    def test_action_is_non_increasing_in_h(self, measure, raise_by, h, b, lo, width):
        theta, weights = measure
        low = decide_on_measure(theta, weights, measure_model(h, b, lo, width), Rule.NVB)
        high_model = measure_model(h + raise_by, b, lo, width)
        high = decide_on_measure(theta, weights, high_model, Rule.NVB)
        # Equal roots may differ by the Newton stop, 1e-15 * (1 + a).
        assert high.action <= low.action + 1e-13

    def test_scan_misses_a_flat_minimizer_by_at_most_1e_6(self):
        # The scan's 1e-8 is its final bracket width: golden section compares
        # values, which stop resolving the action within about sqrt(eps*H/H'')
        # of the minimizer. Rates in [0.05, 0.3] with h = 0.0026 keep
        # H'' = (b+h) * sum_i w_i*theta_i*exp(-a*theta_i) small against H.
        model = measure_model(0.0026, 0.1, 0.0, 50.0)
        rng = np.random.default_rng(67)
        interior = 0
        for _ in range(200):
            size = int(rng.integers(1, 41))
            theta, weights = rng.uniform(0.05, 0.3, size), rng.uniform(1e-3, 1.0, size)
            root = decide_on_measure(theta, weights, model, Rule.NVB).action
            if root == model.action_hi:
                continue
            interior += 1
            scan, value, _ = minimize_on_grid_then_golden(
                lambda a: expected_risk(a, theta, weights, model), *model.action_interval
            )
            curvature = (model.b + model.h) * float(weights @ (theta * np.exp(-root * theta)))
            estimate = math.sqrt(np.finfo(float).eps * value / curvature)
            assert abs(scan - root) <= min(1e-6, 4.0 * estimate)
        assert interior >= 190

    def test_zero_weights_raise_no_warning(self, base_model):
        theta = np.array([0.5, 0.7, 0.9])
        weights = np.array([0.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = decide_on_measure(theta, weights, base_model, Rule.NVB)
        assert outcome.action == pytest.approx(
            math.log((base_model.b + base_model.h) / base_model.h) / 0.7, rel=1e-14
        )

    def test_one_debug_line_per_decide(self, grid_n50, base_model, data_n50, caplog):
        q, _ = fit_nvb(data_n50, base_model)
        with caplog.at_level(logging.DEBUG):
            nvb = decide_with_variational(q, base_model)
            at_hi = decide_on_measure(
                np.array([1e-3]), np.array([1.0]), base_model, Rule.NVB
            )
            bayes = bayes_decision(grid_n50, base_model)
        lines = [(r.name, r.getMessage()) for r in caplog.records]
        assert lines == [
            (
                "newsvb.decisions",
                f"NVB action {nvb.action:.9g} after {nvb.probe_count} psi evaluations, interior",
            ),
            ("newsvb.decisions", "NVB action 50 after 2 psi evaluations, at a_hi"),
            ("newsvb.oracle", f"BAYES action {bayes.action:.9g} after 549 probes"),
        ]
        assert at_hi.action == base_model.action_hi


def scan_reference(data, model):
    """The global LCVB scan: inner-fit objectives searched by a 33-point grid
    and golden refinement to 1e-4, each fit warm-started from the nearest
    solved action (the first from the plain fit). Returns (action, value)."""
    q_plain = fit_nvb(data, model)[0]
    solved = {}

    def inner(a):
        start = solved[min(solved, key=lambda b: abs(b - a))][0] if solved else q_plain
        solved[a] = fit_lcvb(a, data, model, initial=start)
        return solved[a][1].objective

    def outer(a):
        return [inner(float(x)) for x in a] if np.ndim(a) else inner(a)

    lo, hi = model.action_interval
    action, value, _ = minimize_on_grid_then_golden(outer, lo, hi, 33, 1e-4)
    return action, value


class NaNSlope:
    """The built-in risk with an action slope that is never finite."""

    def __init__(self, model):
        self.builtin = NewsvendorRisk(model.h, model.b)

    def value(self, a, theta):
        return self.builtin.value(a, theta)

    def theta_terms(self, a, theta):
        return self.builtin.theta_terms(a, theta)

    def action_slope(self, a, theta):
        return np.full_like(theta, math.nan)


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
            q_a, _ = fit_lcvb(float(a), data_n50, base_model, settings)
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
        class Hostile:
            def value(self, a, theta):
                return np.full_like(theta, -1.0)

            def theta_terms(self, a, theta):
                return self.value(a, theta), np.zeros_like(theta), np.zeros_like(theta)

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

            def theta_terms(self, a, theta):
                return self.value(a, theta), *self.builtin.theta_terms(a, theta)[1:]

            def action_slope(self, a, theta):
                return self.builtin.action_slope(a, theta)

        outcome = lcvb_decide(data_n50, base_model, grid_n50, risk=Patchy())
        assert outcome.action <= 25.0
        reference = lcvb_decide(data_n50, base_model, grid_n50)
        assert abs(outcome.action - reference.action) < 1e-6

    def test_grid_from_other_data_is_reported_as_a_mismatch(
        self, data_n50, base_model, grid_n2000
    ):
        with pytest.raises(NumericalError, match="does not match"):
            lcvb_decide(data_n50, base_model, grid_n2000)

    def test_grid_only_shifts_the_reported_objective(self, data_n50, base_model, grid_n50):
        # The argmin never reads the grid: a coarser grid changes only the
        # log evidence subtracted from the chosen action's objective.
        coarse_grid = build_posterior(data_n50, base_model, node_count=64)
        coarse = lcvb_decide(data_n50, base_model, coarse_grid)
        fine = lcvb_decide(data_n50, base_model, grid_n50)
        assert coarse.action == fine.action
        assert coarse.probe_count == fine.probe_count
        assert coarse.inner_fit == fine.inner_fit
        shift = grid_n50.log_evidence - coarse_grid.log_evidence
        assert fine.objective_value - coarse.objective_value == pytest.approx(-shift, abs=1e-9)

    @pytest.mark.parametrize("a", [1.0, 4.0, 10.0, 30.0])
    def test_envelope_slope_is_the_derivative_of_the_inner_maximum(
        self, a, data_n50, base_model
    ):
        q, _ = fit_lcvb(a, data_n50, base_model)
        delta = 1e-4
        above = fit_lcvb(a + delta, data_n50, base_model, initial=q)[1].objective
        below = fit_lcvb(a - delta, data_n50, base_model, initial=q)[1].objective
        central = (above - below) / (2 * delta)
        builtin = NewsvendorRisk(base_model.h, base_model.b)
        assert envelope_slope(a, q, builtin) == pytest.approx(central, rel=1e-5)

    def test_local_search_agrees_with_the_global_scan(self, base_model):
        for seed in (40, 41, 42):
            stream = sample_demand(base_model.theta0, 1250, np.random.default_rng(seed))
            for n in (10, 250, 1250):
                data = stream.prefix(n)
                grid = build_posterior(data, base_model)
                for h in (0.001, 0.005, 0.009):
                    model = replace(base_model, h=h)
                    outcome = lcvb_decide(data, model, grid)
                    action, value = scan_reference(data, model)
                    assert abs(outcome.action - action) <= 1e-4, (seed, n, h)
                    assert outcome.inner_fit.objective <= value + 1e-9, (seed, n, h)
                    assert outcome.probe_count <= 12, (seed, n, h)

    def test_non_finite_slope_falls_back_to_the_scan(self, data_n50, base_model, grid_n50):
        outcome = lcvb_decide(data_n50, base_model, grid_n50, risk=NaNSlope(base_model))
        assert outcome.action == scan_reference(data_n50, base_model)[0]
        assert outcome.probe_count >= 33

    def test_debug_line_names_the_fallback_reason(
        self, data_n50, base_model, grid_n50, caplog
    ):
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            lcvb_decide(data_n50, base_model, grid_n50, risk=NaNSlope(base_model))
            lcvb_decide(data_n50, base_model, grid_n50)
        lines = [r.getMessage() for r in caplog.records]
        fallback, local = [line for line in lines if line.startswith("LCVB action")]
        assert "scan fallback: envelope slope is nan" in fallback
        assert local.endswith(", local")


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
                lcvb = lcvb_decide(data, base_model, grid, nvb_start=nvb)
                gaps[Rule.NVB][n].append(optimality_gap(nvb, base_model)[0])
                gaps[Rule.LCVB][n].append(optimality_gap(lcvb, base_model)[0])
        for rule in (Rule.NVB, Rule.LCVB):
            medians = [float(np.median(gaps[rule][n])) for n in sizes]
            for earlier, later in zip(medians, medians[1:]):
                assert later <= earlier * 1.2, f"{rule}: {medians}"
