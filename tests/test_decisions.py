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
import newsvb.decisions as decisions
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


def decide_one(theta, weights, model, rule=Rule.NVB):
    """``decide_on_measure`` for one model: its outcome, or its error raised."""
    (outcome,) = decide_on_measure(theta, weights, [model], rule)
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


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


def assert_first_order(outcome, theta, weights, model):
    """The action solves H's first-order condition, or H's slope points out of
    the interval at the end it sits on; the objective is H at the action."""
    a = outcome.action
    assert type(a) is float
    if a == model.action_lo:  # H rises from a_lo
        assert action_slope_sum(a, theta, weights, model) >= -1e-12
    elif a == model.action_hi:  # H still falls at a_hi
        assert action_slope_sum(a, theta, weights, model) <= 1e-12
    else:
        level = math.log(model.h * weights.sum() / (model.b + model.h))
        assert abs(psi(a, theta, weights) - level) <= 1e-10
    assert outcome.objective_value == expected_risk(a, theta, weights, model)


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
        root = decide_one(grid_n50.nodes, grid_n50.normalized_weights, base_model, Rule.BAYES)
        scan = bayes_decision(grid_n50, base_model)
        assert abs(root.action - scan.action) <= 1e-7
        assert root.objective_value <= scan.objective_value + 1e-15 * abs(scan.objective_value)

    @PROPERTY_SETTINGS
    @given(measure=measures(), **COSTS)
    def test_root_solves_the_first_order_condition(self, measure, h, b, lo, width):
        theta, weights = measure
        model = measure_model(h, b, lo, width)
        assert_first_order(decide_one(theta, weights, model), theta, weights, model)

    @PROPERTY_SETTINGS
    @given(measure=measures(), **COSTS)
    def test_root_agrees_with_the_scan(self, measure, h, b, lo, width):
        theta, weights = measure
        model = measure_model(h, b, lo, width)
        outcome = decide_one(theta, weights, model)
        action, _, _ = minimize_on_grid_then_golden(
            lambda a: expected_risk(a, theta, weights, model), lo, lo + width
        )
        assert abs(outcome.action - action) <= 1e-6

    @PROPERTY_SETTINGS
    @given(measure=measures(), raise_by=st.floats(0.0, 0.5), **COSTS)
    def test_action_is_non_increasing_in_h(self, measure, raise_by, h, b, lo, width):
        theta, weights = measure
        low = decide_one(theta, weights, measure_model(h, b, lo, width))
        high_model = measure_model(h + raise_by, b, lo, width)
        high = decide_one(theta, weights, high_model)
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
            root = decide_one(theta, weights, model).action
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
            outcome = decide_one(theta, weights, base_model)
        assert outcome.action == pytest.approx(
            math.log((base_model.b + base_model.h) / base_model.h) / 0.7, rel=1e-14
        )

    def test_one_debug_line_per_decide(self, grid_n50, base_model, data_n50, caplog):
        q, _ = fit_nvb(data_n50, base_model)
        with caplog.at_level(logging.DEBUG):
            nvb = decide_with_variational(q, base_model)
            at_hi = decide_one(np.array([1e-3]), np.array([1.0]), base_model)
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


class TestDecideAcrossH:
    # Two rates with equal weights on [1, 3] at b = 0.1: h = 0.2 sits at a_lo,
    # 0.005 at a_hi, and 0.09, 0.03 and 0.016 between them.
    THETA, WEIGHTS = np.array([0.5, 1.0]), np.array([0.5, 0.5])

    @staticmethod
    def models(hs, b=0.1, interval=(1.0, 3.0)):
        return [measure_model(h, b, interval[0], interval[1] - interval[0]) for h in hs]

    @PROPERTY_SETTINGS
    @given(
        measure=measures(),
        hs=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=12, unique=True),
        b=COSTS["b"],
        lo=COSTS["lo"],
        width=COSTS["width"],
    )
    def test_every_row_is_its_own_decide(self, measure, hs, b, lo, width):
        theta, weights = measure
        models = [measure_model(h, b, lo, width) for h in hs]
        outcomes = decide_on_measure(theta, weights, models, Rule.NVB)
        assert len(outcomes) == len(models)
        for model, outcome in zip(models, outcomes):
            alone = decide_one(theta, weights, model)
            assert abs(outcome.action - alone.action) <= 1e-12
            assert abs(outcome.objective_value - alone.objective_value) <= 1e-12 * max(
                1.0, abs(alone.objective_value)
            )
            assert outcome.probe_count == alone.probe_count
            assert_first_order(outcome, theta, weights, model)
        by_h = sorted(zip(hs, (outcome.action for outcome in outcomes)))
        # Equal roots may differ by the Newton stop, 1e-15 * (1 + a).
        assert all(high <= low + 1e-13 for (_, low), (_, high) in zip(by_h, by_h[1:]))

    def test_rows_at_both_ends_and_inside_in_one_call(self, caplog):
        models = self.models((0.2, 0.03, 0.005))
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            low, inside, high = decide_on_measure(self.THETA, self.WEIGHTS, models, Rule.NVB)
        assert (low.action, low.probe_count) == (1.0, 1)
        assert (high.action, high.probe_count) == (3.0, 2)
        assert 1.0 < inside.action < 3.0 and inside.probe_count > 2
        assert [r.getMessage() for r in caplog.records] == [
            "NVB action 1 after 1 psi evaluations, at a_lo",
            f"NVB action {inside.action:.9g} after {inside.probe_count} psi evaluations, interior",
            "NVB action 3 after 2 psi evaluations, at a_hi",
        ]
        for model, outcome in zip(models, (low, inside, high)):
            assert outcome == decide_one(self.THETA, self.WEIGHTS, model)
            assert_first_order(outcome, self.THETA, self.WEIGHTS, model)

    def test_a_row_past_the_step_cap_fails_alone(self, monkeypatch):
        models = self.models((0.2, 0.09, 0.03, 0.005))
        outcomes = decide_on_measure(self.THETA, self.WEIGHTS, models, Rule.NVB)
        counts = [outcome.probe_count for outcome in outcomes]
        # Rows 1 and 2 are interior: two psi evaluations at the ends, then one
        # per Newton step, and one more loop pass to see the step stop.
        assert counts[0] == 1 and counts[3] == 2 and 2 < counts[1] < counts[2]
        monkeypatch.setattr(decisions, "NVB_MAX_NEWTON_STEPS", counts[1] - 1)
        outcomes = decide_on_measure(self.THETA, self.WEIGHTS, models, Rule.NVB)
        assert isinstance(outcomes[2], NumericalError)
        assert "not reached" in str(outcomes[2])
        for row in (0, 1, 3):
            assert outcomes[row] == decide_one(self.THETA, self.WEIGHTS, models[row])
        with pytest.raises(NumericalError, match="not reached"):
            decide_one(self.THETA, self.WEIGHTS, models[2])

    @pytest.mark.parametrize(
        "other",
        [
            dict(b=0.2),
            dict(interval=(1.0, 4.0)),
            dict(interval=(0.5, 3.0)),
        ],
        ids=["b", "a_hi", "a_lo"],
    )
    def test_models_that_differ_beyond_h_are_rejected(self, other):
        models = self.models((0.03,)) + self.models((0.01,), **other)
        with pytest.raises(ValueError, match="only in h"):
            decide_on_measure(self.THETA, self.WEIGHTS, models, Rule.NVB)


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


    def test_float_gaps_match_the_validated_risk(self):
        # The reference: the same gaps through the validated numpy ``risk``.
        rng = np.random.default_rng(35)
        for _ in range(300):
            theta0 = float(rng.uniform(0.05, 5.0))
            h, b = float(rng.uniform(1e-3, 0.5)), float(rng.uniform(0.01, 1.0))
            model = NewsvendorModel(h=h, b=b, theta0=theta0, alpha=1.0, beta=1.0,
                                    action_interval=(0.0, 200.0))
            a_star = true_optimal_action(model)
            a = float(rng.uniform(0.0, 200.0))
            gap_action, gap_regret = optimality_gap(
                DecisionOutcome(action=a, objective_value=0.0, rule=Rule.NVB), model
            )
            cost, best = risk(a, theta0, model), risk(a_star, theta0, model)
            assert gap_action == abs(a - a_star)
            # Rounding in either cost, ~45 eps of the larger one.
            assert abs(gap_regret - max(cost - best, 0.0)) <= 1e-14 * max(1.0, cost, best)

    def test_an_overflowing_cost_gives_an_infinite_regret(self):
        # b/theta0 past the float range: the tail at a = 0 is inf, as with numpy.
        model = NewsvendorModel(h=1.0, b=1e10, theta0=1e-300, alpha=1.0, beta=1.0,
                                action_interval=(0.0, 1e308))
        outcome = DecisionOutcome(action=0.0, objective_value=0.0, rule=Rule.NVB)
        assert optimality_gap(outcome, model) == (true_optimal_action(model), math.inf)

    def test_negative_action_raises(self, base_model):
        outcome = DecisionOutcome(action=-1.0, objective_value=0.0, rule=Rule.NVB)
        with pytest.raises(ValueError, match="nonnegative"):
            optimality_gap(outcome, base_model)


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
