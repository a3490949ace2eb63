"""Decision rules: two-stage NVB, saddle-point LCVB, gap metrics, invariances."""

import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from newsvb import (
    DecisionOutcome,
    LogNormalVariational,
    NewsvendorModel,
    NewsvendorRisk,
    Observations,
    Rule,
    bayes_decision,
    build_posterior,
    fit_nvb,
    lcvb_decide,
    nvb_decide,
    optimality_gap,
    sample_demand,
    true_optimal_action,
)
import newsvb.decisions as decisions
import newsvb.vb as vb
from newsvb.decisions import (
    _gauss_hermite_measure,
    decide_across_h,
    decide_on_measure,
    decide_with_variational,
)
from newsvb.experiment import reference_config, simulate_path
from newsvb.model import _positive_measure, expected_risk
from newsvb.numerics import NumericalError, minimize_on_grid_then_golden
from newsvb.vb import _lcvb_objective, calibrated_objective, fit_lcvb
from reference import ConstantRisk, risk


class TestExpectedRiskUnderQ:
    def test_zero_action_lognormal_moment(self, base_model):
        q = LogNormalVariational(-0.4, 0.3)
        expected = base_model.b * math.exp(0.4 + 0.045)
        value = expected_risk(0.0, *_gauss_hermite_measure(q), base_model)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_degenerate_member_recovers_risk(self, base_model):
        measure = _gauss_hermite_measure(LogNormalVariational(math.log(base_model.theta0), 1e-6))
        for a in (0.5, 4.0, 12.0):
            assert abs(
                expected_risk(a, *measure, base_model) - risk(a, base_model.theta0, base_model)
            ) < 1e-6

    def test_monte_carlo_oracle(self, base_model):
        q = LogNormalVariational(-0.35, 0.25)
        rng = np.random.default_rng(30)
        thetas = np.exp(q.mu + q.sigma * rng.standard_normal(10_000_000))
        for a in (1.0, 5.0):
            samples = risk(a, thetas, base_model)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            value = expected_risk(a, *_gauss_hermite_measure(q), base_model)
            assert abs(value - samples.mean()) <= 3 * se

    def test_action_array_matches_scalar_calls(self, base_model):
        measure = _gauss_hermite_measure(LogNormalVariational(-0.35, 0.25))
        actions = np.linspace(0.0, 50.0, 101)
        values = expected_risk(actions, *measure, base_model)
        assert values.shape == actions.shape
        for a, value in zip(actions, values):
            assert value == expected_risk(float(a), *measure, base_model)

    def test_rejects_action_outside_interval(self, base_model):
        measure = _gauss_hermite_measure(LogNormalVariational(0.0, 0.5))
        with pytest.raises(ValueError):
            expected_risk(-1.0, *measure, base_model)
        with pytest.raises(ValueError):
            expected_risk(51.0, *measure, base_model)


class TestNvbDecide:
    def test_matches_brute_force_grid(self, data_n50, base_model):
        outcome = nvb_decide(data_n50, base_model)
        q, _ = fit_nvb(data_n50, base_model)
        actions = np.linspace(0.0, 50.0, 100_001)
        measure = _gauss_hermite_measure(q)
        values = [expected_risk(float(a), *measure, base_model) for a in actions]
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
        measure = _gauss_hermite_measure(q)
        assert outcome.objective_value == expected_risk(outcome.action, *measure, base_model)


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


def decide_one(theta, weights, model):
    """NVB's ``decide_on_measure`` for one model: its outcome, or its error raised."""
    (outcome,) = decide_on_measure(_positive_measure(theta, weights), [model], Rule.NVB)
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
    """H'(a) = sum_i weights[i] * dG/da(a, theta[i]), with dG/da = h - (b+h)*exp(-a*theta)."""
    return float(weights @ (model.h - (model.b + model.h) * np.exp(-a * theta)))


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
# Two rates with equal weights on [1, 3] at b = 0.1: the root sits at a_hi for
# h = 0.005 and at a_lo for h = 0.2 (``TestDecideAcrossH``'s measure).
END_MEASURE = (np.array([0.5, 1.0]), np.array([0.5, 0.5]))
AT_A_HI = dict(measure=END_MEASURE, h=0.005, b=0.1, lo=1.0, width=2.0)
COSTS = dict(
    h=st.floats(1e-3, 0.5),
    b=st.floats(0.01, 1.0),
    lo=st.floats(0.0, 5.0),
    width=st.floats(0.5, 50.0),
)


class TestExpectedRisk:
    @PROPERTY_SETTINGS
    @given(measure=measures(), **COSTS)
    @example(**AT_A_HI)
    def test_matches_the_node_by_node_sum_at_the_scan_actions(self, measure, h, b, lo, width):
        # sum_i w_i * G(a, theta_i) with G = h*a - h/theta + (b+h)*exp(-a*theta)/theta,
        # each term rounded once and the terms summed exactly: expected_risk
        # regroups them, so it may differ by a few ulps of the terms' magnitude.
        theta, weights = measure
        model = measure_model(h, b, lo, width)
        actions = np.linspace(lo, lo + width, 512)  # the Bayes scan's points
        values = expected_risk(actions, theta, weights, model)
        for a, value in zip(actions, values):
            terms = [
                term
                for t, w in zip(theta, weights)
                for term in (w * (h * a), -w * (h / t), w * ((b + h) * math.exp(-a * t) / t))
            ]
            reference = math.fsum(terms)
            assert abs(value - reference) <= 8 * np.finfo(float).eps * math.fsum(map(abs, terms))

    # _positive_measure keeps the nodes of positive weight: a NaN or
    # negative weight used to drop out of the sum unseen.
    @pytest.mark.parametrize("bad", [math.nan, -0.25], ids=["nan", "negative"])
    def test_a_bad_weight_is_a_value_error(self, base_model, bad):
        theta, weights = np.array([0.5, 0.7, 0.9]), np.array([0.5, bad, 0.5])
        with pytest.raises(ValueError, match="weights must be nonnegative, not NaN"):
            expected_risk(3.0, theta, weights, base_model)


class TestDecideOnMeasure:
    # A NaN or negative weight used to drop out unseen, no positive weight
    # raised "math domain error" from the level's log, and no model an
    # IndexError.
    @pytest.mark.parametrize(
        "weights,hs,message",
        [
            ([0.5, math.nan, 0.5], (0.03,), "weights must be nonnegative, not NaN"),
            ([0.5, -0.25, 0.75], (0.03,), "weights must be nonnegative, not NaN"),
            ([0.0, 0.0, 0.0], (0.03,), "no node of positive weight"),
            ([0.5, 0.25, 0.25], (), "at least one model"),
        ],
        ids=["nan", "negative", "no-positive-weight", "no-model"],
    )
    def test_a_bad_measure_or_no_model_is_a_value_error(self, weights, hs, message):
        models = [measure_model(h, 0.1, 0.0, 50.0) for h in hs]
        with pytest.raises(ValueError, match=message):
            measure = _positive_measure(np.array([0.5, 0.7, 0.9]), np.array(weights))
            decide_on_measure(measure, models, Rule.NVB)

    def test_posterior_grid_measure_is_the_bayes_rule(self, grid_n50, base_model):
        # Two independent searches of the same posterior expected risk: the
        # oracle's first-order root and a derivative-free scan with golden
        # refinement, which misses a minimizer by at most 1e-6.
        root = bayes_decision(grid_n50, base_model)
        scan, value, _ = minimize_on_grid_then_golden(
            lambda a: expected_risk(a, grid_n50.nodes, grid_n50.normalized_weights, base_model),
            *base_model.action_interval,
            512,
            1e-8,
        )
        assert abs(root.action - scan) <= 1e-6
        assert root.objective_value <= value + 1e-15 * abs(value)

    @PROPERTY_SETTINGS
    @given(measure=measures(), **COSTS)
    @example(**AT_A_HI)
    @example(**{**AT_A_HI, "h": 0.2})  # at a_lo
    def test_root_solves_the_first_order_condition(self, measure, h, b, lo, width):
        theta, weights = measure
        model = measure_model(h, b, lo, width)
        assert_first_order(decide_one(theta, weights, model), theta, weights, model)

    @PROPERTY_SETTINGS
    @given(measure=measures(), **COSTS)
    @example(**AT_A_HI)
    @example(**{**AT_A_HI, "h": 0.2})  # at a_lo
    def test_root_agrees_with_the_scan(self, measure, h, b, lo, width):
        theta, weights = measure
        model = measure_model(h, b, lo, width)
        outcome = decide_one(theta, weights, model)
        action, _, _ = minimize_on_grid_then_golden(
            lambda a: expected_risk(a, theta, weights, model), lo, lo + width, 512, 1e-8
        )
        assert abs(outcome.action - action) <= 1e-6

    @PROPERTY_SETTINGS
    @given(measure=measures(), **COSTS)
    @example(**AT_A_HI)  # the start past a_hi
    @example(**{**AT_A_HI, "h": 0.2})  # the start below a_lo, the root at a_lo
    @example(**{**AT_A_HI, "h": 0.014})  # the start inside, the root past a_hi
    def test_newton_starts_at_jensens_plug_in_action(self, measure, h, b, lo, width):
        # psi(a) >= log W - a*m for the mean rate m, so psi(s) >= c_h at
        # s = log((b+h)/h)/m, which is at or left of the root: the iterates
        # rise from s, and an s past a_hi decides its row without psi.
        theta, weights = measure
        model = measure_model(h, b, lo, width)
        outcome = decide_one(theta, weights, model)
        keep = weights > 0
        total = weights.sum()
        start = math.log((b + h) / h) / float(np.add.reduce(weights[keep] * theta[keep]) / total)
        if start >= model.action_hi:
            assert (outcome.action, outcome.probe_count) == (model.action_hi, 0)
        elif start > model.action_lo:
            level = math.log(h * total / (b + h))
            # Rounding of psi's largest exponent, log(w) - start*theta.
            scale = 1.0 + abs(level) + start * float(theta[keep].max())
            assert psi(start, theta, weights) >= level - 16 * np.finfo(float).eps * scale
            assert outcome.action >= start and outcome.probe_count >= 2

    @PROPERTY_SETTINGS
    @given(measure=measures(), raise_by=st.floats(0.0, 0.5), **COSTS)
    @example(**AT_A_HI, raise_by=0.195)  # from a_hi to a_lo
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
                lambda a: expected_risk(a, theta, weights, model),
                *model.action_interval,
                512,
                1e-8,
            )
            curvature = (model.b + model.h) * float(weights @ (theta * np.exp(-root * theta)))
            estimate = math.sqrt(np.finfo(float).eps * value / curvature)
            assert abs(scan - root) <= min(1e-6, 4.0 * estimate)
        assert interior >= 190

    @PROPERTY_SETTINGS
    @given(
        measure=measures(),
        inserted=st.lists(st.tuples(st.integers(0, 40), st.floats(1e-3, 1e3)), max_size=8),
        hs=st.lists(
            st.one_of(st.floats(1e-3, 0.5), st.just(1e-300)), min_size=1, max_size=9, unique=True
        ),
        b=COSTS["b"],
        lo=COSTS["lo"],
        width=st.floats(0.5, 2000.0),
    )
    # A row at each end, one inside and one below the level floor.
    @example(
        measure=END_MEASURE, inserted=[(0, 7.0), (1, 1e-3), (2, 900.0)],
        hs=[0.2, 0.03, 0.014, 1e-300], b=0.1, lo=0.0, width=2000.0,
    )
    def test_zero_weight_nodes_change_no_row(self, measure, inserted, hs, b, lo, width):
        # The measure drops nodes of zero weight before any sum, so its sums,
        # and with them every row, keep their bits wherever such nodes sit.
        theta, weights = measure
        models = [measure_model(h, b, lo, width) for h in hs]
        padded_theta, padded_weights = list(theta), list(weights)
        for at, rate in inserted:
            padded_theta.insert(at, rate)
            padded_weights.insert(at, 0.0)

        def bits(outcomes):
            return [
                str(outcome) if isinstance(outcome, NumericalError) else
                (outcome.action.hex(), outcome.objective_value.hex(), outcome.probe_count)
                for outcome in outcomes
            ]

        padded = _positive_measure(np.array(padded_theta), np.array(padded_weights))
        assert bits(decide_on_measure(padded, models, Rule.NVB)) == bits(
            decide_on_measure(_positive_measure(theta, weights), models, Rule.NVB)
        )

    def test_zero_weights_raise_no_warning(self, base_model):
        # The second zero-weight node's G overflows (exp(-log theta) and
        # h/theta past the range), which 0 * inf would turn into nan.
        cases = [
            ([0.5, 0.7, 0.9], [0.0, 1.0, 0.0], base_model),
            ([1e-310, 1.0], [0.0, 1.0], measure_model(0.5, 1.0, 0.0, 50.0)),
        ]
        for theta, weights, model in cases:
            theta, weights = np.array(theta), np.array(weights)
            rate = float(theta[weights > 0][0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outcome = decide_one(theta, weights, model)
                at_lo = expected_risk(model.action_lo, theta, weights, model)
            assert outcome.action == pytest.approx(
                math.log((model.b + model.h) / model.h) / rate, rel=1e-14
            )
            assert outcome.objective_value == pytest.approx(
                risk(outcome.action, rate, model), rel=1e-14
            )
            assert at_lo == pytest.approx(risk(model.action_lo, rate, model), rel=1e-14)

    def test_a_psi_that_underflows_at_a_hi_raises_no_warning(self, base_model):
        # The n = 1 grid of one demand 0.01 reaches theta ~ 3.1e9, whose
        # exponentials underflow in every pass. On rates 20 and 30 psi(a_hi)
        # itself underflows: its sum is 0 and psi reads -inf.
        data = Observations([0.01])
        theta, weights = np.array([20.0, 30.0]), np.array([0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bayes = bayes_decision(build_posterior(data, base_model), base_model)
            nvb = nvb_decide(data, base_model)
            assert float(weights @ np.exp(-base_model.action_hi * theta)) == 0.0
            underflow = decide_one(theta, weights, base_model)
        for outcome in (bayes, nvb, underflow):
            assert base_model.action_lo < outcome.action < base_model.action_hi
        assert_first_order(underflow, theta, weights, base_model)

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
            # Jensen's plug-in action log((b+h)/h)/1e-3 is past a_hi: no psi evaluation.
            ("newsvb.decisions", "NVB action 50 after 0 psi evaluations, at a_hi"),
            (
                "newsvb.oracle",
                f"BAYES action {bayes.action:.9g} after 5 psi evaluations and 512 scan probes, "
                "interior",
            ),
        ]
        assert at_hi.action == base_model.action_hi
        assert bayes.probe_count == 5 + 512


class TestDecideAcrossH:
    # On [1, 3] at b = 0.1, h = 0.09, 0.03 and 0.016 sit between the ends. The
    # mean rate is 0.75, so Jensen's plug-in action log((b+h)/h)/0.75 is
    # below a_lo for h >= 0.09, past a_hi for h = 0.005, and inside for
    # h = 0.03, 0.016 and 0.014, whose root is past a_hi.
    THETA, WEIGHTS = END_MEASURE
    MEASURE = _positive_measure(THETA, WEIGHTS)

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
    # Both ends, a_hi both by the plug-in action (h = 0.005) and by psi (h = 0.014).
    @example(measure=END_MEASURE, hs=[0.2, 0.03, 0.014, 0.005], b=0.1, lo=1.0, width=2.0)
    def test_every_row_is_its_own_decide(self, measure, hs, b, lo, width):
        theta, weights = measure
        models = [measure_model(h, b, lo, width) for h in hs]
        outcomes = decide_on_measure(_positive_measure(theta, weights), models, Rule.NVB)
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
        models = self.models((0.2, 0.03, 0.014, 0.005))
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            outcomes = decide_on_measure(self.MEASURE, models, Rule.NVB)
        low, inside, high, past = outcomes
        assert (low.action, low.probe_count) == (1.0, 1)
        assert (inside.action, inside.probe_count) == (pytest.approx(2.13697685), 5)
        assert (high.action, high.probe_count) == (3.0, 2)  # psi at its start and at a_hi
        assert (past.action, past.probe_count) == (3.0, 0)  # its start is past a_hi
        assert [r.getMessage() for r in caplog.records] == [
            "NVB action 1 after 1 psi evaluations, at a_lo",
            f"NVB action {inside.action:.9g} after 5 psi evaluations, interior",
            "NVB action 3 after 2 psi evaluations, at a_hi",
            "NVB action 3 after 0 psi evaluations, at a_hi",
        ]
        for model, outcome in zip(models, outcomes):
            assert outcome == decide_one(self.THETA, self.WEIGHTS, model)
            assert_first_order(outcome, self.THETA, self.WEIGHTS, model)

    def test_a_row_past_the_step_cap_fails_alone(self, monkeypatch):
        models = self.models((0.2, 0.03, 0.016, 0.005))
        outcomes = decide_on_measure(self.MEASURE, models, Rule.NVB)
        counts = [outcome.probe_count for outcome in outcomes]
        # Rows 1 and 2 are interior: two psi evaluations, at the start and at
        # a_hi, then one per Newton step, and one more loop pass to see the
        # step stop.
        assert counts == [1, 5, 6, 0]
        monkeypatch.setattr(decisions, "NVB_MAX_NEWTON_STEPS", counts[1] - 1)
        outcomes = decide_on_measure(self.MEASURE, models, Rule.NVB)
        assert isinstance(outcomes[2], NumericalError)
        assert "not reached" in str(outcomes[2])
        for row in (0, 1, 3):
            assert outcomes[row] == decide_one(self.THETA, self.WEIGHTS, models[row])
        with pytest.raises(NumericalError, match="not reached"):
            decide_one(self.THETA, self.WEIGHTS, models[2])

    def test_a_row_below_the_level_floor_fails_alone(self):
        # On [0, 2000] Jensen's plug-in action for h = 1e-300 is about 917,
        # inside the interval, and its level log(h*W/(b+h)) = log(1e-299) is
        # below log(float min/eps): psi's sums could leave the normal floats.
        models = self.models((0.2, 0.03, 0.005), interval=(0.0, 2000.0))
        clean = decide_on_measure(self.MEASURE, models, Rule.NVB)
        assert not any(isinstance(outcome, NumericalError) for outcome in clean)
        (tiny,) = self.models((1e-300,), interval=(0.0, 2000.0))
        outcomes = decide_on_measure(self.MEASURE, [models[0], tiny, *models[1:]], Rule.NVB)
        assert isinstance(outcomes[1], NumericalError)
        assert str(outcomes[1]) == (
            f"NVB psi's level log(h*W/(b+h)) = {math.log(1e-299):.6g} is below "
            "log(float min/eps) = -672.353 at h=1e-300"
        )
        assert [outcomes[0], *outcomes[2:]] == clean
        with pytest.raises(NumericalError, match="is below log"):
            decide_one(self.THETA, self.WEIGHTS, tiny)
        # On [1, 3] the same row starts past a_hi, where it needs no psi.
        (past,) = decide_on_measure(self.MEASURE, self.models((1e-300,)), Rule.NVB)
        assert (past.action, past.probe_count) == (3.0, 0)

    @PROPERTY_SETTINGS
    @given(
        measure=measures(),
        hs=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=12, unique=True),
        b=COSTS["b"],
        lo=COSTS["lo"],
        width=COSTS["width"],
    )
    @example(measure=END_MEASURE, hs=[0.2, 0.03, 0.014, 0.005], b=0.1, lo=1.0, width=2.0)
    def test_a_row_keeps_its_bits_in_any_batch(self, measure, hs, b, lo, width):
        # A row's exponentials and row sums do not depend on the rows it
        # shares a pass with, so neither do its iterates and its objective.
        theta, weights = measure
        models = [measure_model(h, b, lo, width) for h in hs]
        outcomes = decide_on_measure(_positive_measure(theta, weights), models, Rule.NVB)
        for model, outcome in zip(models, outcomes):
            alone = decide_one(theta, weights, model)
            assert (outcome.action, outcome.objective_value, outcome.probe_count) == (
                alone.action, alone.objective_value, alone.probe_count
            )

    # The plain fit of one demand 1e-300 under IG(1, 4.1) is mu ~ 346, sigma ~
    # 26, whose top node exp(mu + 14.9*sigma) is past the float range; at
    # mu ~ -346 the bottom nodes are rates of 0.
    @pytest.mark.parametrize("mu", [346.0, -346.0], ids=["overflow", "underflow"])
    def test_q_with_a_rate_past_the_float_range_is_a_numerical_error(self, mu):
        q = LogNormalVariational(mu, 26.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"float range at mu={mu:g}, sigma=26$"):
                decide_across_h(q, self.models((0.03, 0.005)))

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
            decide_on_measure(self.MEASURE, models, Rule.NVB)


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

    lo, hi = model.action_interval
    action, value, _ = minimize_on_grid_then_golden(inner, lo, hi, 33, 1e-4)
    return action, value


class NaNSlope:
    """The built-in risk with an action slope dG/da that is never finite."""

    def __init__(self, model):
        self.builtin = NewsvendorRisk(model.h, model.b)

    def value(self, a, theta):
        return self.builtin.value(a, theta)

    def log_terms(self, a, u):
        terms = self.builtin.log_terms(a, u)
        terms[3:] = math.nan  # l_a, and with it l_au and l_aa
        return terms


class ConcaveInAction:
    """G(a, theta) = 1 + a for every rate: V(a) = log(1 + a) + const, so the
    envelope curvature V'' = -1/(1 + a)^2 is negative everywhere."""

    def value(self, a, theta):
        return np.full(np.shape(theta), 1.0 + a)

    def log_terms(self, a, u):
        terms = np.zeros((6, len(u)))
        terms[0], terms[3], terms[5] = math.log1p(a), 1.0 / (1.0 + a), -1.0 / (1.0 + a) ** 2
        return terms


def envelope(a, q, data, model):
    """F_a, the tangent s and V'' from the kernel pass at (a, q)."""
    objective = _lcvb_objective(a, data, model, NewsvendorRisk(model.h, model.b))
    return objective((q.mu, math.log(q.sigma)))[4:]


def recorded_passes(monkeypatch) -> list[float]:
    """The action of each kernel pass that ``lcvb_decide`` makes itself."""
    passes = []

    def recorded(a, *args):
        passes.append(a)
        return objective(a, *args)

    objective = decisions._lcvb_objective
    monkeypatch.setattr(decisions, "_lcvb_objective", recorded)
    return passes


def lcvb_line(caplog) -> str:
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("LCVB")]
    return line


class TestLcvbDecide:
    def test_constant_risk_returns_lower_endpoint(self, data_n50, base_model):
        outcome = lcvb_decide(data_n50, base_model, risk=ConstantRisk(1.5))
        assert outcome.rule is Rule.LCVB
        assert outcome.action == base_model.action_lo

    def test_large_sample_recovers_optimum(self):
        model = NewsvendorModel(h=0.005, b=0.1, theta0=0.68, alpha=1.0, beta=4.1)
        data = sample_demand(model.theta0, 100_000, np.random.default_rng(32))
        outcome = lcvb_decide(data, model)
        assert abs(outcome.action - true_optimal_action(model)) < 0.05

    def test_returned_value_beats_independent_probes(self, data_n50, base_model):
        # Both sides are ELBO + E_q[log G], the inner maximum without evidence.
        outcome = lcvb_decide(data_n50, base_model)
        for a in np.linspace(0.0, 50.0, 33):
            value = fit_lcvb(float(a), data_n50, base_model)[1].objective
            assert outcome.objective_value <= value + 1e-6

    def test_argmin_invariant_under_risk_scaling(self, data_n50, base_model):
        # G is linear in (h, b), so scaling both costs scales G by ``scale``.
        scale = 5.0
        scaled = replace(base_model, h=scale * base_model.h, b=scale * base_model.b)
        plain = lcvb_decide(data_n50, base_model)
        rescaled = lcvb_decide(data_n50, scaled)
        assert abs(plain.action - rescaled.action) < 1e-6
        # inner values shift by the additive constant log(scale)
        assert rescaled.objective_value - plain.objective_value == pytest.approx(
            math.log(scale), abs=1e-6
        )

    def test_every_probe_failing_is_a_hard_error(self, data_n50, base_model):
        class Hostile:
            def value(self, a, theta):
                return np.full_like(theta, -1.0)

            def log_terms(self, a, u):
                terms = np.zeros((6, len(u)))
                terms[0] = math.nan  # log G of a negative G
                return terms

        with pytest.raises(NumericalError):
            lcvb_decide(data_n50, base_model, risk=Hostile())

    def test_partial_probe_failures_are_excluded(self, data_n50, base_model):
        # Probes beyond a=25 violate positivity and must be skipped, not fatal.
        class Patchy:
            builtin = NewsvendorRisk(base_model.h, base_model.b)

            def value(self, a, theta):
                if a > 25.0:
                    return np.full_like(theta, -1.0)
                return self.builtin.value(a, theta)

            def log_terms(self, a, u):
                terms = self.builtin.log_terms(a, u)
                if a > 25.0:
                    terms[0] = math.nan  # log G of a negative G
                return terms

        outcome = lcvb_decide(data_n50, base_model, risk=Patchy())
        assert outcome.action <= 25.0
        reference = lcvb_decide(data_n50, base_model)
        assert abs(outcome.action - reference.action) < 1e-6

    def test_the_scan_ranks_only_converged_fits(self, data_n50, base_model, monkeypatch):
        fit = decisions.fit_lcvb

        def unconverged_below_10(a, *args, **kwargs):
            q, diagnostics = fit(a, *args, **kwargs)
            return q, replace(diagnostics, converged=diagnostics.converged and a >= 10.0)

        risk = NewsvendorRisk(base_model.h, base_model.b)
        start = nvb_decide(data_n50, base_model).q
        assert decisions._lcvb_scan(data_n50, base_model, risk, start)[0] < 10.0 - 50.0 / 32
        monkeypatch.setattr(decisions, "fit_lcvb", unconverged_below_10)
        action, (_, diagnostics), _, _ = decisions._lcvb_scan(data_n50, base_model, risk, start)
        assert action >= 10.0 and diagnostics.converged

    def test_one_huge_demand_has_no_converged_fit(self, base_model, caplog):
        # One demand of 1e50: S*E_q[theta] ~ 2e25, so one ulp of mu moves the
        # bound's mu-gradient by ~1e11, far above TOLERANCE. Neither the
        # saddle solve nor any scan fit converges: a NumericalError, and no
        # fit warning, where ranking the unconverged fits decided a = 0.
        with caplog.at_level(logging.WARNING):
            with pytest.raises(NumericalError, match="no outer action probe's inner fit converged"):
                lcvb_decide(Observations([1e50]), base_model)
        assert caplog.records == []

    def test_grid_from_other_data_is_reported_as_a_mismatch(
        self, data_n50, base_model, grid_n50, grid_n2000
    ):
        # The check lives where the grid is used: the F reported for the
        # decided action, as ``newsvb decide --rule lcvb`` prints it.
        outcome = lcvb_decide(data_n50, base_model)
        report = calibrated_objective(outcome.action, outcome.q, data_n50, base_model, grid_n50)
        assert report.value == pytest.approx(
            outcome.objective_value - grid_n50.log_evidence, abs=1e-9
        )
        with pytest.raises(NumericalError, match="does not match"):
            calibrated_objective(outcome.action, outcome.q, data_n50, base_model, grid_n2000)

    def test_grid_never_enters_lcvb_decide(
        self, data_n50, base_model, grid_n50, grid_n2000, monkeypatch
    ):
        # Passed or not, from this dataset or another, the grid changes
        # nothing, and the decide evaluates no evidence.
        def unused(*args, **kwargs):
            raise AssertionError("lcvb_decide used the posterior grid")

        monkeypatch.setattr(decisions, "calibrated_objective", unused)
        monkeypatch.setattr(vb, "posterior_kl", unused)
        alone = lcvb_decide(data_n50, base_model)
        for grid in (grid_n50, grid_n2000):
            assert lcvb_decide(data_n50, base_model, grid) == alone
        assert alone.objective_value == alone.inner_fit.objective

    # n = 1 draws at rate 0.68 under IG(1, 4.1) and b = 0.1 where F at the
    # saddle solve's (mu, rho) and at (q.mu, log q.sigma) differ in the last
    # bit: seed 10, and seed 43 from a damped-ascent NVB start.
    @pytest.mark.parametrize("seed, h", [(43, 0.009), (10, 0.02)])
    def test_objective_value_is_f_at_the_returned_member(self, seed, h):
        model = NewsvendorModel(h=h, b=0.1, theta0=None, alpha=1.0, beta=4.1)
        data = sample_demand(0.68, 1, np.random.default_rng(seed))
        outcome = lcvb_decide(data, model)
        kernel = _lcvb_objective(outcome.action, data, model, NewsvendorRisk(h, 0.1))
        q = outcome.q
        assert outcome.objective_value == kernel((q.mu, math.log(q.sigma)))[0]

    @pytest.mark.parametrize("a", [1.0, 4.0, 10.0, 30.0])
    def test_envelope_slope_is_the_derivative_of_the_inner_maximum(
        self, a, data_n50, base_model
    ):
        q, _ = fit_lcvb(a, data_n50, base_model)
        slope, _, _ = envelope(a, q, data_n50, base_model)
        delta = 1e-4
        above = fit_lcvb(a + delta, data_n50, base_model, initial=q)[1].objective
        below = fit_lcvb(a - delta, data_n50, base_model, initial=q)[1].objective
        central = (above - below) / (2 * delta)
        assert slope == pytest.approx(central, rel=1e-5)

    @pytest.mark.parametrize("a", [1.0, 4.0, 10.0, 30.0])
    def test_tangent_is_the_derivative_of_the_inner_maximizer(self, a, data_n50, base_model):
        q, _ = fit_lcvb(a, data_n50, base_model)
        _, tangent, _ = envelope(a, q, data_n50, base_model)
        delta = 1e-4
        above = fit_lcvb(a + delta, data_n50, base_model, initial=q)[0]
        below = fit_lcvb(a - delta, data_n50, base_model, initial=q)[0]
        central = (
            (above.mu - below.mu) / (2 * delta),
            (math.log(above.sigma) - math.log(below.sigma)) / (2 * delta),
        )
        assert tangent == pytest.approx(central, rel=1e-5)

    @pytest.mark.parametrize("a", [1.0, 4.0, 10.0, 30.0])
    def test_envelope_curvature_is_the_derivative_of_the_envelope_slope(
        self, a, data_n50, base_model
    ):
        q, _ = fit_lcvb(a, data_n50, base_model)
        _, _, curvature = envelope(a, q, data_n50, base_model)
        delta = 1e-4
        slopes = [
            envelope(b, fit_lcvb(b, data_n50, base_model, initial=q)[0], data_n50, base_model)[0]
            for b in (a + delta, a - delta)
        ]
        central = (slopes[0] - slopes[1]) / (2 * delta)
        assert curvature == pytest.approx(central, rel=1e-5)

    @pytest.mark.parametrize(
        "end, interval_in_roots",
        [("upper", (0.0, 0.5)), ("lower", (1.2, 2.0)), ("lower", (2.0, 3.0))],
        ids=["upper", "lower", "lower-past-convexity"],
    )
    def test_a_root_beyond_the_interval_ends_at_the_near_end(
        self, end, interval_in_roots, data_n50, base_model, caplog
    ):
        # An end answers once F_a points strictly out of the interval, whatever
        # the sign of V'': V is convex near its root only (V'' < 0 past ~1.6
        # roots on this dataset), as on the interval of (2, 3) roots.
        root = lcvb_decide(data_n50, base_model).action
        interval = tuple(factor * root for factor in interval_in_roots)
        model = replace(base_model, theta0=None, action_interval=interval)
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            outcome = lcvb_decide(data_n50, model)
        fit = outcome.inner_fit
        if end == "upper":  # V still falls at the upper end: F_a points out of it
            assert lcvb_line(caplog).endswith("kernel passes), at a_hi")
            assert outcome.action == interval[1] and fit.envelope_slope < 0
        else:
            assert lcvb_line(caplog).endswith("kernel passes), at a_lo")
            assert outcome.action == interval[0] and fit.envelope_slope > 0
        assert (fit.envelope_curvature > 0) == (interval_in_roots != (2.0, 3.0))
        assert outcome.probe_count <= 3 and fit.evaluations <= 6
        assert abs(outcome.action - scan_reference(data_n50, model)[0]) <= 1e-4

    def test_an_end_with_an_inward_slope_resumes_newton_there(
        self, data_n50, base_model, monkeypatch, caplog
    ):
        # The NVB action lies below the LCVB root on this dataset, so an
        # interval starting between them puts the naive start at a_lo, where
        # F_a points into the interval: once q reaches its inner maximum with
        # a held at the end, the end does not answer, and Newton resumes from
        # it to the interior root.
        root = lcvb_decide(data_n50, base_model).action
        naive = nvb_decide(data_n50, base_model).action
        interval = (0.5 * (naive + root), 2.0 * root)
        model = replace(base_model, theta0=None, action_interval=interval)
        passes = recorded_passes(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            outcome = lcvb_decide(data_n50, model)
        assert naive < interval[0] < root
        assert lcvb_line(caplog).endswith(", local")
        held = passes.count(interval[0])  # q's steps from the first, then Newton's
        assert held >= 2 and passes[:held] == [interval[0]] * held
        assert outcome.probe_count == outcome.inner_fit.iterations == len(passes) - 1
        assert abs(outcome.action - root) <= 1e-8

    @settings(
        deadline=None, max_examples=50, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(0.1, 5.0),
        h=st.floats(1e-3, 0.5),
        b=st.floats(0.01, 1.0),
        alpha=st.floats(0.5, 5.0),
        beta=st.floats(0.5, 10.0),
        factors=st.lists(st.floats(0.1, 3.0), min_size=2, max_size=2, unique=True),
    )
    # The tests' n = 50 dataset on the interval of (2, 3) roots: a_lo, with V'' < 0.
    @example(n=50, seed=20, theta=0.68, h=0.005, b=0.1, alpha=1.0, beta=4.1, factors=[2.0, 3.0])
    def test_random_intervals_around_the_root_end_without_the_scan(
        self, n, seed, theta, h, b, alpha, beta, factors, caplog
    ):
        # Intervals [f1, f2] * root put the root inside, below or above them,
        # and the naive start inside or at either end.
        model = NewsvendorModel(h=h, b=b, theta0=None, alpha=alpha, beta=beta)
        data = sample_demand(theta, n, np.random.default_rng(seed))
        root = lcvb_decide(data, model).action
        assume(model.action_lo < root < model.action_hi)
        interval = tuple(f * root for f in sorted(factors))
        model = replace(model, action_interval=interval)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            outcome = lcvb_decide(data, model)
        how = lcvb_line(caplog).rsplit("kernel passes), ", 1)[1]
        slope = outcome.inner_fit.envelope_slope
        assert how in ("local", "at a_lo", "at a_hi")
        if how == "at a_lo":
            assert outcome.action == interval[0] and slope > 0
        elif how == "at a_hi":
            assert outcome.action == interval[1] and slope < 0
        assert abs(outcome.action - scan_reference(data, model)[0]) <= 1e-4

    def test_a_step_across_an_end_is_cut_there_and_the_end_answers(
        self, data_n50, base_model, monkeypatch, caplog
    ):
        # The naive action lies inside (0, cut) and the root above it: the
        # first Newton step crosses a_hi, a stays there while q climbs, and
        # F_a < 0 certifies the end.
        root = lcvb_decide(data_n50, base_model).action
        naive = nvb_decide(data_n50, base_model).action
        interval = (0.0, 0.5 * (naive + root))
        model = replace(base_model, theta0=None, action_interval=interval)
        passes = recorded_passes(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            outcome = lcvb_decide(data_n50, model)
        assert naive < interval[1] < root
        assert lcvb_line(caplog).endswith(", at a_hi")
        assert passes[0] == naive and len(passes) >= 3 and set(passes[1:]) == {interval[1]}
        assert outcome.action == interval[1] and outcome.inner_fit.envelope_slope < 0
        assert outcome.probe_count == len(passes) - 1
        assert abs(outcome.action - scan_reference(data_n50, model)[0]) <= 1e-4

    def test_a_non_positive_envelope_curvature_falls_back_to_the_scan(
        self, data_n50, base_model, caplog
    ):
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            outcome = lcvb_decide(data_n50, base_model, risk=ConcaveInAction())
        assert "scan fallback: envelope curvature is -" in lcvb_line(caplog)
        assert outcome.action == base_model.action_lo  # V rises from a_lo
        assert outcome.probe_count >= 33

    def test_local_search_agrees_with_the_global_scan(self, base_model):
        for seed in (40, 41, 42):
            stream = sample_demand(base_model.theta0, 1250, np.random.default_rng(seed))
            for n in (10, 250, 1250):
                data = stream.prefix(n)
                for h in (0.001, 0.005, 0.009):
                    model = replace(base_model, h=h)
                    outcome = lcvb_decide(data, model)
                    action, value = scan_reference(data, model)
                    assert abs(outcome.action - action) <= 1e-4, (seed, n, h)
                    assert outcome.inner_fit.objective <= value + 1e-9, (seed, n, h)
                    assert outcome.probe_count <= 12, (seed, n, h)

    def test_non_finite_objective_at_a_joint_iterate_falls_back_to_the_scan(
        self, data_n50, base_model, monkeypatch, caplog
    ):
        iterates = []

        def poisoned(a, *args):
            objective = _lcvb_objective(a, *args)

            def evaluate(x):
                iterates.append(a)
                value, gradient, hessian, fallback, *action = objective(x)
                if len(iterates) == 2:  # the first Newton iterate
                    return -math.inf, gradient, hessian, fallback
                return value, gradient, hessian, fallback, *action

            return evaluate

        monkeypatch.setattr(decisions, "_lcvb_objective", poisoned)
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            outcome = lcvb_decide(data_n50, base_model)
        assert len(iterates) == 2  # the scan's fits evaluate F in vb, not here
        line = lcvb_line(caplog)
        assert line.startswith(f"LCVB action {outcome.action:.9g} after 1 Newton steps (")
        assert line.endswith(
            f", scan fallback: calibrated objective is not finite at a={iterates[1]:.6g}"
        )
        assert outcome.action == scan_reference(data_n50, base_model)[0]
        assert outcome.probe_count >= 33

    @pytest.mark.parametrize(
        "interval, risk, how",
        [
            ((0.0, 50.0), None, "local"),
            ((0.0, 2.0), None, "at a_hi"),
            ((8.0, 12.0), None, "at a_lo"),
            ((0.0, 50.0), ConcaveInAction(), "scan fallback: envelope curvature is -"),
        ],
        ids=["local", "at-a_hi", "at-a_lo", "scan-fallback"],
    )
    def test_debug_line_counts_newton_steps_and_kernel_passes(
        self, interval, risk, how, data_n50, base_model, monkeypatch, caplog
    ):
        passes, fits = [], []

        def counted_pass(*args):
            passes.append(args[0])
            return log_risk_term(*args)

        def recorded(*args, **kwargs):
            fits.append(args[0])
            return fit_lcvb(*args, **kwargs)

        log_risk_term = vb._log_risk_term
        monkeypatch.setattr(vb, "_log_risk_term", counted_pass)
        monkeypatch.setattr(decisions, "fit_lcvb", recorded)
        model = replace(base_model, theta0=None, action_interval=interval)
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            outcome = lcvb_decide(data_n50, model, risk=risk)
        kernel_passes = len(passes)
        steps = outcome.probe_count - len(fits)
        line = lcvb_line(caplog)
        assert line.startswith(
            f"LCVB action {outcome.action:.9g} after {steps} Newton steps "
            f"({kernel_passes} kernel passes), {how}"
        )
        if how == "local":
            assert fits == [] and 1 <= steps <= 12 and kernel_passes == steps + 1
            assert outcome.inner_fit.iterations == steps
            assert outcome.inner_fit.evaluations == kernel_passes
            assert outcome.inner_fit.converged
        elif how.startswith("at"):  # q's steps alone, with a held at the end
            assert fits == [] and set(passes) == {outcome.action}
            assert 1 <= steps == kernel_passes - 1 == outcome.inner_fit.iterations
        else:
            assert len(fits) >= 33 and steps == 0

    def test_reference_study_slice_takes_pinned_newton_steps_and_kernel_passes(
        self, monkeypatch, caplog
    ):
        # The first 10 paths of the reference study (seed 424242): 360 decides,
        # 959 Newton steps and 1,319 kernel passes (3.664 per decide). A change
        # to the kernel's rounding that adds Newton steps moves these counts.
        passes = []

        def counted_pass(*args):
            passes.append(args[0])
            return log_risk_term(*args)

        log_risk_term = vb._log_risk_term
        monkeypatch.setattr(vb, "_log_risk_term", counted_pass)
        config = reference_config()
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            records = [record for path in range(10) for record in simulate_path(config, path)]
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("LCVB action")]
        assert len(lines) == 360 and not any(record.failed for record in records)
        steps = sum(int(line.split()[4]) for line in lines)  # "LCVB action a after N Newton steps"
        assert (steps, len(passes)) == (959, 1319)

    def test_non_finite_slope_falls_back_to_the_scan(self, data_n50, base_model):
        outcome = lcvb_decide(data_n50, base_model, risk=NaNSlope(base_model))
        assert outcome.action == scan_reference(data_n50, base_model)[0]
        assert outcome.probe_count >= 33

    def test_debug_line_names_the_fallback_reason(
        self, data_n50, base_model, caplog
    ):
        with caplog.at_level(logging.DEBUG, logger="newsvb.decisions"):
            lcvb_decide(data_n50, base_model, risk=NaNSlope(base_model))
            lcvb_decide(data_n50, base_model)
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
                q, diag = fit_nvb(data, base_model)
                nvb = decide_with_variational(q, base_model, diag)
                lcvb = lcvb_decide(data, base_model, nvb_start=nvb)
                gaps[Rule.NVB][n].append(optimality_gap(nvb, base_model)[0])
                gaps[Rule.LCVB][n].append(optimality_gap(lcvb, base_model)[0])
        for rule in (Rule.NVB, Rule.LCVB):
            medians = [float(np.median(gaps[rule][n])) for n in sizes]
            for earlier, later in zip(medians, medians[1:]):
                assert later <= earlier * 1.2, f"{rule}: {medians}"
