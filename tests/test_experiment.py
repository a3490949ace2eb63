"""Harness: seeding, common random numbers, quantiles, persistence, rates."""

import json
import logging
import math
import platform
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import newsvb.decisions as decisions
import newsvb.experiment as experiment
import newsvb.oracle as oracle
from newsvb import NumericalError, Rule, build_posterior, sample_demand
from newsvb.experiment import (
    CurvePoint,
    ExperimentConfig,
    GapRecord,
    QuantileCurve,
    derive_path_seed,
    estimate_rate,
    nearest_rank_quantile,
    reference_config,
    run_experiment,
    simulate_path,
    write_results,
)
from reference import read_results


def tiny_config(**overrides):
    base = dict(replications=4, n_schedule=(10, 30), h_values=(0.005,), master_seed=7)
    base.update(overrides)
    return reference_config(**base)


class TestConfig:
    def test_reference_values(self):
        config = reference_config()
        assert config.theta0 == 0.68
        assert config.b == 0.1
        assert config.alpha == 1.0
        assert config.beta == 4.1
        assert config.h_values == tuple(round(0.001 * k, 3) for k in range(1, 10))
        assert config.quantile_level == 0.5
        assert config.rules == (Rule.NVB, Rule.LCVB)

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(n_schedule=(30, 10))
        with pytest.raises(ValueError):
            tiny_config(h_values=())
        with pytest.raises(ValueError, match="h_values"):
            tiny_config(h_values=(0.005, 0.005))
        with pytest.raises(ValueError):
            tiny_config(quantile_level=1.5)
        with pytest.raises(ValueError):
            tiny_config(replications=0)
        with pytest.raises(ValueError):
            tiny_config(rules=())
        raw = tiny_config().to_dict()
        raw["rules"] = ["ORACLE_TRUE"]
        with pytest.raises(ValueError, match="ORACLE_TRUE"):
            ExperimentConfig.from_dict(raw)

    def test_dict_round_trip(self):
        config = tiny_config()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_dict_keys_are_the_fields(self):
        # Every field, defaulted ones included, so --paper-defaults drops none.
        config = tiny_config(action_interval=(1.0, 40.0))
        raw = config.to_dict()
        assert list(raw) == [f.name for f in fields(ExperimentConfig)]
        assert json.loads(json.dumps(raw)) == raw
        assert ExperimentConfig.from_dict(raw) == config

    def test_from_dict_rejects_unknown_key(self):
        raw = tiny_config().to_dict()
        raw["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_rejects_missing_key(self):
        raw = tiny_config().to_dict()
        del raw["theta0"]
        with pytest.raises(ValueError, match="theta0"):
            ExperimentConfig.from_dict(raw)


class TestPathSeeding:
    def test_streams_distinct_across_path_indices(self):
        seen = set()
        for index in range(10_000):
            rng = np.random.default_rng(derive_path_seed(42, index))
            seen.add(tuple(rng.random(8)))
        assert len(seen) == 10_000

    def test_mix_depends_on_master_seed(self):
        assert derive_path_seed(1, 0) != derive_path_seed(2, 0)


class TestSimulatePath:
    def test_replay_is_bit_identical(self):
        config = tiny_config()
        first = simulate_path(config, 2)
        second = simulate_path(config, 2)
        assert first == second

    def test_rejects_out_of_range_index(self):
        config = tiny_config()
        with pytest.raises(ValueError):
            simulate_path(config, config.replications)

    def test_common_random_numbers_across_h(self):
        # Adding holding costs must not change the cells shared with the
        # smaller configuration: every h sees the same demand prefix.
        narrow = tiny_config(h_values=(0.005,))
        wide = tiny_config(h_values=(0.003, 0.005, 0.008))
        narrow_records = {
            (r.rule, r.h, r.n): r for r in simulate_path(narrow, 1)
        }
        wide_records = {
            (r.rule, r.h, r.n): r for r in simulate_path(wide, 1)
        }
        for key, record in narrow_records.items():
            assert wide_records[key] == record

    def test_one_nvb_decide_per_n_and_lcvb_starts_from_it(self, monkeypatch):
        config = tiny_config(h_values=(0.003, 0.008))
        calls = []
        single_calls = []
        lcvb_calls = []

        def counted_across_h(q, models, *args):
            calls.append(tuple(model.h for model in models))
            return decisions.decide_across_h(q, models, *args)

        def counted(original):
            def decide(*args, **kwargs):
                single_calls.append(args[1].h)
                return original(*args, **kwargs)

            return decide

        def recorded(*args, **kwargs):
            outcome = decisions.lcvb_decide(*args, **kwargs)
            lcvb_calls.append((args, kwargs["nvb_start"], outcome))
            return outcome

        monkeypatch.setattr(experiment, "decide_across_h", counted_across_h)
        monkeypatch.setattr(
            decisions, "decide_with_variational", counted(decisions.decide_with_variational)
        )
        monkeypatch.setattr(experiment, "lcvb_decide", recorded)
        records = simulate_path(config, 1)
        assert not any(record.failed for record in records)
        assert calls == [config.h_values] * len(config.n_schedule)
        assert single_calls == []
        assert len(lcvb_calls) == len(config.n_schedule) * len(config.h_values)
        for (data, model), start, outcome in lcvb_calls:
            assert start.rule is Rule.NVB and start.q is not None
            alone = decisions.lcvb_decide(data, model)  # fits its own q
            assert alone.action == outcome.action
            assert alone.objective_value == outcome.objective_value
        # Without a start, lcvb_decide decides NVB itself, and the counter sees it.
        assert len(single_calls) == len(lcvb_calls)

    def test_failed_nvb_decide_fails_both_variational_cells(self, monkeypatch):
        def failing(q, models, *args):
            return [NumericalError("synthetic failure")] * len(models)

        monkeypatch.setattr(experiment, "decide_across_h", failing)
        config = tiny_config(rules=(Rule.NVB, Rule.LCVB, Rule.BAYES))
        records = simulate_path(config, 0)
        assert {(r.rule, r.failed, r.reason) for r in records} == {
            (Rule.NVB, True, "NVB: synthetic failure"),
            (Rule.LCVB, True, "NVB: synthetic failure"),
            (Rule.BAYES, False, ""),
        }

    def test_a_failed_nvb_row_fails_only_its_own_cells(self, monkeypatch):
        config = tiny_config(
            rules=(Rule.NVB, Rule.LCVB, Rule.BAYES), h_values=(0.003, 0.005, 0.008)
        )
        clean = simulate_path(config, 1)
        assert not any(record.failed for record in clean)

        def failing_at_middle_h(q, models, *args):
            outcomes = decisions.decide_across_h(q, models, *args)
            outcomes[1] = NumericalError("synthetic row failure")
            return outcomes

        monkeypatch.setattr(experiment, "decide_across_h", failing_at_middle_h)
        records = simulate_path(config, 1)
        assert len(records) == len(clean)
        for record, reference in zip(records, clean):
            if record.h == 0.005 and record.rule is not Rule.BAYES:
                assert record.failed and record.reason == "NVB: synthetic row failure"
            else:
                assert record == reference

    def test_a_level_below_the_floor_fails_its_cells_with_the_roots_error(self):
        # At h = 1e-300 on [0, 2000] both roots start inside the interval, at
        # a level log(h*W/(b+h)) ~ -688.5 below log(float min/eps).
        config = reference_config(
            replications=1, rules=(Rule.NVB, Rule.BAYES), h_values=(1e-300, 0.005),
            n_schedule=(10,), action_interval=(0, 2000),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = simulate_path(config, 0)
        level = "psi's level log(h*W/(b+h)) = -688.473 is below log(float min/eps) = -672.353"
        assert [(r.rule, r.h, r.failed, r.reason) for r in records] == [
            (Rule.NVB, 1e-300, True, f"NVB: NVB {level} at h=1e-300"),
            (Rule.BAYES, 1e-300, True, f"Bayes: BAYES {level} at h=1e-300"),
            (Rule.NVB, 0.005, False, ""),
            (Rule.BAYES, 0.005, False, ""),
        ]

    def test_one_debug_line_per_n_names_the_failed_cells(self, monkeypatch, caplog):
        config = tiny_config(rules=(Rule.NVB, Rule.BAYES), h_values=(0.003, 0.008))
        with caplog.at_level(logging.DEBUG, logger="newsvb.experiment"):
            clean = simulate_path(config, 1)
        assert [record.getMessage() for record in caplog.records] == [
            "path 1, n=10: failed cells: none",
            "path 1, n=30: failed cells: none",
        ]
        caplog.clear()
        fit, decide, bayes = (
            experiment.fit_nvb, experiment.decide_across_h, experiment.bayes_decision
        )

        def fit_failing_at_30(data, *args):
            if data.n == 30:
                raise NumericalError("synthetic fit failure")
            return fit(data, *args)

        def decide_failing_at_low_h(q, models, *args):
            return [
                NumericalError("synthetic decide failure") if model.h == 0.003 else outcome
                for model, outcome in zip(models, decide(q, models, *args))
            ]

        def bayes_failing_at_high_h(grid, model, root=None):
            if model.h == 0.008:
                raise NumericalError("synthetic Bayes failure")
            return bayes(grid, model, root=root)

        monkeypatch.setattr(experiment, "fit_nvb", fit_failing_at_30)
        monkeypatch.setattr(experiment, "decide_across_h", decide_failing_at_low_h)
        monkeypatch.setattr(experiment, "bayes_decision", bayes_failing_at_high_h)
        with caplog.at_level(logging.DEBUG, logger="newsvb.experiment"):
            records = simulate_path(config, 1)
        assert [record.getMessage() for record in caplog.records] == [
            "path 1, n=10: failed cells: NVB h=0.003 (NVB: synthetic decide failure), "
            "BAYES h=0.008 (Bayes: synthetic Bayes failure)",
            "path 1, n=30: failed cells: NVB h=0.003 (NVB: synthetic fit failure), "
            "NVB h=0.008 (NVB: synthetic fit failure), "
            "BAYES h=0.008 (Bayes: synthetic Bayes failure)",
        ]
        # The cells that did not fail: BAYES h=0.003 at n=10 and n=30, NVB h=0.008 at n=10.
        assert [records[i] for i in (1, 2, 5)] == [clean[i] for i in (1, 2, 5)]

    # A failed grid is named; a failed plain fit carries its error's text.
    @pytest.mark.parametrize(
        "target, reason, failed_rules",
        [
            ("build_posterior", "posterior grid", {Rule.BAYES}),
            ("fit_nvb", "NVB: synthetic failure", {Rule.NVB, Rule.LCVB}),
        ],
        ids=["grid", "plain-fit"],
    )
    def test_a_failed_shared_step_fails_only_the_cells_that_need_it(
        self, target, reason, failed_rules, monkeypatch
    ):
        config = tiny_config(rules=(Rule.NVB, Rule.LCVB, Rule.BAYES), h_values=(0.003, 0.008))
        clean = simulate_path(config, 1)
        original = getattr(experiment, target)

        def failing_at_30(data, *args):
            if data.n == 30:
                raise NumericalError("synthetic failure")
            return original(data, *args)

        monkeypatch.setattr(experiment, target, failing_at_30)
        records = simulate_path(config, 1)
        assert len(records) == len(clean)
        for record, reference in zip(records, clean):
            if record.n == 30 and record.rule in failed_rules:
                assert record.failed and record.reason == reason
                assert math.isnan(record.gap_action) and math.isnan(record.gap_regret)
            else:
                assert record == reference

    @pytest.mark.parametrize(
        "rules, grids_per_n",
        [((Rule.NVB, Rule.LCVB), 0), ((Rule.NVB, Rule.BAYES), 1), ((Rule.LCVB, Rule.BAYES), 1)],
        ids=["nvb-lcvb", "nvb-bayes", "lcvb-bayes"],
    )
    def test_the_posterior_grid_is_built_once_per_n_for_bayes_only(
        self, rules, grids_per_n, monkeypatch
    ):
        config = tiny_config(rules=rules, h_values=(0.003, 0.008))
        built = []

        def counted(data, *args):
            built.append(data.n)
            return build_posterior(data, *args)

        monkeypatch.setattr(experiment, "build_posterior", counted)
        records = simulate_path(config, 1)
        assert not any(record.failed for record in records)
        assert built == [n for n in config.n_schedule for _ in range(grids_per_n)]

    def test_a_root_outside_the_best_scan_cell_fails_only_its_bayes_cell(self, monkeypatch):
        config = tiny_config(rules=(Rule.NVB, Rule.BAYES), h_values=(0.003, 0.008))
        clean = simulate_path(config, 1)
        root = decisions.decide_on_measure
        calls = []

        def root_moved_at_high_h(measure, models, rule):
            calls.append(tuple(model.h for model in models))
            # One scan cell is 50/511 wide; only the h = 0.008 row moves.
            return [
                replace(outcome, action=outcome.action + 1.0) if model.h == 0.008 else outcome
                for model, outcome in zip(models, root(measure, models, rule))
            ]

        # bayes_decision's own one-h root, and simulate_path's batched one.
        monkeypatch.setattr(oracle, "decide_on_measure", root_moved_at_high_h)
        monkeypatch.setattr(experiment, "decide_on_measure", root_moved_at_high_h)
        model = config.model_for(0.008)
        grid = build_posterior(sample_demand(config.theta0, 10, np.random.default_rng(0)), model)
        with pytest.raises(NumericalError, match="fails the scan check: best scan cell"):
            oracle.bayes_decision(grid, model)
        records = simulate_path(config, 1)
        assert len(records) == len(clean)
        for record, reference in zip(records, clean):
            if record.h == 0.008 and record.rule is Rule.BAYES:
                assert record.failed
                assert record.reason.startswith("Bayes: root a=")
                assert "fails the scan check" in record.reason
            else:
                assert record == reference
        # One root for the decide above, then one for both h per n of the path.
        assert calls == [(0.008,)] + [config.h_values] * len(config.n_schedule)

    def test_a_failed_lcvb_decide_names_its_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalError("synthetic LCVB failure")

        monkeypatch.setattr(experiment, "lcvb_decide", failing)
        records = simulate_path(tiny_config(), 0)
        assert {(r.rule, r.failed, r.reason) for r in records} == {
            (Rule.NVB, False, ""),
            (Rule.LCVB, True, "LCVB: synthetic LCVB failure"),
        }

    def test_large_sample_gap_is_small(self):
        config = tiny_config(replications=1, n_schedule=(100_000,), h_values=(0.005,))
        records = simulate_path(config, 0)
        for record in records:
            assert not record.failed
            assert record.gap_action < 0.05


class TestNearestRankQuantile:
    def test_matches_sort_based_reference(self):
        rng = np.random.default_rng(50)
        for _ in range(300):
            size = int(rng.integers(1, 60))
            values = rng.normal(size=size)
            level = float(rng.uniform(0.01, 0.99))
            rank = min(max(math.ceil(level * size), 1), size)
            assert nearest_rank_quantile(values, level) == sorted(values)[rank - 1]

    def test_single_replication_returns_the_gap(self):
        assert nearest_rank_quantile([3.25], 0.5) == 3.25

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            nearest_rank_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            nearest_rank_quantile([], 0.5)


class TestRunExperiment:
    def test_deterministic_across_jobs(self):
        config = tiny_config()
        assert run_experiment(config, jobs=1) == run_experiment(config, jobs=2)

    def test_pool_never_exceeds_the_path_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        config = tiny_config(replications=2)
        serial = run_experiment(config, jobs=1)
        monkeypatch.setattr(experiment.futures, "ProcessPoolExecutor", SerialPool)
        assert run_experiment(config, jobs=64) == serial
        assert sizes == [2]

    def test_single_replication_quantile_is_the_path_gap(self):
        config = tiny_config(replications=1)
        curves = run_experiment(config)
        records = {(r.rule, r.h, r.n): r for r in simulate_path(config, 0)}
        for curve in curves:
            for point in curve.points:
                record = records[(curve.rule, curve.h, point.n)]
                assert point.gap_action_q == record.gap_action
                assert point.gap_regret_q == record.gap_regret
                assert point.replications == 1 and point.failures == 0

    def test_failed_cells_marked_missing(self, monkeypatch):
        config = tiny_config(replications=2)

        def failing_path(cfg, index):
            return [
                GapRecord(rule, h, n, math.nan, math.nan, failed=True)
                for rule in cfg.rules
                for h in cfg.h_values
                for n in cfg.n_schedule
            ]

        monkeypatch.setattr(experiment, "simulate_path", failing_path)
        curves = run_experiment(config, jobs=1)
        for curve in curves:
            for point in curve.points:
                assert point.gap_action_q is None
                assert point.failures == config.replications
                assert point.replications + point.failures == config.replications

    def test_a_prior_shape_of_1e300_fails_every_cell_and_the_run_completes(self):
        # p = n - alpha squares past the float range: the grid and the plain
        # fit refuse their zero mode and start, and each cell names its cause.
        config = tiny_config(alpha=1e300, rules=(Rule.NVB, Rule.LCVB, Rule.BAYES), replications=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = simulate_path(config, 0)
            curves = run_experiment(config, jobs=1)
        assert len(records) == 3 * len(config.n_schedule)
        for record in records:
            assert record.failed
            if record.rule is Rule.BAYES:
                assert record.reason == "posterior grid"
            else:
                assert record.reason.startswith("NVB: p = n - alpha = -1e+300")
                assert "p^2 overflows" in record.reason
        for curve in curves:
            for point in curve.points:
                assert point.gap_action_q is None and point.gap_regret_q is None
                assert (point.replications, point.failures) == (0, config.replications)


class TestEstimateRate:
    def curve_from(self, pairs):
        points = tuple(
            CurvePoint(n=n, gap_action_q=q, gap_regret_q=q, replications=10, failures=0)
            for n, q in pairs
        )
        return QuantileCurve(rule=Rule.NVB, h=0.005, quantile_level=0.5, points=points)

    def test_exact_power_law(self):
        curve = self.curve_from([(n, n ** -0.5) for n in (10, 100, 1000, 10_000)])
        assert estimate_rate(curve) == pytest.approx(-0.5, abs=1e-12)

    def test_constant_curve(self):
        curve = self.curve_from([(n, 2.0) for n in (10, 100, 1000)])
        assert estimate_rate(curve) == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_points(self):
        curve = self.curve_from([(10, 1.0), (100, 0.5)])
        with pytest.raises(ValueError):
            estimate_rate(curve)


@st.composite
def curve_sets(draw):
    """Curves with distinct (rule, h, level) keys and 1-5 points each, whose
    quantiles may be missing."""
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(list(Rule)), st.floats(1e-6, 10.0), st.floats(0.01, 0.99)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    gap = st.one_of(st.none(), st.floats(0.0, 1e6))
    point = st.builds(
        CurvePoint,
        n=st.integers(1, 10**9),
        gap_action_q=gap,
        gap_regret_q=gap,
        replications=st.integers(0, 10**6),
        failures=st.integers(0, 10**6),
    )
    return [
        QuantileCurve(rule, h, level, tuple(draw(st.lists(point, min_size=1, max_size=5))))
        for rule, h, level in keys
    ]


class TestPersistence:
    @settings(deadline=None, max_examples=50, derandomize=True, database=None)
    @given(curves=curve_sets())
    # Every field at an end of its range, and a missing quantile.
    @example(
        curves=[QuantileCurve(Rule.BAYES, 10.0, 0.99, (CurvePoint(10**9, None, 1e6, 0, 10**6),))]
    )
    def test_curves_round_trip_through_the_csv(self, curves):
        with tempfile.TemporaryDirectory() as directory:
            csv_path, _ = write_results(curves, Path(directory) / "run", tiny_config())
            assert read_results(csv_path) == curves


    def test_round_trip_and_shape(self, tmp_path):
        config = tiny_config(replications=2)
        curves = run_experiment(config)
        csv_path, manifest_path = write_results(curves, tmp_path / "out" / "run", config)
        text = csv_path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "rule,h,n,quantile_level,gap_action_q,gap_regret_q,replications,failures"
        assert len(lines) == 1 + sum(len(c.points) for c in curves)
        assert "\r" not in text
        assert read_results(csv_path) == list(curves)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["seed"] == config.master_seed
        assert manifest["config"] == config.to_dict()
        assert set(manifest) == {
            "config", "seed", "started_at", "duration_seconds", "tool_version", "python", "numpy"
        }
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__

    def test_missing_quantiles_round_trip(self, tmp_path):
        config = tiny_config(replications=2)
        curve = QuantileCurve(
            rule=Rule.LCVB,
            h=0.004,
            quantile_level=0.5,
            points=(CurvePoint(n=10, gap_action_q=None, gap_regret_q=None,
                               replications=0, failures=2),),
        )
        csv_path, _ = write_results([curve], tmp_path / "missing", config)
        assert read_results(csv_path) == [curve]

    def test_rewrites_are_byte_identical(self, tmp_path):
        config = tiny_config(replications=2)
        curves = run_experiment(config)
        first, _ = write_results(curves, tmp_path / "a", config, started_at="T", duration_seconds=1)
        second, _ = write_results(curves, tmp_path / "b", config, started_at="T", duration_seconds=2)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results([], tmp_path / "x", tiny_config())
