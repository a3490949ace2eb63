"""Harness: seeding, common random numbers, quantiles, persistence, rates."""

import json
import math

import numpy as np
import pytest

import newsvb.experiment as experiment
from newsvb import Rule
from newsvb.experiment import (
    CurvePoint,
    ExperimentConfig,
    GapRecord,
    QuantileCurve,
    derive_path_seed,
    estimate_rate,
    nearest_rank_quantile,
    read_results,
    reference_config,
    run_experiment,
    simulate_path,
    write_results,
)


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


class TestPersistence:
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
        assert set(manifest) == {"config", "seed", "started_at", "duration_seconds", "tool_version"}

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
