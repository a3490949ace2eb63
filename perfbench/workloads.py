"""The benchmark's workloads: inputs from a seed, timed units and checks.

Every draw uses theta0=0.68, b=0.1 and an inverse-gamma(1, 4.1) prior. Each
workload is a closed loop with one client: the next unit starts when the
previous one has returned. A unit is one call the client waits for: a
``run_experiment`` + ``write_results`` study over a batch of paths, or one
dataset decided by all three rules exactly as ``newsvb decide`` does it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from newsvb import decisions, experiment, model, numerics, oracle
from newsvb.decisions import Rule
from newsvb.numerics import NumericalError
from newsvb.vb import FitSettings

THETA0, B, ALPHA, BETA = 0.68, 0.1, 1.0, 4.1
DECIDE_N, DECIDE_H = 2000, 0.05
# Acceptance criterion 7: the variational actions stay within 0.1 of the
# exact Bayes action on at least 90% of datasets.
AGREEMENT_TOLERANCE, AGREEMENT_SHARE = 0.1, 0.9
DECIDE_RULES = ("nvb", "lcvb", "bayes")


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Study:
    """Batches of study paths: one unit is one ``run_experiment`` call."""

    rules: tuple[Rule, ...]
    paths_per_unit: int
    jobs: int
    trace_units_per_s: float

    def config(self, seed: int, index: int) -> experiment.ExperimentConfig:
        return experiment.reference_config(
            rules=self.rules,
            replications=self.paths_per_unit,
            master_seed=input_seed(seed, index),
        )

    def warm_up(self) -> None:
        tiny = experiment.reference_config(
            rules=self.rules, replications=1, n_schedule=(10,), h_values=(0.005,)
        )
        experiment.run_experiment(tiny, jobs=1)


@dataclass(frozen=True)
class DecideSingle:
    """One fresh dataset per unit, decided by NVB, LCVB and Bayes."""

    trace_units_per_s: float
    jobs = 1

    def newsvendor(self) -> model.NewsvendorModel:
        return model.NewsvendorModel(h=DECIDE_H, b=B, theta0=THETA0, alpha=ALPHA, beta=BETA)

    def warm_up(self) -> None:
        data = model.sample_demand(THETA0, 50, np.random.default_rng(0))
        decide_three_ways(data, self.newsvendor())


WORKLOADS = {
    "study_lcvb": Study((Rule.NVB, Rule.LCVB), paths_per_unit=1, jobs=1, trace_units_per_s=0.4),
    "study_bayes": Study((Rule.NVB, Rule.BAYES), paths_per_unit=1, jobs=1, trace_units_per_s=5.0),
    "decide_single": DecideSingle(trace_units_per_s=12.0),
    "study_lcvb_jobs2": Study(
        (Rule.NVB, Rule.LCVB), paths_per_unit=4, jobs=2, trace_units_per_s=0.15
    ),
}


def prepare(name: str, seed: int) -> None:
    """Everything a run does before its first timed unit.

    Builds the first input, fills the cached Gauss-Legendre/Hermite tables
    and runs a tiny slice of the workload's code once.
    """
    spec = WORKLOADS[name]
    if isinstance(spec, DecideSingle):
        spec.newsvendor()
    else:
        spec.config(seed, 0)
    numerics.gauss_legendre(256)
    numerics.gauss_hermite_standard(FitSettings().node_count)
    spec.warm_up()


def decide_three_ways(data: model.Observations, newsvendor: model.NewsvendorModel):
    """Actions and wall times of ``newsvb decide`` for each rule.

    A rule that raises ``NumericalError`` yields action None; its time
    still counts.
    """
    settings = FitSettings()

    def nvb():
        return decisions.nvb_decide(data, newsvendor, settings)

    def lcvb():
        grid = oracle.build_posterior(data, newsvendor)
        return decisions.lcvb_decide(data, newsvendor, grid, settings)

    def bayes():
        grid = oracle.build_posterior(data, newsvendor)
        return oracle.bayes_decision(grid, newsvendor)

    actions, seconds = {}, {}
    for rule, decide in zip(DECIDE_RULES, (nvb, lcvb, bayes)):
        start = perf_counter()
        try:
            actions[rule] = decide().action
        except NumericalError:
            actions[rule] = None
        seconds[rule] = perf_counter() - start
    return actions, seconds


class Runner:
    """Runs one workload's units and checks what they returned."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.is_study = isinstance(self.spec, Study)
        self.rule_seconds = {rule: [] for rule in DECIDE_RULES}
        self.outputs: list = []

    def run_unit(self, index: int) -> int:
        """Run unit ``index``; returns the paths (or datasets) it completed."""
        if self.is_study:
            config = self.spec.config(self.seed, index)
            curves = experiment.run_experiment(config, jobs=self.spec.jobs)
            csv_path, _ = experiment.write_results(curves, self.workdir / f"unit{index}", config)
            self.outputs.append((config, curves, csv_path))
            return config.replications
        data = model.sample_demand(
            THETA0, DECIDE_N, np.random.default_rng(input_seed(self.seed, index))
        )
        actions, seconds = decide_three_ways(data, self.spec.newsvendor())
        for rule in DECIDE_RULES:
            self.rule_seconds[rule].append(seconds[rule])
        self.outputs.append(actions)
        return 1

    def counts(self) -> tuple[int, int]:
        """(attempted, failed): study cells or single decisions."""
        if self.is_study:
            attempted = failed = 0
            for config, curves, _ in self.outputs:
                cells = len(config.rules) * len(config.h_values) * len(config.n_schedule)
                attempted += cells * config.replications
                failed += sum(point.failures for curve in curves for point in curve.points)
            return attempted, failed
        attempted = len(DECIDE_RULES) * len(self.outputs)
        failed = sum(a is None for actions in self.outputs for a in actions.values())
        return attempted, failed

    def check(self) -> tuple[list[str], dict]:
        """Correctness problems found (empty when correct) and check details."""
        if self.is_study:
            return self._check_study()
        return self._check_decisions()

    def _check_study(self):
        problems, details = [], {}
        for config, curves, _ in self.outputs:
            for curve in curves:
                for point in curve.points:
                    for value in (point.gap_action_q, point.gap_regret_q):
                        if value is None or not math.isfinite(value):
                            problems.append(
                                f"non-finite quantile {value} for {curve.rule.value} "
                                f"h={curve.h} n={point.n} (seed {config.master_seed})"
                            )
        if self.spec.jobs > 1:
            # Acceptance criterion 9 from outside: the first unit again at
            # jobs=1 must write the same CSV bytes.
            config, _, csv_path = self.outputs[0]
            start = perf_counter()
            serial = experiment.run_experiment(config, jobs=1)
            serial_seconds = perf_counter() - start
            serial_csv, _ = experiment.write_results(serial, self.workdir / "serial", config)
            if serial_csv.read_bytes() != csv_path.read_bytes():
                problems.append(f"jobs={self.spec.jobs} CSV differs from the jobs=1 CSV")
            details["serial_unit_s"] = serial_seconds
        return problems, details

    def _check_decisions(self):
        agreeing = 0
        largest = 0.0
        for actions in self.outputs:
            bayes = actions["bayes"]
            if bayes is None or actions["nvb"] is None or actions["lcvb"] is None:
                continue
            gap = max(abs(actions["nvb"] - bayes), abs(actions["lcvb"] - bayes))
            largest = max(largest, gap)
            agreeing += gap < AGREEMENT_TOLERANCE
        share = agreeing / len(self.outputs)
        problems = []
        if share < AGREEMENT_SHARE:
            problems.append(
                f"only {share:.1%} of datasets have NVB and LCVB within "
                f"{AGREEMENT_TOLERANCE} of Bayes (need {AGREEMENT_SHARE:.0%})"
            )
        return problems, {"agreement_share": share, "largest_action_gap": largest}
