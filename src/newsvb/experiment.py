"""Consistency experiment: optimality-gap quantiles along a sample-size schedule.

Each replication ("path") draws one long demand stream; every sample size
in the schedule reuses the stream's prefix (nested-sample design) and every
holding cost and rule sees the identical prefix (common random numbers).
Per-path seeds are derived from the master seed with an avalanche mix, so
any execution order or degree of parallelism produces byte-identical
results.
"""

from __future__ import annotations

import json
import logging
import math
import platform
from collections import Counter, defaultdict
from concurrent import futures
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .decisions import (
    Rule,
    decide_across_h,
    decide_on_measure,
    decide_with_variational,  # noqa: F401 - unused here; perfbench/tracing.py wraps this name
    lcvb_decide,
    optimality_gap,
)
from .model import NewsvendorModel, sample_demand
from .numerics import NumericalError
from .oracle import bayes_decision, build_posterior
from .vb import fit_nvb

__all__ = [
    "ExperimentConfig",
    "GapRecord",
    "CurvePoint",
    "QuantileCurve",
    "reference_config",
    "derive_path_seed",
    "simulate_path",
    "run_experiment",
    "nearest_rank_quantile",
    "estimate_rate",
    "write_results",
    "read_results",
]

logger = logging.getLogger(__name__)

CSV_HEADER = "rule,h,n,quantile_level,gap_action_q,gap_regret_q,replications,failures"

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ExperimentConfig:
    theta0: float
    b: float
    alpha: float
    beta: float
    h_values: tuple[float, ...]
    n_schedule: tuple[int, ...]
    replications: int
    quantile_level: float
    master_seed: int
    rules: tuple[Rule, ...]
    action_interval: tuple[float, float] = (0.0, 50.0)

    def __post_init__(self):
        if not self.h_values or not all(0 < h < math.inf for h in self.h_values):
            raise ValueError("h_values must be non-empty, positive and finite")
        if len(set(self.h_values)) != len(self.h_values):
            raise ValueError("h_values must be distinct")
        if not self.n_schedule or any(n < 1 for n in self.n_schedule):
            raise ValueError("n_schedule must be non-empty with n >= 1")
        if any(b >= a for a, b in zip(self.n_schedule[1:], self.n_schedule)):
            raise ValueError("n_schedule must be strictly increasing")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not 0.0 < self.quantile_level < 1.0:
            raise ValueError("quantile_level must lie in (0, 1)")
        if not self.rules:
            raise ValueError("at least one decision rule is required")
        if len(set(self.rules)) != len(self.rules):
            raise ValueError("rules must be distinct")
        if len(self.action_interval) != 2:
            raise ValueError("action_interval must hold exactly [a_lo, a_hi]")
        # Validate the model once per holding cost; raises on a bad interval.
        for h in self.h_values:
            self.model_for(h)

    def model_for(self, h: float) -> NewsvendorModel:
        return NewsvendorModel(
            h=h,
            b=self.b,
            theta0=self.theta0,
            alpha=self.alpha,
            beta=self.beta,
            action_interval=self.action_interval,
        )

    def to_dict(self) -> dict:
        """Every field as a JSON value: tuples as lists, rules by name."""

        def plain(value):
            if isinstance(value, tuple):
                return [plain(item) for item in value]
            return value.value if isinstance(value, Rule) else value

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build a config from JSON-like values, checking every key's type.

        The keys are the fields; the fields without a default are required.
        """
        by_name = {f.name: f for f in fields(cls)}
        unknown = set(raw) - set(by_name)
        if unknown:
            raise ValueError(f"unknown config key: {sorted(unknown)[0]}")
        missing = {name for name, f in by_name.items() if f.default is MISSING} - set(raw)
        if missing:
            raise ValueError(f"missing config key: {sorted(missing)[0]}")
        return cls(**{key: _READERS[by_name[key].type](key, value) for key, value in raw.items()})


def _parse_rule(name) -> Rule:
    try:
        return Rule[str(name).upper()]
    except KeyError:
        raise ValueError(f"unknown rule: {name}") from None


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config key {key} must be a number, got {value!r}")
    return float(value)


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"config key {key} must be an integer, got {value!r}")
    return value


def _items(key: str, value, read) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config key {key} must be a list, got {value!r}")
    return tuple(read(key, item) for item in value)


# How ``from_dict`` reads a field, keyed by the field's annotation.
_READERS = {
    "float": _number,
    "int": _integer,
    "tuple[float, ...]": lambda key, value: _items(key, value, _number),
    "tuple[float, float]": lambda key, value: _items(key, value, _number),
    "tuple[int, ...]": lambda key, value: _items(key, value, _integer),
    "tuple[Rule, ...]": lambda key, value: _items(key, value, lambda _, name: _parse_rule(name)),
}


def reference_config(**overrides) -> ExperimentConfig:
    """Built-in reference study: theta0=0.68, b=0.1, inverse-gamma(1, 4.1)
    prior, h in {0.001, ..., 0.009}, median gap along n in {10, 50, 250, 1250}.
    """
    base = dict(
        theta0=0.68,
        b=0.1,
        alpha=1.0,
        beta=4.1,
        h_values=tuple(round(0.001 * k, 3) for k in range(1, 10)),
        n_schedule=(10, 50, 250, 1250),
        replications=200,
        quantile_level=0.5,
        master_seed=424242,
        rules=(Rule.NVB, Rule.LCVB),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@dataclass(frozen=True)
class GapRecord:
    rule: Rule
    h: float
    n: int
    gap_action: float
    gap_regret: float
    failed: bool = False
    reason: str = ""  # why a failed cell failed


@dataclass(frozen=True, slots=True)
class CurvePoint:
    n: int
    gap_action_q: float | None
    gap_regret_q: float | None
    replications: int
    failures: int


@dataclass(frozen=True, slots=True)
class QuantileCurve:
    rule: Rule
    h: float
    quantile_level: float
    points: tuple[CurvePoint, ...] = field(default_factory=tuple)


def derive_path_seed(master_seed: int, path_index: int) -> int:
    """Avalanche-mixed 64-bit seed for one path (splitmix64 finalizer)."""
    x = (master_seed + (path_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def simulate_path(config: ExperimentConfig, path_index: int) -> list[GapRecord]:
    """Run every configured rule on one demand path, returning per-cell gaps.

    One stream of max(n_schedule) demands is drawn; each n reuses its
    prefix and each holding cost sees the same prefix. The posterior grid
    (built only for Bayes) and the plain variational fit depend only on the
    prefix and the prior, so they are shared across holding costs: NVB
    decides every holding cost of an n in one ``decide_across_h`` call, and
    the Bayes oracle finds its roots for every holding cost in one
    ``decide_on_measure`` call on the grid's prepared measure, which
    ``bayes_decision`` then certifies per h with a scan of that measure on
    the interval's shared scan actions. Each NVB decision is also its LCVB
    cell's start, and its failure fails both cells; a Bayes root that fails
    fails only its own cell, a failed grid only the Bayes cells, and a
    failed plain fit only the NVB and LCVB cells, with its error's text.
    Rule failures mark their cell with a reason and never abort the path;
    one debug line per n names the failed cells and their reasons.
    """
    if not 0 <= path_index < config.replications:
        raise ValueError(f"path_index {path_index} outside [0, {config.replications})")
    rng = np.random.default_rng(derive_path_seed(config.master_seed, path_index))
    stream = sample_demand(config.theta0, max(config.n_schedule), rng)
    models = [config.model_for(h) for h in config.h_values]

    records: list[GapRecord] = []
    for n in config.n_schedule:
        data = stream.prefix(n)
        first = len(records)
        # A shared step that fails leaves its reason or error in place of its result.
        grid, nvb_outcomes, roots = None, [None] * len(models), [None] * len(models)
        if Rule.BAYES in config.rules:
            try:
                grid = build_posterior(data, models[0])
            except NumericalError:
                grid = "posterior grid"
            else:
                roots = decide_on_measure(grid.measure, models, Rule.BAYES)
        if Rule.NVB in config.rules or Rule.LCVB in config.rules:
            try:
                q_nvb, nvb_diag = fit_nvb(data, models[0])
                nvb_outcomes = decide_across_h(q_nvb, models, nvb_diag)
            except NumericalError as exc:
                nvb_outcomes = [exc] * len(models)
        for model, nvb, root in zip(models, nvb_outcomes, roots):
            records.extend(_cell(rule, n, model, data, grid, nvb, root) for rule in config.rules)
        failed = ", ".join(
            f"{r.rule.value} h={r.h:g} ({r.reason})" for r in records[first:] if r.failed
        )
        logger.debug("path %d, n=%d: failed cells: %s", path_index, n, failed or "none")
    return records


def _cell(rule: Rule, n: int, model: NewsvendorModel, data, grid, nvb, root) -> GapRecord:
    """One (rule, h, n) cell's gaps, or its failure with the reason. ``grid``
    (None without Bayes) is a reason where it failed; ``nvb`` (None without
    one) and ``root`` are the NVB decision and the Bayes root at this h, or
    the error that failed each."""

    def failure(reason: str) -> GapRecord:
        return GapRecord(rule, model.h, n, math.nan, math.nan, failed=True, reason=reason)

    needed = grid if rule is Rule.BAYES else nvb
    if isinstance(needed, str):
        return failure(needed)
    if isinstance(needed, NumericalError):
        return failure(f"NVB: {needed}")
    try:
        if rule is Rule.BAYES:
            outcome = bayes_decision(grid, model, root=root)
        elif rule is Rule.NVB:
            outcome = nvb
        else:
            outcome = lcvb_decide(data, model, nvb_start=nvb)
    except NumericalError as exc:
        return failure(f"{'Bayes' if rule is Rule.BAYES else 'LCVB'}: {exc}")
    return GapRecord(rule, model.h, n, *optimality_gap(outcome, model))


def nearest_rank_quantile(values, level: float) -> float:
    """ceil(level * N)-th order statistic, no interpolation."""
    if not 0.0 < level < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("cannot take a quantile of an empty sample")
    rank = min(max(math.ceil(level * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> list[QuantileCurve]:
    """Execute all paths and aggregate per-(rule, h, n) gap quantiles.

    Paths are independent work units; with jobs > 1 they run in a pool of
    min(jobs, replications) processes. Aggregation is keyed
    deterministically, so the output does not depend on the execution
    order or the number of workers. Cells whose failure count exceeds half
    the replications get their quantiles marked missing with a warning.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    indices = range(config.replications)
    workers = min(jobs, config.replications)
    if workers > 1:
        chunksize = max(1, config.replications // (4 * workers))
        # Looked up here: the attribute's first access imports multiprocessing.
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_path = list(
                pool.map(partial(simulate_path, config), indices, chunksize=chunksize)
            )
    else:
        per_path = [simulate_path(config, i) for i in indices]

    gaps_action: dict[tuple, list[float]] = defaultdict(list)
    gaps_regret: dict[tuple, list[float]] = defaultdict(list)
    failure_counts: Counter = Counter()
    for records in per_path:
        for record in records:
            key = (record.rule, record.h, record.n)
            if record.failed:
                failure_counts[key] += 1
            else:
                gaps_action[key].append(record.gap_action)
                gaps_regret[key].append(record.gap_regret)

    curves = []
    for rule in config.rules:
        for h in config.h_values:
            points = []
            for n in config.n_schedule:
                key = (rule, h, n)
                gaps_a, gaps_r = gaps_action[key], gaps_regret[key]
                failures = failure_counts[key]
                if failures > 0.5 * config.replications:
                    logger.warning(
                        "cell (%s, h=%g, n=%d) has %d/%d failures; quantile marked missing",
                        rule.value,
                        h,
                        n,
                        failures,
                        config.replications,
                    )
                    qa = qr = None
                else:
                    qa = nearest_rank_quantile(gaps_a, config.quantile_level)
                    qr = nearest_rank_quantile(gaps_r, config.quantile_level)
                points.append(
                    CurvePoint(
                        n=n,
                        gap_action_q=qa,
                        gap_regret_q=qr,
                        replications=len(gaps_a),
                        failures=failures,
                    )
                )
            curves.append(
                QuantileCurve(
                    rule=rule, h=h, quantile_level=config.quantile_level, points=tuple(points)
                )
            )
    return curves


def estimate_rate(curve: QuantileCurve) -> float:
    """Least-squares slope of log(gap quantile) against log(n)."""
    pairs = [
        (point.n, point.gap_action_q)
        for point in curve.points
        if point.gap_action_q is not None and point.gap_action_q > 0
    ]
    if len(pairs) < 3:
        raise ValueError("rate estimation needs at least 3 points with positive quantiles")
    log_n = np.log([n for n, _ in pairs])
    log_q = np.log([q for _, q in pairs])
    slope, _ = np.polyfit(log_n, log_q, 1)
    return float(slope)


def _format_field(value) -> str:
    return "" if value is None else repr(float(value))


def write_results(
    curves,
    destination,
    config: ExperimentConfig,
    started_at: str | None = None,
    duration_seconds: float = 0.0,
) -> tuple[Path, Path]:
    """Write ``<stem>.csv`` and ``<stem>.manifest.json``.

    The CSV is UTF-8 with LF line endings, '.' decimals and shortest
    round-trip float formatting, so identical curves always serialize to
    identical bytes. The manifest echoes the configuration, seed, start
    time, duration, and the tool, Python and numpy versions.
    """
    if not curves:
        raise ValueError("refusing to write an empty result set")
    stem = Path(destination)
    stem.parent.mkdir(parents=True, exist_ok=True)
    csv_path = stem.with_name(stem.name + ".csv")
    manifest_path = stem.with_name(stem.name + ".manifest.json")

    lines = [CSV_HEADER]
    for curve in curves:
        for point in curve.points:
            lines.append(
                ",".join(
                    [
                        curve.rule.value,
                        repr(float(curve.h)),
                        str(point.n),
                        repr(float(curve.quantile_level)),
                        _format_field(point.gap_action_q),
                        _format_field(point.gap_regret_q),
                        str(point.replications),
                        str(point.failures),
                    ]
                )
            )
    try:
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        manifest = {
            "config": config.to_dict(),
            "seed": config.master_seed,
            "started_at": started_at or datetime.now(timezone.utc).isoformat(),
            "duration_seconds": duration_seconds,
            "tool_version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise OSError(f"failed to write results under {stem}: {exc}") from exc
    return csv_path, manifest_path


def read_results(csv_path) -> list[QuantileCurve]:
    """Parse a results CSV back into quantile curves (inverse of write)."""
    text = Path(csv_path).read_text(encoding="utf-8")
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected results header in {csv_path}")
    grouped: dict[tuple[Rule, float, float], list[CurvePoint]] = {}
    order: list[tuple[Rule, float, float]] = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"malformed results row: {line!r}")
        rule = _parse_rule(fields[0])
        h = float(fields[1])
        level = float(fields[3])
        point = CurvePoint(
            n=int(fields[2]),
            gap_action_q=float(fields[4]) if fields[4] else None,
            gap_regret_q=float(fields[5]) if fields[5] else None,
            replications=int(fields[6]),
            failures=int(fields[7]),
        )
        key = (rule, h, level)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(point)
    return [
        QuantileCurve(rule=rule, h=h, quantile_level=level, points=tuple(grouped[(rule, h, level)]))
        for rule, h, level in order
    ]
