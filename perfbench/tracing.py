"""In-memory spans around newsvb's layers, for the benchmark's traced runs.

Spans are recorded by replacing module-level functions at the names their
callers look up (``newsvb.experiment.lcvb_decide``, ``newsvb.vb.ascend``,
...), so no file of the package changes. Each span keeps its name, start,
end, parent and a few counts taken from the call's arguments or result;
spans stay in memory until the run ends, and self time is computed from
them afterwards. Only the calling process is traced: paths run in a
process pool are not.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from newsvb.numerics import NumericalError

ASCEND = "numerics.ascend"
UNIT = "bench.unit"


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the innermost open span is every new span's parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        self.spans[index].start = perf_counter()
        return index

    def _end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield self.spans[index]
        finally:
            self._end(index)

    def wrap(self, function, name: str, on_args=None, on_result=None):
        """``function`` with a span around each call.

        ``on_args(span, args)`` may replace the positional arguments;
        ``on_result(tracer, index, result)`` reads counts from the result.
        A call that raises ``NumericalError`` marks its span failed.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._begin(name)
            if on_args is not None:
                args = on_args(self.spans[index], args)
            try:
                result = function(*args, **kwargs)
            except NumericalError:
                self.spans[index].failed = True
                raise
            finally:
                self._end(index)
            if on_result is not None:
                on_result(self, index, result)
            return result

        return traced


def _count_evaluations(span, args):
    value_and_grad = args[0]
    span.attrs["evals"] = 0

    def counted(x):
        span.attrs["evals"] += 1
        return value_and_grad(x)

    return (counted,) + tuple(args[1:])


def _ascent_point(tracer, index, result):
    tracer.spans[index].attrs["x"] = (float(result.x[0]), float(result.x[1]))


def _fit(tracer, index, result):
    q, diagnostics = result
    span = tracer.spans[index]
    span.attrs["iterations"] = diagnostics.iterations
    span.attrs["restarts"] = diagnostics.restarts_used
    span.attrs["converged"] = diagnostics.converged
    # The fit returns the member of exactly one of its ascents.
    span.attrs["useful"] = any(
        child.parent == index
        and child.name == ASCEND
        and "x" in child.attrs
        and child.attrs["x"][0] == q.mu
        and math.exp(child.attrs["x"][1]) == q.sigma
        for child in tracer.spans[index + 1 :]
    )


def _probes(tracer, index, outcome):
    tracer.spans[index].attrs["probes"] = outcome.probe_count


def _clamped(tracer, index, objective):
    tracer.spans[index].attrs["clamped"] = objective.clamped


def _golden_evaluations(tracer, index, result):
    tracer.spans[index].attrs["evals"] = result[2]


def _written_bytes(tracer, index, result):
    tracer.spans[index].attrs["bytes"] = result[0].stat().st_size


# (module, attribute its callers look up, span name, on_args, on_result)
IN_PROCESS_TARGETS = (
    ("newsvb.experiment", "simulate_path", "experiment.simulate_path", None, None),
    ("newsvb.experiment", "sample_demand", "model.sample_demand", None, None),
    ("newsvb.model", "sample_demand", "model.sample_demand", None, None),
    ("newsvb.experiment", "build_posterior", "oracle.build_posterior", None, None),
    ("newsvb.oracle", "build_posterior", "oracle.build_posterior", None, None),
    ("newsvb.experiment", "fit_nvb", "vb.fit_nvb", None, _fit),
    ("newsvb.decisions", "fit_nvb", "vb.fit_nvb", None, _fit),
    ("newsvb.decisions", "nvb_decide", "decisions.nvb_decide", None, None),
    (
        "newsvb.experiment",
        "decide_with_variational",
        "decisions.decide_with_variational",
        None,
        _probes,
    ),
    (
        "newsvb.decisions",
        "decide_with_variational",
        "decisions.decide_with_variational",
        None,
        _probes,
    ),
    ("newsvb.experiment", "lcvb_decide", "decisions.lcvb_decide", None, _probes),
    ("newsvb.decisions", "lcvb_decide", "decisions.lcvb_decide", None, _probes),
    ("newsvb.experiment", "bayes_decision", "oracle.bayes_decision", None, _probes),
    ("newsvb.oracle", "bayes_decision", "oracle.bayes_decision", None, _probes),
    ("newsvb.decisions", "fit_lcvb", "vb.fit_lcvb", None, _fit),
    ("newsvb.decisions", "calibrated_objective", "vb.calibrated_objective", None, _clamped),
    (
        "newsvb.decisions",
        "golden_section_minimize",
        "numerics.golden_section_minimize",
        None,
        _golden_evaluations,
    ),
    (
        "newsvb.decisions",
        "minimize_on_grid_then_golden",
        "numerics.minimize_on_grid_then_golden",
        None,
        None,
    ),
    (
        "newsvb.oracle",
        "minimize_on_grid_then_golden",
        "numerics.minimize_on_grid_then_golden",
        None,
        None,
    ),
    ("newsvb.vb", "ascend", ASCEND, _count_evaluations, _ascent_point),
)

# Called by the benchmark itself; safe to wrap while a process pool runs,
# because the pool pickles only ``simulate_path``.
HARNESS_TARGETS = (
    ("newsvb.experiment", "run_experiment", "experiment.run_experiment", None, None),
    ("newsvb.experiment", "write_results", "experiment.write_results", None, _written_bytes),
)


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attribute, name, on_args, on_result in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, tracer.wrap(original, name, on_args, on_result))
        yield tracer
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer.
PER_LAYER = {
    "decisions.lcvb_decide.calls": ("count", "lower"),
    "decisions.lcvb_decide.us_per_call": ("us", "lower"),
    "decisions.lcvb_decide.self_us_per_call": ("us", "lower"),
    "decisions.lcvb_decide.probes_per_call": ("count", "lower"),
    "decisions.lcvb_decide.share_of_unit": ("ratio", "lower"),
    "vb.fit_lcvb.calls": ("count", "lower"),
    "vb.fit_lcvb.us_per_call": ("us", "lower"),
    "vb.fit_lcvb.iterations_per_call": ("count", "lower"),
    "vb.fit_lcvb.nonconverged": ("count", "lower"),
    "vb.fit_lcvb.failures": ("count", "lower"),
    "vb.calibrated_objective.calls": ("count", "lower"),
    "vb.calibrated_objective.us_per_call": ("us", "lower"),
    "vb.calibrated_objective.clamped": ("count", "lower"),
    "numerics.ascend.calls": ("count", "lower"),
    "numerics.ascend.evals_per_call": ("count", "lower"),
    "numerics.ascend.us_per_eval": ("us", "lower"),
    "numerics.ascend.in_fit_lcvb.calls": ("count", "lower"),
    "numerics.ascend.in_fit_lcvb.evals_per_call": ("count", "lower"),
    "numerics.ascend.in_fit_lcvb.us_per_eval": ("us", "lower"),
    "numerics.ascend.in_fit_nvb.calls": ("count", "lower"),
    "numerics.ascend.in_fit_nvb.evals_per_call": ("count", "lower"),
    "numerics.ascend.in_fit_nvb.us_per_eval": ("us", "lower"),
    "vb.fit_nvb.calls": ("count", "lower"),
    "vb.fit_nvb.us_per_call": ("us", "lower"),
    "vb.fit_nvb.iterations_per_call": ("count", "lower"),
    "vb.fit_nvb.restarts_per_call": ("count", "lower"),
    "vb.fit_nvb.nonconverged": ("count", "lower"),
    "vb.fit_nvb.useful_ascent_frac": ("ratio", "higher"),
    "oracle.bayes_decision.calls": ("count", "lower"),
    "oracle.bayes_decision.us_per_call": ("us", "lower"),
    "oracle.bayes_decision.probes_per_call": ("count", "lower"),
    "decisions.decide_with_variational.calls": ("count", "lower"),
    "decisions.decide_with_variational.us_per_call": ("us", "lower"),
    "decisions.decide_with_variational.probes_per_call": ("count", "lower"),
    "numerics.minimize_on_grid_then_golden.calls": ("count", "lower"),
    "numerics.minimize_on_grid_then_golden.us_per_call": ("us", "lower"),
    "numerics.golden_section_minimize.calls": ("count", "lower"),
    "numerics.golden_section_minimize.evals_per_call": ("count", "lower"),
    "oracle.build_posterior.calls": ("count", "lower"),
    "oracle.build_posterior.us_per_call": ("us", "lower"),
    "model.sample_demand.calls": ("count", "lower"),
    "model.sample_demand.us_per_call": ("us", "lower"),
    "experiment.simulate_path.calls": ("count", "lower"),
    "experiment.simulate_path.self_us_per_path": ("us", "lower"),
    "experiment.simulate_path.s_p50": ("s", "lower"),
    "experiment.run_experiment.aggregate_s": ("s", "lower"),
    "experiment.pool.efficiency": ("ratio", "higher"),
    "experiment.write_results.us": ("us", "lower"),
    "experiment.write_results.bytes": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.units": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.throughput_per_s": ("1/s", "higher"),
    "trace.unit_ref_p50": ("x", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 for a layer that never ran."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times from a finished trace.

    Rates of a layer that never ran in the traced process read 0. Shares
    are taken over the benchmark's own unit spans.
    """
    groups: dict[str, list[int]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    for index, span in enumerate(spans):
        groups[span.name].append(index)
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    def calls(name):
        return len(groups[name])

    def total(name):
        return sum(spans[i].duration for i in groups[name])

    def self_total(name):
        return sum(spans[i].duration - child_time[i] for i in groups[name])

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in groups[name])

    def per_call_us(name):
        return 1e6 * _ratio(total(name), calls(name))

    def ascents(parent_name):
        chosen = [
            i
            for i in groups[ASCEND]
            if parent_name is None or spans[spans[i].parent].name == parent_name
        ]
        evals = sum(spans[i].attrs["evals"] for i in chosen)
        seconds = sum(spans[i].duration for i in chosen)
        return len(chosen), _ratio(evals, len(chosen)), 1e6 * _ratio(seconds, evals)

    out: dict[str, float] = {}
    lcvb, fit_lcvb, fit_nvb = "decisions.lcvb_decide", "vb.fit_lcvb", "vb.fit_nvb"
    out[f"{lcvb}.calls"] = calls(lcvb)
    out[f"{lcvb}.us_per_call"] = per_call_us(lcvb)
    out[f"{lcvb}.self_us_per_call"] = 1e6 * _ratio(self_total(lcvb), calls(lcvb))
    out[f"{lcvb}.probes_per_call"] = _ratio(attr_sum(lcvb, "probes"), calls(lcvb))
    out[f"{lcvb}.share_of_unit"] = _ratio(total(lcvb), total(UNIT))

    out[f"{fit_lcvb}.calls"] = calls(fit_lcvb)
    out[f"{fit_lcvb}.us_per_call"] = per_call_us(fit_lcvb)
    out[f"{fit_lcvb}.iterations_per_call"] = _ratio(
        attr_sum(fit_lcvb, "iterations"), calls(fit_lcvb)
    )
    out[f"{fit_lcvb}.nonconverged"] = sum(
        1 for i in groups[fit_lcvb] if not spans[i].failed and not spans[i].attrs["converged"]
    )
    out[f"{fit_lcvb}.failures"] = sum(1 for i in groups[fit_lcvb] if spans[i].failed)

    objective = "vb.calibrated_objective"
    out[f"{objective}.calls"] = calls(objective)
    out[f"{objective}.us_per_call"] = per_call_us(objective)
    out[f"{objective}.clamped"] = attr_sum(objective, "clamped")

    for suffix, parent_name in (("", None), (".in_fit_lcvb", fit_lcvb), (".in_fit_nvb", fit_nvb)):
        count, evals_per_call, us_per_eval = ascents(parent_name)
        out[f"{ASCEND}{suffix}.calls"] = count
        out[f"{ASCEND}{suffix}.evals_per_call"] = evals_per_call
        out[f"{ASCEND}{suffix}.us_per_eval"] = us_per_eval

    out[f"{fit_nvb}.calls"] = calls(fit_nvb)
    out[f"{fit_nvb}.us_per_call"] = per_call_us(fit_nvb)
    out[f"{fit_nvb}.iterations_per_call"] = _ratio(attr_sum(fit_nvb, "iterations"), calls(fit_nvb))
    out[f"{fit_nvb}.restarts_per_call"] = _ratio(attr_sum(fit_nvb, "restarts"), calls(fit_nvb))
    out[f"{fit_nvb}.nonconverged"] = sum(
        1 for i in groups[fit_nvb] if not spans[i].failed and not spans[i].attrs["converged"]
    )
    nvb_ascents = sum(1 for i in groups[ASCEND] if spans[spans[i].parent].name == fit_nvb)
    out[f"{fit_nvb}.useful_ascent_frac"] = _ratio(attr_sum(fit_nvb, "useful"), nvb_ascents)

    for name in ("oracle.bayes_decision", "decisions.decide_with_variational"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.us_per_call"] = per_call_us(name)
        out[f"{name}.probes_per_call"] = _ratio(attr_sum(name, "probes"), calls(name))

    for name in (
        "numerics.minimize_on_grid_then_golden",
        "oracle.build_posterior",
        "model.sample_demand",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.us_per_call"] = per_call_us(name)

    golden = "numerics.golden_section_minimize"
    out[f"{golden}.calls"] = calls(golden)
    out[f"{golden}.evals_per_call"] = _ratio(attr_sum(golden, "evals"), calls(golden))

    path = "experiment.simulate_path"
    out[f"{path}.calls"] = calls(path)
    out[f"{path}.self_us_per_path"] = 1e6 * _ratio(self_total(path), calls(path))
    path_seconds = [spans[i].duration for i in groups[path]]
    out[f"{path}.s_p50"] = statistics.median(path_seconds) if path_seconds else 0.0

    # Time a jobs=1 run spends outside its paths: seeding, aggregation, quantiles.
    serial = [i for i in groups["experiment.run_experiment"] if child_time[i] > 0]
    out["experiment.run_experiment.aggregate_s"] = _ratio(
        sum(spans[i].duration - child_time[i] for i in serial), len(serial)
    )

    writes = "experiment.write_results"
    out[f"{writes}.us"] = per_call_us(writes)
    out[f"{writes}.bytes"] = _ratio(attr_sum(writes, "bytes"), calls(writes))

    out["trace.units"] = calls(UNIT)
    out["trace.spans"] = len(spans)
    return out
