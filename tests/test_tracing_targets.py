"""The benchmark's files call the package by name; every name must resolve.

``perfbench/tracing.py`` and ``perfbench/workloads.py`` are loaded from
their files and only read: a renamed or removed function, argument or field
would otherwise crash every benchmark run instead of this suite.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_function(monkeypatch):
    tracing = load(monkeypatch, "tracing")
    targets = tracing.IN_PROCESS_TARGETS + tracing.HARNESS_TARGETS
    assert targets
    unresolved = [
        f"{module}.{attribute}"
        for module, attribute, *_ in targets
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert unresolved == []


@pytest.mark.parametrize("workload", ["study_lcvb", "study_bayes", "decide_single"])
def test_one_traced_unit_of_each_workload_runs_and_reports(workload, monkeypatch, tmp_path):
    # As a traced benchmark run does it, with one unit.
    tracing, workloads = load(monkeypatch, "tracing"), load(monkeypatch, "workloads")
    workloads.prepare(workload, 0)
    runner = workloads.Runner(workload, 0, workdir=tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.HARNESS_TARGETS + tracing.IN_PROCESS_TARGETS):
        with tracer.span(tracing.UNIT):
            assert runner.run_unit(0) == 1
    problems, _ = runner.check()
    assert problems == []
    assert runner.counts()[1] == 0  # nothing failed
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["trace.units"] == 1 and all(map(math.isfinite, metrics.values()))
    layer = "oracle.bayes_decision" if workload == "study_bayes" else "decisions.lcvb_decide"
    assert metrics[f"{layer}.calls"] >= 1
