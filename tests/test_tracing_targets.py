"""The benchmark's tracer wraps package functions by name; every name must resolve.

``perfbench/tracing.py`` is loaded from its file and only read: a renamed or
removed function would otherwise crash every traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_function(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = tracing.IN_PROCESS_TARGETS + tracing.HARNESS_TARGETS
    assert targets
    unresolved = [
        f"{module}.{attribute}"
        for module, attribute, *_ in targets
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert unresolved == []
