"""Run one newsvb benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py`` and listed, with why each exists,
in ``BENCHMARK.json``. With ``--trace 0`` the run measures the end-to-end
metrics for ``--seconds`` seconds of closed-loop units. With ``--trace 1``
it runs a fixed, seed-determined number of units (sized to take about
``--seconds`` here) with spans around every layer, so its counts repeat
exactly, and reports the per-layer metrics. Outputs are checked after the
timed region; a failed check prints ``"correct": false`` and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the environment and the detail figures by name; the same record is
written to ``perfbench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import monotonic, perf_counter

import _env

_env.bootstrap()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import newsvb  # noqa: E402

_env.check_package(newsvb)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def git_revision() -> str:
    """Commit of the checkout, read from its ``.git`` directory when present."""
    git_dir = _env.ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "newsvb": newsvb.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "seed": seed,
        "thread_env": dict(_env.THREAD_ENV),
    }


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median (setup_s, import_s) over fresh processes doing this run's set-up."""
    setups, imports = [], []
    for _ in range(SETUP_SAMPLES):
        spawned = monotonic()
        probe = subprocess.run(
            [sys.executable, str(_env.BENCH_DIR / "setup_probe.py"), workload, str(seed), repr(spawned)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        sample = json.loads(probe.stdout.strip().splitlines()[-1])
        setups.append(sample["setup_s"])
        imports.append(sample["import_s"])
    return statistics.median(setups), statistics.median(imports)


def tail(values: list[float], scale: float = 1.0) -> float | None:
    """p90 of ``values`` when at least TAIL_SAMPLES lie beyond it."""
    if len(values) < 10 * TAIL_SAMPLES:
        return None
    return scale * statistics.quantiles(values, n=10)[8]


def reference_seconds() -> float:
    """Wall time of a fixed computation that does not use newsvb.

    A loop of small-array numpy calls and one 512 x 256 vectorized
    exponential: the two kinds of work the package's layers do, so the
    computation slows with the package when the shared machine does.
    """
    start = perf_counter()
    nodes = np.linspace(-3.0, 3.0, 64)
    total = 0.0
    for i in range(300):
        values = np.exp(1e-3 * i + 0.5 * nodes)
        total += float(values @ nodes) + math.exp(-1e-3 * i)
    actions = np.linspace(0.0, 50.0, 512)
    rates = np.linspace(0.5, 1.0, 256)
    total += float(np.exp(-np.outer(actions, rates)).sum())
    return perf_counter() - start


def run_loop(runner, seconds: int, units: int | None, tracer: tracing.Tracer | None):
    """Closed loop of units: ``units`` of them, or until ``seconds`` have passed.

    A timed run may overrun ``seconds`` by its last unit. The reference
    computation runs before the first unit and after every unit, so each
    unit's time can be set against the machine's speed at that moment.
    Returns (work completed, seconds spent in units, unit seconds, unit
    seconds relative to the reference computation around them).
    """
    latencies, references, completed, index = [], [reference_seconds()], 0, 0
    start = perf_counter()
    while True:
        unit_start = perf_counter()
        with tracer.span(tracing.UNIT) if tracer else nullcontext():
            completed += runner.run_unit(index)
        now = perf_counter()
        latencies.append(now - unit_start)
        references.append(reference_seconds())
        index += 1
        if index == units or (units is None and now - start >= seconds):
            break
    relative = [
        unit / (0.5 * (before + after))
        for unit, before, after in zip(latencies, references, references[1:])
    ]
    return completed, sum(latencies), latencies, relative


def peak_rss_mb(jobs: int) -> float:
    """Peak resident set of this process, plus ``jobs`` pool workers when jobs > 1.

    A worker's peak is taken as the largest of any finished child, so at
    jobs > 1 this is an upper bound on the processes' combined peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        own += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def detail_figures(runner, completed, elapsed, latencies, attempted, failed) -> dict:
    """Raw figures by name, each with its unit and sample count."""
    out = {"failed_frac": (failed / attempted, "ratio", attempted)}
    if runner.is_study:
        out["paths_per_s"] = (completed / elapsed, "1/s", completed)
        if runner.spec.jobs == 1:  # one path per unit
            out["path_s_p50"] = (statistics.median(latencies), "s", len(latencies))
            p90 = tail(latencies)
            if p90 is not None:
                out["path_s_p90"] = (p90, "s", len(latencies))
    else:
        out["datasets_per_s"] = (completed / elapsed, "1/s", completed)
        for rule, seconds in runner.rule_seconds.items():
            out[f"{rule}_ms_p50"] = (1e3 * statistics.median(seconds), "ms", len(seconds))
            p90 = tail(seconds, 1e3)
            if p90 is not None:
                out[f"{rule}_ms_p90"] = (p90, "ms", len(seconds))
    out["unit_ms_p50"] = (1e3 * statistics.median(latencies), "ms", len(latencies))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment(args.seed)
    setup_s, import_s = measure_setup(args.workload, args.seed)
    workloads.prepare(args.workload, args.seed)

    work_root = _env.BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        runner = workloads.Runner(args.workload, args.seed, workdir=Path(workdir))
        if args.trace:
            tracer = tracing.Tracer()
            # Only the calling process is traced: a pool pickles simulate_path.
            targets = tracing.HARNESS_TARGETS
            if runner.spec.jobs == 1:
                targets += tracing.IN_PROCESS_TARGETS
            unit_count = max(1, round(args.seconds * runner.spec.trace_units_per_s))
            with tracing.installed(tracer, targets):
                completed, elapsed, latencies, relative = run_loop(
                    runner, args.seconds, unit_count, tracer
                )
        else:
            completed, elapsed, latencies, relative = run_loop(runner, args.seconds, None, None)
        problems, check_details = runner.check()
    attempted, failed = runner.counts()

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["cli.import_s"] = import_s
        metrics["trace.throughput_per_s"] = completed / elapsed
        metrics["trace.unit_ref_p50"] = statistics.median(relative)
        serial_unit_s = check_details.get("serial_unit_s")
        metrics["experiment.pool.efficiency"] = (
            serial_unit_s / (runner.spec.jobs * latencies[0]) if serial_unit_s else 0.0
        )
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        metrics = {name: metrics[name] for name in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": setup_s,
            "unit_ref_p50": statistics.median(relative),
            "peak_rss_mb": peak_rss_mb(runner.spec.jobs),
        }
        units = {"setup_s": "s", "unit_ref_p50": "x", "peak_rss_mb": "MB"}
    details = detail_figures(runner, completed, elapsed, latencies, attempted, failed)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, samples) in details.items():
        print(f"detail {name} {value:.6g} {unit} (n={samples})")
    for name, value in check_details.items():
        print(f"check {name} {value:.6g}")
    for problem in problems:
        print(f"check FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results_dir = _env.BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace, env=env)
    record["details"] = {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in details.items()}
    record["checks"] = {"problems": problems, **check_details}
    record["unit_seconds"] = latencies
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
