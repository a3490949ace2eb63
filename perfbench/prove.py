"""Repeat the benchmark over seeds and report each metric's spread.

Usage:
    python3 perfbench/prove.py [--runs 10] [--first-seed 1] [--workloads a,b]
                               [--traced 1] [--out perfbench/BENCH_baseline.json]

For every workload it makes ``--runs`` untraced runs, one per seed, and
prints each end-to-end metric's median, quartiles and spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json. With
``--traced 1`` it then makes two traced runs on the first seed, checks that
their counts are identical, and states the tracing overhead: one minus the
traced throughput over the median untraced throughput, and the same
from ``unit_ref_p50``, which the shared machine's speed swings disturb
less. ``--out`` writes
all of it, with the environment, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 200
# Per-layer metrics made only of counts; they must repeat exactly.
EXACT_UNITS = {"count", "bytes"}
EXACT_RATIOS = {"vb.fit_nvb.useful_ascent_frac"}


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (result line, results-file record)."""
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0]]
    command += spec["command"][1:]
    command += ["--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    record_path = BENCH_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record_path.read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True

    for workload in names:
        values = {name: [] for name in bounds}
        details: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result, record = run_once(spec, workload, seed, trace=0)
            if not result["correct"] or sorted(result["metrics"]) != sorted(bounds):
                raise SystemExit(f"{workload} seed {seed}: bad result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, detail in record["details"].items():
                details.setdefault(name, []).append(detail["value"])
            attempted += result["attempted"]
            failed += result["failed"]
            report["env"] = {k: v for k, v in record["env"].items() if k != "seed"}
        entry = {
            "end_to_end": {name: dict(spread(v), bound=bounds[name]) for name, v in values.items()},
            "details_median": {name: statistics.median(v) for name, v in details.items()},
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
        }
        print(f"{workload}: attempted {attempted}, failed {failed}")
        for name, stats in entry["end_to_end"].items():
            ok = name == "setup_s" or stats["spread"] < stats["bound"] / 3
            steady &= ok
            print(
                f"  {name:<18} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                f"q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f} "
                f"bound {stats['bound']}{'' if ok else '  <-- above bound/3'}"
            )

        if args.traced:
            first, _ = run_once(spec, workload, seeds[0], trace=1)
            second, _ = run_once(spec, workload, seeds[0], trace=1)
            if sorted(first["metrics"]) != sorted(layer_names):
                raise SystemExit(f"{workload}: traced metrics differ from BENCHMARK.json")
            exact = [
                name
                for name in layer_names
                if layer_units[name] in EXACT_UNITS or name in EXACT_RATIOS
            ]
            differing = [
                name
                for name in exact
                if first["metrics"][name]["value"] != second["metrics"][name]["value"]
            ]
            traced = statistics.mean(
                r["metrics"]["trace.throughput_per_s"]["value"] for r in (first, second)
            )
            untraced = entry["details_median"].get(
                "paths_per_s", entry["details_median"].get("datasets_per_s")
            )
            traced_ref = statistics.mean(
                r["metrics"]["trace.unit_ref_p50"]["value"] for r in (first, second)
            )
            untraced_ref = entry["end_to_end"]["unit_ref_p50"]["median"]
            entry["per_layer"] = {n: first["metrics"][n]["value"] for n in layer_names}
            entry["counts_repeat"] = not differing
            entry["tracing_overhead_frac"] = 1.0 - traced / untraced
            entry["tracing_overhead_ref_frac"] = traced_ref / untraced_ref - 1.0
            print(
                f"  traced: counts repeat {not differing} {differing or ''}; "
                f"overhead {entry['tracing_overhead_frac']:.3f} by throughput "
                f"(traced {traced:.4g}/s vs untraced median {untraced:.4g}/s), "
                f"{entry['tracing_overhead_ref_frac']:.3f} by unit_ref_p50; "
                f"lcvb_decide share {first['metrics']['decisions.lcvb_decide.share_of_unit']['value']:.3f}"
            )
        report["workloads"][workload] = entry

    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady: some spread is above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
