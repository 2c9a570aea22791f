#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's median and spread.

Run from the repository root:

    python3 perfbench/collect.py --first-seed 10
    python3 perfbench/collect.py --traced --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` it runs ``run.py`` once for each of
ten seeds, one run at a time, for ``run_seconds``. The spread of a metric is
the distance between the first and third quartiles of its values, as
``statistics.quantiles(values, n=4)`` gives them, over their median. A spread
at or above a third of the metric's bound is flagged, and one above the
bound, for any metric but ``setup_s``, makes the exit status 1. ``--traced``
adds one traced run per workload, with the tracer's own figures, and ``--out``
writes all of it as a baseline.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """One benchmark run; returns its result line, its machine record and the
    values of its ``metric`` report lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line[8:]) for line in lines if line.startswith("machine "))
    reported = {
        fields[1]: float(fields[2])
        for fields in (line.split() for line in lines if line.startswith("metric "))
    }
    return json.loads(lines[-1]), machine, reported


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            result, machine, _ = run_once(name, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect, {result['failed']} of "
                      f"{result['attempted']} ops failed")
                steady = False
            results.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"machine": machine, "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for metric, bound in bounds.items():
            stats = summarise([r["metrics"][metric]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- spread >= bound/3"
            # setup_s is mostly interpreter start and imports, which swing with
            # the host's speed more than the ops do; its median is compared
            # between batches, not its spread within one.
            if metric != "setup_s" and stats["spread"] > bound:
                steady = False
            print(f"  {name:12s} {metric:12s} median {stats['median']:.5g} {stats['unit']} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}")
        if args.traced:
            traced, _, reported = run_once(name, seeds[0], spec["run_seconds"], 1)
            steady = steady and traced["correct"]
            entry["traced"] = {"seed": seeds[0], "correct": traced["correct"],
                               "per_layer": traced["metrics"],
                               "trace": {k: v for k, v in reported.items()
                                         if k.startswith("trace.")}}
        summary["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
