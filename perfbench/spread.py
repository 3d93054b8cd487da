#!/usr/bin/env python3
"""Spread of each metric across benchmark runs.

Usage (from the repository root):

    python3 perfbench/spread.py [--last N] [--workload W]

Reads the per-run files perfbench/run.py writes under
.bench_build/perfbench/results/, groups them by workload and trace mode,
and prints for each metric the median, quartiles and interquartile range
over median of the per-run values (each run reports the median of its
units). End-to-end metrics are compared with their bound in
BENCHMARK.json: a spread under a third of the bound is marked "steady".
"""

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_build", "perfbench", "results")


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    except (OSError, ValueError, KeyError):
        return {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--last", type=int, default=0,
                        help="use only the newest N runs of each workload and mode")
    parser.add_argument("--workload", help="only this workload")
    args = parser.parse_args()

    groups = {}
    for path in sorted(glob.glob(os.path.join(RESULTS, "*.json")), key=os.path.getmtime):
        with open(path) as f:
            run = json.load(f)
        if args.workload and run["workload"] != args.workload:
            continue
        groups.setdefault((run["workload"], run["trace"]), []).append(run)

    limits = bounds()
    for (workload, trace), runs in sorted(groups.items()):
        if args.last:
            runs = runs[-args.last:]
        seeds = sorted({r["seed"] for r in runs})
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload} trace={trace}: {len(runs)} runs, seeds {seeds}, "
              f"failed {failed}/{attempted}, all correct: {all(r['correct'] for r in runs)}")
        for name in runs[-1]["spread"]:
            values = [r["spread"][name]["median"] for r in runs if name in r["spread"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            rel = (q3 - q1) / med if med else 0.0
            note = ""
            if name in limits:
                note = f"bound {limits[name]:.2f} " + (
                    "steady" if rel < limits[name] / 3 else
                    "within bound" if rel <= limits[name] else "TOO NOISY")
            print(f"  {name:28s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"iqr/median {rel:6.1%}  {note}")


if __name__ == "__main__":
    main()
