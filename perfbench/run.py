#!/usr/bin/env python3
"""Benchmark for the ibcc-sim simulator: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_taxonomy --seed 1 --seconds 20 --trace 0

Builds perfbench_probe (perfbench/CMakeLists.txt) into .bench_build/perfbench
on first use, then runs one probe process per unit of work, back to back,
until --seconds have passed. Every unit re-derives its inputs from --seed, so
all units of a run simulate the same thing and must agree bit for bit.

--trace 0 reports the end-to-end metrics (medians over the units):
wall_s, setup_s, sim_us_per_s and peak_rss_mib. --trace 1 alternates
untraced units with traced ones (counter registry on, spans written to
.bench_build/perfbench/traces/) and reports the per-layer metrics.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Each run also writes its samples, spread and host block to
.bench_build/perfbench/results/; perfbench/spread.py summarises them across runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROBE = os.path.join(BUILD, "perfbench_probe")

MIN_UNITS = 3           # per kind of unit, however short --seconds is
LAST_START_S = 150.0    # start no unit after this ...
DEADLINE_S = 175.0      # ... and kill one still running here: a run ends within 180 s
UNIT_TIMEOUT_S = 120.0

# Median seconds of the probe's host-speed reference (probe.cpp,
# reference_s) on the 4-vCPU host the bounds were set on. Every end-to-end
# host time is reported at that speed: t * REFERENCE_S / ref_s, where ref_s
# is the reference timed in the unit's own process right after the unit.
# The raw times are printed and stored beside the scaled ones.
REFERENCE_S = 0.43


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    """Workload names and the (end-to-end, per-layer) name -> unit maps
    that BENCHMARK.json declares."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    """Configure once, then build incrementally; output goes to build.log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_probe"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def host_block(probe_host):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, **probe_host}


def run_unit(workload, seed, traced, budget_s):
    """One probe process; returns its parsed JSON, or None if it failed."""
    cmd = [PROBE, workload, str(seed), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, min(UNIT_TIMEOUT_S, budget_s)))
    except subprocess.TimeoutExpired:
        print(f"unit timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        print(f"unit exited {proc.returncode}: {' '.join(cmd)}", file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"unit printed no result: {' '.join(cmd)}", file=sys.stderr)
        return None


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(units):
    """Per-unit samples, host times scaled to the reference speed."""
    scale = [REFERENCE_S / u["ref_s"] for u in units]
    return {
        "wall_s": [u["wall_s"] * k for u, k in zip(units, scale)],
        "setup_s": [u["setup_s"] * k for u, k in zip(units, scale)],
        "sim_us_per_s": [u["sim_us"] / (u["run_s"] * k) for u, k in zip(units, scale)],
        "peak_rss_mib": [u["peak_rss_mib"] for u in units],
    }


def raw_times(units):
    """Unscaled host times and the reference, per unit."""
    return {key: [u[key] for u in units] for key in ("wall_s", "setup_s", "run_s", "ref_s")}


def per_layer(names, traced, untraced):
    """Per-layer samples of the traced units; a layer a workload lacks reads 0."""
    plain = statistics.median(u["wall_s"] / u["ref_s"] for u in untraced)
    layers = [dict(u["layers"], **{"trace.overhead": u["wall_s"] / u["ref_s"] / plain - 1.0,
                                   "host.ref_s": u["ref_s"]})
              for u in traced]
    return {name: [layer.get(name, 0.0) for layer in layers] for name in names}


def write_chrome_trace(path, traced):
    """Spans of the traced units as Chrome trace events, one pid per unit."""
    events = []
    for pid, unit in enumerate(traced):
        for span in unit["spans"]:
            events.append({"name": span["name"], "ph": "X", "pid": pid, "tid": 0,
                           "ts": span["start_s"] * 1e6,
                           "dur": (span["end_s"] - span["start_s"]) * 1e6})
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


def main():
    workloads, end_to_end_units, per_layer_units = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    start = time.monotonic()
    units = {False: [], True: []}
    crashed = 0
    kinds = (False, True) if args.trace else (False,)
    while True:
        elapsed = time.monotonic() - start
        done = all(len(units[k]) >= MIN_UNITS for k in kinds)
        if (done and elapsed >= args.seconds) or elapsed >= LAST_START_S:
            break
        # Alternate plain and traced units so both see the same host.
        traced = args.trace == 1 and len(units[True]) < len(units[False])
        unit = run_unit(args.workload, args.seed, traced, DEADLINE_S - elapsed)
        if unit is None:
            crashed += 1
            if crashed >= 2:
                break
            continue
        units[traced].append(unit)

    all_units = units[False] + units[True]
    problems = []
    for unit in all_units:
        problems += [f"{c['name']}: {c['detail']}" for c in unit["checks"] if not c["ok"]]
    for kind in kinds:
        digests = {u["digest"] for u in units[kind]}
        if len(digests) > 1:
            problems.append(f"units of one seed disagree (traced={kind}): {sorted(digests)}")
    attempted = sum(u["sims"] for u in all_units) + crashed
    failed = sum(u["failed_sims"] for u in all_units) + crashed
    if crashed or any(len(units[k]) == 0 for k in kinds):
        problems.append(f"{crashed} unit(s) crashed")
    correct = not problems and failed == 0

    host = host_block(all_units[0]["host"] if all_units else {})
    if args.trace:
        units_of = per_layer_units
        samples = (per_layer(units_of, units[True], units[False])
                   if units[True] and units[False] else {})
    else:
        units_of = end_to_end_units
        samples = end_to_end(units[False]) if units[False] else {}

    # Human-readable report: host, spread of every metric over the units,
    # and the output checks.
    print(f"host: {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(units[False])} plain + {len(units[True])} traced units "
          f"in {time.monotonic() - start:.1f} s")
    spread = {}
    for name in units_of:
        values = samples.get(name)
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        spread[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
        rel = (q3 - q1) / med if med else 0.0
        print(f"  {name:28s} median {med:14.6g} {units_of[name]:8s} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} iqr/median {rel:6.1%} n={len(values)}")
    raw = raw_times(all_units) if all_units else {}
    if raw:
        print("  raw host times (medians, unscaled): " + "  ".join(
            f"{key} {statistics.median(values):.6g}" for key, values in raw.items()))
    print(f"  failed_share {failed}/{attempted} = {failed / max(attempted, 1):.3f}")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    if units[True]:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        write_chrome_trace(os.path.join(BUILD, "traces", f"{tag}.json"), units[True])
    with open(os.path.join(BUILD, "results", f"{tag}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "host": host, "correct": correct,
                   "attempted": attempted, "failed": failed, "problems": problems,
                   "spread": spread, "samples": samples, "raw": raw}, f, indent=1)

    metrics = {name: {"value": spread[name]["median"], "unit": units_of[name]}
               for name in units_of if name in spread}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
