#!/usr/bin/env python3
"""Run the benchmark several times per workload and record each spread.

Run from the repository root::

    python3 repobench/steadiness.py --out repobench/STEADINESS.json

For each of :data:`SETS` sets and each workload, runs
``BENCHMARK.json``'s command once per seed (seeds ``1..``:data:`RUNS`),
one run at a time, and reports for every end-to-end metric its median
and its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound.  It also reports how much worse the second set's
median is than the first set's, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Runs (seeds) per workload in one set, and sets per record.
RUNS = 10
SETS = 2


def run_once(command, workload, seed, seconds, trace=0):
    """One benchmark run; returns its parsed result line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("{} seed {} exited {}:\n{}".format(
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Interquartile distance over the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(bench):
    """One set: :data:`RUNS` seeds per workload; returns the per-workload rows."""
    metrics = bench["end_to_end"]
    out = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in range(1, RUNS + 1):
            start = time.perf_counter()
            result = run_once(bench["command"], workload, seed, bench["run_seconds"])
            walls.append(time.perf_counter() - start)
            if not result["correct"] or result["failed"]:
                raise RuntimeError("{} seed {} failed its checks".format(workload, seed))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for m in metrics:
            samples = values[m["name"]]
            rows[m["name"]] = {"median": statistics.median(samples),
                               "spread": spread(samples), "bound": m["bound"],
                               "values": samples}
            print("{:<16} {:<24} median {:>14.4f}  spread {:6.3f}  bound {:4.2f}".format(
                workload, m["name"], rows[m["name"]]["median"],
                rows[m["name"]]["spread"], m["bound"]), flush=True)
        print("{:<16} run wall s: median {:.1f} max {:.1f}".format(
            workload, statistics.median(walls), max(walls)), flush=True)
        out[workload] = {"metrics": rows, "run_wall_s": walls}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    sets = []
    for index in range(SETS):
        print("set {}".format(index + 1), flush=True)
        sets.append(run_set(bench))
    worse = {}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    for later in sets[1:]:
        for workload, data in later.items():
            for name, row in data["metrics"].items():
                first = sets[0][workload]["metrics"][name]["median"]
                change = (row["median"] - first) / first
                if better[name] == "higher":
                    change = -change
                worse.setdefault(workload, {}).setdefault(name, []).append(change)
                print("{:<16} {:<24} later set worse by {:+.3f}  bound {:4.2f}".format(
                    workload, name, change, row["bound"]))
    if args.out:
        record = {"runs": RUNS, "run_seconds": bench["run_seconds"],
                  "command": bench["command"], "sets": sets,
                  "later_set_worse_by": worse}
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
