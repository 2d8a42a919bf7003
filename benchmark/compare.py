#!/usr/bin/env python3
"""Compares two sets of untraced benchmark runs, parent against change.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the raw per-run JSON files that run.py writes
(<workload>.seed<N>.json), at least ten runs per workload, made as
alternating parent/change pairs with the same seeds on both sides. Prints
one row per workload and end-to-end metric: each side's median and
quartiles, the share of pairs the change wins, and a verdict.

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  the run-to-run spread (IQR / median, the wider side) exceeds
              the metric's bound in BENCHMARK.json, unless every change run
              beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

Exits 1 when any row is worse, 2 on bad input.
"""

import glob
import json
import os
import re
import statistics
import sys

MIN_PAIRS = 10
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{workload: {seed: metrics}} from the untraced runs in `directory`."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        if not re.search(r"\.seed\d+\.json$", path):
            continue  # Traced results and Chrome traces.
        with open(path) as f:
            run = json.load(f)
        if run.get("traced"):
            continue
        runs.setdefault(run["workload"], {})[run["seed"]] = run["metrics"]
    return runs


def verdict(parent, change, bound, higher_better):
    sign = 1.0 if higher_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    gap = sign * (c_med - p_med)  # > 0: the change is better.
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = (min(change) > max(parent) if higher_better
                  else max(change) < min(parent))
    if wins >= 0.9 * len(parent) and gap > p_q3 - p_q1:
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif -gap > bound * abs(p_med):
        result = "worse"
    else:
        result = "unchanged"
    return (p_med, p_q1, p_q3), (c_med, c_q1, c_q3), wins, result


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent_runs = load_runs(sys.argv[1])
    change_runs = load_runs(sys.argv[2])
    print("%-22s %-24s %34s %34s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    any_worse = False
    for workload in sorted(parent_runs):
        seeds = sorted(set(parent_runs[workload]) &
                       set(change_runs.get(workload, {})))
        if len(seeds) < MIN_PAIRS:
            print("%s: %d seed pairs, need %d" % (workload, len(seeds),
                                                  MIN_PAIRS), file=sys.stderr)
            return 2
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [parent_runs[workload][s][name] for s in seeds]
            change = [change_runs[workload][s][name] for s in seeds]
            p, c, wins, result = verdict(parent, change, metric["bound"],
                                         metric["better"] == "higher")
            any_worse = any_worse or result == "worse"
            print("%-22s %-24s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] "
                  "%2d/%-3d  %s" % (workload, name, *p, *c, wins, len(seeds),
                                    result))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
