#!/usr/bin/env python3
"""Builds p2paqp_bench and runs the p2paqp benchmark.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out DIR] [--quick]

Without --workload every workload runs, each in its own process (so peak
RSS is per workload). Every metric is printed as `workload metric value
unit`; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace adds a traced pass after one
untraced pass, checks that both give the same answer digest, and reports
the per-layer metrics instead of the end-to-end ones. Raw per-run JSON,
Chrome traces and per-layer tables go to DIR (default benchmark/.out).
Exits non-zero when a correctness check fails or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, ".build")
BINARY = os.path.join(BUILD_DIR, "p2paqp_bench")
WORKLOADS = ["paper_sync", "scale10m_async", "multi_query_fullscan",
             "lossy_gnutella_async"]
# A run of a workload is one child process.
CHILD_TIMEOUT_S = 170

# Work inside an engine call that no child span covers, per root span: the
# probes that stand in for it when attributing the call's time.
BATCH_WIDTH = 8  # Queries per scheduler batch.
IN_ENGINE_PROBES = {
    "core.two_phase": ["probe.estimate"],
    "core.scheduler": ["probe.estimate", "probe.graph.neighbors"],
    "core.async": ["probe.estimate", "probe.graph.neighbors",
                   "probe.local_exec", "probe.event_queue"],
}

# Rows printed and saved with the per-layer table but not listed in
# BENCHMARK.json: times of layers that are idle on some workloads, and the
# failed share (0 wherever the run is correct).
BREAKDOWN_UNITS = {
    "sampling.walk.us_per_query": "us",
    "sampling.walk.ns_per_hop": "ns",
    "core.async.ns_per_event": "ns",
    "net.event_queue.ns_per_event": "ns",
    "core.freshness_cache.lookup_ns": "ns",
    "query.local_exec.us_per_batch": "us",
    "failed_ratio": "ratio",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds p2paqp_bench; False on a build failure."""
    jobs = str(nproc())
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs,
                  "--target", "p2paqp_bench"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, env=clean_env()).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def clean_env():
    """The caller's environment without stray P2PAQP_* knobs, with the
    library's pool pinned to min(4, nproc) lanes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("P2PAQP_")}
    env["P2PAQP_THREADS"] = str(min(4, nproc()))
    return env


def run_bench(workload, seed, seconds, quick, trace_file=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if quick:
        cmd.append("--quick")
    if trace_file:
        cmd += ["--trace", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def per(total, base):
    return total / base if base else 0.0


def layer_metrics(result):
    """Per-layer metrics of one workload from its traced run. Its untraced
    and traced passes gave the same digest, so the counts hold for both."""
    trace = result["trace"]
    spans = trace["spans"]
    probes = trace["probes"]
    history = trace["history"]
    counts = result["counts"]
    root = trace["root"]

    def ns(name):
        return spans.get(name, {}).get("total_ns", 0)

    queries = counts["queries"]
    probed = probes["queries"]  # The probes and the history cover these.
    answered = queries - counts["failed"]
    root_ns = ns(root)
    child_ns = spans[root]["child_ns"]
    probe_ns_per_query = per(sum(ns(p) for p in IN_ENGINE_PROBES[root]),
                             probed)
    if root == "core.async":  # Replayed on the probed queries only.
        local_ns = ns("probe.local_exec")
        local_ns_per_query = per(local_ns, probed)
        visits = probes["local_visits"]
        tuples = probes["local_tuples"]
    else:
        local_ns = ns("query.local_exec")
        local_ns_per_query = per(local_ns, queries)
        visits = spans.get("query.local_exec", {}).get("count", 0)
        tuples = counts["tuples_scanned"]
    frames = counts["frame_hits"] + counts["frame_misses"]
    lookups = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    lookup_span = spans.get("core.freshness_cache.lookup", {})
    m = {}
    for key in ("topology.build_s", "data.generate_s", "data.partition_s",
                "net.make_s", "core.catalog_s", "net.bytes_per_peer"):
        m[key] = result["setup"][key]
    m["core.engine.us_per_query"] = per(root_ns / 1e3, queries)
    m["core.engine.self_us_per_query"] = per((root_ns - child_ns) / 1e3,
                                             queries)
    m["core.engine.unattributed_share"] = max(0.0, 1.0 - per(
        child_ns / queries + probe_ns_per_query, root_ns / queries))
    m["sampling.hops_per_query"] = per(counts["walker_hops"], queries)
    m["graph.neighbors.ns_per_hop"] = per(ns("probe.graph.neighbors"),
                                          probes["hops"])
    m["query.local_exec.us_per_query"] = local_ns_per_query / 1e3
    m["query.local_exec.ns_per_visit"] = per(local_ns, visits)
    m["query.local_exec.ns_per_tuple"] = per(local_ns, tuples)
    m["core.estimate.us_per_query"] = per(ns("probe.estimate") / 1e3,
                                          probes["estimates"])
    m["core.phase2_peers_per_query"] = per(counts["phase2_peers"], answered)
    m["net.events_per_query"] = per(counts["events"], queries)
    m["core.async.drain_allocs_per_event"] = per(result["drain_allocs"],
                                                 counts["events"])
    m["net.drop_ratio"] = per(counts["messages_dropped"], counts["messages"])
    m["net.retransmits_per_query"] = per(history["retransmits"], probed)
    m["core.hedges_per_query"] = per(counts["hedges"], queries)
    m["sampling.straggler_skips_per_query"] = per(counts["straggler_skips"],
                                                  queries)
    m["core.duplicate_replies_per_query"] = per(counts["duplicate_replies"],
                                                queries)
    m["core.reply_useful_ratio"] = per(
        history["reply_delivers"] - history["reply_discards"],
        history["reply_sends"])
    m["core.deadline_hit_ratio"] = per(counts["deadline_hits"], queries)
    m["core.degraded_ratio"] = per(counts["degraded"], queries)
    m["core.observations_lost_per_query"] = per(counts["observations_lost"],
                                                queries)
    m["core.scheduler.frame_hit_ratio"] = per(counts["frame_hits"], frames)
    m["core.scheduler.frame_rebuilds_per_batch"] = (
        per(counts["frame_rebuilds"], counts["calls"])
        if root == "core.scheduler" else 0.0)
    m["core.freshness_cache.hit_ratio"] = per(counts.get("cache_hits", 0),
                                              lookups)
    # Untraced qps / traced qps: both passes ran the same queries.
    m["trace.overhead_ratio"] = per(trace["busy_s"],
                                    result["timing"]["busy_s"][0])
    # Breakdown-only rows (layers idle on some workloads).
    if root == "core.two_phase":
        m["sampling.walk.us_per_query"] = per(ns("sampling.walk") / 1e3,
                                              queries)
        m["sampling.walk.ns_per_hop"] = per(ns("sampling.walk"),
                                            counts["walker_hops"])
    if root == "core.async":
        m["core.async.ns_per_event"] = per(root_ns, counts["events"])
        m["net.event_queue.ns_per_event"] = per(ns("probe.event_queue"),
                                                probes["events"])
    if root == "core.scheduler":
        m["core.freshness_cache.lookup_ns"] = per(
            lookup_span.get("total_ns", 0), lookup_span.get("count", 0))
        m["query.local_exec.us_per_batch"] = (
            local_ns_per_query * BATCH_WIDTH / 1e3)
    m["failed_ratio"] = result["metrics"]["failed_ratio"]
    return m


def breakdown_table(workload, result):
    """Span totals with self time, one row per span name."""
    queries = result["counts"]["queries"]
    probed = result["trace"]["probes"]["queries"]
    rows = ["%-30s %10s %14s %14s %14s" % (
        "span (" + workload + ")", "count", "total_ms", "self_ms",
        "us_per_query")]
    for name, s in sorted(result["trace"]["spans"].items()):
        # Probes run on a subset of the queries.
        base = probed if name.startswith("probe.") else queries
        rows.append("%-30s %10d %14.3f %14.3f %14.3f" % (
            name, s["count"], s["total_ns"] / 1e6,
            (s["total_ns"] - s["child_ns"]) / 1e6,
            per(s["total_ns"] / 1e3, base)))
    return "\n".join(rows) + "\n"


def run_workload(workload, args, spec, out_dir):
    """Returns (correct, attempted, failed, metrics) for one workload."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s.seed%d" % (workload, args.seed))
    trace_file = stem + ".chrome.json" if args.trace else None
    result = run_bench(workload, args.seed, args.seconds, args.quick,
                       trace_file)
    with open(stem + (".trace.json" if args.trace else ".json"), "w") as f:
        json.dump(result, f, indent=1)
    outcome = (result["correct"], result["counts"]["queries"],
               result["counts"]["failed"])
    if not args.trace:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: (result["metrics"][name], unit)
                   for name, unit in units.items()}
        metrics["failed_ratio"] = (result["metrics"]["failed_ratio"], "ratio")
        return outcome + (metrics,)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    units.update(BREAKDOWN_UNITS)
    metrics = {name: (value, units[name])
               for name, value in layer_metrics(result).items()}
    table = breakdown_table(workload, result)
    table += "\n".join("%-42s %18.6g %s" % (name, v, u)
                       for name, (v, u) in sorted(metrics.items())) + "\n"
    with open(stem + ".layers.txt", "w") as f:
        f.write(table)
    return outcome + (metrics,)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, ".out"))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    args.trace = args.trace == "1"

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not build():
        return 2

    workloads = [args.workload] if args.workload else WORKLOADS
    listed = {m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]}
    correct, attempted, failed, result = True, 0, 0, {}
    for workload in workloads:
        try:
            ok, n, bad, metrics = run_workload(workload, args, spec, args.out)
        except (RuntimeError, ValueError, KeyError,
                subprocess.TimeoutExpired) as err:
            log("%s: %s" % (workload, err))
            return 1
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        for name, (value, unit) in sorted(metrics.items()):
            print("%s %s %.9g %s" % (workload, name, value, unit))
            if name in listed:
                key = name if args.workload else workload + "." + name
                result[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
