#!/usr/bin/env python3
"""Self-test of the p2paqp_bench binary, run by ctest:

    ctest --test-dir benchmark/.build

Runs the --quick mode of every workload and asserts that all correctness
checks pass, that the traced run reproduces the untraced answer digest and
counts, that a same-seed rerun is identical, and that another seed changes
the digest. Usage: selftest.py PATH_TO_p2paqp_bench
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # Leave no __pycache__ next to run.py.
from run import WORKLOADS, clean_env  # noqa: E402


def run(binary, workload, seed, trace=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--quick"]
    if trace:
        cmd += ["--trace", trace]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d exited with %d" %
                             (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition, message, failures):
    if not condition:
        failures.append(message)


def main():
    binary = os.path.abspath(sys.argv[1])
    failures = []
    for workload in WORKLOADS:
        first = run(binary, workload, 1)
        trace_file = os.path.abspath("selftest.%s.chrome.json" % workload)
        traced = run(binary, workload, 1, trace_file)
        again = run(binary, workload, 1)
        other = run(binary, workload, 2)
        for name, result in (("seed 1", first), ("traced", traced),
                             ("rerun", again), ("seed 2", other)):
            check(result["correct"], "%s %s: checks %s" %
                  (workload, name, result["checks"]), failures)
        check(traced["digest"] == first["digest"] and
              traced["counts"] == first["counts"],
              "%s: traced run changed the answers" % workload, failures)
        check(again["digest"] == first["digest"] and
              again["counts"] == first["counts"],
              "%s: same-seed rerun differs" % workload, failures)
        check(other["digest"] != first["digest"],
              "%s: seed 2 gives seed 1's digest" % workload, failures)
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        check(any(e["name"] == traced["trace"]["root"] for e in events),
              "%s: trace has no root span" % workload, failures)
        print("%s: digest %s ok" % (workload, first["digest"]), flush=True)
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
