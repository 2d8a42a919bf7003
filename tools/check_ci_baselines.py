#!/usr/bin/env python3
"""Checks that every perf-gate baseline directory CI names is committed.

Each `tools/bench_gate.py --baselines DIR` invocation in the CI workflow
exits 2 ("no baselines") when DIR holds no BENCH_*.json, so a gate whose
baselines were never committed fails every run (or never runs at all).
This script reads the workflow, finds every `--baselines DIR`, and fails
when a DIR is missing or holds no BENCH_*.json. It also fails when the
workflow names no baselines dir, so a renamed flag cannot pass vacuously.

Usage:
  python3 tools/check_ci_baselines.py [--root REPO]

REPO defaults to the repository this script lives in; the workflow is
REPO/.github/workflows/ci.yml. Exits 0 when every dir is populated, 1
otherwise.
"""

import argparse
import pathlib
import re
import sys

BASELINES_FLAG = re.compile(r"--baselines[=\s]+([^\s\"']+)")


def main():
    root_default = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path, default=root_default)
    args = parser.parse_args()
    workflow = args.root / ".github" / "workflows" / "ci.yml"

    dirs = sorted(set(BASELINES_FLAG.findall(workflow.read_text())))
    if not dirs:
        print(f"check_ci_baselines: no --baselines dir in {workflow}",
              file=sys.stderr)
        return 1
    failures = []
    for name in dirs:
        path = args.root / name
        count = len(list(path.glob("BENCH_*.json"))) if path.is_dir() else 0
        if count == 0:
            failures.append(f"{name}: missing or holds no BENCH_*.json")
        else:
            print(f"{name}: {count} BENCH_*.json OK")
    if failures:
        for failure in failures:
            print(f"check_ci_baselines: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
