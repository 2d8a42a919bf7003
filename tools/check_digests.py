#!/usr/bin/env python3
"""Checks that benchmark runs reproduce a reference set's answers.

A change meant to keep every answer must reproduce, run for run, the
`digest` and `counts` that benchmark/run.py writes into each
`<workload>.seed<N>.json`. This script compares every such file in RUN_DIR
with the file of the same name in REFERENCE_DIR (by default the committed
benchmark/results/seed/set1). It names each mismatching digest or count and
each run file whose reference is missing. It only reads files.

Usage:
  python3 tools/check_digests.py RUN_DIR [REFERENCE_DIR]

Exits 0 when every run file matches its reference, 1 on any mismatch, on a
missing reference, or when RUN_DIR holds no run files.
"""

import argparse
import json
import pathlib
import re
import sys

RUN_FILE = re.compile(r"^[a-z0-9_]+\.seed[0-9]+\.json$")


def compare(name, run, ref):
    """Returns one line per difference between two result objects."""
    problems = []
    if run.get("digest") != ref.get("digest"):
        problems.append(f"{name}: digest {run.get('digest')} != "
                        f"{ref.get('digest')}")
    run_counts = run.get("counts", {})
    ref_counts = ref.get("counts", {})
    for key in sorted(set(run_counts) | set(ref_counts)):
        if run_counts.get(key) != ref_counts.get(key):
            problems.append(f"{name}: counts.{key} {run_counts.get(key)} != "
                            f"{ref_counts.get(key)}")
    return problems


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("run_dir", type=pathlib.Path)
    parser.add_argument("reference_dir", type=pathlib.Path, nargs="?",
                        default=root / "benchmark" / "results" / "seed" /
                        "set1")
    args = parser.parse_args()

    runs = sorted(p for p in args.run_dir.glob("*.json")
                  if RUN_FILE.match(p.name))
    if not runs:
        print(f"check_digests: no <workload>.seed<N>.json in {args.run_dir}",
              file=sys.stderr)
        return 1
    problems = []
    for run_path in runs:
        ref_path = args.reference_dir / run_path.name
        if not ref_path.is_file():
            problems.append(f"{run_path.name}: missing in {args.reference_dir}")
            continue
        found = compare(run_path.name, json.loads(run_path.read_text()),
                        json.loads(ref_path.read_text()))
        if not found:
            print(f"{run_path.name}: digest and counts match")
        problems.extend(found)
    for problem in problems:
        print(f"check_digests: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
