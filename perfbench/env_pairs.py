#!/usr/bin/env python3
"""Alternating pairs of one workload's CLI run with and without an
environment switch, for notes on whether a hot-path mechanism's gain
survives end to end.

    python3 perfbench/env_pairs.py --workload rate-sweep --env PCS_NO_BATCH=1 --pairs 10

Run from the repository root after `perfbench/run.py` has built the
CLI. Each pair runs the default and the switched CLI back to back,
alternating which goes first; both outputs are checked against the
pinned digests. Prints, per side, the median and quartiles of wall and
CPU seconds, and how many pairs the switched side won.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from bench import stats  # noqa: E402
from bench.proc import run_child  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--env", required=True, help="NAME=VALUE set on the switched side")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    name, _, value = args.env.partition("=")
    target = os.path.join(run.ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    exe = os.path.join(target, "release", "experiments")
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)

    sides = {"default": dict(os.environ), args.env: dict(os.environ, **{name: value})}
    samples = {side: [] for side in sides}
    for i in range(args.pairs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            out_dir = run.fresh_dir(args.workload, "pairs")
            argv = [exe] + run.WORKLOADS[args.workload] + ["--jobs", "2", "--csv-dir", "csv"]
            child = run_child(argv, cwd=out_dir, env=sides[side])
            problems = run.check_outputs(args.workload, out_dir, expected)
            if child.exit_code != 0 or problems:
                sys.exit(f"{side} run {i} failed: exit {child.exit_code}; {problems}")
            samples[side].append(child)
    for metric in ("wall_s", "cpu_s"):
        for side, children in samples.items():
            values = [getattr(c, metric) for c in children]
            q1, q3 = stats.quartiles(values)
            print(f"{metric} {side:<16} median {stats.median(values):.3f}  quartiles {q1:.3f}..{q3:.3f}")
        wins = sum(
            getattr(b, metric) < getattr(a, metric)
            for a, b in zip(samples["default"], samples[args.env])
        )
        print(f"{metric} {args.env} faster in {wins}/{args.pairs} pairs")


if __name__ == "__main__":
    main()
