#!/usr/bin/env python3
"""The pcapbench benchmark: the `experiments` CLI end to end, and a
traced run of the same cells layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the release CLI and the traced
layer binary (`perfbench/layers`), then for `--seconds` seconds:

  --trace 0  runs the CLI on the workload again and again, each time as
             a fresh process, and reports the medians of its wall time,
             CPU time, peak RSS, set-up time and simulated SUT-packets per
             second;
  --trace 1  runs the CLI once, then the traced layer binary again and
             again, and reports the per-layer metrics (medians of times,
             exact counts).

Every run's outputs are checked: the exit status, the SHA-256 of every
CSV (and of the ledger) against `perfbench/expected.json`, and for the
traced run byte equality with the CLI's own CSVs. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

The CLI derives every input from the figure ids, so the inputs do not
depend on `--seed`: every seed runs the same cells. `perfbench-layers
--seed S` runs other inputs for claims on a held-out seed (README.md).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from bench import layers, stats  # noqa: E402
from bench.proc import run_child  # noqa: E402

OUT = os.path.join(ROOT, ".bench_out")
LEDGER = "ledger.json"
BANNER = re.compile(rb"== \d+ experiment\(s\)")
# Fewest CLI invocations (trace 0) or traced runs (trace 1) per run,
# however short `--seconds` is.
MIN_SAMPLES = {0: 3, 1: 1}

WORKLOADS = {
    "rate-sweep": ["run", "fig6.3b", "--scale", "standard"],
    "buffer-sweep-ledger": ["run", "fig6.4b", "--scale", "standard", "--ledger", LEDGER],
    "suite-quick": ["all", "--scale", "quick", "--oracle"],
}
# Read-only golden files a workload's CSVs must also equal.
GOLDEN = {"suite-quick": {"fig6.4a.csv": "tests/golden/fig6.4a_quick_seed.csv"}}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build both binaries; return their paths. Exits 1 when the
    checkout cannot build them."""
    # One target directory for both builds, even though the layer binary
    # is a workspace of its own.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "pcs-experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/layers/Cargo.toml"],
    ):
        if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
            log("perfbench: no Cargo.toml at the repository root; nothing to build")
            sys.exit(1)
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            sys.exit(1)
    release = os.path.join(target, "release")
    return os.path.join(release, "experiments"), os.path.join(release, "perfbench-layers")


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_outputs(workload, out_dir, expected):
    """Problems with one run's output files; empty when all match."""
    pins = expected[workload]
    problems = []
    csv_dir = os.path.join(out_dir, "csv")
    found = sorted(os.listdir(csv_dir)) if os.path.isdir(csv_dir) else []
    if found != sorted(pins["csv"]):
        problems.append(f"CSV files {found} != pinned {sorted(pins['csv'])}")
    for name, digest in pins["csv"].items():
        path = os.path.join(csv_dir, name)
        if os.path.isfile(path) and sha256(path) != digest:
            problems.append(f"{name}: digest differs from the pinned one")
    if "ledger" in pins:
        path = os.path.join(out_dir, LEDGER)
        if not os.path.isfile(path) or sha256(path) != pins["ledger"]:
            problems.append("ledger missing or its digest differs from the pinned one")
    for name, golden in GOLDEN.get(workload, {}).items():
        path = os.path.join(csv_dir, name)
        with open(os.path.join(ROOT, golden), "rb") as g:
            if not os.path.isfile(path) or open(path, "rb").read() != g.read():
                problems.append(f"{name} differs from {golden}")
    return problems


def fresh_dir(*parts):
    path = os.path.join(OUT, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_cli(exe, workload, expected, tag):
    """One CLI invocation into a fresh directory; (child, problems,
    directory)."""
    out_dir = fresh_dir(workload, tag)
    argv = [exe] + WORKLOADS[workload] + ["--jobs", "2", "--csv-dir", "csv"]
    child = run_child(argv, cwd=out_dir, banner=BANNER)
    problems = [] if child.exit_code == 0 else [f"exit status {child.exit_code}"]
    if child.setup_s is None:
        problems.append("no '== N experiment(s)' banner on stderr")
    problems += check_outputs(workload, out_dir, expected)
    if problems:
        log(f"perfbench: {workload} CLI run {tag} failed: {'; '.join(problems)}")
        log(child.stderr.decode(errors="replace")[-2000:])
    return child, problems, out_dir


def time_left(t_end, walls):
    """Whether another sample, as long as the median one so far, still
    ends before `t_end`."""
    return time.monotonic() + (stats.median(walls) if walls else 0.0) <= t_end


def measure_end_to_end(exe, workload, seconds, expected):
    children, attempted, failed = [], 0, 0
    walls = []
    t_end = time.monotonic() + seconds
    while attempted < MIN_SAMPLES[0] or time_left(t_end, walls):
        child, problems, _ = run_cli(exe, workload, expected, f"cli-{attempted}")
        walls.append(child.wall_s)
        attempted += 1
        if problems:
            failed += 1
        else:
            children.append(child)
    if not children:
        return attempted, failed, {}
    wall = stats.median([c.wall_s for c in children])
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (stats.median([c.cpu_s for c in children]), "s"),
        "peak_rss_mib": (stats.median([c.peak_rss_mib for c in children]), "MiB"),
        "setup_s": (stats.median([c.setup_s for c in children]), "s"),
        "sut_pkts_per_s": (expected[workload]["sut_pkts"] / wall, "1/s"),
    }
    return attempted, failed, metrics


def same_files(a, b):
    """Byte equality of two directories' files."""
    if not (os.path.isdir(a) and os.path.isdir(b)):
        return False
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def measure_layers(exe, layer_exe, workload, seconds, expected):
    t_end = time.monotonic() + seconds
    cli, problems, cli_dir = run_cli(exe, workload, expected, "cli")
    attempted, failed = 1, int(bool(problems))
    runs, walls = [], []
    while attempted - 1 < MIN_SAMPLES[1] or time_left(t_end, walls):
        out_dir = fresh_dir(workload, f"layers-{attempted}")
        argv = [layer_exe, "--workload", workload, "--out", out_dir, "--jobs", "2"]
        child = run_child(argv, cwd=ROOT)
        walls.append(child.wall_s)
        attempted += 1
        problems = [] if child.exit_code == 0 else [f"exit status {child.exit_code}"]
        if not problems:
            problems += check_outputs(workload, out_dir, expected)
            if not same_files(os.path.join(out_dir, "csv"), os.path.join(cli_dir, "csv")):
                problems.append("traced CSVs differ from the CLI's")
            spans, counters = layers.load(out_dir)
            if counters["cells_untraced"] or counters["cells_changed_by_obs"]:
                problems.append(
                    f"{counters['cells_untraced']} untraced cells, "
                    f"{counters['cells_changed_by_obs']} cells changed by obs arming"
                )
            if counters["sut_pkts"] != expected[workload]["sut_pkts"]:
                problems.append(f"sut_pkts {counters['sut_pkts']} != pinned {expected[workload]['sut_pkts']}")
        if problems:
            failed += 1
            log(f"perfbench: {workload} traced run failed: {'; '.join(problems)}")
            log(child.stderr.decode(errors="replace")[-2000:])
            continue
        runs.append(layers.metrics(spans, counters, cli.wall_s))
    if not runs:
        return attempted, failed, {}
    metrics, inexact = {}, []
    for name, (value, unit) in runs[0].items():
        values = [r[name][0] for r in runs]
        if name in layers.EXACT and len(set(values)) != 1:
            inexact.append(f"{name} {values}")
        metrics[name] = (stats.median(values), unit)
    if inexact:
        # The traced runs disagree on the simulated work: count the run's
        # traced runs as one failure.
        failed += 1
        log(f"perfbench: counts differ across traced runs: {'; '.join(inexact)}")
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe, layer_exe = build()
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    if args.trace:
        attempted, failed, metrics = measure_layers(exe, layer_exe, args.workload, args.seconds, expected)
    else:
        attempted, failed, metrics = measure_end_to_end(exe, args.workload, args.seconds, expected)
    for name, (value, unit) in metrics.items():
        log(f"{name:<34} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
