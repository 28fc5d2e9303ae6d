#!/usr/bin/env python3
"""Gate hot-path performance against the committed BENCH_HOTPATH.json.

Reads the stdout of ``cargo bench -p pcs-bench --bench hotpath`` (a file
argument or stdin), which the vendored criterion stub prints as::

    sched_overhead/full-pipeline        15.083 ms/iter   2651908 elem/s

and compares **every bench recorded in the baseline** to its measured
time, **calibrated by host speed**: the bare
``sched_overhead/event-queue-floor`` bench runs the same 40k-event chain
with no stage work, so

    expected = baseline * (measured_floor / baseline_floor)

tracks how fast this runner is rather than assuming the baseline host.
A bench fails only when its measured time exceeds
``expected * --threshold`` (default 1.6 — generous, because shared
CI runners are noisy; the point is to catch an accidental return of
per-packet allocation or an O(n) slip, not a 5% drift). Every bench
outside its floor is reported — the check does not stop at the first
failure — and the host-calibration ratio is always printed.

If the floor itself deviates wildly from baseline (ratio outside
[1/--max-floor-ratio, --max-floor-ratio]), the runner is too unlike the
baseline host for a meaningful verdict and the check SKIPS (exit 0) with
a clear message rather than failing the build.

Regenerate the baseline with ``cargo bench -p pcs-bench --bench hotpath``
and record the new numbers in BENCH_HOTPATH.json after an intentional
hot-path change. Record every ``hotpath/*`` variant together (pool-on,
stage-times-on): ``stage-times-on`` documents what a ``--ledger`` run
pays over ``pool-on``.

To localize a failure, pass ``--ledgers BASELINE.json CURRENT.json``
(two run ledgers from ``pcs-experiments run --ledger``, e.g. the quick
fig6.4a sweep on the last-good and the failing build): on FAIL the
script also prints which per-stage busy/stretch/idle time moved, summed
per work kind across every cell, so "slower" comes with "where".
"""

import argparse
import json
import re
import sys

FULL = "sched_overhead/full-pipeline"
FLOOR = "sched_overhead/event-queue-floor"

LINE = re.compile(r"^(\S+)\s+([0-9.]+)\s+ms/iter\b")


def fail(msg: str) -> None:
    print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def skip(msg: str) -> None:
    print(f"check_perf: SKIP: {msg} (not a verdict on this change)")
    sys.exit(0)


def stage_totals(ledger_path: str) -> dict:
    """Sum per-work-kind busy/stretch and idle ns across a ledger's cells.

    Returns {"busy/<kind>": ns, "stretch/<kind>": ns, "idle": ns}.
    """
    with open(ledger_path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("pcs_ledger") != 1:
        fail(f"{ledger_path} is not a pcs_ledger v1 document")
    totals = {}
    for cell in doc.get("cells", []):
        for sut in cell.get("suts", []):
            st = sut.get("stage_times")
            if not st:
                continue
            for cpu in st.get("cpus", []):
                for key in ("busy", "stretch"):
                    for kind, ns in cpu.get(key, {}).items():
                        totals[f"{key}/{kind}"] = totals.get(f"{key}/{kind}", 0) + ns
                totals["idle"] = totals.get("idle", 0) + cpu.get("idle", 0)
    return totals


def print_stage_deltas(ledger_a: str, ledger_b: str) -> None:
    """Per-stage time deltas between two ledgers, largest movers first."""
    a, b = stage_totals(ledger_a), stage_totals(ledger_b)
    if not a and not b:
        print(
            "check_perf: ledgers carry no stage times — rerun with a "
            "--ledger-armed sweep (stage attribution is on whenever "
            "--ledger is)",
            file=sys.stderr,
        )
        return
    rows = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, 0), b.get(key, 0)
        if va == vb:
            continue
        rel = abs(va - vb) / max(abs(va), abs(vb), 1)
        rows.append((rel, key, va, vb))
    rows.sort(reverse=True)
    print("check_perf: per-stage time deltas (ledger A -> B, summed over all cells):", file=sys.stderr)
    if not rows:
        print("check_perf:   none — stage times are identical", file=sys.stderr)
    for rel, key, va, vb in rows:
        print(
            f"check_perf:   {rel * 100:8.2f}%  {key:<24} "
            f"{va / 1e6:12.3f} ms -> {vb / 1e6:12.3f} ms",
            file=sys.stderr,
        )


def parse_bench_output(text: str) -> dict:
    """Map bench id -> ms/iter from the criterion-stub stdout."""
    out = {}
    for line in text.splitlines():
        m = LINE.match(line.strip())
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "bench_output",
        nargs="?",
        help="file with `cargo bench --bench hotpath` stdout (default: stdin)",
    )
    ap.add_argument(
        "--baseline",
        default="BENCH_HOTPATH.json",
        help="committed baseline JSON (default: BENCH_HOTPATH.json)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=1.6,
        help="fail above expected * THRESHOLD (default: 1.6)",
    )
    ap.add_argument(
        "--max-floor-ratio",
        type=float,
        default=4.0,
        help="skip when the floor ratio leaves [1/R, R] (default: 4.0)",
    )
    ap.add_argument(
        "--ledgers",
        nargs=2,
        metavar=("BASELINE.json", "CURRENT.json"),
        help="run ledgers to localize a failure: on FAIL, print per-stage "
        "busy/stretch/idle deltas between the two",
    )
    args = ap.parse_args()

    if args.bench_output:
        with open(args.bench_output, "r", encoding="utf-8") as f:
            text = f.read()
    else:
        text = sys.stdin.read()

    measured = parse_bench_output(text)
    for key in (FULL, FLOOR):
        if key not in measured:
            fail(f"bench output has no `{key}` line — wrong bench or truncated log?")

    with open(args.baseline, "r", encoding="utf-8") as f:
        baseline = json.load(f)
    try:
        base_full = baseline["results"][FULL]["ms_per_iter"]
        base_floor = baseline["results"][FLOOR]["ms_per_iter"]
    except KeyError as e:
        fail(f"baseline {args.baseline} is missing {e}")

    floor_ratio = measured[FLOOR] / base_floor
    print(
        f"check_perf: host calibration: event-queue floor {measured[FLOOR]:.3f} ms "
        f"vs baseline {base_floor:.3f} ms -> ratio {floor_ratio:.2f}x"
    )
    if not (1.0 / args.max_floor_ratio <= floor_ratio <= args.max_floor_ratio):
        skip(
            f"event-queue floor is {measured[FLOOR]:.3f} ms vs baseline "
            f"{base_floor:.3f} ms ({floor_ratio:.2f}x) — this runner is too "
            f"unlike the baseline host for a calibrated comparison"
        )

    # Gate every baseline bench (the floor is the calibration reference,
    # not a gated subject). Report all verdicts; fail at the end so one
    # regression never hides another.
    failures = []
    for bench in sorted(baseline["results"]):
        if bench == FLOOR:
            continue
        base_ms = baseline["results"][bench]["ms_per_iter"]
        if bench not in measured:
            failures.append(bench)
            print(f"check_perf: {bench} MISSING from bench output (truncated log?)")
            continue
        expected = base_ms * floor_ratio
        limit = expected * args.threshold
        verdict = "OK" if measured[bench] <= limit else "FAIL"
        print(
            f"check_perf: {bench} measured {measured[bench]:.3f} ms/iter; "
            f"baseline {base_ms:.3f} scaled by floor ratio {floor_ratio:.2f}x "
            f"-> expected {expected:.3f}, limit {limit:.3f} (x{args.threshold}): {verdict}"
        )
        if verdict == "FAIL":
            failures.append(bench)
    if failures:
        if args.ledgers:
            print_stage_deltas(args.ledgers[0], args.ledgers[1])
        fail(
            f"{len(failures)} bench(es) regressed past the calibrated limit: "
            f"{', '.join(failures)}. "
            f"If the slowdown is intentional, regenerate {args.baseline} "
            f"(see its `command` field) and commit the new numbers."
            + (
                ""
                if args.ledgers
                else " For per-stage localization, rerun with --ledgers "
                "BASELINE.json CURRENT.json (ledgers from "
                "`experiments run --ledger` on the last-good and failing builds)."
            )
        )


if __name__ == "__main__":
    main()
