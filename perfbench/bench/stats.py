"""Order statistics and span arithmetic for the benchmark."""

import math
import statistics

# Percentiles a tail may be named by, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending sequence, and how many
    samples lie beyond it."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def tail(values, min_beyond=10):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond it, as (percentile, value); None when even the median has
    fewer."""
    ordered = sorted(values)
    best = None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= min_beyond:
            best = (pct, value)
    return best


def covered(intervals):
    """Total length covered by the union of (start, end) intervals."""
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Map span id -> its duration minus the part of it its children
    cover. Children are clipped to the parent's interval."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        kids = [
            (max(c["start_ns"], lo), min(c["end_ns"], hi))
            for c in children.get(s["id"], ())
            if c["end_ns"] > lo and c["start_ns"] < hi
        ]
        out[s["id"]] = (hi - lo) - covered(kids)
    return out
