"""Per-layer metrics of one traced layer run (`perfbench-layers`).

Times come from the run's spans (pass 0, the cells as the CLI runs
them, unless a metric says otherwise): wall-clock durations and self
times, except the `*_cpu_s` sims, `oskernel.ns_per_sut_pkt` and
`obs.in_sim_s`, which use the SUT threads' own CPU time and so do not
depend on how many threads shared the cores. Counts come from the run's
`counters.json`. Names match BENCHMARK.json's `per_layer` list.
"""

import json
import os

from . import stats

MACHINES = ("swan", "snipe", "moorhen", "flamingo")
DROP_COLUMNS = (
    "generated",
    "nic_drops",
    "nic_residue",
    "filter_rejects",
    "kernel_buffer_drops",
    "kernel_pool_drops",
    "kernel_residue",
    "app_residue",
    "delivered",
)
WORK_KINDS = ("kernel_batch", "disk_irq", "app_read", "app_chunk", "gzip")

# Metrics that are exact counts of the simulated work: every traced run
# of one workload and seed must report the same values.
EXACT = (
    "pktgen.streams_generated",
    "pktgen.streams_shared",
    "testbed.cells",
    "testbed.cells_cached",
    "oskernel.sut_pkts",
    "des.batch_coalesced_share",
    "des.alpha_memo_hit_ratio",
    "des.size_memo_hit_ratio",
    "des.pool_miss_ratio",
) + tuple("sim." + c for c in DROP_COLUMNS) + tuple("sim.busy_ms." + k for k in WORK_KINDS)


def load(out_dir):
    """(spans, counters) written by one `perfbench-layers` run."""
    with open(os.path.join(out_dir, "counters.json")) as f:
        counters = json.load(f)
    with open(os.path.join(out_dir, "spans.jsonl")) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    return spans, counters


def _ratio(part, whole):
    return part / whole if whole else 0.0


def metrics(spans, counters, cli_wall_s):
    """Every per-layer metric as {name: (value, unit)}."""
    own = stats.self_times(spans)
    armed = counters["armed_pass"]

    def pick(name, pass_=0, tag=None):
        return [
            s for s in spans if s["name"] == name and s["pass"] == pass_ and (tag is None or s["tag"] == tag)
        ]

    def total(name, pass_=0, tag=None):
        return sum(s["end_ns"] - s["start_ns"] for s in pick(name, pass_, tag)) / 1e9

    def self_total(name, pass_=0, tag=None):
        return sum(own[s["id"]] for s in pick(name, pass_, tag)) / 1e9

    def cpu_total(pass_=0, tag=None):
        return sum(s["cpu_ns"] for s in pick("oskernel.sim", pass_, tag)) / 1e9

    cell_ms = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in pick("testbed.cell") if s["tag"] != "cached"]
    tail = stats.tail(cell_ms) if cell_ms else None
    p50 = stats.median(cell_ms) if cell_ms else 0.0
    gen_s = total("pktgen.gen")
    sut_pkts = counters["sut_pkts"]

    m = {
        "pktgen.gen_s": (gen_s, "s"),
        "pktgen.ns_per_pkt": (_ratio(gen_s * 1e9, counters["gen_pkts"]), "ns"),
        "pktgen.subscribe_wait_s": (total("pktgen.subscribe"), "s"),
        "pktgen.streams_generated": (counters["streams_generated"], "count"),
        "pktgen.streams_shared": (counters["streams_shared"], "count"),
        "pktgen.stream_cache_peak_mib": (counters["stream_cache_peak_bytes"] / 2**20, "MiB"),
        "testbed.broadcast_wait_s": (total("testbed.broadcast"), "s"),
        "testbed.chunk_wait_s": (total("testbed.chunk_wait"), "s"),
        "testbed.switch_s": (total("testbed.switch"), "s"),
        "testbed.cell_ms.p50": (p50, "ms"),
        "testbed.cell_ms.tail": (tail[1] if tail else p50, "ms"),
        "testbed.cell_ms.tail_pct": (tail[0] if tail else 50, "%"),
        "testbed.cells": (counters["cells_run"] + counters["cells_cached"], "count"),
        "testbed.cell_self_s": (self_total("testbed.cell"), "s"),
        "testbed.cells_cached": (counters["cells_cached"], "count"),
    }
    for machine in MACHINES:
        m["oskernel.sim_self_s." + machine] = (self_total("oskernel.sim", tag=machine), "s")
    for machine in MACHINES:
        m["oskernel.sim_cpu_s." + machine] = (cpu_total(tag=machine), "s")
    m.update(
        {
            "oskernel.ns_per_sut_pkt": (_ratio(cpu_total() * 1e9, sut_pkts), "ns"),
            "oskernel.sut_pkts": (sut_pkts, "count"),
            "des.batch_coalesced_share": (
                _ratio(counters["batch_coalesced"], counters["batch_runs"] + counters["batch_coalesced"]),
                "ratio",
            ),
            "des.alpha_memo_hit_ratio": (
                _ratio(counters["alpha_hits"], counters["alpha_hits"] + counters["alpha_misses"]),
                "ratio",
            ),
            "des.size_memo_hit_ratio": (
                _ratio(counters["size_hits"], counters["size_hits"] + counters["size_misses"]),
                "ratio",
            ),
            "des.pool_miss_ratio": (_ratio(counters["pool_misses"], counters["pool_gets"]), "ratio"),
            "faultsim.oracle_s": (total("faultsim.oracle"), "s"),
            "obs.in_sim_s": (cpu_total(pass_=armed) - cpu_total(pass_=1 - armed), "s"),
            "obs.record_cell_s": (total("obs.record_cell", pass_=armed), "s"),
            "obs.render_ledger_s": (total("obs.render_ledger", pass_=armed), "s"),
            "core.render_s": (total("core.render"), "s"),
            "core.figure_s": (total("core.figure"), "s"),
        }
    )
    for col in DROP_COLUMNS:
        m["sim." + col] = (counters["attribution"][col], "pkts")
    for kind in WORK_KINDS:
        m["sim.busy_ms." + kind] = (counters["busy_ns"][kind] / 1e6, "ms")
    m["layer_run.wall_s"] = (counters["pass0_ns"] / 1e9, "s")
    m["layer_run.cli_wall_s"] = (cli_wall_s, "s")
    return m
