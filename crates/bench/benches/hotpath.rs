//! Hot-path benchmarks backing the CI perf-regression gate
//! (`scripts/check_perf.py` against `BENCH_HOTPATH.json`).
//!
//! The `sched_overhead` group repeats the sweep bench's headline pair on
//! the shared 40k-packet workload so the gate has both the number it
//! guards (`full-pipeline`) and a machine-speed calibration reference
//! (`event-queue-floor`: the bare pcs-des queue running the same arrival
//! chain with no stage work — it exercises none of the pooled paths, so
//! it moves only when the host or the event queue itself moves). The
//! `hotpath` group runs the same full simulation as the shipping
//! configuration (`pool-on`) and with per-stage time attribution armed
//! (`stage-times-on`, what every `--ledger` run pays).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pcs_bench::{hotpath_stream, HOTPATH_COUNT};
use pcs_des::EventQueue;
use pcs_hw::MachineSpec;
use pcs_oskernel::{MachineSim, SimConfig};

fn bench_sched_overhead(c: &mut Criterion) {
    let (_, packets) = hotpath_stream();
    let mut g = c.benchmark_group("sched_overhead");
    g.sample_size(10);
    g.throughput(Throughput::Elements(HOTPATH_COUNT));
    g.bench_function("full-pipeline", |b| {
        b.iter(|| {
            MachineSim::new(MachineSpec::swan(), SimConfig::default())
                .run(packets.iter().map(|tp| (tp.time, tp.packet.clone())))
        })
    });
    g.bench_function("event-queue-floor", |b| {
        b.iter(|| {
            let mut queue = EventQueue::new();
            let mut it = packets.iter();
            if let Some(tp) = it.next() {
                queue.schedule(tp.time, 0u64);
            }
            let mut popped = 0u64;
            while let Some((_, seq)) = queue.pop() {
                popped += 1;
                if let Some(tp) = it.next() {
                    queue.schedule(tp.time, seq + 1);
                }
            }
            assert_eq!(popped, HOTPATH_COUNT);
            popped
        })
    });
    g.finish();
}

fn bench_hotpath(c: &mut Criterion) {
    let (_, packets) = hotpath_stream();
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);
    g.throughput(Throughput::Elements(HOTPATH_COUNT));
    g.bench_function("pool-on", |b| {
        b.iter(|| {
            MachineSim::new(MachineSpec::swan(), SimConfig::default())
                .run(packets.iter().map(|tp| (tp.time, tp.packet.clone())))
        })
    });
    // Full pipeline with per-stage time attribution armed (what every
    // --ledger run pays): a handful of integer adds per dispatch, so
    // this must track `pool-on` within the perf gate's tolerance.
    g.bench_function("stage-times-on", |b| {
        b.iter(|| {
            MachineSim::new(MachineSpec::swan(), SimConfig::default())
                .with_stage_times(true)
                .run(packets.iter().map(|tp| (tp.time, tp.packet.clone())))
        })
    });
    g.finish();
}

criterion_group!(hotpath, bench_sched_overhead, bench_hotpath);
criterion_main!(hotpath);
