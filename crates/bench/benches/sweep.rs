//! Sweep-engine benchmarks: serial vs parallel cell scheduling, the
//! run-cache hit path, the streaming pipeline at several chunk sizes,
//! clone-free packet injection, and the content-addressed stream cache.
//!
//! On a multi-core host the `jobs-N` variants should approach N× the
//! serial cell throughput (cells are independent simulations); the
//! `warm-cache` variant shows the memoized upper bound. The `pipeline`
//! group runs the same cold sweep through the chunked splitter broadcast
//! at several chunk sizes. The `injection` group isolates the
//! machine-sim ingest path: cloning every packet into one chunk first
//! (`MachineSim::run`) vs shared references into pre-generated chunks
//! (`MachineSim::run_source`). The `sched_overhead`
//! group pins the event-scheduled pipeline's dispatch cost against the
//! bare pcs-des event-queue floor on the same arrival chain. The
//! `stream-cache` group runs one sweep over three SUT sets with sharing
//! off (every cell generates its stream) and on (each stream is
//! generated once and the other two sets' cells subscribe to it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcs_bench::{hotpath_stream, HOTPATH_COUNT};
use pcs_des::EventQueue;
use pcs_hw::MachineSpec;
use pcs_oskernel::{BufferConfig, MachineSim, SimConfig};
use pcs_pktgen::{Chunk, PacketSource, TimedPacket};
use pcs_testbed::{
    run_sweep_exec, run_sweep_sets, CycleConfig, ExecConfig, PipelineConfig, RunCache, Sut,
};
use std::sync::Arc;

fn sweep_inputs() -> (Vec<Sut>, CycleConfig, Vec<Option<f64>>) {
    let suts = vec![
        Sut {
            spec: MachineSpec::swan(),
            sim: SimConfig::default(),
        },
        Sut {
            spec: MachineSpec::moorhen(),
            sim: SimConfig::default(),
        },
    ];
    let mut cfg = CycleConfig::mwn(6_000, 4242);
    cfg.repeats = 2;
    let rates = vec![Some(200.0), Some(500.0), Some(800.0), None];
    (suts, cfg, rates)
}

fn bench_sweep(c: &mut Criterion) {
    let (suts, cfg, rates) = sweep_inputs();
    let cells = (rates.len() * cfg.repeats as usize) as u64;
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cells));
    for jobs in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("cold", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                RunCache::global().clear();
                // Stream sharing off: "cold" means full generation work.
                let exec = ExecConfig::with_jobs(jobs)
                    .with_pipeline(PipelineConfig::streaming().with_stream_cache(0));
                let points = run_sweep_exec(&suts, &cfg, &rates, &exec);
                assert_eq!(points.len(), rates.len());
                points
            })
        });
    }
    // Warm cache: every cell is a lookup; the floor for repeat baselines.
    g.bench_function("warm-cache", |b| {
        run_sweep_exec(&suts, &cfg, &rates, &ExecConfig::serial());
        b.iter(|| run_sweep_exec(&suts, &cfg, &rates, &ExecConfig::serial()))
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let (suts, cfg, rates) = sweep_inputs();
    let cells = (rates.len() * cfg.repeats as usize) as u64;
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cells));
    // Stream sharing off throughout: every chunk size must genuinely
    // re-chunk the generator, not subscribe to published chunks.
    let variants = [
        (
            "chunk-256",
            PipelineConfig::with_chunk(256).with_stream_cache(0),
        ),
        (
            "chunk-4096",
            PipelineConfig::with_chunk(4096).with_stream_cache(0),
        ),
        (
            "chunk-16384",
            PipelineConfig::with_chunk(16_384).with_stream_cache(0),
        ),
    ];
    for (name, pipeline) in variants {
        g.bench_with_input(BenchmarkId::new("cold", name), &pipeline, |b, &pipeline| {
            b.iter(|| {
                RunCache::global().clear();
                let exec = ExecConfig::with_jobs(2).with_pipeline(pipeline);
                let points = run_sweep_exec(&suts, &cfg, &rates, &exec);
                assert_eq!(points.len(), rates.len());
                points
            })
        });
    }
    g.finish();
}

/// A [`PacketSource`] replaying pre-generated chunks (`Arc` clones, no
/// packet copies) — isolates injection cost from generation cost.
struct ReplayChunks {
    chunks: Vec<Chunk>,
    next: usize,
}

impl PacketSource for ReplayChunks {
    fn next_chunk(&mut self) -> Option<Chunk> {
        let chunk = self.chunks.get(self.next)?;
        self.next += 1;
        Some(Arc::clone(chunk))
    }
}

fn bench_injection(c: &mut Criterion) {
    let (chunks, packets): (Vec<Chunk>, Vec<TimedPacket>) = hotpath_stream();
    let sim = || MachineSim::new(MachineSpec::swan(), SimConfig::default());
    let mut g = c.benchmark_group("injection");
    g.sample_size(10);
    g.throughput(Throughput::Elements(HOTPATH_COUNT));
    g.bench_function("cloned", |b| {
        b.iter(|| sim().run(packets.iter().map(|tp| (tp.time, tp.packet.clone()))))
    });
    g.bench_function("shared-ref", |b| {
        b.iter(|| {
            sim().run_source(ReplayChunks {
                chunks: chunks.clone(),
                next: 0,
            })
        })
    });
    g.finish();
}

fn bench_sched_overhead(c: &mut Criterion) {
    // The event-scheduled stage pipeline's dispatch cost on the
    // injection micro-bench, against the bare pcs-des event queue
    // running the same self-scheduling arrival chain with no stage
    // work. The gap between the two is everything the simulator does
    // per packet (stages + scheduler + stacks); the floor is what the
    // refactor's dispatch machinery alone costs. Numbers are pinned in
    // BENCH_SCHED.json — `full-pipeline` must stay in family with the
    // pre-refactor `injection/cloned` figure.
    const COUNT: u64 = HOTPATH_COUNT;
    let (_, packets) = hotpath_stream();
    let mut g = c.benchmark_group("sched_overhead");
    g.sample_size(10);
    g.throughput(Throughput::Elements(COUNT));
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
            assert_eq!(popped, COUNT);
            popped
        })
    });
    g.finish();
}

fn bench_stream_cache(c: &mut Criterion) {
    let (suts, cfg, rates) = sweep_inputs();
    // The same machines at three buffer sizes: three SUT sets that read
    // the same stream at every (rate, repeat).
    let sets: Vec<Vec<Sut>> = [512u64 << 10, 8 << 20, 128 << 20]
        .into_iter()
        .map(|bytes| {
            suts.iter()
                .map(|sut| Sut {
                    spec: sut.spec,
                    sim: SimConfig {
                        buffers: BufferConfig::symmetric(bytes),
                        ..sut.sim.clone()
                    },
                })
                .collect()
        })
        .collect();
    let cells = (rates.len() * cfg.repeats as usize * sets.len()) as u64;
    let mut g = c.benchmark_group("stream-cache");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cells));
    // The run cache is flushed every iteration, so the cells genuinely
    // recompute; the sweep's streams leave the stream cache when it ends.
    let run = |pipeline: PipelineConfig| {
        RunCache::global().clear();
        let exec = ExecConfig::with_jobs(2).with_pipeline(pipeline);
        let sweeps = run_sweep_sets(&sets, &cfg, &rates, &exec);
        assert_eq!(sweeps.len(), sets.len());
        sweeps
    };
    g.bench_function("off", |b| {
        b.iter(|| run(PipelineConfig::streaming().with_stream_cache(0)))
    });
    g.bench_function("shared", |b| b.iter(|| run(PipelineConfig::streaming())));
    g.finish();
}

criterion_group!(
    sweep,
    bench_sweep,
    bench_pipeline,
    bench_injection,
    bench_sched_overhead,
    bench_stream_cache
);
criterion_main!(sweep);
