//! The cell loop of `pcs_testbed::cycle`, rebuilt from public items with
//! a span around every call into a layer.
//!
//! A cell is one repeat of one rate point over a SUT set: the producer
//! pulls chunks from the generator (or the stream cache), accounts them
//! through the monitor switch and broadcasts them over the optical
//! splitter's bounded queues, while one scoped thread per SUT runs
//! `MachineSim::run_source` on its splitter output. The steps, their
//! order and their arguments are the library's, so the distilled cell
//! results must equal the CLI's; `main` checks that through the figures'
//! CSV files.

use crate::span::{thread_cpu_ns, Open, Recorder, Span};
use pcs_faultsim::Oracle;
use pcs_oskernel::{MachineSim, RunReport};
use pcs_pktgen::{
    Chunk, ChunkedGenerator, Generator, PacketSource, PktgenConfig, PublishingSource, StreamCache,
    StreamRole,
};
use pcs_testbed::cache::cell_key_faulted;
use pcs_testbed::{
    aggregate_point, cell_label, parallel_ordered, wide_key, CellResult, CellSut, CycleConfig,
    ExecConfig, MonitorSwitch, OpticalSplitter, PointResult, RunCache, Sut,
};
use pcs_trace::{
    DropAttribution, StageFilter, SutTrace, TraceCollector, TraceSink, TraceSpec, WORK_KINDS,
};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What one pass over the cells observes besides spans: exact counts
/// the per-layer report needs.
#[derive(Default)]
pub struct Tally {
    /// SUT-packets simulated (Σ `RunReport::offered`).
    pub sut_pkts: AtomicU64,
    /// Packets produced by a generator (not subscribed from the cache).
    pub gen_pkts: AtomicU64,
    /// Σ of every SUT's drop attribution, per `DropAttribution::COLUMNS`.
    pub attribution: [AtomicU64; 9],
    /// Σ of busy ns per work kind over every CPU of every armed sim.
    pub busy_ns: [AtomicU64; WORK_KINDS],
}

/// One pass over a workload's cells.
pub struct Pass<'a> {
    /// 0: the run the CLI makes; 1: the paired run that flips the obs
    /// arming to price it.
    pub id: u8,
    pub exec: &'a ExecConfig,
    /// Armed obs: stage times on, an empty-filter trace sink per sim and
    /// every cell recorded here, exactly as `--ledger` arms them.
    pub collector: Option<&'a TraceCollector>,
    pub recorder: &'a Recorder,
    pub tally: &'a Tally,
}

/// The trace spec `--ledger` arms without `--trace`: no events buffered,
/// but metrics, latency digests and attributions accumulate.
pub fn ledger_spec() -> TraceSpec {
    TraceSpec {
        filter: StageFilter::none(),
        ..TraceSpec::default()
    }
}

/// Machine family of a SUT label (`moorhen+pcix` → `moorhen`).
fn family(spec: &pcs_hw::MachineSpec) -> &'static str {
    spec.name.split('+').next().unwrap_or(spec.name)
}

/// The generator for one repeat, seeded as the testbed derives it.
fn build_generator(cfg: &CycleConfig, rate: Option<f64>, repeat: u32) -> Generator {
    let gen_cfg = PktgenConfig {
        count: cfg.count,
        size: cfg.size.clone(),
        ..PktgenConfig::default()
    };
    let mut g = Generator::new(gen_cfg, cfg.tx, cfg.seed.wrapping_add(repeat as u64 * 7919));
    match rate {
        Some(r) => g.set_target_rate(r, cfg.mean_frame),
        None => g.set_full_speed(),
    }
    g.set_burstiness(cfg.burst);
    g
}

/// A chunked generator whose every `next_chunk` is a `pktgen.gen` span.
struct TimedGen<'s> {
    gen: ChunkedGenerator,
    spans: &'s RefCell<Vec<Span>>,
    parent: &'s Cell<u64>,
    cell: u64,
    pass: u8,
}

impl PacketSource for TimedGen<'_> {
    fn next_chunk(&mut self) -> Option<Chunk> {
        let open = Open::start(self.parent.get());
        let chunk = self.gen.next_chunk();
        self.spans
            .borrow_mut()
            .push(open.close("pktgen.gen", self.cell, "", self.pass));
        chunk
    }
}

/// A SUT's splitter output whose every pull is a `testbed.chunk_wait`
/// span under the SUT's sim span.
struct TimedOutput<'s, S: PacketSource> {
    inner: S,
    spans: &'s RefCell<Vec<Span>>,
    parent: u64,
    cell: u64,
    pass: u8,
}

impl<S: PacketSource> PacketSource for TimedOutput<'_, S> {
    fn next_chunk(&mut self) -> Option<Chunk> {
        let open = Open::start(self.parent);
        let chunk = self.inner.next_chunk();
        self.spans
            .borrow_mut()
            .push(open.close("testbed.chunk_wait", self.cell, "", self.pass));
        chunk
    }
}

/// Distill per-SUT reports as the testbed does.
fn distill(achieved_mbps: f64, reports: &[RunReport]) -> CellResult {
    CellResult {
        achieved_mbps,
        suts: reports
            .iter()
            .map(|report| {
                let (worst, best) = report.worst_best();
                let cpu_busy = if report.samples.len() >= 3 {
                    pcs_profiling::trimmed_busy_percent(&report.samples, 95.0)
                } else {
                    report.load_cpu_usage() * 100.0
                };
                CellSut {
                    capture: report.mean_capture_rate(),
                    worst,
                    best,
                    cpu_busy,
                }
            })
            .collect(),
    }
}

/// Run one cell, through the run cache on pass 0. Returns the result;
/// spans go to the pass's recorder.
pub fn run_cell(
    pass: &Pass,
    suts: &[Sut],
    cfg: &CycleConfig,
    rate: Option<f64>,
    repeat: u32,
) -> CellResult {
    let cell_open = Open::start(0);
    let cell = cell_open.id();
    let spans = RefCell::new(Vec::new());
    let key = cell_key_faulted(suts, cfg, rate, repeat, None);
    if pass.id == 0 && pass.collector.is_none() {
        let open = Open::start(cell);
        let hit = RunCache::global().get(&key);
        spans
            .borrow_mut()
            .push(open.close("testbed.run_cache", cell, "", pass.id));
        if let Some(hit) = hit {
            pass.exec.stats.record_cached();
            let mut spans = spans.into_inner();
            spans.push(cell_open.close("testbed.cell", cell, "cached", pass.id));
            pass.recorder.extend(spans);
            return hit;
        }
    }

    let exec = pass.exec;
    let pipeline = exec.pipeline;
    // The publishing span of the chunk being generated.
    let gen_parent = Cell::new(cell);
    // Every workload runs with the CLI's default stream cache (1 GiB), so
    // each cell either generates and publishes its stream or subscribes.
    let open = Open::start(cell);
    let role = StreamCache::global().acquire(
        pcs_testbed::stream_key(cfg, rate, repeat),
        pipeline.stream_cache_bytes,
    );
    spans
        .borrow_mut()
        .push(open.close("pktgen.acquire", cell, "", pass.id));
    // The feed, and the span its every pull records.
    let (mut feed, feed_span): (Box<dyn PacketSource + '_>, &'static str) = match role {
        StreamRole::Produce(publisher) => {
            exec.stats.record_stream_generated();
            pass.tally.gen_pkts.fetch_add(cfg.count, Ordering::Relaxed);
            let gen = TimedGen {
                gen: ChunkedGenerator::new(
                    build_generator(cfg, rate, repeat),
                    pipeline.chunk_packets,
                ),
                spans: &spans,
                parent: &gen_parent,
                cell,
                pass: pass.id,
            };
            (
                Box::new(PublishingSource::new(gen, publisher)),
                "pktgen.publish",
            )
        }
        StreamRole::Subscribe(subscriber) => {
            exec.stats.record_stream_shared();
            (Box::new(subscriber), "pktgen.subscribe")
        }
    };

    let splitter = OpticalSplitter::new(suts.len() as u32);
    let (sender, outputs) = splitter.channel(pipeline.depth_chunks);
    let mut switch = MonitorSwitch::thesis_setup();
    let before = switch.snmp_read(8);
    let mut bytes = 0u64;
    let mut last = None;
    let obs = pass.collector.is_some();
    let (mut reports, sut_spans): (Vec<RunReport>, Vec<Vec<Span>>) = std::thread::scope(|scope| {
        let handles: Vec<_> = suts
            .iter()
            .zip(outputs)
            .map(|(sut, output)| {
                let spec = sut.spec;
                let sim = sut.sim.clone();
                let sink = if obs {
                    TraceSink::bounded(ledger_spec())
                } else {
                    TraceSink::default()
                };
                let pools = Arc::clone(exec.stats.sim_pools());
                let batches = Arc::clone(exec.stats.sim_batches());
                let pass_id = pass.id;
                scope.spawn(move || {
                    let waits = RefCell::new(Vec::new());
                    let cpu0 = thread_cpu_ns();
                    let open = Open::start(cell);
                    let source = TimedOutput {
                        inner: output,
                        spans: &waits,
                        parent: open.id(),
                        cell,
                        pass: pass_id,
                    };
                    let report = MachineSim::new(spec, sim)
                        .with_trace(sink)
                        .with_pool_probe(pools)
                        .with_batch_probe(batches)
                        .with_stage_times(obs)
                        .run_source(source);
                    let mut spans = waits.into_inner();
                    let mut sim = open.close("oskernel.sim", cell, family(&spec), pass_id);
                    sim.cpu_ns = thread_cpu_ns() - cpu0;
                    spans.push(sim);
                    (report, spans)
                })
            })
            .collect();
        loop {
            let open = Open::start(cell);
            gen_parent.set(open.id());
            let chunk = feed.next_chunk();
            spans
                .borrow_mut()
                .push(open.close(feed_span, cell, "", pass.id));
            let Some(chunk) = chunk else { break };
            let open = Open::start(cell);
            for tp in chunk.iter() {
                switch.forward(&tp.packet);
                bytes += tp.packet.frame_len as u64;
                last = Some(tp.time);
            }
            spans
                .borrow_mut()
                .push(open.close("testbed.switch", cell, "", pass.id));
            let open = Open::start(cell);
            sender.broadcast(&chunk);
            spans
                .borrow_mut()
                .push(open.close("testbed.broadcast", cell, "", pass.id));
        }
        drop(sender);
        handles
            .into_iter()
            .map(|h| h.join().expect("sniffer thread panicked"))
            .unzip()
    });
    drop(feed);
    let after = switch.snmp_read(8);
    assert_eq!(
        MonitorSwitch::delta(&before, &after).out_pkts,
        cfg.count,
        "switch must confirm every generated packet went out"
    );
    exec.stats
        .note_stream_resident(StreamCache::global().resident_bytes());
    let elapsed = last.map(pcs_des::SimTime::as_secs_f64).unwrap_or(0.0);
    let achieved = if elapsed > 0.0 {
        bytes as f64 * 8.0 / elapsed / 1e6
    } else {
        0.0
    };

    let label = cell_label(rate, repeat);
    if exec.oracle {
        let open = Open::start(cell);
        let link_mbps = cfg.tx.link_bps as f64 / 1e6;
        if let Err(violation) = Oracle::check_rate(&label, achieved, link_mbps) {
            panic!("{violation}");
        }
        for (sut, report) in suts.iter().zip(&reports) {
            if let Err(violation) = Oracle::check_report(&label, &sut.spec, report) {
                panic!("{violation}");
            }
        }
        exec.stats.record_validated();
        spans
            .borrow_mut()
            .push(open.close("faultsim.oracle", cell, "", pass.id));
    }
    let result = distill(achieved, &reports);

    // The benchmark's own bookkeeping, a child span so that it never
    // counts as testbed self time.
    let open = Open::start(cell);
    for report in &reports {
        pass.tally
            .sut_pkts
            .fetch_add(report.offered, Ordering::Relaxed);
        if pass.id == 0 {
            let mut sum = DropAttribution::default();
            for attr in report.attributions() {
                sum.absorb(&attr);
            }
            for (slot, v) in pass.tally.attribution.iter().zip(sum.values()) {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        }
        if let Some(times) = &report.stage_times {
            for cpu in &times.cpus {
                for (slot, ns) in pass.tally.busy_ns.iter().zip(cpu.busy_ns) {
                    slot.fetch_add(ns, Ordering::Relaxed);
                }
            }
        }
    }
    spans
        .borrow_mut()
        .push(open.close("bench.bookkeeping", cell, "", pass.id));

    if let Some(collector) = pass.collector {
        let open = Open::start(cell);
        let traces = suts
            .iter()
            .zip(reports.iter_mut())
            .map(|(sut, report)| SutTrace {
                label: sut.spec.label(),
                report: report.trace.take().map(|boxed| *boxed).unwrap_or_default(),
                attributions: report.attributions(),
                stage_times: report.stage_times.take(),
            })
            .collect();
        collector.record_cell(label, wide_key(key), achieved, traces);
        spans
            .borrow_mut()
            .push(open.close("obs.record_cell", cell, "", pass.id));
    }
    if pass.id == 0 {
        let open = Open::start(cell);
        RunCache::global().insert(key, result.clone());
        spans
            .borrow_mut()
            .push(open.close("testbed.run_cache", cell, "", pass.id));
        exec.stats.record_run();
    }
    let mut spans = spans.into_inner();
    spans.extend(sut_spans.into_iter().flatten());
    spans.push(cell_open.close("testbed.cell", cell, "", pass.id));
    pass.recorder.extend(spans);
    result
}

/// One sweep's cells on `exec.jobs` workers, aggregated per rate point
/// in input order, exactly as `run_sweep_exec` schedules them.
pub fn sweep(
    pass: &Pass,
    suts: &[Sut],
    cfg: &CycleConfig,
    rates: &[Option<f64>],
) -> (Vec<PointResult>, Vec<CellResult>) {
    let repeats = cfg.repeats as usize;
    let cells: Vec<(usize, u32)> = (0..rates.len())
        .flat_map(|ri| (0..cfg.repeats).map(move |rep| (ri, rep)))
        .collect();
    let results: Vec<CellResult> = parallel_ordered(cells, pass.exec.jobs, |_, (ri, repeat)| {
        run_cell(pass, suts, cfg, rates[ri], repeat)
    });
    let labels: Vec<String> = suts.iter().map(|sut| sut.spec.label()).collect();
    let points = rates
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            aggregate_point(
                rate,
                cfg.count,
                &labels,
                &results[ri * repeats..(ri + 1) * repeats],
            )
        })
        .collect();
    (points, results)
}
