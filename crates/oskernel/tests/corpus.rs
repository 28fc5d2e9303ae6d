//! The engine corpus: one recorded fingerprint per point of a grid of
//! four machines × four fault hooks × four trace filters, each run over
//! the same generated stream on the production path
//! ([`MachineSim::run_source`] over shared chunk references).
//!
//! A point's line holds three 128-bit [`Fingerprint`]s: of the report's
//! `Debug` rendering (every counter, sample, accounting total and, when
//! traced, every buffered event), of the Chrome-JSON and CSV trace
//! exports, and of the rendered `--ledger` document. Faults exercise the
//! paths an engine change is most likely to disturb: a pinned RX ring
//! (NIC overflow inside coalesced admission runs), a constant dispatch
//! preemption (split work items) and a kernel-buffer shrink window
//! (a hook consulted on every delivery, whose edge must fall on the
//! same arrival). The `sched` filter pins the exact dispatch order.
//!
//! The corpus was recorded, and checked identical, under both the
//! macro-batched pooled engine and the per-packet heap engine with
//! owned-packet injection that preceded it. On a mismatch the test
//! prints every drifted point and the full recomputed table.

use pcs_des::Fingerprint;
use pcs_hw::MachineSpec;
use pcs_oskernel::{AppConfig, BufferConfig, MachineFaults, MachineSim, RunReport, SimConfig};
use pcs_pktgen::{ChunkedGenerator, Generator, PktgenConfig, SizeSource, TxModel};
use pcs_trace::{CellTrace, Stage, StageFilter, SutTrace, TraceSink, TraceSpec};

/// A hook pinning the RX ring to one slot for the whole run.
struct Stall;
impl pcs_hw::NicBusFault for Stall {
    fn ring_slots(&mut self, _now_ns: u64, _base: usize) -> usize {
        1
    }
}
impl pcs_hw::SchedFault for Stall {}
impl MachineFaults for Stall {}

/// A hook holding every CPU 2 µs at each dispatch.
struct Preempt;
impl pcs_hw::NicBusFault for Preempt {}
impl pcs_hw::SchedFault for Preempt {
    fn preempt_extra_ns(&mut self, _now_ns: u64, _cpu: usize) -> u64 {
        2_000
    }
}
impl MachineFaults for Preempt {}

/// A hook cutting kernel-buffer capacity to 1/4 between 1 ms and 3 ms
/// of sim time.
struct Kshrink;
impl pcs_hw::NicBusFault for Kshrink {}
impl pcs_hw::SchedFault for Kshrink {}
impl MachineFaults for Kshrink {
    fn buffer_permille(&mut self, now_ns: u64) -> u32 {
        if (1_000_000..3_000_000).contains(&now_ns) {
            250
        } else {
            1000
        }
    }
}

const MACHINES: [fn() -> MachineSpec; 4] = [
    MachineSpec::swan,
    MachineSpec::snipe,
    MachineSpec::moorhen,
    MachineSpec::flamingo,
];
const FAULTS: [&str; 4] = ["none", "stall", "preempt", "kshrink"];
const FILTERS: [&str; 4] = ["off", "all", "drops", "sched+all"];

fn hooks(fault: &str) -> Option<Box<dyn MachineFaults>> {
    match fault {
        "stall" => Some(Box::new(Stall)),
        "preempt" => Some(Box::new(Preempt)),
        "kshrink" => Some(Box::new(Kshrink)),
        _ => None,
    }
}

fn trace_spec(filter: &str) -> Option<TraceSpec> {
    let filter = match filter {
        "all" => StageFilter::all(),
        "drops" => StageFilter::drops(),
        "sched+all" => {
            let mut f = StageFilter::sched();
            for s in Stage::ALL {
                f.insert(s);
            }
            f
        }
        _ => return None,
    };
    Some(TraceSpec {
        filter,
        ..TraceSpec::default()
    })
}

/// The grid's workload: 4000 MWN-distributed packets at 700 Mbit/s in
/// bursts of 16, cut into 1009-packet chunks, captured by two plain
/// applications behind the default (small) kernel buffers.
fn run_point(spec: MachineSpec, fault: &str, filter: &str) -> RunReport {
    let counts = pcs_pktgen::mwn_counts(1_000_000);
    let dist = pcs_pktgen::TwoStageDist::from_counts(
        counts.iter().map(|(&s, &c)| (s, c)),
        &pcs_pktgen::DistConfig::default(),
    )
    .expect("mwn distribution is non-empty");
    let mut gen = Generator::new(
        PktgenConfig {
            count: 4_000,
            size: SizeSource::Distribution(dist),
            ..PktgenConfig::default()
        },
        TxModel::syskonnect(),
        0x5eed,
    );
    gen.set_target_rate(700.0, pcs_pktgen::mwn_mean(&counts) + 14.0);
    gen.set_burstiness(16);
    let cfg = SimConfig {
        buffers: BufferConfig::default_buffers(),
        apps: vec![AppConfig::plain(); 2],
        ..SimConfig::default()
    };
    let mut sim = MachineSim::new(spec, cfg).with_faults(hooks(fault));
    if let Some(spec) = trace_spec(filter) {
        sim = sim
            .with_trace(TraceSink::bounded(spec))
            .with_stage_times(true);
    }
    sim.run_source(ChunkedGenerator::new(gen, 1009))
}

fn hex(fp: &Fingerprint) -> String {
    let (a, b) = fp.finish();
    format!("{a:016x}{b:016x}")
}

fn digest(parts: &[&str]) -> String {
    let mut fp = Fingerprint::new();
    for part in parts {
        fp.str(part);
    }
    hex(&fp)
}

/// One corpus line: `machine fault filter report exports ledger`
/// (`-` for the trace-derived digests of an untraced point).
fn point_line(spec: MachineSpec, fault: &str, filter: &str) -> String {
    let report = run_point(spec, fault, filter);
    let (exports, ledger) = match report.trace.as_deref() {
        Some(trace) => {
            let cell = CellTrace {
                label: format!("corpus {}", report.machine),
                key: 1,
                achieved_mbps: 0.0,
                suts: vec![SutTrace {
                    label: report.machine.clone(),
                    report: trace.clone(),
                    attributions: report.attributions(),
                    stage_times: report.stage_times.clone(),
                }],
            };
            let cells = std::slice::from_ref(&cell);
            let meta = pcs_obs::LedgerMeta {
                scale: "corpus".to_owned(),
                experiments: vec!["engine_grid".to_owned()],
                faults: None,
            };
            (
                digest(&[
                    &pcs_trace::export::chrome_trace_json(cells),
                    &pcs_trace::export::events_csv(cells),
                ]),
                digest(&[&pcs_obs::render_ledger(&meta, cells, None)]),
            )
        }
        None => ("-".to_owned(), "-".to_owned()),
    };
    format!(
        "{} {fault} {filter} {} {exports} {ledger}",
        spec.name,
        digest(&[&format!("{report:?}")])
    )
}

#[test]
fn engine_grid_matches_the_corpus() {
    let mut actual = Vec::new();
    for machine in MACHINES {
        for fault in FAULTS {
            for filter in FILTERS {
                actual.push(point_line(machine(), fault, filter));
            }
        }
    }
    let stored: Vec<&str> = include_str!("golden/engine_grid.txt").lines().collect();
    let drifted: Vec<&String> = actual
        .iter()
        .filter(|line| !stored.contains(&line.as_str()))
        .collect();
    assert!(
        drifted.is_empty() && stored.len() == actual.len(),
        "engine grid drifted at {} of {} points (corpus has {}):\n{}\n\nrecomputed table:\n{}",
        drifted.len(),
        actual.len(),
        stored.len(),
        drifted
            .iter()
            .map(|l| l.as_str())
            .collect::<Vec<_>>()
            .join("\n"),
        actual.join("\n")
    );
}
