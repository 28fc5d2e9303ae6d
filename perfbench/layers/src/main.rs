//! `perfbench-layers` — the traced layer run of the benchmark.
//!
//! ```text
//! perfbench-layers --workload rate-sweep|buffer-sweep-ledger|suite-quick
//!                  --out DIR [--seed S] [--jobs N]
//! ```
//!
//! Runs the cells of the workload's figures through the public API of
//! each workspace crate (`cell.rs`), recording a span around every call,
//! then replays the figures' registry functions from the run cache and
//! renders them (`pcs-core`). With `--seed 0` (the default) the cells
//! are the CLI's own, so `DIR/csv/*.csv` (and `DIR/ledger.json` for the
//! ledger workload) must equal what `experiments` writes byte for byte.
//! Any other seed is XORed into every cycle seed: new inputs for claims
//! made on a held-out seed; the figures are then rendered generically.
//!
//! A second pass re-simulates every cell with the obs arming flipped
//! (ledger stage times and collector sink on if the workload runs
//! without them, off if it runs with them), checks that the results
//! are unchanged, and prices the arming as the sim-time difference.
//!
//! Writes `DIR/spans.jsonl` (one span per line) and `DIR/counters.json`
//! (exact counts); `perfbench/run.py` turns both into per-layer metrics.

mod cell;
mod plan;
mod span;

use cell::{ledger_spec, sweep, Pass, Tally};
use pcs_core::{all_experiments, ExecConfig, Experiment, Scale};
use pcs_obs::{render_ledger, LedgerMeta};
use pcs_pktgen::StreamCache;
use pcs_testbed::cache::cell_key_faulted;
use pcs_testbed::{parallel_ordered, RunCache};
use pcs_trace::{export, DropAttribution, TraceCollector, WorkKind};
use span::{now_ns, span_between, Recorder};
use std::fmt::Write as _;
use std::process::exit;
use std::sync::atomic::Ordering;

/// A benchmark workload: the CLI invocation it mirrors.
struct Workload {
    name: &'static str,
    /// Registry ids (`None`: every registered figure, as `experiments all`).
    ids: Option<&'static [&'static str]>,
    scale: &'static str,
    ledger: bool,
    oracle: bool,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rate-sweep",
        ids: Some(&["fig6.3b"]),
        scale: "standard",
        ledger: false,
        oracle: false,
    },
    Workload {
        name: "buffer-sweep-ledger",
        ids: Some(&["fig6.4b"]),
        scale: "standard",
        ledger: true,
        oracle: false,
    },
    Workload {
        name: "suite-quick",
        ids: None,
        scale: "quick",
        ledger: false,
        oracle: true,
    },
];

fn fail(msg: String) -> ! {
    eprintln!("perfbench-layers: {msg}");
    exit(2);
}

struct Args {
    workload: &'static Workload,
    out: String,
    seed: u64,
    jobs: usize,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut out = None;
    let mut seed = 0u64;
    let mut jobs = 2usize;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| fail(format!("{} wants a value", args[i])));
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .unwrap_or_else(|| fail(format!("unknown workload '{value}'"))),
                )
            }
            "--out" => out = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| fail(format!("--seed wants an integer, got '{value}'")))
            }
            "--jobs" => {
                jobs = value.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    fail(format!("--jobs wants a positive integer, got '{value}'"))
                })
            }
            other => fail(format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    Args {
        workload: workload.unwrap_or_else(|| fail("--workload is required".into())),
        out: out.unwrap_or_else(|| fail("--out is required".into())),
        seed,
        jobs,
    }
}

fn write(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
}

fn main() {
    let t_start = now_ns();
    let args = parse_args();
    let w = args.workload;
    let scale = Scale::by_name(w.scale).expect("workload scales are registered");
    let selected: Vec<_> = all_experiments()
        .into_iter()
        .filter(|(id, _, _)| w.ids.is_none_or(|ids| ids.contains(id)))
        .collect();
    // The CLI's two-level pool: `outer` figures in flight, each sweeping
    // its cells over `inner` workers.
    let outer = args.jobs.min(selected.len().max(1));
    let inner = (args.jobs / outer).max(1);
    std::fs::create_dir_all(format!("{}/csv", args.out))
        .unwrap_or_else(|e| fail(format!("cannot create {}/csv: {e}", args.out)));

    let recorder = Recorder::default();
    let collectors = [
        TraceCollector::new(ledger_spec()),
        TraceCollector::new(ledger_spec()),
    ];
    // Pass 0 arms obs exactly when the CLI would (`--ledger`); pass 1
    // flips it.
    let armed_pass = if w.ledger { 0 } else { 1 };
    let tallies = [Tally::default(), Tally::default()];
    // Only pass 0 runs the oracle, as the CLI's `--oracle` does.
    let execs = [
        ExecConfig::with_jobs(inner).with_oracle(w.oracle),
        ExecConfig::with_jobs(inner),
    ];
    let pass = |id: u8| Pass {
        id,
        exec: &execs[id as usize],
        collector: (id == armed_pass).then_some(&collectors[id as usize]),
        recorder: &recorder,
        tally: &tallies[id as usize],
    };
    let pass0 = pass(0);

    // Pass 0: the cells, then each figure replayed from the run cache and
    // rendered, `outer` figures at a time as the CLI runs them.
    let figures = parallel_ordered(selected.clone(), outer, |_, (id, _, run)| {
        let sweeps = plan::sweeps_of(id, &scale, args.seed);
        let mut points = Vec::new();
        for s in sweeps.iter().flatten() {
            points.push(sweep(&pass0, &s.suts, &s.cycle, &s.rates).0);
        }
        let replay = ExecConfig::with_jobs(inner);
        let t0 = now_ns();
        let experiment = if args.seed == 0 || sweeps.is_none() {
            run(&scale, &replay)
        } else {
            generic_experiment(id, &points)
        };
        let figure_span = span_between("core.figure", id, t0, 0);
        let t0 = now_ns();
        let table = experiment.to_table();
        let csv = experiment.to_csv();
        let render_span = span_between("core.render", id, t0, 0);
        recorder.extend(vec![figure_span, render_span]);
        std::hint::black_box(table);
        (id, csv, replay.stats.cells_run())
    });
    let pass0_ns = now_ns() - t_start;
    let stats = &pass0.exec.stats;
    let cells_run = stats.cells_run();
    let cells_cached = stats.cells_cached();
    let untraced: u64 = figures.iter().map(|(_, _, n)| n).sum();
    for (id, csv, _) in &figures {
        write(
            &format!("{}/csv/{}.csv", args.out, id.replace('/', "_")),
            csv,
        );
    }

    // Pass 1: every cell again with the obs arming flipped, on the same
    // two-level pool. Results must not move; pass-0 results sit in the
    // run cache under the same key.
    let pass1 = pass(1);
    let changed: u64 = parallel_ordered(selected.clone(), outer, |_, (id, _, _)| {
        let mut changed = 0;
        for s in plan::sweeps_of(id, &scale, args.seed).iter().flatten() {
            let (_, results) = sweep(&pass1, &s.suts, &s.cycle, &s.rates);
            let coords =
                (0..s.rates.len()).flat_map(|ri| (0..s.cycle.repeats).map(move |rep| (ri, rep)));
            for ((ri, rep), result) in coords.zip(results) {
                let key = cell_key_faulted(&s.suts, &s.cycle, s.rates[ri], rep, None);
                if RunCache::global().get(&key).as_ref() != Some(&result) {
                    changed += 1;
                }
            }
        }
        changed
    })
    .into_iter()
    .sum();

    // Render the ledger of the armed pass, as `--ledger` does.
    let t0 = now_ns();
    let cells = collectors[armed_pass as usize].cells();
    let meta = LedgerMeta {
        scale: w.scale.to_string(),
        experiments: selected.iter().map(|(id, ..)| id.to_string()).collect(),
        faults: None,
    };
    let ledger = render_ledger(&meta, &cells, None);
    export::validate_json(&ledger).expect("generated ledger JSON must be valid");
    recorder.extend(vec![span_between("obs.render_ledger", "", t0, armed_pass)]);
    if w.ledger {
        write(&format!("{}/ledger.json", args.out), &ledger);
    }

    let spans = recorder.take();
    let mut lines = String::with_capacity(spans.len() * 128);
    for s in &spans {
        lines.push_str(&span::to_json_line(s));
        lines.push('\n');
    }
    write(&format!("{}/spans.jsonl", args.out), &lines);

    let cli_tally = &tallies[0];
    let armed_tally = &tallies[armed_pass as usize];
    let pools = stats.sim_pools();
    let batches = stats.sim_batches();
    let mut c = String::from("{");
    let mut field = |k: &str, v: String| {
        let _ = write!(c, "{}\"{k}\":{v}", if c.len() > 1 { "," } else { "" });
    };
    field("workload", format!("\"{}\"", w.name));
    field("seed", args.seed.to_string());
    field("jobs", args.jobs.to_string());
    field("armed_pass", armed_pass.to_string());
    field("cells_run", cells_run.to_string());
    field("cells_cached", cells_cached.to_string());
    field("cells_validated", stats.cells_validated().to_string());
    field("cells_untraced", untraced.to_string());
    field("cells_changed_by_obs", changed.to_string());
    field(
        "sut_pkts",
        cli_tally.sut_pkts.load(Ordering::Relaxed).to_string(),
    );
    field(
        "gen_pkts",
        cli_tally.gen_pkts.load(Ordering::Relaxed).to_string(),
    );
    field("streams_generated", stats.streams_generated().to_string());
    field("streams_shared", stats.streams_shared().to_string());
    field(
        "stream_cache_peak_bytes",
        StreamCache::global().peak_resident_bytes().to_string(),
    );
    field("pool_gets", pools.gets().to_string());
    field("pool_misses", pools.misses().to_string());
    field("batch_runs", batches.runs().to_string());
    field("batch_coalesced", batches.coalesced().to_string());
    field("alpha_hits", batches.alpha_hits().to_string());
    field("alpha_misses", batches.alpha_misses().to_string());
    field("size_hits", batches.size_hits().to_string());
    field("size_misses", batches.size_misses().to_string());
    let attribution: Vec<String> = DropAttribution::COLUMNS
        .iter()
        .zip(&cli_tally.attribution)
        .map(|(col, v)| format!("\"{col}\":{}", v.load(Ordering::Relaxed)))
        .collect();
    field("attribution", format!("{{{}}}", attribution.join(",")));
    let busy: Vec<String> = WorkKind::ALL
        .iter()
        .zip(&armed_tally.busy_ns)
        .map(|(kind, v)| format!("\"{}\":{}", kind.name(), v.load(Ordering::Relaxed)))
        .collect();
    field("busy_ns", format!("{{{}}}", busy.join(",")));
    field("pass0_ns", pass0_ns.to_string());
    c.push('}');
    write(&format!("{}/counters.json", args.out), &c);
}

/// Figure rendering for a non-default seed, where the registry function
/// would not find the cells in the run cache: one series per SUT per
/// sweep, as `Experiment::from_sweep` lays them out.
fn generic_experiment(id: &str, sweeps: &[Vec<pcs_testbed::PointResult>]) -> Experiment {
    let mut all = Experiment::from_sweep(id, "", "", &[]);
    for points in sweeps {
        all.series
            .extend(Experiment::from_sweep(id, "", "", points).series);
    }
    all
}
