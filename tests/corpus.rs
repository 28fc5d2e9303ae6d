//! The golden corpus: every figure of the quick suite, plus the quick
//! Fig. 6.4a run ledger under three fault plans, regenerated through the
//! figure registry with the invariant oracle armed and compared byte for
//! byte with what the `experiments` CLI wrote:
//!
//! ```text
//! experiments all --scale quick --jobs 2 --csv-dir tests/golden/quick
//! experiments run fig6.4a --scale quick --jobs 2 --faults ringstall:77 \
//!     --ledger tests/golden/fig6.4a_quick_ringstall77.ledger.json
//! ```
//!
//! (and likewise for `kshrink:77` and `preempt:77`). Fig. 6.4a's CSV is
//! the long-standing `tests/golden/fig6.4a_quick_seed.csv`, which
//! `perfbench/run.py` also reads, so it is not duplicated under `quick/`.
//!
//! The corpus pins behaviour across every SUT, application set, filter,
//! buffer size and fault plan the quick suite exercises. A change meant
//! to be invisible (an engine refactor, a faster hot path) must leave it
//! untouched; a change that moves a number must regenerate it from the
//! CLI and say why.

use pcapbench::core::{figures, ExecConfig, Scale};
use pcapbench::faultsim::FaultPlan;
use pcapbench::trace::{StageFilter, TraceCollector, TraceSpec};
use std::path::PathBuf;
use std::sync::Arc;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read corpus file {}: {e}", path.display()))
}

/// Where the CLI's `--csv-dir` output for figure `id` is kept.
fn csv_path(id: &str) -> PathBuf {
    if id == "fig6.4a" {
        golden("fig6.4a_quick_seed.csv")
    } else {
        golden(&format!("quick/{}.csv", id.replace('/', "_")))
    }
}

#[test]
fn quick_suite_csvs_match_the_corpus() {
    let registry = figures::all_experiments();
    let stored = std::fs::read_dir(golden("quick"))
        .expect("corpus directory")
        .count();
    assert_eq!(
        stored + 1,
        registry.len(),
        "one corpus CSV per registered figure (fig6.4a lives at its seed path)"
    );
    let mut drifted = Vec::new();
    for (id, _, run) in registry {
        let exec = ExecConfig::with_jobs(2).with_oracle(true);
        let csv = run(&Scale::quick(), &exec).to_csv();
        if csv != read(&csv_path(id)) {
            drifted.push(id);
        }
    }
    assert!(
        drifted.is_empty(),
        "quick-scale CSVs drifted from the corpus: {drifted:?}"
    );
}

/// Regenerate the quick Fig. 6.4a ledger under `spec` exactly as
/// `experiments run fig6.4a --scale quick --jobs 2 --faults SPEC --ledger`
/// renders it.
fn faulted_ledger(spec: &str) -> String {
    let plan = Arc::new(
        FaultPlan::parse(spec)
            .expect("valid fault spec")
            .expect("armed plan"),
    );
    // A ledger without `--trace` arms the empty stage filter: no events
    // are buffered, but metrics, digests, attributions and stage times
    // accumulate per cell.
    let collector = Arc::new(TraceCollector::new(TraceSpec {
        filter: StageFilter::none(),
        ..TraceSpec::default()
    }));
    let exec = ExecConfig::with_jobs(2)
        .with_oracle(true)
        .with_stage_times(true)
        .with_faults(Arc::clone(&plan))
        .with_trace(Arc::clone(&collector));
    figures::fig6_4_buffer_sweep(&Scale::quick(), false, &exec);
    let meta = pcs_obs::LedgerMeta {
        scale: "quick".to_owned(),
        experiments: vec!["fig6.4a".to_owned()],
        faults: Some(plan.to_string()),
    };
    pcs_obs::render_ledger(&meta, &collector.cells(), None)
}

#[test]
fn faulted_buffer_sweep_ledgers_match_the_corpus() {
    for fault in ["ringstall", "kshrink", "preempt"] {
        let ledger = faulted_ledger(&format!("{fault}:77"));
        let stored = read(&golden(&format!("fig6.4a_quick_{fault}77.ledger.json")));
        assert!(
            ledger == stored,
            "fig6.4a quick ledger under {fault}:77 drifted from the corpus"
        );
    }
}
