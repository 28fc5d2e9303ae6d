//! Golden CSVs for the Linux multi-socket capture path: the 2/4/8
//! capture-application figures (Fig. 6.7–6.9), the mmap-socket figure
//! (Fig. 6.15b) and Fig. 6.9 under a shrinking-kernel-buffer fault plan,
//! each regenerated at quick scale through the figure registry and
//! compared byte for byte with the CSV the `experiments` CLI wrote for it:
//!
//! ```text
//! experiments run fig6.7 fig6.8 fig6.9 fig6.15b --scale quick --csv-dir DIR
//! experiments run fig6.9 --scale quick --faults kshrink:77 --csv-dir DIR
//! ```
//!
//! The unfaulted CSVs are the quick-suite corpus files
//! (`tests/golden/quick/`, also checked through the CLI by
//! `tests/corpus.rs`). These figures run every packet through the shared
//! skb records and per-socket queues of `LsfState`, so any change to
//! Linux admission, pool accounting or dequeue order shows up as a CSV
//! diff.

use pcapbench::core::{figures, ExecConfig, Scale};
use pcapbench::faultsim::FaultPlan;
use std::sync::Arc;

/// Regenerate figure `id` at quick scale through the registry, as the
/// CLI does.
fn regenerate(id: &str, exec: &ExecConfig) -> String {
    let (_, _, run) = figures::all_experiments()
        .into_iter()
        .find(|(fid, _, _)| *fid == id)
        .unwrap_or_else(|| panic!("{id} is not in the registry"));
    run(&Scale::quick(), exec).to_csv()
}

fn assert_golden(id: &str, exec: &ExecConfig, golden: &str) {
    assert_eq!(
        regenerate(id, exec),
        golden,
        "{id} drifted from its committed quick-scale CSV"
    );
}

#[test]
fn multiapp_figures_match_their_golden_csvs() {
    let exec = ExecConfig::with_jobs(2).with_oracle(true);
    assert_golden("fig6.7", &exec, include_str!("golden/quick/fig6.7.csv"));
    assert_golden("fig6.8", &exec, include_str!("golden/quick/fig6.8.csv"));
    assert_golden("fig6.9", &exec, include_str!("golden/quick/fig6.9.csv"));
}

#[test]
fn mmap_sockets_match_their_golden_csv() {
    let exec = ExecConfig::with_jobs(2).with_oracle(true);
    assert_golden("fig6.15b", &exec, include_str!("golden/quick/fig6.15b.csv"));
}

#[test]
fn kshrink_multiapp_matches_its_golden_csv() {
    let plan = FaultPlan::parse("kshrink:77")
        .expect("valid spec")
        .expect("armed plan");
    let exec = ExecConfig::with_jobs(2)
        .with_oracle(true)
        .with_faults(Arc::new(plan));
    assert_golden(
        "fig6.9",
        &exec,
        include_str!("golden/fig6.9_quick_kshrink77.csv"),
    );
}
