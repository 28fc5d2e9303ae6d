//! Cross-knob byte-identity of the run ledger.
//!
//! The ledger's whole contract is that execution knobs — worker count,
//! chunk size, stream caching — never show through: the same sweep must
//! render byte-for-byte the same manifest (fingerprints, attribution,
//! metrics, exact latency percentiles, stage times) at any setting, so
//! `cmp A.json B.json` and `obs diff --fail-on-drift` are valid CI
//! gates. This drives a real (tiny) figure sweep through the public
//! harness at every knob combination and compares whole documents.

use std::sync::Arc;

use pcs_core::{figures, ExecConfig, PipelineConfig, Scale};
use pcs_obs::{diff_ledgers, render_ledger, Ledger, LedgerMeta};
use pcs_trace::{StageFilter, TraceCollector, TraceSpec};

/// A sweep small enough for a debug-build test, big enough to drop
/// packets (so attribution and latency digests have teeth).
fn tiny() -> Scale {
    Scale {
        count: 4_000,
        repeats: 1,
        rates: vec![Some(400.0), None],
    }
}

/// Run the fig6.4a sweep with the given knobs and render its ledger.
fn ledger_at(jobs: usize, chunk: usize, stream_cache: u64) -> String {
    let collector = Arc::new(TraceCollector::new(TraceSpec {
        filter: StageFilter::none(),
        ..TraceSpec::default()
    }));
    let pipeline = PipelineConfig {
        chunk_packets: chunk,
        depth_chunks: 4,
        stream_cache_bytes: stream_cache,
    };
    let exec = ExecConfig::with_jobs(jobs)
        .with_pipeline(pipeline)
        .with_trace(Arc::clone(&collector))
        .with_stage_times(true);
    let experiment = figures::fig6_4_buffer_sweep(&tiny(), false, &exec);
    assert!(!experiment.to_table().is_empty());
    let meta = LedgerMeta {
        scale: "tiny".into(),
        experiments: vec!["fig6.4a".into()],
        faults: None,
    };
    render_ledger(&meta, &collector.cells(), None)
}

#[test]
fn ledger_is_byte_identical_across_jobs_chunk_and_stream_cache() {
    let reference = ledger_at(1, 4096, 1 << 30);
    for (jobs, chunk, cache) in [
        (4, 4096, 1 << 30),
        (1, 1, 1 << 30),
        (4, 1, 1 << 30),
        (4, 4096, 0),
    ] {
        let other = ledger_at(jobs, chunk, cache);
        assert_eq!(
            reference, other,
            "ledger changed at --jobs {jobs} --chunk {chunk} --stream-cache {cache}"
        );
    }
    // The reference parses back and self-diffs clean.
    let parsed = Ledger::parse(&reference).expect("ledger parses");
    assert!(!parsed.cells.is_empty());
    let report = diff_ledgers(&parsed, &parsed.clone());
    assert!(!report.has_drift());
    // Stage times and exact latency percentiles actually made it in.
    let sut = &parsed.cells[0].suts[0];
    assert!(sut
        .observables
        .keys()
        .any(|k| k.starts_with("stage_times/cpu0/busy/")));
    assert!(sut
        .observables
        .contains_key("latency/wire_to_app_latency_ns/p99"));
}
