//! Determinism guarantees of the parallel sweep engine: the same seed
//! must produce byte-identical outputs at any worker count and any
//! streaming-pipeline shape, and the in-process [`RunCache`] and
//! content-addressed stream cache must be invisible in the results.
//!
//! Each test uses a packet count no other test in this binary uses, so
//! the process-global cache cannot leak cells between concurrently
//! running tests and the run/cached counters stay exact. Tests that
//! *clear* the global cache additionally serialize on
//! [`CACHE_CLEAR_LOCK`], so one test's flush cannot break another's
//! cold/warm counter assertions.

use pcapbench::core::{figures, ExecConfig, PipelineConfig, Scale};
use pcapbench::testbed::RunCache;
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

/// Serializes the tests that flush the process-global run cache.
static CACHE_CLEAR_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn csv_is_byte_identical_at_any_job_count() {
    let scale = Scale {
        count: 31_000,
        repeats: 2,
        rates: vec![Some(200.0), Some(700.0), None],
    };
    let serial = figures::fig6_2_default_buffers(&scale, true, &ExecConfig::with_jobs(1));
    for jobs in [2, 8] {
        let exec = ExecConfig::with_jobs(jobs);
        let parallel = figures::fig6_2_default_buffers(&scale, true, &exec);
        assert_eq!(
            serial.to_csv(),
            parallel.to_csv(),
            "--jobs {jobs} must render the same CSV bytes as --jobs 1"
        );
        assert_eq!(
            serial.to_table(),
            parallel.to_table(),
            "--jobs {jobs} must render the same table bytes as --jobs 1"
        );
    }
}

#[test]
fn warm_cache_reproduces_cold_run_exactly() {
    let _guard = CACHE_CLEAR_LOCK.lock().unwrap();
    let scale = Scale {
        count: 29_000,
        repeats: 2,
        rates: vec![Some(300.0), None],
    };
    // Cold: make sure nothing of this configuration is cached, then run.
    RunCache::global().clear();
    let cold_exec = ExecConfig::with_jobs(4);
    let cold = figures::fig6_6_filter(&scale, true, &cold_exec);
    assert!(
        cold_exec.stats.cells_run() >= 1,
        "cold run must simulate at least one cell"
    );

    // Warm: same figure again in the same process — every cell must come
    // from the cache and the rendered bytes must not change.
    let warm_exec = ExecConfig::with_jobs(4);
    let warm = figures::fig6_6_filter(&scale, true, &warm_exec);
    assert_eq!(
        warm_exec.stats.cells_run(),
        0,
        "warm run must simulate nothing"
    );
    assert_eq!(
        warm_exec.stats.cells_cached(),
        cold_exec.stats.cells_run() + cold_exec.stats.cells_cached(),
        "warm run must serve every cell from cache"
    );
    assert_eq!(cold.to_csv(), warm.to_csv());
    assert_eq!(cold.to_table(), warm.to_table());

    // And a cache flush in between must still not change the bytes.
    RunCache::global().clear();
    let reran = figures::fig6_6_filter(&scale, true, &ExecConfig::with_jobs(4));
    assert_eq!(cold.to_csv(), reran.to_csv());
}

/// The matrix test's shared scale (packet count unique to this binary).
fn matrix_scale() -> Scale {
    Scale {
        count: 33_000,
        repeats: 2,
        rates: vec![Some(250.0), None],
    }
}

/// The serial default-pipeline reference rendering, computed once.
/// Callers must hold [`CACHE_CLEAR_LOCK`].
fn matrix_reference() -> &'static (String, String) {
    static REFERENCE: OnceLock<(String, String)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        RunCache::global().clear();
        let exec = ExecConfig::with_jobs(1);
        let reference = figures::fig6_2_default_buffers(&matrix_scale(), true, &exec);
        assert!(
            exec.stats.cells_run() >= 1,
            "reference must actually simulate"
        );
        (reference.to_csv(), reference.to_table())
    })
}

proptest! {
    // Every sampled (jobs, chunk, depth, stream-cache) execution shape
    // must render byte-identically to the serial default-pipeline
    // reference. Each case is a whole sweep, so the case count is pinned
    // low here on purpose — CI's elevated PROPTEST_CASES sweep targets
    // the cheap parser/attribution properties, not this matrix.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn pipeline_shape_is_byte_identical_to_serial_default(
        jobs in 1usize..=4,
        chunk in prop_oneof![Just(1usize), 2usize..=8_192],
        depth in 1usize..=8,
        cache_on in any::<bool>(),
    ) {
        let _guard = CACHE_CLEAR_LOCK.lock().unwrap();
        let (ref_csv, ref_table) = matrix_reference();
        // Flush the run cache so the streamed run really recomputes every
        // cell — pipeline shape is excluded from the cell key, so a warm
        // cache would make this comparison vacuous. The stream cache is
        // part of the sampled shape: off forces every cell to re-chunk
        // the generator, on shares the producer's chunk boundaries.
        RunCache::global().clear();
        let mut pipeline = PipelineConfig::with_chunk(chunk)
            .with_stream_cache(if cache_on { 1 << 30 } else { 0 });
        pipeline.depth_chunks = depth;
        let exec = ExecConfig::with_jobs(jobs).with_pipeline(pipeline);
        let streamed = figures::fig6_2_default_buffers(&matrix_scale(), true, &exec);
        prop_assert!(
            exec.stats.cells_run() >= 1,
            "--chunk {} --jobs {} must recompute, not hit the cache", chunk, jobs
        );
        prop_assert_eq!(
            ref_csv,
            &streamed.to_csv(),
            "--jobs {} --chunk {} --depth {} cache {} must render the reference CSV bytes",
            jobs, chunk, depth, cache_on
        );
        prop_assert_eq!(
            ref_table,
            &streamed.to_table(),
            "--jobs {} --chunk {} --depth {} cache {} must render the reference table bytes",
            jobs, chunk, depth, cache_on
        );
    }
}

#[test]
fn stream_cache_on_and_off_render_identical_csv() {
    let _guard = CACHE_CLEAR_LOCK.lock().unwrap();
    let scale = Scale {
        count: 35_000,
        repeats: 2,
        rates: vec![Some(220.0), None],
    };
    // Reference: stream sharing off — every cell regenerates its stream.
    RunCache::global().clear();
    let off_exec =
        ExecConfig::with_jobs(4).with_pipeline(PipelineConfig::streaming().with_stream_cache(0));
    let off = figures::fig6_2_default_buffers(&scale, true, &off_exec);
    assert!(off_exec.stats.cells_run() >= 1, "off run must simulate");
    assert_eq!(
        off_exec.stats.streams_generated() + off_exec.stats.streams_shared(),
        0,
        "--stream-cache off must never consult the stream cache"
    );
    // Sharing on (the default): byte-identical CSV and table.
    RunCache::global().clear();
    let on_exec = ExecConfig::with_jobs(4);
    let on = figures::fig6_2_default_buffers(&scale, true, &on_exec);
    assert!(
        on_exec.stats.streams_generated() >= 1,
        "on run must publish its streams"
    );
    assert_eq!(
        off.to_csv(),
        on.to_csv(),
        "--stream-cache on/off must render the same CSV bytes"
    );
    assert_eq!(off.to_table(), on.to_table());
}

#[test]
fn repeats_use_distinct_streams_but_stay_deterministic() {
    // With >1 repeats the per-repeat seed derivation must give each
    // repeat its own stream (otherwise the median over repeats is just
    // the single-run value and the thesis' §6.2.2 calculation is moot),
    // and the whole aggregate must still be reproducible.
    let scale_1 = Scale {
        count: 27_000,
        repeats: 1,
        rates: vec![None],
    };
    let scale_5 = Scale {
        count: 27_000,
        repeats: 5,
        rates: vec![None],
    };
    let one = figures::fig6_2_default_buffers(&scale_1, false, &ExecConfig::with_jobs(8));
    let five_a = figures::fig6_2_default_buffers(&scale_5, false, &ExecConfig::with_jobs(8));
    let five_b = figures::fig6_2_default_buffers(&scale_5, false, &ExecConfig::with_jobs(3));
    assert_eq!(
        five_a.to_csv(),
        five_b.to_csv(),
        "repeat medians must not depend on the job count"
    );
    // Not a hard guarantee per-point, but over a whole overloaded sweep
    // the 5-repeat median CSV differing from the single run shows the
    // repeats really sampled different streams.
    assert_ne!(
        one.to_csv(),
        five_a.to_csv(),
        "5 repeats must not collapse to the single-repeat run"
    );
}
