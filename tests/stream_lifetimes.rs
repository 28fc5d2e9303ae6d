//! Stream lifetimes follow declared demand: a sweep keeps a generated
//! packet stream in the process-global stream cache only while one of
//! its cells still has to read it, and the figures stay byte-identical.
//!
//! Each test uses inputs no other test in this binary uses, so the
//! process-global run and stream caches cannot leak cells or streams
//! between concurrently running tests.

use pcapbench::core::{figures, ExecConfig, Scale};
use pcapbench::hw::MachineSpec;
use pcapbench::oskernel::SimConfig;
use pcapbench::testbed::{run_sweep_exec, CycleConfig, Sut};

#[test]
fn buffer_sweep_generates_one_stream_and_keeps_none() {
    let exec = ExecConfig::with_jobs(2);
    let experiment = figures::fig6_4_buffer_sweep(&Scale::quick(), false, &exec);
    assert_eq!(
        experiment.to_csv(),
        include_str!("golden/fig6.4a_quick_seed.csv"),
        "fig6.4a quick must render the committed seed CSV"
    );
    // Twelve buffer sizes, one repeat at full speed: one stream, read
    // by all twelve cells of the one sweep.
    assert_eq!(exec.stats.cells_run(), 12);
    assert_eq!(exec.stats.streams_generated(), 1);
    assert_eq!(exec.stats.streams_shared(), 11);
    assert!(exec.stats.peak_stream_bytes() > 0, "the stream was shared");
    assert_eq!(
        exec.stats.stream_retained().current(),
        0,
        "the stream leaves the cache with its last consumer"
    );
}

#[test]
fn single_consumer_streams_are_never_retained() {
    let suts = vec![
        Sut {
            spec: MachineSpec::swan(),
            sim: SimConfig::default(),
        },
        Sut {
            spec: MachineSpec::flamingo(),
            sim: SimConfig::default(),
        },
    ];
    let mut cfg = CycleConfig::mwn(21_013, 6031);
    cfg.repeats = 2;
    let rates = [Some(150.0), Some(600.0), None];
    let exec = ExecConfig::with_jobs(2);
    let points = run_sweep_exec(&suts, &cfg, &rates, &exec);
    assert_eq!(points.len(), rates.len());
    assert_eq!(exec.stats.cells_run(), 6);
    assert_eq!(exec.stats.streams_generated(), 6, "one stream per cell");
    assert_eq!(exec.stats.streams_shared(), 0);
    assert_eq!(
        exec.stats.peak_stream_bytes(),
        0,
        "a stream with one consumer is never published into the cache"
    );
}
