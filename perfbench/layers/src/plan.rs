//! Which sweeps each registry figure runs: the SUT sets, cycle configs
//! and rate ladders of `pcs_core::figures` and `pcs_core::extensions`,
//! restated from public constructors.
//!
//! `main` replays each figure's registry function after its cells ran
//! here; the replay must find every cell in the run cache, so a sweep
//! restated wrongly shows up as an untraced cell and fails the run.

use pcs_capture::MeasurementApp;
use pcs_core::Scale;
use pcs_hw::{MachineSpec, NicModel, OsKind, PciBus, PciKind};
use pcs_oskernel::{AppConfig, BufferConfig, SimConfig};
use pcs_pktgen::TxModel;
use pcs_testbed::{standard_suts, CycleConfig, Sut};

/// One `run_sweep_exec` call of a figure.
pub struct Sweep {
    pub suts: Vec<Sut>,
    pub cycle: CycleConfig,
    pub rates: Vec<Option<f64>>,
}

/// The FNV-1a seed `pcs_core` derives from an experiment id.
pub fn seed_of(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn suts_with(smp: bool, sim: SimConfig) -> Vec<Sut> {
    standard_suts(sim)
        .into_iter()
        .map(|mut s| {
            if !smp {
                s.spec = s.spec.single_cpu();
            }
            s
        })
        .collect()
}

fn with_app(app: AppConfig) -> SimConfig {
    SimConfig {
        apps: vec![app],
        ..SimConfig::default()
    }
}

/// Pairs of (base, variant) SUTs over two machines.
fn paired(bases: [MachineSpec; 2], variant: impl Fn(MachineSpec) -> Sut) -> Vec<Sut> {
    bases
        .into_iter()
        .flat_map(|spec| {
            [
                Sut {
                    spec,
                    sim: SimConfig::default(),
                },
                variant(spec),
            ]
        })
        .collect()
}

/// The sweeps of registry figure `id` at `scale`, with every cycle seed
/// XORed with `seed` (0 reproduces the CLI). `None` for figures that run
/// no cells.
pub fn sweeps_of(id: &str, scale: &Scale, seed: u64) -> Option<Vec<Sweep>> {
    // The experiment id a figure derives its seed from, where it differs
    // from the registry id.
    let seed_id = match id {
        "figB.2" => "figB.2-memcpy25b",
        "figB.3" => "figB.3-gzip9b",
        other => other,
    };
    let cycle = || {
        let mut c = CycleConfig::mwn(scale.count, seed_of(seed_id) ^ seed);
        c.repeats = scale.repeats;
        c
    };
    let one = |suts: Vec<Sut>| {
        Some(vec![Sweep {
            suts,
            cycle: cycle(),
            rates: scale.rates.clone(),
        }])
    };
    let smp = !id.ends_with('a');
    match id {
        "fig6.2a" | "fig6.2b" => one(suts_with(
            smp,
            SimConfig {
                buffers: BufferConfig::default_buffers(),
                ..SimConfig::default()
            },
        )),
        "fig6.3a" | "fig6.3b" => one(suts_with(smp, SimConfig::default())),
        "fig6.4a" | "fig6.4b" => Some(
            (0..12)
                .map(|i| Sweep {
                    suts: suts_with(
                        smp,
                        SimConfig {
                            buffers: BufferConfig::symmetric((128u64 << i) * 1024),
                            ..SimConfig::default()
                        },
                    ),
                    cycle: cycle(),
                    rates: vec![None],
                })
                .collect(),
        ),
        "fig6.6a" | "fig6.6b" => {
            let prog = pcs_bpf::programs::fig65_program(65_535).expect("fig 6.5 filter compiles");
            one(suts_with(
                smp,
                with_app(AppConfig {
                    filter: Some(prog),
                    ..AppConfig::plain()
                }),
            ))
        }
        "fig6.7" | "fig6.8" | "fig6.9" => {
            let napps = match id {
                "fig6.7" => 2,
                "fig6.8" => 4,
                _ => 8,
            };
            one(suts_with(
                true,
                SimConfig {
                    apps: vec![AppConfig::plain(); napps],
                    ..SimConfig::default()
                },
            ))
        }
        "fig6.10a" | "fig6.10b" | "figB.2" => {
            let copies = if id == "figB.2" { 25 } else { 50 };
            one(suts_with(
                smp,
                with_app(MeasurementApp::new().extra_copies(copies).build()),
            ))
        }
        "fig6.11a" | "fig6.11b" | "figB.3" => {
            let level = if id == "figB.3" { 9 } else { 3 };
            one(suts_with(
                smp,
                with_app(MeasurementApp::new().compress(level).build()),
            ))
        }
        "fig6.12" => one(suts_with(
            true,
            with_app(MeasurementApp::new().pipe_to_gzip(3).build()),
        )),
        "fig6.14a" | "fig6.14b" => one(suts_with(
            smp,
            with_app(MeasurementApp::new().write_headers(76).build()),
        )),
        "fig6.15a" | "fig6.15b" => {
            let bases = [MachineSpec::swan(), MachineSpec::snipe()];
            let bases = bases.map(|s| if smp { s } else { s.single_cpu() });
            one(paired(bases, |spec| Sut {
                spec,
                sim: with_app(MeasurementApp::new().mmap().build()),
            }))
        }
        "fig6.16" => one(paired(
            [MachineSpec::snipe(), MachineSpec::flamingo()],
            |spec| Sut {
                spec: spec.with_hyperthreading(),
                sim: SimConfig::default(),
            },
        )),
        "figB.1" => one(paired(
            [MachineSpec::moorhen(), MachineSpec::flamingo()],
            |spec| Sut {
                spec: spec.with_os(OsKind::FreeBsd521),
                sim: SimConfig::default(),
            },
        )),
        "ext-10gige" => {
            let mut c = cycle();
            c.tx = TxModel {
                link_bps: 10_000_000_000,
                per_packet_ns: 600,
            };
            let suts = paired([MachineSpec::moorhen(), MachineSpec::swan()], |base| {
                let mut spec = base;
                spec.pci = PciBus::new(PciKind::PciX);
                spec.name = if base.name == "moorhen" {
                    "moorhen+pcix"
                } else {
                    "swan+pcix"
                };
                Sut {
                    spec,
                    sim: SimConfig::default(),
                }
            });
            let rates = [500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0]
                .into_iter()
                .map(Some)
                .chain([None])
                .collect();
            Some(vec![Sweep {
                suts,
                cycle: c,
                rates,
            }])
        }
        "ext-split" => {
            let load = |app: MeasurementApp| app.compress(3);
            let single = with_app(load(MeasurementApp::new()).build());
            let split = SimConfig {
                apps: vec![
                    load(MeasurementApp::new())
                        .filter("less 700")
                        .expect("filter compiles")
                        .build(),
                    load(MeasurementApp::new())
                        .filter("greater 701")
                        .expect("filter compiles")
                        .build(),
                ],
                ..SimConfig::default()
            };
            let suts = [MachineSpec::moorhen(), MachineSpec::swan()]
                .into_iter()
                .flat_map(|spec| {
                    [
                        Sut {
                            spec,
                            sim: single.clone(),
                        },
                        Sut {
                            spec,
                            sim: split.clone(),
                        },
                    ]
                })
                .collect();
            one(suts)
        }
        "ext-burst" => Some(
            [1u32, 16, 64, 256]
                .into_iter()
                .map(|burst| {
                    let mut c = cycle();
                    c.burst = burst;
                    Sweep {
                        suts: vec![Sut {
                            spec: MachineSpec::swan().single_cpu(),
                            sim: SimConfig {
                                buffers: BufferConfig::default_buffers(),
                                ..SimConfig::default()
                            },
                        }],
                        cycle: c,
                        rates: scale.rates.clone(),
                    }
                })
                .collect(),
        ),
        "ext-polling" => {
            let suts = [
                ("flamingo", NicModel::intel_82544()),
                ("flamingo+itr", NicModel::intel_82544_moderated(100)),
                ("flamingo+poll", NicModel::intel_82544_polling(150)),
            ]
            .into_iter()
            .map(|(name, nic)| {
                let mut spec = MachineSpec::flamingo().single_cpu();
                spec.nic = nic;
                spec.name = name;
                Sut {
                    spec,
                    sim: SimConfig::default(),
                }
            })
            .collect();
            one(suts)
        }
        _ => None,
    }
}
