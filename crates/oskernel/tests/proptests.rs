//! Property tests for the machine simulation: conservation and
//! determinism must hold for *any* workload and configuration.

use pcs_hw::MachineSpec;
use pcs_oskernel::{AppConfig, BufferConfig, MachineSim, SimConfig};
use pcs_pktgen::{Generator, PktgenConfig, SizeSource, TxModel};
use proptest::prelude::*;

fn source(
    count: u64,
    rate: f64,
    burst: u32,
    seed: u64,
) -> impl Iterator<Item = (pcs_des::SimTime, pcs_wire::SimPacket)> {
    let cfg = PktgenConfig {
        count,
        size: SizeSource::Fixed(659),
        ..PktgenConfig::default()
    };
    let mut g = Generator::new(cfg, TxModel::syskonnect(), seed);
    g.set_target_rate(rate, 659.0);
    g.set_burstiness(burst);
    g.map(|tp| (tp.time, tp.packet))
}

fn arb_machine() -> impl Strategy<Value = MachineSpec> {
    prop_oneof![
        Just(MachineSpec::swan()),
        Just(MachineSpec::snipe()),
        Just(MachineSpec::moorhen()),
        Just(MachineSpec::flamingo()),
        Just(MachineSpec::swan().single_cpu()),
        Just(MachineSpec::moorhen().single_cpu()),
        Just(MachineSpec::snipe().with_hyperthreading()),
    ]
}

proptest! {
    // Each case runs a small simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packet conservation: every offered packet is accounted exactly
    /// once per application (received, buffer-dropped, pool-dropped or
    /// filter-rejected) or dropped at the NIC ring.
    #[test]
    fn conservation(
        spec in arb_machine(),
        count in 500u64..4_000,
        rate in 100f64..900.0,
        burst in 1u32..100,
        napps in 1usize..4,
        small_buffers in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let buffers = if small_buffers {
            BufferConfig::default_buffers()
        } else {
            BufferConfig::increased()
        };
        let cfg = SimConfig {
            buffers,
            apps: vec![AppConfig::plain(); napps],
            ..SimConfig::default()
        };
        let r = MachineSim::new(spec, cfg).run(source(count, rate, burst, seed));
        prop_assert_eq!(r.offered, count);
        for a in &r.apps {
            let s = a.stats;
            prop_assert_eq!(
                a.received + s.dropped_buffer + s.dropped_pool + s.rejected + r.nic_ring_drops,
                r.offered,
                "conservation violated on {}", r.machine
            );
            prop_assert_eq!(s.delivered, a.received);
            prop_assert!(a.received_bytes >= a.received * 42);
        }
        // CPU accounting covers the elapsed time.
        for acct in &r.final_acct {
            prop_assert!(acct.total() <= r.elapsed.as_nanos() + 1_000_000);
        }
    }

    /// Bitwise determinism: identical inputs give identical reports.
    #[test]
    fn determinism(
        count in 500u64..2_000,
        rate in 100f64..900.0,
        seed in any::<u64>(),
    ) {
        let run = || {
            MachineSim::new(MachineSpec::flamingo(), SimConfig::default())
                .run(source(count, rate, 16, seed))
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.apps[0].received, b.apps[0].received);
        prop_assert_eq!(a.elapsed, b.elapsed);
        prop_assert_eq!(a.final_acct, b.final_acct);
        prop_assert_eq!(a.nic_ring_drops, b.nic_ring_drops);
    }

    /// Monotonicity: offering the same packets more slowly never reduces
    /// the capture rate (single app, plain capture).
    #[test]
    fn slower_is_never_worse(
        count in 1_000u64..3_000,
        seed in any::<u64>(),
    ) {
        let run = |rate: f64| {
            MachineSim::new(MachineSpec::flamingo().single_cpu(), SimConfig::default())
                .run(source(count, rate, 16, seed))
                .capture_rate(0)
        };
        let slow = run(200.0);
        let fast = run(860.0);
        prop_assert!(slow + 1e-9 >= fast, "slow {slow} vs fast {fast}");
    }
}
