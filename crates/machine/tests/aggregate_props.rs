//! Property-based invariants of the aggregate noise fidelity at the machine
//! and noise-process level: silent models and empty windows are strict
//! no-ops, and aggregate results are bit-reproducible — per seed and per
//! fleet thread count.

use llc_cache_model::{CacheSpec, SetLocation, VirtAddr};
use llc_fleet::Fleet;
use llc_machine::{Machine, NoiseAdvance, NoiseFidelity, NoiseModel, NoiseProcess};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A silent noise model never produces an aggregate advance, no matter
    /// the sync pattern.
    #[test]
    fn zero_rate_is_a_noop(
        seed in any::<u64>(),
        times in prop::collection::vec(0u64..1_000_000_000, 1..24),
        set in 0usize..4,
    ) {
        let mut process = NoiseProcess::new(NoiseModel::silent(), NoiseFidelity::Aggregate, 4, 2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut times = times;
        times.sort_unstable();
        for now in times {
            let advance = process.catch_up_aggregate(SetLocation::new(0, set), now, &mut rng);
            prop_assert_eq!(advance, NoiseAdvance::NONE);
        }
    }

    /// A zero-cycle window (re-observation at the same timestamp) never
    /// produces an aggregate advance, even at the Cloud Run rate.
    #[test]
    fn zero_gap_is_a_noop(
        seed in any::<u64>(),
        now in 0u64..1_000_000_000,
        repeats in 1usize..8,
        set in 0usize..4,
    ) {
        let mut process =
            NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Aggregate, 4, 2);
        let mut rng = SmallRng::seed_from_u64(seed);
        let loc = SetLocation::new(0, set);
        // A first observation is itself a zero window.
        for _ in 0..=repeats {
            let advance = process.catch_up_aggregate(loc, now, &mut rng);
            prop_assert_eq!(advance, NoiseAdvance::NONE);
        }
    }

    /// On a machine with a silent model, aggregate mode models no events and
    /// never evicts the attacker's lines, whatever the idle pattern.
    #[test]
    fn silent_machine_stays_silent(
        seed in any::<u64>(),
        gaps in prop::collection::vec(1u64..4_000_000, 1..12),
    ) {
        let mut machine = Machine::builder(CacheSpec::tiny_test())
            .noise(NoiseModel::silent())
            .noise_fidelity(NoiseFidelity::Aggregate)
            .seed(seed)
            .build();
        let va = machine.alloc_attacker_pages(1);
        machine.access(va);
        for gap in gaps {
            machine.idle(gap);
            let (_, level) = machine.timed_access(va);
            prop_assert!(level <= llc_cache_model::HitLevel::L2,
                "probe reached {level:?} with a silent noise model");
        }
        prop_assert_eq!(machine.stats().noise_events, 0);
    }

    /// Aggregate-mode fleet workloads are bit-identical across thread
    /// counts: the per-trial seeds fully determine every machine's noise, and
    /// the fleet returns each trial's total in trial order.
    #[test]
    fn aggregate_fleet_results_are_thread_invariant(master in any::<u64>()) {
        let workload = |threads: usize| -> Vec<u64> {
            Fleet::new(threads).with_chunk(1).run(8, master, |ctx| {
                let mut machine = Machine::builder(CacheSpec::tiny_test())
                    .noise(NoiseModel::cloud_run())
                    .noise_fidelity(NoiseFidelity::Aggregate)
                    .seed(ctx.seed)
                    .build();
                let base = machine.alloc_attacker_pages(2);
                let probes: Vec<_> =
                    (0..2).map(|i| VirtAddr::new(base.raw() + i * 4096)).collect();
                let mut total = 0u64;
                for round in 0..6 {
                    let va = probes[round % probes.len()];
                    machine.access(va);
                    machine.idle(1_500_000);
                    total += machine.timed_access(va).0;
                }
                total
            })
        };
        prop_assert_eq!(workload(1), workload(3));
    }
}

/// Non-proptest anchor: the zero-gap property also holds mid-stream after
/// real windows have elapsed (not only on first observation).
#[test]
fn zero_gap_after_real_windows_is_still_a_noop() {
    let mut process = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Aggregate, 4, 2);
    let mut rng = SmallRng::seed_from_u64(7);
    let loc = SetLocation::new(1, 2);
    process.catch_up_aggregate(loc, 0, &mut rng);
    let advance = process.catch_up_aggregate(loc, 10_000_000, &mut rng);
    assert!(!advance.is_empty(), "a 10M-cycle Cloud Run window must model events");
    assert_eq!(process.catch_up_aggregate(loc, 10_000_000, &mut rng), NoiseAdvance::NONE);
}
