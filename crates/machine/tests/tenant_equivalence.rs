//! Property-based bit-identity of the tenant layer: an empty tenant
//! population leaves the machine bit-identical to the pre-tenant builder,
//! and churned tenant populations are fully deterministic — per seed, across
//! snapshot/reset replay, and across fleet thread counts.

use llc_cache_model::{CacheSpec, VirtAddr};
use llc_fleet::Fleet;
use llc_machine::{ChurnConfig, Machine, NoiseModel, TenantPopulation};
use proptest::prelude::*;

/// The co-resident population the churn properties run under.
fn churned_population() -> TenantPopulation {
    TenantPopulation::parse("2*idle,1*bursty-web")
        .expect("population spec parses")
        .with_churn(ChurnConfig { mean_dwell_cycles: 300_000.0 })
}

/// One deterministic attacker script: per round, idle long enough for
/// background tenants to act, then probe. Returns a digest that covers both
/// the attacker-visible timings and the tenant layer's own counters.
fn run_script(machine: &mut Machine, probes: &[VirtAddr], rounds: usize) -> (u64, u64, u64) {
    let mut latency_total = 0u64;
    for round in 0..rounds {
        let va = probes[round % probes.len()];
        machine.access(va);
        machine.idle(400_000);
        latency_total += machine.timed_access(va).0;
    }
    (latency_total, machine.stats().tenant_accesses, machine.tenant_arrivals())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An empty tenant population is the pre-refactor machine: every timed
    /// observation, the clock and the noise counters match a machine built
    /// without the `.tenants()` call, and the tenant layer does no work.
    #[test]
    fn empty_population_is_bit_identical_to_legacy_builder(
        seed in any::<u64>(),
        gaps in prop::collection::vec(1u64..2_000_000, 1..12),
    ) {
        let build = |tenants: Option<TenantPopulation>| {
            let mut builder = Machine::builder(CacheSpec::tiny_test())
                .noise(NoiseModel::cloud_run())
                .seed(seed);
            if let Some(tenants) = tenants {
                builder = builder.tenants(tenants);
            }
            builder.build()
        };
        let mut legacy = build(None);
        let mut refactored = build(Some(TenantPopulation::empty()));
        let va_legacy = legacy.alloc_attacker_pages(1);
        let va_refactored = refactored.alloc_attacker_pages(1);
        prop_assert_eq!(va_legacy, va_refactored);
        for gap in gaps {
            legacy.idle(gap);
            refactored.idle(gap);
            prop_assert_eq!(
                legacy.timed_access(va_legacy),
                refactored.timed_access(va_refactored)
            );
        }
        prop_assert_eq!(legacy.now(), refactored.now());
        prop_assert_eq!(legacy.stats().noise_events, refactored.stats().noise_events);
        prop_assert_eq!(refactored.stats().tenant_accesses, 0);
        prop_assert_eq!(refactored.tenant_arrivals(), 0);
        prop_assert_eq!(refactored.tenants_present(), 0);
    }

    /// A churned population is a pure function of the machine seed: two
    /// machines built alike replay the same arrivals, bursts and timings.
    #[test]
    fn churned_population_is_deterministic_per_seed(seed in any::<u64>()) {
        let digest = || {
            let mut machine = Machine::builder(CacheSpec::tiny_test())
                .noise(NoiseModel::quiescent_local())
                .tenants(churned_population())
                .seed(seed)
                .build();
            let va = machine.alloc_attacker_pages(1);
            run_script(&mut machine, &[va], 6)
        };
        prop_assert_eq!(digest(), digest());
    }

    /// Fleet sweeps over churned machines are bit-identical at 1, 2 and 8
    /// threads: every trial's tenant population derives from its trial seed
    /// alone, so the work partition cannot leak into the results.
    #[test]
    fn churned_fleet_results_are_thread_invariant(master in any::<u64>()) {
        let workload = |threads: usize| -> Vec<(u64, u64, u64)> {
            Fleet::new(threads).with_chunk(1).run_with(6, master, |_| (), |_, ctx| {
                let mut machine = Machine::builder(CacheSpec::tiny_test())
                    .noise(NoiseModel::quiescent_local())
                    .tenants(churned_population())
                    .seed(ctx.seed)
                    .build();
                let base = machine.alloc_attacker_pages(2);
                let probes: Vec<_> =
                    (0..2).map(|i| VirtAddr::new(base.raw() + i * 4096)).collect();
                run_script(&mut machine, &probes, 4)
            })
        };
        let serial = workload(1);
        prop_assert_eq!(&serial, &workload(2));
        prop_assert_eq!(&serial, &workload(8));
    }
}

/// Non-proptest anchor: snapshot/reset replay restores the whole tenant
/// layer — event queue, per-slot RNG positions and churn bookkeeping — so a
/// reset machine replays its first run bit-identically, and a reseed after
/// reset re-derives the population deterministically.
#[test]
fn snapshot_reset_replays_churned_tenants_bit_identically() {
    let mut machine = Machine::builder(CacheSpec::tiny_test())
        .noise(NoiseModel::quiescent_local())
        .tenants(churned_population())
        .seed(41)
        .build();
    let va = machine.alloc_attacker_pages(1);
    // Let some tenant activity (and possibly churn) happen before the
    // snapshot so the captured queue is mid-flight, not pristine.
    machine.idle(700_000);
    let snapshot = machine.snapshot();

    let first = run_script(&mut machine, &[va], 6);
    machine.reset_to(&snapshot);
    assert_eq!(run_script(&mut machine, &[va], 6), first, "reset replay diverged");

    // Reseeding after reset rebuilds the population from the new seed; the
    // result is again a pure function of that seed.
    machine.reset_to(&snapshot);
    machine.reseed(97);
    let reseeded = run_script(&mut machine, &[va], 6);
    machine.reset_to(&snapshot);
    machine.reseed(97);
    assert_eq!(run_script(&mut machine, &[va], 6), reseeded, "reseeded replay diverged");
}

/// Non-proptest anchor: the churned population actually churns within the
/// probed horizon (the determinism properties above are not vacuous).
#[test]
fn churned_population_sees_arrivals_and_tenant_traffic() {
    let mut machine = Machine::builder(CacheSpec::tiny_test())
        .noise(NoiseModel::silent())
        .tenants(churned_population())
        .seed(7)
        .build();
    assert_eq!(machine.tenants_present(), 3);
    machine.idle(20_000_000);
    assert!(machine.stats().tenant_accesses > 0, "tenants posted no accesses");
    assert!(machine.tenant_arrivals() > 0, "churn produced no migrations");
}
