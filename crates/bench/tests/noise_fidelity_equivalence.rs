//! Step-1 equivalence: eviction-set construction under aggregate noise must
//! be statistically indistinguishable from the exact per-event reference.
//!
//! The machine-level harness (`llc-machine/tests/noise_equivalence.rs`) pins
//! the low-level signals — eviction probability, probe latency, event
//! counts. This suite closes the loop at the algorithm level: the Table 3/4
//! pruning success rate, the quantity the paper's evaluation actually
//! reports, must agree across fidelities within a pooled two-proportion
//! bound, and the aggregate mode must stay deterministic and
//! thread-count-invariant so it is usable by the golden smoke tests and CI.
//!
//! Seeded by `LLC_EQUIV_SEED` (pinned default) like the machine-level suite.

use llc_bench::experiments::{measure_single_set, Environment};
use llc_cache_model::CacheSpec;
use llc_core::Algorithm;
use llc_fleet::stats::compare_rates;
use llc_fleet::Fleet;
use llc_machine::NoiseFidelity;

fn equiv_seed() -> u64 {
    std::env::var("LLC_EQUIV_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xE901_5EED)
}

const TRIALS: usize = 12;

fn success_hits(fidelity: NoiseFidelity, environment: Environment) -> u64 {
    let stats = measure_single_set(
        &CacheSpec::tiny_test(),
        environment,
        fidelity,
        Algorithm::BinS,
        true,
        TRIALS,
        equiv_seed(),
        &Fleet::single(),
    );
    (stats.success_rate * TRIALS as f64).round() as u64
}

#[test]
fn pruning_success_rate_matches_across_fidelities() {
    for environment in Environment::all() {
        let exact = success_hits(NoiseFidelity::Exact, environment);
        let aggregate = success_hits(NoiseFidelity::Aggregate, environment);
        let rates = compare_rates(exact, TRIALS as u64, aggregate, TRIALS as u64);
        assert!(
            rates.within(4.0),
            "{}: success rates diverged: exact {:.2} vs aggregate {:.2} (z = {:.2})",
            environment.label(),
            rates.rate_a,
            rates.rate_b,
            rates.z
        );
        // At these trial counts both modes should succeed most of the time;
        // a dead aggregate mode (rate 0) would still pass a pure z test at
        // tiny samples if exact also collapsed, so anchor the level too.
        assert!(
            rates.rate_b > 0.5,
            "{}: aggregate success rate collapsed to {:.2}",
            environment.label(),
            rates.rate_b
        );
    }
}

#[test]
fn aggregate_construction_is_deterministic_and_thread_invariant() {
    let run = |threads: usize| {
        measure_single_set(
            &CacheSpec::tiny_test(),
            Environment::CloudRun,
            NoiseFidelity::Aggregate,
            Algorithm::BinS,
            true,
            6,
            equiv_seed(),
            &Fleet::new(threads).with_chunk(1),
        )
    };
    let serial = run(1);
    assert_eq!(serial, run(1), "same-seed aggregate runs must be identical");
    assert_eq!(serial, run(4), "aggregate results must not depend on thread count");
}
