//! Statistical-equivalence harness for `NoiseFidelity::Aggregate`.
//!
//! The aggregate noise mode replaces per-event background-tenant sampling
//! with one bulk state transition per catch-up window. It is *not* meant to
//! be bit-identical to the exact reference — it is meant to be drawn from
//! the same distribution. These tests pin that claim with the two-sample
//! machinery from `llc_fleet::stats`:
//!
//! * the probability that a primed line is evicted from the SF during an
//!   idle window (the attacker-visible signal every probe step depends on)
//!   must agree between fidelities within a pooled z bound;
//! * the probe-latency distribution must agree in Kolmogorov–Smirnov
//!   distance;
//! * the number of modelled noise events per window must agree in mean
//!   (both fidelities draw Poisson counts at the same rate).
//!
//! All trials derive from one master seed, `LLC_EQUIV_SEED` (default
//! pinned), so a failure reproduces exactly; the thresholds use the
//! conservative α = 0.001 coefficients to keep the suite deterministic in
//! CI while still detecting real modelling drift (a rate shift of a few
//! percent fails these bounds comfortably).

use llc_cache_model::{CacheSpec, HitLevel};
use llc_fleet::stats::{compare_means, compare_rates, ecdf_distance, ks_threshold, KS_ALPHA_001};
use llc_machine::{Machine, NoiseFidelity, NoiseModel};

/// Master seed for the equivalence suite (`LLC_EQUIV_SEED` to override).
fn equiv_seed() -> u64 {
    std::env::var("LLC_EQUIV_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xE901_5EED)
}

/// Attacker-visible observations from one fidelity's trial sequence.
struct ProbeSample {
    /// Per-trial probe latencies in cycles.
    latencies: Vec<f64>,
    /// Trials whose probe missed all the way to memory (the primed line's
    /// SF entry was evicted by noise and back-invalidated).
    evictions: u64,
    /// Per-trial modelled noise-event counts (`MachineStats::noise_events`
    /// deltas).
    events_per_trial: Vec<f64>,
}

/// Primes a handful of lines, idles for `gap` cycles and probes them again,
/// `trials` times. A probe that comes back from memory means background
/// noise evicted the line's SF entry during the window (SF evictions
/// back-invalidate the private caches, so nothing else can produce a miss
/// here: the attacker touches nothing in between).
fn run_probe_trials(
    fidelity: NoiseFidelity,
    model: NoiseModel,
    gap: u64,
    trials: usize,
) -> ProbeSample {
    let mut machine = Machine::builder(CacheSpec::tiny_test())
        .noise(model)
        .noise_fidelity(fidelity)
        .seed(equiv_seed())
        .build();
    // Eight probe lines on distinct pages: different LLC/SF sets, so the
    // sample averages over per-set replacement states.
    let base = machine.alloc_attacker_pages(8);
    let probes: Vec<_> =
        (0..8).map(|i| llc_cache_model::VirtAddr::new(base.raw() + i * 4096)).collect();

    let mut sample =
        ProbeSample { latencies: Vec::with_capacity(trials), evictions: 0, events_per_trial: Vec::with_capacity(trials) };
    let mut last_events = machine.stats().noise_events;
    for trial in 0..trials {
        let va = probes[trial % probes.len()];
        machine.access(va);
        machine.idle(gap);
        let (latency, level) = machine.timed_access(va);
        sample.latencies.push(latency as f64);
        if level == HitLevel::Memory {
            sample.evictions += 1;
        }
        let events = machine.stats().noise_events;
        sample.events_per_trial.push((events - last_events) as f64);
        last_events = events;
    }
    sample
}

/// Runs both fidelities on one preset and asserts distributional agreement.
fn assert_equivalent(model: NoiseModel, gap: u64, trials: usize, label: &str) {
    let exact = run_probe_trials(NoiseFidelity::Exact, model.clone(), gap, trials);
    let aggregate = run_probe_trials(NoiseFidelity::Aggregate, model, gap, trials);

    let rates =
        compare_rates(exact.evictions, trials as u64, aggregate.evictions, trials as u64);
    assert!(
        rates.within(4.0),
        "{label}: eviction rates diverged: exact {:.3} vs aggregate {:.3} (z = {:.2})",
        rates.rate_a,
        rates.rate_b,
        rates.z
    );

    let d = ecdf_distance(&exact.latencies, &aggregate.latencies);
    let threshold = ks_threshold(trials, trials, KS_ALPHA_001);
    assert!(
        d < threshold,
        "{label}: probe-latency ECDF distance {d:.4} exceeds KS threshold {threshold:.4}"
    );

    let events = compare_means(&exact.events_per_trial, &aggregate.events_per_trial);
    assert!(
        events.within(4.0),
        "{label}: noise-event counts diverged: exact {:.2} vs aggregate {:.2} (z = {:.2})",
        events.mean_a,
        events.mean_b,
        events.z
    );
}

#[test]
fn aggregate_matches_exact_under_cloud_run_noise() {
    // 1 ms windows at the Cloud Run rate: ~11.5 modelled accesses per set
    // per window, enough churn that a meaningful share of probes miss.
    assert_equivalent(NoiseModel::cloud_run(), 2_000_000, 400, "cloud_run");
}

#[test]
fn aggregate_matches_exact_under_quiescent_noise() {
    // Long (8 ms) windows so the quiescent rate (0.29/ms/set) still
    // produces occasional evictions rather than an all-zero sample.
    assert_equivalent(NoiseModel::quiescent_local(), 16_000_000, 300, "quiescent_local");
}

#[test]
fn exact_eviction_signal_is_plausible_under_cloud_run() {
    // Sanity anchor for the harness itself: under Cloud Run noise some
    // probes must miss and some must hit, otherwise the comparisons above
    // are vacuous.
    let exact = run_probe_trials(NoiseFidelity::Exact, NoiseModel::cloud_run(), 2_000_000, 400);
    assert!(exact.evictions > 0, "no evictions observed — gap too short");
    assert!((exact.evictions as usize) < 400, "every probe missed — gap too long");
    let mean_events =
        exact.events_per_trial.iter().sum::<f64>() / exact.events_per_trial.len() as f64;
    assert!(mean_events > 1.0, "noise process mostly silent (mean {mean_events:.2})");
}

#[test]
fn equivalence_suite_is_deterministic_for_a_fixed_seed() {
    let a = run_probe_trials(NoiseFidelity::Aggregate, NoiseModel::cloud_run(), 2_000_000, 120);
    let b = run_probe_trials(NoiseFidelity::Aggregate, NoiseModel::cloud_run(), 2_000_000, 120);
    assert_eq!(a.latencies, b.latencies);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.events_per_trial, b.events_per_trial);
}
