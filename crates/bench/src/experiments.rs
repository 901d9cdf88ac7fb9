//! Measurement routines behind every table and figure reproduction.
//!
//! Each function runs the corresponding experiment on a simulated host and
//! returns plain data; the binaries under `src/bin/` format that data as the
//! paper's tables, and `EXPERIMENTS.md` records paper-vs-measured values.

use crate::sweeps::{PruningSweep, SweepCell};
use crate::SampleStats;
use llc_campaign::{TrialOutcome, TrialSource};
use llc_core::{
    capture_signing_run, covered_signings, score_extraction, Algorithm, AttackConfig,
    AttackReport, BoundaryClassifier, ClassifierTrainingConfig, EndToEndAttack, ExtractionConfig,
    FeatureConfig, RecoveryConfig, ScanConfig, TraceClassifier,
};
use llc_ecdsa_victim::{EcdsaVictim, EcdsaVictimConfig};
use llc_evsets::{
    oracle, test_eviction, CandidateSet, EvictionSet, EvsetConfig, EvsetError, TargetCache,
    TraversalOrder,
};
use llc_fleet::{stream_seed, Fleet};
use llc_machine::{Machine, NoiseFidelity, NoiseModel, TenantPopulation};
use llc_probe::{
    run_covert_channel, AccessTrace, CovertChannelConfig, Monitor, MonitorStats, Strategy,
};
use llc_recovery::{run_campaign, CampaignConfig, CampaignReport, SearchConfig};
use llc_sigproc::{welch_psd, BinnedTrace, PowerSpectrum, WelchConfig};
use llc_cache_model::{CacheSpec, HierarchyOptions, VirtAddr};
use llc_machine::{AesTTableConfig, AesTTableVictim};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// RNG stream tags for the experiment harnesses (see
/// [`llc_fleet::stream_seed`]): one tag per independent purpose, derived
/// either from the experiment's master seed (machine construction, shared
/// pools) or from a per-trial seed (noise/jitter, candidate allocation,
/// victim key material).
pub mod trial_streams {
    /// Warm base-machine construction (paging, initial noise bookkeeping).
    pub const MACHINE: u64 = u64::from_le_bytes(*b"xmachine");
    /// Per-trial machine noise/jitter stream (applied via `Machine::reseed`).
    pub const NOISE: u64 = u64::from_le_bytes(*b"noise\0\0\0");
    /// Per-trial candidate-allocation RNG.
    pub const ALLOC: u64 = u64::from_le_bytes(*b"alloc\0\0\0");
    /// Per-trial victim configuration (ECDSA key/nonce material).
    pub const VICTIM: u64 = u64::from_le_bytes(*b"victim\0\0");
    /// Boundary-classifier training signing of the key-recovery campaign.
    pub const TRAIN: u64 = u64::from_le_bytes(*b"train\0\0\0");
}

/// Which environment an experiment models (the paper's two setups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Environment {
    /// Quiescent local machine (0.29 background accesses/ms/set).
    QuiescentLocal,
    /// Google Cloud Run (11.5 background accesses/ms/set).
    CloudRun,
}

impl Environment {
    /// The two environments in table order.
    pub fn all() -> [Environment; 2] {
        [Environment::QuiescentLocal, Environment::CloudRun]
    }

    /// The noise model of this environment.
    pub fn noise(&self) -> NoiseModel {
        match self {
            Environment::QuiescentLocal => NoiseModel::quiescent_local(),
            Environment::CloudRun => NoiseModel::cloud_run(),
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Environment::QuiescentLocal => "Quiescent Local",
            Environment::CloudRun => "Cloud Run",
        }
    }
}

// ---------------------------------------------------------------------------
// Tables 3 & 4: eviction-set construction effectiveness
// ---------------------------------------------------------------------------

/// Result of repeatedly constructing single eviction sets with one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningStats {
    /// Algorithm name (paper nomenclature).
    pub algorithm: &'static str,
    /// Environment label (the cell's noise-model label).
    pub environment: String,
    /// Fraction of trials that produced a *correct* eviction set
    /// (oracle-validated, like the paper's instrumented checks).
    pub success_rate: f64,
    /// Statistics over the per-trial construction time in milliseconds.
    pub time_ms: SampleStats,
    /// Mean candidate-filtering share of the construction time (0 when
    /// filtering is disabled).
    pub filter_share: f64,
    /// Mean number of backtracks per successful construction.
    pub mean_backtracks: f64,
}

/// Runs the Table 3 / Table 4 `SingleSet` measurement for one algorithm.
///
/// `filtering` selects between Table 3 (false: raw candidate sets, 1 s
/// budget) and Table 4 (true: L2-driven candidate filtering, 100 ms budget).
///
/// This is a one-cell [`PruningSweep`] run through
/// [`measure_single_sets`]; reports that print several cells build them as
/// one sweep instead, so cells sharing a machine configuration share its
/// pooled machines.
///
/// `fidelity` selects the background-noise model fidelity
/// ([`NoiseFidelity::Exact`] reproduces the per-event reference byte for
/// byte; [`NoiseFidelity::Aggregate`] applies one bulk state transition per
/// catch-up window — statistically equivalent, far cheaper under Cloud Run
/// noise).
#[allow(clippy::too_many_arguments)] // one knob per experiment axis; callers name each cell
pub fn measure_single_set(
    spec: &CacheSpec,
    environment: Environment,
    fidelity: NoiseFidelity,
    algorithm: Algorithm,
    filtering: bool,
    trials: usize,
    seed: u64,
    fleet: &Fleet,
) -> PruningStats {
    let cell = single_set_cell(spec, environment, algorithm, filtering);
    let sweep = PruningSweep::new(vec![cell], fidelity, HierarchyOptions, seed);
    measure_single_sets(&sweep, trials, seed, fleet).remove(0)
}

/// The [`SweepCell`] of one `SingleSet` measurement: `algorithm` on a
/// `spec` host under `environment`'s background noise, with no co-resident
/// tenants.
pub fn single_set_cell(
    spec: &CacheSpec,
    environment: Environment,
    algorithm: Algorithm,
    filtering: bool,
) -> SweepCell {
    SweepCell {
        id: format!("{}|{}|{}", algorithm.name(), environment.label(), spec.name),
        spec: spec.clone(),
        noise: environment.noise(),
        algorithm,
        filtering,
        tenants: TenantPopulation::empty(),
    }
}

/// Runs `trials` `SingleSet` trials of every cell of `sweep`, cell by cell,
/// and returns one [`PruningStats`] per cell in cell order.
///
/// `seed` must be the master seed `sweep` was built with. Each cell's
/// trials are sharded across `fleet`'s workers under the contexts
/// `TrialCtx::derive(seed, trial, trials)`; every trial rewinds a machine
/// checked out of the sweep's pool (built from `seed`'s canonical build
/// seed) and reseeds it from its context, so the statistics are
/// bit-identical for every thread count and for any cell grouping.
pub fn measure_single_sets(
    sweep: &PruningSweep,
    trials: usize,
    seed: u64,
    fleet: &Fleet,
) -> Vec<PruningStats> {
    sweep
        .cells()
        .iter()
        .enumerate()
        .map(|(index, cell)| {
            let outcomes = fleet.run_with(
                trials,
                seed,
                |worker| sweep.init(worker),
                |held, ctx| sweep.run_trial(held, index, ctx),
            );
            pruning_stats(cell, &outcomes)
        })
        .collect()
}

/// Folds one cell's trial outcomes (in trial order, metrics as in
/// [`SWEEP_METRICS`](crate::sweeps::SWEEP_METRICS)) into [`PruningStats`].
fn pruning_stats(cell: &SweepCell, outcomes: &[TrialOutcome]) -> PruningStats {
    let times: Vec<f64> = outcomes
        .iter()
        .map(|o| crate::cycles_to_ms(o.metrics[0] as f64, cell.spec.freq_ghz))
        .collect();
    // Filter-share and backtrack statistics are defined per *successful*
    // (oracle-validated) construction, matching the paper's accounting and
    // the `PruningStats` field docs.
    let successes: Vec<&TrialOutcome> = outcomes.iter().filter(|o| o.success).collect();
    let filter_shares: Vec<f64> = successes
        .iter()
        .map(|o| if o.metrics[0] > 0 { o.metrics[2] as f64 / o.metrics[0] as f64 } else { 0.0 })
        .collect();
    let backtracks: Vec<f64> = successes.iter().map(|o| o.metrics[1] as f64).collect();
    PruningStats {
        algorithm: cell.algorithm.name(),
        environment: cell.noise.label.clone(),
        success_rate: if outcomes.is_empty() {
            0.0
        } else {
            successes.len() as f64 / outcomes.len() as f64
        },
        time_ms: SampleStats::from(&times),
        filter_share: SampleStats::from(&filter_shares).mean,
        mean_backtracks: SampleStats::from(&backtracks).mean,
    }
}

/// Extrapolated bulk-construction estimate for the `PageOffset` / `WholeSys`
/// scenarios, using the paper's estimator `n_sets * t_avg / SR` on top of a
/// sampled per-set measurement (Section 4.2).
#[derive(Debug, Clone)]
pub struct BulkEstimate {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Environment label.
    pub environment: &'static str,
    /// Number of eviction sets the scenario requires.
    pub required_sets: usize,
    /// Number of sets actually constructed in the sample.
    pub sampled_sets: usize,
    /// Success rate over the sample.
    pub success_rate: f64,
    /// Measured time for the sample, in seconds.
    pub sampled_seconds: f64,
    /// Extrapolated time to cover the full scenario, in seconds.
    pub estimated_total_seconds: f64,
}

/// Measures bulk construction for `scope` by building `sample_sets` eviction
/// sets and extrapolating to the scenario's full set count.
///
/// # Errors
///
/// Returns the builder's error when candidate filtering fails before any
/// set is attempted: under a non-LRU L2 policy the filter often cannot
/// build a verified L2 eviction set.
pub fn measure_bulk(
    spec: &CacheSpec,
    environment: Environment,
    algorithm: Algorithm,
    scope: llc_evsets::Scope,
    sample_sets: usize,
    seed: u64,
) -> Result<BulkEstimate, EvsetError> {
    let algo = algorithm.instance();
    let mut machine =
        Machine::builder(spec.clone()).noise(environment.noise()).seed(seed).build();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb011);
    let bulk_cfg = llc_evsets::BulkConfig {
        max_sets: Some(sample_sets),
        ..llc_evsets::BulkConfig::default()
    };
    let builder = llc_evsets::BulkBuilder::new(algo.as_ref(), bulk_cfg);
    let outcome = builder.run(&mut machine, scope, &mut rng)?;

    let required = scope.required_sets(spec);
    let sampled_seconds = outcome.total_cycles as f64 / (spec.freq_ghz * 1e9);
    let per_set_seconds = if outcome.attempted > 0 {
        (outcome.total_cycles - outcome.filter_cycles) as f64
            / outcome.attempted as f64
            / (spec.freq_ghz * 1e9)
    } else {
        0.0
    };
    let success_rate = outcome.success_rate().max(1e-3);
    let filter_seconds = outcome.filter_cycles as f64 / (spec.freq_ghz * 1e9);
    let estimated_total_seconds = filter_seconds + required as f64 * per_set_seconds / success_rate;

    Ok(BulkEstimate {
        algorithm: algorithm.name(),
        environment: environment.label(),
        required_sets: required,
        sampled_sets: outcome.successes,
        success_rate: outcome.success_rate(),
        sampled_seconds,
        estimated_total_seconds,
    })
}

// ---------------------------------------------------------------------------
// Table 5 & Figure 6: monitoring strategies
// ---------------------------------------------------------------------------

/// One row of Table 5 / one point of Figure 6.
#[derive(Debug, Clone)]
pub struct MonitoringPoint {
    /// Strategy name.
    pub strategy: Strategy,
    /// Sender access interval (cycles).
    pub access_interval: u64,
    /// Detection rate within the 500-cycle error bound.
    pub detection_rate: f64,
    /// Prime/probe latency statistics.
    pub stats: MonitorStats,
}

/// Runs the covert-channel experiment (Figure 6 / Table 5) for one strategy
/// and access interval.
pub fn measure_monitoring(
    spec: &CacheSpec,
    environment: Environment,
    strategy: Strategy,
    access_interval: u64,
    sender_accesses: usize,
    seed: u64,
) -> MonitoringPoint {
    let config = CovertChannelConfig {
        spec: spec.clone(),
        noise: environment.noise(),
        access_interval,
        sender_accesses,
        seed,
        ..CovertChannelConfig::default()
    };
    let result = run_covert_channel(&config, strategy);
    MonitoringPoint {
        strategy,
        access_interval,
        detection_rate: result.detection_rate,
        stats: result.stats,
    }
}

// ---------------------------------------------------------------------------
// Figure 2: background access CDF
// ---------------------------------------------------------------------------

/// Observed background-access behaviour of one environment (Figure 2).
#[derive(Debug, Clone)]
pub struct NoiseCdf {
    /// Environment label.
    pub environment: &'static str,
    /// Sorted inter-access intervals in microseconds.
    pub intervals_us: Vec<f64>,
    /// Mean accesses per millisecond per set.
    pub accesses_per_ms: f64,
}

impl NoiseCdf {
    /// Fraction of intervals at or below `threshold_us`.
    pub fn cdf_at(&self, threshold_us: f64) -> f64 {
        if self.intervals_us.is_empty() {
            return 0.0;
        }
        let below = self.intervals_us.iter().filter(|&&v| v <= threshold_us).count();
        below as f64 / self.intervals_us.len() as f64
    }
}

/// Measures the time between background accesses to a randomly chosen LLC/SF
/// set with Prime+Probe, as in Figure 2.
pub fn measure_noise_cdf(
    spec: &CacheSpec,
    environment: Environment,
    samples: usize,
    seed: u64,
) -> NoiseCdf {
    let mut machine =
        Machine::builder(spec.clone()).noise(environment.noise()).seed(seed).build();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xcdf);
    // Oracle-built eviction set: the experiment measures noise, not Step 1.
    let candidates = CandidateSet::allocate(&mut machine, 0x240, 4096, &mut rng);
    let anchor = candidates.addresses()[0];
    let congruent = oracle::congruent_with(&machine, anchor, &candidates.addresses()[1..]);
    let ways = spec.sf.ways();
    let set = EvictionSet::new(congruent[..ways].to_vec(), TargetCache::Sf);

    let mut monitor = Monitor::new(Strategy::Parallel, set);
    let mut trace = AccessTrace { start: 0, end: 0, timestamps: vec![], probes: 0, primes: 0 };
    // Collect in chunks until enough inter-arrival samples are available.
    let freq = spec.freq_ghz;
    let chunk = (50.0 * freq * 1e6) as u64; // 50 ms of simulated time per chunk
    for _ in 0..40 {
        let t = monitor.collect(&mut machine, chunk);
        trace.timestamps.extend(t.timestamps.iter().copied());
        trace.start = trace.start.min(t.start);
        trace.end = t.end;
        if trace.timestamps.len() > samples {
            break;
        }
    }
    let intervals_us: Vec<f64> = trace
        .timestamps
        .windows(2)
        .take(samples)
        .map(|w| (w[1] - w[0]) as f64 / (freq * 1e3))
        .collect();
    let mut sorted = intervals_us.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    NoiseCdf {
        environment: environment.label(),
        intervals_us: sorted,
        accesses_per_ms: trace.accesses_per_ms(freq),
    }
}

// ---------------------------------------------------------------------------
// Figure 3: TestEviction duration vs candidate count
// ---------------------------------------------------------------------------

/// One point of Figure 3.
#[derive(Debug, Clone)]
pub struct TestEvictionPoint {
    /// Number of candidate addresses tested.
    pub candidates: usize,
    /// Parallel TestEviction duration (µs).
    pub parallel_us: SampleStats,
    /// Sequential TestEviction duration (µs).
    pub sequential_us: SampleStats,
}

/// Measures parallel vs sequential `TestEviction` durations (Figure 3).
///
/// The candidate pool is allocated once into a warmed machine; each
/// candidate-count point then runs as one fleet trial against a rewound copy
/// of that machine, so points are mutually independent (the serial version
/// leaked cache state from smaller points into larger ones) and the sweep
/// parallelises across workers.
pub fn measure_test_eviction(
    spec: &CacheSpec,
    environment: Environment,
    candidate_counts: &[usize],
    repeats: usize,
    seed: u64,
    fleet: &Fleet,
) -> Vec<TestEvictionPoint> {
    let mut base = Machine::builder(spec.clone())
        .noise(environment.noise())
        .seed(stream_seed(seed, trial_streams::MACHINE))
        .build();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, trial_streams::ALLOC));
    let max = *candidate_counts.iter().max().unwrap_or(&0);
    let pool = CandidateSet::allocate(&mut base, 0x240, max + 1, &mut rng);
    let ta = pool.addresses()[0];
    let freq = spec.freq_ghz;
    let snapshot = base.snapshot();

    fleet.run_with(
        candidate_counts.len(),
        seed,
        |_worker| snapshot.to_machine(),
        |machine, ctx| {
            machine.reset_to(&snapshot);
            machine.reseed(ctx.stream(trial_streams::NOISE));
            let n = candidate_counts[ctx.trial];
            let cands = &pool.addresses()[1..=n];
            let mut par = Vec::with_capacity(repeats);
            let mut seq = Vec::with_capacity(repeats);
            for _ in 0..repeats {
                let (_, t) =
                    test_eviction(machine, ta, cands, TargetCache::Llc, TraversalOrder::Parallel);
                par.push(t as f64 / (freq * 1e3));
                let (_, t) =
                    test_eviction(machine, ta, cands, TargetCache::Llc, TraversalOrder::Sequential);
                seq.push(t as f64 / (freq * 1e3));
            }
            TestEvictionPoint {
                candidates: n,
                parallel_us: SampleStats::from(&par),
                sequential_us: SampleStats::from(&seq),
            }
        },
    )
}

// ---------------------------------------------------------------------------
// Table 6 / Figure 7: PSD-based target-set identification
// ---------------------------------------------------------------------------

/// Result of the target-set identification experiment (Table 6).
#[derive(Debug, Clone)]
pub struct IdentificationStats {
    /// Scenario label ("PageOffset" or "WholeSys").
    pub scenario: &'static str,
    /// Fraction of trials that found the true target set before timeout.
    pub success_rate: f64,
    /// Time-to-identify statistics over successful trials, in seconds.
    pub success_time_s: SampleStats,
    /// Mean sets scanned per second.
    pub scan_rate_per_s: f64,
}

/// One trial's outcome of the identification experiment.
#[derive(Debug, Clone, Copy)]
struct IdentTrial {
    /// Oracle-validated correct identification.
    success: bool,
    /// Time-to-identify in seconds (successes only).
    time_s: Option<f64>,
    /// Scan rate (trials that actually scanned).
    scan_rate: Option<f64>,
}

/// Runs the Table 6 identification experiment: the victim signs continuously
/// while the attacker scans oracle-built eviction sets (Step 1 is out of
/// scope here) until the PSD+SVM classifier flags the target.
///
/// The classifier is trained once (it only depends on the environment and
/// victim period, not on the trial), then the trials are sharded across
/// `fleet`'s workers; each trial rewinds a snapshotted machine and installs
/// a fresh victim with per-trial key material.
pub fn measure_identification(
    spec: &CacheSpec,
    environment: Environment,
    candidate_sets: usize,
    trials: usize,
    timeout_cycles: u64,
    seed: u64,
    fleet: &Fleet,
) -> IdentificationStats {
    let base = Machine::builder(spec.clone())
        .noise(environment.noise())
        .seed(stream_seed(seed, trial_streams::MACHINE))
        .build();
    let snapshot = base.snapshot();

    // Victim parameters are shared; only the per-trial seed differs.
    let victim_template = EcdsaVictimConfig { nonce_bits: 192, ..EcdsaVictimConfig::default() };
    let expected_period = victim_template.expected_access_period();
    let features = FeatureConfig {
        expected_period_cycles: expected_period,
        ..FeatureConfig::default()
    };
    let classifier = TraceClassifier::train(&ClassifierTrainingConfig {
        features,
        noise_per_ms: environment.noise().accesses_per_ms(spec.freq_ghz),
        ..Default::default()
    });
    let scan_cfg = ScanConfig { timeout_cycles, ..ScanConfig::default() };

    let outcomes = fleet.run_with(
        trials,
        seed,
        |_worker| snapshot.to_machine(),
        |machine, ctx| {
            machine.reset_to(&snapshot);
            machine.reseed(ctx.stream(trial_streams::NOISE));
            let mut rng = ctx.stream_rng(trial_streams::ALLOC);

            // Victim: full-size ECDSA service signing continuously.
            let victim_cfg = EcdsaVictimConfig {
                seed: ctx.stream(trial_streams::VICTIM),
                ..victim_template.clone()
            };
            let (victim, handle) = EcdsaVictim::new(victim_cfg);
            machine.install_victim(Box::new(victim), true, 100_000);
            let layout = handle.lock().expect("log").layout.clone().expect("layout");
            let target_loc = machine.oracle_victim_location(layout.branch_line);

            // Oracle-built eviction sets for `candidate_sets` SF sets at the
            // target page offset, always including the true target set.
            let pool = CandidateSet::allocate(
                machine,
                layout.target_page_offset(),
                EvsetConfig::default().candidate_count(spec, TargetCache::Sf),
                &mut rng,
            );
            let groups = oracle::group_by_location(machine, pool.addresses());
            let ways = spec.sf.ways();
            let mut sets: Vec<(VirtAddr, EvictionSet)> = Vec::new();
            if let Some((_, members)) =
                groups.iter().find(|(loc, m)| **loc == target_loc && m.len() > ways)
            {
                sets.push((
                    members[0],
                    EvictionSet::new(members[1..=ways].to_vec(), TargetCache::Sf),
                ));
            }
            for (loc, members) in groups.iter() {
                if sets.len() >= candidate_sets {
                    break;
                }
                if *loc == target_loc || members.len() <= ways {
                    continue;
                }
                sets.push((
                    members[0],
                    EvictionSet::new(members[1..=ways].to_vec(), TargetCache::Sf),
                ));
            }
            if sets.is_empty() {
                return IdentTrial { success: false, time_s: None, scan_rate: None };
            }
            // Scan in random order, as the paper does for WholeSys.
            use rand::seq::SliceRandom;
            sets.shuffle(&mut rng);

            let outcome = llc_core::scan_for_target(machine, &sets, &classifier, &scan_cfg);
            let correct = outcome
                .identified_ta
                .map(|ta| machine.oracle_attacker_location(ta) == target_loc)
                .unwrap_or(false);
            IdentTrial {
                success: correct,
                time_s: correct
                    .then(|| outcome.elapsed_cycles as f64 / (spec.freq_ghz * 1e9)),
                scan_rate: Some(outcome.scan_rate_per_s),
            }
        },
    );

    // Serial folds over the trial-ordered outcomes: the same sums, in the
    // same order, at every thread count.
    let successes = outcomes.iter().filter(|o| o.success).count();
    let times: Vec<f64> = outcomes.iter().filter_map(|o| o.time_s).collect();
    let rates: Vec<f64> = outcomes.iter().filter_map(|o| o.scan_rate).collect();
    IdentificationStats {
        scenario: if candidate_sets <= spec.sf.uncertainty() { "PageOffset" } else { "WholeSys" },
        success_rate: if outcomes.is_empty() {
            0.0
        } else {
            successes as f64 / outcomes.len() as f64
        },
        success_time_s: SampleStats::from(&times),
        scan_rate_per_s: SampleStats::from(&rates).mean,
    }
}

/// The data behind Figure 7: the PSD of a trace collected from the target SF
/// set and from a non-target SF set while the victim signs.
#[derive(Debug, Clone)]
pub struct PsdComparison {
    /// Access trace of the target set.
    pub target_trace: AccessTrace,
    /// Access trace of a non-target set.
    pub other_trace: AccessTrace,
    /// PSD of the target-set trace.
    pub target_psd: PowerSpectrum,
    /// PSD of the non-target-set trace.
    pub other_psd: PowerSpectrum,
    /// Expected victim frequency in Hz.
    pub expected_hz: f64,
}

/// Collects the Figure 7 traces and spectra.
pub fn measure_psd_example(
    spec: &CacheSpec,
    environment: Environment,
    trace_cycles: u64,
    seed: u64,
) -> PsdComparison {
    let mut machine =
        Machine::builder(spec.clone()).noise(environment.noise()).seed(seed).build();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1607);
    let victim_cfg = EcdsaVictimConfig { nonce_bits: 256, ..EcdsaVictimConfig::default() };
    let expected_period = victim_cfg.expected_access_period();
    let (victim, handle) = EcdsaVictim::new(victim_cfg);
    machine.install_victim(Box::new(victim), true, 50_000);
    let layout = handle.lock().expect("log").layout.clone().expect("layout");
    let target_loc = machine.oracle_victim_location(layout.branch_line);

    let pool = CandidateSet::allocate(
        &mut machine,
        layout.target_page_offset(),
        EvsetConfig::default().candidate_count(spec, TargetCache::Sf),
        &mut rng,
    );
    let target_set = oracle::sf_eviction_set(&machine, target_loc, pool.addresses())
        .expect("candidate pool covers the target set");
    // The non-target set is the lowest other location the pool covers.
    let other_set = oracle::group_by_location(&machine, pool.addresses())
        .into_keys()
        .filter(|&loc| loc != target_loc)
        .find_map(|loc| oracle::sf_eviction_set(&machine, loc, pool.addresses()))
        .expect("candidate pool covers another set");

    let feature_cfg = FeatureConfig {
        expected_period_cycles: expected_period,
        freq_ghz: spec.freq_ghz,
        ..FeatureConfig::default()
    };

    let collect = |machine: &mut Machine, set: EvictionSet| -> (AccessTrace, PowerSpectrum) {
        let trace = Monitor::new(Strategy::Parallel, set).collect(machine, trace_cycles);
        let binned = BinnedTrace::from_timestamps(
            &trace.timestamps,
            trace.start,
            trace.duration(),
            feature_cfg.bin_cycles,
            spec.freq_ghz,
        );
        let psd = welch_psd(
            binned.samples(),
            &WelchConfig { sample_rate_hz: binned.sample_rate_hz(), ..Default::default() },
        );
        (trace, psd)
    };

    // Wait until the victim is in the middle of its ladder before sampling.
    machine.idle(victim_cfg_pre_estimate());
    let (target_trace, target_psd) = collect(&mut machine, target_set);
    let (other_trace, other_psd) = collect(&mut machine, other_set);
    PsdComparison {
        target_trace,
        other_trace,
        target_psd,
        other_psd,
        expected_hz: feature_cfg.expected_frequency_hz(),
    }
}

fn victim_cfg_pre_estimate() -> u64 {
    EcdsaVictimConfig::default().pre_cycles + 500_000
}

// ---------------------------------------------------------------------------
// Figure 9 / Section 7.3: nonce extraction and the end-to-end attack
// ---------------------------------------------------------------------------

/// The data behind Figure 9: a short window of detected accesses with the
/// ground-truth nonce bits and iteration boundaries, plus decoding results.
#[derive(Debug, Clone)]
pub struct ExtractionExample {
    /// Detected accesses (absolute cycles).
    pub detections: Vec<u64>,
    /// Ground-truth iteration boundaries (absolute cycles).
    pub iteration_starts: Vec<u64>,
    /// Ground-truth nonce bits per iteration.
    pub nonce_bits: Vec<bool>,
    /// Decoded bits with boundary timestamps.
    pub decoded: Vec<(u64, bool)>,
    /// Fraction of bits recovered.
    pub recovered_fraction: f64,
    /// Bit error rate among recovered bits.
    pub bit_error_rate: f64,
}

/// Monitors the true target set during one signing and decodes nonce bits
/// (Figure 9's trace snippet, quantified).
pub fn measure_extraction_example(
    spec: &CacheSpec,
    environment: Environment,
    nonce_bits: usize,
    seed: u64,
) -> ExtractionExample {
    let mut machine =
        Machine::builder(spec.clone()).noise(environment.noise()).seed(seed).build();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf19);
    let victim_cfg = EcdsaVictimConfig {
        nonce_bits,
        pre_cycles: 400_000,
        post_cycles: 200_000,
        ..EcdsaVictimConfig::default()
    };
    let (victim, handle) = EcdsaVictim::new(victim_cfg.clone());
    machine.install_victim(Box::new(victim), true, 100_000);
    let layout = handle.lock().expect("log").layout.clone().expect("layout");
    let target_loc = machine.oracle_victim_location(layout.branch_line);

    let pool = CandidateSet::allocate(
        &mut machine,
        layout.target_page_offset(),
        EvsetConfig::default().candidate_count(spec, TargetCache::Sf),
        &mut rng,
    );
    let set = oracle::sf_eviction_set(&machine, target_loc, pool.addresses())
        .expect("pool covers the target set");

    // Monitor across three runs: one for training the boundary classifier,
    // the rest for decoding.
    let run_cycles = victim_cfg.request_cycles() + 100_000;
    let runs_before = machine.victim_runs() as usize;
    let trace = Monitor::new(Strategy::Parallel, set).collect(&mut machine, run_cycles * 3);
    let signings = covered_signings(&machine, &handle, &trace, runs_before);
    let [train, attack, ..] = signings.as_slice() else {
        panic!("monitoring window must cover at least two signings");
    };

    let extraction = ExtractionConfig {
        iteration_cycles: victim_cfg.iteration_cycles,
        ..ExtractionConfig::default()
    };
    let classifier =
        BoundaryClassifier::train(&extraction, &[(&train.trace, &train.iteration_starts())]);
    let decoded = classifier.decode(&attack.trace);
    let starts = attack.iteration_starts();
    let score = score_extraction(&decoded, &starts, &attack.run.nonce_bits, &extraction);

    ExtractionExample {
        detections: attack.trace.timestamps.clone(),
        iteration_starts: starts,
        nonce_bits: attack.run.nonce_bits.clone(),
        decoded: decoded.iter().map(|d| (d.boundary, d.bit)).collect(),
        recovered_fraction: score.recovered_fraction(),
        bit_error_rate: score.bit_error_rate(),
    }
}

// ---------------------------------------------------------------------------
// Step 4: noisy-nonce key recovery (the `e2e_key` experiment)
// ---------------------------------------------------------------------------

/// Outcome of the fleet-sharded key-recovery campaign.
#[derive(Debug, Clone)]
pub struct KeyRecoveryOutcome {
    /// The campaign over the fleet's captures in trial order: one attempt
    /// record per attacked signature, up to and including the successful
    /// one. Trials that captured nothing are skipped, so record `i` is the
    /// `i`-th attacked signature.
    pub campaign: CampaignReport,
    /// Whether the recovered key equals the victim's ground-truth private
    /// key (always true on success: verification is against the public key).
    pub matches_ground_truth: bool,
    /// Ladder positions per signature (nonce width − 1).
    pub ladder_bits: usize,
}

/// The multi-signature key-recovery campaign as a fleet workload: the
/// eviction set for the victim's branch-line SF set is prepared once
/// (oracle-built — Step 1/2 quality is measured by tables 3–6), a boundary
/// classifier is trained on one profiling signing, and then **each fleet
/// trial captures one fresh signature**: the worker rewinds its machine to
/// the shared snapshot, installs a fresh victim (same long-term key, fresh
/// nonce/jitter streams), reseeds the noise, monitors one signing window and
/// soft-decodes it. The observations come back in trial order and feed
/// [`run_campaign`], which attacks them serially until a corrected nonce
/// verifies against the service's public key, so the whole report is
/// bit-identical for every `--threads` value.
#[allow(clippy::too_many_arguments)] // one knob per experiment axis; callers name each cell
pub fn measure_key_recovery(
    spec: &CacheSpec,
    environment: Environment,
    fidelity: NoiseFidelity,
    tenants: &TenantPopulation,
    nonce_bits: usize,
    max_signatures: usize,
    search: SearchConfig,
    seed: u64,
    fleet: &Fleet,
) -> KeyRecoveryOutcome {
    const REQUEST_GAP: u64 = 100_000;
    let victim_template = EcdsaVictimConfig {
        nonce_bits,
        pre_cycles: 400_000,
        post_cycles: 200_000,
        full_crypto: true,
        key_seed: 0x515_0b0b,
        ..EcdsaVictimConfig::default()
    };
    let iteration_cycles = victim_template.iteration_cycles;
    let window = (victim_template.request_cycles() + REQUEST_GAP) * 2;
    let extraction = ExtractionConfig { iteration_cycles, ..ExtractionConfig::default() };

    // Shared base machine: the candidate pool is allocated *before* the
    // snapshot so its mappings survive every per-trial rewind.
    let mut base = Machine::builder(spec.clone())
        .noise(environment.noise())
        .noise_fidelity(fidelity)
        .tenants(tenants.clone())
        .seed(stream_seed(seed, trial_streams::MACHINE))
        .build();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, trial_streams::ALLOC));
    let pool = CandidateSet::allocate(
        &mut base,
        0x240, // the branch line's page offset, known from the public binary
        EvsetConfig::default().candidate_count(spec, TargetCache::Sf),
        &mut rng,
    );
    let snapshot = base.snapshot();

    // Probe installation: locate the target SF set and its congruent pool
    // members. Installing right after the snapshot pins the victim's
    // address-space lottery — every per-trial install after `reset_to`
    // replays the same draw, so the eviction set below stays aimed at the
    // target set in all trials.
    let install = |machine: &mut Machine, victim_seed: u64| {
        let cfg = EcdsaVictimConfig { seed: victim_seed, ..victim_template.clone() };
        let (victim, handle) = EcdsaVictim::new(cfg);
        machine.install_victim(Box::new(victim), true, REQUEST_GAP);
        handle
    };
    let handle = install(&mut base, stream_seed(seed, trial_streams::VICTIM));
    let (layout, key_pair) = {
        let log = handle.lock().expect("victim log");
        (log.layout.clone().expect("layout"), log.key_pair.clone().expect("full crypto key"))
    };
    let target_loc = base.oracle_victim_location(layout.branch_line);
    let evset = oracle::sf_eviction_set(&base, target_loc, pool.addresses())
        .expect("candidate pool covers the target set");

    // Train the boundary classifier on one profiling signing (ground-truth
    // iteration starts, as in the pipeline and the paper's instrumentation).
    base.reset_to(&snapshot);
    let train_handle = install(&mut base, stream_seed(seed, trial_streams::TRAIN));
    base.reseed(stream_seed(seed, trial_streams::TRAIN));
    let training = capture_signing_run(&mut base, &evset, &train_handle, window, 0)
        .expect("training window must cover one signing");
    let classifier =
        BoundaryClassifier::train(&extraction, &[(&training.trace, &training.iteration_starts())]);

    // One fleet trial = one fresh signature observation.
    let captures = fleet.run_with(
        max_signatures,
        seed,
        |_worker| snapshot.to_machine(),
        |machine, ctx| {
            machine.reset_to(&snapshot);
            // Install before reseeding: the victim layout lottery must
            // replay the snapshot's stream (see above); only the noise and
            // nonce streams differ per trial.
            let handle = install(machine, ctx.stream(trial_streams::VICTIM));
            machine.reseed(ctx.stream(trial_streams::NOISE));
            capture_signing_run(machine, &evset, &handle, window, 0)?.observe(&classifier)
        },
    );

    // The campaign attacks the captures serially, in trial order: the same
    // report for any thread count.
    let campaign_cfg = CampaignConfig {
        ladder_bits: victim_template.ladder_bits(),
        iteration_cycles,
        max_signatures,
        max_alignment_shift: 1,
        search,
    };
    let mut captures = captures.into_iter().flatten();
    let campaign = run_campaign(&campaign_cfg, key_pair.public(), |_| captures.next());
    KeyRecoveryOutcome {
        matches_ground_truth: campaign
            .recovered
            .as_ref()
            .is_some_and(|key| &key.private == key_pair.private()),
        ladder_bits: campaign_cfg.ladder_bits,
        campaign,
    }
}

// ---------------------------------------------------------------------------
// AES T-table first-round leak
// ---------------------------------------------------------------------------

/// Recovery evidence for one monitored key byte of the AES victim.
#[derive(Debug, Clone, Copy)]
pub struct AesByteRecovery {
    /// Index of the key byte (0, 4, 8 or 12 — the state bytes that index
    /// the monitored table `T0`).
    pub byte_index: usize,
    /// Upper nibble recovered by the correlation (argmax over guesses).
    pub recovered_nibble: u8,
    /// Ground-truth upper nibble of the key byte.
    pub true_nibble: u8,
    /// Detection rate over requests whose plaintext nibble matches the
    /// recovered guess.
    pub hit_rate_best: f64,
    /// Mean detection rate over the other fifteen guesses.
    pub hit_rate_rest: f64,
}

/// Outcome of the AES T-table first-round attack.
#[derive(Debug, Clone)]
pub struct AesLeakOutcome {
    /// Complete victim requests observed across all trials.
    pub requests: usize,
    /// Fraction of observed requests with a detection inside the lookup
    /// window.
    pub detection_rate: f64,
    /// One row per monitored key byte, in byte order.
    pub per_byte: Vec<AesByteRecovery>,
    /// Rows whose recovered nibble matches ground truth.
    pub correct: usize,
}

/// The AES T-table first-round attack as a fleet workload: the attacker
/// monitors the SF set of `T0`'s first cache line with Parallel Probing and
/// correlates per-request detections against the known plaintexts. Byte `i`
/// of the first round touches line `(p[i] ^ k[i]) >> 4` of `T[i mod 4]`, so
/// for every byte indexing `T0` the detection rate, conditioned on the
/// plaintext nibble `p[i] >> 4` equalling a guess `g`, peaks at
/// `g = k[i] >> 4` — recovering the upper nibble of `k[0]`, `k[4]`, `k[8]`
/// and `k[12]` from one monitored set. Each fleet trial captures an
/// independent batch of requests (fresh plaintext and noise streams); the
/// correlation is a counting aggregate, so the outcome is bit-identical for
/// every thread count.
pub fn measure_aes_ttable(
    spec: &CacheSpec,
    environment: Environment,
    fidelity: NoiseFidelity,
    requests: usize,
    trials: usize,
    seed: u64,
    fleet: &Fleet,
) -> AesLeakOutcome {
    const REQUEST_GAP: u64 = 20_000;
    /// The state bytes whose first-round lookup indexes `T0`.
    const MONITORED_BYTES: [usize; 4] = [0, 4, 8, 12];
    let template = AesTTableConfig::default();
    let key = template.key;
    let request_cycles = template.request_cycles();
    let requests_per_trial = requests.div_ceil(trials.max(1)).max(1);
    // Dispatch delay + inter-request gap per run, plus one spare run so the
    // last batch entry always completes inside the trace.
    let window = (requests_per_trial as u64 + 1) * (request_cycles + REQUEST_GAP + 2_000);

    // Shared base machine; the candidate pool targets page offset 0 (the
    // first line of T0, known from the public binary's .rodata layout) and
    // is allocated before the snapshot so it survives per-trial rewinds.
    let mut base = Machine::builder(spec.clone())
        .noise(environment.noise())
        .noise_fidelity(fidelity)
        .seed(stream_seed(seed, trial_streams::MACHINE))
        .build();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, trial_streams::ALLOC));
    let count = EvsetConfig::default().candidate_count(spec, TargetCache::Sf);
    let pool = CandidateSet::allocate(&mut base, 0x0, count, &mut rng);
    let snapshot = base.snapshot();

    // Installing right after the snapshot pins the victim's address-space
    // lottery; per-trial installs after `reset_to` replay the same draw, so
    // the eviction set stays aimed at the monitored set in every trial.
    let install = |machine: &mut Machine, victim_seed: u64| {
        let cfg = AesTTableConfig { seed: victim_seed, ..template.clone() };
        let (victim, handle) = AesTTableVictim::new(cfg);
        machine.install_victim(Box::new(victim), true, REQUEST_GAP);
        handle
    };
    let handle = install(&mut base, stream_seed(seed, trial_streams::VICTIM));
    let layout = handle.lock().expect("AES victim log").layout.expect("layout");
    let monitored = layout.table_line(0, 0);
    let target_loc = base.oracle_victim_location(monitored);
    let evset = oracle::sf_eviction_set(&base, target_loc, pool.addresses())
        .expect("candidate pool covers the monitored set");

    // One fleet trial = one independent batch of requests.
    let batches: Vec<Vec<([u8; 16], bool)>> = fleet.run_with(
        trials,
        seed,
        |_worker| snapshot.to_machine(),
        |machine, ctx| {
            machine.reset_to(&snapshot);
            let handle = install(machine, ctx.stream(trial_streams::VICTIM));
            machine.reseed(ctx.stream(trial_streams::NOISE));
            let mut monitor = Monitor::new(Strategy::Parallel, evset.clone());
            let trace = monitor.collect(machine, window);
            let starts = machine.victim_run_starts().to_vec();
            let log = handle.lock().expect("AES victim log");
            // Pair each complete run with its plaintext; detection counts
            // only inside the lookup phase (plus one probe period of slack)
            // so parsing/serialisation phases cannot alias in.
            starts
                .iter()
                .zip(&log.plaintexts)
                .filter(|(&start, _)| {
                    start >= trace.start && start + request_cycles <= trace.end
                })
                .take(requests_per_trial)
                .map(|(&start, p)| {
                    let lo = start + template.lookup_start();
                    let hi = start + template.lookup_end() + 4_000;
                    let detected = trace.timestamps.iter().any(|&t| t >= lo && t < hi);
                    (*p, detected)
                })
                .collect::<Vec<_>>()
        },
    );

    // Counting aggregate over all observed requests (order-independent).
    let rows: Vec<([u8; 16], bool)> = batches.into_iter().flatten().collect();
    let detections = rows.iter().filter(|(_, d)| *d).count();
    let per_byte: Vec<AesByteRecovery> = MONITORED_BYTES
        .iter()
        .map(|&i| {
            let mut hits = [0usize; 16];
            let mut totals = [0usize; 16];
            for (p, detected) in &rows {
                let g = (p[i] >> 4) as usize;
                totals[g] += 1;
                if *detected {
                    hits[g] += 1;
                }
            }
            let rate = |g: usize| {
                if totals[g] == 0 { 0.0 } else { hits[g] as f64 / totals[g] as f64 }
            };
            let recovered =
                (0..16).max_by(|&a, &b| rate(a).partial_cmp(&rate(b)).expect("finite")).unwrap_or(0);
            let rest: Vec<f64> =
                (0..16).filter(|&g| g != recovered && totals[g] > 0).map(rate).collect();
            AesByteRecovery {
                byte_index: i,
                recovered_nibble: recovered as u8,
                true_nibble: key[i] >> 4,
                hit_rate_best: rate(recovered),
                hit_rate_rest: if rest.is_empty() {
                    0.0
                } else {
                    rest.iter().sum::<f64>() / rest.len() as f64
                },
            }
        })
        .collect();
    let correct = per_byte.iter().filter(|r| r.recovered_nibble == r.true_nibble).count();
    AesLeakOutcome {
        requests: rows.len(),
        detection_rate: if rows.is_empty() { 0.0 } else { detections as f64 / rows.len() as f64 },
        per_byte,
        correct,
    }
}

/// Runs the full end-to-end attack *including Step 4* on the pinned tiny
/// host (the [`AttackConfig::fast_key_recovery`] configuration, with the
/// campaign budgets overridable for scaling experiments).
pub fn run_end_to_end_key(
    max_signatures: usize,
    max_flips: usize,
    seed: u64,
) -> AttackReport {
    let mut config = AttackConfig::fast_key_recovery();
    config.seed = seed;
    config.recovery = RecoveryConfig {
        max_signatures,
        search: SearchConfig { max_flips, ..config.recovery.search },
        ..config.recovery
    };
    EndToEndAttack::new(config).run()
}

/// Runs the full end-to-end attack (Section 7.3) on a scaled host and returns
/// the report.
pub fn run_end_to_end(spec: &CacheSpec, environment: Environment, seed: u64) -> AttackReport {
    let victim = EcdsaVictimConfig {
        nonce_bits: 128,
        pre_cycles: 2_000_000,
        post_cycles: 800_000,
        ..EcdsaVictimConfig::default()
    };
    let mut config = AttackConfig {
        spec: spec.clone(),
        noise: environment.noise(),
        signatures: 5,
        seed,
        ..AttackConfig::default()
    };
    config.classifier.features.expected_period_cycles = victim.expected_access_period();
    config.classifier.noise_per_ms = environment.noise().accesses_per_ms(spec.freq_ghz);
    config.scan.trace_cycles = 1_000_000;
    config.extraction.iteration_cycles = victim.iteration_cycles;
    config.victim = victim;
    EndToEndAttack::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_cache_model::{CacheSpec, ReplacementKind};

    fn tiny() -> CacheSpec {
        CacheSpec::tiny_test()
    }

    #[test]
    fn single_set_measurement_succeeds_locally() {
        let stats = measure_single_set(
            &tiny(),
            Environment::QuiescentLocal,
            NoiseFidelity::Exact,
            Algorithm::BinS,
            true,
            3,
            1,
            &Fleet::single(),
        );
        assert!(stats.success_rate > 0.5, "success rate {}", stats.success_rate);
        assert!(stats.time_ms.mean > 0.0);
    }

    /// A table's cells run as one sweep share its pool at every thread
    /// count: two environments are two machine configurations, whatever the
    /// number of algorithms, and sharing machines across cells changes no
    /// bit of any cell's statistics.
    #[test]
    fn table_cells_share_one_pool_at_any_thread_count() {
        let seed = 0x7ab1e3;
        let cells = || -> Vec<SweepCell> {
            Environment::all()
                .into_iter()
                .flat_map(|env| {
                    [Algorithm::Gt, Algorithm::BinS]
                        .map(|algo| single_set_cell(&tiny(), env, algo, false))
                })
                .collect()
        };
        let mut runs = Vec::new();
        for threads in [1usize, 2] {
            let sweep =
                PruningSweep::new(cells(), NoiseFidelity::Exact, HierarchyOptions, seed);
            runs.push(measure_single_sets(&sweep, 2, seed, &Fleet::new(threads).with_chunk(1)));
            let pool = sweep.pool().stats();
            assert_eq!(pool.keys, 2, "{threads} thread(s): {pool:?}");
            assert!(pool.builds <= 2 * threads as u64, "{threads} thread(s): {pool:?}");
        }
        assert_eq!(runs[0], runs[1]);
        let alone = measure_single_set(
            &tiny(),
            Environment::CloudRun,
            NoiseFidelity::Exact,
            Algorithm::BinS,
            false,
            2,
            seed,
            &Fleet::single(),
        );
        assert_eq!(runs[0][3], alone, "a shared pool must not leak state between cells");
    }

    #[test]
    fn single_set_measurement_is_thread_count_invariant() {
        let run = |threads: usize| {
            measure_single_set(
                &tiny(),
                Environment::CloudRun,
                NoiseFidelity::Exact,
                Algorithm::BinS,
                true,
                6,
                0x7e57,
                &Fleet::new(threads).with_chunk(1),
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
    }

    #[test]
    fn bulk_estimate_extrapolates() {
        let est = measure_bulk(
            &tiny(),
            Environment::QuiescentLocal,
            Algorithm::BinS,
            llc_evsets::Scope::PageOffset,
            2,
            2,
        )
        .expect("LRU candidate filtering verifies");
        assert!(est.required_sets >= est.sampled_sets);
        assert!(est.estimated_total_seconds >= 0.0);
    }

    /// Candidate filtering cannot verify an L2 eviction set under Tree-PLRU:
    /// the estimate is a typed error for the report to render, not a panic.
    #[test]
    fn bulk_estimate_reports_a_filtering_failure_as_an_error() {
        let spec = crate::smoke_skylake().with_replacement(ReplacementKind::TreePlru);
        let err = measure_bulk(
            &spec,
            Environment::QuiescentLocal,
            Algorithm::BinS,
            llc_evsets::Scope::PageOffset,
            1,
            1,
        )
        .unwrap_err();
        assert_eq!(err, EvsetError::VerificationFailed);
    }

    #[test]
    fn noise_cdf_orders_environments() {
        let local = measure_noise_cdf(&tiny(), Environment::QuiescentLocal, 40, 3);
        let cloud = measure_noise_cdf(&tiny(), Environment::CloudRun, 40, 3);
        assert!(
            cloud.accesses_per_ms > local.accesses_per_ms,
            "cloud noise ({}) must exceed local noise ({})",
            cloud.accesses_per_ms,
            local.accesses_per_ms
        );
        assert!(cloud.cdf_at(100.0) >= local.cdf_at(100.0));
    }

    #[test]
    fn test_eviction_points_show_parallel_speedup() {
        let points = measure_test_eviction(
            &tiny(),
            Environment::QuiescentLocal,
            &[32, 128],
            3,
            4,
            &Fleet::single(),
        );
        assert_eq!(points.len(), 2);
        for p in points {
            assert!(p.parallel_us.mean < p.sequential_us.mean);
        }
    }

    #[test]
    fn key_recovery_campaign_on_tiny_machine_is_deterministic() {
        let run = |threads: usize| {
            measure_key_recovery(
                &tiny(),
                Environment::QuiescentLocal,
                NoiseFidelity::Exact,
                &TenantPopulation::empty(),
                32,
                3,
                SearchConfig { max_candidates: 150, max_flips: 2 },
                0xeec,
                &Fleet::new(threads).with_chunk(1),
            )
        };
        let serial = run(1);
        assert_eq!(serial.ladder_bits, 31);
        let attempts = &serial.campaign.attempts;
        assert!(!attempts.is_empty(), "campaign must attack at least one signature");
        assert_eq!(attempts.len(), serial.campaign.signatures_observed);
        let threaded = run(2);
        assert_eq!(serial.campaign.signatures_needed, threaded.campaign.signatures_needed);
        assert_eq!(serial.campaign.recovered, threaded.campaign.recovered);
        assert_eq!(attempts, &threaded.campaign.attempts);
        // On success the key must equal the ground truth (public-key
        // verification admits no false positives).
        if serial.campaign.signatures_needed.is_some() {
            assert!(serial.matches_ground_truth);
        }
    }

    #[test]
    fn monitoring_measurement_produces_latencies() {
        let point = measure_monitoring(
            &tiny(),
            Environment::QuiescentLocal,
            Strategy::Parallel,
            5_000,
            100,
            5,
        );
        assert!(point.detection_rate > 0.3);
        assert!(point.stats.mean_prime_cycles > 0.0);
    }
}
