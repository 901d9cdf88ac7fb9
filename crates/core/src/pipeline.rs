//! The end-to-end, cross-tenant attack pipeline (Section 7): Step 1 builds SF
//! eviction sets at the victim's page offset, Step 2 identifies the target SF
//! set with PSD + SVM while triggering the victim, Step 3 monitors the
//! target set with Parallel Probing and soft-decodes the ECDSA nonce bits,
//! and Step 4 (`llc-recovery`) corrects the noisy bits and recovers the
//! victim's private key, verified against the public key only.

use crate::extract::{score_extraction, BoundaryClassifier, ExtractionConfig, ExtractionScore};
use crate::features::FeatureConfig;
use crate::identify::{scan_for_target, ClassifierTrainingConfig, ScanConfig, TraceClassifier};
use llc_ecdsa_victim::{EcdsaVictim, EcdsaVictimConfig, RunGroundTruth, Scalar, VictimHandle};
use llc_fleet::stream_seed;
use llc_evsets::{
    BinarySearch, BulkBuilder, BulkConfig, GroupTesting, PrimeScope, PruningAlgorithm, Scope,
};
use llc_machine::{Machine, NoiseModel};
use llc_probe::{AccessTrace, Monitor, Strategy};
use llc_recovery::{
    run_campaign, CampaignConfig, ObservedBit, SearchConfig, SignatureObservation,
};
use llc_cache_model::{CacheSpec, SetLocation};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stream tags for the attack pipeline's RNG streams.
///
/// Every random stream the pipeline consumes is derived from the single
/// `AttackConfig::seed` through [`llc_fleet::stream_seed`], which is
/// injective per tag. The previous recipe derived Steps 1–3 from the same
/// `StdRng::seed_from_u64` base with ad-hoc XOR constants — a latent
/// seed-reuse footgun where two streams could collide or end up as shifted
/// copies of each other. The `pinned_stream_derivation` unit test locks the
/// exact derived values so a change to the derivation cannot slip in
/// unnoticed (it would silently re-randomise every experiment).
pub mod streams {
    /// Machine construction: paging lottery, background noise, jitter.
    pub const MACHINE: u64 = u64::from_le_bytes(*b"machine\0");
    /// Step 1: candidate allocation and pruning randomness.
    pub const STEP1: u64 = u64::from_le_bytes(*b"step1\0\0\0");
    /// Step 2: classifier-training trace synthesis and holdout split.
    pub const STEP2: u64 = u64::from_le_bytes(*b"step2\0\0\0");
    /// Step 3: machine noise/jitter stream during nonce extraction.
    pub const STEP3: u64 = u64::from_le_bytes(*b"step3\0\0\0");
}

/// Which address-pruning algorithm Step 1 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Baseline group testing.
    Gt,
    /// Optimised group testing (no early termination).
    GtOp,
    /// Baseline Prime+Scope.
    Ps,
    /// Optimised Prime+Scope (front recharging).
    PsOp,
    /// The paper's binary-search algorithm.
    BinS,
}

impl Algorithm {
    /// All algorithms in the order used by the paper's tables.
    pub fn all() -> [Algorithm; 5] {
        [Algorithm::Gt, Algorithm::GtOp, Algorithm::Ps, Algorithm::PsOp, Algorithm::BinS]
    }

    /// Instantiates the algorithm.
    pub fn instance(&self) -> Box<dyn PruningAlgorithm> {
        match self {
            Algorithm::Gt => Box::new(GroupTesting::baseline()),
            Algorithm::GtOp => Box::new(GroupTesting::optimized()),
            Algorithm::Ps => Box::new(PrimeScope::baseline()),
            Algorithm::PsOp => Box::new(PrimeScope::optimized()),
            Algorithm::BinS => Box::new(BinarySearch::new()),
        }
    }

    /// The paper's name for the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Gt => "Gt",
            Algorithm::GtOp => "GtOp",
            Algorithm::Ps => "Ps",
            Algorithm::PsOp => "PsOp",
            Algorithm::BinS => "BinS",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the end-to-end attack.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Cache hierarchy of the simulated host.
    pub spec: CacheSpec,
    /// Background-tenant noise level.
    pub noise: NoiseModel,
    /// The victim service's parameters.
    pub victim: EcdsaVictimConfig,
    /// Idle gap between victim requests (the service is kept busy by the
    /// attacker's triggering requests).
    pub victim_request_gap: u64,
    /// Pruning algorithm used for eviction-set construction.
    pub algorithm: Algorithm,
    /// Bulk-construction configuration (filtering, per-set budget, sampling).
    pub bulk: BulkConfig,
    /// Scanning configuration for target-set identification.
    pub scan: ScanConfig,
    /// Classifier training parameters.
    pub classifier: ClassifierTrainingConfig,
    /// Nonce-extraction parameters.
    pub extraction: ExtractionConfig,
    /// Number of signings to capture in Step 3 (paper: 10).
    pub signatures: usize,
    /// Step 4 (key recovery) parameters.
    pub recovery: RecoveryConfig,
    /// Random seed.
    pub seed: u64,
}

/// Configuration of the Step 4 key-recovery campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Maximum signatures the campaign may consume (Step 3 captures first,
    /// then fresh signings are monitored on demand). `0` disables Step 4;
    /// the phase also requires a `full_crypto` victim — without real
    /// signatures there is no key to recover.
    pub max_signatures: usize,
    /// Alignment-shift hypotheses tried per signature (`0..=max`).
    pub max_alignment_shift: usize,
    /// Budget of the per-signature correction search.
    pub search: SearchConfig,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self { max_signatures: 0, max_alignment_shift: 2, search: SearchConfig::default() }
    }
}

impl Default for AttackConfig {
    fn default() -> Self {
        let victim = EcdsaVictimConfig::default();
        let features = FeatureConfig {
            expected_period_cycles: victim.expected_access_period(),
            ..FeatureConfig::default()
        };
        Self {
            spec: CacheSpec::skylake_sp_cloud(),
            noise: NoiseModel::cloud_run(),
            victim_request_gap: 200_000,
            algorithm: Algorithm::BinS,
            bulk: BulkConfig::default(),
            scan: ScanConfig::default(),
            classifier: ClassifierTrainingConfig { features, ..Default::default() },
            extraction: ExtractionConfig::default(),
            signatures: 10,
            recovery: RecoveryConfig::default(),
            seed: 0xa77ac4,
            victim,
        }
    }
}

impl AttackConfig {
    /// A configuration sized for fast tests: the tiny cache hierarchy, a
    /// short-nonce victim and a handful of signatures.
    pub fn fast_test() -> Self {
        let victim = EcdsaVictimConfig::fast_test();
        let mut config = Self {
            spec: CacheSpec::tiny_test(),
            noise: NoiseModel::quiescent_local(),
            victim_request_gap: 50_000,
            signatures: 3,
            ..Self::default()
        };
        config.classifier.features.expected_period_cycles = victim.expected_access_period();
        config.classifier.positive_traces = 60;
        config.classifier.negative_traces = 100;
        config.classifier.trace_cycles = 400_000;
        config.scan.trace_cycles = 400_000;
        config.scan.timeout_cycles = 400_000_000;
        config.extraction.iteration_cycles = victim.iteration_cycles;
        config.victim = victim;
        config
    }

    /// [`AttackConfig::fast_test`] with real crypto and Step 4 enabled: the
    /// victim signs with scaled (64-bit) nonces and the campaign corrects
    /// decoded bits until the private key verifies against the public key.
    pub fn fast_key_recovery() -> Self {
        let mut config = Self::fast_test();
        config.victim.full_crypto = true;
        config.recovery = RecoveryConfig {
            max_signatures: 8,
            max_alignment_shift: 1,
            search: SearchConfig { max_candidates: 300, max_flips: 2 },
        };
        config
    }
}

/// Step 1 report: eviction-set construction.
#[derive(Debug, Clone)]
pub struct EvsetPhase {
    /// Eviction sets constructed, keyed by target address.
    pub sets_built: usize,
    /// Target addresses attempted.
    pub attempted: usize,
    /// Success rate over attempted sets.
    pub success_rate: f64,
    /// Simulated cycles spent.
    pub cycles: u64,
}

/// Step 2 report: target-set identification.
#[derive(Debug, Clone)]
pub struct IdentifyPhase {
    /// Whether a target set was identified.
    pub identified: bool,
    /// Whether the identified set is truly the victim's target set
    /// (oracle-validated, as in the paper's ground-truth checks).
    pub correct: bool,
    /// Simulated cycles spent scanning.
    pub cycles: u64,
    /// Traces collected during the scan.
    pub traces: u64,
    /// Sets scanned per second of simulated time.
    pub scan_rate_per_s: f64,
}

/// Step 3 report: nonce extraction.
#[derive(Debug, Clone)]
pub struct ExtractPhase {
    /// Per-signing extraction scores.
    pub scores: Vec<ExtractionScore>,
    /// Simulated cycles spent monitoring.
    pub cycles: u64,
}

impl ExtractPhase {
    /// Median fraction of nonce bits recovered across signings.
    pub fn median_recovered_fraction(&self) -> f64 {
        if self.scores.is_empty() {
            return 0.0;
        }
        let mut fracs: Vec<f64> = self.scores.iter().map(|s| s.recovered_fraction()).collect();
        fracs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        fracs[fracs.len() / 2]
    }

    /// Mean bit error rate across signings.
    pub fn mean_bit_error_rate(&self) -> f64 {
        if self.scores.is_empty() {
            return 0.0;
        }
        self.scores.iter().map(|s| s.bit_error_rate()).sum::<f64>() / self.scores.len() as f64
    }
}

/// Step 4 report: key recovery from the decoded nonce bits.
#[derive(Debug, Clone)]
pub struct RecoveryPhase {
    /// The recovered private key, verified against the victim's *public*
    /// key only. `None` when every observed signature stayed beyond the
    /// correction budget.
    pub recovered_key: Option<Scalar>,
    /// Oracle validation: whether the recovered key is bit-for-bit the
    /// victim's ground-truth private key (it always is when `recovered_key`
    /// is `Some` — public-key verification admits no false positives — but
    /// the report states it explicitly, like [`IdentifyPhase::correct`]).
    pub matches_ground_truth: bool,
    /// Signatures observed (Step 3 captures plus fresh monitoring).
    pub signatures_observed: usize,
    /// 1-based index of the signature that broke, if any.
    pub signatures_needed: Option<usize>,
    /// Correction-search candidates examined across all attempts.
    pub candidates_examined: u64,
    /// Candidates submitted to public-key verification.
    pub candidates_tested: u64,
    /// Known-bit flips the successful candidate needed.
    pub flips: Option<usize>,
    /// Simulated cycles spent in the phase (additional monitoring).
    pub cycles: u64,
    /// Host wall-clock milliseconds spent in the phase (search included).
    pub wall_ms: f64,
}

/// The complete end-to-end attack report (Section 7.3).
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Step 1 results.
    pub evset: EvsetPhase,
    /// Step 2 results.
    pub identify: IdentifyPhase,
    /// Step 3 results.
    pub extract: ExtractPhase,
    /// Step 4 results (`None` when recovery is disabled or Steps 1–3 left
    /// nothing to attack).
    pub recovery: Option<RecoveryPhase>,
    /// Total simulated cycles of the whole attack.
    pub total_cycles: u64,
    /// Machine frequency used to convert cycles to seconds.
    pub freq_ghz: f64,
}

impl AttackReport {
    /// Total attack time in seconds of simulated time.
    pub fn total_seconds(&self) -> f64 {
        self.total_cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// True if the attack recovered a usable share of the nonce bits from at
    /// least one signing.
    pub fn succeeded(&self) -> bool {
        self.identify.correct && self.extract.median_recovered_fraction() > 0.5
    }
}

/// The end-to-end attack driver.
#[derive(Debug)]
pub struct EndToEndAttack {
    config: AttackConfig,
}

impl EndToEndAttack {
    /// Creates an attack driver for `config`.
    pub fn new(config: AttackConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Runs the complete attack and returns the report.
    pub fn run(&self) -> AttackReport {
        let cfg = &self.config;
        let mut machine = Machine::builder(cfg.spec.clone())
            .noise(cfg.noise.clone())
            .seed(stream_seed(cfg.seed, streams::MACHINE))
            .build();
        let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed, streams::STEP1));

        // Install the co-located victim service. It serves requests
        // back-to-back, driven by the attacker's triggering requests.
        let (victim, handle) = EcdsaVictim::new(cfg.victim.clone());
        machine.install_victim(Box::new(victim), true, cfg.victim_request_gap);
        let layout = handle
            .lock()
            .expect("victim log available")
            .layout
            .clone()
            .expect("victim setup ran");
        let target_offset = layout.target_page_offset();
        let true_target: SetLocation = machine.oracle_victim_location(layout.branch_line);

        let start = machine.now();

        // ---- Step 1: eviction sets at the target page offset --------------
        let algorithm = cfg.algorithm.instance();
        let bulk_cfg = BulkConfig { page_offset: target_offset, ..cfg.bulk.clone() };
        let builder = BulkBuilder::new(algorithm.as_ref(), bulk_cfg);
        let bulk = builder
            .run(&mut machine, Scope::PageOffset, &mut rng)
            .expect("bulk construction must at least start");
        let evset_phase = EvsetPhase {
            sets_built: bulk.successes,
            attempted: bulk.attempted,
            success_rate: bulk.success_rate(),
            cycles: bulk.total_cycles,
        };

        // ---- Step 2: identify the target SF set ---------------------------
        // The training seed folds the user's `classifier.seed` into the
        // derived STEP2 stream (injective in both), so classifier-training
        // sensitivity experiments still see their configured seed while
        // distinct attack seeds still train on distinct streams.
        let classifier_cfg = ClassifierTrainingConfig {
            seed: stream_seed(stream_seed(cfg.seed, streams::STEP2), cfg.classifier.seed),
            ..cfg.classifier.clone()
        };
        let classifier = TraceClassifier::train(&classifier_cfg);
        let identify_start = machine.now();
        let scan = scan_for_target(&mut machine, &bulk.eviction_sets, &classifier, &cfg.scan);
        let correct = scan
            .identified_ta
            .map(|ta| machine.oracle_attacker_location(ta) == true_target)
            .unwrap_or(false);
        let identify_phase = IdentifyPhase {
            identified: scan.identified.is_some(),
            correct,
            cycles: machine.now() - identify_start,
            traces: scan.traces_collected,
            scan_rate_per_s: scan.scan_rate_per_s,
        };

        // ---- Step 3: monitor the target set and extract nonce bits --------
        // Give Step 3 its own noise/jitter stream: without this, the
        // machine-RNG position Step 3 observes depends on exactly how many
        // draws Steps 1–2 consumed, coupling the phases for no reason.
        machine.reseed(stream_seed(cfg.seed, streams::STEP3));
        let extract_start = machine.now();
        let step3 = if let Some(idx) = scan.identified {
            self.extract_nonces(&mut machine, &bulk.eviction_sets[idx].1, &handle)
        } else {
            Step3Output::default()
        };
        let extract_phase =
            ExtractPhase { scores: step3.scores, cycles: machine.now() - extract_start };

        // ---- Step 4: correct the decoded bits and recover the key ---------
        let recovery = match (scan.identified, step3.classifier) {
            (Some(idx), Some(classifier)) if cfg.recovery.max_signatures > 0 => self
                .recover_key(
                    &mut machine,
                    &bulk.eviction_sets[idx].1,
                    &handle,
                    &classifier,
                    step3.observations,
                ),
            _ => None,
        };

        AttackReport {
            evset: evset_phase,
            identify: identify_phase,
            extract: extract_phase,
            recovery,
            total_cycles: machine.now() - start,
            freq_ghz: cfg.spec.freq_ghz,
        }
    }

    /// Step 3: collect traces covering `signatures` victim signings and
    /// decode their nonce bits, scoring each against the victim's ground
    /// truth (the paper's validation instrumentation). Besides the scores,
    /// the output carries the trained boundary classifier and — for
    /// full-crypto victims — one soft-decoded [`SignatureObservation`] per
    /// captured signing, which Step 4 consumes.
    fn extract_nonces(
        &self,
        machine: &mut Machine,
        eviction_set: &llc_evsets::EvictionSet,
        handle: &VictimHandle,
    ) -> Step3Output {
        let cfg = &self.config;
        let runs_before = machine.victim_runs() as usize;

        // One extra request's worth of monitoring for the training signing.
        let window =
            (cfg.victim.request_cycles() + cfg.victim_request_gap) * (cfg.signatures as u64 + 2);
        let trace = Monitor::new(Strategy::Parallel, eviction_set.clone()).collect(machine, window);
        let signings = covered_signings(machine, handle, &trace, runs_before);
        let mut signings = signings.into_iter().take(cfg.signatures + 1);

        // Train the boundary classifier on the first captured signing.
        let Some(train) = signings.next() else {
            return Step3Output::default();
        };
        let train_boundaries = train.iteration_starts();
        let boundary_classifier =
            BoundaryClassifier::train(&cfg.extraction, &[(&train.trace, &train_boundaries)]);

        // Decode and score the remaining signings.
        let mut output = Step3Output::default();
        for signing in signings {
            let decoded = boundary_classifier.decode(&signing.trace);
            output.scores.push(score_extraction(
                &decoded,
                &signing.iteration_starts(),
                &signing.run.nonce_bits,
                &cfg.extraction,
            ));
            output.observations.extend(soft_observation(&signing.run, &decoded));
        }
        output.classifier = Some(boundary_classifier);
        output
    }

    /// Step 4: run the multi-signature recovery campaign. Step 3's captured
    /// observations are consumed first; once they run out, the campaign
    /// keeps the victim signing and monitors one fresh window per needed
    /// signature on the live machine, until some signature's corrected nonce
    /// verifies against the victim's public key.
    fn recover_key(
        &self,
        machine: &mut Machine,
        eviction_set: &llc_evsets::EvictionSet,
        handle: &VictimHandle,
        classifier: &BoundaryClassifier,
        captured: Vec<SignatureObservation>,
    ) -> Option<RecoveryPhase> {
        let cfg = &self.config;
        // The public key is what the signing service advertises; no ground
        // truth crosses into the campaign.
        let public = handle.lock().expect("victim log available").key_pair.as_ref()?.public().to_owned();

        let campaign_cfg = CampaignConfig {
            ladder_bits: cfg.victim.ladder_bits(),
            iteration_cycles: cfg.extraction.iteration_cycles,
            max_signatures: cfg.recovery.max_signatures,
            max_alignment_shift: cfg.recovery.max_alignment_shift,
            search: cfg.recovery.search,
        };

        let phase_start = machine.now();
        let mut captured = captured.into_iter();
        let mut consumed_runs = machine.victim_runs() as usize;
        let window = (cfg.victim.request_cycles() + cfg.victim_request_gap) * 2;
        let report = run_campaign(&campaign_cfg, &public, |_| {
            if let Some(observation) = captured.next() {
                return Some(observation);
            }
            // Monitor fresh signing windows on the live machine. One window
            // can miss a complete signing (iteration jitter stretches runs
            // past the estimate), and a `None` here ends the whole campaign
            // — so retry a few windows before giving up the budget.
            for _ in 0..3 {
                if let Some(capture) =
                    capture_signing_run(machine, eviction_set, handle, window, consumed_runs)
                {
                    consumed_runs = capture.consumed_runs;
                    // A missing transcript means a schedule-only victim;
                    // retrying cannot fix that.
                    return capture.observe(classifier);
                }
            }
            None
        });

        let ground_truth = handle
            .lock()
            .expect("victim log available")
            .key_pair
            .as_ref()
            .map(|k| *k.private());
        let recovered = report.recovered;
        Some(RecoveryPhase {
            matches_ground_truth: recovered
                .as_ref()
                .map(|r| Some(r.private) == ground_truth)
                .unwrap_or(false),
            recovered_key: recovered.as_ref().map(|r| r.private),
            signatures_observed: report.signatures_observed,
            signatures_needed: report.signatures_needed,
            candidates_examined: report.candidates_examined,
            candidates_tested: report.candidates_tested,
            flips: recovered.map(|r| r.flips),
            cycles: machine.now() - phase_start,
            wall_ms: report.wall.as_secs_f64() * 1e3,
        })
    }
}

/// Packages one decoded signing as a Step 4 observation. Only full-crypto
/// runs carry the (public) signature components; schedule-only victims
/// return `None`. `sim_cycles` is left at zero for the caller to fill.
pub fn soft_observation(
    run: &RunGroundTruth,
    decoded: &[crate::extract::DecodedBit],
) -> Option<SignatureObservation> {
    let transcript = run.transcript.as_ref()?;
    Some(SignatureObservation {
        signature: transcript.signature,
        hashed_message: transcript.hashed_message,
        observed: decoded
            .iter()
            .map(|d| ObservedBit { at: d.boundary, bit: d.bit, confidence: d.confidence })
            .collect(),
        sim_cycles: 0,
    })
}

/// One fully monitored victim signing, sliced out of a probe trace.
#[derive(Debug, Clone)]
pub struct CapturedSigning {
    /// The detections inside the signing's `[start, start + duration)`.
    pub trace: AccessTrace,
    /// Absolute start cycle of the signing.
    pub run_start: u64,
    /// The signing's ground-truth record (iteration starts for training,
    /// transcript for Step 4).
    pub run: RunGroundTruth,
    /// 1-past the consumed run's index — pass back as `skip_runs` to
    /// capture the next signing.
    pub consumed_runs: usize,
    /// Simulated cycles of the monitoring window that captured it.
    pub cycles: u64,
}

impl CapturedSigning {
    /// Absolute cycle of every ladder iteration start (the ground-truth
    /// boundaries that train and score the decoder).
    pub fn iteration_starts(&self) -> Vec<u64> {
        self.run.iteration_starts.iter().map(|&o| self.run_start + o).collect()
    }

    /// Decodes the signing with `classifier` and packages it as a Step 4
    /// observation costing the capture's window, or `None` for a
    /// schedule-only victim (no transcript). Step 4 and `e2e_key` turn
    /// captures into observations through this one step.
    pub fn observe(&self, classifier: &BoundaryClassifier) -> Option<SignatureObservation> {
        let mut observation = soft_observation(&self.run, &classifier.decode(&self.trace))?;
        observation.sim_cycles = self.cycles;
        Some(observation)
    }
}

/// The victim signings, from run index `skip_runs` on, that `trace` covers
/// completely, each sliced out of it, in run order. A signing is covered
/// when it starts at or after `trace.start` and ends at or before
/// `trace.end`.
///
/// This is the one run-window matcher of Steps 3 and 4: Step 3
/// (`EndToEndAttack`), [`capture_signing_run`] and `llc-bench`'s Figure 9
/// all find their signings through it.
pub fn covered_signings(
    machine: &Machine,
    handle: &VictimHandle,
    trace: &AccessTrace,
    skip_runs: usize,
) -> Vec<CapturedSigning> {
    let log = handle.lock().expect("victim log available");
    machine
        .victim_run_starts()
        .iter()
        .copied()
        .zip(&log.runs)
        .enumerate()
        .skip(skip_runs)
        .filter(|(_, (start, run))| *start >= trace.start && start + run.duration <= trace.end)
        .map(|(index, (run_start, run))| CapturedSigning {
            trace: AccessTrace {
                start: run_start,
                end: run_start + run.duration,
                timestamps: trace
                    .timestamps
                    .iter()
                    .copied()
                    .filter(|&t| t >= run_start && t < run_start + run.duration)
                    .collect(),
                probes: trace.probes,
                primes: trace.primes,
            },
            run_start,
            run: run.clone(),
            consumed_runs: index + 1,
            cycles: trace.duration(),
        })
        .collect()
}

/// Monitors `eviction_set` for one `window` and returns the first victim
/// signing (at or after `skip_runs`) that the window covers completely, or
/// `None` when no signing finished inside it (retry with another window —
/// iteration jitter can stretch a run past any fixed estimate).
///
/// This is the run-capture primitive of Step 4: the pipeline's recovery
/// phase and `llc-bench`'s fleet-sharded `e2e_key` campaign both call it,
/// and it matches runs to the window with [`covered_signings`].
pub fn capture_signing_run(
    machine: &mut Machine,
    eviction_set: &llc_evsets::EvictionSet,
    handle: &VictimHandle,
    window: u64,
    skip_runs: usize,
) -> Option<CapturedSigning> {
    let trace = Monitor::new(Strategy::Parallel, eviction_set.clone()).collect(machine, window);
    covered_signings(machine, handle, &trace, skip_runs).into_iter().next()
}

/// Everything Step 3 hands to the report and to Step 4.
#[derive(Debug, Default)]
struct Step3Output {
    scores: Vec<ExtractionScore>,
    classifier: Option<BoundaryClassifier>,
    observations: Vec<SignatureObservation>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the derived RNG streams of the default attack seed. If the
    /// derivation (or a stream tag) changes, every experiment re-randomises;
    /// this test makes that an explicit, reviewed event instead of a silent
    /// one. The four streams must also be pairwise distinct — the seed-reuse
    /// bug this derivation replaced.
    #[test]
    fn pinned_stream_derivation() {
        let seed = AttackConfig::default().seed;
        assert_eq!(seed, 0xa77ac4);
        let derived = [
            stream_seed(seed, streams::MACHINE),
            stream_seed(seed, streams::STEP1),
            stream_seed(seed, streams::STEP2),
            stream_seed(seed, streams::STEP3),
        ];
        assert_eq!(
            derived,
            [
                0xdc9809837a93b73c,
                0x14b5712f4e6f0c4a,
                0x775841021fc5166f,
                0x3a620e029a110201,
            ]
        );
        let unique: std::collections::HashSet<u64> = derived.iter().copied().collect();
        assert_eq!(unique.len(), derived.len(), "streams must never collide");
    }

    /// The run-window matcher keeps exactly the runs a trace covers, from
    /// `skip_runs` on, and slices each run's detections to its own window.
    #[test]
    fn covered_signings_match_runs_to_the_trace_window() {
        let mut machine =
            Machine::builder(CacheSpec::tiny_test()).noise(NoiseModel::silent()).seed(3).build();
        let (victim, handle) = EcdsaVictim::new(EcdsaVictimConfig::fast_test());
        machine.install_victim(Box::new(victim), true, 50_000);
        machine.idle(4_000_000);
        let runs: Vec<(u64, u64)> = {
            let log = handle.lock().unwrap();
            let starts = machine.victim_run_starts().iter();
            starts.zip(&log.runs).map(|(&s, run)| (s, s + run.duration)).collect()
        };
        assert!(runs.len() >= 3, "the victim served only {} runs", runs.len());
        // Detections on both edges of every run, and one just past each end.
        let timestamps: Vec<u64> =
            runs[..3].iter().flat_map(|&(s, e)| [s, s + 1, e - 1, e]).collect();
        let trace = |start, end| AccessTrace {
            start,
            end,
            timestamps: timestamps.clone(),
            probes: 7,
            primes: 2,
        };
        let indices = |signings: &[CapturedSigning]| -> Vec<usize> {
            signings.iter().map(|c| c.consumed_runs).collect()
        };

        // A run starting exactly at `trace.start` and one ending exactly at
        // `trace.end` are both covered.
        let (start, end) = (runs[0].0, runs[2].1);
        let all = covered_signings(&machine, &handle, &trace(start, end), 0);
        assert_eq!(indices(&all), [1, 2, 3]);
        for (signing, &(s, e)) in all.iter().zip(&runs) {
            assert_eq!(signing.run_start, s);
            assert_eq!((signing.trace.start, signing.trace.end), (s, e));
            assert_eq!(signing.trace.timestamps, [s, s + 1, e - 1], "outside [{s}, {e})");
            assert_eq!((signing.trace.probes, signing.trace.primes), (7, 2));
            assert_eq!(signing.cycles, end - start);
        }
        // `skip_runs` is honoured.
        assert_eq!(indices(&covered_signings(&machine, &handle, &trace(start, end), 1)), [2, 3]);
        // A run crossing `trace.end` is dropped.
        let cut = covered_signings(&machine, &handle, &trace(start, end - 1), 0);
        assert_eq!(indices(&cut), [1, 2]);
    }

    #[test]
    fn algorithm_enum_round_trip() {
        assert_eq!(Algorithm::all().len(), 5);
        for a in Algorithm::all() {
            assert_eq!(a.instance().name(), a.name());
            assert_eq!(a.to_string(), a.name());
        }
    }

    #[test]
    fn fast_config_uses_tiny_machine() {
        let cfg = AttackConfig::fast_test();
        assert_eq!(cfg.spec.cores, 3);
        assert!(cfg.victim.nonce_bits < 100);
    }

    #[test]
    fn end_to_end_attack_on_tiny_machine_recovers_nonce_bits() {
        let report = EndToEndAttack::new(AttackConfig::fast_test()).run();
        assert!(report.evset.sets_built >= 1, "step 1 built no eviction sets");
        assert!(report.identify.identified, "step 2 did not identify a target set");
        assert!(report.identify.correct, "step 2 identified the wrong set");
        assert!(!report.extract.scores.is_empty(), "step 3 produced no scores");
        assert!(
            report.extract.median_recovered_fraction() > 0.5,
            "recovered only {:.2} of the nonce bits",
            report.extract.median_recovered_fraction()
        );
        assert!(
            report.extract.mean_bit_error_rate() < 0.2,
            "bit error rate {:.2}",
            report.extract.mean_bit_error_rate()
        );
        assert!(report.succeeded());
        assert!(report.total_seconds() > 0.0);
    }

    #[test]
    fn report_aggregations_handle_empty_results() {
        let phase = ExtractPhase { scores: vec![], cycles: 0 };
        assert_eq!(phase.median_recovered_fraction(), 0.0);
        assert_eq!(phase.mean_bit_error_rate(), 0.0);
    }

    /// The headline claim: the full pipeline — eviction sets, target-set
    /// identification, soft-decision nonce extraction and the Step 4
    /// correction campaign — recovers the victim's exact private key,
    /// verified against the public key only and equal to the ground truth
    /// bit for bit.
    #[test]
    fn end_to_end_attack_recovers_the_exact_private_key() {
        let config = AttackConfig::fast_key_recovery();
        let report = EndToEndAttack::new(config.clone()).run();
        assert!(report.identify.correct, "step 2 must find the target set");
        let recovery = report.recovery.expect("step 4 must run");
        let key = recovery.recovered_key.expect(
            "the campaign must recover the key within its signature budget",
        );
        assert!(recovery.matches_ground_truth, "recovered key must be the ground truth");
        // Cross-check against the victim's real key, derived from its seed.
        let ground_truth = llc_ecdsa_victim::KeyPair::generate(
            llc_ecdsa_victim::Ecdsa::new().curve(),
            &mut StdRng::seed_from_u64(config.victim.key_seed),
        );
        assert_eq!(&key, ground_truth.private(), "bit-for-bit equality with the real key");
        assert!(recovery.signatures_needed.is_some());
        assert!(recovery.signatures_observed <= config.recovery.max_signatures);
        assert!(recovery.candidates_tested >= 1);
    }

    #[test]
    fn recovery_is_disabled_by_default_and_without_full_crypto() {
        // Default config: max_signatures = 0 → no Step 4, reports stay as
        // before.
        let report = EndToEndAttack::new(AttackConfig::fast_test()).run();
        assert!(report.recovery.is_none());

        // Recovery *enabled* but the victim is schedule-only (no real
        // signatures): Step 4 must decline gracefully, not panic.
        let mut config = AttackConfig::fast_test();
        config.recovery.max_signatures = 2;
        assert!(!config.victim.full_crypto);
        let report = EndToEndAttack::new(config).run();
        assert!(
            report.recovery.is_none(),
            "a schedule-only victim has no key to recover, so the phase must opt out"
        );
    }
}
