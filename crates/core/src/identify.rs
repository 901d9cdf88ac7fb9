//! Step 2 of the attack: identifying the victim's target SF set among the
//! eviction sets built in Step 1, using PSD features and an SVM classifier
//! (Sections 6.2 and 7.2).

use crate::features::{synthesize_trace, FeatureConfig};
use llc_evsets::EvictionSet;
use llc_machine::Machine;
use llc_ml::{ConfusionMatrix, Dataset, Kernel, Standardizer, Svm, SvmConfig};
use llc_probe::{AccessTrace, Monitor, Strategy};
use llc_cache_model::VirtAddr;

/// A trained target-set classifier: SVM over PSD features plus the
/// access-count pre-filter the paper applies before classification.
#[derive(Debug)]
pub struct TraceClassifier {
    features: FeatureConfig,
    standardizer: Standardizer,
    svm: Svm,
    /// Pre-filter: traces with fewer detected accesses are skipped.
    pub min_accesses: usize,
    /// Pre-filter: traces with more detected accesses are skipped.
    pub max_accesses: usize,
    /// Validation metrics measured on the held-out split during training.
    pub validation: ConfusionMatrix,
}

/// Training parameters for [`TraceClassifier::train`].
#[derive(Debug, Clone)]
pub struct ClassifierTrainingConfig {
    /// Feature extraction parameters (shared with scanning).
    pub features: FeatureConfig,
    /// Number of positive (target-set) training traces.
    pub positive_traces: usize,
    /// Number of negative (non-target-set) training traces.
    pub negative_traces: usize,
    /// Duration of each training trace in cycles (the paper uses 500 µs).
    pub trace_cycles: u64,
    /// Background noise level used for synthetic training traces, in
    /// accesses per millisecond per set.
    pub noise_per_ms: f64,
    /// Fraction of traces withheld for validation.
    pub holdout: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClassifierTrainingConfig {
    fn default() -> Self {
        Self {
            features: FeatureConfig::default(),
            positive_traces: 220,
            negative_traces: 400,
            trace_cycles: 1_000_000,
            noise_per_ms: 11.5,
            holdout: 0.3,
            seed: 0x5c1,
        }
    }
}

impl TraceClassifier {
    /// Trains the classifier on synthetic traces with the same statistics as
    /// the monitored signal (periodic victim accesses + tenant noise), the
    /// role played by the paper's 122k Cloud Run training traces.
    pub fn train(config: &ClassifierTrainingConfig) -> Self {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut data = Dataset::new();
        let period = config.features.expected_period_cycles;
        for i in 0..config.positive_traces {
            let trace = synthesize_trace(
                Some(period),
                config.trace_cycles,
                config.noise_per_ms,
                config.features.freq_ghz,
                config.seed ^ (i as u64),
            );
            data.push(config.features.features(&trace), 1);
        }
        for i in 0..config.negative_traces {
            let trace = synthesize_trace(
                None,
                config.trace_cycles,
                config.noise_per_ms,
                config.features.freq_ghz,
                config.seed ^ 0xdead_0000 ^ (i as u64),
            );
            data.push(config.features.features(&trace), 0);
        }
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let (train, val) = data.split(config.holdout, &mut rng);
        // Standardise the features: the PSD feature vector mixes counts,
        // ratios and fractions whose raw scales would dominate the kernel.
        let standardizer = Standardizer::fit(&train);
        let train = standardizer.transform_dataset(&train);
        let val = standardizer.transform_dataset(&val);
        let svm = Svm::train(
            &train,
            &SvmConfig {
                kernel: Kernel::Polynomial { degree: 3, gamma: 0.3, coef0: 1.0 },
                c: 2.0,
                ..Default::default()
            },
        );
        let predictions: Vec<usize> = val.features().iter().map(|f| svm.predict(f)).collect();
        let validation = ConfusionMatrix::from_predictions(val.labels(), &predictions);

        // Access-count pre-filter bounds scale with the trace duration: the
        // paper keeps traces with 50–400 accesses in 500 µs windows.
        let ms = config.trace_cycles as f64 / (config.features.freq_ghz * 1e6);
        let min_accesses = (50.0 * ms).round() as usize;
        let max_accesses = (800.0 * ms).round() as usize;

        Self {
            features: config.features.clone(),
            standardizer,
            svm,
            min_accesses,
            max_accesses,
            validation,
        }
    }

    /// Applies the access-count pre-filter (Section 7.2).
    pub fn passes_prefilter(&self, trace: &AccessTrace) -> bool {
        (self.min_accesses..=self.max_accesses).contains(&trace.len())
    }

    /// Classifies one trace: true = collected from the victim's target set.
    pub fn is_target(&self, trace: &AccessTrace) -> bool {
        self.passes_prefilter(trace)
            && self.svm.predict(&self.standardizer.transform(&self.features.features(trace))) == 1
    }
}

/// Configuration of the scanning loop.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Duration of the trace collected from each set (paper: 500 µs).
    pub trace_cycles: u64,
    /// Overall scan timeout in cycles (paper: 60 s PageOffset, 900 s WholeSys).
    pub timeout_cycles: u64,
    /// Monitoring strategy used while scanning.
    pub strategy: Strategy,
    /// Number of consecutive positive classifications required to accept a
    /// set (false-positive filtering).
    pub confirmations: u32,
}

impl Default for ScanConfig {
    fn default() -> Self {
        Self {
            trace_cycles: 1_000_000,
            timeout_cycles: 120_000_000_000,
            strategy: Strategy::Parallel,
            confirmations: 1,
        }
    }
}

/// Result of a target-set scan.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// Index (into the scanned eviction-set list) of the identified target.
    pub identified: Option<usize>,
    /// The target address associated with the identified eviction set.
    pub identified_ta: Option<VirtAddr>,
    /// Cycles spent scanning.
    pub elapsed_cycles: u64,
    /// Number of (set, trace) scan operations performed.
    pub traces_collected: u64,
    /// Sets scanned per second of simulated time.
    pub scan_rate_per_s: f64,
}

/// Scans eviction sets until a target set is identified or the timeout hits.
///
/// `eviction_sets` is the Step 1 output: one `(target address, eviction set)`
/// pair per candidate SF set. The victim must already be installed on the
/// machine and serving requests (the attacker keeps triggering it).
pub fn scan_for_target(
    machine: &mut Machine,
    eviction_sets: &[(VirtAddr, EvictionSet)],
    classifier: &TraceClassifier,
    config: &ScanConfig,
) -> ScanOutcome {
    let start = machine.now();
    let deadline = start + config.timeout_cycles;
    let mut traces_collected = 0u64;
    let mut identified = None;

    'outer: while machine.now() < deadline {
        for (idx, (ta, set)) in eviction_sets.iter().enumerate() {
            if machine.now() >= deadline {
                break 'outer;
            }
            let mut positives = 0;
            // One monitor per set: `collect` re-prepares (and re-compiles the
            // traversal plan) per trace, so confirmations are independent
            // exactly as before — without re-cloning the eviction set.
            let mut monitor = Monitor::new(config.strategy, set.clone());
            for _ in 0..config.confirmations {
                let trace = monitor.collect(machine, config.trace_cycles);
                traces_collected += 1;
                if classifier.is_target(&trace) {
                    positives += 1;
                } else {
                    break;
                }
            }
            if positives == config.confirmations {
                identified = Some((idx, *ta));
                break 'outer;
            }
        }
        if eviction_sets.is_empty() {
            break;
        }
    }

    let elapsed_cycles = machine.now() - start;
    let seconds = elapsed_cycles as f64 / (machine.spec().freq_ghz * 1e9);
    ScanOutcome {
        identified: identified.map(|(i, _)| i),
        identified_ta: identified.map(|(_, ta)| ta),
        elapsed_cycles,
        traces_collected,
        scan_rate_per_s: if seconds > 0.0 { traces_collected as f64 / seconds } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::synthesize_trace;

    fn quick_training() -> ClassifierTrainingConfig {
        ClassifierTrainingConfig {
            positive_traces: 60,
            negative_traces: 100,
            trace_cycles: 600_000,
            ..Default::default()
        }
    }

    #[test]
    fn classifier_separates_synthetic_target_and_noise_traces() {
        let classifier = TraceClassifier::train(&quick_training());
        assert!(
            classifier.validation.accuracy() > 0.9,
            "validation accuracy {} too low",
            classifier.validation.accuracy()
        );
        assert!(classifier.validation.false_positive_rate() < 0.1);

        let mut correct = 0;
        let n = 30;
        for i in 0..n {
            let target = synthesize_trace(Some(4_850), 600_000, 11.5, 2.0, 10_000 + i);
            let noise = synthesize_trace(None, 600_000, 11.5, 2.0, 20_000 + i);
            if classifier.is_target(&target) {
                correct += 1;
            }
            if !classifier.is_target(&noise) {
                correct += 1;
            }
        }
        assert!(correct as f64 / (2 * n) as f64 > 0.85, "accuracy {correct}/{}", 2 * n);
    }

    #[test]
    fn prefilter_rejects_empty_and_overfull_traces() {
        let classifier = TraceClassifier::train(&quick_training());
        let empty = AccessTrace { start: 0, end: 600_000, timestamps: vec![], probes: 1, primes: 1 };
        assert!(!classifier.passes_prefilter(&empty));
        let overfull = AccessTrace {
            start: 0,
            end: 600_000,
            timestamps: (0..10_000).map(|i| i * 50).collect(),
            probes: 1,
            primes: 1,
        };
        assert!(!classifier.passes_prefilter(&overfull));
        assert!(!classifier.is_target(&empty));
    }
}
