//! The multi-signature campaign: keep consuming fresh signature
//! observations until some signature's corrected nonce verifies.
//!
//! Per-signature recovery is all-or-nothing — either the correction search
//! reaches the true nonce within budget or it fails cleanly (verification is
//! a perfect public-information oracle, so there are no false positives).
//! The campaign therefore treats signatures as independent lottery tickets:
//! every fresh signing gives a fresh nonce, a fresh noise realisation and a
//! fresh chance that the decoder's erasures and errors fit the budget. The
//! driver consumes observations in order, runs the alignment-shift
//! hypotheses and the correction search for each, and stops at the first
//! verified key.
//!
//! [`run_campaign`] is the one campaign loop. It is deliberately ignorant of
//! *how* observations are produced: the caller supplies a closure.
//! `llc-core` feeds it from the live attack machine (monitoring one signing
//! per call), and `llc-bench`'s `e2e_key` campaign feeds it the captures
//! that the `llc-fleet` executor collected with per-signature machine
//! snapshot/reset, in trial order. Either way the report is a pure function
//! of the observations, so results are independent of thread count and
//! collection strategy.

use crate::algebra::KeyVerifier;
use crate::search::{correct_and_recover, SearchConfig};
use crate::soft::{align_observed_bits, ObservedBit};
use llc_ecdsa_victim::{Point, Scalar, Signature};
use std::time::{Duration, Instant};

/// Everything Step 3 observed about one signing: the soft-decoded bits and
/// the *public* signature components. No ground truth crosses this boundary.
#[derive(Debug, Clone)]
pub struct SignatureObservation {
    /// The signature the service returned for this signing.
    pub signature: Signature,
    /// The hashed message `z` (the attacker knows what it asked the service
    /// to sign).
    pub hashed_message: Scalar,
    /// Soft-decoded ladder bits, in observation order.
    pub observed: Vec<ObservedBit>,
    /// Simulated cycles spent capturing this observation.
    pub sim_cycles: u64,
}

/// Configuration of the campaign driver.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Ladder positions per signing: the nonce's bit width minus one (the
    /// group order's 570 bits for the real victim, the scaled width for test
    /// victims — public service parameters either way).
    pub ladder_bits: usize,
    /// Nominal ladder iteration duration in cycles (drives alignment).
    pub iteration_cycles: u64,
    /// Give up after this many signatures.
    pub max_signatures: usize,
    /// Alignment-shift hypotheses tried per signature (`0..=max`): how many
    /// leading iterations the decoder may have missed entirely.
    pub max_alignment_shift: usize,
    /// Budget of the per-signature correction search. The budget is spent
    /// per (signature, shift) attempt.
    pub search: SearchConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            ladder_bits: 569,
            iteration_cycles: 9_700,
            max_signatures: 20,
            max_alignment_shift: 2,
            search: SearchConfig::default(),
        }
    }
}

/// A successfully recovered key, with its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredKey {
    /// The private key `d`, verified against the public key.
    pub private: Scalar,
    /// The corrected full nonce that yielded it.
    pub nonce: Scalar,
    /// Index of the signature that broke (0-based).
    pub signature_index: usize,
    /// Alignment-shift hypothesis that succeeded.
    pub alignment_shift: usize,
    /// Known-bit flips the successful candidate needed.
    pub flips: usize,
}

/// Outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The recovered key, if any signature broke within budget.
    pub recovered: Option<RecoveredKey>,
    /// Signatures observed (and attacked) before stopping.
    pub signatures_observed: usize,
    /// `signature_index + 1` of the successful signature — the paper-style
    /// "signatures needed" metric.
    pub signatures_needed: Option<usize>,
    /// Total correction-search candidates examined across all attempts.
    pub candidates_examined: u64,
    /// Total candidates submitted to the verifier.
    pub candidates_tested: u64,
    /// Simulated cycles spent capturing the consumed observations.
    pub sim_cycles: u64,
    /// One record per attacked signature, in order; only the last can be
    /// marked recovered.
    pub attempts: Vec<AttemptStats>,
    /// Host wall-clock time of the whole campaign (observation + search).
    pub wall: Duration,
}

/// One attacked signature: what [`attempt_signature`] saw and spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttemptStats {
    /// Soft-decoded bits the observation carried.
    pub observed_bits: usize,
    /// Erased ladder positions of the shift-0 alignment (the reconstruction
    /// quality the search actually saw).
    pub erasures: usize,
    /// Candidate flip sets examined across all shift hypotheses.
    pub candidates_examined: u64,
    /// Candidates submitted to the verifier.
    pub candidates_tested: u64,
    /// Whether the signature's corrected nonce verified.
    pub recovered: bool,
}

/// Attacks one observed signature: alignment-shift hypotheses × correction
/// search, verified against the public key. Returns the key (with
/// provenance fields other than `signature_index` filled in) and the search
/// work spent.
pub fn attempt_signature(
    config: &CampaignConfig,
    public: &Point,
    observation: &SignatureObservation,
) -> (Option<RecoveredKey>, AttemptStats) {
    let mut stats =
        AttemptStats { observed_bits: observation.observed.len(), ..AttemptStats::default() };
    let mut verifier = KeyVerifier::new(
        *public,
        observation.signature,
        observation.hashed_message,
    );
    for shift in 0..=config.max_alignment_shift {
        let estimates = align_observed_bits(
            &observation.observed,
            config.iteration_cycles,
            config.ladder_bits,
            shift,
        );
        let outcome =
            correct_and_recover(&estimates, &config.search, |k| verifier.try_nonce(k));
        if shift == 0 {
            stats.erasures = outcome.erasures;
        }
        stats.candidates_examined += outcome.candidates_examined;
        stats.candidates_tested += outcome.candidates_tested;
        if let (Some(private), Some(nonce)) = (outcome.key, outcome.nonce) {
            stats.recovered = true;
            return (
                Some(RecoveredKey {
                    private,
                    nonce,
                    signature_index: 0,
                    alignment_shift: shift,
                    flips: outcome.flips_of_solution.unwrap_or(0),
                }),
                stats,
            );
        }
    }
    (None, stats)
}

/// Runs the campaign: calls `observe(i)` for `i = 0, 1, …` to obtain fresh
/// signature observations (returning `None` ends the campaign early, e.g.
/// when the signature source is exhausted), attacks each in order, and stops
/// at the first verified key or after `max_signatures` observations.
pub fn run_campaign<F>(
    config: &CampaignConfig,
    public: &Point,
    mut observe: F,
) -> CampaignReport
where
    F: FnMut(usize) -> Option<SignatureObservation>,
{
    let started = Instant::now();
    let mut report = CampaignReport {
        recovered: None,
        signatures_observed: 0,
        signatures_needed: None,
        candidates_examined: 0,
        candidates_tested: 0,
        sim_cycles: 0,
        attempts: Vec::new(),
        wall: Duration::ZERO,
    };
    for index in 0..config.max_signatures {
        let Some(observation) = observe(index) else {
            break;
        };
        report.signatures_observed += 1;
        report.sim_cycles += observation.sim_cycles;
        let (recovered, stats) = attempt_signature(config, public, &observation);
        report.candidates_examined += stats.candidates_examined;
        report.candidates_tested += stats.candidates_tested;
        report.attempts.push(stats);
        if let Some(mut key) = recovered {
            key.signature_index = index;
            report.signatures_needed = Some(index + 1);
            report.recovered = Some(key);
            break;
        }
    }
    report.wall = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_ecdsa_victim::{hash_to_scalar, Ecdsa, KeyPair, SigningTranscript};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const NONCE_BITS: usize = 32;
    const ITER: u64 = 10_000;

    fn service(seed: u64) -> (KeyPair, Vec<SigningTranscript>) {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let key = KeyPair::from_private(ecdsa.curve(), Scalar::random(&mut rng));
        let z = hash_to_scalar(b"campaign test");
        let transcripts = (0..4)
            .map(|_| {
                ecdsa.sign_with_drawn_nonce(&key, &z, || {
                    Scalar::random_with_bit_length(&mut rng, NONCE_BITS)
                })
            })
            .collect();
        (key, transcripts)
    }

    /// Builds an observation from a transcript, with `erase` positions
    /// dropped and `flip` positions inverted at low confidence.
    fn observe(t: &SigningTranscript, erase: &[usize], flip: &[usize]) -> SignatureObservation {
        let observed = t
            .ladder_bits
            .iter()
            .enumerate()
            .filter(|(i, _)| !erase.contains(i))
            .map(|(i, &b)| ObservedBit {
                at: 1_000 + i as u64 * ITER,
                bit: if flip.contains(&i) { !b } else { b },
                confidence: if flip.contains(&i) { 0.05 } else { 0.9 },
            })
            .collect();
        SignatureObservation {
            signature: t.signature,
            hashed_message: t.hashed_message,
            observed,
            sim_cycles: 5_000_000,
        }
    }

    fn config() -> CampaignConfig {
        CampaignConfig {
            ladder_bits: NONCE_BITS - 1,
            iteration_cycles: ITER,
            max_signatures: 4,
            max_alignment_shift: 1,
            // Small budget: every tested candidate costs a curve ladder, and
            // these tests also run under the unoptimised dev profile.
            search: SearchConfig { max_candidates: 100, max_flips: 2 },
        }
    }

    #[test]
    fn campaign_recovers_from_the_first_clean_signature() {
        let (key, transcripts) = service(1);
        let report = run_campaign(&config(), key.public(), |i| {
            Some(observe(&transcripts[i], &[], &[]))
        });
        let recovered = report.recovered.expect("clean observation must break immediately");
        assert_eq!(&recovered.private, key.private());
        assert_eq!(recovered.signature_index, 0);
        assert_eq!(report.signatures_needed, Some(1));
        assert_eq!(report.signatures_observed, 1);
        assert_eq!(report.sim_cycles, 5_000_000);
    }

    #[test]
    fn campaign_skips_unrecoverable_signatures() {
        let (key, transcripts) = service(2);
        // Signature 0: hopeless (half the bits erased). Signature 1: noisy
        // but within budget (3 erasures + 1 low-confidence error).
        let hopeless: Vec<usize> = (0..NONCE_BITS - 1).step_by(2).collect();
        let report = run_campaign(&config(), key.public(), |i| match i {
            0 => Some(observe(&transcripts[0], &hopeless, &[])),
            1 => Some(observe(&transcripts[1], &[3, 9, 17], &[12])),
            _ => None,
        });
        let recovered = report.recovered.expect("signature 1 must break");
        assert_eq!(&recovered.private, key.private());
        assert_eq!(recovered.signature_index, 1);
        assert_eq!(report.signatures_needed, Some(2));
        assert_eq!(report.signatures_observed, 2);
        assert!(report.candidates_tested > 1);
    }

    #[test]
    fn campaign_fails_cleanly_when_every_signature_is_beyond_budget() {
        let (key, transcripts) = service(3);
        let hopeless: Vec<usize> = (0..NONCE_BITS - 1).step_by(2).collect();
        let report = run_campaign(&config(), key.public(), |i| {
            Some(observe(&transcripts[i], &hopeless, &[]))
        });
        assert!(report.recovered.is_none());
        assert_eq!(report.signatures_observed, 4, "all max_signatures consumed");
        assert_eq!(report.signatures_needed, None);
    }

    #[test]
    fn alignment_shift_hypothesis_rescues_missed_leading_iterations() {
        let (key, transcripts) = service(4);
        let t = &transcripts[0];
        // Drop the first observation entirely: without the shift-1
        // hypothesis the whole reconstruction would be off by one position.
        let mut obs = observe(t, &[], &[]);
        obs.observed.remove(0);
        let report = run_campaign(&config(), key.public(), |_| Some(obs.clone()));
        let recovered = report.recovered.expect("shift search must rescue the alignment");
        assert_eq!(&recovered.private, key.private());
        assert_eq!(recovered.alignment_shift, 1);
    }

    /// Attempt records: one per attacked signature, summing to the report
    /// totals, with only the breaking signature marked recovered.
    fn assert_attempts_add_up(report: &CampaignReport) {
        assert_eq!(report.attempts.len(), report.signatures_observed);
        let examined: u64 = report.attempts.iter().map(|a| a.candidates_examined).sum();
        let tested: u64 = report.attempts.iter().map(|a| a.candidates_tested).sum();
        assert_eq!(examined, report.candidates_examined);
        assert_eq!(tested, report.candidates_tested);
        let recovered: Vec<bool> = report.attempts.iter().map(|a| a.recovered).collect();
        let mut expected = vec![false; report.attempts.len()];
        if report.recovered.is_some() {
            *expected.last_mut().expect("a recovery attacked a signature") = true;
        }
        assert_eq!(recovered, expected);
    }

    #[test]
    fn attempt_records_match_the_report() {
        let (key, transcripts) = service(2);
        let hopeless: Vec<usize> = (0..NONCE_BITS - 1).step_by(2).collect();
        let report = run_campaign(&config(), key.public(), |i| match i {
            0 => Some(observe(&transcripts[0], &hopeless, &[])),
            1 => Some(observe(&transcripts[1], &[3, 9, 17], &[12])),
            _ => None,
        });
        assert!(report.recovered.is_some());
        assert_attempts_add_up(&report);
        assert_eq!(report.attempts[0].observed_bits, NONCE_BITS - 1 - hopeless.len());
        assert_eq!(report.attempts[1].observed_bits, NONCE_BITS - 1 - 3);
        assert_eq!(report.attempts[1].erasures, 3);

        // A campaign that never breaks marks no record recovered.
        let (key, transcripts) = service(3);
        let report = run_campaign(&config(), key.public(), |i| {
            Some(observe(&transcripts[i], &hopeless, &[]))
        });
        assert!(report.recovered.is_none());
        assert_attempts_add_up(&report);
    }

    #[test]
    fn exhausted_source_ends_the_campaign() {
        let (key, _) = service(5);
        let report = run_campaign(&config(), key.public(), |_| None);
        assert!(report.recovered.is_none());
        assert_eq!(report.signatures_observed, 0);
        assert_eq!(report.candidates_examined, 0);
        assert!(report.attempts.is_empty());
    }
}
