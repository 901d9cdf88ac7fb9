//! Property tests of the correction search against real public-key
//! verification.
//!
//! For random nonces and random error/erasure patterns *within* the search
//! budget, the confidence-ordered search must recover the exact private key;
//! for patterns *beyond* the budget it must fail cleanly. False positives
//! are impossible by construction — every accepted candidate is verified
//! against the victim's public key — and the "beyond budget" property
//! checks exactly that: failure is reported as failure, never as a wrong
//! key.

use llc_ecdsa_victim::{hash_to_scalar, Ecdsa, KeyPair, Scalar, SigningTranscript, U576};
use llc_recovery::{
    attempt_signature, BitEstimate, CampaignConfig, KeyVerifier, ObservedBit, SearchConfig,
    SignatureObservation,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Nonce width of the property victims: small enough that a candidate check
/// stays affordable under the dev profile, where every walk is checked
/// against a ladder over the nonce.
const NONCE_BITS: usize = 24;
const ITER: u64 = 10_000;

/// One long-term victim key, shared across properties (key generation costs
/// a full-width ladder; the properties vary nonces, not keys).
fn victim() -> &'static (Ecdsa, KeyPair, Scalar) {
    static VICTIM: OnceLock<(Ecdsa, KeyPair, Scalar)> = OnceLock::new();
    VICTIM.get_or_init(|| {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(0x5ec_1ab);
        let key = KeyPair::from_private(ecdsa.curve(), Scalar::random(&mut rng));
        let z = hash_to_scalar(b"search property victim");
        (ecdsa, key, z)
    })
}

fn sign_with_nonce_seed(seed: u64) -> SigningTranscript {
    sign_with_nonce_width(seed, NONCE_BITS)
}

fn sign_with_nonce_width(seed: u64, bits: usize) -> SigningTranscript {
    let (ecdsa, key, z) = victim();
    let mut rng = SmallRng::seed_from_u64(seed);
    ecdsa.sign_with_drawn_nonce(key, z, || Scalar::random_with_bit_length(&mut rng, bits))
}

/// The affine x coordinate of `k·G` as an integer below 2^571, by a ladder.
fn ladder_x(k: &Scalar) -> Option<U576> {
    let (ecdsa, _, _) = victim();
    let (point, _) = ecdsa.curve().montgomery_ladder(k, &ecdsa.curve().generator());
    point.x().map(|x| U576::from_limbs(*x.limbs()))
}

/// A verifier walked through a sequence of candidates gives each the verdict
/// of a ladder over the candidate, `x(k·G) mod n = r`, and of a fresh
/// verifier, and accepts exactly the true nonce. The sequences mix 48-bit,
/// 64-bit and full-width scalars below n, repeats, 1, n − 1, the true nonce
/// `k` and `n − k`, whose multiple has the same x, so it matches `r` and
/// fails the `d·G` check. They run for signatures of 48- and 64-bit nonces
/// with `x(k·G) < n`, where `r` is the matching target, and with
/// `x(k·G) ≥ n`, where it is `r + n`; each holds for about half of all
/// signatures. A wrong addition leaves the walk off `k·G` for good, so the
/// true nonce's verdict after it shows the error.
#[test]
fn walked_verifier_gives_the_ladder_verdict_on_every_candidate() {
    let (_, key, z) = victim();
    let n_minus = |k: u64| Scalar::zero().sub(&Scalar::from_u64(k));
    for bits in [48, 64] {
        for x_at_least_n in [false, true] {
            let t = (0..)
                .map(|seed| sign_with_nonce_width(seed, bits))
                .find(|t| (ladder_x(&t.nonce) != Some(*t.signature.r.value())) == x_at_least_n)
                .expect("both kinds of signature are common");
            let r = t.signature.r;
            let mut rng = SmallRng::seed_from_u64(bits as u64 * 2 + x_at_least_n as u64);
            // From n − 15 to 7 the partial sum reaches n − 8 just before the
            // −8·G step (bit 3 of n is clear), so that addition doubles. The
            // true nonce follows.
            let mut candidates = vec![n_minus(15), Scalar::from_u64(7), t.nonce];
            // Then every kind of candidate once, and one more, in random order.
            let mut kinds: Vec<u32> = (0..8).chain([rng.gen_range(0..8)]).collect();
            for i in 0..kinds.len() {
                let j = rng.gen_range(i..kinds.len());
                kinds.swap(i, j);
            }
            for kind in kinds {
                let candidate = match kind {
                    0 => t.nonce,
                    1 => Scalar::zero().sub(&t.nonce),
                    2 => candidates[candidates.len() - 1],
                    3 => Scalar::one(),
                    4 => n_minus(1),
                    5 => Scalar::random(&mut rng),
                    6 => Scalar::random_with_bit_length(&mut rng, 48),
                    _ => Scalar::random_with_bit_length(&mut rng, 64),
                };
                candidates.push(candidate);
            }
            let mut walking = KeyVerifier::new(*key.public(), t.signature, *z);
            for (step, candidate) in candidates.iter().enumerate() {
                let expected_key = (*candidate == t.nonce).then_some(*key.private());
                assert_eq!(walking.try_nonce(candidate), expected_key, "step {step}");
                let verdict = walking.matches_r(candidate);
                let ladder = ladder_x(candidate).is_some_and(|x| Scalar::new(x) == r);
                assert_eq!(verdict, ladder, "step {step}");
                let mut fresh = KeyVerifier::new(*key.public(), t.signature, *z);
                assert_eq!(fresh.matches_r(candidate), verdict, "step {step}");
            }
        }
    }
}

/// Builds per-position estimates from the true ladder bits with `erasures`
/// positions erased and `errors` positions flipped at low confidence, at
/// deterministic pseudo-random positions drawn from `pattern_seed`.
fn corrupt(
    bits: &[bool],
    erasures: usize,
    errors: usize,
    pattern_seed: u64,
) -> Vec<BitEstimate> {
    let mut rng = SmallRng::seed_from_u64(pattern_seed);
    let mut positions: Vec<usize> = (0..bits.len()).collect();
    for i in 0..positions.len() {
        let j = rng.gen_range(i..positions.len());
        positions.swap(i, j);
    }
    let erased = &positions[..erasures];
    let flipped = &positions[erasures..erasures + errors];
    bits.iter()
        .enumerate()
        .map(|(i, &b)| {
            if erased.contains(&i) {
                BitEstimate::Erased
            } else if flipped.contains(&i) {
                BitEstimate::Known { bit: !b, confidence: 0.02 + 0.1 * (i as f64 / 64.0) }
            } else {
                BitEstimate::Known { bit: b, confidence: 0.85 + 0.1 * (i as f64 / 64.0) }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Within budget: any pattern of ≤ 4 erasures and ≤ 2 low-confidence
    /// errors is corrected and yields the exact private key.
    #[test]
    fn recovers_exact_key_within_budget(
        nonce_seed in 0u64..1_000_000,
        pattern_seed in 0u64..1_000_000,
        erasures in 0usize..5,
        errors in 0usize..3,
    ) {
        let (_, key, z) = victim();
        let t = sign_with_nonce_seed(nonce_seed);
        let estimates = corrupt(&t.ladder_bits, erasures, errors, pattern_seed);
        let mut verifier = KeyVerifier::new(*key.public(), t.signature, *z);
        let config = SearchConfig { max_candidates: 400, max_flips: 2 };
        let out = llc_recovery::correct_and_recover(&estimates, &config, |k| verifier.try_nonce(k));
        prop_assert_eq!(out.nonce.as_ref(), Some(&t.nonce));
        prop_assert_eq!(out.key.as_ref(), Some(key.private()));
        prop_assert!(out.candidates_tested <= 400);
    }

    /// Beyond budget: with more low-confidence errors than `max_flips` can
    /// cover, the search reports failure — never a wrong key.
    #[test]
    fn fails_cleanly_beyond_flip_budget(
        nonce_seed in 0u64..1_000_000,
        pattern_seed in 0u64..1_000_000,
    ) {
        let (_, key, z) = victim();
        let t = sign_with_nonce_seed(nonce_seed);
        // 4 errors, budget of 1 flip: unrecoverable by construction.
        let estimates = corrupt(&t.ladder_bits, 0, 4, pattern_seed);
        let mut verifier = KeyVerifier::new(*key.public(), t.signature, *z);
        let config = SearchConfig { max_candidates: 120, max_flips: 1 };
        let out = llc_recovery::correct_and_recover(&estimates, &config, |k| verifier.try_nonce(k));
        prop_assert_eq!(out.key, None);
        prop_assert_eq!(out.nonce, None);
        prop_assert_eq!(out.flips_of_solution, None);
    }

    /// Beyond breadth: a reconstruction that is mostly erasures exhausts the
    /// candidate bound without inventing a key.
    #[test]
    fn fails_cleanly_beyond_breadth(
        nonce_seed in 0u64..1_000_000,
        pattern_seed in 0u64..1_000_000,
    ) {
        let (_, key, z) = victim();
        let t = sign_with_nonce_seed(nonce_seed);
        let erasures = t.ladder_bits.len(); // everything erased: 2^23 fills
        let estimates = corrupt(&t.ladder_bits, erasures, 0, pattern_seed);
        let mut verifier = KeyVerifier::new(*key.public(), t.signature, *z);
        let config = SearchConfig { max_candidates: 64, max_flips: 0 };
        let out = llc_recovery::correct_and_recover(&estimates, &config, |k| verifier.try_nonce(k));
        prop_assert!(out.candidates_examined <= 64);
        // 64 of 2^23 candidates: the pattern-seeded truth is found only if it
        // happens to be all-leading-zeros-like; treat a hit as suspicious.
        if let Some(found) = out.key {
            prop_assert_eq!(&found, key.private(), "an accepted key is never wrong");
            prop_assert_eq!(out.nonce.as_ref(), Some(&t.nonce));
        }
    }

    /// The full attempt pipeline (time-stamped observations → alignment →
    /// search) recovers through the campaign-facing API as well.
    #[test]
    fn attempt_signature_recovers_from_observations(
        nonce_seed in 0u64..1_000_000,
        dropped in 0usize..3,
    ) {
        let (_, key, z) = victim();
        let t = sign_with_nonce_seed(nonce_seed);
        // Timestamped observations with `dropped` leading bits missing (the
        // alignment-shift hypothesis must absorb them).
        let observed: Vec<ObservedBit> = t
            .ladder_bits
            .iter()
            .enumerate()
            .skip(dropped)
            .map(|(i, &b)| ObservedBit { at: 500 + i as u64 * ITER, bit: b, confidence: 0.9 })
            .collect();
        let observation = SignatureObservation {
            signature: t.signature,
            hashed_message: *z,
            observed,
            sim_cycles: 1,
        };
        let config = CampaignConfig {
            ladder_bits: NONCE_BITS - 1,
            iteration_cycles: ITER,
            max_signatures: 1,
            max_alignment_shift: 2,
            search: SearchConfig { max_candidates: 64, max_flips: 1 },
        };
        let (recovered, _) = attempt_signature(&config, key.public(), &observation);
        let recovered = recovered.expect("clean observation within shift budget must break");
        prop_assert_eq!(&recovered.private, key.private());
        prop_assert_eq!(recovered.alignment_shift, dropped);
    }
}
