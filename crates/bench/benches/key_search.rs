//! Criterion bench of Step 4's confidence-ordered correction search.
//!
//! Two costs matter: the enumeration machinery itself (flip-set frontier,
//! candidate assembly — measured with a no-op verifier) and the end-to-end
//! search against real public-key verification, whose per-candidate cost is
//! one curve ladder over the candidate nonce. The planted patterns pin the
//! solution at a known search depth so the numbers are comparable across
//! runs. `ladder_64` times that per-candidate ladder alone, and `field_mul`
//! the GF(2^571) multiplication it is built from.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use llc_ecdsa_victim::{hash_to_scalar, Ecdsa, KeyPair, Scalar};
use llc_recovery::{correct_and_recover, BitEstimate, KeyVerifier, SearchConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const NONCE_BITS: usize = 48;

fn planted_estimates(
    bits: &[bool],
    erasures: usize,
    errors: usize,
) -> Vec<BitEstimate> {
    bits.iter()
        .enumerate()
        .map(|(i, &b)| {
            if i % 7 == 3 && i / 7 < erasures {
                BitEstimate::Erased
            } else if i % 11 == 5 && i / 11 < errors {
                BitEstimate::Known { bit: !b, confidence: 0.05 }
            } else {
                BitEstimate::Known { bit: b, confidence: 0.9 }
            }
        })
        .collect()
}

fn bench_key_search(c: &mut Criterion) {
    let ecdsa = Ecdsa::new();
    let mut rng = SmallRng::seed_from_u64(0xbe_c4);
    let key = KeyPair::from_private(ecdsa.curve(), Scalar::random(&mut rng));
    let z = hash_to_scalar(b"key_search bench");
    let transcript = ecdsa
        .sign_with_drawn_nonce(&key, &z, || Scalar::random_with_bit_length(&mut rng, NONCE_BITS));

    let mut group = c.benchmark_group("key_search");
    group.sample_size(10);

    // Enumeration-only: a verifier that always rejects, fixed breadth. This
    // is the frontier/candidate-assembly overhead per examined candidate.
    let estimates = planted_estimates(&transcript.ladder_bits, 4, 2);
    group.bench_function("enumerate_4096_candidates", |b| {
        let config = SearchConfig { max_candidates: 4096, max_flips: 3 };
        b.iter(|| {
            let out = correct_and_recover(&estimates, &config, |_| None);
            assert_eq!(out.candidates_examined, 4096);
            out.candidates_examined
        });
    });

    // Full recovery with public-key verification at increasing damage.
    for (erasures, errors) in [(2usize, 0usize), (4, 1), (6, 2)] {
        let estimates = planted_estimates(&transcript.ladder_bits, erasures, errors);
        let label = format!("e{erasures}_f{errors}");
        group.bench_with_input(
            BenchmarkId::new("recover", label),
            &estimates,
            |b, estimates| {
                let verifier = KeyVerifier::new(*key.public(), transcript.signature, z);
                let config = SearchConfig { max_candidates: 1 << 14, max_flips: 3 };
                b.iter(|| {
                    let out =
                        correct_and_recover(estimates, &config, |k| verifier.try_nonce(k));
                    assert_eq!(out.key.as_ref(), Some(key.private()));
                    out.candidates_tested
                });
            },
        );
    }

    // What `KeyVerifier::try_nonce` pays per candidate: one ladder over a
    // 64-bit scalar, and the field multiplication that dominates it. One
    // `mul` is ~0.1-1 µs, so it takes many samples; each includes a pair of
    // `Instant` reads.
    let generator = ecdsa.curve().generator();
    let k64 = Scalar::random_with_bit_length(&mut rng, 64);
    group.bench_function("ladder_64", |b| {
        b.iter(|| ecdsa.curve().montgomery_ladder(black_box(&k64), &generator).0);
    });
    let (gx, gy) = (generator.x().expect("affine"), generator.y().expect("affine"));
    group.sample_size(10_000);
    group.bench_function("field_mul", |b| b.iter(|| black_box(&gx).mul(black_box(&gy))));
    group.finish();
}

criterion_group!(benches, bench_key_search);
criterion_main!(benches);
