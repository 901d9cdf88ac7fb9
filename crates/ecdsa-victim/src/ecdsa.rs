//! ECDSA over sect571r1, structured like the vulnerable OpenSSL 1.0.1e code
//! path: the per-signature nonce `k` is consumed by the Montgomery ladder of
//! [`crate::curve::Curve::montgomery_ladder`], whose secret-dependent control
//! flow is what the cache attack observes.

use crate::curve::{Curve, Point};
use crate::scalar::{Scalar, U576};
use crate::sha256::sha256;
use rand::Rng;

/// An ECDSA key pair on sect571r1.
#[derive(Debug, Clone)]
pub struct KeyPair {
    private: Scalar,
    public: Point,
}

impl KeyPair {
    /// Generates a fresh key pair.
    pub fn generate(curve: &Curve, rng: &mut impl Rng) -> Self {
        let private = Scalar::random(rng);
        let (public, _) = curve.montgomery_ladder(&private, &curve.generator());
        Self { private, public }
    }

    /// Builds a key pair from an existing private scalar.
    pub fn from_private(curve: &Curve, private: Scalar) -> Self {
        let (public, _) = curve.montgomery_ladder(&private, &curve.generator());
        Self { private, public }
    }

    /// The private scalar d.
    pub fn private(&self) -> &Scalar {
        &self.private
    }

    /// The public point Q = d·G.
    pub fn public(&self) -> &Point {
        &self.public
    }
}

/// An ECDSA signature (r, s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The r component.
    pub r: Scalar,
    /// The s component.
    pub s: Scalar,
}

/// Everything produced by one signing operation, including the side-channel
/// ground truth the experiments validate against.
#[derive(Debug, Clone)]
pub struct SigningTranscript {
    /// The signature itself.
    pub signature: Signature,
    /// The hashed message z (public: the signer's client knows what it
    /// submitted; Step 4's algebraic recovery needs it alongside r and s).
    pub hashed_message: Scalar,
    /// The ephemeral nonce k (the attack's target secret).
    pub nonce: Scalar,
    /// The nonce bits processed by the ladder, most significant first,
    /// *excluding* the implicit leading 1 (one entry per ladder iteration).
    pub ladder_bits: Vec<bool>,
}

/// Converts a SHA-256 digest into a scalar (leftmost bits, reduced mod n).
pub fn hash_to_scalar(message: &[u8]) -> Scalar {
    let digest = sha256(message);
    let mut limbs = [0u64; crate::scalar::LIMBS];
    // Interpret the 32-byte digest as a big-endian integer (fits easily).
    for (i, chunk) in digest.chunks_exact(8).enumerate() {
        let mut b = [0u8; 8];
        b.copy_from_slice(chunk);
        limbs[3 - i] = u64::from_be_bytes(b);
    }
    Scalar::new(U576::from_limbs(limbs))
}

/// Converts the affine x coordinate of a curve point into a scalar mod n.
fn field_element_to_scalar(x: &crate::gf2m::Gf571) -> Scalar {
    let mut limbs = [0u64; crate::scalar::LIMBS];
    limbs.copy_from_slice(x.limbs());
    Scalar::new(U576::from_limbs(limbs))
}

/// How many nonces [`Ecdsa::sign_with_drawn_nonce`] draws before it gives
/// up. A drawn nonce gives a degenerate signature (r = 0 or s = 0) with
/// negligible probability, so with working arithmetic a second draw is
/// already rare; running out means the field or curve arithmetic is broken.
const MAX_NONCE_DRAWS: usize = 8;

/// The ECDSA signer/verifier.
#[derive(Debug, Clone, Default)]
pub struct Ecdsa {
    curve: Curve,
}

impl Ecdsa {
    /// Creates an ECDSA instance over sect571r1.
    pub fn new() -> Self {
        Self { curve: Curve::sect571r1() }
    }

    /// The underlying curve.
    pub fn curve(&self) -> &Curve {
        &self.curve
    }

    /// Signs `message` with `key`, drawing the nonce from `rng`.
    ///
    /// Returns the full transcript, including the nonce and the ladder's
    /// secret-dependent branch trace (the ground truth used by the attack
    /// evaluation).
    ///
    /// # Panics
    ///
    /// Panics as [`Ecdsa::sign_with_drawn_nonce`] does.
    pub fn sign(&self, key: &KeyPair, message: &[u8], rng: &mut impl Rng) -> SigningTranscript {
        self.sign_with_drawn_nonce(key, &hash_to_scalar(message), || Scalar::random(rng))
    }

    /// Signs a pre-hashed message with the first nonce from `draw_nonce`
    /// that gives a non-degenerate signature (see [`Ecdsa::sign_with_nonce`]).
    ///
    /// # Panics
    ///
    /// Panics, saying the signature was degenerate, if a small fixed number
    /// of draws in a row all give degenerate signatures: with working
    /// arithmetic that does not happen, so broken arithmetic fails here
    /// instead of looping forever.
    pub fn sign_with_drawn_nonce(
        &self,
        key: &KeyPair,
        z: &Scalar,
        mut draw_nonce: impl FnMut() -> Scalar,
    ) -> SigningTranscript {
        (0..MAX_NONCE_DRAWS)
            .find_map(|_| self.sign_with_nonce(key, z, draw_nonce()))
            .unwrap_or_else(|| {
                panic!("degenerate signature (r = 0 or s = 0) for {MAX_NONCE_DRAWS} nonce draws")
            })
    }

    /// Signs a pre-hashed message with an explicit nonce; returns `None` if
    /// the nonce leads to a degenerate signature (r = 0 or s = 0).
    pub fn sign_with_nonce(&self, key: &KeyPair, z: &Scalar, nonce: Scalar) -> Option<SigningTranscript> {
        if nonce.is_zero() {
            return None;
        }
        let (point, steps) = self.curve.montgomery_ladder(&nonce, &self.curve.generator());
        let x = point.x()?;
        let r = field_element_to_scalar(&x);
        if r.is_zero() {
            return None;
        }
        let s = nonce.inverse().mul(&z.add(&r.mul(key.private())));
        if s.is_zero() {
            return None;
        }
        Some(SigningTranscript {
            signature: Signature { r, s },
            hashed_message: *z,
            nonce,
            ladder_bits: steps.iter().map(|st| st.bit).collect(),
        })
    }

    /// Verifies `signature` over `message` with public key `public`.
    pub fn verify(&self, public: &Point, message: &[u8], signature: &Signature) -> bool {
        if signature.r.is_zero() || signature.s.is_zero() {
            return false;
        }
        let z = hash_to_scalar(message);
        let w = signature.s.inverse();
        let u1 = z.mul(&w);
        let u2 = signature.r.mul(&w);
        let (p1, _) = self.curve.montgomery_ladder(&u1, &self.curve.generator());
        let (p2, _) = self.curve.montgomery_ladder(&u2, public);
        let sum = self.curve.add(&p1, &p2);
        match sum.x() {
            None => false,
            Some(x) => field_element_to_scalar(&x) == signature.r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sign_verify_round_trip() {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let key = KeyPair::generate(ecdsa.curve(), &mut rng);
        let transcript = ecdsa.sign(&key, b"cloud run attack demo", &mut rng);
        assert!(ecdsa.verify(key.public(), b"cloud run attack demo", &transcript.signature));
        assert!(!ecdsa.verify(key.public(), b"a different message", &transcript.signature));
    }

    #[test]
    fn signatures_use_fresh_nonces() {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let key = KeyPair::generate(ecdsa.curve(), &mut rng);
        let t1 = ecdsa.sign(&key, b"message", &mut rng);
        let t2 = ecdsa.sign(&key, b"message", &mut rng);
        assert_ne!(t1.nonce, t2.nonce, "nonce must change per signature");
        assert_ne!(t1.signature, t2.signature);
    }

    #[test]
    fn ladder_bits_match_nonce() {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let key = KeyPair::generate(ecdsa.curve(), &mut rng);
        let t = ecdsa.sign(&key, b"nonce bit check", &mut rng);
        let expected: Vec<bool> = t.nonce.bits_msb_first()[1..].to_vec();
        assert_eq!(t.ladder_bits, expected);
        // A 571-bit order gives ~569-570 ladder iterations for a random nonce.
        assert!(t.ladder_bits.len() >= 560);
    }

    #[test]
    fn tampered_signature_fails() {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(4);
        let key = KeyPair::generate(ecdsa.curve(), &mut rng);
        let t = ecdsa.sign(&key, b"tamper test", &mut rng);
        let bad = Signature { r: t.signature.r, s: t.signature.s.add(&Scalar::one()) };
        assert!(!ecdsa.verify(key.public(), b"tamper test", &bad));
    }

    #[test]
    fn wrong_key_fails() {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let key = KeyPair::generate(ecdsa.curve(), &mut rng);
        let other = KeyPair::generate(ecdsa.curve(), &mut rng);
        let t = ecdsa.sign(&key, b"key confusion", &mut rng);
        assert!(!ecdsa.verify(other.public(), b"key confusion", &t.signature));
    }

    #[test]
    fn hash_to_scalar_is_deterministic_and_message_dependent() {
        assert_eq!(hash_to_scalar(b"x"), hash_to_scalar(b"x"));
        assert_ne!(hash_to_scalar(b"x"), hash_to_scalar(b"y"));
    }

    #[test]
    fn degenerate_nonce_rejected() {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(6);
        let key = KeyPair::generate(ecdsa.curve(), &mut rng);
        let z = hash_to_scalar(b"m");
        assert!(ecdsa.sign_with_nonce(&key, &z, Scalar::zero()).is_none());
    }

    #[test]
    #[should_panic(expected = "degenerate signature")]
    fn degenerate_draws_panic_instead_of_looping() {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let key = KeyPair::generate(ecdsa.curve(), &mut rng);
        let z = hash_to_scalar(b"always zero");
        ecdsa.sign_with_drawn_nonce(&key, &z, Scalar::zero);
    }
}
