//! Algebraic key recovery: from a verified candidate nonce to the private
//! key, using public information only.
//!
//! ECDSA's signing equation `s = k⁻¹·(z + r·d) mod n` inverts to
//! `d = r⁻¹·(s·k − z) mod n`: a single correct nonce `k` for any one
//! signature yields the long-term private key. Everything needed to *check*
//! a candidate is public — the signature `(r, s)`, the hashed message `z`,
//! the curve, and the victim's public key `Q = d·G`.

use llc_ecdsa_victim::{group_order, Curve, Point, Scalar, Signature, U576};

/// Reconstructs a nonce scalar from its ladder bits: the Montgomery ladder
/// processes the bits *below* the most significant set bit, so the full
/// nonce is an implicit leading 1 followed by `bits` (most significant
/// first).
///
/// Returns `None` when the reconstructed value is not a valid nonce (zero or
/// at least the group order) — such a candidate can simply be discarded.
pub fn nonce_from_ladder_bits(bits: &[bool]) -> Option<Scalar> {
    let len = bits.len();
    if len + 1 > group_order().bit_length() {
        return None;
    }
    let mut limbs = [0u64; 9];
    let mut set = |i: usize| limbs[i / 64] |= 1u64 << (i % 64);
    set(len); // the implicit leading 1
    for (i, &b) in bits.iter().enumerate() {
        if b {
            set(len - 1 - i);
        }
    }
    let value = U576::from_limbs(limbs);
    if value.is_zero() || value.cmp_value(&group_order()) != std::cmp::Ordering::Less {
        return None;
    }
    Some(Scalar::new(value))
}

/// Computes `d = r⁻¹·(s·k − z) mod n` for a candidate nonce `k`.
///
/// This is pure algebra; it does **not** check the candidate. Pair it with
/// [`KeyVerifier::try_nonce`] (or an explicit `d·G = Q` check) before
/// trusting the result.
pub fn recover_private_key(signature: &Signature, hashed_message: &Scalar, k: &Scalar) -> Scalar {
    signature.r.inverse().mul(&signature.s.mul(k).sub(hashed_message))
}

/// Verifies candidate nonces for one signature against public information.
///
/// The expensive step of a candidate check is a scalar multiplication on the
/// curve. The verifier exploits that `r` itself pins the nonce —
/// `r = x(k·G) mod n` — so a candidate is first checked with a ladder over
/// `k` (cheap for scaled-down nonce widths), and only an `r`-match pays the
/// full-width `d·G` comparison against the public key. Both checks use
/// public data exclusively.
#[derive(Debug, Clone)]
pub struct KeyVerifier {
    curve: Curve,
    public: Point,
    signature: Signature,
    hashed_message: Scalar,
    r_inverse: Scalar,
}

impl KeyVerifier {
    /// Builds a verifier for one signature of the victim with public key
    /// `public`.
    ///
    /// # Panics
    ///
    /// Panics when the signature's `r` is zero (no such signature is ever
    /// emitted by a correct signer).
    pub fn new(public: Point, signature: Signature, hashed_message: Scalar) -> Self {
        assert!(!signature.r.is_zero(), "a valid ECDSA signature has r != 0");
        Self {
            curve: Curve::sect571r1(),
            public,
            r_inverse: signature.r.inverse(),
            signature,
            hashed_message,
        }
    }

    /// The signature this verifier checks against.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Tests a candidate nonce: returns the private key `d` when the
    /// candidate is consistent with the signature *and* `d·G` equals the
    /// victim's public key; `None` otherwise.
    pub fn try_nonce(&self, k: &Scalar) -> Option<Scalar> {
        if k.is_zero() {
            return None;
        }
        // Cheap public pre-check: r = x(k·G) mod n. The ladder's cost scales
        // with k's bit length, so wrong candidates for scaled victims are
        // rejected quickly.
        let (point, _) = self.curve.montgomery_ladder(k, &self.curve.generator());
        let x = point.x()?;
        let mut limbs = [0u64; 9];
        limbs.copy_from_slice(x.limbs());
        if Scalar::new(U576::from_limbs(limbs)) != self.signature.r {
            return None;
        }
        // d = r⁻¹·(s·k − z), accepted only if it reproduces the public key.
        let d = self.r_inverse.mul(&self.signature.s.mul(k).sub(&self.hashed_message));
        if d.is_zero() {
            return None;
        }
        let (dg, _) = self.curve.montgomery_ladder(&d, &self.curve.generator());
        (dg == self.public).then_some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_ecdsa_victim::{hash_to_scalar, Ecdsa, KeyPair};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn scaled_signing(seed: u64, nonce_bits: usize) -> (Ecdsa, KeyPair, Scalar, llc_ecdsa_victim::SigningTranscript) {
        let ecdsa = Ecdsa::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let key = KeyPair::from_private(ecdsa.curve(), Scalar::random(&mut rng));
        let z = hash_to_scalar(b"recovery test message");
        let transcript = ecdsa.sign_with_drawn_nonce(&key, &z, || {
            Scalar::random_with_bit_length(&mut rng, nonce_bits)
        });
        (ecdsa, key, z, transcript)
    }

    #[test]
    fn ladder_bits_round_trip_to_the_nonce() {
        let (_, _, _, t) = scaled_signing(1, 48);
        let rebuilt = nonce_from_ladder_bits(&t.ladder_bits).expect("valid nonce");
        assert_eq!(rebuilt, t.nonce);
    }

    #[test]
    fn invalid_reconstructions_are_rejected() {
        // Too wide: 570 ladder bits imply a 571-bit nonce ≥ 2^570 > n.
        assert!(nonce_from_ladder_bits(&vec![true; 570]).is_none());
        // Wide but representable values above n are rejected, below accepted.
        assert!(nonce_from_ladder_bits(&vec![true; 569]).is_none()); // 2^570 - 1 > n
        assert!(nonce_from_ladder_bits(&vec![false; 569]).is_some()); // 2^569 < n
    }

    #[test]
    fn correct_nonce_recovers_the_private_key() {
        let (_, key, z, t) = scaled_signing(2, 40);
        let d = recover_private_key(&t.signature, &z, &t.nonce);
        assert_eq!(&d, key.private());

        let verifier = KeyVerifier::new(*key.public(), t.signature, z);
        let recovered = verifier.try_nonce(&t.nonce).expect("true nonce must verify");
        assert_eq!(&recovered, key.private());
    }

    #[test]
    fn wrong_nonces_never_produce_a_key() {
        let (_, key, z, t) = scaled_signing(3, 40);
        let verifier = KeyVerifier::new(*key.public(), t.signature, z);
        assert!(verifier.try_nonce(&Scalar::zero()).is_none());
        assert!(verifier.try_nonce(&t.nonce.add(&Scalar::one())).is_none());
        assert!(verifier.try_nonce(&Scalar::from_u64(12345)).is_none());
    }

    #[test]
    fn verifier_rejects_nonce_of_a_different_key() {
        let (_, key_a, z, t_a) = scaled_signing(4, 40);
        let (_, _key_b, _, t_b) = scaled_signing(5, 40);
        let verifier = KeyVerifier::new(*key_a.public(), t_a.signature, z);
        assert!(verifier.try_nonce(&t_b.nonce).is_none());
    }
}
