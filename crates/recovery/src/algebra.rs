//! Algebraic key recovery: from a verified candidate nonce to the private
//! key, using public information only.
//!
//! ECDSA's signing equation `s = k⁻¹·(z + r·d) mod n` inverts to
//! `d = r⁻¹·(s·k − z) mod n`: a single correct nonce `k` for any one
//! signature yields the long-term private key. Everything needed to *check*
//! a candidate is public — the signature `(r, s)`, the hashed message `z`,
//! the curve, and the victim's public key `Q = d·G`.

use llc_ecdsa_victim::{
    group_order, Curve, Gf571, LdPoint, Point, Scalar, Signature, FIELD_DEGREE, U576,
};

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
/// The verifier exploits that `r` itself pins the nonce, `r = x(k·G) mod n`:
/// a candidate is first checked against `r`, and only an `r`-match pays
/// `d = r⁻¹(s·k − z)` and the full-width `d·G ≟ Q` ladder. The `r` check
/// needs no ladder and no inversion. The verifier keeps the last candidate
/// `k₀` and `k₀·G` in López–Dahab coordinates (a fresh verifier starts at
/// 0 and infinity), and reaches the next candidate `k` with one mixed
/// addition of `+2^i·G` or `−2^i·G` for each bit `i` in which `k` and `k₀`
/// differ, as `k` has it set or clear; candidates from the cost-ordered
/// search differ in a few bits. Then `x(k·G) mod n = r` exactly when the
/// projective `X` equals `c·Z` for a target `c`: `r`, `r + n`, or `r + 2n`
/// when that is below 2^571. Both checks use public data only.
#[derive(Debug, Clone)]
pub struct KeyVerifier {
    curve: Curve,
    public: Point,
    signature: Signature,
    hashed_message: Scalar,
    r_inverse: Scalar,
    x_targets: Vec<Gf571>,
    /// The last candidate walked to, and that multiple of G.
    last: U576,
    point: LdPoint,
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
            x_targets: x_targets(&signature.r),
            signature,
            hashed_message,
            last: U576::ZERO,
            point: LdPoint::INFINITY,
        }
    }

    /// The signature this verifier checks against.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Tests a candidate nonce: returns the private key `d` when the
    /// candidate is consistent with the signature *and* `d·G` equals the
    /// victim's public key; `None` otherwise.
    pub fn try_nonce(&mut self, k: &Scalar) -> Option<Scalar> {
        if !self.matches_r(k) {
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

    /// Whether `x(k·G) mod n = r`, the public pre-check of [`try_nonce`]
    /// (false for `k = 0`, whose multiple is infinity). Walks the verifier
    /// from its last candidate to `k`. Debug builds check every verdict
    /// against a Montgomery ladder over `k`.
    ///
    /// [`try_nonce`]: KeyVerifier::try_nonce
    pub fn matches_r(&mut self, k: &Scalar) -> bool {
        let table = Curve::generator_doublings();
        for (word, (&to, &from)) in k.value().limbs().iter().zip(self.last.limbs()).enumerate() {
            let mut differ = to ^ from;
            while differ != 0 {
                let bit = differ.trailing_zeros();
                differ &= differ - 1;
                let power = &table[word * 64 + bit as usize];
                let step = if to >> bit & 1 == 1 { *power } else { self.curve.negate(power) };
                self.point = self.curve.add_mixed(&self.point, &step);
            }
        }
        self.last = *k.value();
        let matched = self.x_targets.iter().any(|x| self.point.has_affine_x(x));
        debug_assert_eq!(matched, self.ladder_matches_r(k), "the walk disagrees with the ladder");
        matched
    }

    /// `x(k·G) mod n = r` by a Montgomery ladder over `k` and one inversion.
    fn ladder_matches_r(&self, k: &Scalar) -> bool {
        let (point, _) = self.curve.montgomery_ladder(k, &self.curve.generator());
        point.x().is_some_and(|x| Scalar::new(U576::from_limbs(*x.limbs())) == self.signature.r)
    }
}

/// The field elements whose value as an integer is `r` modulo the group
/// order `n`: `r + j·n` for every `j ≥ 0` that stays below 2^571. That is
/// `r` and `r + n`, which are always below it because `r < n < 2^570`, and
/// `r + 2n` when it is below 2^571 too (only for `r` below about 2^285.7).
fn x_targets(r: &Scalar) -> Vec<Gf571> {
    let n = group_order();
    let mut targets = Vec::new();
    let mut value = *r.value();
    while value.bit_length() <= FIELD_DEGREE {
        targets.push(Gf571::from_limbs(*value.limbs()));
        value = value.add_with_carry(&n).0;
    }
    targets
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

        let mut verifier = KeyVerifier::new(*key.public(), t.signature, z);
        let recovered = verifier.try_nonce(&t.nonce).expect("true nonce must verify");
        assert_eq!(&recovered, key.private());
    }

    #[test]
    fn wrong_nonces_never_produce_a_key() {
        let (_, key, z, t) = scaled_signing(3, 40);
        let mut verifier = KeyVerifier::new(*key.public(), t.signature, z);
        assert!(verifier.try_nonce(&Scalar::zero()).is_none());
        assert!(verifier.try_nonce(&t.nonce.add(&Scalar::one())).is_none());
        assert!(verifier.try_nonce(&Scalar::from_u64(12345)).is_none());
    }

    #[test]
    fn verifier_rejects_nonce_of_a_different_key() {
        let (_, key_a, z, t_a) = scaled_signing(4, 40);
        let (_, _key_b, _, t_b) = scaled_signing(5, 40);
        let mut verifier = KeyVerifier::new(*key_a.public(), t_a.signature, z);
        assert!(verifier.try_nonce(&t_b.nonce).is_none());
    }

    #[test]
    fn x_targets_add_2n_exactly_while_below_2_571() {
        let n = group_order();
        let (two_n, _) = n.add_with_carry(&n);
        let top = U576::from_limbs(std::array::from_fn(|i| match i {
            0..=7 => u64::MAX,
            _ => (1 << (FIELD_DEGREE % 64)) - 1,
        }));
        // The largest r with r + 2n below 2^571.
        let (r_max, _) = top.sub_with_borrow(&two_n);
        let (r_over, _) = r_max.add_with_carry(&U576::ONE);
        let (n_minus_1, _) = n.sub_with_borrow(&U576::ONE);
        for (r, expected) in [(U576::ONE, 3), (r_max, 3), (r_over, 2), (n_minus_1, 2)] {
            let r = Scalar::new(r);
            let targets = x_targets(&r);
            assert_eq!(targets.len(), expected, "r = {}", r.value().to_hex());
            // r, r + n, r + 2n in that order.
            let mut value = *r.value();
            for target in &targets {
                assert_eq!(U576::from_limbs(*target.limbs()), value);
                value = value.add_with_carry(&n).0;
            }
        }
    }
}
