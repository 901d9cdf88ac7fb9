//! Big-integer arithmetic modulo the sect571r1 group order `n`.
//!
//! ECDSA needs ordinary (integer, not polynomial) arithmetic modulo the
//! 570-bit prime order of the base point: modular addition, multiplication,
//! inversion and random scalar generation. Values are 9 little-endian 64-bit
//! limbs, always kept reduced below the modulus.

use rand::Rng;

/// Number of 64-bit limbs of a scalar.
pub const LIMBS: usize = 9;

/// Raw little-endian multi-precision integer helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct U576 {
    limbs: [u64; LIMBS],
}

impl U576 {
    /// Zero.
    pub const ZERO: U576 = U576 { limbs: [0; LIMBS] };
    /// One.
    pub const ONE: U576 = {
        let mut l = [0u64; LIMBS];
        l[0] = 1;
        U576 { limbs: l }
    };

    /// Creates a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; LIMBS]) -> Self {
        Self { limbs }
    }

    /// Creates a value from a small integer.
    pub const fn from_u64(v: u64) -> Self {
        let mut l = [0u64; LIMBS];
        l[0] = v;
        Self { limbs: l }
    }

    /// Little-endian limbs.
    pub const fn limbs(&self) -> &[u64; LIMBS] {
        &self.limbs
    }

    /// Parses a big-endian hexadecimal string.
    ///
    /// # Panics
    ///
    /// Panics on invalid characters or values wider than 576 bits.
    pub fn from_hex(hex: &str) -> Self {
        let clean: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
        let clean = clean.trim_start_matches("0x");
        let mut limbs = [0u64; LIMBS];
        for (i, c) in clean.chars().rev().enumerate() {
            let v = c.to_digit(16).expect("invalid hex digit") as u64;
            let bit = i * 4;
            assert!(bit / 64 < LIMBS, "value too wide for U576");
            limbs[bit / 64] |= v << (bit % 64);
        }
        Self { limbs }
    }

    /// Formats as big-endian hex (no leading zeros).
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        for limb in self.limbs.iter().rev() {
            s.push_str(&format!("{limb:016x}"));
        }
        let t = s.trim_start_matches('0');
        if t.is_empty() {
            "0".into()
        } else {
            t.into()
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Bit `i` of the value.
    pub fn bit(&self, i: usize) -> bool {
        if i >= LIMBS * 64 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            if l != 0 {
                return Some(i * 64 + 63 - l.leading_zeros() as usize);
            }
        }
        None
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_length(&self) -> usize {
        self.highest_bit().map(|b| b + 1).unwrap_or(0)
    }

    /// Compares two values.
    pub fn cmp_value(&self, other: &U576) -> std::cmp::Ordering {
        for i in (0..LIMBS).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Wrapping addition; returns (sum, carry).
    pub fn add_with_carry(&self, other: &U576) -> (U576, bool) {
        let mut out = [0u64; LIMBS];
        let mut carry = 0u64;
        for (o, (&a, &b)) in out.iter_mut().zip(self.limbs.iter().zip(&other.limbs)) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *o = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U576 { limbs: out }, carry != 0)
    }

    /// Wrapping subtraction; returns (difference, borrow).
    pub fn sub_with_borrow(&self, other: &U576) -> (U576, bool) {
        let mut out = [0u64; LIMBS];
        let mut borrow = 0u64;
        for (o, (&a, &b)) in out.iter_mut().zip(self.limbs.iter().zip(&other.limbs)) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U576 { limbs: out }, borrow != 0)
    }

    /// Logical right shift by one bit.
    pub fn shr1(&self) -> U576 {
        let mut out = [0u64; LIMBS];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.limbs[i] >> 1;
            if i + 1 < LIMBS {
                *o |= self.limbs[i + 1] << 63;
            }
        }
        U576 { limbs: out }
    }

    /// True if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs[0] & 1 == 0
    }
}

/// The sect571r1 group order
/// `n = 0x03FFFFFF...FFFE661CE18FF55987308059B186823851EC7DD9CA1161DE93D5174D66E8382E9BB2FE84E47`,
/// as little-endian limbs (`order_constant_matches_sec2_hex` checks them
/// against the SEC 2 string).
pub const fn group_order() -> U576 {
    U576::from_limbs([
        0x8382_E9BB_2FE8_4E47,
        0x161D_E93D_5174_D66E,
        0x6823_851E_C7DD_9CA1,
        0xFF55_9873_0805_9B18,
        0xFFFF_FFFF_E661_CE18,
        0xFFFF_FFFF_FFFF_FFFF,
        0xFFFF_FFFF_FFFF_FFFF,
        0xFFFF_FFFF_FFFF_FFFF,
        0x03FF_FFFF_FFFF_FFFF,
    ])
}

/// A scalar modulo the sect571r1 group order, always kept reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar {
    value: U576,
}

impl Scalar {
    /// The zero scalar.
    pub fn zero() -> Self {
        Self { value: U576::ZERO }
    }

    /// The one scalar.
    pub fn one() -> Self {
        Self { value: U576::ONE }
    }

    /// Creates a scalar, reducing `value` modulo `n` if needed.
    pub fn new(value: U576) -> Self {
        let n = group_order();
        let mut v = value;
        while v.cmp_value(&n) != std::cmp::Ordering::Less {
            v = v.sub_with_borrow(&n).0;
        }
        Self { value: v }
    }

    /// Creates a scalar from a big-endian hex string.
    pub fn from_hex(hex: &str) -> Self {
        Self::new(U576::from_hex(hex))
    }

    /// Creates a scalar from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Self::new(U576::from_u64(v))
    }

    /// The underlying reduced integer.
    pub fn value(&self) -> &U576 {
        &self.value
    }

    /// True if the scalar is zero.
    pub fn is_zero(&self) -> bool {
        self.value.is_zero()
    }

    /// Bit `i` of the scalar.
    pub fn bit(&self, i: usize) -> bool {
        self.value.bit(i)
    }

    /// Number of significant bits.
    pub fn bit_length(&self) -> usize {
        self.value.bit_length()
    }

    /// The scalar's bits from the most significant set bit down to bit 0.
    pub fn bits_msb_first(&self) -> Vec<bool> {
        match self.value.highest_bit() {
            None => Vec::new(),
            Some(top) => (0..=top).rev().map(|i| self.value.bit(i)).collect(),
        }
    }

    /// Modular addition.
    pub fn add(&self, other: &Scalar) -> Scalar {
        let n = group_order();
        let (sum, carry) = self.value.add_with_carry(&other.value);
        let mut v = sum;
        if carry || v.cmp_value(&n) != std::cmp::Ordering::Less {
            v = v.sub_with_borrow(&n).0;
        }
        Scalar { value: v }
    }

    /// Modular subtraction.
    pub fn sub(&self, other: &Scalar) -> Scalar {
        let n = group_order();
        let (diff, borrow) = self.value.sub_with_borrow(&other.value);
        let v = if borrow { diff.add_with_carry(&n).0 } else { diff };
        Scalar { value: v }
    }

    /// Modular multiplication (binary double-and-add; constant code path, not
    /// constant time — this models a *vulnerable* implementation on purpose).
    pub fn mul(&self, other: &Scalar) -> Scalar {
        let mut acc = Scalar::zero();
        let bits = self.value.bit_length();
        for i in (0..bits).rev() {
            acc = acc.add(&acc);
            if self.value.bit(i) {
                acc = acc.add(other);
            }
        }
        acc
    }

    /// Modular inverse via the binary extended Euclidean algorithm.
    ///
    /// # Panics
    ///
    /// Panics when inverting zero.
    pub fn inverse(&self) -> Scalar {
        assert!(!self.is_zero(), "zero has no inverse");
        let n = group_order();
        let mut u = self.value;
        let mut v = n;
        let mut x1 = Scalar::one();
        let mut x2 = Scalar::zero();
        while !u.is_zero() && u != U576::ONE && v != U576::ONE {
            while u.is_even() {
                u = u.shr1();
                x1 = x1.half();
            }
            while v.is_even() {
                v = v.shr1();
                x2 = x2.half();
            }
            if u.cmp_value(&v) != std::cmp::Ordering::Less {
                u = u.sub_with_borrow(&v).0;
                x1 = x1.sub(&x2);
            } else {
                v = v.sub_with_borrow(&u).0;
                x2 = x2.sub(&x1);
            }
        }
        if u == U576::ONE {
            x1
        } else {
            x2
        }
    }

    /// Halves the scalar modulo `n` (divides by two).
    fn half(&self) -> Scalar {
        let n = group_order();
        if self.value.is_even() {
            Scalar { value: self.value.shr1() }
        } else {
            let (sum, carry) = self.value.add_with_carry(&n);
            let mut v = sum.shr1();
            if carry {
                // Restore the bit lost to the carry-out.
                v.limbs[LIMBS - 1] |= 1 << 63;
            }
            Scalar { value: v }
        }
    }

    /// Samples a uniformly random scalar with *exactly* `bits` significant
    /// bits (the top bit is forced to 1), clamped to the group order's bit
    /// length. The scaled-down victims use this to draw short nonces whose
    /// Montgomery ladder still performs `bits − 1` genuine iterations —
    /// ECDSA stays verifiable, only cryptographically weakened on purpose.
    ///
    /// # Panics
    ///
    /// Panics when `bits` is zero.
    pub fn random_with_bit_length(rng: &mut impl Rng, bits: usize) -> Scalar {
        assert!(bits > 0, "a nonce needs at least one bit");
        let n = group_order();
        let bits = bits.min(n.bit_length());
        loop {
            let mut limbs = [0u64; LIMBS];
            for l in limbs.iter_mut().take(bits.div_ceil(64)) {
                *l = rng.gen();
            }
            // Mask to `bits` bits and force the top bit.
            let top = bits - 1;
            if bits % 64 > 0 {
                limbs[top / 64] &= (1u64 << (bits % 64)) - 1;
            }
            limbs[top / 64] |= 1u64 << (top % 64);
            for l in limbs.iter_mut().skip(bits.div_ceil(64)) {
                *l = 0;
            }
            let v = U576::from_limbs(limbs);
            if v.cmp_value(&n) == std::cmp::Ordering::Less {
                return Scalar { value: v };
            }
        }
    }

    /// Samples a uniformly random non-zero scalar.
    pub fn random(rng: &mut impl Rng) -> Scalar {
        let n = group_order();
        loop {
            let mut limbs = [0u64; LIMBS];
            for l in limbs.iter_mut() {
                *l = rng.gen();
            }
            // Mask to the order's bit length to make rejection sampling fast.
            let top_bits = n.bit_length() % 64;
            if top_bits > 0 {
                limbs[LIMBS - 1] &= (1u64 << top_bits) - 1;
            }
            let v = U576::from_limbs(limbs);
            if !v.is_zero() && v.cmp_value(&n) == std::cmp::Ordering::Less {
                return Scalar { value: v };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn order_constant_matches_sec2_hex() {
        let sec2 = U576::from_hex(
            "03FFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF \
             E661CE18 FF559873 08059B18 6823851E C7DD9CA1 161DE93D 5174D66E 8382E9BB 2FE84E47",
        );
        assert_eq!(group_order(), sec2);
    }

    #[test]
    fn order_has_expected_shape() {
        let n = group_order();
        assert_eq!(n.bit_length(), 570);
        assert!(!n.is_even(), "the group order is an odd prime");
    }

    #[test]
    fn add_sub_round_trip() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            assert_eq!(a.add(&b).sub(&b), a);
            assert_eq!(a.sub(&a), Scalar::zero());
        }
    }

    #[test]
    fn mul_identity_and_zero() {
        let mut rng = SmallRng::seed_from_u64(2);
        let a = Scalar::random(&mut rng);
        assert_eq!(a.mul(&Scalar::one()), a);
        assert_eq!(Scalar::one().mul(&a), a);
        assert_eq!(a.mul(&Scalar::zero()), Scalar::zero());
    }

    #[test]
    fn mul_small_numbers() {
        let a = Scalar::from_u64(1234567);
        let b = Scalar::from_u64(89);
        assert_eq!(a.mul(&b), Scalar::from_u64(1234567 * 89));
    }

    #[test]
    fn mul_is_commutative_and_distributive() {
        let mut rng = SmallRng::seed_from_u64(3);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        let c = Scalar::random(&mut rng);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn inverse_round_trips() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10 {
            let a = Scalar::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.inverse()), Scalar::one());
        }
    }

    #[test]
    fn inverse_of_small_values() {
        for v in [1u64, 2, 3, 65_537] {
            let a = Scalar::from_u64(v);
            assert_eq!(a.mul(&a.inverse()), Scalar::one());
        }
    }

    #[test]
    fn reduction_on_construction() {
        let n = group_order();
        let (n_plus_5, _) = n.add_with_carry(&U576::from_u64(5));
        assert_eq!(Scalar::new(n_plus_5), Scalar::from_u64(5));
        assert_eq!(Scalar::new(n), Scalar::zero());
    }

    #[test]
    fn hex_round_trip() {
        let mut rng = SmallRng::seed_from_u64(5);
        let a = Scalar::random(&mut rng);
        assert_eq!(Scalar::from_hex(&a.value().to_hex()), a);
    }

    #[test]
    fn bits_msb_first_reconstructs_value() {
        let a = Scalar::from_u64(0b1011_0110);
        let bits = a.bits_msb_first();
        assert_eq!(bits.len(), 8);
        let mut v = 0u64;
        for b in bits {
            v = (v << 1) | b as u64;
        }
        assert_eq!(v, 0b1011_0110);
    }

    #[test]
    fn random_with_bit_length_forces_exact_width() {
        let mut rng = SmallRng::seed_from_u64(7);
        for bits in [1usize, 2, 17, 48, 63, 64, 65, 128, 570, 600] {
            let s = Scalar::random_with_bit_length(&mut rng, bits);
            assert_eq!(s.bit_length(), bits.min(group_order().bit_length()), "bits = {bits}");
            assert_eq!(s.value().cmp_value(&group_order()), std::cmp::Ordering::Less);
        }
        // Distinct draws at the same width.
        let a = Scalar::random_with_bit_length(&mut rng, 64);
        let b = Scalar::random_with_bit_length(&mut rng, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn random_scalars_are_distinct_and_reduced() {
        let mut rng = SmallRng::seed_from_u64(6);
        let n = group_order();
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        assert_ne!(a, b);
        assert_eq!(a.value().cmp_value(&n), std::cmp::Ordering::Less);
    }
}
