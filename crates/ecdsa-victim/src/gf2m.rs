//! Arithmetic in the binary field GF(2^571) with the sect571r1 reduction
//! polynomial `f(x) = x^571 + x^10 + x^5 + x^2 + 1`.
//!
//! Elements are polynomials over GF(2) of degree < 571, stored as 9 little-
//! endian 64-bit limbs. Addition is XOR. Multiplication forms the 18-limb
//! carry-less product and folds it modulo f with word-level reduction. On
//! x86-64 CPUs that have PCLMULQDQ (checked at run time) the product is 81
//! 64×64-bit carry-less multiplies; elsewhere it is a 4-bit windowed comb.
//! Both give the same bits. Inversion uses the binary extended Euclidean
//! algorithm for polynomials.

/// Number of 64-bit limbs in a field element (ceil(571 / 64) = 9).
pub const LIMBS: usize = 9;
/// Field degree m = 571.
pub const DEGREE: usize = 571;

/// An element of GF(2^571).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gf571 {
    limbs: [u64; LIMBS],
}

impl Default for Gf571 {
    fn default() -> Self {
        Self::ZERO
    }
}

impl Gf571 {
    /// The additive identity.
    pub const ZERO: Gf571 = Gf571 { limbs: [0; LIMBS] };
    /// The multiplicative identity.
    pub const ONE: Gf571 = {
        let mut l = [0u64; LIMBS];
        l[0] = 1;
        Gf571 { limbs: l }
    };

    /// Creates an element from little-endian limbs.
    ///
    /// # Panics
    ///
    /// Panics if the value has degree >= 571 (bits above position 570 set).
    pub fn from_limbs(limbs: [u64; LIMBS]) -> Self {
        let e = Self { limbs };
        assert!(e.degree() < DEGREE as i32 || e == Self::ZERO, "element exceeds field degree");
        e
    }

    /// The little-endian limbs of this element.
    pub fn limbs(&self) -> &[u64; LIMBS] {
        &self.limbs
    }

    /// Parses a big-endian hexadecimal string (as printed in SEC 2).
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters or values of degree >= 571.
    pub fn from_hex(hex: &str) -> Self {
        let clean: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
        let clean = clean.trim_start_matches("0x");
        let mut limbs = [0u64; LIMBS];
        for (nibble_idx, c) in clean.chars().rev().enumerate() {
            let v = c.to_digit(16).expect("invalid hex digit") as u64;
            let bit = nibble_idx * 4;
            let limb = bit / 64;
            let shift = bit % 64;
            assert!(limb < LIMBS, "hex value too large for GF(2^571)");
            limbs[limb] |= v << shift;
        }
        Self::from_limbs(limbs)
    }

    /// Formats the element as a big-endian hexadecimal string.
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        for limb in self.limbs.iter().rev() {
            s.push_str(&format!("{limb:016x}"));
        }
        let trimmed = s.trim_start_matches('0');
        if trimmed.is_empty() {
            "0".to_string()
        } else {
            trimmed.to_string()
        }
    }

    /// True if this is the zero element.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Degree of the polynomial (-1 for zero).
    pub fn degree(&self) -> i32 {
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            if l != 0 {
                return (i * 64 + 63 - l.leading_zeros() as usize) as i32;
            }
        }
        -1
    }

    /// Returns bit `i` of the element.
    pub fn bit(&self, i: usize) -> bool {
        if i >= LIMBS * 64 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Field addition (XOR).
    pub fn add(&self, other: &Gf571) -> Gf571 {
        let mut limbs = [0u64; LIMBS];
        for (l, (&a, &b)) in limbs.iter_mut().zip(self.limbs.iter().zip(&other.limbs)) {
            *l = a ^ b;
        }
        Gf571 { limbs }
    }

    /// Field multiplication: the carry-less product of the two polynomials,
    /// reduced modulo f.
    ///
    /// The product comes from PCLMULQDQ when the CPU has it and from the
    /// portable 4-bit comb otherwise; `is_x86_feature_detected!` caches its
    /// answer, so the choice costs one load per call.
    pub fn mul(&self, other: &Gf571) -> Gf571 {
        Self::reduced(clmul(&self.limbs, &other.limbs))
    }

    /// Field squaring (linear in GF(2), considerably faster than `mul`).
    pub fn square(&self) -> Gf571 {
        let mut product = [0u64; 2 * LIMBS];
        for (i, &limb) in self.limbs.iter().enumerate() {
            let (lo, hi) = spread_bits(limb);
            product[2 * i] = lo;
            product[2 * i + 1] = hi;
        }
        Self::reduced(product)
    }

    /// The element congruent to a double-width `product` modulo f.
    fn reduced(mut product: [u64; 2 * LIMBS]) -> Gf571 {
        reduce(&mut product);
        let mut limbs = [0u64; LIMBS];
        limbs.copy_from_slice(&product[..LIMBS]);
        Gf571 { limbs }
    }

    /// Multiplicative inverse via the binary extended Euclidean algorithm.
    ///
    /// # Panics
    ///
    /// Panics when inverting zero.
    pub fn inverse(&self) -> Gf571 {
        assert!(!self.is_zero(), "zero has no multiplicative inverse");
        // Polynomials can temporarily reach degree 571, so use LIMBS+1 words.
        let mut u = Poly::from_element(self);
        let mut v = Poly::modulus();
        let mut g1 = Poly::one();
        let mut g2 = Poly::zero();
        loop {
            if u.is_one() {
                return g1.to_element();
            }
            let j = u.degree() - v.degree();
            if j < 0 {
                std::mem::swap(&mut u, &mut v);
                std::mem::swap(&mut g1, &mut g2);
                continue;
            }
            u.xor_shifted(&v, j as usize);
            g1.xor_shifted(&g2, j as usize);
        }
    }

    /// Exponentiation by squaring (used in tests to cross-check `inverse`).
    pub fn pow(&self, exponent_bits: &[bool]) -> Gf571 {
        let mut acc = Gf571::ONE;
        for &bit in exponent_bits {
            acc = acc.square();
            if bit {
                acc = acc.mul(self);
            }
        }
        acc
    }
}

/// The carry-less product of two elements' limbs, by [`pclmulqdq_product`]
/// where the CPU has PCLMULQDQ and by [`comb_product`] elsewhere.
fn clmul(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; 2 * LIMBS] {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `pclmulqdq_product` needs only the `pclmulqdq` target
        // feature, and `is_x86_feature_detected!` just found it on this CPU.
        return unsafe { pclmulqdq_product(a, b) };
    }
    comb_product(a, b)
}

/// The carry-less product of two elements' limbs by a 4-bit windowed comb:
/// the portable path, and the reference the PCLMULQDQ path is tested against.
fn comb_product(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; 2 * LIMBS] {
    // table[w] = w(x) · b (LIMBS+1 limbs), built incrementally: even entries
    // are a 1-bit shift of their half, odd entries add the multiplicand —
    // one shift or one XOR per entry.
    let mut table = [[0u64; LIMBS + 1]; 16];
    table[1][..LIMBS].copy_from_slice(b);
    for w in 2..16 {
        if w % 2 == 0 {
            let src = table[w / 2];
            let mut carry = 0u64;
            for (dst, &s) in table[w].iter_mut().zip(&src) {
                *dst = (s << 1) | carry;
                carry = s >> 63;
            }
        } else {
            let src = table[w - 1];
            for (i, dst) in table[w].iter_mut().enumerate() {
                *dst = src[i] ^ if i < LIMBS { b[i] } else { 0 };
            }
        }
    }

    // Comb over nibble columns: one product shift per column (16 total)
    // instead of one per nibble (144), with every limb's matching nibble
    // accumulated at its limb offset.
    let mut product = [0u64; 2 * LIMBS];
    for j in (0..16).rev() {
        if j != 15 {
            // product <<= 4
            let mut carry = 0u64;
            for limb in product.iter_mut() {
                let new_carry = *limb >> 60;
                *limb = (*limb << 4) | carry;
                carry = new_carry;
            }
        }
        for (i, &limb) in a.iter().enumerate() {
            let nib = ((limb >> (j * 4)) & 0xf) as usize;
            if nib != 0 {
                for (t, &v) in table[nib].iter().enumerate() {
                    product[i + t] ^= v;
                }
            }
        }
    }
    product
}

/// The carry-less product of two elements' limbs from 81 PCLMULQDQ
/// multiplies: the 128-bit partial products `a[i]·b[j]` are summed per
/// column `i + j`, and each column sum covers product limbs `i + j` and
/// `i + j + 1`. Same bits as [`comb_product`].
///
/// # Safety
///
/// The CPU must support PCLMULQDQ, as `is_x86_feature_detected!("pclmulqdq")`
/// reports; executing the instruction on a CPU without it is undefined
/// behaviour. Nothing else is required: the function reads and writes only
/// its arguments and locals, through safe indexing.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
unsafe fn pclmulqdq_product(a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; 2 * LIMBS] {
    use std::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_setzero_si128,
        _mm_unpackhi_epi64, _mm_xor_si128,
    };
    let mut bv = [_mm_setzero_si128(); LIMBS];
    for (v, &limb) in bv.iter_mut().zip(b) {
        *v = _mm_set_epi64x(0, limb as i64);
    }
    let mut columns = [_mm_setzero_si128(); 2 * LIMBS - 1];
    for (i, &limb) in a.iter().enumerate() {
        let av = _mm_set_epi64x(0, limb as i64);
        for (j, &bj) in bv.iter().enumerate() {
            columns[i + j] = _mm_xor_si128(columns[i + j], _mm_clmulepi64_si128(av, bj, 0x00));
        }
    }
    let mut product = [0u64; 2 * LIMBS];
    for (k, &column) in columns.iter().enumerate() {
        product[k] ^= _mm_cvtsi128_si64(column) as u64;
        product[k + 1] ^= _mm_cvtsi128_si64(_mm_unpackhi_epi64(column, column)) as u64;
    }
    product
}

/// Spreads the bits of `x` so that bit i lands at position 2i (squaring).
fn spread_bits(x: u64) -> (u64, u64) {
    fn spread32(mut v: u64) -> u64 {
        v &= 0xffff_ffff;
        v = (v | (v << 16)) & 0x0000_ffff_0000_ffff;
        v = (v | (v << 8)) & 0x00ff_00ff_00ff_00ff;
        v = (v | (v << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
    (spread32(x), spread32(x >> 32))
}

/// Reduces an up-to-1142-bit polynomial modulo f(x) = x^571 + x^10 + x^5 + x^2 + 1.
///
/// Word-level folding: bit `k ≥ 571` reduces to `k − 571 + {0, 2, 5, 10}`,
/// so a whole high limb folds down with four shifted XORs. High limbs are
/// processed top-down — their folds only ever land on strictly lower limbs
/// (`64·i − 571 + 10 < 64·(i − 8)`), so each limb is cleared exactly once.
/// This replaced a bit-serial loop over ~580 individual bits, which
/// dominated the cost of every field multiplication and squaring.
fn reduce(product: &mut [u64; 2 * LIMBS]) {
    for i in (LIMBS..2 * LIMBS).rev() {
        let w = product[i];
        if w == 0 {
            continue;
        }
        product[i] = 0;
        let base = i * 64 - DEGREE; // ≥ 5 for i ≥ LIMBS, so word + 1 ≤ i
        for offset in [0usize, 2, 5, 10] {
            let b = base + offset;
            let (word, shift) = (b / 64, b % 64);
            product[word] ^= w << shift;
            if shift > 0 {
                product[word + 1] ^= w >> (64 - shift);
            }
        }
    }
    // Fold the residual bits 571..=575 of the top in-field limb.
    let top = product[LIMBS - 1] >> (DEGREE % 64);
    if top != 0 {
        product[LIMBS - 1] &= (1u64 << (DEGREE % 64)) - 1;
        product[0] ^= top ^ (top << 2) ^ (top << 5) ^ (top << 10);
    }
}

/// A scratch polynomial of up to 10 limbs used by the inversion algorithm.
#[derive(Debug, Clone, Copy)]
struct Poly {
    limbs: [u64; LIMBS + 1],
}

impl Poly {
    fn zero() -> Self {
        Self { limbs: [0; LIMBS + 1] }
    }

    fn one() -> Self {
        let mut p = Self::zero();
        p.limbs[0] = 1;
        p
    }

    fn from_element(e: &Gf571) -> Self {
        let mut p = Self::zero();
        p.limbs[..LIMBS].copy_from_slice(&e.limbs);
        p
    }

    fn modulus() -> Self {
        let mut p = Self::zero();
        p.limbs[0] = (1 << 10) | (1 << 5) | (1 << 2) | 1;
        p.limbs[DEGREE / 64] |= 1 << (DEGREE % 64);
        p
    }

    fn degree(&self) -> i32 {
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            if l != 0 {
                return (i * 64 + 63 - l.leading_zeros() as usize) as i32;
            }
        }
        -1
    }

    fn is_one(&self) -> bool {
        self.limbs[0] == 1 && self.limbs[1..].iter().all(|&l| l == 0)
    }

    /// `self ^= other << shift`
    fn xor_shifted(&mut self, other: &Poly, shift: usize) {
        let limb_shift = shift / 64;
        let bit_shift = shift % 64;
        for i in (0..=LIMBS).rev() {
            if i < limb_shift {
                break;
            }
            let src = i - limb_shift;
            let mut v = other.limbs[src] << bit_shift;
            if bit_shift > 0 && src > 0 {
                v |= other.limbs[src - 1] >> (64 - bit_shift);
            }
            self.limbs[i] ^= v;
        }
    }

    fn to_element(self) -> Gf571 {
        let mut limbs = [0u64; LIMBS];
        limbs.copy_from_slice(&self.limbs[..LIMBS]);
        debug_assert_eq!(self.limbs[LIMBS], 0, "inverse result must fit the field");
        Gf571 { limbs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> Gf571 {
        // Deterministic pseudo-random field element.
        let mut limbs = [0u64; LIMBS];
        let mut x = seed.wrapping_add(0x9e3779b97f4a7c15);
        for l in limbs.iter_mut() {
            x ^= x >> 30;
            x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94d049bb133111eb);
            x ^= x >> 31;
            *l = x;
        }
        limbs[LIMBS - 1] &= (1 << (DEGREE % 64)) - 1;
        Gf571::from_limbs(limbs)
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        let a = sample(1);
        let b = sample(2);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&a), Gf571::ZERO);
        assert_eq!(a.add(&Gf571::ZERO), a);
    }

    #[test]
    fn one_is_multiplicative_identity() {
        let a = sample(3);
        assert_eq!(a.mul(&Gf571::ONE), a);
        assert_eq!(Gf571::ONE.mul(&a), a);
        assert_eq!(a.mul(&Gf571::ZERO), Gf571::ZERO);
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        let a = sample(4);
        let b = sample(5);
        let c = sample(6);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn distributivity() {
        let a = sample(7);
        let b = sample(8);
        let c = sample(9);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn square_matches_self_multiplication() {
        for seed in 10..20 {
            let a = sample(seed);
            assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn small_polynomial_products() {
        // (x + 1) * (x + 1) = x^2 + 1
        let x_plus_1 = Gf571::from_limbs({
            let mut l = [0u64; LIMBS];
            l[0] = 0b11;
            l
        });
        let expected = Gf571::from_limbs({
            let mut l = [0u64; LIMBS];
            l[0] = 0b101;
            l
        });
        assert_eq!(x_plus_1.mul(&x_plus_1), expected);
    }

    #[test]
    fn reduction_wraps_high_bit_correctly() {
        // x^570 * x = x^571 ≡ x^10 + x^5 + x^2 + 1 (mod f).
        let mut l = [0u64; LIMBS];
        l[570 / 64] = 1 << (570 % 64);
        let x570 = Gf571::from_limbs(l);
        let mut xl = [0u64; LIMBS];
        xl[0] = 2;
        let x = Gf571::from_limbs(xl);
        let mut el = [0u64; LIMBS];
        el[0] = (1 << 10) | (1 << 5) | (1 << 2) | 1;
        assert_eq!(x570.mul(&x), Gf571::from_limbs(el));
    }

    #[test]
    fn inverse_round_trips() {
        for seed in 20..26 {
            let a = sample(seed);
            if a.is_zero() {
                continue;
            }
            let inv = a.inverse();
            assert_eq!(a.mul(&inv), Gf571::ONE, "a * a^-1 must be 1");
        }
    }

    #[test]
    fn inverse_of_one_is_one() {
        assert_eq!(Gf571::ONE.inverse(), Gf571::ONE);
    }

    #[test]
    #[should_panic]
    fn inverse_of_zero_panics() {
        let _ = Gf571::ZERO.inverse();
    }

    #[test]
    fn hex_round_trip() {
        let a = sample(30);
        let hex = a.to_hex();
        assert_eq!(Gf571::from_hex(&hex), a);
        assert_eq!(Gf571::from_hex("0"), Gf571::ZERO);
        assert_eq!(Gf571::from_hex("1"), Gf571::ONE);
    }

    #[test]
    fn degree_and_bits() {
        assert_eq!(Gf571::ZERO.degree(), -1);
        assert_eq!(Gf571::ONE.degree(), 0);
        let a = Gf571::from_hex("10");
        assert_eq!(a.degree(), 4);
        assert!(a.bit(4));
        assert!(!a.bit(3));
    }

    /// FNV-1a digest of [`chain_digest`]'s chain, recorded with the comb
    /// product alone.
    const CHAIN_DIGEST: u64 = 0xf7b6_4d71_4572_d807;

    /// FNV-1a over both registers after each of 4,096 field steps seeded
    /// from the generator's coordinates: `x ← x·y` through `product` on even
    /// steps, `y ← y² + x` on odd ones, and `x ← x⁻¹` on every sixteenth.
    fn chain_digest(product: fn(&[u64; LIMBS], &[u64; LIMBS]) -> [u64; 2 * LIMBS]) -> u64 {
        let g = crate::Curve::sect571r1().generator();
        let (mut x, mut y) = (g.x().expect("affine"), g.y().expect("affine"));
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for step in 0..4096 {
            match step % 16 {
                15 => x = x.inverse(),
                s if s % 2 == 0 => x = Gf571::reduced(product(&x.limbs, &y.limbs)),
                _ => y = y.square().add(&x),
            }
            for &limb in x.limbs.iter().chain(&y.limbs) {
                for byte in limb.to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        digest
    }

    #[test]
    fn field_chain_digest_is_pinned() {
        assert_eq!(chain_digest(clmul), CHAIN_DIGEST);
    }

    #[test]
    fn pclmulqdq_product_matches_comb() {
        // The comb is checked on every CPU, including those where `mul`
        // takes the PCLMULQDQ path and so never runs it.
        assert_eq!(chain_digest(comb_product), CHAIN_DIGEST, "comb product");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") {
            let bit = |i: usize| {
                let mut l = [0u64; LIMBS];
                l[i / 64] = 1 << (i % 64);
                l
            };
            let mut all_ones = [u64::MAX; LIMBS];
            all_ones[LIMBS - 1] = (1 << (DEGREE % 64)) - 1;
            let mut structured = vec![[0u64; LIMBS], bit(0), all_ones];
            structured.extend([63, 64, 127, 128, 511, 512, 570].map(bit));
            let pairs = structured
                .iter()
                .flat_map(|a| structured.iter().map(move |b| (*a, *b)))
                .chain((0..10_000).map(|i| (sample(2 * i + 100).limbs, sample(2 * i + 101).limbs)));
            for (a, b) in pairs {
                // SAFETY: `is_x86_feature_detected!` found pclmulqdq above,
                // the only feature `pclmulqdq_product` needs.
                let fast = unsafe { pclmulqdq_product(&a, &b) };
                assert_eq!(fast, comb_product(&a, &b), "a = {a:x?}, b = {b:x?}");
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = sample(31);
        // a^5 = a * a * a * a * a; exponent 5 = 101b (MSB first).
        let a5 = a.pow(&[true, false, true]);
        let expected = a.mul(&a).mul(&a).mul(&a).mul(&a);
        assert_eq!(a5, expected);
    }
}
