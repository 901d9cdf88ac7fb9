//! LLC/SF slice hash functions.
//!
//! On Intel server CPUs every physical address above the line offset is fed
//! through an undocumented, non-linear hash that selects one of the LLC/SF
//! slices (Section 2.1 and 2.2.1, [McCalpin 2021]). The exact function is not
//! public; what matters for the attack is that
//!
//! 1. the hash depends on physical-address bits the attacker cannot control,
//!    so partial control of the address does not shrink the slice uncertainty;
//! 2. it distributes lines uniformly across slices;
//! 3. it is a pure function of the physical line address, so two accesses to
//!    the same line always reach the same slice; and
//! 4. the L2 set index bits remain a subset of the LLC set index bits
//!    (the hash does not change the within-slice set index), which is the
//!    property L2-driven candidate filtering (Section 5.1) relies on.
//!
//! [`SliceHash::XorFold`] reproduces these properties with an XOR bit-matrix
//! fold followed by a multiply-shift reduction to the (possibly non-power-of-
//! two) slice count, mirroring the structure of the reverse-engineered Intel
//! hashes without claiming to be bit-exact. [`SliceHash::Modulo`] is the
//! fully predictable case, for studying what an attacker gains from knowing
//! the hash. A new slice-mapping scheme is one more variant.

use crate::addr::LineAddr;

/// Which function routes physical lines to LLC/SF slices.
///
/// Like [`ReplacementKind`](crate::ReplacementKind), the enum is the
/// function: [`SliceHash::slice_of`] dispatches with a `match`.
///
/// # Examples
///
/// ```
/// use llc_cache_model::{PhysAddr, SliceHash};
/// let s = SliceHash::XorFold.slice_of(PhysAddr::new(0x1234_5000).line(), 28);
/// assert!(s < 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SliceHash {
    /// XOR-folds the line number with a fixed bank of odd multipliers (a
    /// "complex addressing"-style bit mixture) and reduces the result with a
    /// multiply-shift, which keeps the distribution uniform even for
    /// non-power-of-two slice counts such as 28. The default.
    #[default]
    XorFold,
    /// Line number modulo the slice count: trivially predictable.
    Modulo,
}

/// Odd 64-bit mixing constants (splitmix64-style), one per XOR-fold round;
/// fixed so the mapping is reproducible across runs.
const XOR_FOLD_MULTIPLIERS: [u64; 3] =
    [0x9e37_79b9_7f4a_7c15, 0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb];

impl SliceHash {
    /// Parses a CLI/env spelling (`xor-fold`, `modulo`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "xor-fold" | "xorfold" => Some(Self::XorFold),
            "modulo" | "mod" => Some(Self::Modulo),
            _ => None,
        }
    }

    /// Canonical spelling, accepted by [`Self::parse`].
    pub fn label(self) -> &'static str {
        match self {
            Self::XorFold => "xor-fold",
            Self::Modulo => "modulo",
        }
    }

    /// Returns the slice (`0..num_slices`) of a physical line. Pure: the
    /// same line always maps to the same slice. `num_slices` must be
    /// non-zero, as every [`SlicedGeometry`](crate::SlicedGeometry)'s is.
    #[inline]
    pub fn slice_of(self, line: LineAddr, num_slices: usize) -> usize {
        match self {
            Self::XorFold => {
                let mut x = line.line_number();
                for m in XOR_FOLD_MULTIPLIERS {
                    x ^= x >> 27;
                    x = x.wrapping_mul(m);
                    x ^= x >> 31;
                }
                // Multiply-shift reduction: unbiased enough for uniformity
                // tests and cheap; works for non-power-of-two slice counts
                // (e.g. 22, 26, 28).
                (((x as u128) * (num_slices as u128)) >> 64) as usize
            }
            Self::Modulo => (line.line_number() % num_slices as u64) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;

    #[test]
    fn deterministic() {
        let line = PhysAddr::new(0xabc0_1240).line();
        assert_eq!(SliceHash::XorFold.slice_of(line, 28), SliceHash::XorFold.slice_of(line, 28));
    }

    #[test]
    fn in_range() {
        for slices in [1usize, 2, 22, 26, 28] {
            for i in 0..10_000u64 {
                let s = SliceHash::XorFold.slice_of(LineAddr::from_line_number(i * 977), slices);
                assert!(s < slices);
            }
        }
    }

    #[test]
    fn roughly_uniform_over_slices() {
        let slices = 28;
        let n = 280_000u64;
        let mut counts = vec![0usize; slices];
        for i in 0..n {
            counts[SliceHash::XorFold.slice_of(LineAddr::from_line_number(i), slices)] += 1;
        }
        let expected = n as f64 / slices as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "slice count {c} deviates {dev} from {expected}");
        }
    }

    #[test]
    fn page_offset_does_not_determine_slice() {
        // Lines with identical page offsets must still spread over many
        // slices, otherwise the attacker could shrink the slice uncertainty.
        let slices = 28;
        let mut seen = std::collections::HashSet::new();
        for frame in 0..2_000u64 {
            let pa = PhysAddr::new(frame * 4096 + 0x240);
            seen.insert(SliceHash::XorFold.slice_of(pa.line(), slices));
        }
        assert_eq!(seen.len(), slices);
    }

    #[test]
    fn modulo_hash_is_predictable() {
        assert_eq!(SliceHash::Modulo.slice_of(LineAddr::from_line_number(7), 4), 3);
    }

    /// FNV-1a digest of the slices `slice_of` gives a fixed line stream at
    /// 1, 2, 4, 22, 26 and 28 slices: per slice count, 4,096 consecutive
    /// lines interleaved with 4,096 lines spread over the high address bits.
    fn slice_map_digest(hash: SliceHash) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for slices in [1usize, 2, 4, 22, 26, 28] {
            for i in 0..4096u64 {
                for n in [i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 8] {
                    let slice = hash.slice_of(LineAddr::from_line_number(n), slices) as u64;
                    for byte in slice.to_le_bytes() {
                        digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
        }
        digest
    }

    /// Pins both slice maps: the digests were recorded from the trait-object
    /// hashes this enum replaced and must never move without a deliberate
    /// re-pin (every golden depends on them).
    #[test]
    fn slice_maps_are_pinned() {
        assert_eq!(slice_map_digest(SliceHash::XorFold), 0x58ad_f7bb_bd42_1428);
        assert_eq!(slice_map_digest(SliceHash::Modulo), 0x2eb9_e6e6_3651_58b5);
    }
}
