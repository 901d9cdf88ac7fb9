//! Property-based invariants of the aggregate noise path
//! (`Hierarchy::noise_advance_bulk`).
//!
//! The per-property equivalence against the per-event reference is pinned by
//! unit tests next to the implementation; this suite fuzzes the surrounding
//! structural invariants that every caller relies on, over arbitrary warm-up
//! traffic and arbitrary (including saturating) fill counts.

use llc_cache_model::{AccessKind, CacheSpec, Hierarchy, LineAddr, SetLocation};
use proptest::prelude::*;

fn tiny(seed: u64) -> Hierarchy {
    Hierarchy::new(CacheSpec::tiny_test(), seed)
}

/// (way, line number) of every valid way, and the set's metadata words —
/// one structure's half of a set fingerprint.
type WayFingerprint = (Vec<(usize, u64)>, Vec<u64>);

/// Fingerprints the set's LLC and SF views — a full structural snapshot.
fn fingerprint(h: &Hierarchy, loc: SetLocation) -> (WayFingerprint, WayFingerprint) {
    let llc: WayFingerprint = {
        let v = h.llc_set_view(loc);
        let ways = (0..v.num_ways())
            .filter(|&w| v.is_valid(w))
            .map(|w| (w, v.line(w).unwrap().line_number()))
            .collect();
        (ways, v.meta().to_vec())
    };
    let sf: WayFingerprint = {
        let v = h.sf_set_view(loc);
        let ways = (0..v.num_ways())
            .filter(|&w| v.is_valid(w))
            .map(|w| (w, v.line(w).unwrap().line_number()))
            .collect();
        (ways, v.meta().to_vec())
    };
    (llc, sf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After arbitrary warm traffic and an arbitrary bulk advance (including
    /// saturating counts far above the associativity), both shared
    /// structures stay self-consistent: occupancy never exceeds the ways,
    /// every valid way holds a findable line, and lines within a set are
    /// unique.
    #[test]
    fn advance_preserves_structural_invariants(
        seed in any::<u64>(),
        warm in prop::collection::vec((0usize..2, 0u64..256), 0..80),
        llc_fills in 0u64..64,
        sf_fills in 0u64..64,
        slice in 0usize..2,
        set in 0usize..4,
    ) {
        let mut h = tiny(seed);
        for (core, n) in warm {
            h.access(core, LineAddr::from_line_number(n), AccessKind::Read);
        }
        let spec = h.spec().clone();
        let loc = SetLocation::new(
            slice % spec.sf.num_slices(),
            set % spec.sf.slice_geometry().sets(),
        );
        h.noise_advance_bulk(loc, llc_fills, sf_fills);

        let llc = h.llc_set_view(loc);
        prop_assert!(llc.occupancy() <= spec.llc.ways());
        let mut seen = std::collections::HashSet::new();
        for w in 0..llc.num_ways() {
            if llc.is_valid(w) {
                let line = llc.line(w).expect("valid way must hold a line");
                prop_assert!(seen.insert(line), "duplicate line in LLC set");
                prop_assert_eq!(llc.way_of(line), Some(w));
            } else {
                prop_assert!(llc.line(w).is_none());
            }
        }
        let sf = h.sf_set_view(loc);
        prop_assert!(sf.occupancy() <= spec.sf.ways());
        let mut seen = std::collections::HashSet::new();
        for w in 0..sf.num_ways() {
            if sf.is_valid(w) {
                let line = sf.line(w).expect("valid way must hold a line");
                prop_assert!(seen.insert(line), "duplicate line in SF set");
                prop_assert_eq!(sf.way_of(line), Some(w));
            } else {
                prop_assert!(sf.line(w).is_none());
            }
        }
        // A saturating burst must leave both structures exactly full.
        if llc_fills >= spec.llc.ways() as u64 {
            prop_assert_eq!(h.llc_occupancy(loc), spec.llc.ways());
        }
        if sf_fills >= spec.sf.ways() as u64 {
            prop_assert_eq!(h.sf_occupancy(loc), spec.sf.ways());
        }
    }

    /// A zero-count advance is a strict no-op: lines, valid bits and
    /// replacement metadata of the targeted set are untouched.
    #[test]
    fn zero_advance_is_a_noop(
        seed in any::<u64>(),
        warm in prop::collection::vec((0usize..2, 0u64..256), 0..60),
        slice in 0usize..2,
        set in 0usize..4,
    ) {
        let mut h = tiny(seed);
        for (core, n) in warm {
            h.access(core, LineAddr::from_line_number(n), AccessKind::Read);
        }
        let spec = h.spec().clone();
        let loc = SetLocation::new(
            slice % spec.sf.num_slices(),
            set % spec.sf.slice_geometry().sets(),
        );
        let before = fingerprint(&h, loc);
        h.noise_advance_bulk(loc, 0, 0);
        prop_assert_eq!(before, fingerprint(&h, loc));
    }

    /// Same seed, same traffic, same advance — bit-identical set contents
    /// (the aggregate path must be as deterministic as the exact one).
    #[test]
    fn advance_is_deterministic(
        seed in any::<u64>(),
        warm in prop::collection::vec((0usize..2, 0u64..256), 0..60),
        llc_fills in 0u64..40,
        sf_fills in 0u64..40,
    ) {
        let run = || {
            let mut h = tiny(seed);
            for (core, n) in &warm {
                h.access(*core, LineAddr::from_line_number(*n), AccessKind::Read);
            }
            let loc = SetLocation::new(0, 0);
            h.noise_advance_bulk(loc, llc_fills, sf_fills);
            fingerprint(&h, loc)
        };
        prop_assert_eq!(run(), run());
    }
}
