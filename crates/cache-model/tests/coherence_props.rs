//! Coherence invariants of the **non-inclusive** hierarchy under adversarial
//! interleavings of demotions and back-invalidations.
//!
//! The non-inclusive protocol deliberately lets a Shared line's L1 copy
//! outlive its L2 copy (an L2 eviction of a Shared line is a no-op — see the
//! comment in `Hierarchy::handle_l2_eviction`). That is only *harmless* if
//! every path that kills the line's LLC backing also back-invalidates the
//! stale L1 copy; otherwise a core could keep hitting a line the package has
//! already given up, which no real machine exhibits and which would skew
//! every latency-threshold measurement built on top. This suite pins that
//! quirk (`stale_l1_copies_stay_backed`) and the surrounding backing
//! invariants over random read+write streams mixed with `clflush`,
//! background noise and replacement-state priming.
//!
//! The back-invalidation of an evicted LLC line walks only the line's sharer
//! bits, so those must cover every core that holds a copy;
//! `llc_sharers_cover_private_copies` checks that after every operation
//! under every inclusion × replacement composition.

use llc_cache_model::{
    AccessKind, CacheSpec, CoherenceState, Hierarchy, InclusionPolicy, LineAddr, ReplacementKind,
};
use proptest::prelude::*;

/// Lines 0..LINES on `tiny_test` fold onto 64 shared sets (2 slices × 32
/// sets) and 8 L1 sets, so random draws are heavily congruent and demotions
/// and evictions happen constantly.
const LINES: u64 = 256;

/// Applies one encoded operation: weighted towards reads and writes, with
/// flushes, background noise (shared and private flavours) and
/// `prime_as_victim` demotions mixed in.
fn apply(h: &mut Hierarchy, op: usize, core: usize, n: u64) {
    let line = LineAddr::from_line_number(n);
    match op {
        0..=2 => {
            h.access(core, line, AccessKind::Read);
        }
        3..=5 => {
            h.access(core, line, AccessKind::Write);
        }
        6 => h.clflush(line),
        7 => {
            let loc = h.shared_location(line);
            h.noise_access(loc, true);
        }
        8 => {
            let loc = h.shared_location(line);
            h.noise_access(loc, false);
        }
        _ => h.prime_as_victim(line),
    }
}

/// [`apply`], plus the operations that set sharer bits or evict LLC lines in
/// ways of their own: op 10 is an echoed read (the reader, then the next
/// core), op 11 an aggregate noise advance on the line's set.
fn apply_with_echo(h: &mut Hierarchy, op: usize, core: usize, n: u64) {
    let line = LineAddr::from_line_number(n);
    let loc = h.shared_location(line);
    match op {
        10 => {
            h.echoed_read(core, (core + 1) % h.cores(), line, loc);
        }
        11 => h.noise_advance_bulk(loc, n % 3, n / 3 % 3),
        _ => apply(h, op, core, n),
    }
}

/// Every core whose L1 or L2 holds an LLC-resident line is among the line's
/// sharer bits.
fn sharers_cover_private_copies(h: &Hierarchy, step: usize) -> Result<(), String> {
    let geometry = h.shared_geometry();
    for flat in 0..geometry.total_sets() {
        for (_, line, entry) in h.llc_set_view(geometry.location(flat)).iter() {
            for core in 0..h.cores() {
                if h.in_l1(core, line) || h.in_l2(core, line) {
                    prop_assert!(
                        entry.sharers & (1 << core) != 0,
                        "step {}: core {} holds line {:#x}, sharers {:#b}",
                        step,
                        core,
                        line.line_number(),
                        entry.sharers
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The stale-L1 quirk, pinned: whenever a line's L1 copy has outlived
    /// its L2 copy, that copy is Shared and the LLC still backs it. (An
    /// Exclusive/Modified L2 eviction and every LLC/SF eviction explicitly
    /// back-invalidate L1, so the only way to orphan an L1 copy would be a
    /// path that kills the backing without the invalidation.)
    #[test]
    fn stale_l1_copies_stay_backed(
        seed in any::<u64>(),
        ops in prop::collection::vec((0usize..10, 0usize..3, 0u64..LINES), 0..160),
    ) {
        let mut h = Hierarchy::new(CacheSpec::tiny_test(), seed);
        for &(op, core, n) in &ops {
            apply(&mut h, op, core, n);
        }
        for n in 0..LINES {
            let line = LineAddr::from_line_number(n);
            for core in 0..h.cores() {
                if h.in_l1(core, line) && !h.in_l2(core, line) {
                    prop_assert_eq!(
                        h.l1_state(core, line),
                        Some(CoherenceState::Shared),
                        "stale L1 copy of line {} on core {} is not Shared", n, core
                    );
                    prop_assert!(
                        h.in_llc(line),
                        "stale L1 copy of line {} on core {} lost its LLC backing", n, core
                    );
                }
            }
        }
    }

    /// Every private copy is backed by the matching shared structure:
    /// Shared copies by an LLC entry, Exclusive/Modified copies by an SF
    /// entry — and no line is ever in both shared structures at once.
    #[test]
    fn private_lines_stay_backed(
        seed in any::<u64>(),
        ops in prop::collection::vec((0usize..10, 0usize..3, 0u64..LINES), 0..160),
    ) {
        let mut h = Hierarchy::new(CacheSpec::tiny_test(), seed);
        for &(op, core, n) in &ops {
            apply(&mut h, op, core, n);
        }
        for n in 0..LINES {
            let line = LineAddr::from_line_number(n);
            prop_assert!(
                !(h.in_llc(line) && h.in_sf(line)),
                "line {} is in both the LLC and the SF", n
            );
            for core in 0..h.cores() {
                for state in [h.l1_state(core, line), h.l2_state(core, line)] {
                    match state {
                        Some(CoherenceState::Shared) => prop_assert!(
                            h.in_llc(line),
                            "Shared copy of line {} on core {} has no LLC backing", n, core
                        ),
                        Some(_) => prop_assert!(
                            h.in_sf(line),
                            "private copy of line {} on core {} is not SF-tracked", n, core
                        ),
                        None => {}
                    }
                }
            }
        }
    }

    /// The LLC's sharer bits stay a superset of the cores holding a private
    /// copy, after every operation, under every inclusion × replacement
    /// composition.
    #[test]
    fn llc_sharers_cover_private_copies(
        seed in any::<u64>(),
        ops in prop::collection::vec((0usize..12, 0usize..3, 0u64..LINES), 0..160),
    ) {
        for inclusion in
            [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive, InclusionPolicy::Exclusive]
        {
            for policy in [
                ReplacementKind::Lru,
                ReplacementKind::TreePlru,
                ReplacementKind::Qlru,
                ReplacementKind::Srrip,
                ReplacementKind::Random,
            ] {
                let spec = CacheSpec::tiny_test().with_inclusion(inclusion).with_replacement(policy);
                let mut h = Hierarchy::new(spec, seed);
                for (step, &(op, core, n)) in ops.iter().enumerate() {
                    apply_with_echo(&mut h, op, core, n);
                    sharers_cover_private_copies(&h, step)
                        .map_err(|e| format!("{inclusion:?} × {policy:?}: {e}"))?;
                }
            }
        }
    }
}
