//! Equivalence of `Hierarchy::echoed_read`, the helper-echoed read of
//! eviction-set pruning, with the two `access_at` reads it stands for.
//!
//! Twin hierarchies run one op stream. Echoed reads of a candidate pool go
//! through `echoed_read` on one twin and through an `access_at` read by the
//! attacker core and then one by the helper core on the other; everything
//! else — plain reads from other cores, writes, `clflush`, background noise
//! (per event, in bulk and as an aggregate advance) and snapshot rewinds —
//! is applied to both. The pool's lines share one LLC/SF set and overflow
//! it, the private sets and the SF, so fills evict and back-invalidate.
//! After every step the serving levels must be equal, and so must every set
//! the stream can touch, way by way (lines, payloads — the LLC's sharer
//! bits included — and metadata words), for every core's L1 and L2 and for
//! the LLC and SF; at the end of a stream, every set of every structure
//! must be. Every inclusion policy × every replacement policy runs on
//! `tiny_test` and on `skylake_sp(2, 4)`. Under LRU and the non-inclusive
//! policy, echoed reads whose first half left the line Exclusive (the reads
//! whose helper half skips its lookups) must have happened, so the suite
//! cannot pass without exercising them.

mod support;

use llc_cache_model::{
    AccessKind, CacheSpec, CoherenceState, Hierarchy, HitLevel, InclusionPolicy, ReplacementKind,
};
use proptest::prelude::*;
use support::{congruent_lines, same_everywhere, same_touched_sets, INCLUSIONS, POLICIES};

/// Runs `ops` on twins of `spec` and checks them after every step; returns
/// how many echoed reads left their line Exclusive in the attacker's L1
/// after a shared-stage read (the reads whose helper half has a known
/// outcome under the non-inclusive policy).
fn run_stream(spec: &CacheSpec, seed: u64, ops: &[(u8, u8)]) -> Result<u64, String> {
    let mut echoed = Hierarchy::new(spec.clone(), seed);
    let mut plain = Hierarchy::new(spec.clone(), seed);
    let cores = spec.cores;
    let anchor = seed % (1 << 30);
    let pool = congruent_lines(&echoed, anchor, 2 * (spec.llc.ways() + spec.sf.ways()));
    let loc = echoed.shared_location(pool[0]);
    let mut saved = (echoed.clone(), plain.clone());
    let mut exclusive_fills = 0u64;

    for (step, &(kind, arg)) in ops.iter().enumerate() {
        let pick = arg as usize;
        let line = pool[pick % pool.len()];
        match kind {
            0..=5 => {
                // An echoed read; one in six has the reader echo itself.
                let core = pick % cores;
                let helper =
                    if kind == 5 { core } else { (core + 1 + pick / 7 % (cores - 1)) % cores };
                let got = echoed.echoed_read(core, helper, line, loc);
                let want = plain.access_at(core, line, loc, AccessKind::Read).level;
                if want >= HitLevel::Llc
                    && plain.l1_state(core, line) == Some(CoherenceState::Exclusive)
                    && helper != core
                {
                    exclusive_fills += 1;
                }
                plain.access_at(helper, line, loc, AccessKind::Read);
                prop_assert_eq!(got, want, "step {}: echoed read by {} and {}", step, core, helper);
            }
            6 => {
                let core = pick % cores;
                let got = echoed.access_at(core, line, loc, AccessKind::Read);
                let want = plain.access_at(core, line, loc, AccessKind::Read);
                prop_assert_eq!(got, want, "step {}: core {} read", step, core);
            }
            7 => {
                let core = pick % cores;
                let got = echoed.access_at(core, line, loc, AccessKind::Write);
                let want = plain.access_at(core, line, loc, AccessKind::Write);
                prop_assert_eq!(got, want, "step {}: core {} write", step, core);
            }
            8 => {
                for h in [&mut echoed, &mut plain] {
                    h.clflush(line);
                }
            }
            9 => {
                for h in [&mut echoed, &mut plain] {
                    h.noise_access(loc, pick % 2 == 0);
                }
            }
            10 => {
                let burst = (0..=pick % 4).map(|i| (pick >> i) & 1 == 0);
                for h in [&mut echoed, &mut plain] {
                    h.noise_access_bulk(loc, burst.clone());
                }
            }
            11 => {
                let (llc_fills, sf_fills) = ((pick % 8) as u64, (pick / 8 % 8) as u64);
                for h in [&mut echoed, &mut plain] {
                    h.noise_advance_bulk(loc, llc_fills, sf_fills);
                }
            }
            12 => saved = (echoed.clone(), plain.clone()),
            _ => {
                echoed.restore_from(&saved.0);
                plain.restore_from(&saved.1);
            }
        }
        same_touched_sets(&echoed, &plain, pool[0], loc, step)?;
    }
    same_everywhere(&echoed, &plain)?;
    Ok(exclusive_fills)
}

/// Runs one stream on every inclusion × replacement composition of `base`.
fn every_composition(base: CacheSpec, seed: u64, ops: &[(u8, u8)]) -> Result<(), String> {
    for inclusion in INCLUSIONS {
        for policy in POLICIES {
            let spec = base.clone().with_inclusion(inclusion).with_replacement(policy);
            let exclusive_fills = run_stream(&spec, seed, ops)
                .map_err(|e| format!("{inclusion:?} × {policy:?}: {e}"))?;
            let echoes = ops.iter().filter(|&&(kind, _)| kind < 5).count();
            if inclusion == InclusionPolicy::NonInclusive
                && policy == ReplacementKind::Lru
                && echoes >= 8
            {
                prop_assert!(exclusive_fills > 0, "no echoed read left its line Exclusive");
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `tiny_test`: L1 4-way, L2 8-way, LLC 4-way and SF 5-way, so the
    /// 18-line pool thrashes every level of its set.
    #[test]
    fn echoed_read_matches_two_reads_on_tiny_test(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..14, any::<u8>()), 1..120),
    ) {
        every_composition(CacheSpec::tiny_test(), seed, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `skylake_sp(2, 4)`: four cores, so attacker and helper vary, and a
    /// 46-line pool that overflows the 16-way L2 as well as the LLC and SF.
    #[test]
    fn echoed_read_matches_two_reads_on_skylake_sp(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..14, any::<u8>()), 1..120),
    ) {
        every_composition(CacheSpec::skylake_sp(2, 4), seed, &ops)?;
    }
}
