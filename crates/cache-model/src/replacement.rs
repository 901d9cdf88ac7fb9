//! Cache replacement policies, enum-dispatched over flat metadata words.
//!
//! The paper's Parallel Probing technique is motivated precisely by the fact
//! that the target cache's replacement policy "can be unknown or quite
//! complex" (Section 6.1). The model therefore supports several policies so
//! that the attack algorithms can be evaluated for replacement-policy
//! sensitivity (see the ablation benches in DESIGN.md): true LRU, Tree-PLRU
//! (as used by Intel L1/L2), QLRU (the quad-age family Intel LLCs use),
//! 2-bit SRRIP (a common LLC policy) and a seeded pseudo-random policy.
//!
//! ## Data layout
//!
//! Policies are **not** trait objects. [`ReplacementKind`] is a `Copy` enum
//! whose methods operate on a per-set `&mut [u64]` metadata slice of length
//! `ways`, carved out of one contiguous arena owned by the cache structure
//! (see `set.rs`). This removes one heap allocation and one virtual call per
//! set from the access path, and turns snapshot restores into a single
//! `copy_from_slice` of the arena:
//!
//! | Policy | Per-way word `meta[w]` | Extra state |
//! |---|---|---|
//! | `Lru` | recency age: 0 = MRU, `ways-1` = LRU (a permutation) | — |
//! | `TreePlru` | tree bits packed into `meta[0]`, bit *i* = node *i* | — |
//! | `Qlru` | 2-bit age: 0 = just reused … 3 = replace next | — |
//! | `Srrip` | 2-bit RRPV: 0 = near re-reference … 3 = victim | — |
//! | `Random` | unused | one `SmallRng` per set (arena-owned) |
//!
//! All semantics are bit-identical to the former boxed `ReplacementState`
//! implementations (the golden experiment outputs depend on this); the
//! equivalence proptest suite in `tests/replacement_equivalence.rs` drives
//! random operation streams against naive oracle models to prove it.

use rand::rngs::SmallRng;
use rand::Rng;

/// Which replacement policy a cache structure uses.
///
/// The enum itself is the policy engine: its methods implement `touch`,
/// `victim`, `demote` and `reset_way` directly over a per-set metadata slice,
/// dispatching with a `match` that the compiler can inline and hoist, instead
/// of a virtual call through a per-set `Box<dyn ...>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementKind {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Binary-tree pseudo-LRU.
    TreePlru,
    /// Quad-age LRU (the QLRU family used by Intel LLCs): hits promote to
    /// age 0, fills insert at age 1, the victim is the lowest way at age 3
    /// after a one-shot renormalisation that ages every line just enough for
    /// one to reach 3.
    Qlru,
    /// Static re-reference interval prediction with 2-bit counters.
    Srrip,
    /// Uniformly random victim selection (seeded, reproducible).
    Random,
}

/// Maximum age / RRPV value of the 2-bit policies (`Qlru`, `Srrip`).
const MAX_AGE: u64 = 3;

/// Associativity up to which LRU packs its age permutation into `meta[0]`
/// (4 bits per way). Every modelled structure is at most 16-way; wider sets
/// fall back to the one-age-per-word representation.
const LRU_PACKED_MAX_WAYS: usize = 16;

/// The low bit of every nibble lane.
const NIBBLE_LSBS: u64 = 0x1111_1111_1111_1111;

/// Bitmask covering the low `ways` nibbles of a packed LRU word.
#[inline]
fn packed_lane_bits(ways: usize) -> u64 {
    if ways >= 16 {
        u64::MAX
    } else {
        (1u64 << (4 * ways)) - 1
    }
}

/// Reads way `way`'s age nibble from a packed LRU word.
#[inline]
fn packed_age(word: u64, way: usize) -> u64 {
    (word >> (4 * way)) & 0xF
}

/// SWAR nibble comparison: returns a mask with bit `4w` set for every
/// nibble lane `w` of `x` that is strictly less than `val` (`val` ≤ 16).
///
/// Nibble lanes have no headroom for borrow-free subtraction, so the lanes
/// are split into even/odd halves spread over 8-bit fields (the usual
/// widening trick): `(field | 0x80) - val` then cannot borrow across fields,
/// and bit 7 of the result reads "field ≥ val".
#[inline]
fn nibble_lt_mask(x: u64, val: u64) -> u64 {
    const BYTE_LO: u64 = 0x0F0F_0F0F_0F0F_0F0F;
    const BYTE_MSB: u64 = 0x8080_8080_8080_8080;
    const BYTE_LSB: u64 = 0x0101_0101_0101_0101;
    debug_assert!(val <= 16);
    let sub = val.wrapping_mul(BYTE_LSB);
    let even = x & BYTE_LO;
    let odd = (x >> 4) & BYTE_LO;
    let lt_even = !((even | BYTE_MSB).wrapping_sub(sub)) & BYTE_MSB;
    let lt_odd = !((odd | BYTE_MSB).wrapping_sub(sub)) & BYTE_MSB;
    // Byte MSBs (bit 8k+7) back to nibble-lane LSB positions (bit 4w).
    (lt_even >> 7) | ((lt_odd >> 7) << 4)
}

impl ReplacementKind {
    /// Parses a CLI/env spelling (`lru`, `tree-plru`, `qlru`, `srrip`,
    /// `random`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "lru" => Some(Self::Lru),
            "tree-plru" | "treeplru" | "plru" => Some(Self::TreePlru),
            "qlru" => Some(Self::Qlru),
            "srrip" => Some(Self::Srrip),
            "random" | "rand" => Some(Self::Random),
            _ => None,
        }
    }

    /// Canonical spelling, accepted by [`Self::parse`].
    pub fn label(self) -> &'static str {
        match self {
            Self::Lru => "lru",
            Self::TreePlru => "tree-plru",
            Self::Qlru => "qlru",
            Self::Srrip => "srrip",
            Self::Random => "random",
        }
    }

    /// Whether this policy draws from a per-set RNG stream ([`Self::Random`]).
    ///
    /// Cache structures only allocate their per-set `SmallRng` arena when
    /// this returns true.
    pub fn uses_rng(self) -> bool {
        matches!(self, ReplacementKind::Random)
    }

    /// Initialises the metadata words of an empty set.
    ///
    /// `meta.len()` is the associativity. Panics if a policy cannot represent
    /// that many ways in its packed encoding (Tree-PLRU packs its tree into
    /// `meta[0]` and therefore supports up to 64 ways, far beyond any real
    /// associativity).
    pub fn init_meta(self, meta: &mut [u64]) {
        let ways = meta.len();
        assert!(ways <= 64, "replacement metadata encodings support at most 64 ways");
        match self {
            ReplacementKind::Lru => {
                if ways <= LRU_PACKED_MAX_WAYS {
                    // Nibble-packed: lane w = age of way w; unused lanes are
                    // pinned at 0xF, which is ≥ any reachable age, so the
                    // SWAR compare-increment never drifts them.
                    let mut word = 0u64;
                    for w in 0..16 {
                        let v = if w < ways { w as u64 } else { 0xF };
                        word |= v << (4 * w);
                    }
                    meta.fill(0);
                    meta[0] = word;
                } else {
                    for (w, m) in meta.iter_mut().enumerate() {
                        *m = w as u64;
                    }
                }
            }
            ReplacementKind::TreePlru => meta.fill(0),
            ReplacementKind::Qlru | ReplacementKind::Srrip => meta.fill(MAX_AGE),
            ReplacementKind::Random => meta.fill(0),
        }
    }

    /// Records an access to `way`. `is_fill` is true when a new line was just
    /// installed in that way (QLRU and SRRIP assign different re-reference
    /// predictions to fills and hits).
    #[inline]
    pub fn touch(self, meta: &mut [u64], way: usize, is_fill: bool) {
        match self {
            ReplacementKind::Lru => {
                // Move `way` to MRU: every way that was more recent slides
                // one step older. Equivalent to the classic remove/push-front
                // on an explicit recency list.
                let ways = meta.len();
                if ways <= LRU_PACKED_MAX_WAYS {
                    let x = meta[0];
                    let old = packed_age(x, way);
                    if old == 0 {
                        return;
                    }
                    // Per-lane `if age < old { age += 1 }`: incremented
                    // lanes are < old ≤ 15, so the add cannot carry across
                    // lanes; the touched way itself (== old) is untouched by
                    // the increment and then cleared to MRU.
                    let inc = nibble_lt_mask(x, old) & packed_lane_bits(ways);
                    meta[0] = (x + inc) & !(0xF << (4 * way));
                } else {
                    let old = meta[way];
                    for m in meta.iter_mut() {
                        if *m < old {
                            *m += 1;
                        }
                    }
                    meta[way] = 0;
                }
            }
            ReplacementKind::TreePlru => {
                let ways = meta.len();
                if way < ways {
                    meta[0] = tree_walk(meta[0], ways, way, TreeAim::AwayFrom);
                }
            }
            ReplacementKind::Qlru => {
                meta[way] = if is_fill { 1 } else { 0 };
            }
            ReplacementKind::Srrip => {
                meta[way] = if is_fill { MAX_AGE - 1 } else { 0 };
            }
            ReplacementKind::Random => {}
        }
    }

    /// Chooses a victim way (all ways are occupied when this is called).
    /// May mutate the metadata (QLRU/SRRIP ageing) or advance the per-set
    /// RNG ([`Self::Random`], which is the only policy reading `rng`).
    #[inline]
    pub fn victim(self, meta: &mut [u64], rng: Option<&mut SmallRng>) -> usize {
        let ways = meta.len();
        match self {
            ReplacementKind::Lru => {
                // The ages form a permutation, so the maximum is unique.
                if ways <= LRU_PACKED_MAX_WAYS {
                    // Branch-free: the one used lane not below `ways - 1`.
                    let lanes = packed_lane_bits(ways) & NIBBLE_LSBS;
                    let oldest = !nibble_lt_mask(meta[0], (ways - 1) as u64) & lanes;
                    debug_assert_eq!(oldest.count_ones(), 1, "LRU ages form a permutation");
                    oldest.trailing_zeros() as usize / 4
                } else {
                    let mut victim = 0;
                    let mut oldest = meta[0];
                    for (w, &m) in meta.iter().enumerate().skip(1) {
                        if m > oldest {
                            oldest = m;
                            victim = w;
                        }
                    }
                    victim
                }
            }
            ReplacementKind::TreePlru => {
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways.next_power_of_two();
                let bits = meta[0];
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_left = bits & (1 << node) != 0;
                    node = 2 * node + if go_left { 1 } else { 2 };
                    if go_left {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                // Non-power-of-two associativities build the tree over the
                // next power of two; victims on non-existent ways fall back
                // to way 0.
                if lo >= ways {
                    0
                } else {
                    lo
                }
            }
            ReplacementKind::Qlru => {
                // One-shot renormalisation: age every line by the amount that
                // brings the oldest to MAX_AGE, then take the lowest such way.
                let oldest = meta.iter().copied().max().expect("sets are never 0-way");
                let boost = MAX_AGE - oldest;
                if boost > 0 {
                    for m in meta.iter_mut() {
                        *m += boost;
                    }
                }
                meta.iter().position(|&m| m == MAX_AGE).expect("renormalised to MAX_AGE")
            }
            ReplacementKind::Srrip => loop {
                if let Some(way) = meta.iter().position(|&m| m == MAX_AGE) {
                    return way;
                }
                for m in meta.iter_mut() {
                    *m += 1;
                }
            },
            ReplacementKind::Random => {
                rng.expect("Random replacement requires a per-set RNG").gen_range(0..ways)
            }
        }
    }

    /// Marks `way` as the *next* victim of this set, regardless of how
    /// recently it was accessed.
    ///
    /// This models replacement-state priming as performed by Prime+Scope
    /// [Purnal et al. 2021]: a carefully crafted access pattern that leaves a
    /// chosen line as the eviction candidate (EVC) even though the attacker
    /// keeps touching it.
    #[inline]
    pub fn demote(self, meta: &mut [u64], way: usize) {
        match self {
            ReplacementKind::Lru => {
                // Move `way` to LRU: every way that was older slides one step
                // more recent.
                let ways = meta.len();
                if ways <= LRU_PACKED_MAX_WAYS {
                    let x = meta[0];
                    let old = packed_age(x, way);
                    if old == ways as u64 - 1 {
                        return;
                    }
                    // Per-lane `if age > old { age -= 1 }`, i.e. NOT(< old+1)
                    // within the valid lanes; decremented lanes are ≥ 1 so no
                    // borrow crosses lanes. Unused lanes (pinned at 0xF) are
                    // excluded by the lane mask.
                    let lanes = packed_lane_bits(ways);
                    let dec = !nibble_lt_mask(x, old + 1) & NIBBLE_LSBS & lanes;
                    let cleared = (x - dec) & !(0xF << (4 * way));
                    meta[0] = cleared | ((ways as u64 - 1) << (4 * way));
                } else {
                    let old = meta[way];
                    for m in meta.iter_mut() {
                        if *m > old {
                            *m -= 1;
                        }
                    }
                    meta[way] = ways as u64 - 1;
                }
            }
            ReplacementKind::TreePlru => {
                let ways = meta.len();
                if way < ways {
                    meta[0] = tree_walk(meta[0], ways, way, TreeAim::Toward);
                }
            }
            ReplacementKind::Qlru | ReplacementKind::Srrip => {
                meta[way] = MAX_AGE;
            }
            ReplacementKind::Random => {}
        }
    }

    /// Resets `way`'s metadata after its line was invalidated, so the next
    /// occupant cannot inherit the departed line's recency/RRPV state.
    ///
    /// The boxed predecessor of this module had a latent bug here: it removed
    /// the entry and left the way's replacement metadata untouched. The way
    /// is instead marked as the preferred next victim (matching hardware,
    /// where invalid ways are refilled first): for LRU this is provably
    /// unobservable (every insertion re-normalises the recency permutation,
    /// and victims are only drawn from full sets), but for Tree-PLRU the
    /// shared tree bits persist across the refill and the stale path used to
    /// leak into later victim choices — `set.rs` pins both behaviours with
    /// regression tests.
    #[inline]
    pub fn reset_way(self, meta: &mut [u64], way: usize) {
        self.demote(meta, way);
    }

    /// Applies `count` consecutive *fill* transitions to a fully-occupied
    /// set's metadata: for each fill, a victim way is chosen, reported
    /// through `on_victim`, and then touched as a fresh fill — exactly the
    /// metadata effect of `count` back-to-back conflict insertions.
    ///
    /// This is the survival-probability engine of the aggregate noise mode:
    /// a resident line survives a `count`-insertion noise burst iff its way
    /// is never selected by this sequence. Given the metadata, the victim
    /// sequence is deterministic for every policy except
    /// [`ReplacementKind::Random`] (which draws from `rng` as usual), so
    /// per-way survival is resolved exactly rather than approximated.
    ///
    /// True LRU admits a closed form: victims are the `count` oldest ways in
    /// descending age order, and every age advances by `count` modulo the
    /// associativity (survivors age by `count`; the `j`-th fill ends at age
    /// `count - j`). The nibble-packed representation uses that closed form
    /// directly — one pass over the ways instead of `count` victim scans —
    /// and `tests` pin its equivalence to the generic loop.
    pub fn bulk_fill(
        self,
        meta: &mut [u64],
        count: u64,
        mut rng: Option<&mut SmallRng>,
        mut on_victim: impl FnMut(usize),
    ) {
        let ways = meta.len();
        if count == 0 || ways == 0 {
            return;
        }
        if self == ReplacementKind::Lru && ways <= LRU_PACKED_MAX_WAYS && count < ways as u64 {
            let x = meta[0];
            let count = count as usize;
            // Victims in descending age order: age ways-1, ways-2, ...
            // (the ages form a permutation, so the table is total).
            let mut way_of_age = [0usize; LRU_PACKED_MAX_WAYS];
            for w in 0..ways {
                way_of_age[packed_age(x, w) as usize] = w;
            }
            for j in 0..count {
                on_victim(way_of_age[ways - 1 - j]);
            }
            let mut word = x;
            for w in 0..ways {
                let age = (packed_age(x, w) as usize + count) % ways;
                word = (word & !(0xF << (4 * w))) | ((age as u64) << (4 * w));
            }
            meta[0] = word;
            return;
        }
        for _ in 0..count {
            let way = self.victim(meta, rng.as_deref_mut());
            on_victim(way);
            self.touch(meta, way, true);
        }
    }
}

/// Whether a root-to-leaf walk points the Tree-PLRU bits away from a way
/// (on touch) or toward it (on demote).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TreeAim {
    AwayFrom,
    Toward,
}

/// Walks the packed Tree-PLRU bits from the root to `way`, returning the
/// updated bit word. Bit semantics: a set bit means "the victim search goes
/// left at this node".
#[inline]
fn tree_walk(mut bits: u64, ways: usize, way: usize, aim: TreeAim) -> u64 {
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut hi = ways.next_power_of_two();
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let go_right = way >= mid;
        // AwayFrom: point the victim search at the other subtree.
        // Toward: steer the victim search into `way`'s subtree.
        let bit_value = match aim {
            TreeAim::AwayFrom => go_right,
            TreeAim::Toward => !go_right,
        };
        if bit_value {
            bits |= 1 << node;
        } else {
            bits &= !(1 << node);
        }
        node = 2 * node + if go_right { 2 } else { 1 };
        if go_right {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Fresh metadata for `ways` ways of `kind`.
    fn meta(kind: ReplacementKind, ways: usize) -> Vec<u64> {
        let mut m = vec![0; ways];
        kind.init_meta(&mut m);
        m
    }

    fn fill_and_reference(kind: ReplacementKind, meta: &mut [u64]) {
        for w in 0..meta.len() {
            kind.touch(meta, w, true);
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let k = ReplacementKind::Lru;
        let mut m = meta(k, 4);
        fill_and_reference(k, &mut m);
        // Touch 0, 1, 2 again -> 3 is LRU.
        k.touch(&mut m, 0, false);
        k.touch(&mut m, 1, false);
        k.touch(&mut m, 2, false);
        assert_eq!(k.victim(&mut m, None), 3);
        k.touch(&mut m, 3, false);
        assert_eq!(k.victim(&mut m, None), 0);
    }

    /// Decodes the LRU age of each way regardless of representation
    /// (nibble-packed for ≤ 16 ways, one word per way above).
    fn lru_ages(meta: &[u64]) -> Vec<u64> {
        if meta.len() <= 16 {
            (0..meta.len()).map(|w| (meta[0] >> (4 * w)) & 0xF).collect()
        } else {
            meta.to_vec()
        }
    }

    #[test]
    fn lru_ages_stay_a_permutation() {
        let k = ReplacementKind::Lru;
        for ways in [8usize, 16, 20] {
            let mut m = meta(k, ways);
            for i in 0..100 {
                k.touch(&mut m, (i * 5) % ways, i % 3 == 0);
                if i % 7 == 0 {
                    k.demote(&mut m, i % ways);
                }
                let mut sorted = lru_ages(&m);
                sorted.sort_unstable();
                let expect: Vec<u64> = (0..ways as u64).collect();
                assert_eq!(sorted, expect, "ages must stay a permutation ({ways} ways)");
            }
        }
    }

    // Equivalence of the nibble-packed (≤ 16 ways) and per-way (> 16 ways)
    // LRU representations against a naive recency-list oracle is proven by
    // the proptest suite in `tests/replacement_equivalence.rs`.

    #[test]
    fn lru_demote_makes_way_the_next_victim() {
        let k = ReplacementKind::Lru;
        let mut m = meta(k, 4);
        fill_and_reference(k, &mut m);
        k.demote(&mut m, 2);
        assert_eq!(k.victim(&mut m, None), 2);
    }

    #[test]
    fn tree_plru_victim_is_untouched_way() {
        let k = ReplacementKind::TreePlru;
        let mut m = meta(k, 8);
        fill_and_reference(k, &mut m);
        let v = k.victim(&mut m, None);
        assert!(v < 8);
        // Touch the victim; the next victim must differ.
        k.touch(&mut m, v, false);
        assert_ne!(k.victim(&mut m, None), v);
    }

    #[test]
    fn tree_plru_handles_non_power_of_two_ways() {
        let k = ReplacementKind::TreePlru;
        let mut m = meta(k, 11);
        fill_and_reference(k, &mut m);
        for _ in 0..64 {
            let v = k.victim(&mut m, None);
            assert!(v < 11);
            k.touch(&mut m, v, true);
        }
    }

    #[test]
    fn tree_plru_demote_steers_victim_to_way() {
        let k = ReplacementKind::TreePlru;
        let mut m = meta(k, 8);
        fill_and_reference(k, &mut m);
        for way in 0..8 {
            k.demote(&mut m, way);
            assert_eq!(k.victim(&mut m, None), way);
        }
    }

    #[test]
    fn srrip_prefers_new_lines_over_reused_lines() {
        let k = ReplacementKind::Srrip;
        let mut m = meta(k, 4);
        fill_and_reference(k, &mut m);
        // Re-reference ways 0 and 1 so they become RRPV 0.
        k.touch(&mut m, 0, false);
        k.touch(&mut m, 1, false);
        let v = k.victim(&mut m, None);
        assert!(v == 2 || v == 3, "victim should be a non-reused way, got {v}");
    }

    #[test]
    fn qlru_fills_age_faster_than_hits() {
        let k = ReplacementKind::Qlru;
        let mut m = meta(k, 4);
        fill_and_reference(k, &mut m);
        // Way 0 is re-referenced (age 0); the rest stay at fill age 1.
        k.touch(&mut m, 0, false);
        let v = k.victim(&mut m, None);
        assert_ne!(v, 0, "the reused way must outlive fill-aged ways");
        // After the renormalising victim call, way 0 is strictly younger.
        assert!(m[0] < m[v]);
    }

    #[test]
    fn qlru_renormalises_in_one_shot() {
        let k = ReplacementKind::Qlru;
        let mut m = meta(k, 4);
        fill_and_reference(k, &mut m);
        // All ways at age 1: the victim call must boost everyone by 2 and
        // pick the lowest way.
        assert_eq!(k.victim(&mut m, None), 0);
        assert!(m.iter().all(|&a| a == MAX_AGE));
    }

    #[test]
    fn random_victims_in_range_and_reproducible() {
        let k = ReplacementKind::Random;
        let mut m = meta(k, 6);
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            let va = k.victim(&mut m, Some(&mut a));
            assert!(va < 6);
            assert_eq!(va, k.victim(&mut m, Some(&mut b)));
        }
    }

    #[test]
    fn every_kind_initialises_touches_and_evicts() {
        let mut rng = SmallRng::seed_from_u64(1);
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Qlru,
            ReplacementKind::Srrip,
            ReplacementKind::Random,
        ] {
            let mut m = meta(kind, 8);
            kind.touch(&mut m, 0, true);
            let rng = kind.uses_rng().then_some(&mut rng);
            assert!(kind.victim(&mut m, rng) < 8);
        }
    }

    /// The packed-LRU closed form in `bulk_fill` must be indistinguishable
    /// from literally running `count` victim/touch-fill rounds: same victim
    /// ways in the same order, same final metadata word.
    #[test]
    fn lru_bulk_fill_closed_form_matches_generic_loop() {
        let k = ReplacementKind::Lru;
        for ways in [4usize, 7, 16] {
            for scramble in 0..8u64 {
                for count in 1..ways as u64 {
                    let mut base = meta(k, ways);
                    fill_and_reference(k, &mut base);
                    // Scramble recency with a deterministic touch pattern.
                    for i in 0..scramble {
                        k.touch(&mut base, (i as usize * 3 + 1) % ways, false);
                    }
                    let mut fast = base.clone();
                    let mut slow = base.clone();
                    let mut fast_victims = Vec::new();
                    k.bulk_fill(&mut fast, count, None, |w| fast_victims.push(w));
                    let mut slow_victims = Vec::new();
                    for _ in 0..count {
                        let w = k.victim(&mut slow, None);
                        slow_victims.push(w);
                        k.touch(&mut slow, w, true);
                    }
                    assert_eq!(fast_victims, slow_victims, "{ways} ways, count {count}");
                    assert_eq!(fast, slow, "{ways} ways, count {count}: metadata diverged");
                }
            }
        }
    }

    /// `bulk_fill` on the non-closed-form policies is definitionally the
    /// victim/touch loop; sanity-check victim validity and determinism.
    #[test]
    fn bulk_fill_generic_policies_yield_valid_deterministic_victims() {
        for kind in [
            ReplacementKind::TreePlru,
            ReplacementKind::Qlru,
            ReplacementKind::Srrip,
            ReplacementKind::Random,
        ] {
            let ways = 8;
            let run = |seed: u64| {
                let mut m = meta(kind, ways);
                fill_and_reference(kind, &mut m);
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut victims = Vec::new();
                let rng_arg = kind.uses_rng().then_some(&mut rng);
                kind.bulk_fill(&mut m, 20, rng_arg, |w| victims.push(w));
                (victims, m)
            };
            let (va, ma) = run(5);
            let (vb, mb) = run(5);
            assert_eq!(va.len(), 20);
            assert!(va.iter().all(|&w| w < ways), "{kind:?}: victim out of range");
            assert_eq!(va, vb, "{kind:?}: bulk_fill must be deterministic per seed");
            assert_eq!(ma, mb);
        }
    }

    #[test]
    fn lru_full_access_sequence_cycles() {
        // Accessing W+1 distinct lines round-robin in an LRU W-way set evicts
        // every time (the classic thrashing pattern eviction sets rely on).
        let k = ReplacementKind::Lru;
        let ways = 4;
        let mut m = meta(k, ways);
        fill_and_reference(k, &mut m);
        let mut victims = Vec::new();
        for _ in 0..8 {
            let v = k.victim(&mut m, None);
            victims.push(v);
            k.touch(&mut m, v, true);
        }
        // All ways get recycled.
        let unique: std::collections::HashSet<_> = victims.iter().collect();
        assert_eq!(unique.len(), ways);
    }
}
