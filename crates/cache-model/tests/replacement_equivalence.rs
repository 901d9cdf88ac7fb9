//! Property-based equivalence of the flat, enum-dispatched replacement
//! policies against naive reference oracles.
//!
//! The SoA rewrite replaced per-set `Box<dyn ReplacementState>` objects with
//! `ReplacementKind` methods over packed `&mut [u64]` metadata (including a
//! SWAR nibble-packed LRU for ≤ 16 ways). These tests drive random
//! access/insert/demote/invalidate streams through a one-set cache arena and
//! through small, obviously-correct oracle models — an explicit `VecDeque`
//! recency list for LRU, a `Vec<bool>` node tree for Tree-PLRU, and a
//! `Vec<u8>` age array for QLRU — asserting the same victims, evictions and
//! residency at every step. Any packing or dispatch bug that changes
//! semantics (and would silently invalidate the golden experiment outputs)
//! surfaces here as a divergence.

use llc_cache_model::{LineAddr, ReplacementKind, SetArena};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One operation of a random stream. Lines are small integers; the set is a
/// single cache set, so every line is congruent with every other.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert (or re-touch) line `n`.
    Insert(u64),
    /// Look up line `n` (recency update on hit, no fill on miss).
    Lookup(u64),
    /// Mark line `n` as the next victim, if present.
    Demote(u64),
    /// Remove line `n`, if present.
    Invalidate(u64),
}

/// Decodes a raw `(selector, line)` pair — the offline proptest shim has no
/// `prop_map`, so op streams are generated as tuples and decoded here.
fn decode_op((kind, n): (u8, u64)) -> Op {
    match kind {
        0 => Op::Insert(n),
        1 => Op::Lookup(n),
        2 => Op::Demote(n),
        _ => Op::Invalidate(n),
    }
}

/// A reference cache set: explicit `(line)` per way plus an oracle policy.
struct OracleSet {
    ways: Vec<Option<u64>>,
    policy: Box<dyn OraclePolicy>,
}

/// Minimal reference policy interface mirroring the semantics the arena's
/// set views guarantee.
trait OraclePolicy {
    fn touch(&mut self, way: usize, is_fill: bool);
    fn victim(&mut self) -> usize;
    fn demote(&mut self, way: usize);
    /// Way metadata reset on invalidate (the arena marks the way as the
    /// preferred next victim).
    fn reset_way(&mut self, way: usize) {
        self.demote(way);
    }
}

/// True LRU as an explicit recency list (index 0 = MRU) — a transliteration
/// of the pre-SoA boxed implementation.
struct OracleLru {
    order: VecDeque<usize>,
}

impl OracleLru {
    fn new(ways: usize) -> Self {
        Self { order: (0..ways).collect() }
    }
}

impl OraclePolicy for OracleLru {
    fn touch(&mut self, way: usize, _is_fill: bool) {
        let pos = self.order.iter().position(|&w| w == way).expect("way tracked");
        self.order.remove(pos);
        self.order.push_front(way);
    }

    fn victim(&mut self) -> usize {
        *self.order.back().expect("never empty")
    }

    fn demote(&mut self, way: usize) {
        let pos = self.order.iter().position(|&w| w == way).expect("way tracked");
        self.order.remove(pos);
        self.order.push_back(way);
    }
}

/// Tree-PLRU over an explicit `Vec<bool>` node array — a transliteration of
/// the pre-SoA boxed implementation (bit true = victim search goes left).
struct OracleTreePlru {
    ways: usize,
    bits: Vec<bool>,
    leaves: usize,
}

impl OracleTreePlru {
    fn new(ways: usize) -> Self {
        let leaves = ways.next_power_of_two();
        Self { ways, bits: vec![false; leaves.max(2) - 1], leaves }
    }

    fn walk(&mut self, way: usize, toward: bool) {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = way >= mid;
            self.bits[node] = if toward { !go_right } else { go_right };
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
}

impl OraclePolicy for OracleTreePlru {
    fn touch(&mut self, way: usize, _is_fill: bool) {
        if way < self.ways {
            self.walk(way, false);
        }
    }

    fn victim(&mut self) -> usize {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_left = self.bits[node];
            node = 2 * node + if go_left { 1 } else { 2 };
            if go_left {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        if lo >= self.ways {
            0
        } else {
            lo
        }
    }

    fn demote(&mut self, way: usize) {
        if way < self.ways {
            self.walk(way, true);
        }
    }
}

/// QLRU as a naive byte-per-way age array: hit → 0, fill → 1, demote → 3,
/// victim = lowest way at age 3 after ageing everyone just enough for one
/// line to reach 3.
struct OracleQlru {
    age: Vec<u8>,
}

impl OracleQlru {
    fn new(ways: usize) -> Self {
        Self { age: vec![3; ways] }
    }
}

impl OraclePolicy for OracleQlru {
    fn touch(&mut self, way: usize, is_fill: bool) {
        self.age[way] = if is_fill { 1 } else { 0 };
    }

    fn victim(&mut self) -> usize {
        let oldest = *self.age.iter().max().expect("never empty");
        for a in &mut self.age {
            *a += 3 - oldest;
        }
        self.age.iter().position(|&a| a == 3).expect("one line aged to 3")
    }

    fn demote(&mut self, way: usize) {
        self.age[way] = 3;
    }
}

impl OracleSet {
    fn new(ways: usize, policy: Box<dyn OraclePolicy>) -> Self {
        Self { ways: vec![None; ways], policy }
    }

    fn find(&self, line: u64) -> Option<usize> {
        self.ways.iter().position(|w| *w == Some(line))
    }

    /// Mirrors `SetViewMut::insert`: hit → touch, else lowest free way,
    /// else policy victim. Returns the evicted line, if any.
    fn insert(&mut self, line: u64) -> Option<u64> {
        if let Some(way) = self.find(line) {
            self.policy.touch(way, false);
            return None;
        }
        if let Some(way) = self.ways.iter().position(|w| w.is_none()) {
            self.ways[way] = Some(line);
            self.policy.touch(way, true);
            return None;
        }
        let way = self.policy.victim();
        let evicted = self.ways[way].take();
        self.ways[way] = Some(line);
        self.policy.touch(way, true);
        evicted
    }

    fn lookup(&mut self, line: u64) -> bool {
        match self.find(line) {
            Some(way) => {
                self.policy.touch(way, false);
                true
            }
            None => false,
        }
    }

    fn demote(&mut self, line: u64) -> bool {
        match self.find(line) {
            Some(way) => {
                self.policy.demote(way);
                true
            }
            None => false,
        }
    }

    fn invalidate(&mut self, line: u64) -> bool {
        match self.find(line) {
            Some(way) => {
                self.ways[way] = None;
                self.policy.reset_way(way);
                true
            }
            None => false,
        }
    }
}

fn oracle_for(kind: ReplacementKind, ways: usize) -> Box<dyn OraclePolicy> {
    match kind {
        ReplacementKind::Lru => Box::new(OracleLru::new(ways)),
        ReplacementKind::TreePlru => Box::new(OracleTreePlru::new(ways)),
        ReplacementKind::Qlru => Box::new(OracleQlru::new(ways)),
        _ => panic!("no oracle for {kind:?}"),
    }
}

/// Drives the same op stream through a one-set arena and the oracle,
/// asserting identical evictions and residency after every operation.
fn check_equivalence(
    kind: ReplacementKind,
    ways: usize,
    raw_ops: &[(u8, u64)],
) -> Result<(), String> {
    let mut arena: SetArena<()> = SetArena::new(1, ways, kind, |_| 0);
    let mut oracle = OracleSet::new(ways, oracle_for(kind, ways));
    let line = LineAddr::from_line_number;
    for (step, op) in raw_ops.iter().map(|&raw| decode_op(raw)).enumerate() {
        match op {
            Op::Insert(n) => {
                let got = arena.view_mut(0).insert(line(n), ()).map(|e| e.line);
                let want = oracle.insert(n).map(line);
                prop_assert_eq!(got, want, "insert eviction diverged at step {} ({:?})", step, op);
            }
            Op::Lookup(n) => {
                let got = arena.view_mut(0).lookup(line(n)).is_some();
                let want = oracle.lookup(n);
                prop_assert_eq!(got, want, "lookup hit diverged at step {} ({:?})", step, op);
            }
            Op::Demote(n) => {
                let got = arena.view_mut(0).demote(line(n));
                let want = oracle.demote(n);
                prop_assert_eq!(got, want, "demote presence diverged at step {} ({:?})", step, op);
            }
            Op::Invalidate(n) => {
                let got = arena.view_mut(0).invalidate(line(n)).is_some();
                let want = oracle.invalidate(n);
                prop_assert_eq!(got, want, "invalidate diverged at step {} ({:?})", step, op);
            }
        }
        for n in 0..64 {
            prop_assert_eq!(
                arena.view(0).contains(line(n)),
                oracle.find(n).is_some(),
                "residency of line {} diverged after step {} ({:?})",
                n,
                step,
                op
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LRU: both the nibble-packed (≤ 16 ways) and per-word (> 16 ways)
    /// representations replay the explicit recency list exactly. The way
    /// counts cover the modelled hardware (8/11/12/16), the fallback and the
    /// single-lane packed word.
    #[test]
    fn lru_matches_recency_list_oracle(
        ways_idx in 0usize..8,
        ops in prop::collection::vec((0u8..4, 0u64..24), 1..400),
    ) {
        let ways = [1usize, 2, 5, 8, 11, 12, 16, 20][ways_idx];
        check_equivalence(ReplacementKind::Lru, ways, &ops)?;
    }

    /// Tree-PLRU matches the explicit node-array tree, including the
    /// non-power-of-two way counts that redirect out-of-range victims.
    #[test]
    fn tree_plru_matches_tree_oracle(
        ways_idx in 0usize..6,
        ops in prop::collection::vec((0u8..4, 0u64..24), 1..400),
    ) {
        let ways = [2usize, 3, 8, 11, 12, 16][ways_idx];
        check_equivalence(ReplacementKind::TreePlru, ways, &ops)?;
    }

    /// QLRU matches the naive byte-age model.
    #[test]
    fn qlru_matches_age_oracle(
        ways_idx in 0usize..5,
        ops in prop::collection::vec((0u8..4, 0u64..24), 1..400),
    ) {
        let ways = [2usize, 4, 8, 12, 16][ways_idx];
        check_equivalence(ReplacementKind::Qlru, ways, &ops)?;
    }
}
