//! The `TestEviction` primitive (Section 4.1).
//!
//! Every address-pruning algorithm is built on one operation: *after touching
//! a set of candidate addresses, is a target line still cached?* The paper
//! distinguishes
//!
//! * **sequential** `TestEviction` — a pointer-chase over the candidates,
//!   slow but required by Prime+Scope's per-candidate checks; and
//! * **parallel** `TestEviction` — overlapped accesses that exploit
//!   memory-level parallelism and run an order of magnitude faster, which is
//!   what makes the test usable at Cloud Run noise levels.
//!
//! The primitive's latency matters twice: it bounds the end-to-end
//! construction time, and the longer it runs the more likely another tenant
//! touches the set mid-test and corrupts the answer.

use crate::config::TargetCache;
use llc_machine::{Machine, TraversalPlan};
use llc_cache_model::VirtAddr;

/// How candidate addresses are traversed by `TestEviction`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalOrder {
    /// Overlapped accesses exploiting memory-level parallelism.
    Parallel,
    /// Serialised pointer-chase accesses.
    Sequential,
}

/// Detection threshold (cycles, timed access) for "the target was evicted
/// from `target`" on this machine.
pub fn eviction_threshold(machine: &Machine, target: TargetCache) -> u64 {
    match target {
        TargetCache::L2 => machine.latency_model().private_miss_threshold(),
        TargetCache::Llc | TargetCache::Sf => machine.latency_model().llc_miss_threshold(),
    }
}

/// Brings the target address into the state from which eviction is tested:
///
/// * `Llc`: Shared and LLC-resident (the helper thread echoes the access);
/// * `Sf`: Exclusive in the attacker's private caches and SF-tracked
///   (flushed first so a stale Shared copy cannot linger);
/// * `L2`: resident in the attacker's L2.
pub fn load_target(machine: &mut Machine, ta: VirtAddr, target: TargetCache) {
    let prev = machine.helper_echo();
    match target {
        TargetCache::Llc => {
            machine.set_helper_echo(true);
            machine.access(ta);
        }
        TargetCache::Sf => {
            machine.set_helper_echo(false);
            machine.clflush(ta);
            machine.access(ta);
        }
        TargetCache::L2 => {
            machine.set_helper_echo(false);
            machine.access(ta);
        }
    }
    machine.set_helper_echo(prev);
}

/// Runs one `TestEviction`: loads `ta`, traverses `candidates`, and reports
/// whether `ta` was evicted from `target`.
///
/// Returns `(evicted, elapsed_cycles)`.
///
/// When the same candidate set (or many subsets of one pool) is tested
/// repeatedly, prefer [`test_eviction_plan`] with a reused
/// [`TraversalPlan`]: it skips the per-call VA translation, slice hashing
/// and touched-set sorting while producing bit-identical simulation
/// behaviour.
pub fn test_eviction(
    machine: &mut Machine,
    ta: VirtAddr,
    candidates: &[VirtAddr],
    target: TargetCache,
    order: TraversalOrder,
) -> (bool, u64) {
    let start = machine.now();
    let prev = machine.helper_echo();
    if target == TargetCache::Sf {
        // Snoop-filter tests need the candidate lines to allocate SF entries.
        // Lines left Shared (LLC-resident, possibly still cached by the
        // helper core) from earlier LLC-level work would not, so reset them —
        // mirroring the real attack, which stops the helper thread and
        // flushes its working set before switching to SF priming.
        for &c in candidates {
            machine.clflush(c);
        }
    }
    load_target(machine, ta, target);
    machine.set_helper_echo(target == TargetCache::Llc);
    // Every preset's L2 is LRU, where one pass over W congruent lines
    // evicts the target. Under a non-LRU L2 (`--replacement`) one pass does
    // not reliably evict it, so L2 tests traverse the candidates twice, as
    // real eviction-set code does to defeat non-LRU policies.
    let passes = if target == TargetCache::L2 { 2 } else { 1 };
    for _ in 0..passes {
        match order {
            TraversalOrder::Parallel => {
                machine.parallel_traverse(candidates);
            }
            TraversalOrder::Sequential => {
                machine.sequential_traverse(candidates);
            }
        }
    }
    let (latency, _level) = machine.timed_access(ta);
    machine.set_helper_echo(prev);
    let evicted = latency >= eviction_threshold(machine, target);
    (evicted, machine.now() - start)
}

/// [`test_eviction`] over a compiled [`TraversalPlan`] (the candidates are
/// `plan.addresses()`). Pruning loops compile each candidate subset into a
/// reused plan and test through this entry point, so the per-test
/// translation/sort overhead is paid once per subset instead of once per
/// traversal pass — and the simulated behaviour is bit-identical to the
/// slice-based path.
pub fn test_eviction_plan(
    machine: &mut Machine,
    ta: VirtAddr,
    plan: &TraversalPlan,
    target: TargetCache,
    order: TraversalOrder,
) -> (bool, u64) {
    let start = machine.now();
    let prev = machine.helper_echo();
    if target == TargetCache::Sf {
        // See `test_eviction`: SF tests reset Shared candidate lines first.
        for &c in plan.addresses() {
            machine.clflush(c);
        }
    }
    load_target(machine, ta, target);
    machine.set_helper_echo(target == TargetCache::Llc);
    let passes = if target == TargetCache::L2 { 2 } else { 1 };
    for _ in 0..passes {
        match order {
            TraversalOrder::Parallel => {
                machine.parallel_traverse_plan(plan);
            }
            TraversalOrder::Sequential => {
                machine.sequential_traverse_plan(plan);
            }
        }
    }
    let (latency, _level) = machine.timed_access(ta);
    machine.set_helper_echo(prev);
    let evicted = latency >= eviction_threshold(machine, target);
    (evicted, machine.now() - start)
}

/// Convenience wrapper for the parallel variant, returning only the verdict.
pub fn parallel_test_eviction(
    machine: &mut Machine,
    ta: VirtAddr,
    candidates: &[VirtAddr],
    target: TargetCache,
) -> bool {
    test_eviction(machine, ta, candidates, target, TraversalOrder::Parallel).0
}

/// Convenience wrapper for the sequential variant, returning only the verdict.
pub fn sequential_test_eviction(
    machine: &mut Machine,
    ta: VirtAddr,
    candidates: &[VirtAddr],
    target: TargetCache,
) -> bool {
    test_eviction(machine, ta, candidates, target, TraversalOrder::Sequential).0
}

/// Ground-truth helpers used to *validate* constructed eviction sets in tests
/// and experiment harnesses. The attack algorithms never call these.
pub mod oracle {
    use super::*;
    use crate::evset::EvictionSet;
    use llc_cache_model::SetLocation;
    use std::collections::BTreeMap;

    /// Returns the candidates that are truly congruent with `ta` in the
    /// LLC/SF (same slice and set), according to the simulator's page tables.
    pub fn congruent_with(machine: &Machine, ta: VirtAddr, candidates: &[VirtAddr]) -> Vec<VirtAddr> {
        let loc = machine.oracle_attacker_location(ta);
        candidates
            .iter()
            .copied()
            .filter(|&c| machine.oracle_attacker_location(c) == loc)
            .collect()
    }

    /// Groups candidates by their true (slice, set) location, in ascending
    /// location order, each group in candidate order. The order is fixed, so
    /// callers that pick or order sets by it are deterministic.
    pub fn group_by_location(
        machine: &Machine,
        candidates: &[VirtAddr],
    ) -> BTreeMap<SetLocation, Vec<VirtAddr>> {
        let mut map: BTreeMap<SetLocation, Vec<VirtAddr>> = BTreeMap::new();
        for &c in candidates {
            map.entry(machine.oracle_attacker_location(c)).or_default().push(c);
        }
        map
    }

    /// The first SF-ways `candidates` congruent with `location`, as an SF
    /// eviction set for it, or `None` when fewer are congruent: how the
    /// harnesses that take Step 1 as given aim a monitor at a known set.
    pub fn sf_eviction_set(
        machine: &Machine,
        location: SetLocation,
        candidates: &[VirtAddr],
    ) -> Option<EvictionSet> {
        let ways = machine.spec().sf.ways();
        let members: Vec<VirtAddr> = candidates
            .iter()
            .copied()
            .filter(|&c| machine.oracle_attacker_location(c) == location)
            .take(ways)
            .collect();
        (members.len() == ways).then(|| EvictionSet::new(members, TargetCache::Sf))
    }

    /// True if every member of `set` is congruent with `ta` and the set has
    /// at least `required` members: the definition of a correct minimal
    /// eviction set used for success-rate accounting.
    pub fn is_true_eviction_set(
        machine: &Machine,
        ta: VirtAddr,
        set: &[VirtAddr],
        required: usize,
    ) -> bool {
        let loc = machine.oracle_attacker_location(ta);
        set.len() >= required && set.iter().all(|&a| machine.oracle_attacker_location(a) == loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_cache_model::CacheSpec;
    use llc_machine::NoiseModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn machine() -> Machine {
        Machine::builder(CacheSpec::tiny_test()).noise(NoiseModel::silent()).seed(11).build()
    }

    /// Allocates pages and returns (target, congruent addresses, non-congruent addresses).
    fn setup(m: &mut Machine, congruent: usize, other: usize) -> (VirtAddr, Vec<VirtAddr>, Vec<VirtAddr>) {
        let mut rng = SmallRng::seed_from_u64(5);
        let cands =
            crate::candidates::CandidateSet::allocate(m, 0x40, 4096, &mut rng);
        let ta = cands.addresses()[0];
        let cong: Vec<VirtAddr> = oracle::congruent_with(m, ta, &cands.addresses()[1..]);
        assert!(cong.len() >= congruent, "not enough congruent addresses in fixture");
        let non: Vec<VirtAddr> = cands.addresses()[1..]
            .iter()
            .copied()
            .filter(|c| !cong.contains(c))
            .take(other)
            .collect();
        (ta, cong.into_iter().take(congruent).collect(), non)
    }

    #[test]
    fn congruent_addresses_evict_llc_target() {
        let mut m = machine();
        let w = m.spec().llc.ways();
        let (ta, cong, _) = setup(&mut m, w + 1, 0);
        assert!(parallel_test_eviction(&mut m, ta, &cong, TargetCache::Llc));
    }

    #[test]
    fn non_congruent_addresses_do_not_evict_llc_target() {
        let mut m = machine();
        let (ta, _, non) = setup(&mut m, 1, 40);
        assert!(!parallel_test_eviction(&mut m, ta, &non, TargetCache::Llc));
    }

    #[test]
    fn sf_target_evicted_by_sf_ways_congruent_lines() {
        let mut m = machine();
        let w = m.spec().sf.ways();
        let (ta, cong, _) = setup(&mut m, w, 0);
        assert!(parallel_test_eviction(&mut m, ta, &cong, TargetCache::Sf));
        // One fewer congruent address fills the set exactly (together with the
        // target) and must not evict it.
        assert!(!parallel_test_eviction(&mut m, ta, &cong[..w - 1], TargetCache::Sf));
    }

    /// The plan-based entry point must be observationally identical to the
    /// slice-based one: same verdicts, same elapsed cycles, same downstream
    /// machine state (checked through the next timed access).
    #[test]
    fn plan_based_test_eviction_is_bit_identical() {
        let mut a = machine();
        let mut b = machine();
        let w = a.spec().llc.ways();
        let (ta_a, cong_a, _) = setup(&mut a, w + 1, 0);
        let (ta_b, cong_b, _) = setup(&mut b, w + 1, 0);
        assert_eq!(ta_a, ta_b);
        for target in [TargetCache::Llc, TargetCache::Sf] {
            for order in [TraversalOrder::Parallel, TraversalOrder::Sequential] {
                let (ev_a, t_a) = test_eviction(&mut a, ta_a, &cong_a, target, order);
                let plan = b.compile_plan(&cong_b);
                let (ev_b, t_b) = test_eviction_plan(&mut b, ta_b, &plan, target, order);
                assert_eq!(ev_a, ev_b, "{target:?}/{order:?} verdict diverged");
                assert_eq!(t_a, t_b, "{target:?}/{order:?} elapsed cycles diverged");
            }
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.timed_access(ta_a), b.timed_access(ta_b));
    }

    #[test]
    fn sequential_and_parallel_agree_but_parallel_is_faster() {
        let mut m = machine();
        let w = m.spec().llc.ways();
        let (ta, cong, non) = setup(&mut m, w + 1, 30);
        let mut all: Vec<VirtAddr> = cong.clone();
        all.extend(non);
        let (ev_par, t_par) = test_eviction(&mut m, ta, &all, TargetCache::Llc, TraversalOrder::Parallel);
        let (ev_seq, t_seq) = test_eviction(&mut m, ta, &all, TargetCache::Llc, TraversalOrder::Sequential);
        assert!(ev_par && ev_seq);
        assert!(t_par < t_seq, "parallel {t_par} should beat sequential {t_seq}");
    }

    #[test]
    fn l2_test_detects_l2_eviction() {
        let mut m = machine();
        let mut rng = SmallRng::seed_from_u64(9);
        let cands = crate::candidates::CandidateSet::allocate(&mut m, 0x80, 512, &mut rng);
        let ta = cands.addresses()[0];
        // All candidates at one page offset share the same L2 set on the tiny
        // machine only if their set-index bits match; gather true L2-congruent
        // ones via the oracle.
        let l2_set = m.oracle_attacker_l2_set(ta);
        let cong: Vec<VirtAddr> = cands.addresses()[1..]
            .iter()
            .copied()
            .filter(|&c| m.oracle_attacker_l2_set(c) == l2_set)
            .take(m.spec().l2.ways() + 1)
            .collect();
        assert!(parallel_test_eviction(&mut m, ta, &cong, TargetCache::L2));
        assert!(!parallel_test_eviction(&mut m, ta, &cong[..2], TargetCache::L2));
    }

    #[test]
    fn oracle_validation_helpers() {
        let mut m = machine();
        let (ta, cong, non) = setup(&mut m, 4, 4);
        assert!(oracle::is_true_eviction_set(&m, ta, &cong, 4));
        assert!(!oracle::is_true_eviction_set(&m, ta, &non, 4));
        let groups = oracle::group_by_location(&m, &cong);
        assert_eq!(groups.len(), 1);
    }

    /// The selector takes the first SF-ways congruent candidates, in
    /// candidate order, and declines a set with fewer.
    #[test]
    fn sf_eviction_set_takes_the_first_congruent_candidates() {
        let mut m = machine();
        let w = m.spec().sf.ways();
        let (ta, cong, non) = setup(&mut m, w + 1, 8);
        let loc = m.oracle_attacker_location(ta);
        let mut pool = non.clone();
        pool.extend(&cong);
        let set = oracle::sf_eviction_set(&m, loc, &pool).expect("w + 1 congruent candidates");
        assert_eq!(set.addresses(), &cong[..w]);
        assert_eq!(set.target(), TargetCache::Sf);
        assert!(oracle::sf_eviction_set(&m, loc, &cong[..w - 1]).is_none());
        assert!(oracle::sf_eviction_set(&m, loc, &non).is_none());
    }

    /// Groups come back in ascending location order, so set choices made by
    /// walking them do not change from process to process (a `HashMap`
    /// iterates in a per-process random order).
    #[test]
    fn groups_come_back_in_ascending_location_order() {
        let spec = CacheSpec::skylake_sp(4, 4);
        let mut m = Machine::builder(spec.clone()).noise(NoiseModel::silent()).seed(3).build();
        let mut rng = SmallRng::seed_from_u64(3);
        let count = crate::config::EvsetConfig::default().candidate_count(&spec, TargetCache::Sf);
        let pool = crate::candidates::CandidateSet::allocate(&mut m, 0x240, count, &mut rng);
        let groups = oracle::group_by_location(&m, pool.addresses());
        let keys: Vec<_> = groups.keys().copied().collect();
        assert!(keys.len() > 1);
        assert!(keys.windows(2).all(|k| k[0] < k[1]), "keys out of order: {keys:?}");
    }

    #[test]
    fn thresholds_differ_by_target() {
        let m = machine();
        assert!(eviction_threshold(&m, TargetCache::L2) < eviction_threshold(&m, TargetCache::Llc));
        assert_eq!(
            eviction_threshold(&m, TargetCache::Llc),
            eviction_threshold(&m, TargetCache::Sf)
        );
    }
}
