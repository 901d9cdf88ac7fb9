//! L2-driven candidate address filtering (Section 5.1).
//!
//! The L2 set-index bits are a subset of the LLC/SF set-index bits, so two
//! addresses that are *not* congruent in the L2 cannot be congruent in the
//! LLC/SF. The attacker therefore first builds an L2 eviction set (cheap:
//! the L2 is private and has uncertainty 16), then keeps only the candidates
//! that this L2 eviction set can evict. The filtered candidate set is ~16×
//! smaller, which makes every downstream pruning algorithm both faster and
//! more noise-resilient.
//!
//! For bulk construction the same 16 filtered groups (one per L2 set at a
//! page offset) are reused for every LLC/SF set, and the page-offset-δ trick
//! (Section 5.3.1) extends them to all 64 page offsets without re-filtering.

use crate::algorithms::{BinarySearch, PruningAlgorithm};
use crate::candidates::CandidateSet;
use crate::config::{EvsetConfig, TargetCache};
use crate::error::EvsetError;
use crate::evset::EvictionSet;
use crate::test_eviction::parallel_test_eviction;
use llc_machine::Machine;
use llc_cache_model::VirtAddr;

/// A group of candidates that share one L2 set, together with the L2
/// eviction set that defines the group.
#[derive(Debug, Clone)]
pub struct FilterGroup {
    /// The L2 eviction set used to recognise members of this group.
    pub l2_eviction_set: EvictionSet,
    /// The address the L2 eviction set was built for.
    pub representative: VirtAddr,
    /// Candidates congruent with the representative in the L2.
    pub candidates: Vec<VirtAddr>,
}

/// The result of partitioning a candidate set by L2 congruence.
#[derive(Debug, Clone)]
pub struct FilteredCandidates {
    /// One group per discovered L2 set (up to `U_L2` groups).
    pub groups: Vec<FilterGroup>,
    /// Cycles spent building L2 eviction sets and filtering.
    pub elapsed_cycles: u64,
}

impl FilteredCandidates {
    /// Total number of candidates across all groups.
    pub fn total_candidates(&self) -> usize {
        self.groups.iter().map(|g| g.candidates.len()).sum()
    }

    /// Returns a shifted copy of every group, moving all candidate addresses
    /// by `delta` bytes within their pages (Section 5.3.1). The L2 eviction
    /// sets are shifted as well, preserving their congruence.
    pub fn shifted(&self, delta: i64) -> FilteredCandidates {
        let shift = |va: VirtAddr| VirtAddr::new((va.raw() as i64 + delta) as u64);
        let groups = self
            .groups
            .iter()
            .map(|g| FilterGroup {
                l2_eviction_set: EvictionSet::new(
                    g.l2_eviction_set.addresses().iter().copied().map(shift).collect(),
                    TargetCache::L2,
                ),
                representative: shift(g.representative),
                candidates: g.candidates.iter().copied().map(shift).collect(),
            })
            .collect();
        FilteredCandidates { groups, elapsed_cycles: 0 }
    }
}

/// Builds an L2 eviction set for `ta` from candidates at the same page offset.
///
/// Uses the binary-search pruning algorithm, which is the fastest available;
/// the choice does not affect the downstream LLC/SF construction.
///
/// # Errors
///
/// Propagates the pruning algorithm's errors (timeout, insufficient
/// candidates, ...).
pub fn build_l2_eviction_set(
    machine: &mut Machine,
    ta: VirtAddr,
    candidates: &[VirtAddr],
    config: &EvsetConfig,
    deadline: u64,
) -> Result<EvictionSet, EvsetError> {
    let algorithm = BinarySearch::new();
    let needed = config.candidate_count(machine.spec(), TargetCache::L2);
    let pool: Vec<VirtAddr> = candidates.iter().copied().take(needed.max(candidates.len().min(needed))).collect();
    // An attempt can fail verification: background noise can back-invalidate
    // candidates out of the L2 mid-test, and under a non-LRU policy
    // (`--replacement tree-plru`, `srrip`, ...) W congruent lines need not
    // evict the target. Every preset's L2 is LRU; allow a few retries.
    let mut last_err = EvsetError::VerificationFailed;
    for _ in 0..3 {
        match algorithm.prune(machine, ta, &pool, TargetCache::L2, config, deadline) {
            Ok(outcome) => return Ok(outcome.eviction_set),
            Err(e @ EvsetError::Timeout { .. }) => return Err(e),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Filters `candidates`, keeping only those the `l2_eviction_set` can evict
/// (i.e. those congruent with its target in the L2).
///
/// Returns the kept candidates and the cycles spent filtering.
pub fn filter_candidates(
    machine: &mut Machine,
    l2_eviction_set: &EvictionSet,
    candidates: &[VirtAddr],
) -> (Vec<VirtAddr>, u64) {
    let start = machine.now();
    let kept = candidates
        .iter()
        .copied()
        .filter(|&c| {
            !l2_eviction_set.contains(c)
                && parallel_test_eviction(machine, c, l2_eviction_set.addresses(), TargetCache::L2)
        })
        .collect();
    (kept, machine.now() - start)
}

/// Partitions a candidate set into per-L2-set groups (at most `U_L2` groups),
/// building one L2 eviction set per group.
///
/// # Errors
///
/// Returns an error if even the first L2 eviction set cannot be built.
/// Groups after the first are best-effort: the function stops early if the
/// remaining pool becomes too small.
pub fn partition_by_l2(
    machine: &mut Machine,
    candidates: &CandidateSet,
    config: &EvsetConfig,
    deadline: u64,
) -> Result<FilteredCandidates, EvsetError> {
    let start = machine.now();
    let u_l2 = TargetCache::L2.uncertainty(machine.spec());
    let l2_ways = TargetCache::L2.ways(machine.spec());
    let mut remaining: Vec<VirtAddr> = candidates.addresses().to_vec();
    let mut groups: Vec<FilterGroup> = Vec::with_capacity(u_l2);

    while groups.len() < u_l2 && remaining.len() > 2 * l2_ways {
        let representative = remaining[0];
        let pool: Vec<VirtAddr> = remaining[1..].to_vec();
        let l2_set = match build_l2_eviction_set(machine, representative, &pool, config, deadline) {
            Ok(set) => set,
            Err(e) if groups.is_empty() => return Err(e),
            Err(_) => break,
        };
        let (mut members, _) = filter_candidates(machine, &l2_set, &pool);
        members.insert(0, representative);
        remaining.retain(|a| !members.contains(a) && !l2_set.contains(*a));
        groups.push(FilterGroup { l2_eviction_set: l2_set, representative, candidates: members });
    }

    Ok(FilteredCandidates { groups, elapsed_cycles: machine.now() - start })
}

/// Filters candidates for a *single* target address: builds an L2 eviction
/// set for `ta` and returns the candidates congruent with it in the L2.
///
/// This is the per-set filtering cost measured in the paper's `SingleSet`
/// scenario (~22.3 ms on Cloud Run).
///
/// # Errors
///
/// Propagates L2 eviction-set construction failures.
pub fn filter_for_target(
    machine: &mut Machine,
    ta: VirtAddr,
    candidates: &[VirtAddr],
    config: &EvsetConfig,
    deadline: u64,
) -> Result<(Vec<VirtAddr>, u64), EvsetError> {
    let start = machine.now();
    let l2_set = build_l2_eviction_set(machine, ta, candidates, config, deadline)?;
    let (kept, _) = filter_candidates(machine, &l2_set, candidates);
    Ok((kept, machine.now() - start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_cache_model::CacheSpec;
    use llc_machine::NoiseModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn quiet_machine(seed: u64) -> Machine {
        Machine::builder(CacheSpec::tiny_test()).noise(NoiseModel::silent()).seed(seed).build()
    }

    #[test]
    fn filtered_candidates_are_l2_congruent_with_target() {
        let mut m = quiet_machine(51);
        let mut rng = SmallRng::seed_from_u64(51);
        let cands = CandidateSet::allocate(&mut m, 0x40, 256, &mut rng);
        let ta = cands.addresses()[0];
        let cfg = EvsetConfig::default();
        let deadline = m.now() + cfg.time_budget_cycles;
        let (kept, _cycles) =
            filter_for_target(&mut m, ta, &cands.addresses()[1..], &cfg, deadline).expect("filtering works");
        assert!(!kept.is_empty());
        let ta_l2 = m.oracle_attacker_l2_set(ta);
        for &c in &kept {
            assert_eq!(m.oracle_attacker_l2_set(c), ta_l2, "kept candidate in wrong L2 set");
        }
    }

    #[test]
    fn filtering_keeps_llc_congruent_candidates() {
        // The point of the filter: it must never discard addresses congruent
        // with the target in the LLC/SF.
        let mut m = quiet_machine(52);
        let mut rng = SmallRng::seed_from_u64(52);
        let cands = CandidateSet::allocate(&mut m, 0x80, 256, &mut rng);
        let ta = cands.addresses()[0];
        let cfg = EvsetConfig::default();
        let deadline = m.now() + cfg.time_budget_cycles;
        let (kept, _) =
            filter_for_target(&mut m, ta, &cands.addresses()[1..], &cfg, deadline).expect("filtering works");
        let loc = m.oracle_attacker_location(ta);
        let truly_congruent: Vec<_> = cands.addresses()[1..]
            .iter()
            .filter(|&&c| m.oracle_attacker_location(c) == loc)
            .collect();
        let lost = truly_congruent.iter().filter(|&&&c| !kept.contains(&c)).count();
        // A small number may be lost to unlucky jitter; the bulk must survive.
        assert!(
            lost * 10 <= truly_congruent.len(),
            "filter lost {lost} of {} congruent candidates",
            truly_congruent.len()
        );
    }

    #[test]
    fn partition_covers_every_l2_set() {
        let mut m = quiet_machine(53);
        let mut rng = SmallRng::seed_from_u64(53);
        let cands = CandidateSet::allocate(&mut m, 0x0, 384, &mut rng);
        let cfg = EvsetConfig::default();
        let deadline = m.now() + 10 * cfg.time_budget_cycles;
        let filtered = partition_by_l2(&mut m, &cands, &cfg, deadline).expect("partition works");
        // The tiny machine has U_L2 = 1, so everything lands in one group.
        assert_eq!(filtered.groups.len(), m.spec().l2.uncertainty());
        assert!(filtered.total_candidates() > 0);
        // Each group's members must share the representative's L2 set.
        for g in &filtered.groups {
            let set = m.oracle_attacker_l2_set(g.representative);
            for &c in &g.candidates {
                assert_eq!(m.oracle_attacker_l2_set(c), set);
            }
        }
    }

    #[test]
    fn shifted_groups_preserve_l2_congruence() {
        let mut m = quiet_machine(54);
        let mut rng = SmallRng::seed_from_u64(54);
        let cands = CandidateSet::allocate(&mut m, 0x0, 256, &mut rng);
        let cfg = EvsetConfig::default();
        let deadline = m.now() + 10 * cfg.time_budget_cycles;
        let filtered = partition_by_l2(&mut m, &cands, &cfg, deadline).expect("partition works");
        let shifted = filtered.shifted(128);
        for (g, s) in filtered.groups.iter().zip(&shifted.groups) {
            assert_eq!(g.candidates.len(), s.candidates.len());
            for (&a, &b) in g.candidates.iter().zip(&s.candidates) {
                assert_eq!(b.raw() - a.raw(), 128);
                // Shifting within the page preserves L2 congruence classes.
                assert_eq!(
                    m.oracle_attacker_l2_set(a) == m.oracle_attacker_l2_set(g.representative),
                    m.oracle_attacker_l2_set(b) == m.oracle_attacker_l2_set(s.representative)
                );
            }
        }
    }
}
