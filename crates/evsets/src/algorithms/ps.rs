//! Prime+Scope-style address pruning (`Ps` and `PsOp`).
//!
//! Prime+Scope [Purnal et al. 2021] finds congruent addresses one at a time:
//! after loading the target, it accesses candidates sequentially and checks
//! after every access whether the target is still cached. The check is an
//! inherently *sequential* `TestEviction`, which is why the paper finds the
//! approach fragile under Cloud Run noise (Section 4.2): the longer scan gives
//! other tenants many opportunities to evict the target themselves, producing
//! false congruent addresses.
//!
//! `PsOp` (Appendix A) additionally "recharges" the front of the candidate
//! list after each hit by moving addresses from the back towards the front,
//! so later searches do not have to scan ever deeper.

use super::{check_deadline, verify_set, PruneOutcome, PruningAlgorithm};
use crate::config::{EvsetConfig, TargetCache};
use crate::error::EvsetError;
use crate::evset::EvictionSet;
use crate::test_eviction::{eviction_threshold, load_target};
use llc_machine::Machine;
use llc_cache_model::VirtAddr;

/// The Prime+Scope pruning algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimeScope {
    recharge_front: bool,
    /// How many addresses are moved from the back of the list to the scan
    /// position after each congruent address is found (only for `PsOp`).
    recharge_batch: usize,
}

impl PrimeScope {
    /// The baseline `Ps`: candidates are scanned from the head after every
    /// find, with found addresses removed.
    pub fn baseline() -> Self {
        Self { recharge_front: false, recharge_batch: 0 }
    }

    /// The optimised `PsOp`: the front of the list is recharged with
    /// addresses from the back after each find.
    pub fn optimized() -> Self {
        Self { recharge_front: true, recharge_batch: 64 }
    }
}

impl PruningAlgorithm for PrimeScope {
    fn name(&self) -> &'static str {
        if self.recharge_front {
            "PsOp"
        } else {
            "Ps"
        }
    }

    fn prune(
        &self,
        machine: &mut Machine,
        ta: VirtAddr,
        candidates: &[VirtAddr],
        target: TargetCache,
        config: &EvsetConfig,
        deadline: u64,
    ) -> Result<PruneOutcome, EvsetError> {
        let start = machine.now();
        let ways = target.ways(machine.spec());
        if candidates.len() < ways {
            return Err(EvsetError::InsufficientCandidates {
                found: candidates.len(),
                required: ways,
            });
        }

        let threshold = eviction_threshold(machine, target);
        let mut list: Vec<VirtAddr> = candidates.to_vec();
        let mut evset: Vec<VirtAddr> = Vec::with_capacity(ways);
        let mut tests = 0u32;

        let prev_echo = machine.helper_echo();
        let result = (|| {
            while evset.len() < ways {
                check_deadline(machine, start, deadline)?;
                // (Re-)load the target, prime it as the eviction candidate of
                // its set, and scan from the head of the list. Every scope
                // check re-establishes the eviction-candidate state, exactly
                // like Prime+Scope's priming pattern.
                load_target(machine, ta, target);
                machine.prime_as_victim(ta);
                machine.set_helper_echo(target == TargetCache::Llc);
                let mut found_at: Option<usize> = None;
                for (idx, &candidate) in list.iter().enumerate() {
                    if idx % 64 == 0 {
                        check_deadline(machine, start, deadline)?;
                    }
                    machine.access(candidate);
                    let (latency, _) = machine.scope_check(ta);
                    tests += 1;
                    if latency >= threshold {
                        found_at = Some(idx);
                        break;
                    }
                }
                machine.set_helper_echo(prev_echo);
                match found_at {
                    Some(idx) => {
                        let congruent = list.remove(idx);
                        evset.push(congruent);
                        if self.recharge_front && !list.is_empty() {
                            let take = self.recharge_batch.min(list.len().saturating_sub(idx));
                            // Move `take` addresses from the back of the list
                            // to the position where the scan stopped.
                            for k in 0..take {
                                let last = list.pop().expect("list non-empty");
                                list.insert((idx + k).min(list.len()), last);
                            }
                        }
                    }
                    None => {
                        return Err(EvsetError::InsufficientCandidates {
                            found: evset.len(),
                            required: ways,
                        })
                    }
                }
            }
            Ok(())
        })();
        machine.set_helper_echo(prev_echo);
        result?;

        if !verify_set(machine, ta, &evset, target, config) {
            return Err(EvsetError::VerificationFailed);
        }
        Ok(PruneOutcome {
            eviction_set: EvictionSet::new(evset, target),
            test_evictions: tests,
            backtracks: 0,
            elapsed_cycles: machine.now() - start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSet;
    use crate::test_eviction::oracle;
    use llc_cache_model::CacheSpec;
    use llc_machine::NoiseModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run(ps: PrimeScope, seed: u64) -> (Machine, VirtAddr, Result<PruneOutcome, EvsetError>) {
        let mut m =
            Machine::builder(CacheSpec::tiny_test()).noise(NoiseModel::silent()).seed(seed).build();
        let mut rng = SmallRng::seed_from_u64(seed);
        let cands = CandidateSet::allocate(&mut m, 0x80, 256, &mut rng);
        let ta = cands.addresses()[0];
        let rest: Vec<VirtAddr> = cands.addresses()[1..].to_vec();
        let cfg = EvsetConfig::default();
        let deadline = m.now() + cfg.time_budget_cycles;
        let out = ps.prune(&mut m, ta, &rest, TargetCache::Llc, &cfg, deadline);
        (m, ta, out)
    }

    #[test]
    fn ps_builds_true_eviction_set_in_quiet_environment() {
        let (m, ta, out) = run(PrimeScope::baseline(), 31);
        let out = out.expect("Ps should succeed without noise");
        let w = m.spec().llc.ways();
        assert_eq!(out.eviction_set.len(), w);
        assert!(oracle::is_true_eviction_set(&m, ta, out.eviction_set.addresses(), w));
    }

    #[test]
    fn psop_builds_true_eviction_set_in_quiet_environment() {
        let (m, ta, out) = run(PrimeScope::optimized(), 32);
        let out = out.expect("PsOp should succeed without noise");
        let w = m.spec().llc.ways();
        assert!(oracle::is_true_eviction_set(&m, ta, out.eviction_set.addresses(), w));
    }

    #[test]
    fn ps_uses_more_scope_checks_than_ways() {
        let (m, _ta, out) = run(PrimeScope::baseline(), 33);
        let out = out.expect("Ps should succeed");
        assert!(out.test_evictions as usize > m.spec().llc.ways());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(PrimeScope::baseline().name(), "Ps");
        assert_eq!(PrimeScope::optimized().name(), "PsOp");
    }

    #[test]
    fn insufficient_candidates_detected() {
        let mut m =
            Machine::builder(CacheSpec::tiny_test()).noise(NoiseModel::silent()).seed(7).build();
        let mut rng = SmallRng::seed_from_u64(7);
        let cands = CandidateSet::allocate(&mut m, 0x0, 3, &mut rng);
        let cfg = EvsetConfig::default();
        let out = PrimeScope::baseline().prune(
            &mut m,
            cands.addresses()[0],
            &cands.addresses()[1..],
            TargetCache::Llc,
            &cfg,
            u64::MAX / 4,
        );
        assert!(matches!(out, Err(EvsetError::InsufficientCandidates { .. })));
    }
}
