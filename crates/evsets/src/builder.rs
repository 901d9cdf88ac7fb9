//! Single eviction-set construction pipeline: (optional) L2-driven candidate
//! filtering, address pruning into an LLC eviction set, and extension to an
//! SF eviction set — with retry and time-budget handling matching the paper's
//! experimental setup (Section 4.2: at most 10 attempts, per-set time budget).

use crate::algorithms::PruningAlgorithm;
use crate::candidates::CandidateSet;
use crate::config::{EvsetConfig, TargetCache};
use crate::error::EvsetError;
use crate::evset::EvictionSet;
use crate::filter::filter_for_target;
use crate::test_eviction::parallel_test_eviction;
use llc_machine::Machine;
use llc_cache_model::VirtAddr;
use rand::Rng;

/// Outcome of a single eviction-set construction (one target address).
#[derive(Debug, Clone)]
pub struct ConstructionResult {
    /// The constructed eviction set, if any attempt succeeded.
    pub eviction_set: Option<EvictionSet>,
    /// Number of attempts made (1..=max_attempts).
    pub attempts: u32,
    /// Total cycles spent, including filtering and all attempts.
    pub total_cycles: u64,
    /// Cycles spent in candidate filtering (0 when filtering is disabled).
    pub filter_cycles: u64,
    /// Cycles spent pruning (and extending to the SF).
    pub prune_cycles: u64,
    /// Backtracks across all attempts.
    pub backtracks: u32,
    /// `TestEviction` invocations across all attempts.
    pub test_evictions: u32,
    /// The error of the last attempt when construction failed.
    pub last_error: Option<EvsetError>,
}

impl ConstructionResult {
    /// True if an eviction set was produced.
    pub fn is_success(&self) -> bool {
        self.eviction_set.is_some()
    }
}

/// Builder that configures how eviction sets are constructed.
#[derive(Debug)]
pub struct EvsetBuilder<'a> {
    algorithm: &'a dyn PruningAlgorithm,
    config: EvsetConfig,
    target: TargetCache,
    filtering: bool,
}

impl<'a> EvsetBuilder<'a> {
    /// Creates a builder using `algorithm` to construct SF eviction sets with
    /// candidate filtering enabled (the paper's recommended configuration).
    pub fn new(algorithm: &'a dyn PruningAlgorithm) -> Self {
        Self { algorithm, config: EvsetConfig::filtered(), target: TargetCache::Sf, filtering: true }
    }

    /// Overrides the construction configuration.
    pub fn config(mut self, config: EvsetConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the target structure (default: the snoop filter).
    pub fn target(mut self, target: TargetCache) -> Self {
        self.target = target;
        self
    }

    /// Enables or disables L2-driven candidate filtering.
    pub fn filtering(mut self, enabled: bool) -> Self {
        self.filtering = enabled;
        self
    }

    /// The active configuration.
    pub fn config_ref(&self) -> &EvsetConfig {
        &self.config
    }

    /// The pruning algorithm's name.
    pub fn algorithm_name(&self) -> &'static str {
        self.algorithm.name()
    }

    /// Constructs one eviction set for the cache set that `ta` maps to, using
    /// `candidates` (all at `ta`'s page offset).
    pub fn build_for_target(
        &self,
        machine: &mut Machine,
        ta: VirtAddr,
        candidates: &[VirtAddr],
    ) -> ConstructionResult {
        let start = machine.now();
        let deadline = start + self.config.time_budget_cycles;
        let mut result = ConstructionResult {
            eviction_set: None,
            attempts: 0,
            total_cycles: 0,
            filter_cycles: 0,
            prune_cycles: 0,
            backtracks: 0,
            test_evictions: 0,
            last_error: None,
        };

        // Optional candidate filtering (done once; reused by every attempt).
        let pool: Vec<VirtAddr> = if self.filtering {
            match filter_for_target(machine, ta, candidates, &self.config, deadline) {
                Ok((kept, cycles)) => {
                    result.filter_cycles = cycles;
                    kept
                }
                Err(e) => {
                    result.last_error = Some(e);
                    result.total_cycles = machine.now() - start;
                    result.attempts = 1;
                    return result;
                }
            }
        } else {
            candidates.to_vec()
        };

        let prune_start = machine.now();
        while result.attempts < self.config.max_attempts && machine.now() <= deadline {
            result.attempts += 1;
            match self.build_once(machine, ta, &pool, deadline) {
                Ok((set, backtracks, tests)) => {
                    result.backtracks += backtracks;
                    result.test_evictions += tests;
                    result.eviction_set = Some(set);
                    break;
                }
                Err(e) => {
                    let fatal = matches!(e, EvsetError::Timeout { .. });
                    result.last_error = Some(e);
                    if fatal {
                        break;
                    }
                }
            }
        }
        result.prune_cycles = machine.now() - prune_start;
        result.total_cycles = machine.now() - start;
        result
    }

    /// One construction attempt: prune to the LLC level and, when the target
    /// is the SF, extend the LLC set with one extra congruent address.
    fn build_once(
        &self,
        machine: &mut Machine,
        ta: VirtAddr,
        pool: &[VirtAddr],
        deadline: u64,
    ) -> Result<(EvictionSet, u32, u32), EvsetError> {
        match self.target {
            TargetCache::L2 | TargetCache::Llc => {
                let out = self.algorithm.prune(machine, ta, pool, self.target, &self.config, deadline)?;
                Ok((out.eviction_set, out.backtracks, out.test_evictions))
            }
            TargetCache::Sf => {
                let out =
                    self.algorithm.prune(machine, ta, pool, TargetCache::Llc, &self.config, deadline)?;
                let mut tests = out.test_evictions;
                let sf_set =
                    extend_to_sf(machine, ta, &out.eviction_set, pool, deadline, &mut tests)?;
                Ok((sf_set, out.backtracks, tests))
            }
        }
    }

    /// Convenience entry point for the `SingleSet` scenario: allocates a fresh
    /// candidate set at a random page offset, picks a random target address
    /// from it and constructs an eviction set for that address.
    pub fn build_random_set(&self, machine: &mut Machine, rng: &mut impl Rng) -> ConstructionResult {
        let page_offset = (rng.gen_range(0..llc_cache_model::LINES_PER_PAGE)) * llc_cache_model::LINE_SIZE;
        let count = self.config.candidate_count(machine.spec(), self.target);
        let candidates = CandidateSet::allocate(machine, page_offset, count, rng);
        let ta = candidates.addresses()[0];
        self.build_for_target(machine, ta, &candidates.addresses()[1..])
    }
}

/// Extends a minimal LLC eviction set into an SF eviction set by locating
/// the `sf_ways - llc_set.len()` additional congruent addresses among `pool`
/// (Section 4.2).
///
/// An SF test only evicts `ta` once the traversal holds `sf_ways` lines, so
/// it can vet the final line alone. While more than one line is missing and
/// `llc_set` holds exactly `llc_ways` lines, a candidate is vetted in the
/// LLC instead: swapped in for one member of `llc_set`, it keeps the set
/// evicting `ta` only if it is congruent.
pub fn extend_to_sf(
    machine: &mut Machine,
    ta: VirtAddr,
    llc_set: &EvictionSet,
    pool: &[VirtAddr],
    deadline: u64,
    tests: &mut u32,
) -> Result<EvictionSet, EvsetError> {
    let sf_ways = machine.spec().sf.ways();
    let llc_ways = machine.spec().llc.ways();
    debug_assert!(sf_ways >= llc_ways);
    if llc_set.len() >= sf_ways {
        return Ok(EvictionSet::new(llc_set.addresses()[..sf_ways].to_vec(), TargetCache::Sf));
    }
    let mut trial: Vec<VirtAddr> = llc_set.addresses().to_vec();
    let mut swapped: Vec<VirtAddr> = llc_set.addresses().to_vec();
    for &c in pool.iter().filter(|&&c| !llc_set.contains(c) && c != ta) {
        if machine.now() > deadline {
            return Err(EvsetError::Timeout { spent_cycles: machine.now() - deadline });
        }
        trial.push(c);
        *tests += 2;
        let hit = if trial.len() < sf_ways && llc_set.len() == llc_ways {
            swapped[0] = c;
            parallel_test_eviction(machine, ta, &swapped, TargetCache::Llc)
                && parallel_test_eviction(machine, ta, &swapped, TargetCache::Llc)
        } else {
            parallel_test_eviction(machine, ta, &trial, TargetCache::Sf)
                && parallel_test_eviction(machine, ta, &trial, TargetCache::Sf)
        };
        if !hit {
            trial.pop();
        } else if trial.len() == sf_ways {
            return Ok(EvictionSet::new(trial, TargetCache::Sf));
        }
    }
    Err(EvsetError::InsufficientCandidates { found: trial.len(), required: sf_ways })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BinarySearch, GroupTesting};
    use crate::test_eviction::oracle;
    use llc_cache_model::{CacheGeometry, CacheSpec, SlicedGeometry};
    use llc_machine::NoiseModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn quiet_machine(seed: u64) -> Machine {
        Machine::builder(CacheSpec::tiny_test()).noise(NoiseModel::silent()).seed(seed).build()
    }

    #[test]
    fn builds_sf_eviction_set_with_filtering() {
        let mut m = quiet_machine(61);
        let mut rng = SmallRng::seed_from_u64(61);
        let algo = BinarySearch::new();
        let builder = EvsetBuilder::new(&algo);
        let result = builder.build_random_set(&mut m, &mut rng);
        assert!(result.is_success(), "construction failed: {:?}", result.last_error);
        let set = result.eviction_set.expect("checked");
        assert_eq!(set.len(), m.spec().sf.ways());
        assert_eq!(set.target(), TargetCache::Sf);
        assert!(result.filter_cycles > 0);
        assert!(result.total_cycles >= result.filter_cycles);
    }

    #[test]
    fn builds_llc_eviction_set_without_filtering() {
        let mut m = quiet_machine(62);
        let mut rng = SmallRng::seed_from_u64(62);
        let algo = GroupTesting::optimized();
        let builder = EvsetBuilder::new(&algo)
            .target(TargetCache::Llc)
            .filtering(false)
            .config(EvsetConfig::unfiltered());
        let result = builder.build_random_set(&mut m, &mut rng);
        assert!(result.is_success(), "construction failed: {:?}", result.last_error);
        let set = result.eviction_set.expect("checked");
        assert_eq!(set.len(), m.spec().llc.ways());
        assert_eq!(result.filter_cycles, 0);
    }

    #[test]
    fn constructed_sf_set_is_truly_congruent() {
        let mut m = quiet_machine(63);
        let mut rng = SmallRng::seed_from_u64(63);
        let count = EvsetConfig::filtered().candidate_count(m.spec(), TargetCache::Sf);
        let cands = CandidateSet::allocate(&mut m, 0x40, count, &mut rng);
        let ta = cands.addresses()[0];
        let algo = BinarySearch::new();
        let builder = EvsetBuilder::new(&algo);
        let result = builder.build_for_target(&mut m, ta, &cands.addresses()[1..]);
        let set = result.eviction_set.expect("construction should succeed");
        assert!(oracle::is_true_eviction_set(&m, ta, set.addresses(), m.spec().sf.ways()));
    }

    /// With an SF two or more ways wider than the LLC (Ice Lake-SP: 16 vs
    /// 12), no single extra line makes an SF test evict the target; the
    /// extension must vet all but the last extra line in the LLC.
    #[test]
    fn extends_to_an_sf_two_ways_wider_than_the_llc() {
        let mut spec = CacheSpec::tiny_test();
        spec.sf = SlicedGeometry::new(CacheGeometry::new(32, 6), 2);
        assert!(spec.sf.ways() >= spec.llc.ways() + 2);
        let mut m = Machine::builder(spec).noise(NoiseModel::silent()).seed(65).build();
        let mut rng = SmallRng::seed_from_u64(65);
        let count = EvsetConfig::filtered().candidate_count(m.spec(), TargetCache::Sf);
        let cands = CandidateSet::allocate(&mut m, 0x40, count, &mut rng);
        let ta = cands.addresses()[0];
        let algo = BinarySearch::new();
        let result = EvsetBuilder::new(&algo).build_for_target(&mut m, ta, &cands.addresses()[1..]);
        assert!(result.is_success(), "construction failed: {:?}", result.last_error);
        let set = result.eviction_set.expect("checked");
        assert_eq!(set.len(), m.spec().sf.ways());
        assert!(oracle::is_true_eviction_set(&m, ta, set.addresses(), m.spec().sf.ways()));
    }

    #[test]
    fn failure_reports_attempts_and_error() {
        let mut m = quiet_machine(64);
        let mut rng = SmallRng::seed_from_u64(64);
        // Fewer candidates than the SF's associativity: construction cannot
        // possibly find W congruent addresses, for any page coloring.
        let cands = CandidateSet::allocate(&mut m, 0x40, 5, &mut rng);
        let ta = cands.addresses()[0];
        let algo = BinarySearch::new();
        let builder = EvsetBuilder::new(&algo).filtering(false);
        let result = builder.build_for_target(&mut m, ta, &cands.addresses()[1..]);
        assert!(!result.is_success());
        assert!(result.attempts >= 1);
        assert!(result.last_error.is_some());
    }
}
