//! Bulk eviction-set construction (Sections 2.2.3 and 5.3): build eviction
//! sets for *all* SF sets at one page offset (`PageOffset`) or in the whole
//! system (`WholeSys`), reusing filtered candidates across sets and across
//! page offsets.

use crate::algorithms::PruningAlgorithm;
use crate::builder::EvsetBuilder;
use crate::candidates::CandidateSet;
use crate::config::{EvsetConfig, TargetCache};
use crate::error::EvsetError;
use crate::evset::EvictionSet;
use crate::filter::{partition_by_l2, FilteredCandidates};
use crate::test_eviction::parallel_test_eviction;
use llc_machine::Machine;
use llc_cache_model::{VirtAddr, LINES_PER_PAGE, LINE_SIZE};
use rand::Rng;

/// Which of the paper's attack scenarios is being run (Section 2.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// A single eviction set for one randomly chosen SF set.
    SingleSet,
    /// Eviction sets for every SF set reachable at one page offset.
    PageOffset,
    /// Eviction sets for every SF set in the system.
    WholeSys,
}

impl Scope {
    /// Number of eviction sets this scope requires on `spec`.
    pub fn required_sets(self, spec: &llc_cache_model::CacheSpec) -> usize {
        match self {
            Scope::SingleSet => 1,
            Scope::PageOffset => spec.sf.sets_per_page_offset(),
            Scope::WholeSys => spec.sf.whole_system_sets(),
        }
    }
}

impl std::fmt::Display for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scope::SingleSet => write!(f, "SingleSet"),
            Scope::PageOffset => write!(f, "PageOffset"),
            Scope::WholeSys => write!(f, "WholeSys"),
        }
    }
}

/// Configuration of a bulk construction run.
#[derive(Debug, Clone)]
pub struct BulkConfig {
    /// Per-set construction configuration.
    pub evset: EvsetConfig,
    /// Whether L2-driven candidate filtering is used.
    pub filtering: bool,
    /// Page offset used for `PageOffset` (and as the base offset of
    /// `WholeSys`); must be line-aligned.
    pub page_offset: u64,
    /// Optional cap on the number of eviction sets to construct. Experiment
    /// harnesses use this to sample a subset and extrapolate, exactly like
    /// the paper's `n_sets * t_avg / SR` estimate.
    pub max_sets: Option<usize>,
}

impl Default for BulkConfig {
    fn default() -> Self {
        Self { evset: EvsetConfig::filtered(), filtering: true, page_offset: 0, max_sets: None }
    }
}

/// Result of a bulk construction run.
#[derive(Debug, Clone)]
pub struct BulkOutcome {
    /// The eviction sets that were constructed, keyed by their target address.
    pub eviction_sets: Vec<(VirtAddr, EvictionSet)>,
    /// Number of target addresses for which construction was attempted.
    pub attempted: usize,
    /// Number of successful constructions.
    pub successes: usize,
    /// Total cycles, including candidate allocation and filtering.
    pub total_cycles: u64,
    /// Cycles spent on candidate filtering.
    pub filter_cycles: u64,
}

impl BulkOutcome {
    /// Success rate over attempted sets (0.0 when nothing was attempted).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempted as f64
        }
    }
}

/// Builds eviction sets in bulk.
#[derive(Debug)]
pub struct BulkBuilder<'a> {
    algorithm: &'a dyn PruningAlgorithm,
    config: BulkConfig,
}

impl<'a> BulkBuilder<'a> {
    /// Creates a bulk builder for `algorithm` with the given configuration.
    pub fn new(algorithm: &'a dyn PruningAlgorithm, config: BulkConfig) -> Self {
        Self { algorithm, config }
    }

    /// The bulk configuration.
    pub fn config(&self) -> &BulkConfig {
        &self.config
    }

    /// Runs the bulk construction for `scope` on `machine`.
    ///
    /// # Errors
    ///
    /// Returns an error only if the initial candidate filtering cannot build
    /// a single L2 eviction set; per-set failures are recorded in the
    /// [`BulkOutcome`] instead.
    pub fn run(
        &self,
        machine: &mut Machine,
        scope: Scope,
        rng: &mut impl Rng,
    ) -> Result<BulkOutcome, EvsetError> {
        let start = machine.now();
        let spec = machine.spec().clone();
        let count = self.config.evset.candidate_count(&spec, TargetCache::Sf);
        let base_candidates =
            CandidateSet::allocate(machine, self.config.page_offset, count, rng);

        let mut outcome = BulkOutcome {
            eviction_sets: Vec::new(),
            attempted: 0,
            successes: 0,
            total_cycles: 0,
            filter_cycles: 0,
        };

        let budget = self.config.max_sets.unwrap_or(scope.required_sets(&spec));

        // Candidate filtering is done once and reused for every set (and, via
        // the δ shift, for every page offset in WholeSys).
        let filtered: Option<FilteredCandidates> = if self.config.filtering {
            let deadline = machine.now() + self.config.evset.time_budget_cycles * 16;
            let f = partition_by_l2(machine, &base_candidates, &self.config.evset, deadline)?;
            outcome.filter_cycles = f.elapsed_cycles;
            Some(f)
        } else {
            None
        };

        match scope {
            Scope::SingleSet | Scope::PageOffset => {
                self.run_offset(machine, &base_candidates, filtered.as_ref(), budget, &mut outcome);
            }
            Scope::WholeSys => {
                let mut remaining = budget;
                for line_idx in 0..LINES_PER_PAGE {
                    if remaining == 0 {
                        break;
                    }
                    let offset = line_idx * LINE_SIZE;
                    let delta = offset as i64 - self.config.page_offset as i64;
                    let shifted_candidates;
                    let shifted_filtered;
                    let (cands, filt): (&CandidateSet, Option<&FilteredCandidates>) = if delta == 0 {
                        (&base_candidates, filtered.as_ref())
                    } else {
                        shifted_candidates = base_candidates.shifted(delta);
                        shifted_filtered = filtered.as_ref().map(|f| f.shifted(delta));
                        (&shifted_candidates, shifted_filtered.as_ref())
                    };
                    let before = outcome.attempted;
                    self.run_offset(machine, cands, filt, remaining, &mut outcome);
                    remaining = remaining.saturating_sub(outcome.attempted - before);
                }
            }
        }

        outcome.total_cycles = machine.now() - start;
        Ok(outcome)
    }

    /// Constructs eviction sets for the SF sets reachable at one page offset.
    fn run_offset(
        &self,
        machine: &mut Machine,
        candidates: &CandidateSet,
        filtered: Option<&FilteredCandidates>,
        budget: usize,
        outcome: &mut BulkOutcome,
    ) {
        let spec = machine.spec().clone();
        let sf_ways = spec.sf.ways();
        // Expected number of distinct SF sets reachable per L2 group.
        let sets_per_group = (spec.sf.uncertainty() / spec.l2.uncertainty()).max(1);

        let groups: Vec<Vec<VirtAddr>> = match filtered {
            Some(f) => f.groups.iter().map(|g| g.candidates.clone()).collect(),
            None => vec![candidates.addresses().to_vec()],
        };

        // `run` filters the candidates once for every set, so the per-set
        // builder does not filter again.
        let builder = EvsetBuilder::new(self.algorithm)
            .config(self.config.evset.clone())
            .target(TargetCache::Sf)
            .filtering(false);
        let mut built_this_offset = 0usize;
        for group in groups {
            if built_this_offset >= budget {
                break;
            }
            let mut pool = group;
            let mut built_sets: Vec<EvictionSet> = Vec::new();
            let group_target = if filtered.is_some() { sets_per_group } else { budget };

            while built_sets.len() < group_target
                && built_this_offset < budget
                && pool.len() > sf_ways
            {
                // Pick the next target address that is not already covered by
                // a constructed eviction set (Section 2.2.3, step 4).
                let ta = pool.remove(0);
                let covered = built_sets
                    .iter()
                    .any(|s| parallel_test_eviction(machine, ta, s.addresses(), TargetCache::Sf));
                if covered {
                    continue;
                }

                outcome.attempted += 1;
                built_this_offset += 1;
                // A failed set moves on to the next target address.
                if let Some(set) = builder.build_for_target(machine, ta, &pool).eviction_set {
                    pool.retain(|a| !set.contains(*a));
                    built_sets.push(set.clone());
                    outcome.successes += 1;
                    outcome.eviction_sets.push((ta, set));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BinarySearch;
    use crate::test_eviction::oracle;
    use llc_cache_model::CacheSpec;
    use llc_machine::{Machine, NoiseModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn quiet_machine(seed: u64) -> Machine {
        Machine::builder(CacheSpec::tiny_test()).noise(NoiseModel::silent()).seed(seed).build()
    }

    #[test]
    fn page_offset_scope_covers_multiple_sets() {
        let mut m = quiet_machine(71);
        let mut rng = SmallRng::seed_from_u64(71);
        let algo = BinarySearch::new();
        // Use a generous candidate pool so that every reachable set has
        // enough congruent addresses on the tiny machine.
        let mut cfg = BulkConfig::default();
        cfg.evset.candidate_scale = 6;
        let builder = BulkBuilder::new(&algo, cfg);
        let out = builder.run(&mut m, Scope::PageOffset, &mut rng).expect("bulk run succeeds");
        assert!(out.successes >= 1, "at least one set should be built");
        // Every constructed set must be a true eviction set for its target.
        let mut locations = HashSet::new();
        for (ta, set) in &out.eviction_sets {
            assert!(oracle::is_true_eviction_set(&m, *ta, set.addresses(), m.spec().sf.ways()));
            locations.insert(m.oracle_attacker_location(*ta));
        }
        assert_eq!(locations.len(), out.eviction_sets.len(), "sets must cover distinct SF sets");
        assert!(out.success_rate() > 0.5);
    }

    #[test]
    fn single_set_scope_builds_exactly_one() {
        let mut m = quiet_machine(72);
        let mut rng = SmallRng::seed_from_u64(72);
        let algo = BinarySearch::new();
        let builder = BulkBuilder::new(&algo, BulkConfig::default());
        let out = builder.run(&mut m, Scope::SingleSet, &mut rng).expect("bulk run succeeds");
        assert_eq!(out.attempted.min(1), 1);
        assert!(out.successes <= out.attempted);
    }

    #[test]
    fn max_sets_caps_the_run() {
        let mut m = quiet_machine(73);
        let mut rng = SmallRng::seed_from_u64(73);
        let algo = BinarySearch::new();
        let cfg = BulkConfig { max_sets: Some(1), ..BulkConfig::default() };
        let builder = BulkBuilder::new(&algo, cfg);
        let out = builder.run(&mut m, Scope::WholeSys, &mut rng).expect("bulk run succeeds");
        assert!(out.attempted <= 1);
    }

    #[test]
    fn scope_required_sets_match_paper() {
        let spec = CacheSpec::skylake_sp_cloud();
        assert_eq!(Scope::SingleSet.required_sets(&spec), 1);
        assert_eq!(Scope::PageOffset.required_sets(&spec), 896);
        assert_eq!(Scope::WholeSys.required_sets(&spec), 57_344);
        assert_eq!(Scope::PageOffset.to_string(), "PageOffset");
    }
}
