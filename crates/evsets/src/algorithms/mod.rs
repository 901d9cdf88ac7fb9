//! Address-pruning algorithms: reduce a candidate set to a minimal eviction
//! set (Section 2.2.1 step 2, Sections 4–5).
//!
//! | Implementation | Paper name | Core idea |
//! |---|---|---|
//! | [`GroupTesting::baseline`] | `Gt` | withhold groups, keep the reduced set when it still evicts (with early termination) |
//! | [`GroupTesting::optimized`] | `GtOp` | same, but scans *all* groups each round (Appendix A) |
//! | [`PrimeScope::baseline`] | `Ps` | per-candidate scope check with sequential `TestEviction` |
//! | [`PrimeScope::optimized`] | `PsOp` | `Ps` plus front "recharging" (Appendix A) |
//! | [`BinarySearch`] | `BinS` | binary search for the tipping point, parallel `TestEviction` (Section 5.2) |

mod bins;
mod gt;
mod ps;

pub use bins::BinarySearch;
pub use gt::GroupTesting;
pub use ps::PrimeScope;

use crate::config::{EvsetConfig, TargetCache};
use crate::error::EvsetError;
use crate::evset::EvictionSet;
use crate::test_eviction::{test_eviction_plan, TraversalOrder};
use llc_machine::{Machine, TraversalPlan};
use llc_cache_model::VirtAddr;

/// Statistics and result of one pruning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneOutcome {
    /// The minimal eviction set that was constructed.
    pub eviction_set: EvictionSet,
    /// Number of `TestEviction` invocations performed.
    pub test_evictions: u32,
    /// Number of backtracks taken to recover from erroneous test results.
    pub backtracks: u32,
    /// Simulated cycles spent inside the pruning algorithm.
    pub elapsed_cycles: u64,
}

/// An address-pruning algorithm.
///
/// Implementations reduce `candidates` (all sharing the page offset of `ta`)
/// to a minimal eviction set for the cache set that `ta` maps to, using only
/// the timed-access interface of the [`Machine`].
pub trait PruningAlgorithm: std::fmt::Debug {
    /// Short name used in tables and reports (`"Gt"`, `"BinS"`, ...).
    fn name(&self) -> &'static str;

    /// Runs the algorithm once.
    ///
    /// `deadline` is an absolute cycle count after which the algorithm must
    /// give up with [`EvsetError::Timeout`].
    ///
    /// # Errors
    ///
    /// Returns an error when the candidate set is exhausted, the backtrack
    /// budget is spent, the deadline passes, or the result fails verification.
    fn prune(
        &self,
        machine: &mut Machine,
        ta: VirtAddr,
        candidates: &[VirtAddr],
        target: TargetCache,
        config: &EvsetConfig,
        deadline: u64,
    ) -> Result<PruneOutcome, EvsetError>;
}

/// Checks the deadline, mapping an overrun to [`EvsetError::Timeout`].
pub(crate) fn check_deadline(machine: &Machine, start: u64, deadline: u64) -> Result<(), EvsetError> {
    if machine.now() > deadline {
        Err(EvsetError::Timeout { spent_cycles: machine.now() - start })
    } else {
        Ok(())
    }
}

/// Final verification shared by all algorithms: the constructed set must
/// evict the target in `config.verify_rounds` consecutive tests. The set is
/// fixed across the rounds, so it is compiled once and every round traverses
/// the plan.
pub(crate) fn verify_set(
    machine: &mut Machine,
    ta: VirtAddr,
    set: &[VirtAddr],
    target: TargetCache,
    config: &EvsetConfig,
) -> bool {
    let plan = machine.compile_plan(set);
    (0..config.verify_rounds).all(|_| {
        test_eviction_plan(machine, ta, &plan, target, TraversalOrder::Parallel).0
    })
}

/// One counted parallel `TestEviction` over a candidate subset compiled
/// into `plan` — the pruning loops' hot path. `plan` is the caller's
/// reusable arena: it is recompiled in place for `subset`, so steady-state
/// tests allocate nothing.
pub(crate) fn counted_test_planned(
    machine: &mut Machine,
    ta: VirtAddr,
    subset: &[VirtAddr],
    plan: &mut TraversalPlan,
    target: TargetCache,
    counter: &mut u32,
) -> bool {
    *counter += 1;
    machine.compile_plan_into(subset, plan);
    test_eviction_plan(machine, ta, plan, target, TraversalOrder::Parallel).0
}
