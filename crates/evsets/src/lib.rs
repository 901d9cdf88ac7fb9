//! # llc-evsets
//!
//! Eviction-set construction for the non-inclusive Skylake-SP LLC and snoop
//! filter, reproducing Sections 4 and 5 of *"Last-Level Cache Side-Channel
//! Attacks Are Feasible in the Modern Public Cloud"* (ASPLOS 2024):
//!
//! * the [`test_eviction`] primitive in sequential and parallel
//!   (memory-level-parallel) flavours;
//! * candidate-set generation at a chosen page offset ([`CandidateSet`]);
//! * the state-of-the-art pruning algorithms the paper evaluates — group
//!   testing ([`GroupTesting`], `Gt`/`GtOp`) and Prime+Scope
//!   ([`PrimeScope`], `Ps`/`PsOp`) — plus the paper's contributions:
//!   **L2-driven candidate filtering** ([`filter_for_target`]) and the
//!   **binary-search pruning algorithm** ([`BinarySearch`], `BinS`);
//! * single-set construction with retries ([`EvsetBuilder`]) and bulk
//!   construction for the `PageOffset` / `WholeSys` scenarios
//!   ([`BulkBuilder`]).
//!
//! ## Quick example
//!
//! ```
//! use llc_cache_model::CacheSpec;
//! use llc_machine::{Machine, NoiseModel};
//! use llc_evsets::{BinarySearch, EvsetBuilder};
//! use rand::SeedableRng;
//!
//! let mut machine = Machine::builder(CacheSpec::tiny_test())
//!     .noise(NoiseModel::quiescent_local())
//!     .seed(7)
//!     .build();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let algorithm = BinarySearch::new();
//! let result = EvsetBuilder::new(&algorithm).build_random_set(&mut machine, &mut rng);
//! assert!(result.is_success());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algorithms;
mod builder;
mod bulk;
mod candidates;
mod config;
mod error;
mod evset;
mod filter;
mod test_eviction;

pub use algorithms::{BinarySearch, GroupTesting, PrimeScope, PruneOutcome, PruningAlgorithm};
pub use builder::{extend_to_sf, ConstructionResult, EvsetBuilder};
pub use bulk::{BulkBuilder, BulkConfig, BulkOutcome, Scope};
pub use candidates::CandidateSet;
pub use config::{EvsetConfig, TargetCache};
pub use error::EvsetError;
pub use evset::EvictionSet;
pub use filter::{
    build_l2_eviction_set, filter_candidates, filter_for_target, partition_by_l2, FilterGroup,
    FilteredCandidates,
};
pub use test_eviction::{
    eviction_threshold, load_target, oracle, parallel_test_eviction, sequential_test_eviction,
    test_eviction, test_eviction_plan, TraversalOrder,
};
