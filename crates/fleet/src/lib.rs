//! # llc-fleet
//!
//! A sharded, multi-threaded trial executor for the workspace's experiment
//! harnesses. The paper's tables 3–6 and figures 2/3/6/7/9 are averages over
//! hundreds of *independent* attack trials; `llc-fleet` runs those trials
//! across worker threads while guaranteeing that the results — down to the
//! last floating-point bit — do not depend on the thread count or on which
//! worker happened to execute which trial.
//!
//! Three pieces make that guarantee hold:
//!
//! * **[`seed`]** — every trial gets a seed derived from
//!   `(master_seed, trial_index)` through SplitMix64's finaliser. The
//!   derivation is injective per master seed, so per-trial streams never
//!   collide, and it is independent of execution order by construction.
//! * **[`executor`]** — a hand-rolled scoped-thread pool (`std::thread::scope`
//!   plus a chunked atomic work queue; the build container has no crates.io
//!   access, so no rayon). Workers steal chunks of trial indices; results are
//!   returned *in trial order* regardless of completion order.
//! * **[`aggregate`]** — an order-independent [`Aggregate`] reducer.
//!   Aggregates canonicalise by trial index, so folding a fleet's in-order
//!   results ([`Aggregate::from_trials`]) is bit-identical to merging any
//!   sharding of the same trials.
//!
//! ## Quick example
//!
//! ```
//! use llc_fleet::{Aggregate, Fleet, Samples};
//! use rand::Rng;
//!
//! let fleet = Fleet::new(4);
//! // 100 independent trials; each gets its own derived seed.
//! let agg = Samples::from_trials(fleet.run(100, 0xfee1, |ctx| {
//!     ctx.rng().gen_range(0.0..1.0f64)
//! }));
//! let summary = agg.summary();
//! assert_eq!(summary.count, 100);
//! // The same call on 1 thread produces the bit-identical summary.
//! let serial = Samples::from_trials(Fleet::single().run(100, 0xfee1, |ctx| {
//!     ctx.rng().gen_range(0.0..1.0f64)
//! }));
//! assert_eq!(summary, serial.summary());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod executor;
pub mod seed;
pub mod stats;

pub use aggregate::{Aggregate, Counts, Samples, Summary};
pub use executor::{panic_message, Fleet, FleetError, TrialCtx, TrialSource};
pub use seed::{mix64, stream_seed, trial_seed};
pub use stats::{
    compare_means, compare_rates, ecdf_distance, ks_threshold, MeanComparison, RateComparison,
    KS_ALPHA_001, KS_ALPHA_05,
};
