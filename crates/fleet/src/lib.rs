//! # llc-fleet
//!
//! A sharded, multi-threaded trial executor for the workspace's experiment
//! harnesses. The paper's tables 3–6 and figures 2/3/6/7/9 are averages over
//! hundreds of *independent* attack trials; `llc-fleet` runs those trials
//! across worker threads while guaranteeing that the results — down to the
//! last floating-point bit — do not depend on the thread count or on which
//! worker happened to execute which trial.
//!
//! Two pieces make that guarantee hold:
//!
//! * **[`seed`]** — every trial gets a seed derived from
//!   `(master_seed, trial_index)` through SplitMix64's finaliser. The
//!   derivation is injective per master seed, so per-trial streams never
//!   collide, and it is independent of execution order by construction.
//! * **[`executor`]** — a hand-rolled scoped-thread pool (`std::thread::scope`
//!   plus a chunked atomic work queue; the build container has no crates.io
//!   access, so no rayon). Workers steal chunks of trial indices; results are
//!   returned *in trial order* regardless of completion order, so any fold a
//!   caller runs over them is a serial fold.
//!
//! ## Quick example
//!
//! ```
//! use llc_fleet::{Fleet, TrialCtx};
//! use rand::Rng;
//!
//! // 100 independent trials; each gets its own derived seed.
//! let job = |ctx: TrialCtx| ctx.rng().gen_range(0.0..1.0f64);
//! let results = Fleet::new(4).run(100, 0xfee1, job);
//! assert_eq!(results.len(), 100);
//! // The same call on 1 thread returns the bit-identical vector.
//! let serial = Fleet::single().run(100, 0xfee1, job);
//! let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
//! assert_eq!(bits(&results), bits(&serial));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod executor;
pub mod seed;
pub mod stats;

pub use executor::{panic_message, Fleet, FleetError, TrialCtx, TrialSource};
pub use seed::{mix64, stream_seed, trial_seed};
pub use stats::{
    compare_means, compare_rates, ecdf_distance, ks_threshold, MeanComparison, RateComparison,
    KS_ALPHA_001, KS_ALPHA_05,
};
