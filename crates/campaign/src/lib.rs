//! # llc-campaign
//!
//! The campaign layer: resumable, streaming, million-trial parameter
//! sweeps on top of `llc-fleet`.
//!
//! The paper's headline numbers are statistics over large trial
//! populations swept across parameter grids (scenario × noise level ×
//! nonce width × flip budget × fidelity). Running such a grid as one
//! experiment invocation per cell pays a full machine build and a fleet
//! barrier per cell; `llc-campaign` instead flattens the whole grid into
//! **one global trial stream** served by a single long-lived fleet:
//!
//! * **[`grid`]** — maps the N-dimensional sweep onto consecutive global
//!   trial indices and back; chunks of that stream are the unit of
//!   scheduling and checkpointing.
//! * **[`stats`]** — exact integer streaming aggregates ([`StreamStats`],
//!   [`CellAggregate`]): O(1) memory per metric per cell, and merges that
//!   are associative/commutative *in the bits*, which is what makes
//!   resume byte-identical rather than merely statistically equivalent.
//! * **[`records`]** — the on-disk formats: a manifest identifying the
//!   campaign (fingerprinted; resume refuses a mismatched directory) and
//!   checksummed JSONL merge records, one per completed chunk, appended in
//!   completion order and merged order-independently.
//! * **[`driver`]** — [`Campaign::run`]: validate/create the directory,
//!   load valid records, execute missing chunks through the fleet's task
//!   engine, append+flush a record per chunk, merge everything. A killed
//!   campaign re-runs at most the one chunk whose record line was torn.
//!   Trials run inside a per-attempt `catch_unwind` boundary: a panicking
//!   trial retries with its same derived seed, and a deterministic panic
//!   quarantines the trial (first-class in the merge records) instead of
//!   killing the run.
//! * **[`faults`]** — deterministic fault injection for testing the above:
//!   a seeded [`FaultPlan`] decides, as a pure function, which trials
//!   panic and which record-file operations fail (short write, torn tail,
//!   ENOSPC, fsync error, rename failure) through the [`RecordSink`]
//!   abstraction. The production [`DirSink`] path is byte-identical
//!   whether or not the faults module is in the build.
//!
//! Machine reuse across cells (the pool keyed by machine-configuration
//! hash) lives in `llc-machine` ([`MachinePool`](../llc_machine/struct.MachinePool.html));
//! experiment-specific cell definitions and report renderers live in
//! `llc-bench`. This crate knows nothing about caches — its trial source
//! is `llc-fleet`'s [`TrialSource`] with integer [`TrialOutcome`]s, so the
//! resume proof rests only on seed derivation and integer arithmetic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod driver;
pub mod faults;
pub mod grid;
pub mod json;
pub mod records;
pub mod stats;

pub use driver::{Campaign, CampaignOutcome, CampaignSpec, CellSpec, RunOptions};
pub use faults::{FaultPlan, FaultySink, IoFault};
pub use grid::CellGrid;
pub use records::{
    CampaignError, ChunkRecord, DirSink, LoadedRecords, Manifest, QuarantineRecord, RecordSink,
    FORMAT_VERSION,
};
pub use stats::{CellAggregate, StreamStats, TrialOutcome};

// Re-export the fleet surface campaign consumers need, so `llc-bench` can
// write sources against one façade.
pub use llc_fleet::{Fleet, TrialCtx, TrialSource};
