//! # llc-machine
//!
//! A cycle-level, event-driven simulation of the multi-tenant host the paper
//! attacks: the cache hierarchy from `llc-cache-model` plus
//!
//! * a [`LatencyModel`] that turns hit levels into cycle costs and models the
//!   memory-level parallelism exploited by parallel `TestEviction` and
//!   Parallel Probing;
//! * a [`NoiseModel`]/[`NoiseProcess`] reproducing the background LLC/SF
//!   traffic of other Cloud Run tenants (11.5 accesses/ms/set) or of a
//!   quiescent lab machine (0.29 accesses/ms/set);
//! * a co-located victim service, described by a [`VictimProgram`] that emits
//!   one [`VictimSchedule`] per request;
//! * optional background tenants ([`TenantPopulation`], [`WorkloadKind`]):
//!   idle sidecars, bursty web serving and batch scans, each one row of a
//!   workload-profile table, post timed bursts from per-tenant seeded
//!   streams on an event queue the host owns next to the noise process,
//!   with placement and churn modelling co-residency ([`ChurnConfig`]);
//! * the [`Machine`] itself, which exposes to the attack code exactly the
//!   operations an unprivileged attacker has: timed/untimed loads of its own
//!   memory, `clflush` of its own lines, and waiting;
//! * compiled [`TraversalPlan`]s ([`Machine::compile_plan`]): the
//!   per-call-invariant part of a prime/probe traversal (translation, slice
//!   hashing, touched-set sorting) computed once, with bit-identical
//!   `*_traverse_plan` hot paths for the millions of traversals every
//!   experiment performs over fixed eviction sets.
//!
//! ## Quick example
//!
//! ```
//! use llc_cache_model::CacheSpec;
//! use llc_machine::{Machine, NoiseModel};
//!
//! let mut m = Machine::builder(CacheSpec::skylake_sp_cloud())
//!     .noise(NoiseModel::cloud_run())
//!     .seed(1)
//!     .build();
//! let page = m.alloc_attacker_pages(1);
//! let (latency, _level) = m.timed_access(page);
//! assert!(latency > m.latency_model().llc_miss_threshold()); // cold miss
//! let (latency, _level) = m.timed_access(page);
//! assert!(latency < m.latency_model().private_miss_threshold()); // hot hit
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aes;
mod latency;
mod machine;
mod noise;
mod pool;
mod schedule;
mod tenant;

pub use aes::{
    AesHandle, AesLayout, AesLog, AesTTableConfig, AesTTableVictim, ENTRIES_PER_LINE,
    LINES_PER_TABLE, TABLE_BYTES,
};
pub use latency::LatencyModel;
pub use machine::{Machine, MachineBuilder, MachineSnapshot, MachineStats, TraversalPlan};
pub use noise::{
    sample_poisson, NoiseAdvance, NoiseEvent, NoiseFidelity, NoiseModel, NoiseProcess,
};
pub use pool::{config_key, MachinePool, PooledMachine, PoolStats};
pub use schedule::{PeriodicToucher, ScheduledAccess, VictimProgram, VictimSchedule};
pub use tenant::{ChurnConfig, TenantPopulation, WorkloadKind};

// Re-export the types attack code needs constantly, so downstream crates can
// depend on a single façade for machine-level interaction.
pub use llc_cache_model::{CacheSpec, HitLevel, SetLocation, VirtAddr};
