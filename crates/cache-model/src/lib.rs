//! # llc-cache-model
//!
//! A model of the Intel Skylake-SP / Ice Lake-SP cache hierarchies targeted by
//! *"Last-Level Cache Side-Channel Attacks Are Feasible in the Modern Public
//! Cloud"* (ASPLOS 2024): per-core L1/L2 caches, a sliced non-inclusive
//! last-level cache (LLC) and a sliced snoop filter (SF), together with the
//! address-mapping machinery (4 kB paging, set indexing, slice hashing) that
//! determines the attacker's *cache uncertainty*.
//!
//! The crate is purely structural: it models *where* lines live and what gets
//! evicted, but knows nothing about time. Timing, background noise and
//! concurrent agents are layered on top by the `llc-machine` crate.
//!
//! ## Quick example
//!
//! ```
//! use llc_cache_model::{AccessKind, CacheSpec, Hierarchy, LineAddr};
//!
//! // `tiny_test()` keeps the doctest feature-independent; the protocol below
//! // is identical on the feature-gated `skylake_sp_cloud()` preset.
//! let mut h = Hierarchy::new(CacheSpec::tiny_test(), 42);
//! let line = LineAddr::from_line_number(0x1234);
//!
//! // Core 0 faults the line in: it becomes Exclusive and is tracked by the SF.
//! h.access(0, line, AccessKind::Read);
//! assert!(h.in_sf(line) && !h.in_llc(line));
//!
//! // Core 1 (e.g. the attacker's helper thread) touches it: it becomes
//! // Shared and moves into the non-inclusive LLC.
//! h.access(1, line, AccessKind::Read);
//! assert!(h.in_llc(line) && !h.in_sf(line));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod cache;
mod config;
mod geometry;
mod hierarchy;
mod paging;
mod presets;
mod replacement;
mod set;
mod slice;

pub use addr::{
    LineAddr, PhysAddr, VirtAddr, LINES_PER_PAGE, LINE_BITS, LINE_SIZE, PAGE_BITS, PAGE_SIZE,
};
pub use cache::{Cache, SetLocation, SharedGeometry, SlicedCache};
pub use config::{HierarchyConfig, InclusionPolicy};
pub use geometry::{CacheGeometry, SlicedGeometry};
pub use hierarchy::{
    AccessKind, AccessOutcome, CoherenceState, CoreId, Hierarchy, HierarchyOptions, HitLevel,
    LlcLine, PrivLine, SfEntry, TraversalMemo,
};
pub use paging::{AddressSpace, TranslateError};
pub use presets::CacheSpec;
pub use replacement::ReplacementKind;
pub use set::{Entry, SetArena, SetView, SetViewMut};
pub use slice::SliceHash;
