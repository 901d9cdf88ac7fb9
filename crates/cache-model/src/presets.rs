//! Machine presets matching the CPUs evaluated in the paper.
//!
//! | Preset | Paper machine | LLC/SF slices | SF ways | L2 ways |
//! |---|---|---|---|---|
//! | `CacheSpec::skylake_sp_cloud` | Intel Xeon Platinum 8173M (Cloud Run) | 28 | 12 | 16 |
//! | `CacheSpec::skylake_sp_local` | Intel Xeon Gold 6152 (local) | 22 | 12 | 16 |
//! | `CacheSpec::ice_lake_sp` | Intel Xeon Gold 5320 | 26 | 16 | 20 |
//!
//! The named presets (and `CacheSpec::skylake_sp(slices, cores)`,
//! `CacheSpec::ice_lake_sp_with(slices, cores)`) are gated by the `skylake`
//! / `icelake` cargo features, both on by default; `CacheSpec::tiny_test`
//! and the geometry types stay available regardless. The table uses plain
//! code spans rather than intra-doc links so `--no-default-features` docs
//! stay warning-free.
//!
//! Every preset takes the default [`HierarchyConfig`]: the paper's
//! non-inclusive protocol, the XOR-fold slice hash and true LRU at every
//! level. True LRU keeps TestEviction's "W distinct congruent lines evict
//! the target" property exact; the other policies remain available through
//! [`CacheSpec::with_replacement`] for the replacement-sensitivity ablation
//! described in DESIGN.md.

use crate::config::HierarchyConfig;
use crate::geometry::{CacheGeometry, SlicedGeometry};

/// Full description of a simulated CPU's cache hierarchy (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSpec {
    /// Human-readable name, e.g. `"Skylake-SP (28 slices)"`.
    pub name: String,
    /// Number of cores (each with private L1 and L2).
    pub cores: usize,
    /// Per-core L1 data/instruction cache geometry.
    pub l1: CacheGeometry,
    /// Per-core L2 geometry.
    pub l2: CacheGeometry,
    /// Sliced last-level cache geometry.
    pub llc: SlicedGeometry,
    /// Sliced snoop-filter geometry (same sets/slices as the LLC, more ways).
    pub sf: SlicedGeometry,
    /// Nominal core frequency in GHz, used to convert cycles to seconds.
    pub freq_ghz: f64,
    /// Hierarchy composition: inclusion policy, slice hash and the
    /// replacement policy of every level. The default reproduces the
    /// paper's non-inclusive protocol bit-identically.
    pub hierarchy: HierarchyConfig,
}

impl CacheSpec {
    /// Skylake-SP with a configurable number of LLC/SF slices.
    ///
    /// Parameters follow Table 2: L1 32 kB/8-way, L2 1 MB/16-way/1,024 sets,
    /// LLC slice 1.375 MB/11-way/2,048 sets, SF slice 12-way/2,048 sets.
    #[cfg(feature = "skylake")]
    pub fn skylake_sp(num_slices: usize, cores: usize) -> Self {
        let llc_slice = CacheGeometry::new(2048, 11);
        let sf_slice = CacheGeometry::new(2048, 12);
        Self {
            name: format!("Skylake-SP ({num_slices} slices)"),
            cores,
            l1: CacheGeometry::new(64, 8),
            l2: CacheGeometry::new(1024, 16),
            llc: SlicedGeometry::new(llc_slice, num_slices),
            sf: SlicedGeometry::new(sf_slice, num_slices),
            freq_ghz: 2.0,
            hierarchy: HierarchyConfig::default(),
        }
    }

    /// The 28-slice Skylake-SP (Xeon Platinum 8173M) that dominates Cloud Run
    /// datacenters in the paper's measurements.
    #[cfg(feature = "skylake")]
    pub fn skylake_sp_cloud() -> Self {
        Self::skylake_sp(28, 4)
    }

    /// The 22-slice Skylake-SP (Xeon Gold 6152) used as the quiescent local
    /// machine in the paper.
    #[cfg(feature = "skylake")]
    pub fn skylake_sp_local() -> Self {
        Self::skylake_sp(22, 4)
    }

    /// Ice Lake-SP with a configurable number of LLC/SF slices and cores.
    ///
    /// Parameters follow Table 2: L1 48 kB/12-way, L2 1.25 MB/20-way/1,024
    /// sets, LLC slice 1.5 MB/12-way/2,048 sets, SF slice 16-way/2,048 sets.
    #[cfg(feature = "icelake")]
    pub fn ice_lake_sp_with(num_slices: usize, cores: usize) -> Self {
        let llc_slice = CacheGeometry::new(2048, 12);
        let sf_slice = CacheGeometry::new(2048, 16);
        Self {
            name: format!("Ice Lake-SP ({num_slices} slices)"),
            cores,
            l1: CacheGeometry::new(64, 12),
            l2: CacheGeometry::new(1024, 20),
            llc: SlicedGeometry::new(llc_slice, num_slices),
            sf: SlicedGeometry::new(sf_slice, num_slices),
            freq_ghz: 2.2,
            hierarchy: HierarchyConfig::default(),
        }
    }

    /// Ice Lake-SP (Xeon Gold 5320, 26 slices): 16-way SF and 20-way L2,
    /// used in Section 5.3.2 to study associativity sensitivity.
    #[cfg(feature = "icelake")]
    pub fn ice_lake_sp() -> Self {
        Self::ice_lake_sp_with(26, 4)
    }

    /// A deliberately small hierarchy for fast unit tests: 2 slices, 16-set
    /// LLC/SF slices, 4-way everything.
    pub fn tiny_test() -> Self {
        Self {
            name: "Tiny test machine".to_string(),
            cores: 3,
            l1: CacheGeometry::new(8, 4),
            l2: CacheGeometry::new(16, 8),
            llc: SlicedGeometry::new(CacheGeometry::new(32, 4), 2),
            sf: SlicedGeometry::new(CacheGeometry::new(32, 5), 2),
            freq_ghz: 2.0,
            hierarchy: HierarchyConfig::default(),
        }
    }

    /// Converts a cycle count to seconds at this machine's frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Converts seconds to cycles at this machine's frequency.
    pub fn seconds_to_cycles(&self, seconds: f64) -> u64 {
        (seconds * self.freq_ghz * 1e9).round() as u64
    }

    /// Number of SF eviction sets required in the `PageOffset` scenario.
    pub fn page_offset_sets(&self) -> usize {
        self.sf.sets_per_page_offset()
    }

    /// Number of SF eviction sets required in the `WholeSys` scenario.
    pub fn whole_system_sets(&self) -> usize {
        self.sf.whole_system_sets()
    }
}

// Every test here exercises a feature-gated preset.
#[cfg(all(test, any(feature = "skylake", feature = "icelake")))]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "skylake")]
    fn skylake_cloud_matches_paper_counts() {
        let spec = CacheSpec::skylake_sp_cloud();
        assert_eq!(spec.page_offset_sets(), 896);
        assert_eq!(spec.whole_system_sets(), 57_344);
        assert_eq!(spec.l2.uncertainty(), 16);
        assert_eq!(spec.sf.ways(), 12);
        assert_eq!(spec.llc.ways(), 11);
    }

    #[test]
    #[cfg(feature = "skylake")]
    fn skylake_local_matches_paper_counts() {
        let spec = CacheSpec::skylake_sp_local();
        assert_eq!(spec.page_offset_sets(), 704);
        assert_eq!(spec.whole_system_sets(), 45_056);
    }

    #[test]
    #[cfg(feature = "icelake")]
    fn ice_lake_matches_paper_counts() {
        let spec = CacheSpec::ice_lake_sp();
        assert_eq!(spec.cores, 4);
        assert_eq!(spec.llc.num_slices(), 26);
        // 2^5 uncontrolled index bits per 2,048-set slice x 26 slices.
        assert_eq!(spec.page_offset_sets(), 832);
        assert_eq!(spec.whole_system_sets(), 53_248);
        assert_eq!(spec.l2.uncertainty(), 16);
        assert_eq!(spec.sf.ways(), 16);
        assert_eq!(spec.llc.ways(), 12);
        assert_eq!(spec.l2.ways(), 20);
    }

    #[test]
    #[cfg(feature = "icelake")]
    fn ice_lake_parameterised_constructor_scales() {
        let spec = CacheSpec::ice_lake_sp_with(13, 8);
        assert_eq!(spec.cores, 8);
        assert_eq!(spec.llc.num_slices(), 13);
        assert_eq!(spec.sf.num_slices(), 13);
        assert_eq!(spec.page_offset_sets(), 416);
        assert_eq!(spec.name, "Ice Lake-SP (13 slices)");
        // The named preset is exactly the (26, 4) instantiation.
        assert_eq!(
            CacheSpec::ice_lake_sp_with(26, 4).name,
            CacheSpec::ice_lake_sp().name
        );
    }

    #[test]
    #[cfg(all(feature = "skylake", feature = "icelake"))]
    fn ice_lake_has_higher_associativity() {
        let skx = CacheSpec::skylake_sp_cloud();
        let icx = CacheSpec::ice_lake_sp();
        assert!(icx.sf.ways() > skx.sf.ways());
        assert!(icx.l2.ways() > skx.l2.ways());
    }

    #[test]
    #[cfg(feature = "skylake")]
    fn cycle_second_round_trip() {
        let spec = CacheSpec::skylake_sp_cloud();
        let cycles = 2_000_000_000;
        let s = spec.cycles_to_seconds(cycles);
        assert!((s - 1.0).abs() < 1e-9);
        assert_eq!(spec.seconds_to_cycles(s), cycles);
    }

    #[test]
    #[cfg(feature = "skylake")]
    fn llc_slice_capacity_is_1_375_mb() {
        let spec = CacheSpec::skylake_sp_cloud();
        assert_eq!(spec.llc.slice_geometry().size_bytes(), 1_441_792);
    }
}
