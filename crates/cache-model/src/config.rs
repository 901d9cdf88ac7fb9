//! Config-driven hierarchy composition.
//!
//! The paper demonstrates its attack on one microarchitectural point — a
//! sliced *non-inclusive* LLC with a snoop-filter directory — but the
//! feasibility question is parametric in the hierarchy. [`HierarchyConfig`]
//! makes that composition three plain values of the [`CacheSpec`]: the
//! inclusion policy, the [`SliceHash`] and one [`ReplacementKind`] for
//! every level. The geometries, the SF's included, are the spec's own
//! fields. A "new scenario" is a config value, not a fork of the simulator
//! (see DESIGN.md, "Hierarchy composition").
//!
//! The default configuration reproduces the paper's Skylake-SP protocol
//! bit-identically — every golden experiment output pins this.

use crate::presets::CacheSpec;
use crate::replacement::ReplacementKind;
use crate::slice::SliceHash;

/// Which inclusion property the shared LLC maintains with respect to the
/// private L1/L2 caches.
///
/// The policy decides where a line's *backing store* lives and which
/// structure's evictions reach into the private caches — exactly the
/// properties the paper's Step 1–3 algorithms depend on (Section 2.3):
///
/// * [`NonInclusive`](Self::NonInclusive) — private lines live only in
///   L1/L2 and are tracked by a snoop-filter entry; Shared lines move into
///   the LLC. SF evictions back-invalidate; this directory contention is
///   the paper's attack surface.
/// * [`Inclusive`](Self::Inclusive) — the LLC is a superset of every
///   private cache. An LLC eviction back-invalidates L1/L2 everywhere (the
///   classic Prime+Probe surface) and no snoop filter is needed.
/// * [`Exclusive`](Self::Exclusive) — the LLC is a victim cache: it only
///   receives a clean fill when a private cache evicts a line, and an LLC
///   hit migrates the line back out. The SF acts as the directory for all
///   private copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InclusionPolicy {
    /// Skylake-SP-style non-inclusive LLC plus snoop filter (the paper's
    /// target and this crate's default; bit-identical to the pre-config
    /// behaviour).
    #[default]
    NonInclusive,
    /// LLC holds a superset of all private caches; evictions
    /// back-invalidate.
    Inclusive,
    /// LLC as victim cache: filled only by private-cache evictions.
    Exclusive,
}

impl InclusionPolicy {
    /// Parses a CLI/env spelling (`non-inclusive`, `inclusive`,
    /// `exclusive`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "non-inclusive" | "noninclusive" | "ni" => Some(Self::NonInclusive),
            "inclusive" | "i" => Some(Self::Inclusive),
            "exclusive" | "x" => Some(Self::Exclusive),
            _ => None,
        }
    }

    /// Canonical spelling, accepted by [`Self::parse`].
    pub fn label(self) -> &'static str {
        match self {
            Self::NonInclusive => "non-inclusive",
            Self::Inclusive => "inclusive",
            Self::Exclusive => "exclusive",
        }
    }
}

/// Composition of the simulated hierarchy: inclusion policy, slice hash and
/// the replacement policy of every level.
///
/// Carried by [`CacheSpec::hierarchy`]; the default value reproduces the
/// paper's machine bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyConfig {
    /// LLC inclusion policy.
    pub inclusion: InclusionPolicy,
    /// Slice hash of the LLC and SF.
    pub slice_hash: SliceHash,
    /// Replacement policy of L1, L2, LLC and SF.
    pub replacement: ReplacementKind,
}

impl CacheSpec {
    /// Returns the spec with the given inclusion policy.
    pub fn with_inclusion(mut self, policy: InclusionPolicy) -> Self {
        self.hierarchy.inclusion = policy;
        self
    }

    /// Returns the spec with every level using `kind` for replacement.
    pub fn with_replacement(mut self, kind: ReplacementKind) -> Self {
        self.hierarchy.replacement = kind;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::hierarchy::Hierarchy;

    #[test]
    fn default_config_is_non_inclusive_xor_fold() {
        let config = HierarchyConfig::default();
        assert_eq!(config.inclusion, InclusionPolicy::NonInclusive);
        assert_eq!(config.slice_hash, SliceHash::XorFold);
        assert_eq!(config.replacement, ReplacementKind::Lru);
    }

    #[test]
    fn inclusion_parse_round_trips() {
        for policy in
            [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive, InclusionPolicy::Exclusive]
        {
            assert_eq!(InclusionPolicy::parse(policy.label()), Some(policy));
        }
        assert_eq!(InclusionPolicy::parse("bogus"), None);
    }

    #[test]
    fn slice_hash_parse_round_trips() {
        for hash in [SliceHash::XorFold, SliceHash::Modulo] {
            assert_eq!(SliceHash::parse(hash.label()), Some(hash));
        }
        assert_eq!(SliceHash::parse(" XorFold "), Some(SliceHash::XorFold));
        assert_eq!(SliceHash::parse("mod"), Some(SliceHash::Modulo));
        assert_eq!(SliceHash::parse("custom"), None);
    }

    #[test]
    fn build_respects_selection() {
        // A hierarchy routes its shared structures through the spec's hash.
        for hash in [SliceHash::XorFold, SliceHash::Modulo] {
            let mut spec = CacheSpec::tiny_test();
            spec.hierarchy.slice_hash = hash;
            let slices = spec.llc.num_slices();
            let h = Hierarchy::new(spec, 0);
            for n in 0..256 {
                let line = LineAddr::from_line_number(n * 977);
                assert_eq!(h.shared_location(line).slice, hash.slice_of(line, slices));
            }
        }
    }

    #[test]
    fn spec_builders_compose() {
        let spec = CacheSpec::tiny_test()
            .with_inclusion(InclusionPolicy::Inclusive)
            .with_replacement(ReplacementKind::Qlru);
        assert_eq!(
            spec.hierarchy,
            HierarchyConfig {
                inclusion: InclusionPolicy::Inclusive,
                slice_hash: SliceHash::XorFold,
                replacement: ReplacementKind::Qlru,
            }
        );
    }

    #[test]
    fn with_replacement_sets_every_level() {
        let spec = CacheSpec::tiny_test().with_replacement(ReplacementKind::TreePlru);
        // One field is every level's policy (L1, L2, LLC and SF).
        assert_eq!(spec.hierarchy.replacement, ReplacementKind::TreePlru);
    }
}
