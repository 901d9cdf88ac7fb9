//! Helpers shared by the twin-hierarchy tests (`traversal_replay.rs`,
//! `echoed_read.rs`): the compositions they run, the congruent line pools
//! they draw from, and way-by-way comparisons of two hierarchies' sets.

use llc_cache_model::{
    Hierarchy, InclusionPolicy, LineAddr, ReplacementKind, SetLocation, SetView,
};
use proptest::prelude::*;
use std::fmt::Debug;

pub const INCLUSIONS: [InclusionPolicy; 3] =
    [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive, InclusionPolicy::Exclusive];

pub const POLICIES: [ReplacementKind; 5] = [
    ReplacementKind::Lru,
    ReplacementKind::TreePlru,
    ReplacementKind::Qlru,
    ReplacementKind::Srrip,
    ReplacementKind::Random,
];

/// `count` lines from line `anchor` upwards that share `anchor`'s LLC/SF set.
pub fn congruent_lines(h: &Hierarchy, anchor: u64, count: usize) -> Vec<LineAddr> {
    let loc = h.shared_location(LineAddr::from_line_number(anchor));
    let step = h.spec().llc.slice_geometry().sets();
    (anchor..)
        .step_by(step)
        .map(LineAddr::from_line_number)
        .filter(|&line| h.shared_location(line) == loc)
        .take(count)
        .collect()
}

pub fn same_set<T: PartialEq + Debug>(
    a: SetView<'_, T>,
    b: SetView<'_, T>,
    what: &dyn Fn() -> String,
) -> Result<(), String> {
    for w in 0..a.num_ways() {
        prop_assert_eq!(a.line(w), b.line(w), "{} way {}: line", what(), w);
        prop_assert_eq!(a.payload(w), b.payload(w), "{} way {}: payload", what(), w);
    }
    prop_assert_eq!(a.meta(), b.meta(), "{}: metadata", what());
    Ok(())
}

/// The sets a stream over `loc` can touch: every core's L1 and L2 set of the
/// congruent lines (one each, since LLC/SF congruence implies L1 and L2
/// congruence on every modelled geometry) and the LLC and SF set itself.
pub fn same_touched_sets(
    a: &Hierarchy,
    b: &Hierarchy,
    line: LineAddr,
    loc: SetLocation,
    step: usize,
) -> Result<(), String> {
    let (l1, l2) = (a.l1_set(line), a.l2_set(line));
    for core in 0..a.cores() {
        same_set(a.l1_set_view(core, l1), b.l1_set_view(core, l1), &|| {
            format!("step {step}: core {core} L1 set {l1}")
        })?;
        same_set(a.l2_set_view(core, l2), b.l2_set_view(core, l2), &|| {
            format!("step {step}: core {core} L2 set {l2}")
        })?;
    }
    same_set(a.llc_set_view(loc), b.llc_set_view(loc), &|| format!("step {step}: LLC {loc}"))?;
    same_set(a.sf_set_view(loc), b.sf_set_view(loc), &|| format!("step {step}: SF {loc}"))
}

/// Every set of every structure.
pub fn same_everywhere(a: &Hierarchy, b: &Hierarchy) -> Result<(), String> {
    let spec = a.spec();
    for core in 0..a.cores() {
        for set in 0..spec.l1.sets() {
            same_set(a.l1_set_view(core, set), b.l1_set_view(core, set), &|| {
                format!("end: core {core} L1 set {set}")
            })?;
        }
        for set in 0..spec.l2.sets() {
            same_set(a.l2_set_view(core, set), b.l2_set_view(core, set), &|| {
                format!("end: core {core} L2 set {set}")
            })?;
        }
    }
    let geometry = a.shared_geometry();
    for flat in 0..geometry.total_sets() {
        let loc = geometry.location(flat);
        same_set(a.llc_set_view(loc), b.llc_set_view(loc), &|| format!("end: LLC {loc}"))?;
        same_set(a.sf_set_view(loc), b.sf_set_view(loc), &|| format!("end: SF {loc}"))?;
    }
    Ok(())
}
