//! Equivalence of `Hierarchy::read_traversal`, which replays repeated
//! eviction-set traversals from a `TraversalMemo`, with the plain
//! `access_at` loop it stands for.
//!
//! Twin hierarchies run one op stream. Eviction-set traversals go through
//! `read_traversal` on one twin and through one `access_at` read per line on
//! the other; everything else — background noise on the set (per event and
//! in bulk), `clflush` of one of its lines, another core's read of a
//! congruent line, replacement-state priming, any core's reads of lines
//! that share only the private sets, and snapshot rewinds that keep the
//! memo — is applied to both. After
//! every step the serving levels must be equal, and so must every set the
//! stream can touch, way by way (lines, payloads and metadata words), for
//! every core's L1 and L2 and for the LLC and SF; at the end of a stream,
//! every set of every structure must be. Every inclusion policy × every
//! replacement policy runs on `tiny_test` and on `skylake_sp(2, 4)`. Where
//! LRU makes the traversal's L1 cycle short enough for the memo's two
//! entries, replays must have happened, so the suite cannot pass without
//! exercising them.

use llc_cache_model::{
    AccessKind, CacheSpec, Hierarchy, HitLevel, InclusionPolicy, LineAddr, ReplacementKind,
    SetLocation, SetView, TraversalMemo,
};
use proptest::prelude::*;
use std::fmt::Debug;

const INCLUSIONS: [InclusionPolicy; 3] =
    [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive, InclusionPolicy::Exclusive];

const POLICIES: [ReplacementKind; 5] = [
    ReplacementKind::Lru,
    ReplacementKind::TreePlru,
    ReplacementKind::Qlru,
    ReplacementKind::Srrip,
    ReplacementKind::Random,
];

/// Undisturbed traversals that end every stream: enough for a cycle of
/// period 2 to come round twice after a cold traversal.
const SETTLE_TRAVERSALS: usize = 6;

/// One traversal of the hierarchy under test's twin: an `access_at` read
/// per line.
fn read_loop(
    h: &mut Hierarchy,
    core: usize,
    lines: &[LineAddr],
    loc: SetLocation,
) -> Vec<HitLevel> {
    lines.iter().map(|&line| h.access_at(core, line, loc, AccessKind::Read).level).collect()
}

/// `count` lines from line `anchor` upwards that share `anchor`'s LLC/SF set.
fn congruent_lines(h: &Hierarchy, anchor: u64, count: usize) -> Vec<LineAddr> {
    let loc = h.shared_location(LineAddr::from_line_number(anchor));
    let step = h.spec().llc.slice_geometry().sets();
    (anchor..)
        .step_by(step)
        .map(LineAddr::from_line_number)
        .filter(|&line| h.shared_location(line) == loc)
        .take(count)
        .collect()
}

/// `count` lines from line `anchor` upwards that share `anchor`'s L1 and L2
/// sets but not its LLC/SF set: reads of them change private sets only.
fn private_neighbours(h: &Hierarchy, anchor: u64, count: usize) -> Vec<LineAddr> {
    let first = LineAddr::from_line_number(anchor);
    let loc = h.shared_location(first);
    (anchor..)
        .step_by(h.spec().l2.sets())
        .map(LineAddr::from_line_number)
        .filter(|&line| h.l1_set(line) == h.l1_set(first) && h.shared_location(line) != loc)
        .take(count)
        .collect()
}

/// Length of the cycle an LRU L1 set goes through when `len` lines of one
/// set are read round-robin: 1 when they fit, else the ways over the gcd of
/// the ways and the per-traversal rotation.
fn lru_l1_period(len: usize, ways: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    if len <= ways {
        1
    } else {
        ways / gcd(ways, len % ways)
    }
}

fn same_set<T: PartialEq + Debug>(
    a: SetView<'_, T>,
    b: SetView<'_, T>,
    what: &dyn Fn() -> String,
) -> Result<(), String> {
    for w in 0..a.num_ways() {
        prop_assert_eq!(a.line(w), b.line(w), "{} way {}: line", what(), w);
        prop_assert_eq!(a.payload(w), b.payload(w), "{} way {}: payload", what(), w);
        prop_assert_eq!(a.meta_word(w), b.meta_word(w), "{} way {}: metadata", what(), w);
    }
    Ok(())
}

/// The sets a stream over `loc` can touch: every core's L1 and L2 set of the
/// congruent lines (one each, since LLC/SF congruence implies L1 and L2
/// congruence on every modelled geometry) and the LLC and SF set itself.
fn same_touched_sets(
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
fn same_everywhere(a: &Hierarchy, b: &Hierarchy) -> Result<(), String> {
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

/// Runs `ops` on twins of `spec` and checks them after every step; returns
/// how many traversals were replayed.
fn run_stream(
    spec: &CacheSpec,
    seed: u64,
    len_pick: usize,
    ops: &[(u8, u8)],
) -> Result<u64, String> {
    let mut replayed = Hierarchy::new(spec.clone(), seed);
    let mut simulated = Hierarchy::new(spec.clone(), seed);
    // As many lines as the structure backing private copies can hold (the
    // LLC under inclusion, else the SF), or a random shorter list; then a
    // few more congruent lines for the other cores.
    let fit = match spec.hierarchy.inclusion {
        InclusionPolicy::Inclusive => spec.llc.ways(),
        _ => spec.sf.ways(),
    };
    let len = if len_pick % 2 == 0 { fit } else { 1 + len_pick / 2 % fit };
    let anchor = seed % (1 << 30);
    let pool = congruent_lines(&replayed, anchor, len + 4);
    let list = &pool[..len];
    let loc = replayed.shared_location(list[0]);
    let neighbours = private_neighbours(&replayed, anchor, spec.l2.ways() + 2);
    let mut saved = (replayed.clone(), simulated.clone());
    let mut memo = TraversalMemo::default();
    let mut levels = Vec::new();
    let mut replays = 0u64;
    let mut traverse = |a: &mut Hierarchy, b: &mut Hierarchy, core: usize, lines: &[LineAddr]| {
        replays += u64::from(a.read_traversal(core, lines, loc, &mut memo, &mut levels));
        (levels.clone(), read_loop(b, core, lines, loc))
    };

    for (step, &(kind, arg)) in ops.iter().enumerate() {
        let pick = arg as usize;
        match kind {
            0..=3 => {
                for _ in 0..=pick % 4 {
                    let (got, want) = traverse(&mut replayed, &mut simulated, 0, list);
                    prop_assert_eq!(got, want, "step {}: levels", step);
                }
            }
            4 => {
                let prefix = &list[..1 + pick % len];
                let (got, want) = traverse(&mut replayed, &mut simulated, 0, prefix);
                prop_assert_eq!(got, want, "step {}: prefix levels", step);
            }
            5 => {
                let (got, want) = traverse(&mut replayed, &mut simulated, 1, list);
                prop_assert_eq!(got, want, "step {}: core 1 levels", step);
            }
            6 => {
                for h in [&mut replayed, &mut simulated] {
                    h.noise_access(loc, pick % 2 == 0);
                }
            }
            7 => {
                let burst = (0..=pick % 4).map(|i| (pick >> i) & 1 == 0);
                for h in [&mut replayed, &mut simulated] {
                    h.noise_access_bulk(loc, burst.clone());
                }
            }
            8 => {
                for h in [&mut replayed, &mut simulated] {
                    h.clflush(list[pick % len]);
                }
            }
            9 => {
                let core = 1 + pick % (spec.cores - 1);
                let line = pool[pick / 4 % pool.len()];
                let got = replayed.access_at(core, line, loc, AccessKind::Read);
                let want = simulated.access_at(core, line, loc, AccessKind::Read);
                prop_assert_eq!(got, want, "step {}: core {} read", step, core);
            }
            10 => {
                for h in [&mut replayed, &mut simulated] {
                    h.prime_as_victim(list[pick % len]);
                }
            }
            11 => {
                // Pressure on the private sets alone, from any core.
                let core = pick % spec.cores;
                for &line in &neighbours[..1 + pick / 4 % neighbours.len()] {
                    let got = replayed.access(core, line, AccessKind::Read);
                    let want = simulated.access(core, line, AccessKind::Read);
                    prop_assert_eq!(got, want, "step {}: core {} neighbour read", step, core);
                }
            }
            12 => saved = (replayed.clone(), simulated.clone()),
            _ => {
                // A snapshot rewind, which leaves the memo as it is (as
                // `Machine::reset_to` does).
                replayed.restore_from(&saved.0);
                simulated.restore_from(&saved.1);
            }
        }
        same_touched_sets(&replayed, &simulated, list[0], loc, step)?;
    }
    for step in ops.len()..ops.len() + SETTLE_TRAVERSALS {
        let (got, want) = traverse(&mut replayed, &mut simulated, 0, list);
        prop_assert_eq!(got, want, "settle step {}: levels", step);
        same_touched_sets(&replayed, &simulated, list[0], loc, step)?;
    }
    same_everywhere(&replayed, &simulated)?;
    if spec.hierarchy.replacement == ReplacementKind::Lru && lru_l1_period(len, spec.l1.ways()) <= 2
    {
        prop_assert!(replays > 0, "no traversal of {} lines was replayed", len);
    }
    Ok(replays)
}

/// Runs one stream on every inclusion × replacement composition of `base`.
fn every_composition(
    base: CacheSpec,
    seed: u64,
    len_pick: usize,
    ops: &[(u8, u8)],
) -> Result<(), String> {
    for inclusion in INCLUSIONS {
        for policy in POLICIES {
            let spec = base.clone().with_inclusion(inclusion).with_replacement(policy);
            run_stream(&spec, seed, len_pick, ops)
                .map_err(|e| format!("{inclusion:?} × {policy:?}: {e}"))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `tiny_test`: L1 4-way, L2 8-way, LLC 4-way and SF 5-way, so short
    /// lists already thrash the L1 and overflow the shared set.
    #[test]
    fn replay_matches_the_access_loop_on_tiny_test(
        seed in any::<u64>(),
        len_pick in any::<usize>(),
        ops in prop::collection::vec((0u8..14, any::<u8>()), 1..80),
    ) {
        every_composition(CacheSpec::tiny_test(), seed, len_pick, &ops)?;
    }
}

#[cfg(feature = "skylake")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `skylake_sp(2, 4)`: a 12-line SF eviction set shares one 8-way L1 set
    /// and fits the 16-way L2, the probe loop the memo exists for.
    #[test]
    fn replay_matches_the_access_loop_on_skylake_sp(
        seed in any::<u64>(),
        len_pick in any::<usize>(),
        ops in prop::collection::vec((0u8..14, any::<u8>()), 1..80),
    ) {
        every_composition(CacheSpec::skylake_sp(2, 4), seed, len_pick, &ops)?;
    }
}

/// A traversal served by the LLC is never recorded: its outcome also
/// depends on other cores' private sets, which the memo does not save.
/// Core 0 reads a line that only the LLC and core 1 still hold, and gets a
/// Shared copy. Rewound, and with core 1's copy pushed out first by reads
/// that share only its private sets, the same read finds core 0's sets and
/// the LLC/SF set as before but must take the line Exclusive, so replaying
/// the first read would be wrong.
#[test]
fn llc_hits_depend_on_other_cores_and_are_not_replayed() {
    for inclusion in INCLUSIONS {
        let spec = CacheSpec::tiny_test().with_inclusion(inclusion);
        let mut replayed = Hierarchy::new(spec.clone(), 7);
        let mut simulated = Hierarchy::new(spec.clone(), 7);
        let line = LineAddr::from_line_number(0x40);
        let loc = replayed.shared_location(line);
        let neighbours = private_neighbours(&replayed, 0x40, 2 * (spec.l2.ways() + 1));
        let (for_core0, for_core1) = neighbours.split_at(spec.l2.ways() + 1);
        let mut memo = TraversalMemo::default();
        let mut levels = Vec::new();
        for h in [&mut replayed, &mut simulated] {
            h.access(0, line, AccessKind::Read);
            h.access(1, line, AccessKind::Read);
        }
        let saved = (replayed.clone(), simulated.clone());
        for round in 0..2 {
            replayed.restore_from(&saved.0);
            simulated.restore_from(&saved.1);
            for h in [&mut replayed, &mut simulated] {
                if round == 1 {
                    for &n in for_core1 {
                        h.access(1, n, AccessKind::Read);
                    }
                }
                for &n in for_core0 {
                    h.access(0, n, AccessKind::Read);
                }
            }
            let was_replayed = replayed.read_traversal(0, &[line], loc, &mut memo, &mut levels);
            let want = read_loop(&mut simulated, 0, &[line], loc);
            assert_eq!(levels, want, "{inclusion:?} round {round}: levels");
            assert!(
                !was_replayed,
                "{inclusion:?} round {round}: a {:?} read was replayed",
                want[0]
            );
            if let Err(e) = same_everywhere(&replayed, &simulated) {
                panic!("{inclusion:?} round {round}: {e}");
            }
        }
    }
}
