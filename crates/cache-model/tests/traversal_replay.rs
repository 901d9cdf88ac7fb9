//! Equivalence of `Hierarchy::read_traversal`, which replays repeated
//! eviction-set traversals from a `TraversalMemo`, with the plain
//! `access_at` loop it stands for.
//!
//! Twin hierarchies run one op stream. Eviction-set traversals go through
//! `read_traversal` on one twin and through one `access_at` read per line on
//! the other; everything else — background noise on the set (per event, in
//! bulk and as an aggregate advance), `clflush` of one of its lines,
//! another core's read of a congruent line, helper-echoed reads of one,
//! replacement-state priming, any core's reads of lines that share only the
//! private sets, `flush_all`, and snapshot rewinds that keep the memo — is
//! applied to both. After every step the serving levels must be equal, and
//! so must every set the stream can touch, way by way (lines, payloads and
//! metadata words), for every core's L1 and L2 and for the LLC and SF; at
//! the end of a stream, every set of every structure must be. Every
//! inclusion policy × every replacement policy runs on `tiny_test` and on
//! `skylake_sp(2, 4)`. Where LRU makes the traversal's L1 cycle short
//! enough for the memo's two entries, replays must have happened, and some
//! of them without a compare (`TraversalPath::Linked`), so the suite cannot
//! pass without exercising either path. Every operation between two
//! traversals advances the write count that decides the compare-free path,
//! so an entry point that forgot to would replay over changed sets here.

mod support;

use llc_cache_model::{
    AccessKind, CacheSpec, Hierarchy, HitLevel, InclusionPolicy, LineAddr, ReplacementKind,
    SetLocation, TraversalMemo, TraversalPath,
};
use proptest::prelude::*;
use support::{congruent_lines, same_everywhere, same_touched_sets, INCLUSIONS, POLICIES};

/// Undisturbed traversals that end every stream: enough for a cycle of
/// period 2 to come round twice after a cold traversal, also when the
/// memo's back-off (two traversals recorded in every eight, after more than
/// eight misses in a row) holds off recording for six of them.
const SETTLE_TRAVERSALS: usize = 12;

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

/// How many traversals of a stream were replayed, and how many of those
/// without a compare.
#[derive(Debug, Default)]
struct Replays {
    all: u64,
    linked: u64,
}

/// Runs `ops` on twins of `spec` and checks them after every step.
fn run_stream(
    spec: &CacheSpec,
    seed: u64,
    len_pick: usize,
    ops: &[(u8, u8)],
) -> Result<Replays, String> {
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
    let mut replays = Replays::default();
    let mut traverse = |a: &mut Hierarchy, b: &mut Hierarchy, core: usize, lines: &[LineAddr]| {
        let path = a.read_traversal(core, lines, loc, &mut memo, &mut levels);
        replays.all += u64::from(path != TraversalPath::Simulated);
        replays.linked += u64::from(path == TraversalPath::Linked);
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
            13 => {
                // A snapshot rewind, which leaves the memo as it is (as
                // `Machine::reset_to` does).
                replayed.restore_from(&saved.0);
                simulated.restore_from(&saved.1);
            }
            14 => {
                // A helper-echoed read of a congruent line, as pruning does.
                let core = pick % spec.cores;
                let helper = (core + 1 + pick / 8 % (spec.cores - 1)) % spec.cores;
                let line = pool[pick / 4 % pool.len()];
                let got = replayed.echoed_read(core, helper, line, loc);
                let want = simulated.echoed_read(core, helper, line, loc);
                prop_assert_eq!(got, want, "step {}: echoed read by {} and {}", step, core, helper);
            }
            15 => {
                let (llc_fills, sf_fills) = ((pick % 4) as u64, (pick / 4 % 4) as u64);
                for h in [&mut replayed, &mut simulated] {
                    h.noise_advance_bulk(loc, llc_fills, sf_fills);
                }
            }
            _ => {
                for h in [&mut replayed, &mut simulated] {
                    h.flush_all();
                }
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
        prop_assert!(replays.all > 0, "no traversal of {} lines was replayed", len);
        prop_assert!(replays.linked > 0, "no traversal of {} lines replayed unchecked", len);
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
        ops in prop::collection::vec((0u8..17, any::<u8>()), 1..80),
    ) {
        every_composition(CacheSpec::tiny_test(), seed, len_pick, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `skylake_sp(2, 4)`: a 12-line SF eviction set shares one 8-way L1 set
    /// and fits the 16-way L2, the probe loop the memo exists for.
    #[test]
    fn replay_matches_the_access_loop_on_skylake_sp(
        seed in any::<u64>(),
        len_pick in any::<usize>(),
        ops in prop::collection::vec((0u8..17, any::<u8>()), 1..80),
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
            let path = replayed.read_traversal(0, &[line], loc, &mut memo, &mut levels);
            let want = read_loop(&mut simulated, 0, &[line], loc);
            assert_eq!(levels, want, "{inclusion:?} round {round}: levels");
            assert!(
                path == TraversalPath::Simulated,
                "{inclusion:?} round {round}: a {:?} read was replayed",
                want[0]
            );
            if let Err(e) = same_everywhere(&replayed, &simulated) {
                panic!("{inclusion:?} round {round}: {e}");
            }
        }
    }
}

/// A rewind advances the write count rather than copying the snapshot's.
/// The memo's stamp is a write count of the hierarchy it serves, and a
/// snapshot can reach that count with other sets: here one taken a
/// traversal before the stamp, whose sets then lose a line of the eviction
/// set to a `clflush` and whose count is padded up to the stamp with
/// flushes of a line nothing holds. After the rewind the next traversal
/// must compare the sets, find them changed and simulate; a replay without
/// the compare would serve the flushed line from L1.
#[test]
fn a_rewind_to_other_sets_at_the_stamped_count_is_compared() {
    for inclusion in INCLUSIONS {
        let spec = CacheSpec::tiny_test().with_inclusion(inclusion);
        let mut replayed = Hierarchy::new(spec.clone(), 11);
        let mut simulated = Hierarchy::new(spec.clone(), 11);
        // Two lines fit the 4-way L1, so an undisturbed traversal leaves
        // the sets as it found them and links its entry to itself.
        let list = congruent_lines(&replayed, 0x40, 2);
        let loc = replayed.shared_location(list[0]);
        let mut memo = TraversalMemo::default();
        let mut levels = Vec::new();
        let mut traverse = |a: &mut Hierarchy, b: &mut Hierarchy| {
            let path = a.read_traversal(0, &list, loc, &mut memo, &mut levels);
            let want = read_loop(b, 0, &list, loc);
            assert_eq!(levels, want, "{inclusion:?}: levels");
            (path, want[0])
        };
        let paths: Vec<_> = (0..3).map(|_| traverse(&mut replayed, &mut simulated).0).collect();
        assert_eq!(paths.last(), Some(&TraversalPath::Linked), "{inclusion:?}: {paths:?}");
        let mut snapshot = (replayed.clone(), simulated.clone());
        let (path, _) = traverse(&mut replayed, &mut simulated);
        assert_eq!(path, TraversalPath::Linked, "{inclusion:?}");

        let nowhere = LineAddr::from_line_number(1 << 40);
        for h in [&mut snapshot.0, &mut snapshot.1] {
            h.clflush(list[0]);
        }
        let behind = replayed.write_count().checked_sub(snapshot.0.write_count());
        for _ in 0..behind.expect("the snapshot wrote less than the hierarchy") {
            snapshot.0.clflush(nowhere);
        }
        assert_eq!(snapshot.0.write_count(), replayed.write_count(), "{inclusion:?}");
        replayed.restore_from(&snapshot.0);
        simulated.restore_from(&snapshot.1);
        let (path, first) = traverse(&mut replayed, &mut simulated);
        assert_eq!(path, TraversalPath::Simulated, "{inclusion:?}");
        assert_eq!(first, HitLevel::Memory, "{inclusion:?}: the flushed line");
        if let Err(e) = same_everywhere(&replayed, &simulated) {
            panic!("{inclusion:?}: {e}");
        }
    }
}

/// After more than eight traversals in a row that it could not replay, the
/// memo saves and records only two in every eight. That must not keep a
/// loop from being replayed once its disturbance stops: whichever phase of
/// the back-off the disturbance ends in, a period-2 probe loop replays
/// without a compare by its ninth undisturbed traversal (up to six go
/// unrecorded, the first of them reloading the last flushed line; the next
/// two record) and on every traversal after that.
#[test]
fn a_loop_replays_again_after_a_run_of_misses() {
    let spec = CacheSpec::skylake_sp(2, 4).with_replacement(ReplacementKind::Lru);
    for disturbed in 1..=24 {
        let mut replayed = Hierarchy::new(spec.clone(), 5);
        let mut simulated = Hierarchy::new(spec.clone(), 5);
        // As many lines as the SF has ways: they thrash the 8-way L1 with
        // period 2 and all stay in the L2.
        let list = congruent_lines(&replayed, 0x40, spec.sf.ways());
        assert_eq!(lru_l1_period(list.len(), spec.l1.ways()), 2);
        let loc = replayed.shared_location(list[0]);
        let mut memo = TraversalMemo::default();
        let mut levels = Vec::new();
        let mut paths = Vec::new();
        for step in 0..disturbed + 16 {
            if step < disturbed {
                for h in [&mut replayed, &mut simulated] {
                    h.clflush(list[step % list.len()]);
                }
            }
            paths.push(replayed.read_traversal(0, &list, loc, &mut memo, &mut levels));
            let want = read_loop(&mut simulated, 0, &list, loc);
            assert_eq!(levels, want, "{disturbed} disturbed, step {step}: levels");
        }
        let (during, after) = paths.split_at(disturbed);
        assert!(during.iter().all(|&p| p == TraversalPath::Simulated), "{during:?}");
        let first = after.iter().position(|&p| p == TraversalPath::Linked);
        let first = first
            .filter(|&i| i < 9)
            .unwrap_or_else(|| panic!("{disturbed} disturbed: no link by the ninth: {after:?}"));
        assert!(
            after[first..].iter().all(|&p| p == TraversalPath::Linked),
            "{disturbed} disturbed: {after:?}"
        );
        if let Err(e) = same_everywhere(&replayed, &simulated) {
            panic!("{disturbed} disturbed: {e}");
        }
    }
}
