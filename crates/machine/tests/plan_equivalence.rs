//! Property-based equivalence of the compiled-plan hot paths against the
//! ad-hoc VA paths they replace.
//!
//! The plan rewrite moves VA translation, slice hashing and touched-set
//! sorting out of the per-traversal loop, and the noise engine trades its
//! per-catch-up `Vec` for a reusable scratch buffer. Neither change is
//! allowed to move a single RNG draw or cache operation: the golden
//! experiment outputs are byte-pinned on the ad-hoc semantics. These
//! properties drive random traversal mixes through paired machines — one on
//! each path — and require every observable (returned costs, clock, work
//! counters, and the downstream timed-access stream, which is sensitive to
//! the full hierarchy + RNG state) to stay bit-identical.

use llc_machine::{Machine, NoiseEvent, NoiseFidelity, NoiseModel, NoiseProcess, sample_poisson};
use llc_cache_model::{CacheSpec, SetLocation, VirtAddr};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Pages available to the traversal generator.
const POOL_PAGES: usize = 24;

/// Builds a Cloud-Run-noisy machine with `POOL_PAGES` attacker pages and
/// returns the page-base VAs (noise is the stressful case: every traversal
/// draws catch-up randomness per touched set).
fn noisy_machine(seed: u64) -> (Machine, Vec<VirtAddr>) {
    let mut m = Machine::builder(CacheSpec::tiny_test())
        .noise(NoiseModel::cloud_run())
        .seed(seed)
        .build();
    let base = m.alloc_attacker_pages(POOL_PAGES);
    let pages = (0..POOL_PAGES as u64).map(|i| base.offset(i * 4096)).collect();
    (m, pages)
}

/// Decodes a raw index stream into VAs over the pool (several per page so
/// traversals hit duplicate and distinct sets in arbitrary orders).
fn decode_vas(pages: &[VirtAddr], raw: &[(u8, u8)]) -> Vec<VirtAddr> {
    raw.iter()
        .map(|&(p, l)| pages[p as usize % pages.len()].offset((l as u64 % 8) * 64))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plan-based traversals leave the machine bit-identical to ad-hoc
    /// traversals of the same VAs: same per-call costs, same clock, same
    /// stats, and an identical downstream observation stream.
    #[test]
    fn plan_traversals_match_adhoc_bit_for_bit(
        seed in 0u64..1024,
        raw in prop::collection::vec((any::<u8>(), any::<u8>()), 1..48),
        idle in 1_000u64..2_000_000,
        mode in 0u8..3,
    ) {
        let (mut adhoc, pages_a) = noisy_machine(seed);
        let (mut planned, pages_b) = noisy_machine(seed);
        prop_assert_eq!(&pages_a, &pages_b);
        let vas = decode_vas(&pages_a, &raw);
        let plan = planned.compile_plan(&vas);
        prop_assert_eq!(plan.addresses(), vas.as_slice());
        prop_assert!(planned.plan_is_current(&plan));

        // Interleave idles (noise gaps accumulate) with repeated traversals.
        for round in 0..3 {
            adhoc.idle(idle);
            planned.idle(idle);
            let (a, b) = match (mode + round) % 3 {
                0 => (adhoc.parallel_traverse(&vas), planned.parallel_traverse_plan(&plan)),
                1 => (
                    adhoc.timed_parallel_traverse(&vas),
                    planned.timed_parallel_traverse_plan(&plan),
                ),
                _ => (adhoc.sequential_traverse(&vas), planned.sequential_traverse_plan(&plan)),
            };
            prop_assert_eq!(a, b, "round {} cost diverged", round);
            prop_assert_eq!(adhoc.now(), planned.now());
        }
        prop_assert_eq!(adhoc.stats(), planned.stats());

        // The timed-access stream is a function of the complete hierarchy
        // state (tags + replacement metadata) and the RNG position; any
        // divergence the costs above missed surfaces here.
        for &va in &vas {
            prop_assert_eq!(adhoc.timed_access(va), planned.timed_access(va));
        }
        for &page in &pages_a {
            prop_assert_eq!(adhoc.timed_access(page), planned.timed_access(page));
        }
        prop_assert_eq!(adhoc.now(), planned.now());
    }

    /// The scratch-buffer `catch_up` yields the exact event sequence of the
    /// old allocating implementation for identical RNG streams, across
    /// empty, small and capped bursts.
    #[test]
    fn scratch_catch_up_matches_allocating_oracle(
        seed in 0u64..4096,
        gaps in prop::collection::vec(1u64..40_000_000, 1..24),
    ) {
        let model = NoiseModel::cloud_run();
        let mut process = NoiseProcess::new(model.clone(), NoiseFidelity::Exact, 64, 2);
        let mut rng_new = SmallRng::seed_from_u64(seed);
        let mut rng_old = SmallRng::seed_from_u64(seed);
        let loc = SetLocation::new(1, 7);
        process.mark_synced(loc, 0);
        let mut oracle_last = 0u64;
        let mut now = 0u64;
        for &gap in &gaps {
            now += gap;
            let new_events = process.catch_up(loc, now, &mut rng_new).to_vec();
            let old_events = oracle_catch_up(&model, oracle_last, now, &mut rng_old);
            oracle_last = now;
            prop_assert_eq!(new_events, old_events);
        }
    }
}

/// The pre-rewrite `catch_up` body, kept verbatim as the oracle (allocating
/// a fresh `Vec` per call). `MAX_BURST` pins the process's cap; if the cap
/// ever changes, this test forces the equivalence story to be revisited.
fn oracle_catch_up(
    model: &NoiseModel,
    last: u64,
    now: u64,
    rng: &mut impl Rng,
) -> Vec<NoiseEvent> {
    const MAX_BURST: u64 = 96;
    if model.is_silent() || now <= last {
        return Vec::new();
    }
    let dt = (now - last) as f64;
    let lambda = dt * model.accesses_per_cycle_per_set;
    let count = sample_poisson(lambda, rng).min(MAX_BURST);
    let mut events: Vec<NoiseEvent> = (0..count)
        .map(|_| NoiseEvent {
            at: last + rng.gen_range(0..(now - last).max(1)),
            shared: rng.gen_bool(model.shared_fraction),
        })
        .collect();
    events.sort_by_key(|e| e.at);
    events
}

/// Plans survive `reset_to` (snapshots keep the VA→PA lottery) …
#[test]
fn plans_survive_reset_to() {
    let (mut m, pages) = noisy_machine(9);
    let snap = m.snapshot();
    let plan = m.compile_plan(&pages);
    let a = m.timed_parallel_traverse_plan(&plan);
    m.reset_to(&snap);
    assert!(m.plan_is_current(&plan), "reset_to must not invalidate plans");
    let b = m.timed_parallel_traverse_plan(&plan);
    assert_eq!(a, b, "a rewound machine must replay the plan identically");
}

/// … but `reseed` invalidates them, and traversing a stale plan panics.
#[test]
fn reseed_invalidates_plans() {
    let (mut m, pages) = noisy_machine(10);
    let mut plan = m.compile_plan(&pages);
    assert!(m.plan_is_current(&plan));
    m.reseed(0x5eed);
    assert!(!m.plan_is_current(&plan));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.parallel_traverse_plan(&plan)
    }));
    assert!(result.is_err(), "traversing a stale plan must panic");
    // Recompiling in place revalidates (and reuses the plan's buffers).
    m.compile_plan_into(&pages, &mut plan);
    assert!(m.plan_is_current(&plan));
    m.parallel_traverse_plan(&plan);
}
