//! Determinism regression suite: the same `(master_seed, trial_count)` must
//! yield bit-identical results and aggregates at 1, 2 and 8 worker threads,
//! and per-trial seeds must never collide across a 10k-trial sweep.
//!
//! The workload deliberately mixes floating-point accumulation (where
//! reduction order would show up immediately as differing low bits) with
//! trial-local RNG draws (where seed reuse would show up as duplicated
//! samples).

use llc_fleet::{trial_seed, Aggregate, Counts, Fleet, Samples, Summary};
use rand::Rng;
use std::collections::HashSet;

/// A trial whose result exercises many f64 bits: a short random walk.
fn noisy_trial(ctx: llc_fleet::TrialCtx) -> f64 {
    let mut rng = ctx.rng();
    let mut acc = 0.0f64;
    for _ in 0..100 {
        acc += rng.gen_range(-1.0..1.0f64);
        acc *= 1.0 + 1e-9 * rng.gen_range(0.0..1.0f64);
    }
    acc
}

fn summary_at(threads: usize, trials: usize, master: u64) -> Summary {
    Samples::from_trials(Fleet::new(threads).with_chunk(3).run(trials, master, noisy_trial))
        .summary()
}

#[test]
fn aggregates_bit_identical_at_1_2_and_8_threads() {
    for master in [0u64, 1, 0xdead_beef, u64::MAX] {
        let s1 = summary_at(1, 257, master);
        let s2 = summary_at(2, 257, master);
        let s8 = summary_at(8, 257, master);
        // Summary derives PartialEq over f64 fields: exact bit comparison of
        // finite values, which is precisely the guarantee under test.
        assert_eq!(s1, s2, "2-thread aggregate diverged for master {master:#x}");
        assert_eq!(s1, s8, "8-thread aggregate diverged for master {master:#x}");
    }
}

#[test]
fn ordered_results_bit_identical_at_1_2_and_8_threads() {
    let r1 = Fleet::new(1).run(100, 42, noisy_trial);
    let r2 = Fleet::new(2).with_chunk(1).run(100, 42, noisy_trial);
    let r8 = Fleet::new(8).with_chunk(7).run(100, 42, noisy_trial);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r1), bits(&r2));
    assert_eq!(bits(&r1), bits(&r8));
}

#[test]
fn counts_bit_identical_across_thread_counts() {
    let count_at = |threads: usize| -> Counts {
        Counts::from_trials(
            Fleet::new(threads).run(1000, 7, |ctx| ctx.rng().gen_range(0..100u32) < 37),
        )
    };
    let c1 = count_at(1);
    assert_eq!(c1.total, 1000);
    assert_eq!(c1, count_at(2));
    assert_eq!(c1, count_at(8));
}

#[test]
fn per_trial_seeds_never_collide_in_a_10k_sweep() {
    for master in [0u64, 0x7ab1e3, u64::MAX / 2] {
        let mut seen = HashSet::with_capacity(10_000);
        for t in 0..10_000u64 {
            let s = trial_seed(master, t);
            assert!(seen.insert(s), "seed collision: master {master:#x}, trial {t}");
        }
    }
}

#[test]
fn trial_seeds_are_schedule_independent() {
    // The seed a trial observes must be a pure function of (master, index),
    // not of the worker or chunk that ran it.
    let seeds_at = |threads: usize, chunk: usize| {
        Fleet::new(threads).with_chunk(chunk).run(500, 0xabc, |ctx| ctx.seed)
    };
    let reference: Vec<u64> = (0..500).map(|t| trial_seed(0xabc, t as u64)).collect();
    assert_eq!(seeds_at(1, 1), reference);
    assert_eq!(seeds_at(2, 9), reference);
    assert_eq!(seeds_at(8, 1), reference);
}

#[test]
fn worker_local_state_does_not_leak_into_results() {
    // Worker state is a scratch buffer "rewound" per trial; results must be
    // identical to the stateless run no matter how trials are sharded.
    let stateless = Fleet::new(1).run(64, 9, noisy_trial);
    let stateful = Fleet::new(8).with_chunk(2).run_with(
        64,
        9,
        |_worker| Vec::<f64>::new(),
        |scratch, ctx| {
            scratch.clear(); // rewind
            scratch.push(noisy_trial(ctx));
            scratch[0]
        },
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&stateless), bits(&stateful));
}
