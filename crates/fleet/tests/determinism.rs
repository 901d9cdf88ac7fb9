//! Determinism regression suite: the same `(master_seed, trial_count)` must
//! yield bit-identical, trial-ordered results, and so bit-identical serial
//! folds over them, at 1, 2 and 8 worker threads, and per-trial seeds must
//! never collide across a 10k-trial sweep.
//!
//! The workload deliberately mixes floating-point accumulation (where a
//! schedule-dependent result order would show up immediately as differing
//! low bits in a caller's fold) with trial-local RNG draws (where seed reuse
//! would show up as duplicated samples).

use llc_fleet::{trial_seed, Fleet};
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Mean, sample σ and median of the trial-ordered results, folded serially
/// the way a caller (e.g. table6) folds them, as raw bit patterns.
fn fold_at(threads: usize, trials: usize, master: u64) -> [u64; 3] {
    let xs = Fleet::new(threads).with_chunk(3).run(trials, master, noisy_trial);
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let std = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
    let mut sorted = xs;
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    [mean.to_bits(), std.to_bits(), median.to_bits()]
}

#[test]
fn aggregates_bit_identical_at_1_2_and_8_threads() {
    for master in [0u64, 1, 0xdead_beef, u64::MAX] {
        let s1 = fold_at(1, 257, master);
        assert_eq!(s1, fold_at(2, 257, master), "2-thread fold diverged for master {master:#x}");
        assert_eq!(s1, fold_at(8, 257, master), "8-thread fold diverged for master {master:#x}");
    }
}

#[test]
fn ordered_results_bit_identical_at_1_2_and_8_threads() {
    for master in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
        let serial = bits(&Fleet::new(1).run(257, master, noisy_trial));
        for (threads, chunk) in [(2, 1), (2, 3), (8, 3), (8, 7)] {
            let sharded = Fleet::new(threads).with_chunk(chunk).run(257, master, noisy_trial);
            assert_eq!(
                serial,
                bits(&sharded),
                "{threads} threads, chunk {chunk} diverged for master {master:#x}"
            );
        }
    }
}

#[test]
fn counts_bit_identical_across_thread_counts() {
    let count_at = |threads: usize| {
        let hits = Fleet::new(threads).run(1000, 7, |ctx| ctx.rng().gen_range(0..100u32) < 37);
        assert_eq!(hits.len(), 1000);
        hits.iter().filter(|&&hit| hit).count()
    };
    let c1 = count_at(1);
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
    assert_eq!(bits(&stateless), bits(&stateful));
}
