//! Criterion bench isolating the noise catch-up path the two fidelities
//! implement differently: a monitoring probe revisiting one eviction set
//! after an idle window.
//!
//! This is the access pattern Steps 2–4 spend their time in (prime, wait
//! for the victim, probe), and it is where the fidelities diverge: after a
//! long idle window the exact path materialises every background insertion
//! as a timestamped event, insertion-sorts the burst and replays it through
//! the hierarchy one access at a time, while the aggregate path draws two
//! insertion counts and applies one bulk evict-and-fill transition. The
//! short-window cells pin the other end: for in-traversal gaps the
//! aggregate path must not be *slower* than exact (its common case is a
//! single uniform draw, like exact's own count draw).
//!
//! `table3_pruning` deliberately complements this bench: pruning syncs each
//! set after tiny gaps, so its exact-vs-aggregate cells measure the
//! no-regression end, not the speed-up end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llc_bench::experiments::Environment;
use llc_cache_model::{CacheSpec, VirtAddr};
use llc_evsets::{oracle, CandidateSet};
use llc_machine::{Machine, NoiseFidelity};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const PROBES_PER_ITER: usize = 200;

/// Idle window between probes, in cycles: 10 ms at the model's 2 GHz — a
/// victim-paced monitoring cadence. At the Cloud Run rate this is ~115
/// expected background insertions per probe (far beyond the set's
/// associativity), the regime the aggregate mode exists for.
const LONG_IDLE: u64 = 20_000_000;

/// 50 µs at 2 GHz: ~0.6 expected insertions per probe under Cloud Run —
/// the sparse end of in-traversal windows, where both fidelities should
/// cost about the same.
const SHORT_IDLE: u64 = 100_000;

/// Builds a machine at the requested fidelity plus one oracle-built SF
/// eviction set (the bench measures probing, not Step 1).
fn fixture(environment: Environment, fidelity: NoiseFidelity) -> (Machine, Vec<VirtAddr>) {
    let spec = CacheSpec::skylake_sp(2, 4);
    let mut machine = Machine::builder(spec.clone())
        .noise(environment.noise())
        .noise_fidelity(fidelity)
        .seed(0x97a4)
        .build();
    let mut rng = SmallRng::seed_from_u64(0x97a4);
    let candidates = CandidateSet::allocate(&mut machine, 0x240, 4096, &mut rng);
    let anchor = candidates.addresses()[0];
    let congruent = oracle::congruent_with(&machine, anchor, &candidates.addresses()[1..]);
    let ways = spec.sf.ways();
    assert!(congruent.len() >= ways, "candidate pool must cover the set");
    (machine, congruent[..ways].to_vec())
}

fn bench_noise_catchup(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_catchup");
    group.sample_size(20);
    for env in Environment::all() {
        for fidelity in [NoiseFidelity::Exact, NoiseFidelity::Aggregate] {
            for (idle_label, idle) in [("10ms_idle", LONG_IDLE), ("50us_idle", SHORT_IDLE)] {
                group.bench_with_input(
                    BenchmarkId::new(
                        format!("probe_{}_{}", idle_label, fidelity.label()),
                        env.label(),
                    ),
                    &env,
                    |b, &env| {
                        let (mut machine, addrs) = fixture(env, fidelity);
                        let plan = machine.compile_plan(&addrs);
                        b.iter(|| {
                            let mut total = 0u64;
                            for _ in 0..PROBES_PER_ITER {
                                machine.idle(idle);
                                total += machine.timed_parallel_traverse_plan(&plan);
                            }
                            total
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_noise_catchup);
criterion_main!(benches);
