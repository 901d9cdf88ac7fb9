//! Criterion bench behind the compiled-plan rewrite: the same 1,000-probe
//! monitoring burst over one SF eviction set, traversed through the ad-hoc
//! VA path (per-call translation + slice hash + sort/dedup) and through a
//! plan compiled once. Both run under quiescent and Cloud Run noise — the
//! noise-heavy case is where the paper's experiments spend their time, and
//! where the allocation-free catch-up shows up on top of the plan win.
//! `plan_probe_disturbed_x1000` is the same plan burst with a `clflush`
//! before every second probe, which the hierarchy's replay memo can never
//! serve: it prices the memo's bookkeeping when it does not pay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llc_bench::experiments::Environment;
use llc_evsets::{oracle, CandidateSet};
use llc_machine::Machine;
use llc_cache_model::{CacheSpec, VirtAddr};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const PROBES_PER_ITER: usize = 1_000;

/// Builds a machine plus a true SF eviction set (oracle-built: the bench
/// measures traversal cost, not Step 1).
fn fixture(environment: Environment) -> (Machine, Vec<VirtAddr>) {
    let spec = CacheSpec::skylake_sp(2, 4);
    let mut machine =
        Machine::builder(spec.clone()).noise(environment.noise()).seed(0x97a4).build();
    let mut rng = SmallRng::seed_from_u64(0x97a4);
    let candidates = CandidateSet::allocate(&mut machine, 0x240, 4096, &mut rng);
    let anchor = candidates.addresses()[0];
    let congruent = oracle::congruent_with(&machine, anchor, &candidates.addresses()[1..]);
    let ways = spec.sf.ways();
    assert!(congruent.len() >= ways, "candidate pool must cover the set");
    (machine, congruent[..ways].to_vec())
}

fn bench_plan_traverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_traverse");
    group.sample_size(20);
    for env in Environment::all() {
        group.bench_with_input(
            BenchmarkId::new("adhoc_probe_x1000", env.label()),
            &env,
            |b, &env| {
                let (mut machine, addrs) = fixture(env);
                b.iter(|| {
                    let mut total = 0u64;
                    for _ in 0..PROBES_PER_ITER {
                        total += machine.timed_parallel_traverse(&addrs);
                    }
                    total
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("plan_probe_x1000", env.label()),
            &env,
            |b, &env| {
                let (mut machine, addrs) = fixture(env);
                let plan = machine.compile_plan(&addrs);
                b.iter(|| {
                    let mut total = 0u64;
                    for _ in 0..PROBES_PER_ITER {
                        total += machine.timed_parallel_traverse_plan(&plan);
                    }
                    total
                });
            },
        );
        // The replay memo's worst case: `clflush` the traversal's last line
        // before every second probe. Each flush leaves the L1 thrash cycle in
        // a new phase, so no probe's pre-state comes round again while the
        // memo holds it: every probe saves its pre-state, every second one
        // records, and none replays.
        group.bench_with_input(
            BenchmarkId::new("plan_probe_disturbed_x1000", env.label()),
            &env,
            |b, &env| {
                let (mut machine, addrs) = fixture(env);
                let plan = machine.compile_plan(&addrs);
                let last = addrs[addrs.len() - 1];
                b.iter(|| {
                    let mut total = 0u64;
                    for i in 0..PROBES_PER_ITER {
                        if i % 2 == 0 {
                            machine.clflush(last);
                        }
                        total += machine.timed_parallel_traverse_plan(&plan);
                    }
                    total
                });
            },
        );
        // Compile cost: how many probes does one compilation amortise over?
        group.bench_with_input(
            BenchmarkId::new("compile_plan", env.label()),
            &env,
            |b, &env| {
                let (machine, addrs) = fixture(env);
                let mut plan = machine.compile_plan(&addrs);
                b.iter(|| machine.compile_plan_into(&addrs, &mut plan));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_plan_traverse);
criterion_main!(benches);
