//! Criterion bench behind Table 4: single eviction-set construction *with*
//! L2-driven candidate filtering, comparing GtOp against the paper's BinS.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llc_bench::experiments::{measure_single_set, Environment};
use llc_fleet::Fleet;
use llc_core::Algorithm;
use llc_cache_model::CacheSpec;
use llc_machine::NoiseFidelity;

fn bench_filtered_construction(c: &mut Criterion) {
    let spec = CacheSpec::skylake_sp(2, 4);
    let mut group = c.benchmark_group("table4_filtered");
    group.sample_size(10);
    for env in Environment::all() {
        for algo in [Algorithm::Gt, Algorithm::GtOp, Algorithm::PsOp, Algorithm::BinS] {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), env.label()),
                &(env, algo),
                |b, &(env, algo)| {
                    let mut seed = 100u64;
                    b.iter(|| {
                        seed += 1;
                        measure_single_set(
                            &spec,
                            env,
                            NoiseFidelity::Exact,
                            algo,
                            true,
                            1,
                            seed,
                            &Fleet::single(),
                        )
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_filtered_construction);
criterion_main!(benches);
