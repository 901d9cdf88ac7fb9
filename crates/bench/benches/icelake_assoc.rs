//! Criterion bench behind Section 5.3.2: eviction-set construction cost on
//! Skylake-SP versus the higher-associativity Ice Lake-SP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llc_bench::experiments::{measure_single_set, Environment};
use llc_fleet::Fleet;
use llc_core::Algorithm;
use llc_cache_model::CacheSpec;
use llc_machine::NoiseFidelity;

fn bench_associativity(c: &mut Criterion) {
    let machines =
        [("skylake", CacheSpec::skylake_sp(2, 4)), ("icelake", CacheSpec::ice_lake_sp_with(2, 4))];
    let mut group = c.benchmark_group("icelake_associativity");
    group.sample_size(10);
    for (name, spec) in &machines {
        for algo in [Algorithm::GtOp, Algorithm::BinS] {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), name),
                &algo,
                |b, &algo| {
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed += 1;
                        measure_single_set(
                            spec,
                            Environment::QuiescentLocal,
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

criterion_group!(benches, bench_associativity);
criterion_main!(benches);
