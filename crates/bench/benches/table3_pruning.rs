//! Criterion bench behind Table 3: single eviction-set construction with the
//! state-of-the-art pruning algorithms (no candidate filtering), quiescent
//! local vs Cloud Run noise.
//!
//! Each (algorithm, environment) cell is benchmarked at both noise
//! fidelities: the exact per-event reference keeps its historical benchmark
//! IDs (`<algo>/<env>`), the aggregate bulk-transition mode is the
//! `<algo>/<env> (aggregate)` variant — the headline speed-up of the
//! aggregate mode is the ratio of the two Cloud Run medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llc_bench::experiments::{measure_single_set, Environment};
use llc_fleet::Fleet;
use llc_core::Algorithm;
use llc_cache_model::CacheSpec;
use llc_machine::NoiseFidelity;

fn bench_pruning(c: &mut Criterion) {
    let spec = CacheSpec::skylake_sp(2, 4);
    let mut group = c.benchmark_group("table3_pruning");
    group.sample_size(10);
    for fidelity in [NoiseFidelity::Exact, NoiseFidelity::Aggregate] {
        for env in Environment::all() {
            for algo in [Algorithm::Gt, Algorithm::GtOp, Algorithm::PsOp] {
                let cell = match fidelity {
                    NoiseFidelity::Exact => env.label().to_string(),
                    NoiseFidelity::Aggregate => format!("{} (aggregate)", env.label()),
                };
                group.bench_with_input(
                    BenchmarkId::new(algo.name(), cell),
                    &(env, algo),
                    |b, &(env, algo)| {
                        let mut seed = 0u64;
                        b.iter(|| {
                            seed += 1;
                            measure_single_set(
                                &spec,
                                env,
                                fidelity,
                                algo,
                                false,
                                1,
                                seed,
                                &Fleet::single(),
                            )
                        });
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pruning);
criterion_main!(benches);
