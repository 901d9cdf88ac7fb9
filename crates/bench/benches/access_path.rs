//! Criterion bench for the raw `Hierarchy::access` throughput — the
//! innermost loop of every experiment in the repository (eviction-set
//! construction, Prime+Scope monitoring and the end-to-end recovery all
//! bottom out in this function).
//!
//! Three steady-state mixes are measured, each as one batch of
//! `BATCH` accesses per iteration (report ms/iter; accesses/sec =
//! `BATCH / time`):
//!
//! * `l1_hit` — a small resident working set, every access served by the L1
//!   (the scope-check fast path);
//! * `llc_hit` — a Shared working set far larger than the L2, so accesses
//!   miss the private levels and hit the LLC, exercising the
//!   lookup + invalidate + SF-allocate transition;
//! * `full_miss` — fresh lines every access: the complete miss path with
//!   private fills, SF allocation and displacement handling;
//! * `echo_pair` — a helper-echoed read (`Hierarchy::echoed_read`: an
//!   attacker read, then a helper-core read) of each line of an SF
//!   candidate pool (`BATCH` pairs per iteration), the path eviction-set
//!   pruning takes with the helper thread echoing.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use llc_cache_model::{AccessKind, CacheSpec, Hierarchy, LineAddr};

/// Accesses per timed iteration.
const BATCH: u64 = 10_000;

fn spec() -> CacheSpec {
    CacheSpec::skylake_sp(8, 4)
}

fn bench_access_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("access_path");
    group.sample_size(20);

    // L1 hits: 8 lines in distinct sets, touched round-robin from one core.
    group.bench_function(format!("l1_hit_{BATCH}"), |b| {
        let mut h = Hierarchy::new(spec(), 1);
        let lines: Vec<LineAddr> = (0..8).map(LineAddr::from_line_number).collect();
        for &l in &lines {
            h.access(0, l, AccessKind::Read);
        }
        b.iter(|| {
            let mut served = 0u64;
            for i in 0..BATCH {
                let line = lines[(i % lines.len() as u64) as usize];
                served += h.access(0, line, AccessKind::Read).level as u64;
            }
            black_box(served)
        });
    });

    // LLC hits: a Shared working set larger than the L2 (16k lines), cycled
    // with a stride that defeats the private caches but stays LLC-resident.
    group.bench_function(format!("llc_hit_{BATCH}"), |b| {
        let mut h = Hierarchy::new(spec(), 2);
        let working_set: Vec<LineAddr> =
            (0..(1u64 << 16)).map(LineAddr::from_line_number).collect();
        // Make every line Shared (two cores touch it), pushing it to the LLC.
        for &l in &working_set {
            h.access(0, l, AccessKind::Read);
            h.access(1, l, AccessKind::Read);
        }
        let mut cursor = 0usize;
        b.iter(|| {
            let mut served = 0u64;
            for _ in 0..BATCH {
                served += h.access(2, working_set[cursor], AccessKind::Read).level as u64;
                cursor = (cursor + 97) % working_set.len();
            }
            black_box(served)
        });
    });

    // Full misses: every access is a line the hierarchy has never seen, so
    // each one walks L1/L2/LLC/SF and allocates an SF entry.
    group.bench_function(format!("full_miss_{BATCH}"), |b| {
        let mut h = Hierarchy::new(spec(), 3);
        let mut next = 1u64 << 30;
        b.iter(|| {
            let mut displaced = 0u64;
            for _ in 0..BATCH {
                next += 1;
                let out = h.access(0, LineAddr::from_line_number(next), AccessKind::Read);
                displaced += out.displaced_sf_entry as u64;
            }
            black_box(displaced)
        });
    });

    // Helper-echoed pairs over a 3·U·W SF candidate pool: 4,608 lines at one
    // page offset on a 4-slice host (U = 128 sets, W = 12 ways). 36 pool
    // lines map to each 11-way LLC set, so in steady state the attacker's
    // read misses to memory (private fill + SF allocation) and the helper's
    // half is the SF snoop (owner downgrade, LLC insert, Shared fill) that
    // `echoed_read` applies at the ways the attacker's fill took.
    group.bench_function(format!("echo_pair_{BATCH}"), |b| {
        let mut h = Hierarchy::new(CacheSpec::skylake_sp(4, 4), 4);
        let pool: Vec<LineAddr> =
            (0..4608u64).map(|n| LineAddr::from_line_number(n * 64 + 3)).collect();
        let mut cursor = 0usize;
        b.iter(|| {
            let mut served = 0u64;
            for _ in 0..BATCH {
                let line = pool[cursor];
                let loc = h.shared_location(line);
                served += h.echoed_read(0, 1, line, loc) as u64;
                cursor = (cursor + 1) % pool.len();
            }
            black_box(served)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_access_path);
criterion_main!(benches);
