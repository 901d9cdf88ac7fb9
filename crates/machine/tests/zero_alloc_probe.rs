//! Pins the headline claim of the plan rewrite: a plan-based traverse under
//! Cloud Run noise performs **zero heap allocations** per probe.
//!
//! The test installs a counting wrapper around the system allocator (its own
//! process — integration tests each get one binary), warms the machine until
//! every scratch buffer has reached steady-state capacity, and then asserts
//! that a long plan-based prime/probe loop neither allocates nor frees.
//! Counting is armed per-thread (const-initialised TLS, so arming itself
//! cannot allocate): the libtest harness prints from other threads while the
//! test runs, and those buffers must not pollute the measurement.

use llc_machine::{Machine, NoiseModel, VirtAddr};
use llc_cache_model::CacheSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn armed() -> bool {
    ARMED.try_with(|armed| armed.get()).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if armed() {
            FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn plan_based_probe_loop_is_allocation_free() {
    // Cloud Run noise: the worst case — every traversal runs a Poisson
    // catch-up per touched set, which used to allocate and sort a Vec each.
    let mut machine = Machine::builder(CacheSpec::tiny_test())
        .noise(NoiseModel::cloud_run())
        .seed(0xa110c)
        .build();
    let base = machine.alloc_attacker_pages(16);
    let vas: Vec<VirtAddr> = (0..16u64).map(|i| base.offset(i * 4096)).collect();
    let plan = machine.compile_plan(&vas);

    // Warm-up: grow every reusable buffer to steady state — the machine's
    // level scratch, the noise process's event scratch and the hierarchy's
    // back-invalidation queue. The first traverse only *synchronises* the
    // never-touched sets (no burst); the long idle after it makes the second
    // traverse catch up a capped `MAX_BURST` burst on every set, which is
    // the scratch buffers' high-water mark.
    machine.parallel_traverse_plan(&plan);
    machine.idle(500_000_000);
    for _ in 0..64 {
        machine.timed_parallel_traverse_plan(&plan);
        machine.sequential_traverse_plan(&plan);
        machine.parallel_traverse(&vas);
        machine.idle(2_000_000);
    }

    ARMED.with(|armed| armed.set(true));
    for _ in 0..10_000 {
        machine.timed_parallel_traverse_plan(&plan);
    }
    machine.idle(100_000_000); // accumulate a fat noise gap mid-loop
    for _ in 0..10_000 {
        machine.parallel_traverse_plan(&plan);
    }
    // The slice-based paths compile into the machine's scratch plan, which
    // the warm-up has already grown: they must not touch the heap either.
    for _ in 0..1_000 {
        machine.parallel_traverse(&vas);
        machine.timed_parallel_traverse(&vas);
        machine.sequential_traverse(&vas);
    }
    ARMED.with(|armed| armed.set(false));

    let allocs = ALLOCS.load(Ordering::Relaxed);
    let frees = FREES.load(Ordering::Relaxed);
    assert_eq!(
        (allocs, frees),
        (0, 0),
        "probing must not touch the heap: {allocs} allocs / {frees} frees in 23k probes",
    );
}
