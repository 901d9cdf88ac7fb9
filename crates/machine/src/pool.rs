//! A shared pool of built machines, keyed by machine-configuration hash.
//!
//! Building a [`Machine`] is the dominant *fixed* cost of a sweep: PR 2
//! measured a fresh build at ~2.3–2.7× the price of an in-place snapshot
//! reset. A per-cell experiment loop pays that price once per cell per
//! worker; a campaign over a large grid pays it O(cells × workers) times
//! even though only a handful of *distinct* machine configurations exist.
//!
//! `MachinePool` bounds machine construction at O(workers × distinct
//! configurations): the first checkout of a key builds the machine (and
//! captures its pristine snapshot); every later checkout pops an idle
//! machine back off the shelf, and callers rewind it per trial with
//! [`PooledMachine::reset`] + [`Machine::reseed`] exactly as they would a
//! privately-built machine.
//!
//! ## Determinism contract
//!
//! A pooled machine is interchangeable with a freshly built one **provided
//! the caller reseeds it**: `reset_to` restores every piece of
//! run-time state captured by the snapshot (hierarchy contents, noise
//! process, clock, stats, address space), and `reseed` replaces the two
//! run-time RNG streams (machine RNG, attacker address-space lottery). The
//! only build-seed residue that survives is the per-set replacement RNG
//! array inside the hierarchy, which is consulted exclusively by
//! `ReplacementKind::Random` — under the deterministic policies every
//! experiment default uses, a pooled machine and a fresh build are
//! byte-identical (pinned by this module's tests). Keys must therefore
//! capture everything that distinguishes one build from another: spec,
//! environment, noise fidelity, *and* build seed if the caller runs
//! `Random` replacement.
//!
//! Machines checked into a pool must not have a victim installed
//! ([`Machine::snapshot`] enforces this at build time).

use crate::machine::{Machine, MachineSnapshot};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex};

/// Construction/traffic counters for a [`MachinePool`].
///
/// `builds` counts machine *constructions* — from-scratch builds plus
/// snapshot materialisations — which is the quantity the campaign
/// throughput claim pins at O(workers × distinct keys). `acquisitions`
/// counts every checkout, pooled or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Machines constructed (fresh builds + snapshot materialisations).
    pub builds: u64,
    /// Total checkouts served, including reused idle machines.
    pub acquisitions: u64,
    /// Distinct keys the pool has seen.
    pub keys: u64,
    /// Machines dropped instead of returned (trial panicked mid-flight, or
    /// the caller called [`PooledMachine::discard`]).
    pub discards: u64,
}

#[derive(Debug)]
struct PoolEntry {
    snapshot: Arc<MachineSnapshot>,
    idle: Vec<Machine>,
}

#[derive(Debug, Default)]
struct PoolInner {
    entries: HashMap<u64, PoolEntry>,
    builds: u64,
    acquisitions: u64,
    discards: u64,
}

/// A thread-safe machine pool keyed by caller-supplied configuration hash.
///
/// Cheap to share: clone the [`Arc`] into each worker. All bookkeeping sits
/// behind one mutex, which is touched per *checkout* (per cell segment in a
/// campaign), not per trial.
#[derive(Debug, Default)]
pub struct MachinePool {
    inner: Mutex<PoolInner>,
}

impl MachinePool {
    /// A fresh, empty pool, ready to share across workers.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Checks out a machine for configuration `key`, building one with
    /// `build` only if the pool has neither an idle machine nor a snapshot
    /// for that key. The machine is returned **as last seen** — callers
    /// rewind it with [`PooledMachine::reset`] (and typically
    /// [`Machine::reseed`]) before use, exactly as the per-cell experiment
    /// loops rewind their private snapshots.
    ///
    /// `build` must produce a machine with no victim installed; its pristine
    /// state is captured as the pool snapshot for `key` on first build.
    pub fn acquire(
        self: &Arc<Self>,
        key: u64,
        build: impl FnOnce() -> Machine,
    ) -> PooledMachine {
        let mut inner = self.inner.lock().expect("machine pool poisoned");
        inner.acquisitions += 1;
        let (snapshot, machine) = match inner.entries.get_mut(&key) {
            Some(entry) => {
                let snapshot = Arc::clone(&entry.snapshot);
                match entry.idle.pop() {
                    Some(machine) => (snapshot, machine),
                    None => {
                        // Another worker holds this key's machines; clone a
                        // sibling from the pristine snapshot.
                        inner.builds += 1;
                        let machine = snapshot.to_machine();
                        (snapshot, machine)
                    }
                }
            }
            None => {
                // First sighting of this configuration: build under the lock
                // so concurrent first-checkouts of the same key cannot race
                // to two different snapshots.
                inner.builds += 1;
                let machine = build();
                let snapshot = Arc::new(machine.snapshot());
                inner.entries.insert(
                    key,
                    PoolEntry { snapshot: Arc::clone(&snapshot), idle: Vec::new() },
                );
                (snapshot, machine)
            }
        };
        drop(inner);
        PooledMachine { pool: Arc::clone(self), key, snapshot, machine: Some(machine) }
    }

    /// Current construction/traffic counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock().expect("machine pool poisoned");
        PoolStats {
            builds: inner.builds,
            acquisitions: inner.acquisitions,
            keys: inner.entries.len() as u64,
            discards: inner.discards,
        }
    }

    fn check_in(&self, key: u64, machine: Machine) {
        let mut inner = self.inner.lock().expect("machine pool poisoned");
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.idle.push(machine);
        }
    }

    fn note_discard(&self) {
        // `lock()` would poison-panic if the pool mutex was held across a
        // panic; the pool only ever locks for short bookkeeping, so a
        // poisoned lock here means the process is already going down —
        // swallow it rather than double-panic inside a Drop.
        if let Ok(mut inner) = self.inner.lock() {
            inner.discards += 1;
        }
    }
}

/// A checked-out machine. Dereferences to [`Machine`]; returns itself to the
/// pool on drop.
#[derive(Debug)]
pub struct PooledMachine {
    pool: Arc<MachinePool>,
    key: u64,
    snapshot: Arc<MachineSnapshot>,
    machine: Option<Machine>,
}

impl PooledMachine {
    /// Rewinds the machine to the pool's pristine snapshot for its key —
    /// the pooled equivalent of `machine.reset_to(&snapshot)` in the
    /// per-cell loops. Call once per trial, before `reseed`.
    pub fn reset(&mut self) {
        let snapshot = &self.snapshot;
        self.machine
            .as_mut()
            .expect("pooled machine already returned")
            .reset_to(snapshot);
    }

    /// The pristine snapshot this machine rewinds to.
    pub fn pristine(&self) -> &MachineSnapshot {
        &self.snapshot
    }

    /// The pool key this machine was checked out under.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Consumes the checkout **without** returning the machine to the pool.
    ///
    /// Use after a trial failed mid-flight: the machine's hierarchy state is
    /// whatever the aborted trial left behind, and while `reset` would
    /// rewind it, a failed trial may also have left the machine in a state
    /// the failure itself was a symptom of. Dropping it is the conservative
    /// choice; the pool rebuilds a sibling from the pristine snapshot on the
    /// next checkout.
    pub fn discard(mut self) {
        self.machine = None;
        self.pool.note_discard();
    }
}

impl Deref for PooledMachine {
    type Target = Machine;
    fn deref(&self) -> &Machine {
        self.machine.as_ref().expect("pooled machine already returned")
    }
}

impl DerefMut for PooledMachine {
    fn deref_mut(&mut self) -> &mut Machine {
        self.machine.as_mut().expect("pooled machine already returned")
    }
}

impl Drop for PooledMachine {
    fn drop(&mut self) {
        if let Some(machine) = self.machine.take() {
            // A checkout dropped during a panic unwind was mid-trial when it
            // died: its hierarchy state is garbage relative to the pristine
            // snapshot's contract, so it must not rejoin the idle shelf. The
            // campaign's catch_unwind retry path also discards explicitly
            // (the unwind may be caught below this frame), but this guard
            // makes reuse-after-panic impossible even for direct pool users.
            if std::thread::panicking() {
                drop(machine);
                self.pool.note_discard();
            } else {
                self.pool.check_in(self.key, machine);
            }
        }
    }
}

/// FNV-1a over a byte string: the workspace's canonical way to derive a
/// pool key from a machine configuration's debug representation.
pub fn config_key(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineBuilder;
    use llc_cache_model::CacheSpec;

    fn build_tiny(seed: u64) -> Machine {
        MachineBuilder::new(CacheSpec::tiny_test()).seed(seed).build()
    }

    #[test]
    fn sequential_checkouts_build_once() {
        let pool = MachinePool::new();
        for _ in 0..5 {
            let mut m = pool.acquire(1, || build_tiny(7));
            m.reset();
        }
        let stats = pool.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.acquisitions, 5);
        assert_eq!(stats.keys, 1);
    }

    #[test]
    fn concurrent_checkouts_build_at_most_workers_per_key() {
        let pool = MachinePool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..8 {
                        let mut m = pool.acquire(42, || build_tiny(9));
                        m.reset();
                    }
                });
            }
        });
        let stats = pool.stats();
        assert!(stats.builds <= 4, "builds {} > workers", stats.builds);
        assert_eq!(stats.acquisitions, 32);
    }

    #[test]
    fn distinct_keys_get_distinct_snapshots() {
        let pool = MachinePool::new();
        let a = pool.acquire(1, || build_tiny(1));
        let b = pool.acquire(2, || build_tiny(2));
        assert_ne!(a.key(), b.key());
        drop((a, b));
        assert_eq!(pool.stats().keys, 2);
        assert_eq!(pool.stats().builds, 2);
    }

    #[test]
    fn reset_then_reseed_matches_a_fresh_build() {
        // The determinism contract: pooled machine rewound + reseeded is
        // interchangeable with a fresh build + reseed under deterministic
        // replacement. Drive both through an identical access pattern and
        // compare observable latencies.
        let pool = MachinePool::new();
        {
            // Dirty the pooled machine under a different seed first.
            let mut m = pool.acquire(1, || build_tiny(111));
            m.reset();
            m.reseed(999);
        }
        let mut pooled = pool.acquire(1, || build_tiny(111));
        pooled.reset();
        pooled.reseed(5);

        let mut fresh = build_tiny(222);
        fresh.reseed(5);

        let pa = pooled.alloc_attacker_pages(4);
        let fa = fresh.alloc_attacker_pages(4);
        assert_eq!(pa, fa);
        let probe = |m: &mut Machine, base: llc_cache_model::VirtAddr| -> Vec<u64> {
            (0..64)
                .map(|i| m.timed_access(llc_cache_model::VirtAddr::new(base.raw() + i * 64)).0)
                .collect()
        };
        let lat_pooled = probe(&mut pooled, pa);
        let lat_fresh = probe(&mut fresh, fa);
        assert_eq!(lat_pooled, lat_fresh);
    }

    #[test]
    fn config_key_is_stable_and_spreads() {
        assert_eq!(config_key(b"abc"), config_key(b"abc"));
        assert_ne!(config_key(b"abc"), config_key(b"abd"));
    }

    #[test]
    fn discard_drops_the_machine_instead_of_pooling_it() {
        let pool = MachinePool::new();
        pool.acquire(1, || build_tiny(7)).discard();
        assert_eq!(pool.stats().discards, 1);
        // The shelf is empty, so the next checkout must build a sibling.
        drop(pool.acquire(1, || build_tiny(7)));
        assert_eq!(pool.stats().builds, 2);
    }

    #[test]
    fn a_checkout_dropped_during_unwind_never_rejoins_the_pool() {
        let pool = MachinePool::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = pool.acquire(1, || build_tiny(7));
            m.reset();
            // Dirty the machine mid-"trial", then die holding the checkout.
            let base = m.alloc_attacker_pages(1);
            m.timed_access(base);
            panic!("trial died mid-flight");
        }));
        assert!(result.is_err());
        assert_eq!(pool.stats().discards, 1);
        let before = pool.stats().builds;
        drop(pool.acquire(1, || build_tiny(7)));
        assert_eq!(pool.stats().builds, before + 1, "dirty machine was reused");
    }

    #[test]
    fn post_panic_pooled_run_matches_an_unpooled_one() {
        // The reuse-after-panic pin: after a trial panics while holding a
        // pooled checkout, the next pooled trial must still be byte-identical
        // to the same trial on a privately built machine.
        let probe = |m: &mut Machine| -> Vec<u64> {
            let base = m.alloc_attacker_pages(4);
            (0..64)
                .map(|i| m.timed_access(llc_cache_model::VirtAddr::new(base.raw() + i * 64)).0)
                .collect()
        };

        let pool = MachinePool::new();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m = pool.acquire(1, || build_tiny(111));
            m.reset();
            m.reseed(999);
            // Leave half-trial state behind, then panic.
            let base = m.alloc_attacker_pages(2);
            m.timed_access(base);
            panic!("injected");
        }));

        let mut pooled = pool.acquire(1, || build_tiny(111));
        pooled.reset();
        pooled.reseed(5);
        let lat_pooled = probe(&mut pooled);

        let mut fresh = build_tiny(111);
        fresh.reseed(5);
        let lat_fresh = probe(&mut fresh);
        assert_eq!(lat_pooled, lat_fresh);
    }
}
