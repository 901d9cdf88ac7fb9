//! The host's co-resident tenants: the statistical noise floor and the
//! structured background workloads, simulated together by a [`HostSim`].
//!
//! The host owns the [`Hierarchy`], the Poisson [`NoiseProcess`] and a
//! binary-heap event queue keyed on the machine's virtual clock. The noise
//! process models all the *unmodelled* neighbours and is synchronised
//! lazily, per set, when somebody observes that set; it posts no events and
//! draws from the machine RNG, which is what keeps the tenant-free
//! single-attacker/single-victim configuration bit-identical (its event
//! queue stays empty). Background workloads (idle sidecars, bursty web
//! serving, batch scans) are rows of one [`WorkloadProfile`] table: each
//! slot posts timed cache-access bursts drawn from its own seeded stream.
//!
//! Tenant placement and churn model the paper's co-residency question:
//! neighbours arrive, dwell for an exponentially distributed time, depart,
//! and are replaced by a fresh neighbour (a migration) with a newly drawn
//! working set. All churn randomness comes from per-tenant sub-streams
//! derived with `llc_fleet::stream_seed`, so adding or churning tenants
//! never perturbs the attacker's jitter stream, and every fleet trial
//! re-derives the whole population deterministically from its trial seed.

use crate::noise::NoiseProcess;
use llc_cache_model::{Hierarchy, SetLocation, SharedGeometry};
use llc_fleet::stream_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stream tag under which [`HostSim`] derives the per-tenant seed family
/// from a machine (re)seed, via the injective `llc-fleet` derivation.
const TENANT_STREAM: u64 = u64::from_le_bytes(*b"tenant\0\0");

/// One background access posted by a tenant: the shared set it lands in and
/// whether it allocates in the LLC (`true`, a shared line) or the snoop
/// filter (`false`, another tenant's private line).
pub(crate) type TenantAccess = (SetLocation, bool);

/// Reusable buffer a tenant fills with one event's burst of accesses.
///
/// Owned by the machine and handed to [`HostSim::step_tenant`] so the event
/// dispatch hot path allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub(crate) struct TenantBurst {
    /// The burst's accesses, in posting order. Consecutive accesses to the
    /// same set are applied through one borrowed set view
    /// (`Hierarchy::noise_access_bulk`).
    pub(crate) accesses: Vec<TenantAccess>,
    /// Scratch: the burst's distinct locations, for canonical noise
    /// catch-up ordering before the accesses land.
    pub(crate) locs: Vec<SetLocation>,
}

impl TenantBurst {
    /// Empties the buffer (keeping its allocations).
    fn clear(&mut self) {
        self.accesses.clear();
        self.locs.clear();
    }
}

/// Draws an exponentially distributed gap with the given mean, in cycles
/// (minimum 1, so event times strictly advance).
fn exp_gap(rng: &mut StdRng, mean: f64) -> u64 {
    // 1 - u ∈ (0, 1]: ln never sees zero.
    let u: f64 = 1.0 - rng.gen::<f64>();
    (-u.ln() * mean).ceil().max(1.0) as u64
}

/// The gap between a workload's consecutive events.
#[derive(Debug, Clone, Copy)]
enum Gap {
    /// Exponentially distributed with this mean: a Poisson event stream.
    Exponential(f64),
    /// Exactly this many cycles: a steady sweep, drawing nothing.
    Fixed(u64),
}

impl Gap {
    fn draw(self, rng: &mut StdRng) -> u64 {
        match self {
            Gap::Exponential(mean) => exp_gap(rng, mean),
            Gap::Fixed(cycles) => cycles,
        }
    }
}

/// One background workload as data: its working set, its event rate, and
/// what each event touches.
#[derive(Debug, Clone, Copy)]
struct WorkloadProfile {
    /// Sets in the working set, drawn uniformly at placement. 0 means a
    /// stripe scan: a random starting set, then consecutive sets.
    footprint_sets: usize,
    /// Gap between events.
    gap_cycles: Gap,
    /// Sets touched per event: picked from the footprint, or the next
    /// stripe of a scan.
    hot_sets: usize,
    /// Consecutive accesses per hot set.
    run: usize,
    /// Probability that an access is to a shared line (an LLC insertion)
    /// rather than a private one (an SF insertion).
    shared: f64,
}

/// The background workload kinds a host population can be composed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// A mostly-sleeping sidecar touching a tiny working set about once per
    /// millisecond.
    Idle,
    /// A web server: Poisson request arrivals (~5 per millisecond), each
    /// touching a few hot sets of a larger footprint with a short same-set
    /// run per hot set.
    BurstyWeb,
    /// A steady sequential sweep over the whole shared set space (analytics,
    /// compaction or backup traffic), one stripe per fixed-interval event.
    BatchScan,
}

impl WorkloadKind {
    /// Parses a workload name (the `--tenants` vocabulary).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "idle" => Some(Self::Idle),
            "bursty-web" | "bursty" => Some(Self::BurstyWeb),
            "batch-scan" | "batch" => Some(Self::BatchScan),
            _ => None,
        }
    }

    /// Canonical label (round-trips through [`WorkloadKind::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            Self::Idle => "idle",
            Self::BurstyWeb => "bursty-web",
            Self::BatchScan => "batch-scan",
        }
    }

    /// This kind's shape. Gaps are in cycles: at 2 GHz an idle sidecar
    /// wakes about once per ms, a web server takes ~5 requests per ms.
    fn profile(self) -> WorkloadProfile {
        match self {
            Self::Idle => WorkloadProfile {
                footprint_sets: 8,
                gap_cycles: Gap::Exponential(2_000_000.0),
                hot_sets: 2,
                run: 1,
                shared: 0.5,
            },
            // Web-serving working sets are mostly shared (page cache, code):
            // most insertions contend in the LLC.
            Self::BurstyWeb => WorkloadProfile {
                footprint_sets: 32,
                gap_cycles: Gap::Exponential(400_000.0),
                hot_sets: 4,
                run: 6,
                shared: 0.6,
            },
            // Streaming reads of private buffers: mostly SF insertions.
            Self::BatchScan => WorkloadProfile {
                footprint_sets: 0,
                gap_cycles: Gap::Fixed(25_000),
                hot_sets: 8,
                run: 1,
                shared: 0.25,
            },
        }
    }
}

/// Churn model: every tenant slot dwells for an exponentially distributed
/// time, departs, and is replaced after an exponential vacancy gap by a
/// fresh neighbour of the same workload kind with a newly drawn working set
/// (arrival → dwell → departure → migration, repeated).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Mean co-residency dwell time, in cycles.
    pub mean_dwell_cycles: f64,
}

impl ChurnConfig {
    /// Mean vacancy between a departure and the replacement's arrival: a
    /// quarter of the dwell time (hosts in the paper's setting are rarely
    /// left under-committed for long).
    fn mean_gap_cycles(self) -> f64 {
        (self.mean_dwell_cycles / 4.0).max(1.0)
    }
}

/// The configured tenant population of a host: which background workloads
/// co-reside with the attacker/victim pair, and whether they churn.
///
/// The empty population is the legacy single-attacker/single-victim host
/// and is guaranteed bit-identical to the pre-actor-model machine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantPopulation {
    /// One entry per background tenant slot.
    pub workloads: Vec<WorkloadKind>,
    /// Churn model; `None` pins the population for the whole simulation.
    pub churn: Option<ChurnConfig>,
}

impl TenantPopulation {
    /// Upper bound on the number of background tenant slots a parsed spec
    /// may configure. Far above anything a simulated host can make progress
    /// with, but low enough that a typo'd `N*kind` repeat count fails to
    /// parse instead of materialising billions of slots.
    pub const MAX_TENANTS: usize = 256;

    /// The empty (legacy) population.
    pub fn empty() -> Self {
        Self::default()
    }

    /// True if no background tenants are configured.
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }

    /// Number of configured background tenant slots.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// Returns this population with the given churn model.
    pub fn with_churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Parses a population spec: comma- or plus-separated entries of the
    /// form `N*kind` or `kind`, e.g. `2*idle,1*bursty-web` or
    /// `idle+batch-scan`. Kinds: `idle`, `bursty-web`, `batch-scan`.
    /// Rejects specs totalling more than [`Self::MAX_TENANTS`] slots.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut workloads = Vec::new();
        for entry in spec.split([',', '+']).map(str::trim).filter(|e| !e.is_empty()) {
            let (count, name) = match entry.split_once('*') {
                Some((n, name)) => (n.trim().parse::<usize>().ok()?, name.trim()),
                None => (1, entry),
            };
            let kind = WorkloadKind::parse(name)?;
            if count > Self::MAX_TENANTS - workloads.len() {
                return None;
            }
            workloads.extend(std::iter::repeat(kind).take(count));
        }
        Some(Self { workloads, churn: None })
    }

    /// Canonical label for report headers: consecutive equal kinds grouped,
    /// e.g. `2*idle+1*bursty-web`. Empty string for the empty population.
    pub fn label(&self) -> String {
        let mut parts: Vec<(WorkloadKind, usize)> = Vec::new();
        for &kind in &self.workloads {
            match parts.last_mut() {
                Some((k, n)) if *k == kind => *n += 1,
                _ => parts.push((kind, 1)),
            }
        }
        parts
            .iter()
            .map(|(k, n)| format!("{n}*{}", k.label()))
            .collect::<Vec<_>>()
            .join("+")
    }
}

// ---------------------------------------------------------------------------
// The host simulator
// ---------------------------------------------------------------------------

/// What a queued host event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventKind {
    /// Tenant activity burst.
    Work,
    /// The slot's tenant leaves the host.
    Depart,
    /// A replacement tenant (fresh working set) migrates in.
    Arrive,
}

/// One entry of the host's event queue. Ordered by `(at, seq)`: `seq` is a
/// monotonically increasing push counter, so same-cycle events fire in
/// deterministic insertion order regardless of heap internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct HostEvent {
    pub(crate) at: u64,
    seq: u64,
    pub(crate) slot: u32,
    pub(crate) kind: EventKind,
    /// The slot generation that posted the event. A `Work` event whose
    /// generation no longer matches the slot's is a leftover of a departed
    /// tenant's chain and must be dropped, or the replacement tenant ends up
    /// running two work chains at once (the `present` flag alone only
    /// catches stale events that fire inside the vacancy window).
    generation: u64,
}

/// One background tenant slot: its workload's working set plus its private
/// seeded stream and churn bookkeeping.
#[derive(Debug, Clone)]
struct TenantSlot {
    kind: WorkloadKind,
    /// The working set drawn at placement (empty for a stripe scan).
    footprint: Vec<SetLocation>,
    /// A stripe scan's next starting set, as a flat shared-set index.
    cursor: usize,
    rng: StdRng,
    /// Per-slot base seed (derived from the machine seed via
    /// `stream_seed`); generations re-derive from it.
    seed: u64,
    /// Migration counter: each arrival re-seeds the slot RNG from
    /// `stream_seed(seed, generation)` and redraws the working set.
    generation: u64,
    present: bool,
}

impl TenantSlot {
    /// Draws a fresh working set (or scan start) and returns the cycle of
    /// the tenant's first event.
    fn place(&mut self, geometry: SharedGeometry, now: u64) -> u64 {
        let profile = self.kind.profile();
        let total = geometry.total_sets();
        self.footprint.clear();
        if profile.footprint_sets == 0 {
            self.cursor = self.rng.gen::<u64>() as usize % total;
        } else {
            for _ in 0..profile.footprint_sets {
                let flat = self.rng.gen::<u64>() as usize % total;
                self.footprint.push(geometry.location(flat));
            }
        }
        now + profile.gap_cycles.draw(&mut self.rng)
    }

    /// Posts the accesses of the event scheduled at `at` into `burst` and
    /// returns the cycle of the next one.
    fn on_event(&mut self, at: u64, geometry: SharedGeometry, burst: &mut TenantBurst) -> u64 {
        let profile = self.kind.profile();
        let total = geometry.total_sets();
        for k in 0..profile.hot_sets {
            let loc = if profile.footprint_sets == 0 {
                geometry.location((self.cursor + k) % total)
            } else {
                self.footprint[self.rng.gen::<u64>() as usize % self.footprint.len()]
            };
            for _ in 0..profile.run {
                burst.accesses.push((loc, self.rng.gen::<f64>() < profile.shared));
            }
        }
        if profile.footprint_sets == 0 {
            self.cursor = (self.cursor + profile.hot_sets) % total;
        }
        at + profile.gap_cycles.draw(&mut self.rng)
    }
}

/// The simulated host: the shared [`Hierarchy`], the lazy [`NoiseProcess`],
/// and the scheduled background tenants with their binary-heap event queue
/// keyed on the machine's virtual clock.
///
/// The machine drives it: `Machine::tick` interleaves queued tenant events
/// with victim replay in timestamp order (ties resolve victim-first), and
/// routes each burst through the noise process's per-set catch-up before
/// the burst's own accesses land — identical ordering discipline to the
/// victim replay path.
#[derive(Debug, Clone)]
pub(crate) struct HostSim {
    pub(crate) hierarchy: Hierarchy,
    pub(crate) noise: NoiseProcess,
    population: TenantPopulation,
    slots: Vec<TenantSlot>,
    queue: BinaryHeap<Reverse<HostEvent>>,
    seq: u64,
    /// Total tenant arrivals (initial placements + churn migrations).
    arrivals: u64,
}

impl HostSim {
    pub(crate) fn new(
        hierarchy: Hierarchy,
        noise: NoiseProcess,
        population: TenantPopulation,
    ) -> Self {
        let slots = population
            .workloads
            .iter()
            .map(|&kind| TenantSlot {
                kind,
                footprint: Vec::new(),
                cursor: 0,
                rng: StdRng::seed_from_u64(0),
                seed: 0,
                generation: 0,
                present: false,
            })
            .collect();
        Self { hierarchy, noise, population, slots, queue: BinaryHeap::new(), seq: 0, arrivals: 0 }
    }

    /// The configured tenant population.
    pub(crate) fn population(&self) -> &TenantPopulation {
        &self.population
    }

    /// Number of background tenants currently resident (excludes slots
    /// waiting out a churn vacancy).
    pub(crate) fn tenants_present(&self) -> usize {
        self.slots.iter().filter(|s| s.present).count()
    }

    /// Total tenant arrivals so far: initial placements plus churn
    /// migrations.
    pub(crate) fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Time of the earliest queued event at or before `to`, if any.
    pub(crate) fn next_event_at(&self, to: u64) -> Option<u64> {
        self.queue.peek().map(|Reverse(e)| e.at).filter(|&at| at <= to)
    }

    pub(crate) fn pop_event(&mut self) -> HostEvent {
        self.queue.pop().expect("pop_event called with an empty queue").0
    }

    fn push(&mut self, at: u64, slot: u32, kind: EventKind, generation: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(HostEvent { at, seq, slot, kind, generation }));
    }

    /// (Re)derives every tenant slot's sub-stream from `master`, redraws
    /// working sets and rebuilds the event queue from scratch as of `now`.
    ///
    /// Called at machine build and from `Machine::reseed`, so each fleet
    /// trial gets an independent, deterministic tenant population. Performs
    /// **zero work and zero RNG draws** for the empty population — the
    /// legacy configuration's bit-identity depends on it.
    pub(crate) fn reseed_tenants(&mut self, master: u64, now: u64) {
        self.queue.clear();
        self.seq = 0;
        self.arrivals = 0;
        if self.slots.is_empty() {
            return;
        }
        let family = stream_seed(master, TENANT_STREAM);
        for index in 0..self.slots.len() {
            let slot = &mut self.slots[index];
            slot.seed = stream_seed(family, index as u64);
            slot.generation = 0;
            self.arrive(index, now);
        }
    }

    /// Moves the slot's current generation in at `now`: re-seeds its stream,
    /// places it, and schedules its first event and (under churn) its
    /// departure.
    fn arrive(&mut self, index: usize, now: u64) {
        let geometry = self.hierarchy.shared_geometry();
        let churn = self.population.churn;
        let slot = &mut self.slots[index];
        slot.rng = StdRng::seed_from_u64(stream_seed(slot.seed, slot.generation));
        slot.present = true;
        let first = slot.place(geometry, now);
        let dwell = churn.map(|c| now + exp_gap(&mut slot.rng, c.mean_dwell_cycles));
        let generation = slot.generation;
        self.arrivals += 1;
        self.push(first, index as u32, EventKind::Work, generation);
        if let Some(at) = dwell {
            self.push(at, index as u32, EventKind::Depart, generation);
        }
    }

    /// Advances one popped event's tenant: fills `burst` with the accesses
    /// to apply (empty for churn bookkeeping events) and enqueues the
    /// slot's follow-up events.
    pub(crate) fn step_tenant(&mut self, event: HostEvent, burst: &mut TenantBurst) {
        burst.clear();
        let geometry = self.hierarchy.shared_geometry();
        let slot = &mut self.slots[event.slot as usize];
        match event.kind {
            EventKind::Work => {
                // Drop stale work: the posting tenant has departed (vacancy
                // window) or has already been replaced (generation moved on
                // — executing the event would fork a second work chain
                // against the replacement's state and RNG).
                if !slot.present || event.generation != slot.generation {
                    return;
                }
                let next = slot.on_event(event.at, geometry, burst);
                self.push(next, event.slot, EventKind::Work, event.generation);
            }
            EventKind::Depart => {
                let Some(churn) = self.population.churn else { return };
                slot.present = false;
                let gap = exp_gap(&mut slot.rng, churn.mean_gap_cycles());
                let generation = slot.generation;
                self.push(event.at + gap, event.slot, EventKind::Arrive, generation);
            }
            EventKind::Arrive => {
                // A *different* neighbour moves in: new generation, new
                // sub-stream, fresh working set.
                slot.generation += 1;
                self.arrive(event.slot as usize, event.at);
            }
        }
    }

    /// Copies `source`'s state into `self` in place, reusing allocations
    /// where the collections allow (the per-trial machine-restore hot path).
    pub(crate) fn restore_from(&mut self, source: &HostSim) {
        self.hierarchy.restore_from(&source.hierarchy);
        self.noise.restore_from(&source.noise);
        self.population.clone_from(&source.population);
        self.slots.clone_from(&source.slots);
        self.queue.clone_from(&source.queue);
        self.seq = source.seq;
        self.arrivals = source.arrivals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_parse_round_trips() {
        let p = TenantPopulation::parse("2*idle,1*bursty-web").expect("valid spec");
        assert_eq!(p.workloads, vec![WorkloadKind::Idle, WorkloadKind::Idle, WorkloadKind::BurstyWeb]);
        assert_eq!(p.label(), "2*idle+1*bursty-web");
        let q = TenantPopulation::parse(&p.label()).expect("label is parseable");
        assert_eq!(p, q);
        assert_eq!(TenantPopulation::parse("idle+batch").unwrap().label(), "1*idle+1*batch-scan");
        assert!(TenantPopulation::parse("3*webscale").is_none());
        assert!(TenantPopulation::parse("").unwrap().is_empty());
    }

    #[test]
    fn exp_gap_is_positive_and_deterministic() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let ga = exp_gap(&mut a, 1000.0);
            assert!(ga >= 1);
            assert_eq!(ga, exp_gap(&mut b, 1000.0));
        }
    }

    #[test]
    fn workload_kinds_parse_and_label() {
        for kind in [WorkloadKind::Idle, WorkloadKind::BurstyWeb, WorkloadKind::BatchScan] {
            assert_eq!(WorkloadKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(WorkloadKind::parse("bursty"), Some(WorkloadKind::BurstyWeb));
        assert_eq!(WorkloadKind::parse("nfs"), None);
    }

    #[test]
    fn host_events_order_by_time_then_sequence() {
        let a = HostEvent { at: 5, seq: 1, slot: 0, kind: EventKind::Work, generation: 0 };
        let b = HostEvent { at: 5, seq: 2, slot: 1, kind: EventKind::Depart, generation: 1 };
        let c = HostEvent { at: 4, seq: 9, slot: 2, kind: EventKind::Arrive, generation: 2 };
        let mut heap = BinaryHeap::from([Reverse(a), Reverse(b), Reverse(c)]);
        assert_eq!(heap.pop().unwrap().0, c);
        assert_eq!(heap.pop().unwrap().0, a);
        assert_eq!(heap.pop().unwrap().0, b);
    }

    #[test]
    fn population_parse_rejects_runaway_repeat_counts() {
        assert!(TenantPopulation::parse("999999999999*idle").is_none());
        assert!(TenantPopulation::parse("200*idle,100*bursty-web").is_none());
        let max = TenantPopulation::parse(&format!("{}*idle", TenantPopulation::MAX_TENANTS))
            .expect("the cap itself is accepted");
        assert_eq!(max.len(), TenantPopulation::MAX_TENANTS);
        assert!(
            TenantPopulation::parse(&format!("{}*idle", TenantPopulation::MAX_TENANTS + 1))
                .is_none()
        );
    }

    /// A `tiny_test` host running `population`, placed by `reseed_tenants(42, 0)`.
    fn tiny_host(population: TenantPopulation) -> HostSim {
        use crate::noise::{NoiseFidelity, NoiseModel};
        let hierarchy = Hierarchy::new(llc_cache_model::CacheSpec::tiny_test(), 1);
        let geometry = hierarchy.shared_geometry();
        let noise = NoiseProcess::new(
            NoiseModel::silent(),
            NoiseFidelity::Exact,
            geometry.sets_per_slice,
            geometry.slices,
        );
        let mut host = HostSim::new(hierarchy, noise, population);
        host.reseed_tenants(42, 0);
        host
    }

    /// A churned host for the stale-event tests.
    fn churned_host(spec: &str) -> HostSim {
        let population = TenantPopulation::parse(spec)
            .expect("valid spec")
            .with_churn(ChurnConfig { mean_dwell_cycles: 100_000.0 });
        tiny_host(population)
    }

    /// FNV-1a digest of a host's first 3,000 events: each event's
    /// `(at, slot, kind, generation)`, each burst access's
    /// `(slice, set, shared)`, then the arrival count.
    fn event_stream_digest(population: TenantPopulation) -> u64 {
        let mut host = tiny_host(population);
        let mut burst = TenantBurst::default();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for _ in 0..3_000 {
            let event = host.pop_event();
            fold(event.at);
            fold(u64::from(event.slot));
            fold(event.kind as u64);
            fold(event.generation);
            host.step_tenant(event, &mut burst);
            for &(loc, shared) in &burst.accesses {
                fold(loc.slice as u64);
                fold(loc.set as u64);
                fold(u64::from(shared));
            }
        }
        fold(host.arrivals());
        digest
    }

    /// Pins every workload's exact RNG draw order (placement footprint, gap,
    /// per-event picks and shared flags, churn dwell and vacancy), static
    /// and churned: the digests were recorded before the workloads became
    /// profile rows and must never move without a deliberate re-pin.
    #[test]
    fn workload_event_streams_are_pinned() {
        let churn = ChurnConfig { mean_dwell_cycles: 100_000.0 };
        let cases: [(&str, u64, u64); 3] = [
            ("1*idle", 0xd679_e3f1_1f44_53df, 0xe7af_5e1a_77d8_4eb4),
            ("1*bursty-web", 0x3b62_0f0c_ae4e_a637, 0x7a2e_0e6f_9212_14f8),
            ("1*batch-scan", 0x6025_b27a_5cfe_d448, 0xb113_0c37_2ea9_374e),
        ];
        for (spec, fixed, churned) in cases {
            let population = TenantPopulation::parse(spec).expect("valid spec");
            assert_eq!(event_stream_digest(population.clone()), fixed, "{spec}, static");
            assert_eq!(event_stream_digest(population.with_churn(churn)), churned, "{spec}, churned");
        }
    }

    /// A `Work` event posted by a previous generation of a slot must be
    /// dropped once the replacement tenant has arrived — otherwise the old
    /// chain executes against the new tenant's state and RNG and forks a
    /// second, permanent work chain.
    #[test]
    fn stale_generation_work_is_dropped() {
        let mut host = churned_host("1*bursty-web");
        let mut burst = TenantBurst::default();
        // The slot departs, leaving a vacancy.
        let depart = HostEvent { at: 1_000, seq: 100, slot: 0, kind: EventKind::Depart, generation: 0 };
        host.step_tenant(depart, &mut burst);
        assert_eq!(host.tenants_present(), 0);
        // Stale work firing inside the vacancy window: the `present` guard
        // drops it.
        let vacant = HostEvent { at: 1_500, seq: 101, slot: 0, kind: EventKind::Work, generation: 0 };
        host.step_tenant(vacant, &mut burst);
        assert!(burst.accesses.is_empty(), "work executed against a vacant slot");
        // The replacement migrates in: generation 1.
        let arrive = HostEvent { at: 2_000, seq: 102, slot: 0, kind: EventKind::Arrive, generation: 0 };
        host.step_tenant(arrive, &mut burst);
        assert_eq!(host.tenants_present(), 1);
        let queued = host.queue.len();
        // Stale generation-0 work firing after the replacement arrived: must
        // neither execute nor schedule a follow-up (the double-chain bug).
        let stale = HostEvent { at: 2_500, seq: 103, slot: 0, kind: EventKind::Work, generation: 0 };
        host.step_tenant(stale, &mut burst);
        assert!(burst.accesses.is_empty(), "stale work executed against the replacement");
        assert_eq!(host.queue.len(), queued, "stale work forked a second chain");
        // Current-generation work still executes and continues its chain.
        let live = HostEvent { at: 3_000, seq: 104, slot: 0, kind: EventKind::Work, generation: 1 };
        host.step_tenant(live, &mut burst);
        assert!(!burst.accesses.is_empty(), "live work must execute");
        assert_eq!(host.queue.len(), queued + 1, "live work must continue its chain");
    }

    /// Driving the queue through many churn cycles, each slot always has at
    /// most one live (current-generation) work chain queued.
    #[test]
    fn work_chains_never_fork_under_churn() {
        let mut host = churned_host("2*idle,1*bursty-web");
        let mut burst = TenantBurst::default();
        let mut stale_drops = 0u32;
        for _ in 0..5_000 {
            if host.queue.is_empty() {
                break;
            }
            let event = host.pop_event();
            if event.kind == EventKind::Work
                && event.generation != host.slots[event.slot as usize].generation
            {
                stale_drops += 1;
            }
            host.step_tenant(event, &mut burst);
            let mut live = vec![0usize; host.slots.len()];
            for Reverse(e) in &host.queue {
                let slot = &host.slots[e.slot as usize];
                if e.kind == EventKind::Work && e.generation == slot.generation {
                    live[e.slot as usize] += 1;
                }
            }
            for (slot, &chains) in live.iter().enumerate() {
                assert!(chains <= 1, "slot {slot} runs {chains} concurrent work chains");
            }
        }
        assert!(host.arrivals() > 3, "the horizon saw no churn; the property is vacuous");
        assert!(stale_drops > 0, "no work event outlived its generation; the guard is untested");
    }
}
