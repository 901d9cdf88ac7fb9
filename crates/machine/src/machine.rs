//! The simulated host: cache hierarchy + cycle clock + latency model +
//! background noise + co-located victim, driven by the attacker's operations.
//!
//! The attacker interacts with the machine exclusively through timed and
//! untimed loads of its own virtual addresses, `clflush` of its own lines,
//! and idling — exactly the interface an unprivileged Cloud Run container
//! has. Everything else (victim progress, other tenants' noise) happens as a
//! side effect of simulated time advancing.

use crate::latency::LatencyModel;
use crate::noise::{NoiseFidelity, NoiseModel, NoiseProcess};
use crate::schedule::{VictimProgram, VictimSchedule};
use crate::tenant::{HostSim, TenantBurst, TenantPopulation};
use llc_cache_model::{
    AccessKind, AddressSpace, CacheSpec, CoreId, Hierarchy, HierarchyOptions, HitLevel, LineAddr,
    SetLocation, TraversalMemo, VirtAddr,
};
use llc_fleet::stream_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stream tags for [`Machine::reseed`]'s two derived sub-streams (jitter/
/// noise RNG and the attacker frame lottery), kept distinct through the
/// injective `llc-fleet` derivation rather than XOR constants.
const RESEED_RNG_STREAM: u64 = u64::from_le_bytes(*b"mrng\0\0\0\0");
const RESEED_ASPACE_STREAM: u64 = u64::from_le_bytes(*b"maspace\0");
/// Stream tag for the background-tenant seed family (each slot then derives
/// its own sub-stream inside [`HostSim`]).
const RESEED_TENANT_STREAM: u64 = u64::from_le_bytes(*b"mtenant\0");

/// Counters describing how much work a simulation performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Memory accesses issued by the attacker (including helper echoes).
    pub attacker_accesses: u64,
    /// Memory accesses replayed on behalf of the victim.
    pub victim_accesses: u64,
    /// Background-noise insertions applied to the LLC/SF.
    pub noise_events: u64,
    /// Victim requests completed.
    pub victim_runs: u64,
    /// Accesses posted by scheduled background tenants (event-queue actors;
    /// the lazy noise process's insertions count as `noise_events`).
    pub tenant_accesses: u64,
}

/// Builder for [`Machine`]; see [`Machine::builder`].
#[derive(Debug)]
pub struct MachineBuilder {
    spec: CacheSpec,
    noise: NoiseModel,
    fidelity: NoiseFidelity,
    tenants: TenantPopulation,
    seed: u64,
}

impl MachineBuilder {
    /// Starts building a machine with the given cache specification.
    pub fn new(spec: CacheSpec) -> Self {
        Self {
            spec,
            noise: NoiseModel::quiescent_local(),
            fidelity: NoiseFidelity::Exact,
            tenants: TenantPopulation::empty(),
            seed: 0xC10D_5EED,
        }
    }

    /// Sets the background-noise model (e.g. [`NoiseModel::cloud_run`]),
    /// keeping the configured fidelity.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the noise fidelity ([`NoiseFidelity::Exact`] replays individual
    /// events and is the bit-pinned default; [`NoiseFidelity::Aggregate`]
    /// applies bulk per-sync transitions, statistically equivalent and
    /// several times faster under heavy noise).
    pub fn noise_fidelity(mut self, fidelity: NoiseFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Does nothing: [`HierarchyOptions`] configures nothing. Kept only
    /// because the repository benchmark (`perfbench/`) still calls it; it
    /// goes with the next change to the benchmark.
    pub fn hierarchy_options(self, _options: HierarchyOptions) -> Self {
        self
    }

    /// Sets the background tenant population co-resident with the
    /// attacker/victim pair (see [`TenantPopulation`]). The default is the
    /// empty population — the legacy single-attacker/single-victim host,
    /// bit-identical to the pre-tenant-model machine.
    pub fn tenants(mut self, tenants: TenantPopulation) -> Self {
        self.tenants = tenants;
        self
    }

    /// Sets the random seed controlling paging, noise and jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if the specification has fewer than 3 cores (attacker, helper
    /// and victim need distinct physical cores).
    pub fn build(self) -> Machine {
        assert!(self.spec.cores >= 3, "need at least 3 cores (attacker, helper, victim)");
        let sets_per_slice = self.spec.llc.slice_geometry().sets();
        let num_slices = self.spec.llc.num_slices();
        let hierarchy = Hierarchy::new(self.spec.clone(), self.seed);
        let noise = NoiseProcess::new(self.noise, self.fidelity, sets_per_slice, num_slices);
        let mut host = HostSim::new(hierarchy, noise, self.tenants);
        // Zero work and zero RNG draws for the empty population, preserving
        // the legacy configuration bit-for-bit.
        host.reseed_tenants(stream_seed(self.seed, RESEED_TENANT_STREAM), 0);
        Machine {
            host,
            latency: LatencyModel::default(),
            clock: 0,
            rng: StdRng::seed_from_u64(self.seed ^ 0x6d61_6368),
            attacker_aspace: AddressSpace::with_seed(self.seed ^ 0xa77a),
            attacker_core: 0,
            helper_core: 1,
            helper_echo: false,
            victim_core: 2,
            victim: None,
            victim_run_starts: Vec::new(),
            stats: MachineStats::default(),
            scratch_plan: TraversalPlan::default(),
            scratch_levels: Vec::new(),
            scratch_memo: TraversalMemo::default(),
            scratch_burst: TenantBurst::default(),
            plan_epoch: 0,
            trial_deadline: None,
        }
    }
}

/// A point-in-time copy of a [`Machine`] without its victim program.
///
/// Snapshots are the substrate of `llc-fleet`'s parallel trial execution:
/// building a machine from scratch re-derives the paging layout, replacement
/// metadata and noise bookkeeping for every cache set, while restoring from a
/// snapshot is a plain memory copy of the already-warmed state. A snapshot is
/// immutable, `Send + Sync`, and can be shared by reference across worker
/// threads; each worker materialises its own [`Machine`] from it with
/// [`MachineSnapshot::to_machine`] and then rewinds between trials with
/// [`Machine::reset_to`].
///
/// Victim programs are deliberately excluded (they are `Box<dyn ...>` state
/// machines with interior handles): take the snapshot *before* installing a
/// victim and install a fresh victim per trial after each reset.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    host: HostSim,
    latency: LatencyModel,
    clock: u64,
    rng: StdRng,
    attacker_aspace: AddressSpace,
    attacker_core: CoreId,
    helper_core: CoreId,
    helper_echo: bool,
    victim_core: CoreId,
    stats: MachineStats,
}

impl MachineSnapshot {
    /// Materialises an independent machine in exactly the snapshotted state.
    pub fn to_machine(&self) -> Machine {
        Machine {
            host: self.host.clone(),
            latency: self.latency.clone(),
            clock: self.clock,
            rng: self.rng.clone(),
            attacker_aspace: self.attacker_aspace.clone(),
            attacker_core: self.attacker_core,
            helper_core: self.helper_core,
            helper_echo: self.helper_echo,
            victim_core: self.victim_core,
            victim: None,
            victim_run_starts: Vec::new(),
            stats: self.stats,
            scratch_plan: TraversalPlan::default(),
            scratch_levels: Vec::new(),
            scratch_memo: TraversalMemo::default(),
            scratch_burst: TenantBurst::default(),
            plan_epoch: 0,
            trial_deadline: None,
        }
    }
}

/// A compiled traversal: the per-call-invariant part of a prime/probe
/// traversal, computed once by [`Machine::compile_plan`].
///
/// Every experiment in the paper bottoms out in millions of traversals of
/// *fixed* eviction sets, yet a slice-based traversal re-derives the same
/// VA→PA translations, slice-hash locations and sorted/deduped touched-set
/// list on every call. A plan captures all three up front; the
/// `*_traverse_plan` hot paths then go straight to noise catch-up and the
/// cache accesses. The slice-based traversals are these same paths over a
/// plan compiled per call, so both are **bit-identical**: identical access
/// order, identical noise catch-up order (canonical sorted distinct sets),
/// identical RNG stream.
///
/// Lifecycle:
///
/// * Plans are per-machine. They stay valid across [`Machine::reset_to`]
///   (snapshots keep the VA→PA lottery, so translations cannot change) but
///   are invalidated by [`Machine::reseed`], which redraws the frame lottery
///   for future allocations — recompile with [`Machine::compile_plan_into`]
///   after reseeding (the buffers are reused, so recompiles don't allocate
///   in steady state).
/// * A default-constructed plan is empty and never valid; compile before
///   traversing.
#[derive(Debug, Clone)]
pub struct TraversalPlan {
    /// The traversed virtual addresses, in traversal order.
    vas: Vec<VirtAddr>,
    /// Pre-translated physical lines, 1:1 with `vas`.
    lines: Vec<LineAddr>,
    /// Pre-computed LLC/SF locations, 1:1 with `lines`.
    locs: Vec<SetLocation>,
    /// The distinct touched locations in canonical sorted order (the noise
    /// catch-up order the ad-hoc path derives per call via sort + dedup).
    distinct: Vec<SetLocation>,
    /// The machine's plan epoch at compile time (see [`Machine::reseed`]).
    epoch: u64,
}

impl Default for TraversalPlan {
    fn default() -> Self {
        Self {
            vas: Vec::new(),
            lines: Vec::new(),
            locs: Vec::new(),
            distinct: Vec::new(),
            epoch: u64::MAX,
        }
    }
}

impl TraversalPlan {
    /// The planned addresses, in traversal order.
    pub fn addresses(&self) -> &[VirtAddr] {
        &self.vas
    }

    /// Number of planned accesses.
    pub fn len(&self) -> usize {
        self.vas.len()
    }

    /// True if the plan covers no addresses.
    pub fn is_empty(&self) -> bool {
        self.vas.is_empty()
    }

    /// The distinct LLC/SF sets the traversal touches, in the canonical
    /// (sorted) noise catch-up order.
    pub fn distinct_sets(&self) -> &[SetLocation] {
        &self.distinct
    }
}

/// A running victim request.
#[derive(Debug)]
struct ActiveRun {
    schedule: VictimSchedule,
    start: u64,
    next: usize,
}

#[derive(Debug)]
struct VictimRuntime {
    aspace: AddressSpace,
    program: Box<dyn VictimProgram>,
    active: Option<ActiveRun>,
    next_start: Option<u64>,
    auto_repeat: bool,
    request_gap: u64,
}

/// The simulated host machine.
#[derive(Debug)]
pub struct Machine {
    /// The shared hierarchy plus every co-resident tenant — the lazy noise
    /// process and the event-scheduled background workloads (see
    /// [`HostSim`]).
    host: HostSim,
    latency: LatencyModel,
    clock: u64,
    rng: StdRng,
    attacker_aspace: AddressSpace,
    attacker_core: CoreId,
    helper_core: CoreId,
    helper_echo: bool,
    victim_core: CoreId,
    victim: Option<VictimRuntime>,
    victim_run_starts: Vec<u64>,
    stats: MachineStats,
    /// Reusable buffers for the traverse hot paths (probe strategies call
    /// them once per monitoring interval; allocating per call dominated the
    /// probe profile): the plan that slice-based traversals compile into,
    /// and the serving levels of the last traversal. Not part of snapshots:
    /// scratch contents are dead outside a single call.
    scratch_plan: TraversalPlan,
    scratch_levels: Vec<HitLevel>,
    /// The replay memo of single-set attacker traversals (see
    /// [`Hierarchy::read_traversal`]). Not part of snapshots: an entry
    /// replays only on an exact match of the sets it touched, so after a
    /// rewind it is as valid as before.
    scratch_memo: TraversalMemo,
    /// Reusable buffer tenant bursts are drawn into (same rationale as the
    /// other scratch buffers; not part of snapshots).
    scratch_burst: TenantBurst,
    /// Monotonic counter of [`Machine::reseed`] calls; a [`TraversalPlan`]
    /// is valid while its recorded epoch matches. Deliberately *not* part of
    /// snapshots and never rewound by `reset_to`: plans survive rewinds (the
    /// snapshot keeps the VA→PA lottery) and a restored epoch could alias a
    /// stale plan onto a machine whose lottery has since been redrawn.
    plan_epoch: u64,
    /// Armed per-trial virtual-time watchdog as `(deadline_cycle, budget)`;
    /// `None` when disarmed. Not part of snapshots (the campaign layer arms
    /// it per trial, after `reset_to`/`reseed`): see
    /// [`Machine::arm_trial_budget`].
    trial_deadline: Option<(u64, u64)>,
}

impl Machine {
    /// Starts building a machine for the given cache specification.
    pub fn builder(spec: CacheSpec) -> MachineBuilder {
        MachineBuilder::new(spec)
    }

    /// Convenience constructor with default latency and quiescent noise.
    pub fn new(spec: CacheSpec, seed: u64) -> Self {
        MachineBuilder::new(spec).seed(seed).build()
    }

    /// Current simulated cycle count ("rdtsc").
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// The cache specification of this machine.
    pub fn spec(&self) -> &CacheSpec {
        self.host.hierarchy.spec()
    }

    /// The latency model in force.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The background-noise model in force.
    pub fn noise_model(&self) -> &NoiseModel {
        self.host.noise.model()
    }

    /// The noise fidelity in force (see [`NoiseFidelity`]).
    pub fn noise_fidelity(&self) -> NoiseFidelity {
        self.host.noise.fidelity()
    }

    /// Simulation work counters.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// The configured background tenant population (empty for the legacy
    /// single-attacker/single-victim host).
    pub fn tenant_population(&self) -> &TenantPopulation {
        self.host.population()
    }

    /// Number of background tenants currently resident on the host
    /// (excludes slots waiting out a churn vacancy).
    pub fn tenants_present(&self) -> usize {
        self.host.tenants_present()
    }

    /// Total background-tenant arrivals: initial placements plus churn
    /// migrations since the last (re)seed.
    pub fn tenant_arrivals(&self) -> u64 {
        self.host.arrivals()
    }

    /// Enables or disables the helper thread that echoes every attacker
    /// access from a second core, forcing the touched lines into Shared state
    /// (and therefore into the LLC), as described in Section 4.2.
    pub fn set_helper_echo(&mut self, enabled: bool) {
        self.helper_echo = enabled;
    }

    /// Whether helper echoing is currently enabled.
    pub fn helper_echo(&self) -> bool {
        self.helper_echo
    }

    // ---- attacker memory management ---------------------------------------

    /// Allocates `count` pages of attacker memory and returns the base VA.
    pub fn alloc_attacker_pages(&mut self, count: usize) -> VirtAddr {
        self.attacker_aspace.allocate_pages(count)
    }

    /// Ground-truth (slice, set) location of an attacker VA in the LLC/SF.
    ///
    /// This is an *oracle* for validation and success-rate accounting; the
    /// attack algorithms themselves never rely on it.
    pub fn oracle_attacker_location(&self, va: VirtAddr) -> SetLocation {
        self.host.hierarchy.shared_location(self.attacker_line(va))
    }

    /// Ground-truth L2 set index of an attacker VA (oracle, validation only).
    pub fn oracle_attacker_l2_set(&self, va: VirtAddr) -> usize {
        self.host.hierarchy.l2_set(self.attacker_line(va))
    }

    /// Ground-truth (slice, set) location of a victim VA (oracle).
    ///
    /// # Panics
    ///
    /// Panics if no victim program is installed or the VA is unmapped.
    pub fn oracle_victim_location(&self, va: VirtAddr) -> SetLocation {
        let victim = self.victim.as_ref().expect("no victim installed");
        self.host.hierarchy.shared_location(victim.aspace.translate_unchecked(va).line())
    }

    // ---- attacker operations ----------------------------------------------

    /// Performs one untimed attacker load of `va`; returns the level that
    /// served it. Advances the clock by the access latency.
    pub fn access(&mut self, va: VirtAddr) -> HitLevel {
        let line = self.attacker_line(va);
        let loc = self.host.hierarchy.shared_location(line);
        self.prepare_set(loc);
        let level = self.do_attacker_access(line, loc);
        let cost = self.latency.level_latency(level) + self.latency.issue_overhead;
        let cost = self.latency.jittered(cost, &mut self.rng);
        self.tick(cost);
        level
    }

    /// Performs one *timed* attacker load of `va`; returns the measured
    /// latency in cycles (including timer overhead) and the serving level.
    pub fn timed_access(&mut self, va: VirtAddr) -> (u64, HitLevel) {
        let line = self.attacker_line(va);
        let loc = self.host.hierarchy.shared_location(line);
        self.prepare_set(loc);
        let level = self.do_attacker_access(line, loc);
        let raw = self.latency.level_latency(level) + self.latency.timer_overhead;
        let measured = self.latency.jittered(raw, &mut self.rng);
        self.tick(measured);
        (measured, level)
    }

    /// Traverses `vas` with overlapped (parallel) accesses, untimed.
    /// Returns the total cycles consumed.
    pub fn parallel_traverse(&mut self, vas: &[VirtAddr]) -> u64 {
        self.traverse_scratch_plan(vas, Self::parallel_traverse_plan)
    }

    /// Traverses `vas` with overlapped accesses and *times the traversal*;
    /// returns the measured latency (including timer overhead).
    pub fn timed_parallel_traverse(&mut self, vas: &[VirtAddr]) -> u64 {
        self.traverse_scratch_plan(vas, Self::timed_parallel_traverse_plan)
    }

    /// Traverses `vas` sequentially (pointer-chase style), untimed.
    /// Returns the total cycles consumed.
    pub fn sequential_traverse(&mut self, vas: &[VirtAddr]) -> u64 {
        self.traverse_scratch_plan(vas, Self::sequential_traverse_plan)
    }

    /// Compiles `vas` into the machine's reusable scratch plan and runs
    /// `traverse` over it: the slice-based traversals are the plan paths
    /// with a per-call compile, and allocate nothing once the plan's
    /// buffers have grown.
    fn traverse_scratch_plan(
        &mut self,
        vas: &[VirtAddr],
        traverse: impl FnOnce(&mut Self, &TraversalPlan) -> u64,
    ) -> u64 {
        let mut plan = std::mem::take(&mut self.scratch_plan);
        self.compile_plan_into(vas, &mut plan);
        let cost = traverse(self, &plan);
        self.scratch_plan = plan;
        cost
    }

    // ---- compiled traversal plans -----------------------------------------

    /// Compiles `vas` into a [`TraversalPlan`]: VA→PA translation, slice-hash
    /// locations and the canonical sorted/deduped distinct-set list are
    /// computed once, so the `*_traverse_plan` hot paths skip all three.
    ///
    /// The plan is valid for this machine until the next [`Machine::reseed`];
    /// it survives [`Machine::reset_to`].
    pub fn compile_plan(&self, vas: &[VirtAddr]) -> TraversalPlan {
        let mut plan = TraversalPlan::default();
        self.compile_plan_into(vas, &mut plan);
        plan
    }

    /// [`Machine::compile_plan`] into an existing plan, reusing its buffers
    /// (the "plan arena" pattern: pruning loops that compile a fresh
    /// candidate subset per test keep one plan and recompile it in place,
    /// allocation-free in steady state).
    pub fn compile_plan_into(&self, vas: &[VirtAddr], plan: &mut TraversalPlan) {
        plan.vas.clear();
        plan.vas.extend_from_slice(vas);
        plan.lines.clear();
        plan.lines.extend(vas.iter().map(|&va| self.attacker_line(va)));
        plan.locs.clear();
        plan.locs.extend(plan.lines.iter().map(|&l| self.host.hierarchy.shared_location(l)));
        plan.distinct.clear();
        plan.distinct.extend_from_slice(&plan.locs);
        plan.distinct.sort_unstable();
        plan.distinct.dedup();
        plan.epoch = self.plan_epoch;
    }

    /// True if `plan` was compiled against this machine's current VA→PA
    /// lottery (i.e. no [`Machine::reseed`] happened since compilation).
    pub fn plan_is_current(&self, plan: &TraversalPlan) -> bool {
        plan.epoch == self.plan_epoch
    }

    /// [`Machine::parallel_traverse`] over a compiled plan.
    pub fn parallel_traverse_plan(&mut self, plan: &TraversalPlan) -> u64 {
        self.traverse_plan(plan);
        let cost = self.latency.parallel_cost(&self.scratch_levels);
        let cost = self.latency.jittered(cost, &mut self.rng);
        self.tick(cost);
        cost
    }

    /// [`Machine::timed_parallel_traverse`] over a compiled plan.
    pub fn timed_parallel_traverse_plan(&mut self, plan: &TraversalPlan) -> u64 {
        self.traverse_plan(plan);
        let raw = self.latency.parallel_cost(&self.scratch_levels) + self.latency.timer_overhead;
        let measured = self.latency.jittered(raw, &mut self.rng);
        self.tick(measured);
        measured
    }

    /// [`Machine::sequential_traverse`] over a compiled plan.
    pub fn sequential_traverse_plan(&mut self, plan: &TraversalPlan) -> u64 {
        self.traverse_plan(plan);
        let cost = self.latency.sequential_cost(&self.scratch_levels);
        let cost = self.latency.jittered(cost, &mut self.rng);
        self.tick(cost);
        cost
    }

    /// Plan-based traverse core: applies pending background noise to the
    /// plan's pre-sorted distinct sets and performs the accesses with the
    /// pre-computed locations, leaving the serving levels in
    /// `scratch_levels`. No translation, slice hash, sort or heap allocation
    /// on this path. A plan whose lines all map to one LLC/SF set, read
    /// without helper echo, goes through [`Hierarchy::read_traversal`],
    /// which replays a repeated all-private-hit traversal from
    /// `scratch_memo` with the same result.
    ///
    /// # Panics
    ///
    /// Panics if the plan is stale (compiled before the last
    /// [`Machine::reseed`]) or was never compiled.
    fn traverse_plan(&mut self, plan: &TraversalPlan) {
        assert!(
            plan.epoch == self.plan_epoch,
            "stale TraversalPlan (compiled at epoch {}, machine at {}): recompile after reseed",
            plan.epoch,
            self.plan_epoch
        );
        for &loc in &plan.distinct {
            self.prepare_set(loc);
        }
        // An eviction set being primed or probed, without helper echo: the
        // hierarchy replays the reads when it can.
        if plan.distinct.len() == 1 && !self.helper_echo {
            self.host.hierarchy.read_traversal(
                self.attacker_core,
                &plan.lines,
                plan.distinct[0],
                &mut self.scratch_memo,
                &mut self.scratch_levels,
            );
            self.stats.attacker_accesses += plan.lines.len() as u64;
            return;
        }
        self.scratch_levels.clear();
        for (&line, &loc) in plan.lines.iter().zip(&plan.locs) {
            let level = self.do_attacker_access(line, loc);
            self.scratch_levels.push(level);
        }
    }

    /// Re-establishes `va` as the eviction candidate (next victim) of its
    /// LLC/SF set without touching it.
    ///
    /// This models the effect of Prime+Scope's replacement-state priming
    /// pattern (Section 6.1 of the paper): after the pattern, the chosen line
    /// is displaced by the very next conflicting insertion even though the
    /// attacker keeps probing it. The operation costs a small fixed number of
    /// cycles (the priming accesses are already charged by the caller's
    /// strategy; this just marks the state).
    pub fn prime_as_victim(&mut self, va: VirtAddr) {
        let line = self.attacker_line(va);
        self.host.hierarchy.prime_as_victim(line);
    }

    /// Performs a Prime+Scope-style *scope check* of `va`: a timed access
    /// that additionally restores the line as the eviction candidate of its
    /// LLC/SF set (see [`Machine::prime_as_victim`]).
    pub fn scope_check(&mut self, va: VirtAddr) -> (u64, HitLevel) {
        let result = self.timed_access(va);
        let line = self.attacker_line(va);
        self.host.hierarchy.prime_as_victim(line);
        result
    }

    /// Flushes an attacker line from the whole hierarchy (`clflush`).
    pub fn clflush(&mut self, va: VirtAddr) {
        let line = self.attacker_line(va);
        self.host.hierarchy.clflush(line);
        let cost = self.latency.jittered(self.latency.clflush, &mut self.rng);
        self.tick(cost);
    }

    /// Burns `cycles` cycles of attacker compute without touching memory.
    pub fn idle(&mut self, cycles: u64) {
        self.tick(cycles);
    }

    // ---- victim management -------------------------------------------------

    /// Installs a victim program on its own core with its own address space.
    ///
    /// If `auto_repeat` is true the victim serves requests back-to-back with
    /// `request_gap` idle cycles between them (a busy service); otherwise a
    /// run only starts when [`Machine::request_victim`] is called.
    pub fn install_victim(
        &mut self,
        mut program: Box<dyn VictimProgram>,
        auto_repeat: bool,
        request_gap: u64,
    ) {
        let mut aspace = AddressSpace::with_seed(self.rng_seed() ^ 0x71c7);
        program.setup(&mut aspace);
        self.victim = Some(VictimRuntime {
            aspace,
            program,
            active: None,
            next_start: if auto_repeat { Some(self.clock) } else { None },
            auto_repeat,
            request_gap,
        });
    }

    /// Sends one request to the victim service (no-op if `auto_repeat`).
    ///
    /// The run starts after a short dispatch delay, mimicking request routing.
    pub fn request_victim(&mut self) {
        let now = self.clock;
        if let Some(v) = &mut self.victim {
            if v.active.is_none() && v.next_start.is_none() {
                v.next_start = Some(now + 2_000);
            }
        }
    }

    /// Number of victim requests completed so far.
    pub fn victim_runs(&self) -> u64 {
        self.stats.victim_runs
    }

    /// Absolute start cycle of every victim run begun so far (completed or
    /// in progress), in order. Experiment harnesses use this to align
    /// attacker-observed traces with victim ground truth.
    pub fn victim_run_starts(&self) -> &[u64] {
        &self.victim_run_starts
    }

    /// True if the victim currently has a run in progress or queued.
    pub fn victim_busy(&self) -> bool {
        self.victim
            .as_ref()
            .map(|v| v.active.is_some() || v.next_start.is_some())
            .unwrap_or(false)
    }

    // ---- snapshot / reset ---------------------------------------------------

    /// Captures the complete machine state — hierarchy contents, replacement
    /// metadata, paging, noise bookkeeping, clock, RNG position and counters —
    /// as an immutable [`MachineSnapshot`].
    ///
    /// # Panics
    ///
    /// Panics if a victim program is installed: victims are boxed state
    /// machines and are intentionally re-installed per trial rather than
    /// snapshotted (see [`MachineSnapshot`]).
    pub fn snapshot(&self) -> MachineSnapshot {
        assert!(
            self.victim.is_none(),
            "snapshot a machine before installing a victim; install victims per trial"
        );
        MachineSnapshot {
            host: self.host.clone(),
            latency: self.latency.clone(),
            clock: self.clock,
            rng: self.rng.clone(),
            attacker_aspace: self.attacker_aspace.clone(),
            attacker_core: self.attacker_core,
            helper_core: self.helper_core,
            helper_echo: self.helper_echo,
            victim_core: self.victim_core,
            stats: self.stats,
        }
    }

    /// Rewinds this machine to `snapshot`, dropping any installed victim and
    /// run history. After the call the machine is indistinguishable from one
    /// returned by [`MachineSnapshot::to_machine`].
    ///
    /// This is the per-trial hot path of the `llc-fleet` executor, so the
    /// copy is performed **in place**: every tag array, replacement box,
    /// page-table and noise-map allocation of `self` is reused. The machine
    /// must have been created from this snapshot's specification (snapshot
    /// restores across different specs are a programming error and panic in
    /// debug builds).
    pub fn reset_to(&mut self, snapshot: &MachineSnapshot) {
        self.host.restore_from(&snapshot.host);
        self.latency.clone_from(&snapshot.latency);
        self.clock = snapshot.clock;
        self.rng = snapshot.rng.clone();
        self.attacker_aspace.restore_from(&snapshot.attacker_aspace);
        self.attacker_core = snapshot.attacker_core;
        self.helper_core = snapshot.helper_core;
        self.helper_echo = snapshot.helper_echo;
        self.victim_core = snapshot.victim_core;
        self.victim = None;
        self.victim_run_starts.clear();
        self.stats = snapshot.stats;
    }

    /// Reseeds the machine's stochastic streams: background noise and
    /// latency jitter, plus the attacker address space's frame lottery
    /// (future allocations only; existing mappings keep their frames).
    ///
    /// After a [`Machine::reset_to`] every trial would otherwise replay the
    /// identical noise, jitter and VA→PA lottery streams; reseeding with a
    /// per-trial seed (see `llc-fleet`'s seed derivation) keeps trials
    /// statistically independent while remaining fully deterministic.
    /// Reseeding also invalidates every [`TraversalPlan`] compiled against
    /// this machine (the frame lottery behind future allocations changes);
    /// recompile plans after reseeding.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(stream_seed(seed, RESEED_RNG_STREAM));
        self.attacker_aspace.reseed(stream_seed(seed, RESEED_ASPACE_STREAM));
        // Background tenants re-derive their per-slot sub-streams, redraw
        // their working sets and rebuild the event queue as of now. A no-op
        // (zero RNG draws) for the empty population.
        self.host.reseed_tenants(stream_seed(seed, RESEED_TENANT_STREAM), self.clock);
        self.plan_epoch += 1;
    }

    // ---- trial watchdog -----------------------------------------------------

    /// Arms the per-trial virtual-time watchdog: if the simulated clock would
    /// advance more than `budget` cycles past its current value, the machine
    /// panics with the stable message `"trial budget exhausted: <budget>
    /// virtual cycles"`. The campaign layer's `catch_unwind` retry/quarantine
    /// path converts that panic into a quarantined trial, so a runaway trial
    /// (pathological parameter cell, livelocked probe loop) degrades to one
    /// quarantine entry instead of a hung fleet.
    ///
    /// The check runs at the single clock-advance choke point, so it costs
    /// one comparison per timed operation. Because virtual time is a pure
    /// function of the trial's accesses, the panic fires at the identical
    /// point on every retry of the same seed — a budget overrun is by
    /// construction a *deterministic* failure, which is exactly what the
    /// retry loop needs to quarantine it. Re-arm per trial (after
    /// `reset_to`/`reseed`); the deadline is not part of snapshots.
    pub fn arm_trial_budget(&mut self, budget: u64) {
        self.trial_deadline = Some((self.clock.saturating_add(budget), budget));
    }

    /// Disarms the watchdog armed by [`Machine::arm_trial_budget`].
    pub fn disarm_trial_budget(&mut self) {
        self.trial_deadline = None;
    }

    // ---- internals ----------------------------------------------------------

    fn rng_seed(&mut self) -> u64 {
        use rand::Rng;
        self.rng.gen()
    }

    fn attacker_line(&self, va: VirtAddr) -> LineAddr {
        self.attacker_aspace.translate_unchecked(va).line()
    }

    /// Applies pending background noise to one shared set.
    fn prepare_set(&mut self, loc: SetLocation) {
        self.prepare_set_at(loc, self.clock);
    }

    /// Applies pending background noise to one shared set as of cycle `at`
    /// (the victim replay synchronises sets at each access's own timestamp,
    /// not the post-tick clock).
    ///
    /// This — the innermost step of every traversal — performs no heap
    /// allocation and borrows each set view once per burst, in both
    /// fidelities. Exact mode borrows the noise process's event scratch
    /// buffer and replays it through the hierarchy's bulk event path;
    /// aggregate mode draws only the per-structure insertion counts and
    /// applies them as one evict-and-fill transition.
    fn prepare_set_at(&mut self, loc: SetLocation, at: u64) {
        match self.host.noise.fidelity() {
            NoiseFidelity::Exact => {
                let events = self.host.noise.catch_up(loc, at, &mut self.rng);
                self.stats.noise_events += events.len() as u64;
                self.host.hierarchy.noise_access_bulk(loc, events.iter().map(|e| e.shared));
            }
            NoiseFidelity::Aggregate => {
                let advance = self.host.noise.catch_up_aggregate(loc, at, &mut self.rng);
                self.stats.noise_events += advance.total();
                self.host.hierarchy.noise_advance_bulk(loc, advance.llc, advance.sf);
            }
        }
    }

    fn do_attacker_access(&mut self, line: LineAddr, loc: SetLocation) -> HitLevel {
        let outcome = self.host.hierarchy.access_at(self.attacker_core, line, loc, AccessKind::Read);
        self.stats.attacker_accesses += 1;
        if self.helper_echo {
            // The helper thread repeats the access from another core shortly
            // afterwards, turning the line Shared and pushing it to the LLC.
            self.host.hierarchy.access_at(self.helper_core, line, loc, AccessKind::Read);
            self.stats.attacker_accesses += 1;
        }
        outcome.level
    }

    /// Advances the clock by `cost`, replaying victim activity and scheduled
    /// tenant events that happen in the meantime.
    fn tick(&mut self, cost: u64) {
        let target = self.clock + cost;
        if let Some((deadline, budget)) = self.trial_deadline {
            // Deterministic by construction: the same trial issues the same
            // timed operations, so the overrun fires at the same access with
            // the same payload on every retry.
            assert!(target <= deadline, "trial budget exhausted: {budget} virtual cycles");
        }
        self.advance_host(target);
        self.clock = target;
    }

    /// Interleaves queued tenant events with victim replay in timestamp
    /// order up to `to`. Ties resolve victim-first: the victim's accesses at
    /// cycle `t` land before any tenant burst scheduled at `t`, matching the
    /// pre-refactor ordering where victim replay was the only timed agent.
    /// With no tenants the queue stays empty and this is victim replay.
    fn advance_host(&mut self, to: u64) {
        while let Some(at) = self.host.next_event_at(to) {
            self.advance_victim(at);
            let event = self.host.pop_event();
            let mut burst = std::mem::take(&mut self.scratch_burst);
            self.host.step_tenant(event, &mut burst);
            self.apply_tenant_burst(&mut burst, at);
            self.scratch_burst = burst;
        }
        self.advance_victim(to);
    }

    /// Lands one tenant burst at cycle `at`: noise catch-up over the
    /// burst's distinct sets first (canonical sorted order, same discipline
    /// as attacker traversals and victim replay), then the burst's accesses
    /// in posting order, with consecutive same-set runs applied through one
    /// borrowed set view each.
    fn apply_tenant_burst(&mut self, burst: &mut TenantBurst, at: u64) {
        if burst.accesses.is_empty() {
            return;
        }
        burst.locs.clear();
        burst.locs.extend(burst.accesses.iter().map(|&(loc, _)| loc));
        burst.locs.sort_unstable();
        burst.locs.dedup();
        for &loc in &burst.locs {
            self.prepare_set_at(loc, at);
        }
        let accesses = &burst.accesses;
        let mut i = 0;
        while i < accesses.len() {
            let loc = accesses[i].0;
            let mut j = i + 1;
            while j < accesses.len() && accesses[j].0 == loc {
                j += 1;
            }
            self.host.hierarchy.noise_access_bulk(loc, accesses[i..j].iter().map(|&(_, s)| s));
            i = j;
        }
        self.stats.tenant_accesses += accesses.len() as u64;
    }

    fn advance_victim(&mut self, to: u64) {
        // Take the runtime out to sidestep borrow conflicts with &mut self.
        let Some(mut v) = self.victim.take() else {
            return;
        };
        loop {
            if let Some(run) = &mut v.active {
                let mut finished = false;
                while run.next < run.schedule.accesses().len() {
                    let acc = run.schedule.accesses()[run.next];
                    let at = run.start + acc.offset;
                    if at > to {
                        break;
                    }
                    let line = v.aspace.translate_unchecked(acc.va).line();
                    // Background noise also hits the victim's sets.
                    let loc = self.host.hierarchy.shared_location(line);
                    self.prepare_set_at(loc, at);
                    self.host.hierarchy.access_at(self.victim_core, line, loc, AccessKind::Read);
                    self.stats.victim_accesses += 1;
                    run.next += 1;
                }
                let end = run.start + run.schedule.duration();
                if run.next >= run.schedule.accesses().len() && end <= to {
                    self.stats.victim_runs += 1;
                    let gap = v.request_gap;
                    let auto = v.auto_repeat;
                    v.active = None;
                    if auto {
                        v.next_start = Some(end + gap);
                    }
                    finished = true;
                }
                if !finished {
                    break;
                }
            } else if let Some(start) = v.next_start {
                if start <= to {
                    let schedule = v.program.on_request();
                    v.next_start = None;
                    v.active = Some(ActiveRun { schedule, start, next: 0 });
                    self.victim_run_starts.push(start);
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        self.victim = Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::PeriodicToucher;
    use llc_cache_model::CacheSpec;

    fn quiet_machine() -> Machine {
        Machine::builder(CacheSpec::tiny_test())
            .noise(NoiseModel::silent())
            .seed(3)
            .build()
    }

    #[test]
    fn first_access_slow_second_fast() {
        let mut m = quiet_machine();
        let base = m.alloc_attacker_pages(1);
        let (miss, level) = m.timed_access(base);
        assert_eq!(level, HitLevel::Memory);
        let (hit, level2) = m.timed_access(base);
        assert_eq!(level2, HitLevel::L1);
        assert!(miss > hit, "miss {miss} should be slower than hit {hit}");
        assert!(hit < m.latency_model().private_miss_threshold());
        assert!(miss > m.latency_model().llc_miss_threshold());
    }

    #[test]
    fn clock_advances_with_every_operation() {
        let mut m = quiet_machine();
        let base = m.alloc_attacker_pages(1);
        let t0 = m.now();
        m.access(base);
        assert!(m.now() > t0);
        let t1 = m.now();
        m.idle(500);
        assert_eq!(m.now(), t1 + 500);
    }

    #[test]
    fn helper_echo_moves_lines_into_llc() {
        let mut m = quiet_machine();
        let base = m.alloc_attacker_pages(1);
        m.set_helper_echo(true);
        m.access(base);
        // The second access should now be served from a local cache, and
        // the line must be in Shared state (observable by disabling echo and
        // timing after a flush of private copies is not possible here, so we
        // check via a fresh timed access level instead).
        let (_lat, level) = m.timed_access(base);
        assert!(level == HitLevel::L1 || level == HitLevel::L2);
    }

    #[test]
    fn parallel_traverse_faster_than_sequential() {
        let mut m = quiet_machine();
        let base = m.alloc_attacker_pages(64);
        let vas: Vec<VirtAddr> = (0..64).map(|i| base.offset(i * 4096)).collect();
        // Cold misses both times: flush between runs by using disjoint lines.
        let cost_par = m.parallel_traverse(&vas);
        let vas2: Vec<VirtAddr> = (0..64).map(|i| base.offset(i * 4096 + 64)).collect();
        let cost_seq = m.sequential_traverse(&vas2);
        assert!(cost_par * 3 < cost_seq, "parallel {cost_par} vs sequential {cost_seq}");
    }

    #[test]
    fn victim_periodic_accesses_show_up_in_time() {
        let mut m = quiet_machine();
        let toucher = PeriodicToucher::new(1_000, 10, 0x240);
        m.install_victim(Box::new(toucher), true, 0);
        // Let simulated time pass; the victim should complete runs.
        m.idle(50_000);
        assert!(m.victim_runs() >= 1, "victim should have completed at least one run");
        assert!(m.stats().victim_accesses >= 10);
    }

    #[test]
    fn request_victim_triggers_single_run() {
        let mut m = quiet_machine();
        let toucher = PeriodicToucher::new(100, 5, 0);
        m.install_victim(Box::new(toucher), false, 0);
        m.idle(10_000);
        assert_eq!(m.victim_runs(), 0, "no run without a request");
        m.request_victim();
        m.idle(10_000);
        assert_eq!(m.victim_runs(), 1);
        assert!(!m.victim_busy());
    }

    #[test]
    fn noise_fills_attacker_monitored_set_over_time() {
        let mut m = Machine::builder(CacheSpec::tiny_test())
            .noise(NoiseModel::cloud_run())
            .seed(5)
            .build();
        let base = m.alloc_attacker_pages(1);
        // Bring the line into the private cache.
        m.access(base);
        let (hit, _) = m.timed_access(base);
        assert!(hit < m.latency_model().private_miss_threshold());
        // Wait ~10 ms of simulated time: the noise should have displaced the
        // attacker's SF entry and back-invalidated the line.
        m.idle(20_000_000);
        let (lat, level) = m.timed_access(base);
        assert!(
            level != HitLevel::L1 && lat > m.latency_model().private_miss_threshold(),
            "noise should evict the attacker's line (level {level:?}, lat {lat})"
        );
    }

    #[test]
    fn oracle_locations_are_consistent() {
        let mut m = quiet_machine();
        let base = m.alloc_attacker_pages(2);
        let a = m.oracle_attacker_location(base);
        let b = m.oracle_attacker_location(base.offset(64));
        // Different line offsets in the same page map to different sets.
        assert_ne!(a, b);
        assert_eq!(a, m.oracle_attacker_location(base));
    }

    #[test]
    fn stats_count_work() {
        let mut m = quiet_machine();
        let base = m.alloc_attacker_pages(1);
        m.access(base);
        m.access(base);
        assert_eq!(m.stats().attacker_accesses, 2);
    }

    #[test]
    #[should_panic]
    fn victim_oracle_without_victim_panics() {
        let m = quiet_machine();
        let _ = m.oracle_victim_location(VirtAddr::new(0x1000));
    }

    /// Drives `m` through a fixed access script and returns every observable:
    /// measured latencies, serving levels and final clock.
    fn observe_script(m: &mut Machine, base: VirtAddr) -> (Vec<(u64, HitLevel)>, u64) {
        let mut out = Vec::new();
        for i in 0..32u64 {
            out.push(m.timed_access(base.offset((i % 7) * 64)));
        }
        m.idle(10_000);
        for i in 0..16u64 {
            out.push(m.timed_access(base.offset(i * 4096)));
        }
        (out, m.now())
    }

    #[test]
    fn snapshot_restore_replays_bit_identically() {
        let mut m = Machine::builder(CacheSpec::tiny_test())
            .noise(NoiseModel::cloud_run())
            .seed(11)
            .build();
        let base = m.alloc_attacker_pages(16);
        // Warm the machine so the snapshot captures non-trivial state.
        for i in 0..8u64 {
            m.access(base.offset(i * 64));
        }
        let snap = m.snapshot();

        let (a, clock_a) = observe_script(&mut m, base);
        m.reset_to(&snap);
        let (b, clock_b) = observe_script(&mut m, base);
        let mut fresh = snap.to_machine();
        let (c, clock_c) = observe_script(&mut fresh, base);

        assert_eq!(a, b, "reset_to must rewind every observable");
        assert_eq!(a, c, "to_machine must materialise the identical state");
        assert_eq!(clock_a, clock_b);
        assert_eq!(clock_a, clock_c);
    }

    #[test]
    fn reseed_diverges_noise_and_jitter_streams() {
        let mut m = Machine::builder(CacheSpec::tiny_test())
            .noise(NoiseModel::cloud_run())
            .seed(11)
            .build();
        let base = m.alloc_attacker_pages(16);
        let snap = m.snapshot();
        let (a, _) = observe_script(&mut m, base);
        m.reset_to(&snap);
        m.reseed(0xfee1);
        let (b, _) = observe_script(&mut m, base);
        assert_ne!(a, b, "a different trial seed must produce a different stream");
        // And the reseeded stream is itself reproducible.
        m.reset_to(&snap);
        m.reseed(0xfee1);
        let (b2, _) = observe_script(&mut m, base);
        assert_eq!(b, b2);
    }

    #[test]
    fn reseed_redraws_the_frame_lottery_for_future_allocations() {
        let mut m = quiet_machine();
        let snap = m.snapshot();
        let locations = |m: &mut Machine, seed: u64| -> Vec<_> {
            m.reset_to(&snap);
            m.reseed(seed);
            let base = m.alloc_attacker_pages(4);
            (0..4).map(|i| m.oracle_attacker_location(base.offset(i * 4096))).collect()
        };
        let a = locations(&mut m, 1);
        let b = locations(&mut m, 2);
        assert_ne!(a, b, "different trial seeds must sample different physical layouts");
        assert_eq!(b, locations(&mut m, 2), "the lottery must stay deterministic per seed");
    }

    #[test]
    fn reset_drops_victim_and_run_history() {
        let mut m = quiet_machine();
        let snap = m.snapshot();
        let toucher = PeriodicToucher::new(1_000, 10, 0x240);
        m.install_victim(Box::new(toucher), true, 0);
        m.idle(50_000);
        assert!(m.victim_runs() >= 1);
        m.reset_to(&snap);
        assert_eq!(m.victim_runs(), 0);
        assert!(m.victim_run_starts().is_empty());
        assert!(!m.victim_busy());
    }

    #[test]
    #[should_panic]
    fn snapshot_with_victim_panics() {
        let mut m = quiet_machine();
        m.install_victim(Box::new(PeriodicToucher::new(100, 5, 0)), true, 0);
        let _ = m.snapshot();
    }

    #[test]
    fn trial_budget_converts_runaway_time_into_a_deterministic_panic() {
        let overrun_at = |mut m: Machine| -> (u64, String) {
            m.arm_trial_budget(500);
            let mut steps = 0u64;
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                m.idle(100);
                steps += 1;
            }))
            .unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            (steps, msg)
        };
        let (steps_a, msg_a) = overrun_at(quiet_machine());
        let (steps_b, msg_b) = overrun_at(quiet_machine());
        // Same machine, same accesses: the overrun fires at the same step
        // with the same stable payload — the retry loop's quarantine relies
        // on exactly this.
        assert_eq!((steps_a, &msg_a), (steps_b, &msg_b));
        assert!(msg_a.contains("trial budget exhausted: 500 virtual cycles"), "{msg_a}");

        // Disarming (or never arming) lets the clock run free.
        let mut free = quiet_machine();
        free.arm_trial_budget(500);
        free.disarm_trial_budget();
        free.idle(10_000);
        assert!(free.now() >= 10_000);
    }

    #[test]
    fn snapshot_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MachineSnapshot>();
        fn assert_send<T: Send>() {}
        assert_send::<Machine>();
    }
}
