//! The shared cache hierarchy: per-core L1/L2, a sliced shared LLC, and a
//! sliced snoop filter (SF), composed according to
//! [`InclusionPolicy`](crate::InclusionPolicy).
//!
//! The default (non-inclusive) protocol follows Section 2.3 of the paper:
//!
//! * Lines held in Exclusive/Modified state by one core live only in that
//!   core's private caches and are tracked by an SF entry.
//! * Lines in Shared state are inserted into the LLC and their SF entry is
//!   freed; the LLC serves later read requests.
//! * Evicting an SF entry back-invalidates the corresponding line from the
//!   owning cores' private caches.
//! * A request that hits another core's private line (an SF hit) transitions
//!   the line to Shared and moves it into the LLC.
//!
//! The `Inclusive` and `Exclusive` policies replace only the *shared stage*
//! of the access path (which structure backs a line and whose evictions
//! back-invalidate); the private L1/L2 stage is common to all three. See
//! DESIGN.md, "Hierarchy composition", for the per-policy state machines.
//!
//! The hierarchy is purely functional state: it knows nothing about time.
//! Latencies, noise and agents are layered on top by the `llc-machine` crate.

use crate::addr::LineAddr;
use crate::cache::{Cache, SetLocation, SharedGeometry, SlicedCache};
use crate::config::{HierarchyConfig, InclusionPolicy};
use crate::presets::CacheSpec;
use crate::set::SavedRows;

/// Coherence state of a line in a private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceState {
    /// Present in exactly one private cache, clean.
    Exclusive,
    /// Present in exactly one private cache, dirty.
    Modified,
    /// Potentially present in several private caches; backed by the LLC.
    Shared,
}

/// Payload stored in L1/L2 ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrivLine {
    /// Coherence state of this private copy.
    pub state: CoherenceState,
}

impl Default for PrivLine {
    /// Placeholder payload for invalid ways of the flat set arenas; never
    /// read while a way's valid bit is clear.
    fn default() -> Self {
        Self { state: CoherenceState::Shared }
    }
}

/// Payload stored in LLC ways. LLC-resident lines are Shared by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LlcLine;

/// Payload stored in snoop-filter ways: which cores own a private copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SfEntry {
    /// Bitmask of cores holding a private copy. Under the non-inclusive
    /// policy this tracks E/M owners only (Shared lines are LLC-backed);
    /// under the exclusive policy the SF is the directory for *all* private
    /// copies, including Shared ones. Zero for synthetic background-noise
    /// lines that belong to other tenants.
    pub owners: u64,
}

impl SfEntry {
    fn owner(core: usize) -> Self {
        Self { owners: 1 << core }
    }

    /// The owning core ids in ascending order: one step per set bit.
    fn iter_owners(self) -> impl Iterator<Item = usize> {
        let mut mask = self.owners;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(core)
        })
    }
}

/// Identifies a core of the simulated machine.
pub type CoreId = usize;

/// The kind of memory access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data or instruction read (code fetches behave like reads here).
    Read,
    /// Store; installs the line in Modified state.
    Write,
}

/// Which structure ultimately served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the requesting core's L1.
    L1,
    /// Served by the requesting core's L2.
    L2,
    /// Served by the shared LLC (line was Shared).
    Llc,
    /// Served by a cross-core snoop (the line was private to another core).
    SfSnoop,
    /// Served by DRAM.
    Memory,
}

/// Result of a single access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Which level served the access.
    pub level: HitLevel,
    /// Whether the access allocated a new SF entry and thereby evicted
    /// another tenant/core's SF entry.
    pub displaced_sf_entry: bool,
}

/// An empty options value, kept only because the repository benchmark
/// (`perfbench/`) still passes it to `MachineBuilder::hierarchy_options`
/// and `PruningSweep::new`. It configures nothing; it goes with the next
/// change to the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyOptions;

/// The complete cache hierarchy of one simulated host.
///
/// Cloning a hierarchy produces an exact, independent copy of every tag
/// array and all replacement metadata; `llc-machine`'s snapshot/reset
/// machinery relies on this to reuse one warmed hierarchy across many
/// parallel trials instead of reconstructing it.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    spec: CacheSpec,
    l1: Vec<Cache<PrivLine>>,
    l2: Vec<Cache<PrivLine>>,
    llc: SlicedCache<LlcLine>,
    sf: SlicedCache<SfEntry>,
    /// Counter used to mint synthetic noise line addresses.
    noise_counter: u64,
    /// Reusable back-invalidation queue for [`Hierarchy::noise_access_bulk`]:
    /// `(evicted line, core mask)` pairs collected while the set views are
    /// borrowed, applied once the burst completes. Contents are dead between
    /// calls; the buffer exists only so noise bursts allocate nothing.
    noise_evictions: Vec<(LineAddr, u64)>,
}

/// The replay memo of [`Hierarchy::read_traversal`]: the two most recent
/// traversals whose reads all hit L1 or L2, each with the state of the sets
/// it touched before and after it, and its serving levels.
///
/// The memo is scratch state owned by the caller, never part of a
/// hierarchy or its clones. An entry is replayed only when the sets it
/// touched hold exactly its recorded pre-state, so no entry can go stale: a
/// snapshot restore, noise or another core's access that changed those sets
/// just makes it miss. Its buffers are reused, so it allocates nothing in
/// steady state.
#[derive(Debug)]
pub struct TraversalMemo {
    /// The two entries and the buffers of the traversal being simulated,
    /// which become an entry in place when it is recorded.
    slots: [MemoEntry; 3],
    /// The entry replayed or recorded last.
    last: usize,
    /// The slot of the traversal being simulated.
    spare: usize,
    /// Buffers of debug builds' replay check.
    #[cfg(debug_assertions)]
    check: ReplayCheck,
}

impl Default for TraversalMemo {
    fn default() -> Self {
        Self {
            slots: Default::default(),
            last: 0,
            spare: 2,
            #[cfg(debug_assertions)]
            check: ReplayCheck::default(),
        }
    }
}

/// Debug builds' replay check (see `Hierarchy::replay_checked`): the
/// entry's sets before the replay and as the simulation leaves them, and
/// the simulated levels.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct ReplayCheck {
    before: Footprint,
    simulated: Footprint,
    levels: Vec<HitLevel>,
}

/// One traversal of a [`TraversalMemo`].
#[derive(Debug, Default)]
struct MemoEntry {
    /// False until the entry holds a recorded traversal.
    recorded: bool,
    lines: Vec<LineAddr>,
    rows: FootprintRows,
    pre: Footprint,
    post: Footprint,
    levels: Vec<HitLevel>,
}

impl MemoEntry {
    fn matches(&self, core: CoreId, lines: &[LineAddr]) -> bool {
        self.recorded && self.rows.core == core && self.lines == lines
    }
}

/// The sets a traversal that hits only private caches can touch: the
/// requesting core's L1 and L2 sets of its lines (distinct set indices, in
/// first-touch order) and the flat index of its LLC/SF set.
#[derive(Debug, Default)]
struct FootprintRows {
    core: CoreId,
    l1: Vec<usize>,
    l2: Vec<usize>,
    shared: [usize; 1],
}

/// The saved contents of a traversal's [`FootprintRows`].
#[derive(Debug, Default, PartialEq)]
struct Footprint {
    l1: SavedRows<PrivLine>,
    l2: SavedRows<PrivLine>,
    llc: SavedRows<LlcLine>,
    sf: SavedRows<SfEntry>,
}

fn push_distinct(rows: &mut Vec<usize>, row: usize) {
    if !rows.contains(&row) {
        rows.push(row);
    }
}

/// Synthetic noise lines live far above any address the paging module hands
/// out (frame numbers are bounded by physical memory size).
const NOISE_LINE_BASE: u64 = 1 << 56;

/// Bitmask with one bit set per core id in `0..cores`.
fn core_mask(cores: usize) -> u64 {
    if cores >= 64 {
        u64::MAX
    } else {
        (1u64 << cores) - 1
    }
}

impl Hierarchy {
    /// Creates an empty hierarchy for `spec`, composed according to
    /// `spec.hierarchy`: its inclusion policy, its slice hash for the LLC
    /// and SF, and its replacement policy at every level.
    pub fn new(spec: CacheSpec, seed: u64) -> Self {
        // The access path computes one shared (slice, set) location and uses
        // it for both the LLC and the SF, which is only sound while the two
        // structures share slice count and per-slice set count (true of
        // every modelled CPU; Section 2.3 describes them as parallel arrays).
        assert_eq!(
            spec.llc.num_slices(),
            spec.sf.num_slices(),
            "LLC and SF must have the same slice count"
        );
        assert_eq!(
            spec.llc.slice_geometry().sets(),
            spec.sf.slice_geometry().sets(),
            "LLC and SF must have the same per-slice set count"
        );
        let HierarchyConfig { slice_hash, replacement, .. } = spec.hierarchy;
        let l1 = (0..spec.cores)
            .map(|c| Cache::new(spec.l1, replacement, seed ^ (c as u64) << 8))
            .collect();
        let l2 = (0..spec.cores)
            .map(|c| Cache::new(spec.l2, replacement, seed ^ (c as u64) << 16))
            .collect();
        let llc = SlicedCache::new(spec.llc, slice_hash, replacement, seed ^ 0xaa);
        let sf = SlicedCache::new(spec.sf, slice_hash, replacement, seed ^ 0x55);
        Self {
            spec,
            l1,
            l2,
            llc,
            sf,
            noise_counter: 0,
            noise_evictions: Vec::new(),
        }
    }

    /// Copies `source`'s complete state — every tag array and all
    /// replacement metadata — into `self` **in place**, reusing `self`'s
    /// allocations. Both hierarchies must come from the same specification
    /// (true when rewinding a machine to a snapshot of itself); restoring a
    /// warmed 8-slice Skylake-SP this way performs zero heap allocations —
    /// each level's flat set arena restores with a handful of
    /// `copy_from_slice` memcpys, with no per-set recursion.
    pub fn restore_from(&mut self, source: &Hierarchy) {
        debug_assert_eq!(self.spec, source.spec, "snapshot specification mismatch");
        for (dst, src) in self.l1.iter_mut().zip(&source.l1) {
            dst.restore_from(src);
        }
        for (dst, src) in self.l2.iter_mut().zip(&source.l2) {
            dst.restore_from(src);
        }
        self.llc.restore_from(&source.llc);
        self.sf.restore_from(&source.sf);
        self.noise_counter = source.noise_counter;
    }

    /// The machine specification used to build this hierarchy.
    pub fn spec(&self) -> &CacheSpec {
        &self.spec
    }

    /// The inclusion policy this hierarchy was composed with.
    #[inline]
    pub fn inclusion(&self) -> InclusionPolicy {
        self.spec.hierarchy.inclusion
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.spec.cores
    }

    /// The (slice, set) location of `line` in the LLC (identical to the SF
    /// location because the two structures share sets and slice hash).
    pub fn shared_location(&self, line: LineAddr) -> SetLocation {
        self.llc.location(line)
    }

    /// The shared-structure set geometry (slices × sets per slice), which
    /// the tenant actor layer uses to draw background working-set
    /// footprints. The LLC and SF share this geometry by construction.
    pub fn shared_geometry(&self) -> SharedGeometry {
        SharedGeometry {
            slices: self.spec.llc.num_slices(),
            sets_per_slice: self.spec.llc.slice_geometry().sets(),
        }
    }

    /// The L2 set index of `line`.
    pub fn l2_set(&self, line: LineAddr) -> usize {
        self.spec.l2.set_index(line)
    }

    /// The L1 set index of `line`.
    pub fn l1_set(&self, line: LineAddr) -> usize {
        self.spec.l1.set_index(line)
    }

    /// Performs one memory access from `core` to `line`.
    pub fn access(&mut self, core: CoreId, line: LineAddr, kind: AccessKind) -> AccessOutcome {
        // The LLC and SF share sets and slice hash (asserted at
        // construction), so the shared location is computed once for the
        // whole access instead of per structure-level probe.
        let loc = self.llc.location(line);
        self.access_at(core, line, loc, kind)
    }

    /// [`Hierarchy::access`] with a pre-computed shared location.
    ///
    /// The machine layer already derives `line`'s LLC/SF location to apply
    /// pending background noise before the access; passing it through skips
    /// a redundant slice-hash evaluation on the hottest path in the
    /// simulator. `loc` must equal `shared_location(line)`.
    pub fn access_at(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        kind: AccessKind,
    ) -> AccessOutcome {
        assert!(core < self.spec.cores, "core {core} out of range");
        debug_assert_eq!(loc, self.llc.location(line), "location does not match the line");

        // 1. Private L1. The private stage is common to every inclusion
        //    policy; only the backing-recency refresh and the Shared→Modified
        //    write upgrade dispatch on it.
        if let Some(entry) = self.l1[core].lookup(line) {
            let state = entry.state;
            if kind == AccessKind::Write && state == CoherenceState::Shared {
                return self.write_upgrade_private(core, line, loc, HitLevel::L1);
            }
            if kind == AccessKind::Write {
                entry.state = CoherenceState::Modified;
                if let Some(l2) = self.l2[core].lookup(line) {
                    l2.state = CoherenceState::Modified;
                }
                self.refresh_backing_recency_at(loc, line, state);
                return AccessOutcome { level: HitLevel::L1, displaced_sf_entry: false };
            }
            self.refresh_backing_recency_at(loc, line, state);
            let _ = self.l2[core].lookup(line); // keep the L2 copy warm as well
            return AccessOutcome { level: HitLevel::L1, displaced_sf_entry: false };
        }

        // 2. Private L2.
        if let Some(entry) = self.l2[core].lookup(line) {
            let state = entry.state;
            if kind == AccessKind::Write && state == CoherenceState::Shared {
                return self.write_upgrade_private(core, line, loc, HitLevel::L2);
            }
            if kind == AccessKind::Write {
                self.l2[core].lookup(line).expect("just hit").state = CoherenceState::Modified;
                self.fill_l1(core, line, CoherenceState::Modified);
                self.refresh_backing_recency_at(loc, line, state);
                return AccessOutcome { level: HitLevel::L2, displaced_sf_entry: false };
            }
            self.fill_l1(core, line, state);
            self.refresh_backing_recency_at(loc, line, state);
            return AccessOutcome { level: HitLevel::L2, displaced_sf_entry: false };
        }

        // Shared stage: which structure backs the line, and how it moves
        // into the private caches, is the inclusion policy.
        match self.inclusion() {
            InclusionPolicy::NonInclusive => self.shared_stage_non_inclusive(core, line, loc, kind),
            InclusionPolicy::Inclusive => self.shared_stage_inclusive(core, line, loc, kind),
            InclusionPolicy::Exclusive => self.shared_stage_exclusive(core, line, loc, kind),
        }
    }

    /// Reads `lines` from `core` in order, all of them in the one LLC/SF set
    /// `loc` (an eviction set being primed or probed), and leaves the
    /// serving level of each access in `levels`. Returns whether the
    /// traversal was replayed from `memo`.
    ///
    /// The outcome is that of a [`Hierarchy::access_at`] read per line, bit
    /// for bit. A read that hits `core`'s L1 or L2 touches only that core's
    /// L1 and L2 sets of the line and the LLC or SF set at `loc`, whose
    /// entry it refreshes; which of the two depends on the inclusion policy
    /// and the line's state. Unless the replacement policy draws random
    /// numbers, those sets' contents decide the whole outcome. So when
    /// `core` and `lines` match a memo entry and those sets hold exactly the
    /// entry's recorded pre-state, the entry's post-state and levels are
    /// written instead of simulated. Otherwise the reads are simulated, and
    /// the traversal is recorded if every one of them hit L1 or L2. Debug
    /// builds simulate a replayed traversal as well and assert that the
    /// replay leaves what the simulation left.
    pub fn read_traversal(
        &mut self,
        core: CoreId,
        lines: &[LineAddr],
        loc: SetLocation,
        memo: &mut TraversalMemo,
        levels: &mut Vec<HitLevel>,
    ) -> bool {
        if self.spec.hierarchy.replacement.uses_rng() {
            self.read_each(core, lines, loc, levels);
            return false;
        }
        // A probe loop alternates between the two entries (the L1 thrash
        // cycle has period 2), so the entry not used last is tried first.
        let other = 3 - memo.last - memo.spare;
        for i in [other, memo.last] {
            let entry = &memo.slots[i];
            if entry.matches(core, lines) && self.footprint_equals(&entry.rows, &entry.pre) {
                #[cfg(debug_assertions)]
                self.replay_checked(entry, loc, &mut memo.check);
                #[cfg(not(debug_assertions))]
                self.load_footprint(&entry.rows, &entry.post);
                levels.clear();
                levels.extend_from_slice(&entry.levels);
                memo.last = i;
                return true;
            }
        }
        // The spare slot usually holds this key already: a probe loop re-keys
        // it only when it moves to another eviction set.
        let pending = &mut memo.slots[memo.spare];
        if pending.rows.core != core || pending.lines != lines {
            pending.lines.clear();
            pending.lines.extend_from_slice(lines);
            let rows = &mut pending.rows;
            rows.core = core;
            rows.l1.clear();
            rows.l2.clear();
            for &line in lines {
                push_distinct(&mut rows.l1, self.spec.l1.set_index(line));
                push_distinct(&mut rows.l2, self.spec.l2.set_index(line));
            }
        }
        pending.rows.shared = [self.llc.flat(loc)];
        self.save_footprint(&pending.rows, &mut pending.pre);
        self.read_each(core, lines, loc, levels);
        if levels.iter().all(|&level| level <= HitLevel::L2) {
            self.save_footprint(&pending.rows, &mut pending.post);
            pending.levels.clear();
            pending.levels.extend_from_slice(levels);
            pending.recorded = true;
            // The older entry's slot takes the next pending traversal.
            (memo.last, memo.spare) = (memo.spare, other);
        }
        false
    }

    /// One [`Hierarchy::access_at`] read per line: the simulation that
    /// [`Hierarchy::read_traversal`] replays.
    fn read_each(
        &mut self,
        core: CoreId,
        lines: &[LineAddr],
        loc: SetLocation,
        levels: &mut Vec<HitLevel>,
    ) {
        levels.clear();
        levels.extend(
            lines.iter().map(|&line| self.access_at(core, line, loc, AccessKind::Read).level),
        );
    }

    /// A replay in debug builds, checked against the simulation. The reads
    /// are simulated first; then the core's L1 and L2 sets of the lines and
    /// the LLC and SF set are rewound, the entry's post-state is loaded, and
    /// those sets and the levels must be what the simulation left. The sets
    /// are saved and rewound here by code of their own, not by the memo's
    /// `save_footprint` and `load_footprint`, so an entry that leaves out a
    /// set the reads touch fails the check instead of being masked by the
    /// simulation.
    #[cfg(debug_assertions)]
    fn replay_checked(&mut self, entry: &MemoEntry, loc: SetLocation, check: &mut ReplayCheck) {
        let rows = &entry.rows;
        let (core, shared) = (rows.core, &rows.shared);
        let save = |h: &Self, out: &mut Footprint| {
            h.l1[core].arena.save_rows(&rows.l1, &mut out.l1);
            h.l2[core].arena.save_rows(&rows.l2, &mut out.l2);
            h.llc.arena.save_rows(shared, &mut out.llc);
            h.sf.arena.save_rows(shared, &mut out.sf);
        };
        save(self, &mut check.before);
        self.read_each(core, &entry.lines, loc, &mut check.levels);
        save(self, &mut check.simulated);
        self.l1[core].arena.load_rows(&rows.l1, &check.before.l1);
        self.l2[core].arena.load_rows(&rows.l2, &check.before.l2);
        self.llc.arena.load_rows(shared, &check.before.llc);
        self.sf.arena.load_rows(shared, &check.before.sf);
        self.load_footprint(rows, &entry.post);
        save(self, &mut check.before);
        assert_eq!(check.levels, entry.levels, "replayed levels differ from the simulation");
        assert!(check.before == check.simulated, "replayed sets differ from the simulation");
    }

    fn save_footprint(&self, rows: &FootprintRows, out: &mut Footprint) {
        self.l1[rows.core].arena.save_rows(&rows.l1, &mut out.l1);
        self.l2[rows.core].arena.save_rows(&rows.l2, &mut out.l2);
        self.llc.arena.save_rows(&rows.shared, &mut out.llc);
        self.sf.arena.save_rows(&rows.shared, &mut out.sf);
    }

    fn footprint_equals(&self, rows: &FootprintRows, saved: &Footprint) -> bool {
        self.l1[rows.core].arena.rows_equal(&rows.l1, &saved.l1)
            && self.l2[rows.core].arena.rows_equal(&rows.l2, &saved.l2)
            && self.llc.arena.rows_equal(&rows.shared, &saved.llc)
            && self.sf.arena.rows_equal(&rows.shared, &saved.sf)
    }

    fn load_footprint(&mut self, rows: &FootprintRows, saved: &Footprint) {
        self.l1[rows.core].arena.load_rows(&rows.l1, &saved.l1);
        self.l2[rows.core].arena.load_rows(&rows.l2, &saved.l2);
        self.llc.arena.load_rows(&rows.shared, &saved.llc);
        self.sf.arena.load_rows(&rows.shared, &saved.sf);
    }

    /// Steps 3–5 of the paper's non-inclusive protocol (Section 2.3).
    fn shared_stage_non_inclusive(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        kind: AccessKind,
    ) -> AccessOutcome {
        let state_on_fill = match kind {
            AccessKind::Read => CoherenceState::Exclusive,
            AccessKind::Write => CoherenceState::Modified,
        };

        // 3. Shared LLC: the line is Shared somewhere in the package.
        if self.llc.lookup_at(loc, line).is_some() {
            if kind == AccessKind::Write {
                // Read-for-ownership: every other copy is invalidated and
                // the writer takes the line private in Modified state.
                self.invalidate_other_private(core, line);
                self.llc.invalidate_at(loc, line);
                self.fill_private(core, line, CoherenceState::Modified);
                let displaced = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
                return AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: displaced };
            }
            // Section 2.3: when an LLC-resident line needs to transition to a
            // private state (no other core still holds a copy), it is removed
            // from the LLC and an SF entry is allocated to track it. This is
            // what lets an attacker re-prime a snoop-filter set with lines
            // that previously lived in the LLC.
            if self.other_core_has_private_copy(core, line) {
                self.fill_private(core, line, CoherenceState::Shared);
                return AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: false };
            }
            self.llc.invalidate_at(loc, line);
            self.fill_private(core, line, state_on_fill);
            let displaced = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
            return AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: displaced };
        }

        // 4. Snoop filter: the line is private to another core (or the same
        //    core's copy was silently dropped). Reads transition it to
        //    Shared; writes snoop-invalidate the owners and take ownership.
        if let Some(entry) = self.sf.peek_at(loc, line).copied() {
            self.sf.invalidate_at(loc, line);
            if kind == AccessKind::Write {
                for owner in entry.iter_owners() {
                    if owner < self.spec.cores {
                        self.l1[owner].invalidate(line);
                        self.l2[owner].invalidate(line);
                    }
                }
                self.fill_private(core, line, CoherenceState::Modified);
                let displaced = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
                return AccessOutcome { level: HitLevel::SfSnoop, displaced_sf_entry: displaced };
            }
            for owner in entry.iter_owners() {
                if owner < self.spec.cores {
                    self.downgrade_to_shared(owner, line);
                }
            }
            self.insert_llc_at(loc, line);
            self.fill_private(core, line, CoherenceState::Shared);
            return AccessOutcome { level: HitLevel::SfSnoop, displaced_sf_entry: false };
        }

        // 5. Miss everywhere: fetch from memory, install privately, allocate
        //    an SF entry to track the new private line.
        self.fill_from_memory(core, line, loc, state_on_fill)
    }

    /// Shared stage of the inclusive policy: the LLC is a superset of every
    /// private cache, so a hit never removes the LLC entry and a miss fills
    /// the LLC *first* (its eviction back-invalidates the displaced line
    /// everywhere, which is what enforces inclusion). The SF is never used.
    fn shared_stage_inclusive(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        kind: AccessKind,
    ) -> AccessOutcome {
        let state_on_fill = match kind {
            AccessKind::Read => CoherenceState::Exclusive,
            AccessKind::Write => CoherenceState::Modified,
        };
        if self.llc.lookup_at(loc, line).is_some() {
            let state = if kind == AccessKind::Write {
                self.invalidate_other_private(core, line);
                CoherenceState::Modified
            } else if self.other_core_has_private_copy(core, line) {
                CoherenceState::Shared
            } else {
                state_on_fill
            };
            self.fill_private(core, line, state);
            return AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: false };
        }
        self.insert_llc_at(loc, line);
        self.fill_private(core, line, state_on_fill);
        AccessOutcome { level: HitLevel::Memory, displaced_sf_entry: false }
    }

    /// Shared stage of the exclusive policy: the LLC is a victim cache (an
    /// LLC hit migrates the line back into the requester's private caches)
    /// and the SF is the directory for *all* private copies.
    fn shared_stage_exclusive(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        kind: AccessKind,
    ) -> AccessOutcome {
        let state_on_fill = match kind {
            AccessKind::Read => CoherenceState::Exclusive,
            AccessKind::Write => CoherenceState::Modified,
        };
        if self.llc.lookup_at(loc, line).is_some() {
            // Victim-cache hit: the line leaves the LLC and becomes private
            // again, tracked by a fresh directory entry.
            self.llc.invalidate_at(loc, line);
            self.fill_private(core, line, state_on_fill);
            let displaced = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
            return AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: displaced };
        }
        if let Some(entry) = self.sf.peek_at(loc, line).copied() {
            if kind == AccessKind::Write {
                for owner in entry.iter_owners() {
                    if owner < self.spec.cores {
                        self.l1[owner].invalidate(line);
                        self.l2[owner].invalidate(line);
                    }
                }
                if let Some(e) = self.sf.lookup_at(loc, line) {
                    e.owners = 1 << core;
                }
                self.fill_private(core, line, CoherenceState::Modified);
            } else {
                for owner in entry.iter_owners() {
                    if owner < self.spec.cores {
                        self.downgrade_to_shared(owner, line);
                    }
                }
                // The line stays out of the LLC (exclusivity); the directory
                // entry simply gains the new sharer.
                if let Some(e) = self.sf.lookup_at(loc, line) {
                    e.owners |= 1 << core;
                }
                self.fill_private(core, line, CoherenceState::Shared);
            }
            return AccessOutcome { level: HitLevel::SfSnoop, displaced_sf_entry: false };
        }
        self.fill_from_memory(core, line, loc, state_on_fill)
    }

    /// Upgrades a Shared private hit to Modified (read-for-ownership): every
    /// other copy is invalidated and the backing structure is updated
    /// according to the inclusion policy. Fixes the latent bug where a write
    /// to a Shared line flipped the L1 state word without any coherence
    /// action, leaving a Modified line that the LLC still served to other
    /// cores and that no SF entry tracked.
    fn write_upgrade_private(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        level: HitLevel,
    ) -> AccessOutcome {
        let mut displaced = false;
        match self.inclusion() {
            InclusionPolicy::NonInclusive => {
                // The Shared line leaves the LLC and becomes a tracked
                // private Modified line.
                self.invalidate_other_private(core, line);
                self.llc.invalidate_at(loc, line);
                displaced = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
            }
            InclusionPolicy::Inclusive => {
                // The LLC copy stays (inclusion); only the other private
                // copies are invalidated.
                self.invalidate_other_private(core, line);
                let _ = self.llc.lookup_at(loc, line);
            }
            InclusionPolicy::Exclusive => {
                // Invalidate the other sharers and collapse the directory
                // entry to a single owner.
                let owners = self.sf.peek_at(loc, line).map(|e| e.owners).unwrap_or(0);
                for owner in (SfEntry { owners }).iter_owners() {
                    if owner != core && owner < self.spec.cores {
                        self.l1[owner].invalidate(line);
                        self.l2[owner].invalidate(line);
                    }
                }
                if let Some(e) = self.sf.lookup_at(loc, line) {
                    e.owners = 1 << core;
                } else {
                    displaced = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
                }
            }
        }
        if let Some(p) = self.l1[core].lookup(line) {
            p.state = CoherenceState::Modified;
        } else {
            self.fill_l1(core, line, CoherenceState::Modified);
        }
        if let Some(p) = self.l2[core].lookup(line) {
            p.state = CoherenceState::Modified;
        }
        AccessOutcome { level, displaced_sf_entry: displaced }
    }

    /// Flushes `line` from the entire hierarchy (like `clflush` issued by a
    /// core that owns the backing memory).
    pub fn clflush(&mut self, line: LineAddr) {
        for c in 0..self.spec.cores {
            self.l1[c].invalidate(line);
            self.l2[c].invalidate(line);
        }
        self.llc.invalidate(line);
        self.sf.invalidate(line);
    }

    /// Injects a background-tenant access targeted at an explicit LLC/SF set.
    ///
    /// `shared` selects whether the synthetic line behaves like a shared line
    /// (allocates in the LLC) or a private line of another tenant (allocates
    /// in the SF). Either way the insertion can evict a real line, producing
    /// exactly the interference the attacker observes on Cloud Run.
    pub fn noise_access(&mut self, loc: SetLocation, shared: bool) {
        self.noise_counter += 1;
        let synthetic = LineAddr::from_line_number(NOISE_LINE_BASE + self.noise_counter);
        match self.inclusion() {
            InclusionPolicy::NonInclusive => {
                if shared {
                    if let Some(evicted) = self.llc.insert_at(loc, synthetic, LlcLine) {
                        self.invalidate_private_everywhere(evicted.line);
                    }
                } else if let Some(evicted) = self.sf.insert_at(loc, synthetic, SfEntry::default())
                {
                    self.handle_sf_eviction(evicted.line, evicted.payload);
                }
            }
            InclusionPolicy::Inclusive => {
                // There is no SF: all background traffic, shared or private,
                // contends in the (inclusive) LLC, and its evictions
                // back-invalidate — the classic cross-core Prime+Probe
                // interference.
                if let Some(evicted) = self.llc.insert_at(loc, synthetic, LlcLine) {
                    self.invalidate_private_everywhere(evicted.line);
                }
            }
            InclusionPolicy::Exclusive => {
                if shared {
                    // Victim-cache fill by another tenant; the displaced line
                    // has no private copies (exclusivity), so it just drops.
                    let _ = self.llc.insert_at(loc, synthetic, LlcLine);
                } else if let Some(evicted) = self.sf.insert_at(loc, synthetic, SfEntry::default())
                {
                    self.handle_sf_eviction(evicted.line, evicted.payload);
                }
            }
        }
    }

    /// Applies a whole burst of background-tenant accesses to one LLC/SF set.
    ///
    /// `shared` yields one flag per event, in event order, with the same
    /// meaning as [`Hierarchy::noise_access`]. The burst is applied through
    /// set views borrowed **once** for the whole call instead of re-routing
    /// `(slice, set)` → arena row per event, which is what the machine's
    /// noise catch-up previously paid on every touched set of every
    /// traversal. Back-invalidations of evicted lines are queued into a
    /// reusable buffer and applied after the burst; within a burst nothing
    /// reads the private caches and synthetic noise lines never repeat, so
    /// the resulting state (and every replacement-metadata word) is
    /// bit-identical to per-event dispatch.
    pub fn noise_access_bulk<I>(&mut self, loc: SetLocation, shared: I)
    where
        I: IntoIterator<Item = bool>,
    {
        let mut events = shared.into_iter();
        // Empty bursts are the common case on a quiescent machine; skip the
        // view setup entirely.
        let Some(first) = events.next() else { return };
        // Per-event dispatch for the non-default inclusion policies: their
        // noise paths are not hot in any golden workload.
        if self.inclusion() != InclusionPolicy::NonInclusive {
            self.noise_access(loc, first);
            for s in events {
                self.noise_access(loc, s);
            }
            return;
        }

        let mut pending = std::mem::take(&mut self.noise_evictions);
        pending.clear();
        let all_cores = core_mask(self.spec.cores);
        {
            let mut llc_view = self.llc.set_view_mut(loc);
            let mut sf_view = self.sf.set_view_mut(loc);
            let mut next = Some(first);
            while let Some(is_shared) = next {
                self.noise_counter += 1;
                let synthetic = LineAddr::from_line_number(NOISE_LINE_BASE + self.noise_counter);
                // Back-invalidation is only queued when it can have an
                // effect. In a long burst most victims are older synthetic
                // noise lines, which never enter a private cache (noise
                // inserts straight into the LLC/SF), and ownerless SF
                // entries back-invalidate nobody — the per-event path's
                // invalidations for both are guaranteed no-ops, so skipping
                // them is state-identical and saves ~6 tag scans per
                // evicted way.
                if is_shared {
                    if let Some(evicted) = llc_view.insert(synthetic, LlcLine) {
                        if evicted.line.line_number() < NOISE_LINE_BASE {
                            pending.push((evicted.line, all_cores));
                        }
                    }
                } else if let Some(evicted) = sf_view.insert(synthetic, SfEntry::default()) {
                    if evicted.payload.owners != 0 {
                        pending.push((evicted.line, evicted.payload.owners));
                    }
                }
                next = events.next();
            }
        }
        for &(line, owners) in &pending {
            for core in 0..self.spec.cores {
                if owners & (1 << core) != 0 {
                    self.l1[core].invalidate(line);
                    self.l2[core].invalidate(line);
                }
            }
        }
        self.noise_evictions = pending;
    }

    /// Applies an *aggregate* noise advance to one LLC/SF set: `llc_fills`
    /// shared-line insertions and `sf_fills` other-tenant private-line
    /// insertions, as one bulk evict-and-fill transition per structure
    /// (`SetViewMut::advance_fills`) instead of per-event dispatch.
    ///
    /// Back-invalidations of displaced real lines are deferred and applied
    /// after both structures advance, exactly as
    /// [`Hierarchy::noise_access_bulk`] does; displaced synthetic noise
    /// lines and ownerless SF entries are skipped for the same reason (their
    /// back-invalidations are guaranteed no-ops). Processing all LLC fills
    /// and then all SF fills is state-equivalent to any timestamp
    /// interleaving of the same counts: the two structures share no ways and
    /// nothing reads the private caches mid-burst.
    ///
    /// Work is `O(min(fills, ways))` per structure, which is what makes
    /// long-gap catch-ups cheap in the aggregate noise mode regardless of
    /// the Poisson draw.
    pub fn noise_advance_bulk(&mut self, loc: SetLocation, llc_fills: u64, sf_fills: u64) {
        if llc_fills == 0 && sf_fills == 0 {
            return;
        }

        let mut pending = std::mem::take(&mut self.noise_evictions);
        pending.clear();
        let all_cores = core_mask(self.spec.cores);
        // How many fills reach each structure is the inclusion policy's
        // noise model (mirroring `noise_access`): inclusive hierarchies have
        // no SF so every event contends in the LLC; exclusive hierarchies
        // drop LLC victims without back-invalidation (an LLC-resident line
        // has no private copies).
        let (llc_fills, sf_fills) = match self.inclusion() {
            InclusionPolicy::NonInclusive | InclusionPolicy::Exclusive => (llc_fills, sf_fills),
            InclusionPolicy::Inclusive => (llc_fills + sf_fills, 0),
        };
        let llc_backinvalidates = self.inclusion() != InclusionPolicy::Exclusive;
        {
            let counter = &mut self.noise_counter;
            let mut llc_view = self.llc.set_view_mut(loc);
            llc_view.advance_fills(
                llc_fills,
                || {
                    *counter += 1;
                    LineAddr::from_line_number(NOISE_LINE_BASE + *counter)
                },
                |evicted| {
                    if llc_backinvalidates && evicted.line.line_number() < NOISE_LINE_BASE {
                        pending.push((evicted.line, all_cores));
                    }
                },
            );
        }
        {
            let counter = &mut self.noise_counter;
            let mut sf_view = self.sf.set_view_mut(loc);
            sf_view.advance_fills(
                sf_fills,
                || {
                    *counter += 1;
                    LineAddr::from_line_number(NOISE_LINE_BASE + *counter)
                },
                |evicted| {
                    if evicted.payload.owners != 0 {
                        pending.push((evicted.line, evicted.payload.owners));
                    }
                },
            );
        }
        for &(line, owners) in &pending {
            for core in 0..self.spec.cores {
                if owners & (1 << core) != 0 {
                    self.l1[core].invalidate(line);
                    self.l2[core].invalidate(line);
                }
            }
        }
        self.noise_evictions = pending;
    }

    /// Marks `line` as the next replacement victim of its LLC or SF set.
    ///
    /// This is the abstract effect of Prime+Scope's replacement-state priming
    /// (Section 6.1): after the priming pattern, the chosen line is the
    /// eviction candidate of its set, so a single conflicting insertion by
    /// the victim (or by another tenant) displaces it even though the
    /// attacker keeps re-touching it during the scope checks.
    pub fn prime_as_victim(&mut self, line: LineAddr) {
        let loc = self.llc.location(line);
        if !self.llc.demote_at(loc, line) {
            self.sf.demote_at(loc, line);
        }
    }

    /// True if `core`'s L1 holds `line`.
    pub fn in_l1(&self, core: CoreId, line: LineAddr) -> bool {
        self.l1[core].contains(line)
    }

    /// True if `core`'s L2 holds `line`.
    pub fn in_l2(&self, core: CoreId, line: LineAddr) -> bool {
        self.l2[core].contains(line)
    }

    /// Coherence state of `core`'s L1 copy of `line`, if present (oracle /
    /// property-test use; does not touch replacement state).
    pub fn l1_state(&self, core: CoreId, line: LineAddr) -> Option<CoherenceState> {
        self.l1[core].peek(line).map(|p| p.state)
    }

    /// Coherence state of `core`'s L2 copy of `line`, if present (oracle /
    /// property-test use; does not touch replacement state).
    pub fn l2_state(&self, core: CoreId, line: LineAddr) -> Option<CoherenceState> {
        self.l2[core].peek(line).map(|p| p.state)
    }

    /// True if the LLC holds `line`.
    pub fn in_llc(&self, line: LineAddr) -> bool {
        self.llc.contains(line)
    }

    /// True if the snoop filter tracks `line`.
    pub fn in_sf(&self, line: LineAddr) -> bool {
        self.sf.contains(line)
    }

    /// Occupancy of an LLC set (used by instrumentation and tests).
    pub fn llc_occupancy(&self, loc: SetLocation) -> usize {
        self.llc.occupancy(loc)
    }

    /// Occupancy of an SF set (used by instrumentation and tests).
    pub fn sf_occupancy(&self, loc: SetLocation) -> usize {
        self.sf.occupancy(loc)
    }

    /// Read-only view of set `index` of `core`'s L1 (instrumentation/oracle
    /// use; the attack algorithms never see this).
    pub fn l1_set_view(&self, core: CoreId, index: usize) -> crate::SetView<'_, PrivLine> {
        self.l1[core].set_view(index)
    }

    /// Read-only view of set `index` of `core`'s L2 (instrumentation/oracle
    /// use; the attack algorithms never see this).
    pub fn l2_set_view(&self, core: CoreId, index: usize) -> crate::SetView<'_, PrivLine> {
        self.l2[core].set_view(index)
    }

    /// Read-only view of an LLC set's tag array and replacement metadata
    /// (instrumentation/oracle use; the attack algorithms never see this).
    pub fn llc_set_view(&self, loc: SetLocation) -> crate::SetView<'_, LlcLine> {
        self.llc.set_view(loc)
    }

    /// Read-only view of an SF set's tag array and replacement metadata
    /// (instrumentation/oracle use; the attack algorithms never see this).
    pub fn sf_set_view(&self, loc: SetLocation) -> crate::SetView<'_, SfEntry> {
        self.sf.set_view(loc)
    }

    /// Drops every cached line (used between independent experiment trials).
    pub fn flush_all(&mut self) {
        for c in 0..self.spec.cores {
            self.l1[c].clear();
            self.l2[c].clear();
        }
        self.llc.clear();
        self.sf.clear();
    }

    // ----- internal helpers -------------------------------------------------

    // The private fills below install without scanning for `line`: every
    // caller in `access_at` has just missed it in `core`'s L1 (and, for
    // `fill_private`, its L2), and nothing in between installs a private
    // line — the shared stages, eviction handlers and back-invalidations
    // only look up, downgrade or invalidate private copies.

    fn fill_l1(&mut self, core: CoreId, line: LineAddr, state: CoherenceState) {
        // L1 evictions silently drop the line; it normally remains in L2 or
        // the LLC, and losing a stale private copy only causes an extra miss.
        let _ = self.l1[core].insert_absent(line, PrivLine { state });
    }

    fn fill_private(&mut self, core: CoreId, line: LineAddr, state: CoherenceState) {
        if let Some(evicted) = self.l2[core].insert_absent(line, PrivLine { state }) {
            self.handle_l2_eviction(core, evicted.line, evicted.payload);
        }
        self.fill_l1(core, line, state);
    }

    /// The memory path of the SF-tracking policies: install `line`
    /// privately and allocate its SF entry. Both callers have just seen the
    /// SF miss `line` at `loc`, and the private fill never allocates an SF
    /// entry, so the allocation skips the tag scan too.
    fn fill_from_memory(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        state: CoherenceState,
    ) -> AccessOutcome {
        self.fill_private(core, line, state);
        let evicted = self.sf.insert_absent_at(loc, line, SfEntry::owner(core));
        if let Some(e) = evicted {
            self.handle_sf_eviction(e.line, e.payload);
        }
        AccessOutcome { level: HitLevel::Memory, displaced_sf_entry: evicted.is_some() }
    }

    fn handle_l2_eviction(&mut self, core: CoreId, line: LineAddr, payload: PrivLine) {
        match self.inclusion() {
            InclusionPolicy::NonInclusive => match payload.state {
                CoherenceState::Shared => {
                    // The LLC still holds the line; nothing to do. A stale
                    // copy may remain in L1, which is harmless (non-inclusive
                    // L1): the LLC entry outlives it, and every way the LLC
                    // entry can die back-invalidates the L1 copy too. The
                    // `stale_l1_copies_stay_backed` proptest in
                    // `tests/coherence_props.rs` pins this invariant.
                    // See also `refresh_backing_recency_at`.
                }
                CoherenceState::Exclusive | CoherenceState::Modified => {
                    // The line leaves the private caches: drop the L1 copy
                    // and free the SF entry.
                    self.l1[core].invalidate(line);
                    self.sf.invalidate(line);
                }
            },
            InclusionPolicy::Inclusive => {
                // The LLC holds the line by the inclusion property; a stale
                // L1 copy is likewise covered by the LLC entry's eventual
                // back-invalidation, so the eviction needs no action.
            }
            InclusionPolicy::Exclusive => {
                // Drop the stale L1 copy, then update the directory. When the
                // last private copy leaves, the line makes the exclusive
                // LLC's *only* kind of fill: a clean victim-cache insertion.
                self.l1[core].invalidate(line);
                let loc = self.llc.location(line);
                let owners = self.sf.peek_at(loc, line).map(|e| e.owners).unwrap_or(0);
                let remaining = owners & !(1u64 << core);
                if remaining == 0 {
                    self.sf.invalidate_at(loc, line);
                    // Evictions displaced by this fill are dropped without
                    // back-invalidation: exclusivity guarantees an
                    // LLC-resident victim has no private copies (pinned by
                    // the inclusion proptest suite).
                    let _ = self.llc.insert_at(loc, line, LlcLine);
                } else if let Some(e) = self.sf.lookup_at(loc, line) {
                    e.owners = remaining;
                }
            }
        }
    }

    /// Allocates an SF entry for `line` at its pre-computed shared location,
    /// returning whether an existing entry (belonging to another core or
    /// tenant) had to be displaced.
    fn allocate_sf_entry_at(&mut self, loc: SetLocation, line: LineAddr, entry: SfEntry) -> bool {
        match self.sf.insert_at(loc, line, entry) {
            Some(evicted) => {
                self.handle_sf_eviction(evicted.line, evicted.payload);
                true
            }
            None => false,
        }
    }

    fn handle_sf_eviction(&mut self, line: LineAddr, entry: SfEntry) {
        for owner in entry.iter_owners() {
            if owner < self.spec.cores {
                self.l1[owner].invalidate(line);
                self.l2[owner].invalidate(line);
            }
        }
    }

    fn insert_llc_at(&mut self, loc: SetLocation, line: LineAddr) {
        if let Some(evicted) = self.llc.insert_at(loc, line, LlcLine) {
            // A Shared line evicted from the LLC loses its backing store;
            // invalidate any private copies so that the next access misses.
            self.invalidate_private_everywhere(evicted.line);
        }
    }

    /// Keeps the shared structures' replacement state consistent with actual
    /// line usage: a hit on a private copy also counts as a use of the line's
    /// LLC entry (Shared lines) or SF entry (Exclusive/Modified lines).
    ///
    /// Without this, a line that is hot in a core's L1 silently ages to LRU
    /// in the LLC/SF and gets evicted by a single conflicting insertion,
    /// which no real non-inclusive hierarchy exhibits for actively-used lines
    /// and which would make every `TestEviction`-based algorithm misbehave.
    fn refresh_backing_recency_at(&mut self, loc: SetLocation, line: LineAddr, state: CoherenceState) {
        match self.inclusion() {
            InclusionPolicy::NonInclusive => match state {
                CoherenceState::Shared => {
                    let _ = self.llc.lookup_at(loc, line);
                }
                CoherenceState::Exclusive | CoherenceState::Modified => {
                    let _ = self.sf.lookup_at(loc, line);
                }
            },
            // Inclusive: every private-resident line is backed by its LLC
            // entry regardless of coherence state.
            InclusionPolicy::Inclusive => {
                let _ = self.llc.lookup_at(loc, line);
            }
            // Exclusive: every private-resident line is tracked by the
            // directory regardless of coherence state.
            InclusionPolicy::Exclusive => {
                let _ = self.sf.lookup_at(loc, line);
            }
        }
    }

    fn other_core_has_private_copy(&self, core: CoreId, line: LineAddr) -> bool {
        (0..self.spec.cores)
            .filter(|&c| c != core)
            .any(|c| self.l1[c].contains(line) || self.l2[c].contains(line))
    }

    fn invalidate_private_everywhere(&mut self, line: LineAddr) {
        for c in 0..self.spec.cores {
            self.l1[c].invalidate(line);
            self.l2[c].invalidate(line);
        }
    }

    /// Invalidates every private copy of `line` except `core`'s own (the
    /// snoop-invalidate half of a read-for-ownership).
    fn invalidate_other_private(&mut self, core: CoreId, line: LineAddr) {
        for c in 0..self.spec.cores {
            if c != core {
                self.l1[c].invalidate(line);
                self.l2[c].invalidate(line);
            }
        }
    }

    fn downgrade_to_shared(&mut self, core: CoreId, line: LineAddr) {
        if let Some(p) = self.l1[core].lookup(line) {
            p.state = CoherenceState::Shared;
        }
        if let Some(p) = self.l2[core].lookup(line) {
            p.state = CoherenceState::Shared;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::CacheSpec;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(CacheSpec::tiny_test(), 1)
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    /// Finds `count` lines that map to the same LLC/SF set as `target`.
    fn congruent_lines(h: &Hierarchy, target: LineAddr, count: usize) -> Vec<LineAddr> {
        let loc = h.shared_location(target);
        let mut found = Vec::new();
        let mut n = target.line_number() + 1;
        while found.len() < count {
            let cand = line(n);
            if h.shared_location(cand) == loc {
                found.push(cand);
            }
            n += 1;
        }
        found
    }

    #[test]
    fn first_access_misses_then_hits_in_l1() {
        let mut h = hierarchy();
        let l = line(0x42);
        assert_eq!(h.access(0, l, AccessKind::Read).level, HitLevel::Memory);
        assert_eq!(h.access(0, l, AccessKind::Read).level, HitLevel::L1);
        assert!(h.in_l1(0, l) && h.in_l2(0, l));
        assert!(h.in_sf(l), "private line must be tracked by the SF");
        assert!(!h.in_llc(l), "private line must not be in the non-inclusive LLC");
    }

    #[test]
    fn cross_core_access_transitions_to_shared_and_fills_llc() {
        let mut h = hierarchy();
        let l = line(0x99);
        h.access(0, l, AccessKind::Read);
        let out = h.access(1, l, AccessKind::Read);
        assert_eq!(out.level, HitLevel::SfSnoop);
        assert!(h.in_llc(l), "shared line must be inserted into the LLC");
        assert!(!h.in_sf(l), "SF entry must be freed after the transition");
        // Both cores now hit locally.
        assert_eq!(h.access(0, l, AccessKind::Read).level, HitLevel::L1);
        assert_eq!(h.access(1, l, AccessKind::Read).level, HitLevel::L1);
    }

    #[test]
    fn llc_hit_after_private_copies_are_gone() {
        let mut h = hierarchy();
        let l = line(0x123);
        h.access(0, l, AccessKind::Read);
        h.access(1, l, AccessKind::Read); // now shared + in LLC
        // Drop both cores' private copies without touching the LLC.
        for c in 0..h.cores() {
            h.l1[c].invalidate(l);
            h.l2[c].invalidate(l);
        }
        assert_eq!(h.access(2, l, AccessKind::Read).level, HitLevel::Llc);
    }

    #[test]
    fn sf_conflict_back_invalidates_private_copy() {
        let mut h = hierarchy();
        let target = line(0x1000);
        h.access(0, target, AccessKind::Read);
        assert!(h.in_l2(0, target));

        // Fill the target's SF set with other private lines from core 1 until
        // the target's entry is displaced.
        let ways = h.spec().sf.ways();
        let fillers = congruent_lines(&h, target, ways);
        for f in &fillers {
            h.access(1, *f, AccessKind::Read);
        }
        assert!(!h.in_sf(target), "target SF entry should have been evicted");
        assert!(
            !h.in_l1(0, target) && !h.in_l2(0, target),
            "back-invalidation must remove the private copy"
        );
        // The next access misses all the way to memory: this is exactly the
        // signal a Prime+Probe attacker observes.
        assert_eq!(h.access(0, target, AccessKind::Read).level, HitLevel::Memory);
    }

    #[test]
    fn shared_lines_conflict_in_llc() {
        let mut h = hierarchy();
        let target = line(0x2000);
        // Make the target shared (attacker + helper behaviour).
        h.access(0, target, AccessKind::Read);
        h.access(1, target, AccessKind::Read);
        assert!(h.in_llc(target));

        // Make W more congruent lines shared; the LLC set overflows and the
        // target is eventually evicted.
        let ways = h.spec().llc.ways();
        let fillers = congruent_lines(&h, target, ways);
        for f in &fillers {
            h.access(0, *f, AccessKind::Read);
            h.access(1, *f, AccessKind::Read);
        }
        assert!(!h.in_llc(target), "LLC eviction set must evict the target");
        // Private copies were invalidated too, so the reload misses.
        assert_eq!(h.access(0, target, AccessKind::Read).level, HitLevel::Memory);
    }

    #[test]
    fn clflush_removes_line_everywhere() {
        let mut h = hierarchy();
        let l = line(0x3000);
        h.access(0, l, AccessKind::Read);
        h.access(1, l, AccessKind::Read);
        h.clflush(l);
        assert!(!h.in_llc(l) && !h.in_sf(l));
        assert!(!h.in_l1(0, l) && !h.in_l2(0, l));
        assert_eq!(h.access(0, l, AccessKind::Read).level, HitLevel::Memory);
    }

    #[test]
    fn write_installs_modified_state() {
        let mut h = hierarchy();
        let l = line(0x77);
        h.access(0, l, AccessKind::Write);
        assert_eq!(h.l2[0].peek(l).map(|p| p.state), Some(CoherenceState::Modified));
    }

    #[test]
    fn noise_access_sf_displaces_victim_entries() {
        let mut h = hierarchy();
        let target = line(0x5000);
        h.access(0, target, AccessKind::Read);
        let loc = h.shared_location(target);
        for _ in 0..h.spec().sf.ways() + 2 {
            h.noise_access(loc, false);
        }
        assert!(!h.in_sf(target));
        assert!(!h.in_l2(0, target), "noise-driven SF eviction back-invalidates");
    }

    #[test]
    fn noise_access_llc_evicts_shared_lines() {
        let mut h = hierarchy();
        let target = line(0x6000);
        h.access(0, target, AccessKind::Read);
        h.access(1, target, AccessKind::Read);
        let loc = h.shared_location(target);
        for _ in 0..h.spec().llc.ways() + 2 {
            h.noise_access(loc, true);
        }
        assert!(!h.in_llc(target));
    }

    /// Asserts that `a` and `b` hold the same tags and replacement metadata
    /// words in the LLC and SF sets at `loc`, and the same copies of
    /// `lines` at every level.
    fn assert_same_state(a: &Hierarchy, b: &Hierarchy, loc: SetLocation, lines: &[LineAddr]) {
        let (va, vb) = (a.llc_set_view(loc), b.llc_set_view(loc));
        assert_eq!(va.occupancy(), vb.occupancy());
        for w in 0..va.num_ways() {
            assert_eq!(va.line(w), vb.line(w), "LLC way {w} diverged");
            assert_eq!(va.meta_word(w), vb.meta_word(w), "LLC meta {w} diverged");
        }
        let (sa, sb) = (a.sf_set_view(loc), b.sf_set_view(loc));
        assert_eq!(sa.occupancy(), sb.occupancy());
        for w in 0..sa.num_ways() {
            assert_eq!(sa.line(w), sb.line(w), "SF way {w} diverged");
            assert_eq!(sa.meta_word(w), sb.meta_word(w), "SF meta {w} diverged");
        }
        for &l in lines {
            for c in 0..a.cores() {
                assert_eq!(a.in_l1(c, l), b.in_l1(c, l));
                assert_eq!(a.in_l2(c, l), b.in_l2(c, l));
            }
            assert_eq!(a.in_llc(l), b.in_llc(l));
            assert_eq!(a.in_sf(l), b.in_sf(l));
        }
    }

    /// The bulk noise path must be state-identical to per-event dispatch:
    /// same tags, same replacement metadata words, same back-invalidations.
    #[test]
    fn bulk_noise_access_matches_per_event_dispatch() {
        let mut a = hierarchy();
        let mut b = hierarchy();
        let target = line(0x4242);
        // Seed a private line (SF-tracked) and a shared line (LLC-resident)
        // in the same set so evictions have real victims to back-invalidate.
        let shared_victim = congruent_lines(&a, target, 1)[0];
        for h in [&mut a, &mut b] {
            h.access(0, target, AccessKind::Read);
            h.access(0, shared_victim, AccessKind::Read);
            h.access(1, shared_victim, AccessKind::Read);
        }
        let loc = a.shared_location(target);
        // A mixed burst long enough to overflow both structures.
        let burst: Vec<bool> = (0..3 * a.spec().sf.ways()).map(|i| i % 2 == 0).collect();
        for &s in &burst {
            a.noise_access(loc, s);
        }
        b.noise_access_bulk(loc, burst.iter().copied());
        assert_same_state(&a, &b, loc, &[target, shared_victim]);
        // The burst must actually have evicted the seeded lines, otherwise
        // the back-invalidation queue was never exercised.
        assert!(!b.in_sf(target) && !b.in_llc(shared_victim));
    }

    /// Below saturation, `noise_advance_bulk(kl, ks)` must be
    /// state-identical to `kl` shared then `ks` private per-event noise
    /// accesses under every inclusion policy and deterministic replacement
    /// policy: same tags, same metadata, same back-invalidations.
    #[test]
    fn noise_advance_bulk_matches_per_event_below_saturation() {
        use crate::replacement::ReplacementKind;
        for policy in
            [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive, InclusionPolicy::Exclusive]
        {
            for kind in [
                ReplacementKind::Lru,
                ReplacementKind::TreePlru,
                ReplacementKind::Qlru,
                ReplacementKind::Srrip,
            ] {
                let spec = CacheSpec::tiny_test().with_inclusion(policy).with_replacement(kind);
                let mut a = Hierarchy::new(spec.clone(), 1);
                let mut b = Hierarchy::new(spec, 1);
                let target = line(0x4242);
                let shared_victim = congruent_lines(&a, target, 1)[0];
                let loc = a.shared_location(target);
                let (llc_ways, sf_ways) = (a.spec().llc.ways() as u64, a.spec().sf.ways() as u64);
                for h in [&mut a, &mut b] {
                    h.access(0, target, AccessKind::Read);
                    h.access(0, shared_victim, AccessKind::Read);
                    h.access(1, shared_victim, AccessKind::Read);
                    // Fill the free ways behind the seeded lines, so the
                    // advance evicts and the seeded lines are the oldest.
                    // The inclusive hierarchy leaves its SF unused.
                    for _ in h.llc_occupancy(loc)..llc_ways as usize {
                        h.noise_access(loc, true);
                    }
                    if policy != InclusionPolicy::Inclusive {
                        for _ in h.sf_occupancy(loc)..sf_ways as usize {
                            h.noise_access(loc, false);
                        }
                    }
                }
                // Under `Inclusive` both counts land in the LLC, so their sum
                // stays below the LLC's ways.
                let (kl, ks) = match policy {
                    InclusionPolicy::Inclusive => (llc_ways / 2, llc_ways - 1 - llc_ways / 2),
                    _ => (llc_ways - 1, sf_ways - 1),
                };
                for _ in 0..kl {
                    a.noise_access(loc, true);
                }
                for _ in 0..ks {
                    a.noise_access(loc, false);
                }
                b.noise_advance_bulk(loc, kl, ks);
                assert_same_state(&a, &b, loc, &[target, shared_victim]);
                if kind == ReplacementKind::Lru {
                    assert!(!b.in_l2(0, target), "{policy:?}: the advance must back-invalidate");
                }
            }
        }
    }

    /// A saturating advance displaces every resident of both structures,
    /// back-invalidates the private copies, and fills each set to capacity
    /// with synthetic lines — in O(ways), so an absurdly large count must
    /// terminate instantly.
    #[test]
    fn noise_advance_bulk_saturating_burst_displaces_everything() {
        let mut h = hierarchy();
        let target = line(0x5000);
        let shared_victim = congruent_lines(&h, target, 1)[0];
        h.access(0, target, AccessKind::Read); // SF-tracked private line
        h.access(0, shared_victim, AccessKind::Read);
        h.access(1, shared_victim, AccessKind::Read); // LLC-resident shared line
        let loc = h.shared_location(target);
        h.noise_advance_bulk(loc, 1_000_000_000, 1_000_000_000);
        assert!(!h.in_sf(target));
        assert!(!h.in_llc(shared_victim));
        assert!(!h.in_l2(0, target), "SF displacement must back-invalidate");
        assert!(!h.in_l2(0, shared_victim) && !h.in_l2(1, shared_victim));
        assert_eq!(h.llc_occupancy(loc), h.spec().llc.ways());
        assert_eq!(h.sf_occupancy(loc), h.spec().sf.ways());
    }

    #[test]
    fn l2_capacity_eviction_frees_sf_entry() {
        let mut h = hierarchy();
        let spec = h.spec().clone();
        let target = line(0x8000);
        h.access(0, target, AccessKind::Read);
        assert!(h.in_sf(target));
        // Fill the target's L2 set with other exclusive lines from core 0.
        let l2_sets = spec.l2.sets() as u64;
        let mut filled = 0;
        let mut n = target.line_number() + l2_sets;
        while filled < spec.l2.ways() + 1 {
            let cand = line(n);
            if spec.l2.set_index(cand) == spec.l2.set_index(target) {
                h.access(0, cand, AccessKind::Read);
                filled += 1;
            }
            n += l2_sets;
        }
        assert!(!h.in_l2(0, target), "target should fall out of the L2");
        assert!(!h.in_sf(target), "dropping the private copy frees the SF entry");
    }

    #[test]
    fn flush_all_empties_hierarchy() {
        let mut h = hierarchy();
        h.access(0, line(1), AccessKind::Read);
        h.access(1, line(1), AccessKind::Read);
        h.flush_all();
        assert!(!h.in_llc(line(1)));
        assert_eq!(h.access(0, line(1), AccessKind::Read).level, HitLevel::Memory);
    }
}
