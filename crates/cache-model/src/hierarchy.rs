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
//! * Each LLC line carries sharer bits, as a directory does: a superset of
//!   the cores that may hold a private copy. Evicting an LLC line
//!   back-invalidates only those cores' copies.
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
pub struct LlcLine {
    /// Bitmask of cores that may hold a private copy: a superset, as a
    /// directory's sharer bits are. A bit is set wherever a copy is made and
    /// never cleared when a copy leaves without coherence traffic, so the
    /// walks over it (the back-invalidation of an evicted line, and whether
    /// another core holds a copy) visit every core that does. Zero for
    /// synthetic background-noise lines and for the exclusive policy's
    /// victim-cache lines, which no private cache holds.
    pub sharers: u64,
}

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
        Self { owners: core_bit(core) }
    }
}

/// The bit of `core` in an owner or sharer mask.
fn core_bit(core: CoreId) -> u64 {
    1 << core
}

/// The core ids of an owner or sharer mask in ascending order: one step per
/// set bit.
fn cores_in(mut mask: u64) -> impl Iterator<Item = CoreId> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let core = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(core)
    })
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

/// The ways a read's private fill and SF allocation took when it left the
/// line Exclusive in the requester's caches under the non-inclusive policy.
/// [`Hierarchy::echoed_read`] applies the helper's half at these ways
/// instead of looking the line up again.
#[derive(Debug, Clone, Copy)]
struct FillWays {
    l1: usize,
    l2: usize,
    sf: usize,
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
    /// The write count: advanced by every public operation that can change
    /// a set (see [`Hierarchy::write_count`]).
    writes: u64,
}

/// The replay memo of [`Hierarchy::read_traversal`]: the last two
/// traversals it recorded (ones whose reads all hit L1 or L2), each with
/// the state of the sets it touched before and after it, and its serving
/// levels.
///
/// The memo is scratch state owned by the caller, never part of a
/// hierarchy or its clones, and it serves one hierarchy. An entry is
/// replayed only when the sets it touched hold exactly its recorded
/// pre-state, so no entry can go stale: a snapshot restore, noise or
/// another core's access that changed those sets just makes it miss. Its
/// buffers are reused, so it allocates nothing in steady state.
#[derive(Debug)]
pub struct TraversalMemo {
    /// The two entries and the buffers of the traversal being simulated,
    /// which become an entry in place when it is recorded.
    slots: [MemoEntry; 3],
    /// The entry replayed or recorded last.
    last: usize,
    /// The slot of the traversal being simulated.
    spare: usize,
    /// The hierarchy's write count right after the memo last left entry
    /// `last`'s post-state in the sets; `None` before the first entry.
    stamp: Option<u64>,
    /// `links[a][b]`: whether slot `b` is recorded with slot `a`'s key and
    /// a pre-state equal to slot `a`'s post-state. Decided the first time a
    /// traversal asks, dropped when either slot records again.
    links: [[Option<bool>; 3]; 3],
    /// Traversals simulated in a row since the last replay or since the
    /// spare slot last changed key.
    misses: u64,
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
            stamp: None,
            links: [[None; 3]; 3],
            misses: 0,
            #[cfg(debug_assertions)]
            check: ReplayCheck::default(),
        }
    }
}

impl TraversalMemo {
    /// Whether slot `to` replays from recorded slot `from`'s post-state:
    /// it is recorded with the same key, so it saves the same sets, and its
    /// pre-state equals that post-state.
    fn linked(&mut self, from: usize, to: usize) -> bool {
        let (a, b) = (&self.slots[from], &self.slots[to]);
        *self.links[from][to]
            .get_or_insert_with(|| b.matches(a.rows.core, &a.lines) && b.pre == a.post)
    }

    /// Drops the links of `slot`, which is about to record.
    fn unlink(&mut self, slot: usize) {
        self.links[slot] = [None; 3];
        for row in &mut self.links {
            row[slot] = None;
        }
    }
}

/// How [`Hierarchy::read_traversal`] produced a traversal's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalPath {
    /// The reads were simulated.
    Simulated,
    /// Replayed after the entry's sets were compared with its pre-state.
    Compared,
    /// Replayed without a compare: nothing had written to the hierarchy
    /// since the memo left the last entry's post-state in the sets, and
    /// that post-state is this entry's pre-state.
    Linked,
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
    /// The rows a replay writes; worked out at the entry's first replay, so
    /// a loop that records entries it never replays does not pay for it.
    changed: Option<RowMasks>,
}

impl MemoEntry {
    fn matches(&self, core: CoreId, lines: &[LineAddr]) -> bool {
        self.recorded && self.rows.core == core && self.lines == lines
    }
}

/// The rows of each structure in which an entry's post-state differs from
/// its pre-state, as `SetArena::changed_rows` masks. A replay starts from
/// the pre-state, so it writes only these rows.
#[derive(Debug, Clone, Copy)]
struct RowMasks {
    l1: u64,
    l2: u64,
    llc: u64,
    sf: u64,
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

/// Misses in a row on one key after which [`Hierarchy::read_traversal`]
/// saves and records only two traversals in every this many.
const BACKOFF: u64 = 8;

/// Synthetic noise lines live far above any address the paging module hands
/// out (frame numbers are bounded by physical memory size).
const NOISE_LINE_BASE: u64 = 1 << 56;

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
            writes: 0,
        }
    }

    /// Copies `source`'s complete state — every tag array and all
    /// replacement metadata — into `self` **in place**, reusing `self`'s
    /// allocations. Both hierarchies must come from the same specification
    /// (true when rewinding a machine to a snapshot of itself); restoring a
    /// warmed 8-slice Skylake-SP this way performs zero heap allocations —
    /// each level's flat set arena restores with a handful of
    /// `copy_from_slice` memcpys, with no per-set recursion.
    ///
    /// The write count is advanced, not copied: a memo kept across the
    /// rewind stamped `self`'s count, and `source`'s could equal that stamp
    /// while its sets differ.
    pub fn restore_from(&mut self, source: &Hierarchy) {
        debug_assert_eq!(self.spec, source.spec, "snapshot specification mismatch");
        self.writes += 1;
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

    /// The write count: how many operations that can change a set this
    /// hierarchy has run. Every public `&mut self` method advances it
    /// (`access`, `access_at`, `echoed_read`, `read_traversal`, `clflush`,
    /// `noise_access`, a non-empty `noise_access_bulk` or
    /// `noise_advance_bulk`, `prime_as_victim`, `flush_all` and
    /// `restore_from`). While it has not moved, no set has changed, which
    /// is what lets [`Hierarchy::read_traversal`] skip comparing sets it
    /// left in a known state. Clones copy it.
    pub fn write_count(&self) -> u64 {
        self.writes
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
        self.access_path(core, line, loc, kind).0
    }

    /// A read of `line` by `core`, echoed right after by a read from
    /// `helper`: the helper thread of the paper's pruning (Section 4.2),
    /// which turns the line Shared and pushes it into the LLC. Returns the
    /// level that served `core`. The outcome is that of an
    /// [`Hierarchy::access_at`] read from `core` and then one from `helper`,
    /// bit for bit.
    ///
    /// When `core`'s read leaves the line Exclusive under the non-inclusive
    /// policy — the fill from memory, or a Shared LLC hit that no other core
    /// holds, which moves the line from the LLC to an SF entry — it has
    /// decided every lookup of the helper's read. The helper's L1 and L2
    /// miss and so does the LLC, since every private copy is backed by the
    /// LLC or the SF and the two never hold the same line; the SF holds the
    /// line at the way the fill took, owned by `core` alone. Misses have no
    /// side effects, so the helper's half applies only the updates of the
    /// SF-snoop read those lookups lead to, in the same order: it frees that
    /// SF way, touches `core`'s L1 and L2 ways and marks them Shared, inserts
    /// the line into the LLC with sharers `{core, helper}` and fills the
    /// helper's private caches. Every other outcome, and every other
    /// inclusion policy, makes the helper's read a plain `access_at`.
    pub fn echoed_read(
        &mut self,
        core: CoreId,
        helper: CoreId,
        line: LineAddr,
        loc: SetLocation,
    ) -> HitLevel {
        assert!(helper < self.spec.cores, "core {helper} out of range");
        let (outcome, fill) = self.access_path(core, line, loc, AccessKind::Read);
        match fill {
            Some(fill) if helper != core => self.echo_exclusive_fill(core, helper, line, loc, fill),
            _ => {
                self.access_at(helper, line, loc, AccessKind::Read);
            }
        }
        outcome.level
    }

    /// The helper's half of [`Hierarchy::echoed_read`] after `core`'s read
    /// left `line` Exclusive at `fill`'s ways: the SF-snoop read of
    /// `access_at` with the outcome of each of its lookups known.
    fn echo_exclusive_fill(
        &mut self,
        core: CoreId,
        helper: CoreId,
        line: LineAddr,
        loc: SetLocation,
        fill: FillWays,
    ) {
        debug_assert!(!self.l1[helper].contains(line), "the helper's L1 holds the line");
        debug_assert!(!self.l2[helper].contains(line), "the helper's L2 holds the line");
        debug_assert!(self.llc.peek_at(loc, line).is_none(), "the LLC holds the line");
        let sf = self.sf.set_view(loc);
        debug_assert_eq!(sf.line(fill.sf), Some(line), "the SF way does not hold the line");
        debug_assert_eq!(sf.payload(fill.sf), Some(&SfEntry::owner(core)), "SF owners");
        self.sf.invalidate_way_at(loc, fill.sf);
        self.l1[core].touch_way(line, fill.l1).state = CoherenceState::Shared;
        self.l2[core].touch_way(line, fill.l2).state = CoherenceState::Shared;
        self.insert_llc_at(loc, line, core_bit(core) | core_bit(helper));
        self.fill_private(helper, line, CoherenceState::Shared);
    }

    /// [`Hierarchy::access_at`], also returning the ways a read filled when
    /// it leaves `line` Exclusive under the non-inclusive policy (see
    /// [`Hierarchy::echoed_read`]).
    #[inline]
    fn access_path(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        kind: AccessKind,
    ) -> (AccessOutcome, Option<FillWays>) {
        assert!(core < self.spec.cores, "core {core} out of range");
        debug_assert_eq!(loc, self.llc.location(line), "location does not match the line");
        self.writes += 1;
        if let Some(outcome) = self.private_stage(core, line, loc, kind) {
            return (outcome, None);
        }
        // Shared stage: which structure backs the line, and how it moves
        // into the private caches, is the inclusion policy.
        match self.inclusion() {
            InclusionPolicy::NonInclusive => self.shared_stage_non_inclusive(core, line, loc, kind),
            InclusionPolicy::Inclusive => {
                (self.shared_stage_inclusive(core, line, loc, kind), None)
            }
            InclusionPolicy::Exclusive => {
                (self.shared_stage_exclusive(core, line, loc, kind), None)
            }
        }
    }

    /// Steps 1–2 of an access: `core`'s L1 and L2. The private stage is
    /// common to every inclusion policy; only the backing-recency refresh
    /// and the Shared→Modified write upgrade dispatch on it. `None` when
    /// both miss.
    #[inline]
    fn private_stage(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        kind: AccessKind,
    ) -> Option<AccessOutcome> {
        // 1. Private L1.
        if let Some(entry) = self.l1[core].lookup(line) {
            let state = entry.state;
            if kind == AccessKind::Write && state == CoherenceState::Shared {
                return Some(self.write_upgrade_private(core, line, loc, HitLevel::L1));
            }
            if kind == AccessKind::Write {
                entry.state = CoherenceState::Modified;
                if let Some(l2) = self.l2[core].lookup(line) {
                    l2.state = CoherenceState::Modified;
                }
                self.refresh_backing_recency_at(loc, line, state);
                return Some(AccessOutcome { level: HitLevel::L1, displaced_sf_entry: false });
            }
            self.refresh_backing_recency_at(loc, line, state);
            let _ = self.l2[core].lookup(line); // keep the L2 copy warm as well
            return Some(AccessOutcome { level: HitLevel::L1, displaced_sf_entry: false });
        }

        // 2. Private L2.
        let entry = self.l2[core].lookup(line)?;
        let state = entry.state;
        if kind == AccessKind::Write && state == CoherenceState::Shared {
            return Some(self.write_upgrade_private(core, line, loc, HitLevel::L2));
        }
        if kind == AccessKind::Write {
            entry.state = CoherenceState::Modified;
            self.fill_l1(core, line, CoherenceState::Modified);
            self.refresh_backing_recency_at(loc, line, state);
            return Some(AccessOutcome { level: HitLevel::L2, displaced_sf_entry: false });
        }
        self.fill_l1(core, line, state);
        self.refresh_backing_recency_at(loc, line, state);
        Some(AccessOutcome { level: HitLevel::L2, displaced_sf_entry: false })
    }

    /// Reads `lines` from `core` in order, all of them in the one LLC/SF set
    /// `loc` (an eviction set being primed or probed), and leaves the
    /// serving level of each access in `levels`. Returns whether and how
    /// the traversal was replayed from `memo`, which must serve this
    /// hierarchy alone.
    ///
    /// The outcome is that of a [`Hierarchy::access_at`] read per line, bit
    /// for bit. A read that hits `core`'s L1 or L2 touches only that core's
    /// L1 and L2 sets of the line and the LLC or SF set at `loc`, whose
    /// entry it refreshes; which of the two depends on the inclusion policy
    /// and the line's state. Unless the replacement policy draws random
    /// numbers, those sets' contents decide the whole outcome. So when
    /// `core` and `lines` match a memo entry and those sets hold exactly the
    /// entry's recorded pre-state, the rows its post-state changes are
    /// written and its levels returned instead of simulated. Whether the
    /// sets hold the pre-state is known without a compare when the write
    /// count has not moved since the memo left another entry's post-state
    /// there under the same key: then they hold it exactly when that
    /// post-state equals this pre-state, which is decided once per pair of
    /// entries. Otherwise the sets are compared. A traversal that is not
    /// replayed is simulated, and recorded if every read hit L1 or L2;
    /// after more than eight such traversals in a row on one key, only two
    /// in every eight are saved and recorded. Debug builds simulate a
    /// replayed traversal as well and assert that the replay leaves what the
    /// simulation left.
    pub fn read_traversal(
        &mut self,
        core: CoreId,
        lines: &[LineAddr],
        loc: SetLocation,
        memo: &mut TraversalMemo,
        levels: &mut Vec<HitLevel>,
    ) -> TraversalPath {
        if self.spec.hierarchy.replacement.uses_rng() {
            self.read_each(core, lines, loc, levels);
            return TraversalPath::Simulated;
        }
        // A probe loop alternates between the two entries (the L1 thrash
        // cycle has period 2), so the entry not used last is tried first.
        let other = 3 - memo.last - memo.spare;
        // The sets hold entry `last`'s post-state, and it has this key.
        let known = memo.stamp == Some(self.writes) && memo.slots[memo.last].matches(core, lines);
        for i in [other, memo.last] {
            let entry = &memo.slots[i];
            let path = if known {
                if !memo.linked(memo.last, i) {
                    continue;
                }
                TraversalPath::Linked
            } else if entry.matches(core, lines) && self.footprint_equals(&entry.rows, &entry.pre) {
                TraversalPath::Compared
            } else {
                continue;
            };
            let entry = &mut memo.slots[i];
            let masks = *entry
                .changed
                .get_or_insert_with(|| self.changed_rows(&entry.rows, &entry.pre, &entry.post));
            self.writes += 1;
            #[cfg(debug_assertions)]
            self.replay_checked(&memo.slots[i], masks, loc, &mut memo.check);
            #[cfg(not(debug_assertions))]
            self.load_footprint(&entry.rows, &entry.post, masks);
            levels.clear();
            levels.extend_from_slice(&memo.slots[i].levels);
            memo.last = i;
            memo.stamp = Some(self.writes);
            memo.misses = 0;
            return path;
        }
        // The spare slot usually holds this key already: a probe loop re-keys
        // it only when it moves to another eviction set.
        let pending = &mut memo.slots[memo.spare];
        if pending.rows.core != core || pending.lines != lines {
            memo.misses = 0;
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
        // A loop whose sets never come round to a recorded pre-state (one
        // disturbed before every other probe, say) would save every
        // pre-state for nothing. Past `BACKOFF` misses in a row, two
        // traversals in a row out of every `BACKOFF` are still saved and
        // recorded, which is enough to pick up a cycle of period 2 again.
        memo.misses += 1;
        if memo.misses > BACKOFF && memo.misses % BACKOFF >= 2 {
            self.read_each(core, lines, loc, levels);
            return TraversalPath::Simulated;
        }
        let pending = &mut memo.slots[memo.spare];
        pending.rows.shared = [self.llc.flat(loc)];
        self.save_footprint(&pending.rows, &mut pending.pre);
        self.read_each(core, lines, loc, levels);
        if levels.iter().all(|&level| level <= HitLevel::L2) {
            self.save_footprint(&pending.rows, &mut pending.post);
            pending.levels.clear();
            pending.levels.extend_from_slice(levels);
            pending.recorded = true;
            pending.changed = None;
            memo.unlink(memo.spare);
            memo.stamp = Some(self.writes);
            // The older entry's slot takes the next pending traversal.
            (memo.last, memo.spare) = (memo.spare, other);
        }
        TraversalPath::Simulated
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

    /// A replay in debug builds, checked against the simulation. The sets
    /// must hold the entry's pre-state, as a replay without a compare takes
    /// for granted. The reads are simulated first; then the core's L1 and
    /// L2 sets of the lines and the LLC and SF set are rewound, the rows of
    /// `masks` are loaded from the entry's post-state, and those sets and
    /// the levels must be what the simulation left. The sets are saved and
    /// rewound here by code of their own, not by the memo's
    /// `save_footprint` and `load_footprint`, so an entry that leaves out a
    /// set the reads touch, or a mask that leaves out a row they change,
    /// fails the check instead of being masked by the simulation.
    #[cfg(debug_assertions)]
    fn replay_checked(
        &mut self,
        entry: &MemoEntry,
        masks: RowMasks,
        loc: SetLocation,
        check: &mut ReplayCheck,
    ) {
        let rows = &entry.rows;
        assert!(self.footprint_equals(rows, &entry.pre), "replayed sets differ from the pre-state");
        let (core, shared) = (rows.core, &rows.shared);
        let save = |h: &Self, out: &mut Footprint| {
            h.l1[core].arena.save_rows(&rows.l1, true, &mut out.l1);
            h.l2[core].arena.save_rows(&rows.l2, true, &mut out.l2);
            h.llc.arena.save_rows(shared, true, &mut out.llc);
            h.sf.arena.save_rows(shared, true, &mut out.sf);
        };
        save(self, &mut check.before);
        self.read_each(core, &entry.lines, loc, &mut check.levels);
        save(self, &mut check.simulated);
        self.l1[core].arena.load_rows(&rows.l1, &check.before.l1, u64::MAX);
        self.l2[core].arena.load_rows(&rows.l2, &check.before.l2, u64::MAX);
        self.llc.arena.load_rows(shared, &check.before.llc, u64::MAX);
        self.sf.arena.load_rows(shared, &check.before.sf, u64::MAX);
        self.load_footprint(rows, &entry.post, masks);
        save(self, &mut check.before);
        assert_eq!(check.levels, entry.levels, "replayed levels differ from the simulation");
        assert!(check.before == check.simulated, "replayed sets differ from the simulation");
    }

    /// Saves the footprint's sets. The LLC and SF rows are saved without
    /// their payloads: an all-private-hit traversal only touches its lines'
    /// entries there, so it neither reads nor writes sharer or owner bits,
    /// and a replay leaves them as they are.
    fn save_footprint(&self, rows: &FootprintRows, out: &mut Footprint) {
        self.l1[rows.core].arena.save_rows(&rows.l1, true, &mut out.l1);
        self.l2[rows.core].arena.save_rows(&rows.l2, true, &mut out.l2);
        self.llc.arena.save_rows(&rows.shared, false, &mut out.llc);
        self.sf.arena.save_rows(&rows.shared, false, &mut out.sf);
    }

    fn footprint_equals(&self, rows: &FootprintRows, saved: &Footprint) -> bool {
        self.l1[rows.core].arena.rows_equal(&rows.l1, &saved.l1)
            && self.l2[rows.core].arena.rows_equal(&rows.l2, &saved.l2)
            && self.llc.arena.rows_equal(&rows.shared, &saved.llc)
            && self.sf.arena.rows_equal(&rows.shared, &saved.sf)
    }

    /// The rows of each structure in which `post` differs from `pre`.
    fn changed_rows(&self, rows: &FootprintRows, pre: &Footprint, post: &Footprint) -> RowMasks {
        RowMasks {
            l1: self.l1[rows.core].arena.changed_rows(&pre.l1, &post.l1),
            l2: self.l2[rows.core].arena.changed_rows(&pre.l2, &post.l2),
            llc: self.llc.arena.changed_rows(&pre.llc, &post.llc),
            sf: self.sf.arena.changed_rows(&pre.sf, &post.sf),
        }
    }

    /// Writes the rows of `masks` from `saved` into the footprint's sets.
    fn load_footprint(&mut self, rows: &FootprintRows, saved: &Footprint, masks: RowMasks) {
        self.l1[rows.core].arena.load_rows(&rows.l1, &saved.l1, masks.l1);
        self.l2[rows.core].arena.load_rows(&rows.l2, &saved.l2, masks.l2);
        self.llc.arena.load_rows(&rows.shared, &saved.llc, masks.llc);
        self.sf.arena.load_rows(&rows.shared, &saved.sf, masks.sf);
    }

    /// Steps 3–5 of the paper's non-inclusive protocol (Section 2.3). A
    /// read that leaves the line Exclusive also returns the ways it filled.
    fn shared_stage_non_inclusive(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        kind: AccessKind,
    ) -> (AccessOutcome, Option<FillWays>) {
        let state_on_fill = match kind {
            AccessKind::Read => CoherenceState::Exclusive,
            AccessKind::Write => CoherenceState::Modified,
        };

        // 3. Shared LLC: the line is Shared somewhere in the package.
        if let Some(entry) = self.llc.lookup_at(loc, line) {
            // The requester's bit is set before knowing whether the line
            // stays: every path below that moves it out invalidates the
            // entry, so the bit only matters where a Shared copy is made.
            let sharers = entry.sharers;
            entry.sharers |= core_bit(core);
            if kind == AccessKind::Write {
                // Read-for-ownership: every other copy is invalidated and
                // the writer takes the line private in Modified state.
                self.invalidate_other_private(core, line);
                self.llc.invalidate_at(loc, line);
                self.fill_private(core, line, CoherenceState::Modified);
                let (_, displaced) = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
                let outcome = AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: displaced };
                return (outcome, None);
            }
            // Section 2.3: when an LLC-resident line needs to transition to a
            // private state (no other core still holds a copy), it is removed
            // from the LLC and an SF entry is allocated to track it. This is
            // what lets an attacker re-prime a snoop-filter set with lines
            // that previously lived in the LLC.
            if self.other_core_has_private_copy(core, line, sharers) {
                self.fill_private(core, line, CoherenceState::Shared);
                return (AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: false }, None);
            }
            self.llc.invalidate_at(loc, line);
            let (l1, l2) = self.fill_private(core, line, state_on_fill);
            let (sf, displaced) = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
            let outcome = AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: displaced };
            return (outcome, Some(FillWays { l1, l2, sf }));
        }

        // 4. Snoop filter: the line is private to another core (or the same
        //    core's copy was silently dropped). Reads transition it to
        //    Shared; writes snoop-invalidate the owners and take ownership.
        if let Some(entry) = self.sf.peek_at(loc, line).copied() {
            self.sf.invalidate_at(loc, line);
            if kind == AccessKind::Write {
                self.back_invalidate(line, entry.owners);
                self.fill_private(core, line, CoherenceState::Modified);
                let (_, displaced) = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
                let outcome =
                    AccessOutcome { level: HitLevel::SfSnoop, displaced_sf_entry: displaced };
                return (outcome, None);
            }
            for owner in cores_in(entry.owners) {
                if owner < self.spec.cores {
                    self.downgrade_to_shared(owner, line);
                }
            }
            self.insert_llc_at(loc, line, entry.owners | core_bit(core));
            self.fill_private(core, line, CoherenceState::Shared);
            return (AccessOutcome { level: HitLevel::SfSnoop, displaced_sf_entry: false }, None);
        }

        // 5. Miss everywhere: fetch from memory, install privately, allocate
        //    an SF entry to track the new private line.
        let (outcome, ways) = self.fill_from_memory(core, line, loc, state_on_fill);
        (outcome, (kind == AccessKind::Read).then_some(ways))
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
        if let Some(entry) = self.llc.lookup_at(loc, line) {
            // A write leaves the writer the only holder.
            let sharers = entry.sharers;
            entry.sharers = match kind {
                AccessKind::Read => sharers | core_bit(core),
                AccessKind::Write => core_bit(core),
            };
            let state = if kind == AccessKind::Write {
                self.invalidate_other_private(core, line);
                CoherenceState::Modified
            } else if self.other_core_has_private_copy(core, line, sharers) {
                CoherenceState::Shared
            } else {
                state_on_fill
            };
            self.fill_private(core, line, state);
            return AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: false };
        }
        self.insert_llc_at(loc, line, core_bit(core));
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
            let (_, displaced) = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
            return AccessOutcome { level: HitLevel::Llc, displaced_sf_entry: displaced };
        }
        if let Some(entry) = self.sf.peek_at(loc, line).copied() {
            if kind == AccessKind::Write {
                self.back_invalidate(line, entry.owners);
                if let Some(e) = self.sf.lookup_at(loc, line) {
                    e.owners = core_bit(core);
                }
                self.fill_private(core, line, CoherenceState::Modified);
            } else {
                for owner in cores_in(entry.owners) {
                    if owner < self.spec.cores {
                        self.downgrade_to_shared(owner, line);
                    }
                }
                // The line stays out of the LLC (exclusivity); the directory
                // entry simply gains the new sharer.
                if let Some(e) = self.sf.lookup_at(loc, line) {
                    e.owners |= core_bit(core);
                }
                self.fill_private(core, line, CoherenceState::Shared);
            }
            return AccessOutcome { level: HitLevel::SfSnoop, displaced_sf_entry: false };
        }
        self.fill_from_memory(core, line, loc, state_on_fill).0
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
                displaced = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core)).1;
            }
            InclusionPolicy::Inclusive => {
                // The LLC copy stays (inclusion); only the other private
                // copies are invalidated, which leaves the writer the only
                // sharer.
                self.invalidate_other_private(core, line);
                if let Some(e) = self.llc.lookup_at(loc, line) {
                    e.sharers = core_bit(core);
                }
            }
            InclusionPolicy::Exclusive => {
                // Invalidate the other sharers and collapse the directory
                // entry to a single owner.
                let owners = self.sf.peek_at(loc, line).map(|e| e.owners).unwrap_or(0);
                self.back_invalidate(line, owners & !core_bit(core));
                if let Some(e) = self.sf.lookup_at(loc, line) {
                    e.owners = core_bit(core);
                } else {
                    displaced = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core)).1;
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
        self.writes += 1;
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
        self.writes += 1;
        self.noise_counter += 1;
        let synthetic = LineAddr::from_line_number(NOISE_LINE_BASE + self.noise_counter);
        // The inclusive hierarchy has no SF: all background traffic, shared
        // or private, contends in its LLC, and its evictions back-invalidate
        // — the classic cross-core Prime+Probe interference. A line the
        // exclusive LLC displaces has no private copies and no sharer bits,
        // so it just drops.
        if shared || self.inclusion() == InclusionPolicy::Inclusive {
            if let Some(evicted) = self.llc.insert_at(loc, synthetic, LlcLine::default()) {
                self.back_invalidate(evicted.line, evicted.payload.sharers);
            }
        } else if let Some(evicted) = self.sf.insert_at(loc, synthetic, SfEntry::default()) {
            self.back_invalidate(evicted.line, evicted.payload.owners);
        }
    }

    /// Applies a whole burst of background-tenant accesses to one LLC/SF set.
    ///
    /// `shared` yields one flag per event, in event order, with the same
    /// meaning as [`Hierarchy::noise_access`] under every inclusion policy
    /// (an inclusive hierarchy sends every event to its LLC). The burst is
    /// applied through set views borrowed **once** for the whole call
    /// instead of re-routing `(slice, set)` → arena row per event, which is
    /// what the machine's noise catch-up previously paid on every touched
    /// set of every traversal. Back-invalidations of evicted lines are
    /// queued into a reusable buffer and applied after the burst; within a
    /// burst nothing reads the private caches and synthetic noise lines
    /// never repeat, so the resulting state (and every replacement-metadata
    /// word) is bit-identical to per-event dispatch.
    pub fn noise_access_bulk<I>(&mut self, loc: SetLocation, shared: I)
    where
        I: IntoIterator<Item = bool>,
    {
        let mut events = shared.into_iter();
        // Empty bursts are the common case on a quiescent machine; skip the
        // view setup entirely.
        let Some(first) = events.next() else { return };
        self.writes += 1;
        let inclusive = self.inclusion() == InclusionPolicy::Inclusive;

        let mut pending = std::mem::take(&mut self.noise_evictions);
        pending.clear();
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
                // inserts straight into the LLC/SF) and so carry no sharer
                // or owner bits — the per-event path's invalidations for
                // them are guaranteed no-ops, so skipping them is
                // state-identical and saves the per-core tag scans.
                if is_shared || inclusive {
                    if let Some(evicted) = llc_view.insert(synthetic, LlcLine::default()) {
                        if evicted.payload.sharers != 0 {
                            pending.push((evicted.line, evicted.payload.sharers));
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
        for &(line, cores) in &pending {
            self.back_invalidate(line, cores);
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
    /// [`Hierarchy::noise_access_bulk`] does; displaced lines without sharer
    /// or owner bits are skipped for the same reason (their
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
        self.writes += 1;

        let mut pending = std::mem::take(&mut self.noise_evictions);
        pending.clear();
        // How many fills reach each structure is the inclusion policy's
        // noise model (mirroring `noise_access`): inclusive hierarchies have
        // no SF so every event contends in the LLC. Exclusive hierarchies'
        // LLC victims carry no sharer bits (an LLC-resident line has no
        // private copies), so they drop without back-invalidation.
        let (llc_fills, sf_fills) = match self.inclusion() {
            InclusionPolicy::NonInclusive | InclusionPolicy::Exclusive => (llc_fills, sf_fills),
            InclusionPolicy::Inclusive => (llc_fills + sf_fills, 0),
        };
        let counter = &mut self.noise_counter;
        let mut mint = |k: u64| {
            *counter += k;
            LineAddr::from_line_number(NOISE_LINE_BASE + *counter)
        };
        self.llc.set_view_mut(loc).advance_fills(llc_fills, &mut mint, |evicted| {
            if evicted.payload.sharers != 0 {
                pending.push((evicted.line, evicted.payload.sharers));
            }
        });
        self.sf.set_view_mut(loc).advance_fills(sf_fills, &mut mint, |evicted| {
            if evicted.payload.owners != 0 {
                pending.push((evicted.line, evicted.payload.owners));
            }
        });
        for &(line, cores) in &pending {
            self.back_invalidate(line, cores);
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
        self.writes += 1;
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
        self.writes += 1;
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

    /// Returns the L1 way the line took.
    fn fill_l1(&mut self, core: CoreId, line: LineAddr, state: CoherenceState) -> usize {
        // L1 evictions silently drop the line; it normally remains in L2 or
        // the LLC, and losing a stale private copy only causes an extra miss.
        self.l1[core].insert_absent(line, PrivLine { state }).0
    }

    /// Returns the L1 and L2 ways the line took.
    fn fill_private(
        &mut self,
        core: CoreId,
        line: LineAddr,
        state: CoherenceState,
    ) -> (usize, usize) {
        let (l2_way, evicted) = self.l2[core].insert_absent(line, PrivLine { state });
        if let Some(evicted) = evicted {
            self.handle_l2_eviction(core, evicted.line, evicted.payload);
        }
        (self.fill_l1(core, line, state), l2_way)
    }

    /// The memory path of the SF-tracking policies: install `line`
    /// privately and allocate its SF entry. Both callers have just seen the
    /// SF miss `line` at `loc`, and the private fill never allocates an SF
    /// entry, so the allocation skips the tag scan too. Returns the ways the
    /// fill took.
    fn fill_from_memory(
        &mut self,
        core: CoreId,
        line: LineAddr,
        loc: SetLocation,
        state: CoherenceState,
    ) -> (AccessOutcome, FillWays) {
        let (l1, l2) = self.fill_private(core, line, state);
        let (sf, displaced) = self.allocate_sf_entry_at(loc, line, SfEntry::owner(core));
        (
            AccessOutcome { level: HitLevel::Memory, displaced_sf_entry: displaced },
            FillWays { l1, l2, sf },
        )
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
                    // the inclusion proptest suite), so no sharer bits.
                    let _ = self.llc.insert_at(loc, line, LlcLine::default());
                } else if let Some(e) = self.sf.lookup_at(loc, line) {
                    e.owners = remaining;
                }
            }
        }
    }

    /// Allocates an SF entry for `line` at its pre-computed shared location,
    /// returning the way it took and whether an existing entry (belonging to
    /// another core or tenant) had to be displaced.
    ///
    /// Every caller knows `line` is absent from the SF, so the allocation
    /// skips the tag scan: it has just missed there, or it has just been
    /// freed there, or the line is in the LLC, which never holds a line the
    /// SF tracks (a Shared private copy is backed by the LLC).
    fn allocate_sf_entry_at(
        &mut self,
        loc: SetLocation,
        line: LineAddr,
        entry: SfEntry,
    ) -> (usize, bool) {
        let (way, evicted) = self.sf.insert_absent_at(loc, line, entry);
        if let Some(evicted) = evicted {
            self.back_invalidate(evicted.line, evicted.payload.owners);
        }
        (way, evicted.is_some())
    }

    /// Invalidates `line` in the private caches of the cores in `cores`: the
    /// owners of an evicted SF entry or the sharers of an evicted LLC line.
    /// A core that does not hold the line is left unchanged.
    fn back_invalidate(&mut self, line: LineAddr, cores: u64) {
        for core in cores_in(cores) {
            if core < self.spec.cores {
                self.l1[core].invalidate(line);
                self.l2[core].invalidate(line);
            }
        }
    }

    /// Inserts `line`, which the caller knows is absent from the LLC, with
    /// the cores that take a copy as its sharers. A Shared line evicted from
    /// the LLC loses its backing store, so its sharers' copies are
    /// invalidated and the next access misses. Both callers know the line is
    /// absent: the inclusive miss has just missed it, and the non-inclusive
    /// SF-snoop read has just found it in the SF.
    fn insert_llc_at(&mut self, loc: SetLocation, line: LineAddr, sharers: u64) {
        if let (_, Some(evicted)) = self.llc.insert_absent_at(loc, line, LlcLine { sharers }) {
            self.back_invalidate(evicted.line, evicted.payload.sharers);
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

    /// Whether a core other than `core` holds a private copy of `line`,
    /// given the line's LLC sharer bits: only those cores can.
    fn other_core_has_private_copy(&self, core: CoreId, line: LineAddr, sharers: u64) -> bool {
        cores_in(sharers & !core_bit(core))
            .any(|c| self.l1[c].contains(line) || self.l2[c].contains(line))
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
        }
        assert_eq!(va.meta(), vb.meta(), "LLC meta diverged");
        let (sa, sb) = (a.sf_set_view(loc), b.sf_set_view(loc));
        assert_eq!(sa.occupancy(), sb.occupancy());
        for w in 0..sa.num_ways() {
            assert_eq!(sa.line(w), sb.line(w), "SF way {w} diverged");
        }
        assert_eq!(sa.meta(), sb.meta(), "SF meta diverged");
        for &l in lines {
            for c in 0..a.cores() {
                assert_eq!(a.in_l1(c, l), b.in_l1(c, l));
                assert_eq!(a.in_l2(c, l), b.in_l2(c, l));
            }
            assert_eq!(a.in_llc(l), b.in_llc(l));
            assert_eq!(a.in_sf(l), b.in_sf(l));
        }
    }

    /// The bulk noise path must be state-identical to per-event dispatch
    /// under every inclusion policy: same tags, same replacement metadata
    /// words, same back-invalidations.
    #[test]
    fn bulk_noise_access_matches_per_event_dispatch() {
        for policy in
            [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive, InclusionPolicy::Exclusive]
        {
            let spec = CacheSpec::tiny_test().with_inclusion(policy);
            let mut a = Hierarchy::new(spec.clone(), 1);
            let mut b = Hierarchy::new(spec, 1);
            let target = line(0x4242);
            // Seed a private line and a line two cores share in the same
            // set, so evictions have real victims to back-invalidate.
            let shared_victim = congruent_lines(&a, target, 1)[0];
            for h in [&mut a, &mut b] {
                h.access(0, target, AccessKind::Read);
                h.access(0, shared_victim, AccessKind::Read);
                h.access(1, shared_victim, AccessKind::Read);
            }
            let seeded = [(0, target), (0, shared_victim), (1, shared_victim)];
            assert!(seeded.iter().all(|&(c, l)| b.in_l1(c, l) && b.in_l2(c, l)), "{policy:?}");
            let loc = a.shared_location(target);
            // A mixed burst long enough to overflow both structures.
            let burst: Vec<bool> = (0..3 * a.spec().sf.ways()).map(|i| i % 2 == 0).collect();
            for &s in &burst {
                a.noise_access(loc, s);
            }
            b.noise_access_bulk(loc, burst.iter().copied());
            assert_same_state(&a, &b, loc, &[target, shared_victim]);
            // The burst must actually have evicted the seeded lines and
            // back-invalidated their private copies, otherwise the
            // back-invalidation queue was never exercised.
            assert!(!b.in_sf(target) && !b.in_llc(target), "{policy:?}");
            assert!(!b.in_sf(shared_victim) && !b.in_llc(shared_victim), "{policy:?}");
            assert!(seeded.iter().all(|&(c, l)| !b.in_l1(c, l) && !b.in_l2(c, l)), "{policy:?}");
        }
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

    /// A saturating advance skips the lines of the fills it overwrites in
    /// one step, and leaves the noise line sequence exactly where one mint
    /// per fill leaves it: the survivors are each structure's newest fills
    /// in way order, and the next noise access mints the line after all of
    /// them, under every inclusion policy.
    #[test]
    fn saturating_burst_leaves_the_noise_sequence_where_per_fill_minting_does() {
        for policy in
            [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive, InclusionPolicy::Exclusive]
        {
            let mut h = Hierarchy::new(CacheSpec::tiny_test().with_inclusion(policy), 1);
            let loc = h.shared_location(line(0x5000));
            h.noise_access(loc, true);
            let start = h.noise_counter;
            let (llc_fills, sf_fills) = (3_000_000_000u64, 1_000_000_000u64);
            h.noise_advance_bulk(loc, llc_fills, sf_fills);
            assert_eq!(h.noise_counter, start + llc_fills + sf_fills, "{policy:?}");
            let noise = |n: u64| Some(line(NOISE_LINE_BASE + start + n));
            let llc_ways = h.spec().llc.ways() as u64;
            let llc_last = match policy {
                InclusionPolicy::Inclusive => llc_fills + sf_fills,
                _ => llc_fills,
            };
            let llc = h.llc_set_view(loc);
            for w in 0..llc_ways {
                assert_eq!(llc.line(w as usize), noise(llc_last - llc_ways + 1 + w), "{policy:?}");
            }
            if policy != InclusionPolicy::Inclusive {
                let sf_ways = h.spec().sf.ways() as u64;
                let sf = h.sf_set_view(loc);
                for w in 0..sf_ways {
                    let want = noise(llc_fills + sf_fills - sf_ways + 1 + w);
                    assert_eq!(sf.line(w as usize), want, "{policy:?}");
                }
            }
            h.noise_access(loc, true);
            let next = noise(llc_fills + sf_fills + 1).unwrap();
            assert!(h.llc_set_view(loc).contains(next), "{policy:?}: the next noise line");
        }
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
