//! Flat structure-of-arrays set storage and per-set views.
//!
//! The former representation — one heap-allocated `CacheSet` per set, each
//! holding a `Vec<Option<Entry<T>>>` and a `Box<dyn ReplacementState>` —
//! scattered a simulated cache across tens of thousands of small allocations
//! and paid a virtual call per access. [`SetArena`] replaces it with four
//! contiguous arrays owned by the whole structure:
//!
//! ```text
//! way index inside set s:        w = 0 .. ways-1
//! flat index of (s, w):          s * ways + w
//! metadata stride:               m = ReplacementKind::meta_words(ways)
//!
//! lines:   [LineAddr; sets*ways]   tag array (full line addresses)
//! payload: [T;        sets*ways]   caller payload (coherence state, owners)
//! meta:    [u64;      sets*m]      replacement metadata words (see
//!                                  `replacement.rs` for per-policy layout)
//! valid:   [u64;      sets]        one bitmask word per set, bit w = way w
//! rngs:    [SmallRng; sets]        only for ReplacementKind::Random
//! ```
//!
//! A set is manipulated through [`SetView`] (shared, for tests and
//! instrumentation) and [`SetViewMut`] (the access path), which borrow the
//! per-set slices of those arrays. Snapshot restores degrade to four
//! `copy_from_slice` calls over the arenas — no per-set recursion, no
//! allocation, no `dyn` dispatch.

use crate::addr::LineAddr;
use crate::replacement::ReplacementKind;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One entry (way) of a cache set, pairing the line tag with caller-defined
/// payload (coherence state, owner bitmap, ...). Returned by eviction paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<T> {
    /// Physical line stored in this way.
    pub line: LineAddr,
    /// Structure-specific payload.
    pub payload: T,
}

/// Contiguous storage for `sets` cache sets of `ways` ways each.
///
/// The arena stores full line addresses rather than tags; this wastes a few
/// bits of simulator memory but keeps lookups by `LineAddr` trivial and
/// avoids tag aliasing bugs.
#[derive(Debug, Clone)]
pub struct SetArena<T> {
    ways: usize,
    /// Metadata words per set: `policy.meta_words(ways)`.
    meta_stride: usize,
    policy: ReplacementKind,
    lines: Vec<LineAddr>,
    valid: Vec<u64>,
    payload: Vec<T>,
    meta: Vec<u64>,
    rngs: Vec<SmallRng>,
}

impl<T: Copy + Default> SetArena<T> {
    /// Creates an empty arena of `sets` sets with `ways` ways each.
    ///
    /// `seed_of` derives the per-set RNG seed (only consulted when the policy
    /// is [`ReplacementKind::Random`]); it receives the set index and must
    /// match the historical per-set seed derivation of the owning structure
    /// so that random-replacement streams stay reproducible.
    pub fn new(
        sets: usize,
        ways: usize,
        policy: ReplacementKind,
        seed_of: impl Fn(usize) -> u64,
    ) -> Self {
        assert!((1..=64).contains(&ways), "associativity must be 1..=64, got {ways}");
        let meta_stride = policy.meta_words(ways);
        let rngs = if policy.uses_rng() {
            (0..sets).map(|s| SmallRng::seed_from_u64(seed_of(s))).collect()
        } else {
            Vec::new()
        };
        let mut arena = Self {
            ways,
            meta_stride,
            policy,
            lines: vec![LineAddr::from_line_number(0); sets * ways],
            valid: vec![0; sets],
            payload: vec![T::default(); sets * ways],
            meta: vec![0u64; sets * meta_stride],
            rngs,
        };
        arena.init_meta();
        arena
    }

    /// Initialises every set's replacement metadata to the empty-set state.
    fn init_meta(&mut self) {
        if self.meta_stride > 0 {
            for set_meta in self.meta.chunks_exact_mut(self.meta_stride) {
                self.policy.init_meta(set_meta, self.ways);
            }
        }
    }

    /// The range of set `index`'s metadata words in `meta`.
    #[inline]
    fn meta_range(&self, index: usize) -> std::ops::Range<usize> {
        index * self.meta_stride..(index + 1) * self.meta_stride
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.valid.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Shared view of set `index` (instrumentation, tests).
    #[inline]
    pub fn view(&self, index: usize) -> SetView<'_, T> {
        let r = index * self.ways..(index + 1) * self.ways;
        SetView {
            lines: &self.lines[r.clone()],
            valid: self.valid[index],
            payload: &self.payload[r],
            meta: &self.meta[self.meta_range(index)],
        }
    }

    /// Mutable view of set `index` (the access path).
    #[inline]
    pub fn view_mut(&mut self, index: usize) -> SetViewMut<'_, T> {
        let r = index * self.ways..(index + 1) * self.ways;
        let m = self.meta_range(index);
        SetViewMut {
            lines: &mut self.lines[r.clone()],
            valid: &mut self.valid[index],
            payload: &mut self.payload[r],
            meta: &mut self.meta[m],
            policy: self.policy,
            rng: self.rngs.get_mut(index),
        }
    }

    /// Copies `source`'s contents into `self` in place: four flat-buffer
    /// memcpys (plus the RNG arena for random replacement), reusing every
    /// allocation. This is the hot path of `Machine::reset_to` — a trial
    /// rewind touches every cache set, and re-boxing ~10^5 replacement
    /// states per trial would dominate the executor's profile.
    pub fn restore_from(&mut self, source: &SetArena<T>) {
        debug_assert_eq!(self.ways, source.ways, "snapshot arena geometry mismatch");
        debug_assert_eq!(self.policy, source.policy, "snapshot arena policy mismatch");
        self.lines.copy_from_slice(&source.lines);
        self.valid.copy_from_slice(&source.valid);
        self.payload.copy_from_slice(&source.payload);
        self.meta.copy_from_slice(&source.meta);
        self.rngs.clone_from(&source.rngs);
    }

    /// Removes every entry and re-initialises all replacement metadata.
    pub fn clear(&mut self) {
        self.valid.fill(0);
        self.init_meta();
    }

    /// Copies sets `rows` (valid mask, tags, metadata words and, if
    /// `payloads`, payloads) into `out`, replacing its contents and reusing
    /// its buffers. Rows saved without payloads are compared and loaded
    /// without them too.
    pub(crate) fn save_rows(&self, rows: &[usize], payloads: bool, out: &mut SavedRows<T>) {
        out.valid.clear();
        out.lines.clear();
        out.payload.clear();
        out.meta.clear();
        out.payloads = payloads;
        for &row in rows {
            let r = row * self.ways..(row + 1) * self.ways;
            out.valid.push(self.valid[row]);
            out.lines.extend_from_slice(&self.lines[r.clone()]);
            if payloads {
                out.payload.extend_from_slice(&self.payload[r]);
            }
            out.meta.extend_from_slice(&self.meta[self.meta_range(row)]);
        }
    }

    /// True if sets `rows` hold exactly what [`SetArena::save_rows`] saved
    /// into `saved` for the same `rows`.
    pub(crate) fn rows_equal(&self, rows: &[usize], saved: &SavedRows<T>) -> bool
    where
        T: PartialEq,
    {
        rows.iter().enumerate().all(|(i, &row)| {
            let (r, s) =
                (row * self.ways..(row + 1) * self.ways, i * self.ways..(i + 1) * self.ways);
            self.valid[row] == saved.valid[i]
                && self.meta[self.meta_range(row)] == saved.meta[self.meta_range(i)]
                && self.lines[r.clone()] == saved.lines[s.clone()]
                && (!saved.payloads || self.payload[r] == saved.payload[s])
        })
    }

    /// A mask of the rows in which `b` differs from `a`, both saved by
    /// [`SetArena::save_rows`] for the same rows: bit `i` stands for row
    /// `i`. [`SetArena::load_rows`] loads every row from the 64th on, so
    /// their bits are left out.
    pub(crate) fn changed_rows(&self, a: &SavedRows<T>, b: &SavedRows<T>) -> u64
    where
        T: PartialEq,
    {
        let mut mask = 0;
        for i in 0..a.valid.len().min(64) {
            let (s, m) = (i * self.ways..(i + 1) * self.ways, self.meta_range(i));
            if a.valid[i] != b.valid[i]
                || a.meta[m.clone()] != b.meta[m]
                || a.lines[s.clone()] != b.lines[s.clone()]
                || (a.payloads && a.payload[s.clone()] != b.payload[s])
            {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Writes `saved` back into sets `rows` (the inverse of
    /// [`SetArena::save_rows`] for the same `rows`), skipping row `i` when
    /// bit `i` of `mask` is clear: a row whose saved contents the set
    /// already holds. Rows from the 64th on are always written.
    pub(crate) fn load_rows(&mut self, rows: &[usize], saved: &SavedRows<T>, mask: u64) {
        for (i, &row) in rows.iter().enumerate() {
            if i < 64 && mask >> i & 1 == 0 {
                continue;
            }
            let (r, s) =
                (row * self.ways..(row + 1) * self.ways, i * self.ways..(i + 1) * self.ways);
            let (rm, sm) = (self.meta_range(row), self.meta_range(i));
            self.valid[row] = saved.valid[i];
            self.lines[r.clone()].copy_from_slice(&saved.lines[s.clone()]);
            if saved.payloads {
                self.payload[r].copy_from_slice(&saved.payload[s]);
            }
            self.meta[rm].copy_from_slice(&saved.meta[sm]);
        }
    }
}

/// The saved contents of some sets of a [`SetArena`], in the order they were
/// saved: the row store of the hierarchy's traversal replay memo.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct SavedRows<T> {
    valid: Vec<u64>,
    lines: Vec<LineAddr>,
    /// Whether `payload` holds the rows' payloads.
    payloads: bool,
    payload: Vec<T>,
    meta: Vec<u64>,
}

/// Immutable view of one cache set inside a [`SetArena`].
///
/// This replaces the former `&CacheSet<T>` instrumentation handle: it borrows
/// the set's slices of the flat arenas and exposes read-only queries.
#[derive(Debug, Clone, Copy)]
pub struct SetView<'a, T> {
    lines: &'a [LineAddr],
    valid: u64,
    payload: &'a [T],
    meta: &'a [u64],
}

impl<'a, T> SetView<'a, T> {
    /// Number of ways.
    pub fn num_ways(&self) -> usize {
        self.lines.len()
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.valid.count_ones() as usize
    }

    /// Returns true if way `way` holds a valid line.
    #[inline]
    pub fn is_valid(&self, way: usize) -> bool {
        assert!(way < self.lines.len());
        self.valid & (1 << way) != 0
    }

    /// The line stored in way `way`, if valid.
    pub fn line(&self, way: usize) -> Option<LineAddr> {
        self.is_valid(way).then(|| self.lines[way])
    }

    /// The payload stored in way `way`, if valid.
    #[inline]
    pub fn payload(&self, way: usize) -> Option<&'a T> {
        self.is_valid(way).then(|| &self.payload[way])
    }

    /// The set's raw replacement-metadata words: `meta_words(ways)` of
    /// them, in the policy-specific layout of the table in `replacement.rs`.
    pub fn meta(&self) -> &'a [u64] {
        self.meta
    }

    /// Returns true if `line` is present.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_way(line).is_some()
    }

    /// The way holding `line`, if present.
    pub fn way_of(&self, line: LineAddr) -> Option<usize> {
        self.find_way(line)
    }

    /// The payload stored for `line`, if present (no recency update).
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<&'a T> {
        self.payload(self.find_way(line)?)
    }

    /// Iterates over the valid `(way, line, payload)` triples of the set in
    /// way order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, LineAddr, &'a T)> + '_ {
        let valid = self.valid;
        self.lines
            .iter()
            .zip(self.payload)
            .enumerate()
            .filter(move |(w, _)| valid & (1 << w) != 0)
            .map(|(w, (&line, payload))| (w, line, payload))
    }

    fn find_way(&self, line: LineAddr) -> Option<usize> {
        find_way(self.lines, self.valid, line)
    }
}

/// Scans the valid ways of a set for `line`, in ascending way order (the
/// same order the boxed implementation scanned its `Vec<Option<Entry>>`).
#[inline]
fn find_way(lines: &[LineAddr], valid: u64, line: LineAddr) -> Option<usize> {
    let mut mask = valid;
    while mask != 0 {
        let w = mask.trailing_zeros() as usize;
        if lines[w] == line {
            return Some(w);
        }
        mask &= mask - 1;
    }
    None
}

/// Mutable view of one cache set: the complete per-set access path
/// (lookup, insert, demote, invalidate) over the flat arenas.
#[derive(Debug)]
pub struct SetViewMut<'a, T> {
    lines: &'a mut [LineAddr],
    valid: &'a mut u64,
    payload: &'a mut [T],
    meta: &'a mut [u64],
    policy: ReplacementKind,
    rng: Option<&'a mut SmallRng>,
}

impl<'a, T: Copy> SetViewMut<'a, T> {
    /// Number of ways.
    pub fn num_ways(&self) -> usize {
        self.lines.len()
    }

    /// Bitmask of ways that exist in this set.
    #[inline]
    fn way_mask(&self) -> u64 {
        way_mask(self.lines.len())
    }

    #[inline]
    fn find_way(&self, line: LineAddr) -> Option<usize> {
        find_way(self.lines, *self.valid, line)
    }

    /// Returns true if `line` is present.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_way(line).is_some()
    }

    /// Looks up `line`; on a hit updates replacement state and returns a
    /// reference to the payload (consuming the view so the borrow can escape).
    #[inline]
    pub fn lookup(self, line: LineAddr) -> Option<&'a mut T> {
        let way = self.find_way(line)?;
        Some(self.touch_way(way))
    }

    /// A hit at `way`, which the caller knows holds the line it would look
    /// up: [`SetViewMut::lookup`] without the tag scan.
    #[inline]
    pub(crate) fn touch_way(self, way: usize) -> &'a mut T {
        debug_assert!(*self.valid & (1 << way) != 0, "touch of an invalid way");
        self.policy.touch(self.meta, self.lines.len(), way, false);
        &mut self.payload[way]
    }

    /// Looks up `line` mutably without updating replacement state.
    pub fn peek_mut(self, line: LineAddr) -> Option<&'a mut T> {
        let way = self.find_way(line)?;
        Some(&mut self.payload[way])
    }

    /// Inserts `line` with `payload`, evicting a victim if the set is full.
    ///
    /// Returns the evicted entry, if any. If `line` was already present its
    /// payload is replaced and no eviction occurs.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, payload: T) -> Option<Entry<T>> {
        if let Some(way) = self.find_way(line) {
            self.policy.touch(self.meta, self.lines.len(), way, false);
            self.payload[way] = payload;
            return None;
        }
        self.insert_absent(line, payload).1
    }

    /// Installs `line`, which the caller knows is not in this set (it has
    /// just missed here and nothing since installed it), without scanning
    /// the tags for it: the lowest free way, else the policy's victim.
    ///
    /// Returns the way the line went to and the evicted entry, if any; the
    /// same result, metadata and RNG draws as [`SetViewMut::insert`] of an
    /// absent line.
    #[inline]
    pub(crate) fn insert_absent(
        &mut self,
        line: LineAddr,
        payload: T,
    ) -> (usize, Option<Entry<T>>) {
        debug_assert!(self.find_way(line).is_none(), "known-absent insert of a resident line");
        // Prefer an invalid way (lowest index first, matching the boxed
        // implementation's scan order).
        let free = !*self.valid & self.way_mask();
        if free != 0 {
            let way = free.trailing_zeros() as usize;
            self.install(way, line, payload);
            return (way, None);
        }
        let way = self.policy.victim(self.meta, self.lines.len(), self.rng.as_deref_mut());
        let evicted = Entry { line: self.lines[way], payload: self.payload[way] };
        self.install(way, line, payload);
        (way, Some(evicted))
    }

    #[inline]
    fn install(&mut self, way: usize, line: LineAddr, payload: T) {
        self.lines[way] = line;
        self.payload[way] = payload;
        *self.valid |= 1 << way;
        self.policy.touch(self.meta, self.lines.len(), way, true);
    }

    /// Marks `line`'s way as the next replacement victim of this set, if the
    /// line is present (models Prime+Scope's eviction-candidate priming).
    pub fn demote(&mut self, line: LineAddr) -> bool {
        match self.find_way(line) {
            Some(way) => {
                self.policy.demote(self.meta, self.lines.len(), way);
                true
            }
            None => false,
        }
    }

    /// Applies `count` background fills in one pass: each fill installs a
    /// line minted by `mint` (with `T::default()` payload), evicting a
    /// victim when no way is free and reporting every displaced entry
    /// through `on_evict`, in eviction order.
    ///
    /// `mint(k)` advances the caller's injective line sequence by `k` lines
    /// and returns the last of them; every fill consumes one line, so the
    /// calls' `k` sum to `count`.
    ///
    /// This is the aggregate noise mode's per-set state transition. Three
    /// regimes:
    ///
    /// * `count >= ways` — the burst saturates the set: every resident is
    ///   displaced and the set ends holding the newest `ways` fills with
    ///   canonical freshly-filled metadata (`init_meta` + fill touches in
    ///   way order). The `count - ways` overwritten fills are never
    ///   materialised: the first survivor's `mint` skips their lines in one
    ///   step, so the sequence ends where `count` single mints leave it.
    ///   O(ways) regardless of `count`.
    /// * free ways — filled lowest-index-first, matching
    ///   [`SetViewMut::insert`]'s preference.
    /// * full set — the remaining fills run through
    ///   [`ReplacementKind::bulk_fill`] (closed form for LRU, the exact
    ///   victim/touch loop otherwise).
    pub fn advance_fills(
        &mut self,
        count: u64,
        mut mint: impl FnMut(u64) -> LineAddr,
        mut on_evict: impl FnMut(Entry<T>),
    ) where
        T: Default,
    {
        if count == 0 {
            return;
        }
        let ways = self.lines.len();
        if count >= ways as u64 {
            let valid = *self.valid;
            for w in 0..ways {
                if valid & (1 << w) != 0 {
                    on_evict(Entry { line: self.lines[w], payload: self.payload[w] });
                }
            }
            *self.valid = 0;
            self.policy.init_meta(self.meta, ways);
            let mut skip = count - ways as u64;
            for w in 0..ways {
                let line = mint(skip + 1);
                skip = 0;
                self.install(w, line, T::default());
            }
            return;
        }
        let mut remaining = count;
        while *self.valid != self.way_mask() {
            // A way is free, so the fill displaces nothing.
            let _ = self.insert_absent(mint(1), T::default());
            remaining -= 1;
            if remaining == 0 {
                return;
            }
        }
        let lines = &mut *self.lines;
        let payload = &mut *self.payload;
        self.policy.bulk_fill(self.meta, ways, remaining, self.rng.as_deref_mut(), |way| {
            on_evict(Entry { line: lines[way], payload: payload[way] });
            lines[way] = mint(1);
            payload[way] = T::default();
        });
    }

    /// Removes `line` from the set, returning its payload if it was present.
    ///
    /// The way's replacement metadata is reset (see
    /// [`ReplacementKind::reset_way`]) so the next occupant cannot inherit
    /// the departed line's recency/RRPV state — the boxed predecessor left
    /// it stale.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> Option<T> {
        let way = self.find_way(line)?;
        self.invalidate_way(way);
        Some(self.payload[way])
    }

    /// [`SetViewMut::invalidate`] of the line the caller knows is at `way`,
    /// without the tag scan.
    #[inline]
    pub(crate) fn invalidate_way(&mut self, way: usize) {
        debug_assert!(*self.valid & (1 << way) != 0, "invalidation of an invalid way");
        *self.valid &= !(1 << way);
        self.policy.reset_way(self.meta, self.lines.len(), way);
    }
}

/// Bitmask covering the `ways` low bits.
#[inline]
fn way_mask(ways: usize) -> u64 {
    if ways >= 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    fn arena<T: Copy + Default>(ways: usize, kind: ReplacementKind) -> SetArena<T> {
        SetArena::new(1, ways, kind, |s| s as u64)
    }

    #[test]
    fn insert_until_full_then_evict() {
        let mut a: SetArena<u32> = arena(4, ReplacementKind::Lru);
        let mut set = a.view_mut(0);
        for i in 0..4 {
            assert!(set.insert(line(i), i as u32).is_none());
        }
        assert_eq!(a.view(0).occupancy(), 4);
        let evicted = a.view_mut(0).insert(line(100), 100).expect("must evict");
        assert_eq!(evicted.line, line(0), "LRU victim is the oldest line");
        assert!(a.view(0).contains(line(100)));
        assert!(!a.view(0).contains(line(0)));
    }

    #[test]
    fn lookup_updates_recency() {
        let mut a: SetArena<()> = arena(2, ReplacementKind::Lru);
        a.view_mut(0).insert(line(1), ());
        a.view_mut(0).insert(line(2), ());
        // Touch line 1 so line 2 becomes LRU.
        assert!(a.view_mut(0).lookup(line(1)).is_some());
        let evicted = a.view_mut(0).insert(line(3), ()).expect("evicts");
        assert_eq!(evicted.line, line(2));
    }

    #[test]
    fn reinserting_existing_line_does_not_evict() {
        let mut a: SetArena<u8> = arena(2, ReplacementKind::Lru);
        a.view_mut(0).insert(line(1), 1);
        a.view_mut(0).insert(line(2), 2);
        assert!(a.view_mut(0).insert(line(1), 9).is_none());
        assert_eq!(a.view(0).payload(0).copied(), Some(9), "payload replaced in place");
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut a: SetArena<()> = arena(2, ReplacementKind::Lru);
        a.view_mut(0).insert(line(7), ());
        assert!(a.view_mut(0).invalidate(line(7)).is_some());
        assert!(!a.view(0).contains(line(7)));
        assert!(a.view_mut(0).invalidate(line(7)).is_none());
    }

    #[test]
    fn peek_does_not_change_victim() {
        let mut a: SetArena<()> = arena(2, ReplacementKind::Lru);
        a.view_mut(0).insert(line(1), ());
        a.view_mut(0).insert(line(2), ());
        // A shared view (no recency update) -> 1 is still LRU.
        assert!(a.view(0).contains(line(1)));
        let evicted = a.view_mut(0).insert(line(3), ()).expect("evicts");
        assert_eq!(evicted.line, line(1));
    }

    #[test]
    fn clear_empties_arena_and_resets_metadata() {
        let mut a: SetArena<()> = arena(4, ReplacementKind::TreePlru);
        for i in 0..4 {
            a.view_mut(0).insert(line(i), ());
        }
        a.clear();
        assert_eq!(a.view(0).occupancy(), 0);
        assert_eq!(a.view(0).meta(), [0], "clear must re-initialise Tree-PLRU bits");
    }

    #[test]
    fn w_plus_one_congruent_lines_thrash() {
        // The fundamental eviction-set property: cycling through W+1 lines in
        // a W-way LRU set misses every time after warm-up.
        let ways = 8;
        let mut a: SetArena<()> = arena(ways, ReplacementKind::Lru);
        let lines: Vec<_> = (0..=ways as u64).map(line).collect();
        for l in &lines {
            a.view_mut(0).insert(*l, ());
        }
        for round in 0..3 {
            for l in &lines {
                let view = a.view(0);
                assert!(!view.contains(*l) || view.occupancy() == ways, "round {round}");
                a.view_mut(0).insert(*l, ());
            }
        }
    }

    #[test]
    fn view_iter_reports_way_order() {
        let mut a: SetArena<u8> = arena(4, ReplacementKind::Lru);
        a.view_mut(0).insert(line(10), 1);
        a.view_mut(0).insert(line(20), 2);
        a.view_mut(0).invalidate(line(10));
        let entries: Vec<_> = a.view(0).iter().map(|(w, l, &p)| (w, l, p)).collect();
        assert_eq!(entries, vec![(1, line(20), 2)]);
    }

    #[test]
    fn restore_from_is_exact_and_alloc_free() {
        let mut a: SetArena<u8> = arena(4, ReplacementKind::Lru);
        for i in 0..4 {
            a.view_mut(0).insert(line(i), i as u8);
        }
        let snapshot = a.clone();
        a.view_mut(0).insert(line(99), 99);
        a.view_mut(0).demote(line(2));
        a.restore_from(&snapshot);
        assert!(a.view(0).contains(line(0)) && !a.view(0).contains(line(99)));
        let evicted = a.view_mut(0).insert(line(100), 0).expect("full set evicts");
        assert_eq!(evicted.line, line(0), "restored recency must match the snapshot");
    }

    /// `advance_fills` below the saturation threshold must be
    /// indistinguishable from the same number of `insert` calls (the
    /// aggregate noise transition is exactly "k conflict insertions").
    #[test]
    fn advance_fills_matches_repeated_inserts_below_saturation() {
        for kind in [ReplacementKind::Lru, ReplacementKind::TreePlru, ReplacementKind::Srrip] {
            let mut a: SetArena<u8> = arena(8, kind);
            let mut b: SetArena<u8> = arena(8, kind);
            // Partially warm both sets identically (6 of 8 ways valid).
            for h in [&mut a, &mut b] {
                for i in 0..6 {
                    h.view_mut(0).insert(line(i), i as u8);
                }
            }
            let mut next = 100u64;
            let mut evicted_a = Vec::new();
            for _ in 0..5 {
                next += 1;
                if let Some(e) = a.view_mut(0).insert(line(next), 0) {
                    evicted_a.push(e.line);
                }
            }
            let mut next_b = 100u64;
            let mut evicted_b = Vec::new();
            b.view_mut(0).advance_fills(
                5,
                |k| {
                    next_b += k;
                    line(next_b)
                },
                |e| evicted_b.push(e.line),
            );
            assert_eq!(evicted_a, evicted_b, "{kind:?}: eviction stream diverged");
            let (va, vb) = (a.view(0), b.view(0));
            assert_eq!(va.occupancy(), vb.occupancy());
            for w in 0..8 {
                assert_eq!(va.line(w), vb.line(w), "{kind:?} way {w}");
            }
            assert_eq!(va.meta(), vb.meta(), "{kind:?} meta");
        }
    }

    /// A saturating burst (`count >= ways`) displaces every resident, leaves
    /// exactly the newest `ways` minted lines behind, and keeps minting
    /// injective (all `count` mints are consumed).
    #[test]
    fn advance_fills_saturating_burst_resets_to_newest_fills() {
        let mut a: SetArena<()> = arena(4, ReplacementKind::Lru);
        for i in 0..4 {
            a.view_mut(0).insert(line(i), ());
        }
        let mut next = 0u64;
        let mut evicted = Vec::new();
        a.view_mut(0).advance_fills(
            11,
            |k| {
                next += k;
                line(1000 + next)
            },
            |e| evicted.push(e.line),
        );
        assert_eq!(next, 11, "every fill must be minted");
        evicted.sort_unstable();
        assert_eq!(evicted, (0..4).map(line).collect::<Vec<_>>());
        let v = a.view(0);
        assert_eq!(v.occupancy(), 4);
        // The survivors are the last 4 minted lines, in way order.
        for w in 0..4 {
            assert_eq!(v.line(w), Some(line(1000 + 8 + w as u64)));
        }
        // Metadata is the canonical full-fill state: way 3 was filled last,
        // so the LRU victim is way 0.
        let e = a.view_mut(0).insert(line(5000), ()).expect("full set evicts");
        assert_eq!(e.line, line(1000 + 8));
    }

    /// `insert_absent` is `insert` without the tag scan. Twin arenas driven
    /// by one random stream — absent lines filled through `insert` on one
    /// side and `insert_absent` on the other, interleaved with hits,
    /// demotions and invalidations applied to both — must evict the same
    /// entries and keep the same ways, metadata words and (for `Random`)
    /// RNG states after every step, at every modelled associativity, the
    /// single-lane packed LRU and the > 16-way fallback included.
    #[test]
    fn insert_absent_matches_insert_of_an_absent_line() {
        use rand::Rng;
        let kinds = [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Qlru,
            ReplacementKind::Srrip,
            ReplacementKind::Random,
        ];
        for kind in kinds {
            for ways in [1usize, 2, 8, 11, 12, 16, 20] {
                let mut a: SetArena<u32> = SetArena::new(1, ways, kind, |_| 0x5eed);
                let mut b = a.clone();
                let mut stream = SmallRng::seed_from_u64(ways as u64);
                // Three lines per way: lines leave and come back, so about
                // two picks in three are absent.
                let pool = 3 * ways as u64;
                for step in 0..2_000u32 {
                    let l = line(stream.gen_range(0..pool));
                    let resident = a.view(0).contains(l);
                    match stream.gen_range(0..8) {
                        0..=4 if !resident => {
                            let want = a.view_mut(0).insert(l, step);
                            let (way, got) = b.view_mut(0).insert_absent(l, step);
                            assert_eq!(got, want, "{kind:?} {ways}-way step {step}: eviction");
                            assert_eq!(
                                Some(way),
                                a.view(0).way_of(l),
                                "{kind:?} {ways}-way step {step}: way"
                            );
                        }
                        5 => {
                            assert_eq!(a.view_mut(0).demote(l), b.view_mut(0).demote(l));
                        }
                        6 => {
                            assert_eq!(a.view_mut(0).invalidate(l), b.view_mut(0).invalidate(l));
                        }
                        _ => {
                            let hit = a.view_mut(0).lookup(l).copied();
                            assert_eq!(b.view_mut(0).lookup(l).copied(), hit);
                        }
                    }
                    let (va, vb) = (a.view(0), b.view(0));
                    for w in 0..ways {
                        assert_eq!(va.line(w), vb.line(w), "{kind:?} {ways}-way step {step}");
                        assert_eq!(va.payload(w), vb.payload(w), "{kind:?} {ways}-way step {step}");
                    }
                    assert_eq!(va.meta(), vb.meta(), "{kind:?} {ways}-way step {step}");
                    assert_eq!(a.rngs, b.rngs, "{kind:?} {ways}-way step {step}: RNG draws");
                }
            }
        }
    }

    /// Zero fills are a strict no-op.
    #[test]
    fn advance_fills_zero_is_noop() {
        let mut a: SetArena<u8> = arena(4, ReplacementKind::Qlru);
        a.view_mut(0).insert(line(1), 7);
        let before: Vec<_> = (0..4).map(|w| a.view(0).line(w)).collect();
        let meta_before = a.view(0).meta().to_vec();
        a.view_mut(0).advance_fills(0, |_| unreachable!("no mints"), |_| panic!("no evictions"));
        let after: Vec<_> = (0..4).map(|w| a.view(0).line(w)).collect();
        assert_eq!(before, after);
        assert_eq!(meta_before, a.view(0).meta());
    }

    /// The invalidate metadata-reset regression pin (LRU): refilling an
    /// invalidated way renormalises recency, so the victim sequence is
    /// exactly what a fresh fill would produce.
    #[test]
    fn lru_victim_after_invalidate_and_refill_is_pinned() {
        let mut a: SetArena<()> = arena(4, ReplacementKind::Lru);
        for i in 0..4 {
            a.view_mut(0).insert(line(i), ());
        }
        // Recency (MRU..LRU): 3 2 1 0. Invalidate line 2 (way 2).
        a.view_mut(0).invalidate(line(2));
        // Refill: the new line takes way 2 and becomes MRU.
        assert!(a.view_mut(0).insert(line(9), ()).is_none());
        // Recency now: 9 3 1 0 -> victim is line 0.
        let evicted = a.view_mut(0).insert(line(10), ()).expect("evicts");
        assert_eq!(evicted.line, line(0));
        // And the way that held line 0 was reset + refilled, so the next
        // victim is line 1, not a way with stale pre-invalidate state.
        let evicted = a.view_mut(0).insert(line(11), ()).expect("evicts");
        assert_eq!(evicted.line, line(1));
    }

    /// The invalidate metadata-reset regression pin (Tree-PLRU): after
    /// invalidating line 1, the tree immediately steers the victim search at
    /// the freed way, and the post-refill victim sequence is pinned so a
    /// future storage rewrite cannot silently change either.
    #[test]
    fn tree_plru_victim_after_invalidate_is_pinned() {
        let mut a: SetArena<()> = arena(4, ReplacementKind::TreePlru);
        for i in 0..4 {
            a.view_mut(0).insert(line(i), ());
        }
        // Fills 0..3 leave the tree pointing the victim search at way 0.
        a.view_mut(0).invalidate(line(1));
        // The freed way is the steered victim path (bits 0b101: root left,
        // node 1 right — i.e. way 1), not wherever line 1's history left it.
        assert_eq!(a.view(0).meta(), [0b101]);
        // Refill takes way 1 and re-points the tree away from it; under
        // pressure the victim search then walks right to way 2.
        assert!(a.view_mut(0).insert(line(9), ()).is_none());
        let evicted = a.view_mut(0).insert(line(10), ()).expect("evicts");
        assert_eq!(evicted.line, line(2));
    }
}
