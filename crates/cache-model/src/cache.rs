//! Whole cache structures: a private cache and a sliced shared structure.
//!
//! Both are thin indexing layers over one flat [`SetArena`]: a [`Cache`]
//! maps the physical-address set-index bits to an arena row, a
//! [`SlicedCache`] first routes through a [`SliceHash`] and flattens
//! `(slice, set)` to `slice * sets_per_slice + set`. All tag/payload/
//! replacement state lives in the arena's contiguous arrays, so cloning or
//! restoring a whole structure is a handful of flat-buffer copies.

use crate::addr::LineAddr;
use crate::geometry::{CacheGeometry, SlicedGeometry};
use crate::replacement::ReplacementKind;
use crate::set::{Entry, SetArena, SetView, SetViewMut};
use crate::slice::SliceHash;

/// A non-sliced cache (L1 or L2): a [`SetArena`] indexed by the
/// physical-address set-index bits.
#[derive(Debug, Clone)]
pub struct Cache<T> {
    geometry: CacheGeometry,
    /// Crate-visible for the hierarchy's row saves and loads by set index.
    pub(crate) arena: SetArena<T>,
}

impl<T: Copy + Default> Cache<T> {
    /// Creates an empty cache with the given geometry and replacement policy.
    pub fn new(geometry: CacheGeometry, repl: ReplacementKind, seed: u64) -> Self {
        // Per-set RNG seed derivation unchanged from the per-set era, so
        // random-replacement streams replay identically.
        let arena = SetArena::new(geometry.sets(), geometry.ways(), repl, |i| {
            seed.wrapping_add(i as u64)
        });
        Self { geometry, arena }
    }

    /// This cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Set index of a line in this cache.
    #[inline]
    pub fn set_index(&self, line: LineAddr) -> usize {
        self.geometry.set_index(line)
    }

    /// Returns true if `line` is present.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.arena.view(self.set_index(line)).contains(line)
    }

    /// Looks up `line`, updating replacement state on a hit.
    #[inline]
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut T> {
        let idx = self.set_index(line);
        self.arena.view_mut(idx).lookup(line)
    }

    /// Looks up `line` without updating replacement state.
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        self.arena.view(self.set_index(line)).peek(line)
    }

    /// Inserts `line`, returning any evicted entry.
    pub fn insert(&mut self, line: LineAddr, payload: T) -> Option<Entry<T>> {
        let idx = self.set_index(line);
        self.arena.view_mut(idx).insert(line, payload)
    }

    /// Inserts `line`, which the caller knows is absent, without scanning
    /// for it (see `SetViewMut::insert_absent`); returns the way it took and
    /// any evicted entry.
    #[inline]
    pub(crate) fn insert_absent(
        &mut self,
        line: LineAddr,
        payload: T,
    ) -> (usize, Option<Entry<T>>) {
        let idx = self.set_index(line);
        self.arena.view_mut(idx).insert_absent(line, payload)
    }

    /// A hit on `line`, which the caller knows is at `way` of its set:
    /// [`Cache::lookup`] without the tag scan (see `SetViewMut::touch_way`).
    #[inline]
    pub(crate) fn touch_way(&mut self, line: LineAddr, way: usize) -> &mut T {
        let idx = self.set_index(line);
        debug_assert_eq!(self.arena.view(idx).way_of(line), Some(way), "line is not at the way");
        self.arena.view_mut(idx).touch_way(way)
    }

    /// Removes `line`, returning its payload if present.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> Option<T> {
        let idx = self.set_index(line);
        self.arena.view_mut(idx).invalidate(line)
    }

    /// Marks `line` as the next victim of its set, if present.
    pub fn demote(&mut self, line: LineAddr) -> bool {
        let idx = self.set_index(line);
        self.arena.view_mut(idx).demote(line)
    }

    /// Read-only view of a set by index (for tests and instrumentation).
    pub fn set_view(&self, index: usize) -> SetView<'_, T> {
        self.arena.view(index)
    }

    /// Mutable view of a set by index (the tightened hot-path handle).
    pub fn set_view_mut(&mut self, index: usize) -> SetViewMut<'_, T> {
        self.arena.view_mut(index)
    }

    /// Removes every line from the cache.
    pub fn clear(&mut self) {
        self.arena.clear();
    }

    /// Copies `source`'s contents into `self` in place, reusing every
    /// allocation. Both caches must share a geometry (true when restoring
    /// from a snapshot of the same specification).
    pub fn restore_from(&mut self, source: &Cache<T>) {
        debug_assert_eq!(self.geometry, source.geometry, "snapshot geometry mismatch");
        self.arena.restore_from(&source.arena);
    }
}

/// A sliced shared structure (LLC or snoop filter): `num_slices` independent
/// set ranges of one flat [`SetArena`], selected by a [`SliceHash`] over the
/// physical line address.
#[derive(Debug, Clone)]
pub struct SlicedCache<T> {
    geometry: SlicedGeometry,
    hash: SliceHash,
    /// Crate-visible for the hierarchy's row saves and loads by flat set
    /// index (`SlicedCache::flat`).
    pub(crate) arena: SetArena<T>,
}

impl<T: Copy + Default> SlicedCache<T> {
    /// Creates an empty sliced cache.
    pub fn new(
        geometry: SlicedGeometry,
        hash: SliceHash,
        repl: ReplacementKind,
        seed: u64,
    ) -> Self {
        let sets_per_slice = geometry.slice_geometry().sets();
        // Per-set RNG seed derivation unchanged from the per-set era
        // (slice * 100_003 + set), so random-replacement streams replay
        // identically.
        let arena =
            SetArena::new(geometry.num_slices() * sets_per_slice, geometry.ways(), repl, |flat| {
                let (s, i) = (flat / sets_per_slice, flat % sets_per_slice);
                seed.wrapping_add((s * 100_003 + i) as u64)
            });
        Self { geometry, hash, arena }
    }

    /// This structure's sliced geometry.
    pub fn geometry(&self) -> SlicedGeometry {
        self.geometry
    }

    /// The (slice, set) location of a physical line.
    pub fn location(&self, line: LineAddr) -> SetLocation {
        SetLocation {
            slice: self.hash.slice_of(line, self.geometry.num_slices()),
            set: self.geometry.set_index(line),
        }
    }

    /// Flattens a location into the arena's set index.
    #[inline]
    pub(crate) fn flat(&self, loc: SetLocation) -> usize {
        loc.flat_index(self.geometry.slice_geometry().sets())
    }

    /// Returns true if `line` is present.
    pub fn contains(&self, line: LineAddr) -> bool {
        let idx = self.flat(self.location(line));
        self.arena.view(idx).contains(line)
    }

    /// Looks up `line`, updating replacement state on a hit.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut T> {
        let loc = self.location(line);
        self.lookup_at(loc, line)
    }

    /// [`SlicedCache::lookup`] with a pre-computed location, so a caller that
    /// touches several structures sharing one slice hash (the hierarchy's
    /// LLC + SF access path) pays the hash once.
    #[inline]
    pub fn lookup_at(&mut self, loc: SetLocation, line: LineAddr) -> Option<&mut T> {
        let idx = self.flat(loc);
        self.arena.view_mut(idx).lookup(line)
    }

    /// [`SlicedCache::peek`] with a pre-computed location.
    #[inline]
    pub fn peek_at(&self, loc: SetLocation, line: LineAddr) -> Option<&T> {
        self.arena.view(self.flat(loc)).peek(line)
    }

    /// [`SlicedCache::invalidate`] with a pre-computed location.
    #[inline]
    pub fn invalidate_at(&mut self, loc: SetLocation, line: LineAddr) -> Option<T> {
        let idx = self.flat(loc);
        self.arena.view_mut(idx).invalidate(line)
    }

    /// Looks up `line` without updating replacement state.
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        let loc = self.location(line);
        self.peek_at(loc, line)
    }

    /// Looks up `line` mutably without updating replacement state.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let idx = self.flat(self.location(line));
        self.arena.view_mut(idx).peek_mut(line)
    }

    /// Inserts `line`, returning any evicted entry.
    pub fn insert(&mut self, line: LineAddr, payload: T) -> Option<Entry<T>> {
        let idx = self.flat(self.location(line));
        self.arena.view_mut(idx).insert(line, payload)
    }

    /// Inserts directly into an explicit (slice, set) location.
    ///
    /// This is used by the machine's background-noise model, which generates
    /// synthetic lines targeted at a specific set without inverting the slice
    /// hash. `line` should be a synthetic line number that does not collide
    /// with real allocations.
    pub fn insert_at(&mut self, loc: SetLocation, line: LineAddr, payload: T) -> Option<Entry<T>> {
        let idx = self.flat(loc);
        self.arena.view_mut(idx).insert(line, payload)
    }

    /// [`SlicedCache::insert_at`] for a line the caller knows is absent from
    /// that set, without scanning for it (see `SetViewMut::insert_absent`);
    /// returns the way it took and any evicted entry.
    #[inline]
    pub(crate) fn insert_absent_at(
        &mut self,
        loc: SetLocation,
        line: LineAddr,
        payload: T,
    ) -> (usize, Option<Entry<T>>) {
        let idx = self.flat(loc);
        self.arena.view_mut(idx).insert_absent(line, payload)
    }

    /// Invalidates the line the caller knows is at `way` of the set at
    /// `loc` (see `SetViewMut::invalidate_way`).
    #[inline]
    pub(crate) fn invalidate_way_at(&mut self, loc: SetLocation, way: usize) {
        let idx = self.flat(loc);
        self.arena.view_mut(idx).invalidate_way(way);
    }

    /// Removes `line`, returning its payload if present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<T> {
        let loc = self.location(line);
        self.invalidate_at(loc, line)
    }

    /// Marks `line` as the next victim of its set, if present.
    pub fn demote(&mut self, line: LineAddr) -> bool {
        let loc = self.location(line);
        self.demote_at(loc, line)
    }

    /// [`SlicedCache::demote`] with a pre-computed location.
    pub fn demote_at(&mut self, loc: SetLocation, line: LineAddr) -> bool {
        let idx = self.flat(loc);
        self.arena.view_mut(idx).demote(line)
    }

    /// Read-only view of a set (for tests and instrumentation).
    pub fn set_view(&self, loc: SetLocation) -> SetView<'_, T> {
        self.arena.view(self.flat(loc))
    }

    /// Mutable view of a set (the tightened hot-path handle).
    pub fn set_view_mut(&mut self, loc: SetLocation) -> SetViewMut<'_, T> {
        let idx = self.flat(loc);
        self.arena.view_mut(idx)
    }

    /// Occupancy of a specific set.
    pub fn occupancy(&self, loc: SetLocation) -> usize {
        self.arena.view(self.flat(loc)).occupancy()
    }

    /// Removes every line from the structure.
    pub fn clear(&mut self) {
        self.arena.clear();
    }

    /// Copies `source`'s contents into `self` in place, reusing every
    /// allocation (see [`Cache::restore_from`]).
    pub fn restore_from(&mut self, source: &SlicedCache<T>) {
        debug_assert_eq!(self.geometry, source.geometry, "snapshot geometry mismatch");
        self.arena.restore_from(&source.arena);
    }
}

/// Identifies one set of a sliced structure: (slice index, set index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetLocation {
    /// Slice index, `0..num_slices`.
    pub slice: usize,
    /// Set index within the slice.
    pub set: usize,
}

impl SetLocation {
    /// Creates a location from slice and set indices.
    pub const fn new(slice: usize, set: usize) -> Self {
        Self { slice, set }
    }

    /// Flattens the location into a single index in `0..total_sets`.
    pub fn flat_index(&self, sets_per_slice: usize) -> usize {
        self.slice * sets_per_slice + self.set
    }
}

impl std::fmt::Display for SetLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slice {} set {}", self.slice, self.set)
    }
}

/// The shared-structure set geometry visible to co-resident tenants: how
/// many LLC/SF slices the host has and how many sets each slice holds.
///
/// Background tenants (the `llc-machine` actor layer) draw their working-set
/// footprints over this space and post accesses per [`SetLocation`]; exposing
/// the geometry here keeps them off the spec internals and guarantees the
/// flat-index convention matches the one the sliced arenas use
/// ([`SetLocation::flat_index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedGeometry {
    /// Number of LLC/SF slices.
    pub slices: usize,
    /// Sets per slice (identical for LLC and SF by construction).
    pub sets_per_slice: usize,
}

impl SharedGeometry {
    /// Total number of shared sets across all slices.
    pub fn total_sets(&self) -> usize {
        self.slices * self.sets_per_slice
    }

    /// Maps a flat index in `0..total_sets()` back to a `(slice, set)`
    /// location, inverse of [`SetLocation::flat_index`].
    pub fn location(&self, flat: usize) -> SetLocation {
        debug_assert!(flat < self.total_sets(), "flat set index outside the shared geometry");
        SetLocation::new(flat / self.sets_per_slice, flat % self.sets_per_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn cache_indexing_and_eviction() {
        let mut c: Cache<()> = Cache::new(CacheGeometry::new(4, 2), ReplacementKind::Lru, 0);
        // Lines 0, 4, 8 all map to set 0 of a 4-set cache.
        c.insert(line(0), ());
        c.insert(line(4), ());
        assert!(c.contains(line(0)));
        let evicted = c.insert(line(8), ()).expect("2-way set overflows");
        assert_eq!(evicted.line, line(0));
    }

    #[test]
    fn sliced_cache_routes_by_hash() {
        let geom = SlicedGeometry::new(CacheGeometry::new(8, 2), 4);
        let mut c: SlicedCache<u8> =
            SlicedCache::new(geom, SliceHash::Modulo, ReplacementKind::Lru, 0);
        // line 5 -> slice 1 (5 % 4), set 5.
        c.insert(line(5), 42);
        assert_eq!(c.location(line(5)), SetLocation::new(1, 5));
        assert!(c.contains(line(5)));
        assert_eq!(c.peek(line(5)), Some(&42));
        assert!(!c.contains(line(9))); // slice 1, set 1 - absent
    }

    #[test]
    fn insert_at_targets_explicit_location() {
        let geom = SlicedGeometry::new(CacheGeometry::new(8, 2), 4);
        let mut c: SlicedCache<()> =
            SlicedCache::new(geom, SliceHash::XorFold, ReplacementKind::Lru, 7);
        let loc = SetLocation::new(3, 5);
        c.insert_at(loc, line(1 << 40), ());
        assert_eq!(c.occupancy(loc), 1);
    }

    #[test]
    fn flat_index_round_trip() {
        let loc = SetLocation::new(3, 17);
        assert_eq!(loc.flat_index(2048), 3 * 2048 + 17);
    }

    #[test]
    fn set_views_expose_arena_state() {
        let mut c: Cache<u8> = Cache::new(CacheGeometry::new(2, 2), ReplacementKind::Lru, 0);
        c.insert(line(0), 7);
        let view = c.set_view(0);
        assert_eq!(view.occupancy(), 1);
        assert_eq!(view.line(0), Some(line(0)));
        assert_eq!(view.payload(0), Some(&7));
        assert!(c.set_view_mut(0).contains(line(0)));
    }

    #[test]
    fn random_replacement_streams_are_per_set_and_reproducible() {
        let geom = CacheGeometry::new(2, 2);
        let mut a: Cache<()> = Cache::new(geom, ReplacementKind::Random, 9);
        let mut b: Cache<()> = Cache::new(geom, ReplacementKind::Random, 9);
        // Overflow set 0 of both caches with the same lines: the eviction
        // sequence must replay identically.
        let evictions = |c: &mut Cache<()>| {
            (0..16).filter_map(|i| c.insert(line(i * 2), ()).map(|e| e.line)).collect::<Vec<_>>()
        };
        assert_eq!(evictions(&mut a), evictions(&mut b));
    }
}
