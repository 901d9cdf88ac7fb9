//! Property-based tests for the cache model invariants.

use llc_cache_model::{
    AccessKind, AddressSpace, CacheGeometry, CacheSpec, Hierarchy, LineAddr, ReplacementKind,
    SliceHash, VirtAddr, PAGE_SIZE,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Translation never changes the page offset and is stable.
    #[test]
    fn translation_preserves_page_offset(seed in any::<u64>(), pages in 1usize..32, offsets in prop::collection::vec(0u64..PAGE_SIZE, 1..16)) {
        let mut aspace = AddressSpace::with_seed(seed);
        let base = aspace.allocate_pages(pages);
        for off in offsets {
            let va = VirtAddr::new(base.raw() + off);
            let pa = aspace.translate(va).unwrap();
            prop_assert_eq!(pa.page_offset(), off);
            prop_assert_eq!(aspace.translate(va).unwrap(), pa);
        }
    }

    /// Both slice hashes are pure functions and always land in range.
    #[test]
    fn slice_hash_pure_and_in_range(lines in prop::collection::vec(any::<u64>(), 1..128), slices in 1usize..33) {
        for h in [SliceHash::XorFold, SliceHash::Modulo] {
            for &n in &lines {
                let line = LineAddr::from_line_number(n);
                let s = h.slice_of(line, slices);
                prop_assert!(s < slices);
                prop_assert_eq!(s, h.slice_of(line, slices));
            }
        }
    }

    /// Set indexing only depends on the low index bits, so adding a multiple
    /// of `sets` lines moves an address to the same set.
    #[test]
    fn set_index_periodic(sets_log2 in 4u32..12, ways in 1usize..20, line in any::<u32>(), k in 0u64..16) {
        let sets = 1usize << sets_log2;
        let g = CacheGeometry::new(sets, ways);
        let a = LineAddr::from_line_number(line as u64);
        let b = LineAddr::from_line_number(line as u64 + k * sets as u64);
        prop_assert_eq!(g.set_index(a), g.set_index(b));
    }

    /// After any access sequence, a line that was just accessed by a core is
    /// cached somewhere the next access can find without going to memory.
    #[test]
    fn recently_accessed_line_does_not_miss(ops in prop::collection::vec((0usize..3, 0u64..512), 1..200)) {
        let mut h = Hierarchy::new(CacheSpec::tiny_test(), 7);
        for (core, n) in ops {
            let line = LineAddr::from_line_number(n);
            h.access(core, line, AccessKind::Read);
            let again = h.access(core, line, AccessKind::Read);
            prop_assert!(again.level <= llc_cache_model::HitLevel::L2,
                "immediate re-access of {line:?} from core {core} reached {:?}", again.level);
        }
    }

    /// A line is never simultaneously tracked by the SF and resident in the
    /// LLC (the paper's description of the non-inclusive protocol).
    #[test]
    fn sf_and_llc_are_mutually_exclusive(ops in prop::collection::vec((0usize..3, 0u64..256), 1..200)) {
        let mut h = Hierarchy::new(CacheSpec::tiny_test(), 9);
        let mut touched = std::collections::HashSet::new();
        for (core, n) in ops {
            let line = LineAddr::from_line_number(n);
            touched.insert(line);
            h.access(core, line, AccessKind::Read);
            for &l in &touched {
                prop_assert!(!(h.in_sf(l) && h.in_llc(l)),
                    "{l:?} is tracked by both the SF and the LLC");
            }
        }
    }

    /// Replacement policies always return an in-range victim.
    #[test]
    fn replacement_victims_in_range(ways in 1usize..24, touches in prop::collection::vec(any::<u16>(), 1..64)) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        for kind in [ReplacementKind::Lru, ReplacementKind::TreePlru, ReplacementKind::Qlru, ReplacementKind::Srrip, ReplacementKind::Random] {
            let mut meta = vec![0u64; ways];
            kind.init_meta(&mut meta, ways);
            for (i, t) in touches.iter().enumerate() {
                kind.touch(&mut meta, ways, *t as usize % ways, i % 3 == 0);
                let rng = kind.uses_rng().then_some(&mut rng);
                prop_assert!(kind.victim(&mut meta, ways, rng) < ways);
            }
        }
    }
}
