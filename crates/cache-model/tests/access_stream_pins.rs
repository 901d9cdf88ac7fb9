//! Pins the observable access stream of every hierarchy composition.
//!
//! The golden smoke reports and the perfbench digests only run the default
//! non-inclusive, all-LRU host, so a change to the access path that shifts
//! a victim, a fill or a back-invalidation under another composition would
//! go unnoticed there. Each case below replays one fixed stream of ~20k
//! reads, writes, flushes and background-noise events from every core and
//! FNV-folds every access's `(HitLevel, displaced_sf_entry)`; the constants
//! were recorded before the miss path's fills stopped re-scanning the sets
//! they had just missed in, and every later change must reproduce them.

use llc_cache_model::{
    AccessKind, CacheSpec, Hierarchy, HitLevel, InclusionPolicy, LineAddr, ReplacementKind,
};

/// Operations per stream.
const OPS: usize = 20_000;

const POLICIES: [InclusionPolicy; 3] =
    [InclusionPolicy::NonInclusive, InclusionPolicy::Inclusive, InclusionPolicy::Exclusive];

const KINDS: [ReplacementKind; 5] = [
    ReplacementKind::Lru,
    ReplacementKind::TreePlru,
    ReplacementKind::Qlru,
    ReplacementKind::Srrip,
    ReplacementKind::Random,
];

/// SplitMix64: a self-contained stream, so the pins do not depend on the
/// vendored `rand` shim's generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Replays the fixed stream on `spec` composed with `policy` and `kind` at
/// every level. Returns the digest and how many accesses each `HitLevel`
/// served plus how many displaced an SF entry.
fn stream_digest(
    spec: &CacheSpec,
    pool: &[LineAddr],
    policy: InclusionPolicy,
    kind: ReplacementKind,
) -> (u64, [usize; 6]) {
    let spec = spec.clone().with_inclusion(policy).with_replacement(kind);
    let cores = spec.cores as u64;
    let mut h = Hierarchy::new(spec, 7);
    let mut rng = SplitMix(0x5eed);
    let mut recent = [pool[0]; 8];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut seen = [0usize; 6];
    for i in 0..OPS {
        // Half the picks re-touch one of the last eight lines, so the
        // private levels hit as well as miss.
        let line = if rng.below(2) == 0 {
            recent[rng.below(8) as usize]
        } else {
            pool[rng.below(pool.len() as u64) as usize]
        };
        recent[i % 8] = line;
        let core = rng.below(cores) as usize;
        let kind = match rng.below(16) {
            0..=8 => AccessKind::Read,
            9..=11 => AccessKind::Write,
            12 => {
                h.clflush(line);
                continue;
            }
            13 => {
                h.noise_access(h.shared_location(line), true);
                continue;
            }
            14 => {
                h.noise_access(h.shared_location(line), false);
                continue;
            }
            _ => {
                let burst = rng.next();
                h.noise_access_bulk(h.shared_location(line), (0..3).map(|b| burst >> b & 1 == 1));
                continue;
            }
        };
        let out = h.access(core, line, kind);
        fnv(&mut hash, &[out.level as u8, out.displaced_sf_entry as u8]);
        seen[out.level as usize] += 1;
        seen[5] += out.displaced_sf_entry as usize;
    }
    (hash, seen)
}

/// Runs every composition on `spec` and checks each digest against `pins`
/// (policy-major, then replacement kind).
fn check(spec: CacheSpec, pool: Vec<LineAddr>, pins: &[u64; 15]) {
    let mut got = Vec::new();
    for policy in POLICIES {
        for kind in KINDS {
            let (digest, seen) = stream_digest(&spec, &pool, policy, kind);
            let label = format!("{} / {}", policy.label(), kind.label());
            for level in [HitLevel::L1, HitLevel::L2, HitLevel::Llc, HitLevel::Memory] {
                assert!(seen[level as usize] > 0, "{label}: no access served by {level:?}");
            }
            if policy != InclusionPolicy::Inclusive {
                assert!(seen[HitLevel::SfSnoop as usize] > 0, "{label}: no SF snoop");
                assert!(seen[5] > 0, "{label}: no SF entry displaced");
            }
            got.push((label, digest));
        }
    }
    let table: String = got.iter().map(|(l, d)| format!("    {d:#018x}, // {l}\n")).collect();
    for ((label, digest), pin) in got.iter().zip(pins) {
        assert_eq!(digest, pin, "{label} diverged; this run's digests:\n{table}");
    }
}

#[test]
fn tiny_test_access_streams_are_pinned() {
    // 512 consecutive lines: 16 shared sets' worth per slice, so all three
    // cores' private caches and every shared set are under pressure.
    let pool = (0..512).map(LineAddr::from_line_number).collect();
    check(CacheSpec::tiny_test(), pool, &TINY_TEST);
}

#[test]
fn skylake_access_streams_are_pinned() {
    // 1,536 lines at one page offset: one L1 set, 16 L2 sets and 64 LLC/SF
    // sets over two slices, about twice the SF capacity they map to.
    let pool = (0..1536).map(|n| LineAddr::from_line_number(n * 64 + 5)).collect();
    check(CacheSpec::skylake_sp(2, 4), pool, &SKYLAKE_SP_2_4);
}

/// `CacheSpec::tiny_test()` digests, in [`check`]'s order.
const TINY_TEST: [u64; 15] = [
    0x82d7c02069c8051e, // non-inclusive / lru
    0x6e5f5de592ed0c30, // non-inclusive / tree-plru
    0x142bf33b704cf09f, // non-inclusive / qlru
    0xae2bf4f542145e2f, // non-inclusive / srrip
    0xb44f4392e5f4c65a, // non-inclusive / random
    0x137bb8bc5938cc11, // inclusive / lru
    0x450e30f7d5f11ca3, // inclusive / tree-plru
    0x3f7acba4c9c8116e, // inclusive / qlru
    0x05ea4875f552eb16, // inclusive / srrip
    0x7faf0d617468accd, // inclusive / random
    0xac62700875bdc0e9, // exclusive / lru
    0x52d78d16d4926ae9, // exclusive / tree-plru
    0xb476e00e1dcec4f3, // exclusive / qlru
    0xbb9f0f8b488cd7fc, // exclusive / srrip
    0x83c0b27b637a96c4, // exclusive / random
];

/// `CacheSpec::skylake_sp(2, 4)` digests, in [`check`]'s order.
const SKYLAKE_SP_2_4: [u64; 15] = [
    0xb87aad8205e94d33, // non-inclusive / lru
    0x577abc00908b52b0, // non-inclusive / tree-plru
    0x18717d19a9106e4f, // non-inclusive / qlru
    0x7d85f0068bda5a3f, // non-inclusive / srrip
    0x472a6a989a5ad114, // non-inclusive / random
    0xae4b7731970790dc, // inclusive / lru
    0x985a525ca91b92a0, // inclusive / tree-plru
    0x863e35950f83a083, // inclusive / qlru
    0x79c435becde26702, // inclusive / srrip
    0xecc9a2995baf32ef, // inclusive / random
    0x33c5787da1dffdec, // exclusive / lru
    0xa90bd46b1ff7f24a, // exclusive / tree-plru
    0x6d365863443fa320, // exclusive / qlru
    0x740cbb3b10750dc6, // exclusive / srrip
    0xc5d83e1b0cfca813, // exclusive / random
];
