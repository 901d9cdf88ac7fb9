//! Background-tenant noise: the multi-tenant LLC/SF interference that makes
//! Cloud Run so much harder than a quiescent lab machine.
//!
//! Section 4.3 of the paper characterises the noise by the rate of background
//! accesses observed on a randomly chosen LLC set: **11.5 accesses/ms/set on
//! Cloud Run** versus **0.29 accesses/ms/set on the quiescent local machine**
//! (Figure 2 shows the inter-access-time CDF). The model reproduces this with
//! an independent Poisson process per (slice, set): whenever the simulation
//! needs the state of a set, the elapsed interval since the set was last
//! synchronised is converted into a Poisson-distributed number of background
//! insertions.
//!
//! Two fidelities of that conversion exist (see [`NoiseFidelity`]):
//!
//! * **Exact** (the default): every background insertion is materialised as
//!   an individual timestamped [`NoiseEvent`] and replayed through the
//!   hierarchy. This path is bit-for-bit pinned by the golden experiment
//!   outputs.
//! * **Aggregate**: the catch-up draws only the *counts* of LLC and SF
//!   insertions for the gap (Poisson thinning of the same rate) and the
//!   hierarchy applies them as one bulk evict-and-fill state transition per
//!   sync (`Hierarchy::noise_advance_bulk`). Statistically equivalent to the
//!   exact path — the equivalence harness in `tests/noise_equivalence.rs`
//!   pins eviction probabilities, probe-latency distributions and pruning
//!   success rates across the noise presets — but several times faster under
//!   Cloud Run noise because the per-event timestamps, their sort and the
//!   per-event replacement updates all disappear.

use llc_cache_model::SetLocation;
use rand::Rng;

/// Parameters of the background-tenant access process.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Average background accesses per cycle per (slice, set).
    ///
    /// 11.5 accesses/ms/set at 2 GHz is `11.5 / 2e6` accesses/cycle/set.
    pub accesses_per_cycle_per_set: f64,
    /// Fraction of background accesses that behave like *shared* lines
    /// (allocate in the LLC); the rest allocate snoop-filter entries.
    pub shared_fraction: f64,
    /// Human-readable label used in experiment reports.
    pub label: String,
}

impl NoiseModel {
    /// Cloud Run noise level: 11.5 accesses per millisecond per set at 2 GHz.
    pub fn cloud_run() -> Self {
        Self::from_accesses_per_ms(11.5, 2.0, "Cloud Run")
    }

    /// Quiescent local machine: 0.29 accesses per millisecond per set.
    pub fn quiescent_local() -> Self {
        Self::from_accesses_per_ms(0.29, 2.0, "Quiescent Local")
    }

    /// A completely silent machine (unit tests).
    pub fn silent() -> Self {
        Self {
            accesses_per_cycle_per_set: 0.0,
            shared_fraction: 0.5,
            label: "Silent".to_string(),
        }
    }

    /// Builds a noise model from an access rate expressed in accesses per
    /// millisecond per set, at the given core frequency.
    pub fn from_accesses_per_ms(per_ms: f64, freq_ghz: f64, label: &str) -> Self {
        let cycles_per_ms = freq_ghz * 1e6;
        Self {
            accesses_per_cycle_per_set: per_ms / cycles_per_ms,
            shared_fraction: 0.5,
            label: label.to_string(),
        }
    }

    /// The configured rate expressed in accesses per millisecond per set.
    pub fn accesses_per_ms(&self, freq_ghz: f64) -> f64 {
        self.accesses_per_cycle_per_set * freq_ghz * 1e6
    }

    /// Returns true if this model produces no noise at all.
    pub fn is_silent(&self) -> bool {
        self.accesses_per_cycle_per_set <= 0.0
    }
}

/// How faithfully the noise process converts elapsed time into hierarchy
/// state changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NoiseFidelity {
    /// Materialise every background insertion as an individual timestamped
    /// [`NoiseEvent`]. Bit-for-bit reproducible and pinned by the golden
    /// experiment outputs; this is the oracle the aggregate mode is
    /// validated against.
    #[default]
    Exact,
    /// Draw only the per-structure insertion *counts* for the gap and let the
    /// hierarchy apply them as one bulk evict-and-fill transition per sync.
    /// Statistically equivalent to [`NoiseFidelity::Exact`] (same Poisson
    /// rate, thinned per structure) but does O(min(count, ways)) work per
    /// sync instead of O(count) event materialisation.
    Aggregate,
}

impl NoiseFidelity {
    /// Parses a fidelity name as used by `--noise-fidelity` /
    /// `LLC_NOISE_FIDELITY` (`"exact"` or `"aggregate"`, case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "exact" => Some(Self::Exact),
            "aggregate" => Some(Self::Aggregate),
            _ => None,
        }
    }

    /// The canonical lowercase name (`"exact"` / `"aggregate"`).
    pub fn label(self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Aggregate => "aggregate",
        }
    }
}

/// Result of an aggregate-fidelity catch-up: how many background insertions
/// each shared structure absorbs for the elapsed gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoiseAdvance {
    /// Shared-line insertions into the LLC set.
    pub llc: u64,
    /// Private-line (other-tenant) insertions into the SF set.
    pub sf: u64,
}

impl NoiseAdvance {
    /// An advance that changes nothing.
    pub const NONE: Self = Self { llc: 0, sf: 0 };

    /// Total insertions across both structures.
    pub fn total(self) -> u64 {
        self.llc + self.sf
    }

    /// True if the advance performs no insertions.
    pub fn is_empty(self) -> bool {
        self.llc == 0 && self.sf == 0
    }
}

/// Lazily-evaluated per-set Poisson noise process.
///
/// Synchronisation timestamps live in a flat vector indexed by the flattened
/// `(slice, set)` location rather than a hash map: the map lookup ran once
/// per simulated memory access (the noise catch-up before every traversal
/// in `Machine`), where a SipHash round per access is measurable. The
/// vector is pre-sized to the full `(slice, set)` index space at
/// construction, so the hot path is a plain bounds-checked index with no
/// resize branch, and restores are a same-length `clone_from`.
///
/// Catch-up events are materialised into a reusable scratch buffer owned by
/// the process (borrowed out as a slice), so the per-traversal hot path of
/// the machine performs **zero heap allocations** in steady state.
#[derive(Debug)]
pub struct NoiseProcess {
    model: NoiseModel,
    /// Exact per-event replay or aggregate bulk transitions.
    fidelity: NoiseFidelity,
    /// Last cycle at which each set was synchronised with the noise process,
    /// indexed by `slice * sets_per_slice + set`; [`NEVER_SYNCED`] marks a
    /// set that has not been observed yet. Pre-sized to cover every set of
    /// the simulated host's shared structures.
    last_sync: Vec<u64>,
    /// Sets per slice of the flattened index space.
    sets_per_slice: usize,
    /// Reusable event buffer filled by [`NoiseProcess::catch_up`]. Its
    /// contents are dead between calls; it exists only so the hot path does
    /// not allocate. Capacity converges to `MAX_BURST` and stays there.
    scratch: Vec<NoiseEvent>,
}

/// Maximum number of noise insertions applied in one exact catch-up; older
/// insertions are fully masked by newer ones, so this only needs to cover a
/// few times the associativity.
const MAX_BURST: u64 = 96;

impl Clone for NoiseProcess {
    /// Clones the process state. The event scratch buffer is deliberately
    /// *not* cloned (its contents are dead outside a `catch_up` call), so
    /// snapshots stay as small as the bookkeeping they actually need.
    fn clone(&self) -> Self {
        Self {
            model: self.model.clone(),
            fidelity: self.fidelity,
            last_sync: self.last_sync.clone(),
            sets_per_slice: self.sets_per_slice,
            scratch: Vec::new(),
        }
    }
}

/// `last_sync` sentinel: the set has never been synchronised.
const NEVER_SYNCED: u64 = u64::MAX;

/// One background access to apply to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseEvent {
    /// Cycle at which the background access (notionally) happened.
    pub at: u64,
    /// Whether it allocates in the LLC (`true`) or the snoop filter.
    pub shared: bool,
}

impl NoiseProcess {
    /// Creates a noise process for `model` at `fidelity`, flattening
    /// `(slice, set)` locations over `sets_per_slice` sets per slice across
    /// `num_slices` slices (the LLC/SF slice geometry of the simulated host).
    /// The synchronisation vector is sized for the whole geometry up front so
    /// the per-access hot path never grows it.
    pub fn new(
        model: NoiseModel,
        fidelity: NoiseFidelity,
        sets_per_slice: usize,
        num_slices: usize,
    ) -> Self {
        assert!(sets_per_slice > 0, "sets_per_slice must be non-zero");
        assert!(num_slices > 0, "num_slices must be non-zero");
        Self {
            model,
            fidelity,
            last_sync: vec![NEVER_SYNCED; sets_per_slice * num_slices],
            sets_per_slice,
            scratch: Vec::new(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// The configured fidelity. The machine layer dispatches on this:
    /// [`NoiseProcess::catch_up`] for exact,
    /// [`NoiseProcess::catch_up_aggregate`] for aggregate.
    pub fn fidelity(&self) -> NoiseFidelity {
        self.fidelity
    }

    /// Copies `source`'s state into `self` in place, reusing the
    /// synchronisation vector's allocation (hot path of machine restores).
    /// The event scratch buffer is per-machine transient state and keeps
    /// `self`'s allocation.
    pub fn restore_from(&mut self, source: &NoiseProcess) {
        self.model.clone_from(&source.model);
        self.fidelity = source.fidelity;
        self.last_sync.clone_from(&source.last_sync);
        self.sets_per_slice = source.sets_per_slice;
    }

    /// Flat `last_sync` index of `loc`. The vector covers the whole slice
    /// geometry by construction, so this is a plain index (no resize branch
    /// on the hot path; an out-of-geometry location is a caller bug and
    /// panics via the bounds check).
    #[inline]
    fn sync_slot(&mut self, loc: SetLocation) -> &mut u64 {
        debug_assert!(loc.set < self.sets_per_slice, "set index outside the slice geometry");
        &mut self.last_sync[loc.flat_index(self.sets_per_slice)]
    }

    /// Computes the background accesses that hit `loc` between the last
    /// synchronisation of that set and `now`, and marks the set synchronised.
    ///
    /// The returned events are ordered by timestamp and borrowed from an
    /// internal scratch buffer (valid until the next `catch_up` call), so
    /// the traversal hot path allocates nothing. At most `MAX_BURST` events
    /// are produced; when the Poisson draw for the gap exceeds that cap, the
    /// burst is *thinned*: `MAX_BURST` insertion timestamps are sampled
    /// uniformly over the **whole** gap (not just its most recent portion).
    /// This bounds the per-catch-up work without biasing where in the gap
    /// insertions land; a gap long enough to hit the cap has filled the set
    /// with noise many times over either way, so only the last ~associativity
    /// insertions are observable.
    pub fn catch_up(&mut self, loc: SetLocation, now: u64, rng: &mut impl Rng) -> &[NoiseEvent] {
        self.scratch.clear();
        let (last, gap) = self.advance_window(loc, now);
        if self.model.is_silent() || gap == 0 {
            return &self.scratch;
        }
        let lambda = gap as f64 * self.model.accesses_per_cycle_per_set;
        let count = sample_poisson(lambda, rng).min(MAX_BURST);
        let span = gap.max(1);
        let shared_fraction = self.model.shared_fraction;
        self.scratch.extend((0..count).map(|_| NoiseEvent {
            at: last + rng.gen_range(0..span),
            shared: rng.gen_bool(shared_fraction),
        }));
        // Stable insertion sort by timestamp: identical output (ties
        // included) to the slice stable sort it replaces, but without the
        // merge buffer std's stable sort heap-allocates — bursts are capped
        // at `MAX_BURST`, so quadratic worst case is bounded and rare.
        let events = self.scratch.as_mut_slice();
        for i in 1..events.len() {
            let mut j = i;
            while j > 0 && events[j - 1].at > events[j].at {
                events.swap(j - 1, j);
                j -= 1;
            }
        }
        &self.scratch
    }

    /// Resolves the catch-up window for `loc` ending at `now` and marks the
    /// set synchronised: returns `(effective last sync, gap)`. A set's first
    /// observation treats `now` as its last sync, so it sees no pre-history
    /// noise: experiments prime every set they care about anyway, and an
    /// arbitrarily long simulated pre-history must not produce an arbitrary
    /// burst on first touch. Both fidelities resolve their window here, so
    /// first-touch semantics are identical across them.
    #[inline]
    fn advance_window(&mut self, loc: SetLocation, now: u64) -> (u64, u64) {
        let slot = self.sync_slot(loc);
        let last = if *slot == NEVER_SYNCED { now } else { *slot };
        *slot = now;
        (last, now.saturating_sub(last))
    }

    /// Aggregate-fidelity catch-up: draws the number of LLC and SF insertions
    /// that hit `loc` between the last synchronisation and `now`, without
    /// materialising per-event timestamps, and marks the set synchronised.
    ///
    /// The joint distribution of the two counts is Poisson thinning of the
    /// exact path's rate: independent `Poisson(λ·p)` and `Poisson(λ·(1−p))`
    /// (where `p` is the shared fraction), identical to drawing `Poisson(λ)`
    /// events and splitting each with a Bernoulli(`p`) coin. The sampling
    /// strategy switches on `λ` so the common case stays as cheap as the
    /// exact path's own count draw:
    ///
    /// * **Short windows** (`λ < 30`, every in-traversal sync): one total
    ///   `Poisson(λ)` draw — usually resolved by a single uniform sample
    ///   returning 0 — followed by a Bernoulli split only when events
    ///   actually occurred.
    /// * **Long windows**: two independent draws at the thinned rates, each
    ///   taking `sample_poisson`'s constant-cost branch.
    ///
    /// The counts are *not* capped at the exact path's `MAX_BURST`: the bulk
    /// applier does `O(min(count, ways))` work regardless, so saturating
    /// gaps stay cheap without biasing the count distribution.
    ///
    /// Silent models and zero-length gaps return [`NoiseAdvance::NONE`]
    /// without consuming any randomness.
    pub fn catch_up_aggregate(
        &mut self,
        loc: SetLocation,
        now: u64,
        rng: &mut impl Rng,
    ) -> NoiseAdvance {
        let (_, gap) = self.advance_window(loc, now);
        if self.model.is_silent() || gap == 0 {
            return NoiseAdvance::NONE;
        }
        let lambda = gap as f64 * self.model.accesses_per_cycle_per_set;
        let p = self.model.shared_fraction;
        if lambda < 30.0 {
            let total = sample_poisson(lambda, rng);
            if total == 0 {
                return NoiseAdvance::NONE;
            }
            let llc = (0..total).filter(|_| rng.gen_bool(p)).count() as u64;
            NoiseAdvance { llc, sf: total - llc }
        } else {
            NoiseAdvance {
                llc: sample_poisson(lambda * p, rng),
                sf: sample_poisson(lambda * (1.0 - p), rng),
            }
        }
    }

    /// Marks a set as synchronised at `now` without generating events.
    ///
    /// Used to start a set's noise clock at a chosen cycle rather than at
    /// its first catch-up (which treats its own `now` as the sync point).
    pub fn mark_synced(&mut self, loc: SetLocation, now: u64) {
        *self.sync_slot(loc) = now;
    }
}

/// Samples a Poisson random variable with mean `lambda`.
///
/// Uses Knuth's multiplication method for small means and a normal
/// approximation for large ones, which is plenty accurate for noise modelling.
pub fn sample_poisson(lambda: f64, rng: &mut impl Rng) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen_range(0.0..1.0f64);
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        // Normal approximation with continuity correction.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (lambda + z * lambda.sqrt()).round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn cloud_run_rate_matches_paper() {
        let m = NoiseModel::cloud_run();
        assert!((m.accesses_per_ms(2.0) - 11.5).abs() < 1e-9);
        let l = NoiseModel::quiescent_local();
        assert!((l.accesses_per_ms(2.0) - 0.29).abs() < 1e-9);
        assert!(m.accesses_per_cycle_per_set > 30.0 * l.accesses_per_cycle_per_set);
    }

    #[test]
    fn silent_noise_produces_no_events() {
        let mut p = NoiseProcess::new(NoiseModel::silent(), NoiseFidelity::Exact, 2048, 8);
        let mut rng = SmallRng::seed_from_u64(0);
        let loc = SetLocation::new(0, 0);
        p.mark_synced(loc, 0);
        assert!(p.catch_up(loc, 1_000_000, &mut rng).is_empty());
    }

    #[test]
    fn catch_up_mean_matches_rate() {
        let mut p = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Exact, 2048, 8);
        let mut rng = SmallRng::seed_from_u64(7);
        let loc = SetLocation::new(1, 5);
        // 1 ms at 2 GHz = 2e6 cycles -> expect ~11.5 events per window.
        let mut total = 0usize;
        let windows = 200;
        let mut now = 0u64;
        p.mark_synced(loc, 0);
        for _ in 0..windows {
            now += 2_000_000;
            total += p.catch_up(loc, now, &mut rng).len();
        }
        let mean = total as f64 / windows as f64;
        assert!((mean - 11.5).abs() < 1.5, "mean {mean} too far from 11.5");
    }

    #[test]
    fn first_touch_does_not_burst() {
        let mut p = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Exact, 2048, 8);
        let mut rng = SmallRng::seed_from_u64(3);
        // Never marked synced: the first catch_up treats `now` as the sync
        // point.
        let events = p.catch_up(SetLocation::new(0, 3), 10_000_000_000, &mut rng);
        assert!(events.is_empty());
    }

    #[test]
    fn events_are_sorted_and_in_window() {
        let mut p = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Exact, 2048, 8);
        let mut rng = SmallRng::seed_from_u64(11);
        let loc = SetLocation::new(2, 9);
        p.mark_synced(loc, 1000);
        let events = p.catch_up(loc, 5_000_000, &mut rng);
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in events {
            assert!(e.at >= 1000 && e.at < 5_000_000);
        }
    }

    /// Pins the capped-burst semantics: when the Poisson draw for a long gap
    /// exceeds `MAX_BURST`, the burst is *thinned* — `MAX_BURST` timestamps
    /// sampled uniformly over the whole gap — not truncated to the gap's
    /// most recent portion. The doc comment promises exactly this; if the
    /// sampling ever changes (e.g. to a genuinely "most recent events"
    /// scheme), this test forces the docs and the RNG-stream impact to be
    /// revisited together.
    #[test]
    fn capped_burst_thins_uniformly_over_the_whole_gap() {
        let mut p = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Exact, 2048, 8);
        let mut rng = SmallRng::seed_from_u64(17);
        let loc = SetLocation::new(1, 7);
        p.mark_synced(loc, 0);
        // 100 ms at 2 GHz: the expected count (~1150) is far beyond the cap.
        let gap = 200_000_000u64;
        let events = p.catch_up(loc, gap, &mut rng).to_vec();
        assert_eq!(events.len(), 96, "burst must cap at MAX_BURST");
        // Uniform sampling over the gap: every quarter of the window holds
        // events. A "most recent" scheme would leave the early quarters empty.
        for quarter in 0..4u64 {
            let lo = quarter * gap / 4;
            let hi = (quarter + 1) * gap / 4;
            assert!(
                events.iter().any(|e| e.at >= lo && e.at < hi),
                "no events in quarter {quarter} — sampling is not gap-uniform"
            );
        }
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at, "events must stay timestamp-ordered");
        }
    }

    /// The scratch-buffer rewrite must not change the event stream: a second
    /// process driven by an identical RNG produces bit-identical events, and
    /// reusing one process across calls leaves no stale events behind.
    #[test]
    fn scratch_reuse_is_stream_transparent() {
        let mut a = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Exact, 2048, 8);
        let mut b = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Exact, 2048, 8);
        let mut rng_a = SmallRng::seed_from_u64(23);
        let mut rng_b = SmallRng::seed_from_u64(23);
        let loc = SetLocation::new(0, 42);
        a.mark_synced(loc, 0);
        b.mark_synced(loc, 0);
        let mut now = 0u64;
        let mut lens = Vec::new();
        for step in 1..20u64 {
            now += step * 250_000; // growing gaps: small and large bursts
            let ea = a.catch_up(loc, now, &mut rng_a).to_vec();
            let eb = b.catch_up(loc, now, &mut rng_b).to_vec();
            assert_eq!(ea, eb, "identical RNG streams must give identical events");
            lens.push(ea.len());
        }
        // The sweep must have exercised both shrinking and growing bursts,
        // otherwise stale-scratch bugs could hide.
        assert!(lens.windows(2).any(|w| w[1] < w[0]) && lens.windows(2).any(|w| w[1] > w[0]));
    }

    /// Both fidelities resolve a set's first observation in one shared
    /// helper: a first touch sees no pre-history in either mode, and the
    /// window that follows it carries noise in both.
    #[test]
    fn initial_sync_semantics_are_identical_across_fidelities() {
        let loc = SetLocation::new(0, 3);
        let mut exact = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Exact, 2048, 8);
        let mut agg = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Aggregate, 2048, 8);
        let mut rng = SmallRng::seed_from_u64(3);
        let now = 10_000_000_000;
        assert!(exact.catch_up(loc, now, &mut rng).is_empty());
        assert!(agg.catch_up_aggregate(loc, now, &mut rng).is_empty());

        // A 2 ms window after first touch: ~23 expected insertions at the
        // Cloud Run rate, far beyond zero in both modes.
        let later = now + 4_000_000;
        let events = exact.catch_up(loc, later, &mut rng).to_vec();
        assert!(!events.is_empty(), "the window after first touch must carry noise");
        for e in &events {
            assert!(e.at >= now && e.at < later, "events confined to the window");
        }
        let adv = agg.catch_up_aggregate(loc, later, &mut rng);
        assert!(adv.total() > 0, "the window after first touch must carry noise in aggregate mode");
    }

    /// Zero-gap and silent aggregate syncs must not consume randomness, so
    /// interleaving them into a trial leaves the RNG stream untouched.
    #[test]
    fn aggregate_noop_syncs_consume_no_randomness() {
        let loc = SetLocation::new(1, 1);
        let mut silent = NoiseProcess::new(NoiseModel::silent(), NoiseFidelity::Aggregate, 2048, 8);
        let mut p = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Aggregate, 2048, 8);
        let mut rng = SmallRng::seed_from_u64(21);
        let mut probe = SmallRng::seed_from_u64(21);
        assert!(silent.catch_up_aggregate(loc, 5_000_000, &mut rng).is_empty());
        p.mark_synced(loc, 7_000);
        assert!(p.catch_up_aggregate(loc, 7_000, &mut rng).is_empty(), "zero gap");
        assert!(p.catch_up_aggregate(loc, 6_000, &mut rng).is_empty(), "backwards gap");
        use rand::RngCore;
        assert_eq!(rng.next_u64(), probe.next_u64(), "no-op syncs must not advance the RNG");
    }

    /// The thinned per-structure counts must preserve the total rate and the
    /// shared split: E[llc] = λp·dt, E[sf] = λ(1−p)·dt.
    #[test]
    fn aggregate_counts_match_rate_and_split() {
        let mut p = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Aggregate, 2048, 8);
        let mut rng = SmallRng::seed_from_u64(31);
        let loc = SetLocation::new(1, 5);
        p.mark_synced(loc, 0);
        let (mut llc, mut sf) = (0u64, 0u64);
        let windows = 400;
        let mut now = 0u64;
        for _ in 0..windows {
            now += 2_000_000; // 1 ms at 2 GHz -> ~11.5 insertions expected
            let adv = p.catch_up_aggregate(loc, now, &mut rng);
            llc += adv.llc;
            sf += adv.sf;
        }
        let mean = (llc + sf) as f64 / windows as f64;
        assert!((mean - 11.5).abs() < 1.0, "total mean {mean} too far from 11.5");
        let shared = llc as f64 / (llc + sf) as f64;
        assert!((shared - 0.5).abs() < 0.05, "shared split {shared} too far from 0.5");
    }

    #[test]
    fn fidelity_parse_round_trips() {
        for f in [NoiseFidelity::Exact, NoiseFidelity::Aggregate] {
            assert_eq!(NoiseFidelity::parse(f.label()), Some(f));
        }
        assert_eq!(NoiseFidelity::parse("AGGREGATE"), Some(NoiseFidelity::Aggregate));
        assert_eq!(NoiseFidelity::parse("bogus"), None);
    }

    /// Config round-trip through clone + restore_from: the fidelity and the
    /// model are machine-snapshot state and must survive both paths.
    #[test]
    fn clone_and_restore_carry_fidelity_and_initial_sync() {
        let p = NoiseProcess::new(NoiseModel::cloud_run(), NoiseFidelity::Aggregate, 64, 2);
        let c = p.clone();
        assert_eq!(c.fidelity(), NoiseFidelity::Aggregate);
        assert_eq!(c.model(), p.model());
        let mut q = NoiseProcess::new(NoiseModel::silent(), NoiseFidelity::Exact, 64, 2);
        q.restore_from(&p);
        assert_eq!(q.fidelity(), NoiseFidelity::Aggregate);
        assert_eq!(q.model(), p.model());
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut rng = SmallRng::seed_from_u64(5);
        for &lambda in &[0.5f64, 3.0, 50.0] {
            let n = 4000;
            let total: u64 = (0..n).map(|_| sample_poisson(lambda, &mut rng)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.sqrt() * 0.2 + 0.1,
                "lambda {lambda}: mean {mean}"
            );
        }
    }
}
