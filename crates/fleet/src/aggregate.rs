//! Order-independent reduction of per-trial results.
//!
//! Floating-point addition is not associative, so a naive "sum as results
//! arrive" reduction produces different bits depending on the thread
//! schedule. The [`Aggregate`] contract sidesteps this: implementations key
//! every recorded item by its trial index and **canonicalise before
//! summarising** (sort by trial index, then fold in index order). Merging
//! partial aggregates in any order therefore yields summaries bit-identical
//! to a serial fold — the property the determinism and proptest suites pin.

/// A reducer of per-trial results whose merged outcome is independent of how
/// trials were sharded across workers.
///
/// Laws (verified by `tests/aggregate_props.rs`):
///
/// * **identity** — `a.merge(empty())` leaves `a`'s summary unchanged;
/// * **commutativity** — `a.merge(b)` and `b.merge(a)` summarise identically;
/// * **associativity** — any parenthesisation of a merge sequence summarises
///   identically;
/// * **serial equivalence** — recording items `0..n` into one aggregate and
///   recording arbitrary disjoint shards into separate aggregates then
///   merging produce bit-identical summaries.
pub trait Aggregate {
    /// One trial's result.
    type Item;

    /// The empty aggregate (reduction identity).
    fn empty() -> Self;

    /// Records the result of trial `trial`.
    fn record(&mut self, trial: u64, item: Self::Item);

    /// Absorbs another partial aggregate (built from disjoint trials).
    fn merge(&mut self, other: Self);

    /// Records `items` in order, item `i` as trial `i`: the reduction of a
    /// fleet's in-order results, e.g. `Samples::from_trials(fleet.run(..))`.
    /// By the laws above this is bit-identical to merging any sharding of
    /// the same trials.
    fn from_trials(items: impl IntoIterator<Item = Self::Item>) -> Self
    where
        Self: Sized,
    {
        let mut agg = Self::empty();
        for (trial, item) in items.into_iter().enumerate() {
            agg.record(trial as u64, item);
        }
        agg
    }
}

/// Counting aggregate: how many trials succeeded out of how many ran.
/// Integer addition is exactly commutative, so no canonicalisation is needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Trials recorded with `true`.
    pub hits: u64,
    /// Trials recorded in total.
    pub total: u64,
}

impl Counts {
    /// `hits / total` (0 when empty).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

impl Aggregate for Counts {
    type Item = bool;

    fn empty() -> Self {
        Self::default()
    }

    fn record(&mut self, _trial: u64, hit: bool) {
        self.hits += u64::from(hit);
        self.total += 1;
    }

    fn merge(&mut self, other: Self) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

/// Sample aggregate: collects `(trial, value)` pairs and summarises them in
/// canonical trial order, making every statistic bit-stable under resharding.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    entries: Vec<(u64, f64)>,
}

impl Samples {
    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded values in canonical (trial-index) order.
    pub fn values_in_trial_order(&self) -> Vec<f64> {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|(t, _)| *t);
        entries.into_iter().map(|(_, v)| v).collect()
    }

    /// The `q`-quantile (`0.0..=1.0`) by the nearest-rank method over the
    /// value-sorted samples; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let mut values: Vec<f64> = self.entries.iter().map(|(_, v)| *v).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let rank = ((q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize)
            .clamp(1, values.len());
        values[rank - 1]
    }

    /// Summarises the samples (count, mean, σ, min, max, median), folding in
    /// canonical trial order so the result is independent of sharding.
    pub fn summary(&self) -> Summary {
        let values = self.values_in_trial_order();
        if values.is_empty() {
            return Summary::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Summary {
            count: values.len(),
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            median: sorted[sorted.len() / 2],
        }
    }
}

impl Aggregate for Samples {
    type Item = f64;

    fn empty() -> Self {
        Self::default()
    }

    fn record(&mut self, trial: u64, value: f64) {
        self.entries.push((trial, value));
    }

    fn merge(&mut self, mut other: Self) {
        self.entries.append(&mut other.entries);
    }
}

/// Summary statistics of a [`Samples`] aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (folded in trial order).
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (upper median for even counts).
    pub median: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_rate() {
        let mut c = Counts::empty();
        c.record(0, true);
        c.record(1, false);
        c.record(2, true);
        assert_eq!(c.hits, 2);
        assert!((c.rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Counts::empty().rate(), 0.0);
    }

    #[test]
    fn samples_summary_matches_hand_computation() {
        let mut s = Samples::empty();
        for (t, v) in [(0u64, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 100.0)] {
            s.record(t, v);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 5);
        assert_eq!(sum.median, 3.0);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 100.0);
        assert!((sum.mean - 22.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_reshard_invariant_bitwise() {
        // One aggregate built serially...
        let mut serial = Samples::empty();
        for t in 0..100u64 {
            serial.record(t, (t as f64).sin() * 1e3);
        }
        // ...and the same items split into odd/even shards merged backwards.
        let mut even = Samples::empty();
        let mut odd = Samples::empty();
        for t in 0..100u64 {
            let v = (t as f64).sin() * 1e3;
            if t % 2 == 0 {
                even.record(t, v);
            } else {
                odd.record(t, v);
            }
        }
        let mut merged = Samples::empty();
        merged.merge(odd);
        merged.merge(even);
        // Bit-identical summaries (f64 == is exact equality here by design).
        assert_eq!(serial.summary(), merged.summary());
        assert_eq!(serial.percentile(0.9), merged.percentile(0.9));
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(Samples::empty().summary(), Summary::default());
        assert_eq!(Samples::empty().percentile(0.5), 0.0);
        let mut one = Samples::empty();
        one.record(7, 42.0);
        let s = one.summary();
        assert_eq!((s.count, s.mean, s.std_dev, s.min, s.max, s.median), (1, 42.0, 0.0, 42.0, 42.0, 42.0));
    }

    #[test]
    fn percentile_bounds() {
        let mut s = Samples::empty();
        for t in 0..10u64 {
            s.record(t, t as f64);
        }
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(1.0), 9.0);
        assert_eq!(s.percentile(0.5), 4.0);
    }
}
