//! The benchmark's own arithmetic: medians, nearest-rank percentiles, the
//! choice of tail percentile, and the result digest.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `per_mille`
/// thousandths of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice, a NaN value or `per_mille > 1000`.
pub fn percentile(values: &[f64], per_mille: u64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(per_mille <= 1000, "percentile above 100%");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted[rank(sorted.len(), per_mille).max(1) - 1]
}

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: u64) -> usize {
    (n as u64 * per_mille).div_ceil(1000) as usize
}

/// Samples strictly above the `per_mille` percentile's rank.
pub fn samples_beyond(n: usize, per_mille: u64) -> usize {
    n - rank(n, per_mille)
}

/// The percentiles a timing may be reported at, highest first.
const TAIL_LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile (in thousandths) that leaves at least ten samples
/// beyond it, or `None` when even the median does not.
pub fn tail_per_mille(n: usize) -> Option<u64> {
    TAIL_LADDER
        .into_iter()
        .find(|&pm| samples_beyond(n, pm) >= 10)
}

/// FNV-1a, 64 bit: the digest of a run's deterministic results.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 500), 50.0);
        assert_eq!(percentile(&values, 900), 90.0);
        assert_eq!(percentile(&values, 1000), 100.0);
        assert_eq!(percentile(&values, 0), 1.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
        assert_eq!(samples_beyond(100, 900), 10);
        assert_eq!(tail_per_mille(100), Some(900));
        // 99 samples: p90's rank is 90, leaving 9 beyond; p75 leaves 24.
        assert_eq!(samples_beyond(99, 900), 9);
        assert_eq!(tail_per_mille(99), Some(750));
        // 120 samples (one evset-sweep batch): p90, with 12 beyond.
        assert_eq!(tail_per_mille(120), Some(900));
        assert_eq!(tail_per_mille(360), Some(950));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
        assert_eq!(tail_per_mille(20), Some(500));
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail_per_mille(19), None);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
