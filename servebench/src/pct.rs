//! Exact order statistics over raw samples.
//!
//! The server's own histograms keep log2 buckets and report bucket
//! midpoints (a p50 of 40 µs reads as 46.34 µs). The benchmark keeps
//! every sample and reports nearest-rank percentiles of the samples
//! themselves, always together with the sample count.

/// Nearest-rank quantile `num/den` of an ascending slice: the smallest
/// sample with at least `num/den` of all samples at or below it.
/// Integer rank arithmetic, so p99 of 1..=1000 is exactly 990.
pub fn quantile(sorted: &[f64], num: usize, den: usize) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(num <= den && den > 0, "quantile {num}/{den} out of range");
    let rank = (num * sorted.len()).div_ceil(den).max(1);
    sorted[rank - 1]
}

/// Median and 99th percentile of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples` (sorted in place); `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable_by(f64::total_cmp);
        Some(Summary {
            count: samples.len(),
            p50: quantile(samples, 1, 2),
            p99: quantile(samples, 99, 100),
        })
    }
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    quantile(values, 1, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distribution_gives_exact_p50_and_p99() {
        // 1..=1000 in a scrambled order: nearest rank puts p50 at the
        // 500th sample and p99 at the 990th.
        let mut samples: Vec<f64> = (0..1000u64)
            .map(|i| ((i * 337) % 1000 + 1) as f64)
            .collect();
        let s = Summary::of(&mut samples).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
    }

    #[test]
    fn percentiles_are_samples_not_bucket_midpoints() {
        // Every sample is 40 µs: a log2 histogram would report the
        // [32, 64) midpoint 45.25; the exact answer is 40.
        let mut samples = vec![40.0; 300];
        let s = Summary::of(&mut samples).unwrap();
        assert_eq!((s.p50, s.p99), (40.0, 40.0));
    }

    #[test]
    fn tail_needs_enough_samples_beyond_it() {
        // 198 fast samples and 2 slow ones: the 198th-ranked sample is
        // the p99, so the two outliers sit beyond it.
        let mut samples = vec![10.0; 198];
        samples.extend([900.0, 1000.0]);
        let s = Summary::of(&mut samples).unwrap();
        assert_eq!((s.count, s.p50, s.p99), (200, 10.0, 10.0));
        samples.push(1100.0);
        let s = Summary::of(&mut samples).unwrap();
        assert_eq!(s.p99, 900.0);
    }

    #[test]
    fn single_sample_and_empty() {
        assert_eq!(quantile(&[7.5], 1, 2), 7.5);
        assert_eq!(quantile(&[7.5], 99, 100), 7.5);
        assert!(Summary::of(&mut []).is_none());
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.0);
    }
}
