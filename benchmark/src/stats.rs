//! Order statistics for the benchmark's timings.

use hyperqd::stats::{bucket_floor, Histogram, BUCKETS};

/// The `p`-th percentile (0 < p ≤ 100) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `p` % of the
/// samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile among `n ≥ 1` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9 990 despite 99.9 / 100
    // not being exactly representable.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples.  A percentile is trustworthy with at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Sorts `values` ascending (timings are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
}

/// The median: the middle sample, or the mean of the two middle samples.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (0 ..= 1) of a server latency histogram, interpolated
/// linearly inside the bucket the rank falls in.  `Histogram::quantile`
/// reports the bucket's midpoint, which reads the same on every run whose
/// median lands in that bucket; this reads as measured.  0 if empty.
pub fn histogram_quantile(h: &Histogram, q: f64) -> f64 {
    let rank = q * h.count() as f64;
    let mut seen = 0.0;
    for (idx, count) in h.sparse() {
        let count = count as f64;
        if seen + count >= rank {
            let floor = bucket_floor(idx);
            let width = if idx + 1 < BUCKETS {
                bucket_floor(idx + 1) - floor
            } else {
                1
            };
            return floor as f64 + width as f64 * (rank - seen) / count;
        }
        seen += count;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_interpolate_within_a_bucket() {
        // 1024..1152 is one bucket (3 significant bits above 2^10).
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(1100);
        }
        assert_eq!(histogram_quantile(&h, 0.5), 1024.0 + 64.0);
        assert_eq!(histogram_quantile(&h, 1.0), 1152.0);
        // Half the mass one bucket up: the median is the lower bucket's top.
        for _ in 0..100 {
            h.record(1200);
        }
        assert_eq!(histogram_quantile(&h, 0.5), 1152.0);
        assert_eq!(histogram_quantile(&h, 0.75), 1152.0 + 64.0);
        assert_eq!(histogram_quantile(&Histogram::new(), 0.5), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p90 of 100 samples is the 90th: exactly ten lie beyond it.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
