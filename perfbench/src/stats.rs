//! Percentiles, medians and quartiles over latency samples.

/// A nearest-rank percentile that is only reported when at least
/// [`MIN_BEYOND`] samples lie above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Index of that sample in the sorted order.
    pub rank: usize,
    /// Samples behind the percentile.
    pub samples: usize,
    /// Samples strictly after `rank` in the sorted order.
    pub beyond: usize,
}

/// A percentile needs this many samples past it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Pct> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    let beyond = sorted.len() - 1 - rank;
    (beyond >= MIN_BEYOND).then_some(Pct {
        value: sorted[rank],
        rank,
        samples: sorted.len(),
        beyond,
    })
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v = ramp(200);
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.rank, p50.beyond), (100.0, 99, 100));
        let p90 = percentile(&v, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (180.0, 20));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples is the 90th: exactly 10 lie beyond it.
        assert_eq!(percentile(&ramp(100), 0.9).unwrap().beyond, 10);
        // Of 99 samples only 9 lie beyond the 90th: not reportable.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(1000), 0.99).unwrap().beyond, 10);
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
