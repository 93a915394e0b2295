//! Order statistics for the reported timings.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `values`, in any order.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One percentile read off a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile as a fraction in `(0, 1]` (0.999 is p99.9).
    pub q: f64,
    /// The sample at that rank.
    pub value: u64,
}

/// Nearest-rank percentile `q` of an ascending `sorted` sample.
///
/// # Panics
///
/// Panics if `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile reported next to the median: the highest
/// percentile, up to `max_q`, that has at least ten samples beyond it.
/// Returns `None` when the sample is too small for any such percentile
/// above the median (fewer than 21 samples).
#[must_use]
pub fn tail(sorted: &[u64], max_q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n < 21 {
        return None;
    }
    // Nearest-rank index of `max_q`, then pulled down until ten samples
    // lie strictly above it.
    let cap_rank = ((max_q * n as f64).ceil() as usize).clamp(1, n);
    let index = (cap_rank - 1).min(n - 11);
    Some(Percentile {
        q: (index + 1) as f64 / n as f64,
        value: sorted[index],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 100 samples: p99.9 would leave none beyond; the highest rank
        // with ten above it is the 90th value.
        let sorted: Vec<u64> = (1..=100).collect();
        let tail = tail(&sorted, 0.999).unwrap();
        assert_eq!(tail.value, 90);
        assert_eq!(sorted.iter().filter(|&&v| v > tail.value).count(), 10);
        assert!((tail.q - 0.90).abs() < 1e-12);
    }

    #[test]
    fn tail_is_p999_once_the_sample_is_large_enough() {
        let sorted: Vec<u64> = (1..=20_000).collect();
        let tail = tail(&sorted, 0.999).unwrap();
        assert_eq!(tail.value, 19_980);
        assert!((tail.q - 0.999).abs() < 1e-12);
        // Exactly at the threshold: 10_000 samples leave ten above p99.9.
        let sorted: Vec<u64> = (1..=10_000).collect();
        assert_eq!(super::tail(&sorted, 0.999).unwrap().value, 9_990);
        // One fewer and p99.9 would leave only nine.
        let sorted: Vec<u64> = (1..=9_999).collect();
        let tail = super::tail(&sorted, 0.999).unwrap();
        assert_eq!(sorted.iter().filter(|&&v| v > tail.value).count(), 10);
    }

    #[test]
    fn tail_needs_more_than_twenty_samples() {
        let sorted: Vec<u64> = (1..=20).collect();
        assert_eq!(tail(&sorted, 0.999), None);
        let sorted: Vec<u64> = (1..=21).collect();
        assert_eq!(tail(&sorted, 0.999).unwrap().value, 11);
    }

    #[test]
    fn tail_respects_its_cap() {
        let sorted: Vec<u64> = (1..=1_000).collect();
        let p90 = tail(&sorted, 0.9).unwrap();
        assert_eq!((p90.value, p90.q), (900, 0.9));
        // Too few samples for p90 with ten beyond: the cap gives way.
        let sorted: Vec<u64> = (1..=80).collect();
        let t = tail(&sorted, 0.9).unwrap();
        assert_eq!(t.value, 70);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let sorted: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&sorted, 0.5), 5);
        assert_eq!(percentile(&sorted, 0.51), 6);
        assert_eq!(percentile(&sorted, 1.0), 10);
        assert_eq!(percentile(&sorted, 0.0), 1);
        let shuffled: Vec<f64> = [7, 3, 10, 1, 5, 9, 2, 8, 4, 6].map(f64::from).to_vec();
        assert_eq!(quantile(&shuffled, 0.1), 1.0);
        assert_eq!(quantile(&shuffled, 0.11), 2.0);
        assert_eq!(quantile(&shuffled, 0.5), 5.0);
    }
}
