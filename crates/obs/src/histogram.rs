//! Fixed-bucket histograms.
//!
//! Buckets are chosen when a histogram is built and never change, so
//! observation is a bounded scan over a small, cache-resident slice —
//! no allocation, no rebalancing, and the exported shape is identical
//! for every run of the same build (a requirement for deterministic
//! provenance diffs).

/// A histogram with explicit, immutable bucket upper bounds.
///
/// Semantics follow the Prometheus classic histogram: `counts[i]` is
/// the number of observations `v <= bounds[i]` that did not fit an
/// earlier bucket, and the final slot counts everything above the last
/// bound (the implicit `+Inf` bucket). `count`/`sum` aggregate all
/// observations.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus the trailing `+Inf` slot.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram from strictly increasing, finite bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// increasing — all programming errors, not data.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for pair in bounds.windows(2) {
            assert!(
                pair[0] < pair[1],
                "histogram bounds must be strictly increasing"
            );
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (the +Inf bucket is implicit)"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|bound| value <= *bound)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last slot is the `+Inf` bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Adds every bucket/total of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ — merging histograms of
    /// different shapes is a programming error, not data.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let mut h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 2.0, 10.0, 99.0, 100.0, 101.0, 1e9] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert!((h.sum() - (0.5 + 1.0 + 2.0 + 10.0 + 99.0 + 100.0 + 101.0 + 1e9)).abs() < 1e-6);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = Histogram::with_bounds(&[1.0, 2.0]);
        let mut b = Histogram::with_bounds(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(9.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_bounds_are_rejected() {
        Histogram::with_bounds(&[2.0, 1.0]);
    }
}
