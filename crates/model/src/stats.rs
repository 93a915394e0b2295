//! Summary statistics shared by the experiment harness.
//!
//! The paper's Figure 4 reports, for each identifier size, the mean
//! collision rate over ten trials with error bars showing one standard
//! deviation. [`Summary`] computes exactly those quantities, and
//! [`Summary::agrees_with`] judges their mean against a model.
//! [`Verdict`] is the one check of a closed form against an observed
//! count.

use core::fmt;

/// Summary statistics of a sample: count, mean, sample standard
/// deviation, and range.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n - 1` denominator; 0 for one sample).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarizes a slice of observations in one pass (Welford's
    /// algorithm, numerically stable for long runs).
    ///
    /// # Panics
    ///
    /// Panics if `sample` is empty; an empty sample has no defined mean.
    ///
    /// # Examples
    ///
    /// ```
    /// use retri_model::stats::Summary;
    ///
    /// let summary = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
    /// assert_eq!(summary.mean, 5.0);
    /// assert!((summary.std_dev - 2.138089935299395).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn of(sample: &[f64]) -> Self {
        assert!(!sample.is_empty(), "cannot summarize an empty sample");
        let (mut mean, mut m2) = (0.0, 0.0);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (count, &x) in (1u64..).zip(sample) {
            let delta = x - mean;
            mean += delta / count as f64;
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
        }
        let n = sample.len() as u64;
        let variance = if n > 1 { m2 / (n - 1) as f64 } else { 0.0 };
        Summary {
            n,
            mean,
            std_dev: variance.sqrt(),
            min,
            max,
        }
    }

    /// Standard error of the mean, `s / sqrt(n)`.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        self.std_dev / (self.n as f64).sqrt()
    }

    /// Whether a model prediction is consistent with this sample.
    ///
    /// Accepts if the prediction lies within `sigmas` standard errors of
    /// the sample mean, or within `abs_tol` absolutely — the latter keeps
    /// the check meaningful when the sample variance collapses to zero
    /// (e.g. a collision rate of exactly 0 across all trials at large
    /// identifier sizes).
    ///
    /// # Examples
    ///
    /// ```
    /// use retri_model::stats::Summary;
    ///
    /// let observed = Summary::of(&[0.29, 0.31, 0.30, 0.32, 0.28]);
    /// assert!(observed.agrees_with(0.30, 3.0, 0.01));
    /// assert!(!observed.agrees_with(0.60, 3.0, 0.01));
    /// ```
    #[must_use]
    pub fn agrees_with(&self, predicted: f64, sigmas: f64, abs_tol: f64) -> bool {
        let deviation = (self.mean - predicted).abs();
        deviation <= sigmas * self.std_error() || deviation <= abs_tol
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (n={}, range {:.4}..{:.4})",
            self.mean, self.std_dev, self.n, self.min, self.max
        )
    }
}

/// Two-sided z critical value for a 99% confidence level.
pub const Z_99: f64 = 2.575_829_303_548_901;

/// Where a prediction falls against an observed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Under `low - allowance`.
    Below,
    /// From `low - allowance` up to `high`, both ends included.
    Inside,
    /// Over `high`, or not a number.
    Above,
}

/// A closed-form prediction judged against the Wilson score interval
/// `[low, high]` of an observed count: [`Side::Inside`] when
/// `low - allowance <= predicted <= high`. The allowance
/// ([`Self::allowing`], 0 by default) is one-sided, for a model that
/// ignores an effect known to help; it never widens the upper side. A
/// one-sided claim reads [`Self::side`]: "clears a floor" is
/// `side() == Side::Below` with the floor as the prediction.
///
/// ```
/// use retri_model::stats::{Side, Verdict, Z_99};
///
/// // 80 of 100 succeeded: a model at 0.60 undershoots the interval,
/// // unless an allowance covers the gap.
/// let verdict = Verdict::of(80, 100, Z_99, 0.60);
/// assert_eq!(verdict.side(), Side::Below);
/// assert!(verdict.allowing(0.10).inside());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Lower bound of the interval, clamped to `[0, 1]`.
    pub low: f64,
    /// Upper bound of the interval, clamped to `[0, 1]`.
    pub high: f64,
    predicted: f64,
    allowance: f64,
}

impl Verdict {
    /// Judges `predicted` against the interval of `observed` out of
    /// `trials` at the two-sided critical value `z` (e.g. [`Z_99`]).
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero, `observed > trials`, or `z` is not
    /// positive.
    #[must_use]
    pub fn of(observed: u64, trials: u64, z: f64, predicted: f64) -> Self {
        assert!(trials > 0, "Wilson interval needs at least one trial");
        assert!(
            observed <= trials,
            "observed count {observed} must not exceed trials {trials}"
        );
        assert!(z > 0.0, "critical value must be positive, got {z}");
        let n = trials as f64;
        let p = observed as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        Verdict {
            low: (center - half).max(0.0),
            high: (center + half).min(1.0),
            predicted,
            allowance: 0.0,
        }
    }

    /// The same verdict, letting the prediction sit up to `allowance`
    /// under the lower bound.
    #[must_use]
    pub fn allowing(self, allowance: f64) -> Self {
        Verdict { allowance, ..self }
    }

    /// Where the prediction falls.
    #[must_use]
    pub fn side(&self) -> Side {
        if self.predicted < self.low - self.allowance {
            Side::Below
        } else if self.predicted <= self.high {
            Side::Inside
        } else {
            Side::Above
        }
    }

    /// Whether the prediction is [`Side::Inside`].
    #[must_use]
    pub fn inside(&self) -> bool {
        self.side() == Side::Inside
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass_computation() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let summary = Summary::of(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((summary.mean - mean).abs() < 1e-12);
        assert!((summary.std_dev - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_observation_has_zero_std_dev() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn min_max_track_extremes() {
        let s = Summary::of(&[3.0, -1.0, 7.5, 2.0]);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 7.5);
    }

    #[test]
    fn std_error_shrinks_with_sample_size() {
        let small = Summary::of(&[1.0, 2.0, 3.0]);
        let mut big_sample = Vec::new();
        for _ in 0..30 {
            big_sample.extend_from_slice(&[1.0, 2.0, 3.0]);
        }
        let big = Summary::of(&big_sample);
        assert!(big.std_error() < small.std_error());
    }

    #[test]
    fn agreement_uses_absolute_tolerance_when_variance_collapses() {
        // Ten trials that all observed exactly zero collisions.
        let s = Summary::of(&[0.0; 10]);
        assert_eq!(s.std_error(), 0.0);
        // A tiny positive prediction (e.g. 2^-16-ish rates) still agrees.
        assert!(s.agrees_with(1e-4, 3.0, 1e-3));
        assert!(!s.agrees_with(0.5, 3.0, 1e-3));
    }

    #[test]
    fn display_includes_mean_and_n() {
        let text = Summary::of(&[1.0, 2.0]).to_string();
        assert!(text.contains("1.5"));
        assert!(text.contains("n=2"));
    }

    /// The interval alone: a verdict on a prediction of 0.
    fn wilson(observed: u64, trials: u64) -> Verdict {
        Verdict::of(observed, trials, Z_99, 0.0)
    }

    #[test]
    fn wilson_matches_reference_values() {
        // Classic textbook case: 8 successes in 10 trials at 95%
        // (z = 1.959964): Wilson gives [0.4901, 0.9433].
        let w = Verdict::of(8, 10, 1.959_964, 0.0);
        assert!((w.low - 0.4901).abs() < 5e-4, "low {}", w.low);
        assert!((w.high - 0.9433).abs() < 5e-4, "high {}", w.high);
    }

    #[test]
    fn wilson_contains_the_sample_proportion() {
        for &(s, n) in &[(0u64, 5u64), (1, 7), (50, 100), (99, 100), (100, 100)] {
            let p = s as f64 / n as f64;
            let verdict = Verdict::of(s, n, Z_99, p);
            assert!(verdict.inside(), "{verdict:?} must contain {p}");
            assert!((0.0..=1.0).contains(&verdict.low));
            assert!((0.0..=1.0).contains(&verdict.high));
        }
    }

    #[test]
    fn wilson_narrows_with_more_trials() {
        let small = wilson(8, 10);
        let large = Verdict::of(800, 1000, Z_99, 0.8);
        assert!(large.high - large.low < small.high - small.low);
        assert!(large.inside());
    }

    #[test]
    fn wilson_extremes_stay_informative() {
        // All failures / all successes still give nondegenerate bounds.
        let none = wilson(0, 20);
        assert_eq!(none.low, 0.0);
        assert!(none.high > 0.0 && none.high < 0.5);
        let all = wilson(20, 20);
        assert_eq!(all.high, 1.0);
        assert!(all.low > 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_rejects_empty_samples() {
        let _ = wilson(0, 0);
    }

    #[test]
    #[should_panic(expected = "exceed trials")]
    fn wilson_rejects_impossible_counts() {
        let _ = wilson(5, 4);
    }

    /// An allowance of 0.02 below a 30-of-100 interval, as the
    /// differential harness uses it.
    const ALLOWANCE: f64 = 0.02;

    #[test]
    fn verdict_bounds_are_inclusive() {
        let interval = wilson(30, 100);
        let at_low = interval.low - ALLOWANCE;
        let verdict = |p: f64| Verdict::of(30, 100, Z_99, p).allowing(ALLOWANCE).side();
        assert_eq!(verdict(at_low), Side::Inside);
        assert_eq!(verdict(interval.high), Side::Inside);
        assert_eq!(verdict(at_low.next_down()), Side::Below);
        assert_eq!(verdict(interval.high.next_up()), Side::Above);
        assert_eq!(verdict(f64::NAN), Side::Above);
    }

    #[test]
    fn an_allowance_never_widens_the_upper_side() {
        for allowance in [0.0, ALLOWANCE, 0.5, 1.0] {
            let side = |p: f64| Verdict::of(30, 100, Z_99, p).allowing(allowance).side();
            let high = wilson(30, 100).high;
            assert_eq!(side(high.next_up()), Side::Above, "allowance {allowance}");
            assert_eq!(side(high), Side::Inside, "allowance {allowance}");
        }
    }

    #[test]
    fn one_sided_use_matches_the_lower_bound_comparison() {
        // "Not significantly above the prediction": the observed rate's
        // lower bound is at most the prediction.
        for trials in [1u64, 7, 100, 10_000] {
            for observed in [0, 1, trials / 3, trials / 2, trials - 1, trials] {
                let low = wilson(observed, trials).low;
                let grid = [0.0, 1e-4, 0.01, 0.2, 0.33, 0.5, 0.9, 1.0];
                for p in grid.into_iter().chain([low, low.next_down()]) {
                    let verdict = Verdict::of(observed, trials, Z_99, p);
                    assert_eq!(
                        verdict.side() != Side::Below,
                        low <= p,
                        "{observed}/{trials} against {p}"
                    );
                }
            }
        }
    }
}
