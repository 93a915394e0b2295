//! Extension: non-uniform transaction lengths.
//!
//! Eq. 4 assumes every transaction spans the same amount of time — a
//! limitation the paper calls out explicitly in Section 4.1 ("two long
//! transactions will have different collision characteristics than a long
//! transaction competing with a series of short transactions, even though
//! T = 2 in both cases") and lists as future work in Section 8. This
//! module generalizes the model to a discrete distribution of transaction
//! durations.
//!
//! # Model
//!
//! Let transactions arrive as a Poisson-like stream with rate `λ` and
//! durations drawn i.i.d. from a discrete distribution with mean `E[L]`.
//! By Little's law the average number of *other* concurrent transactions
//! is `λ·E[L]`, so a target density `T` fixes `λ = (T - 1) / E[L]`.
//!
//! A tagged transaction of duration `ℓ` overlaps every transaction that
//! starts during it (`λ·ℓ` expected) and every transaction that is already
//! in flight when it starts (`λ·E[L]` expected, by PASTA), giving an
//! expected overlap count `λ·(ℓ + E[L])`. Each overlap independently
//! collides with probability `2^-H`, so
//!
//! ```text
//! P(success | ℓ) = (1 - 2^-H)^(λ (ℓ + E[L]))
//! P(success)     = Σ_ℓ  w_ℓ · P(success | ℓ)
//! ```
//!
//! With all durations equal this reduces to `λ·2L = 2(T-1)` overlaps —
//! Eq. 4 exactly — so the generalization is conservative.

use core::fmt;

use crate::efficiency::Efficiency;
use crate::params::{DataBits, Density, IdBits};

/// Error returned when a duration distribution is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum LengthModelError {
    /// The distribution must contain at least one class.
    EmptyDistribution,
    /// Every weight must be positive and finite.
    NonPositiveWeight(f64),
    /// Every duration must be positive and finite.
    NonPositiveDuration(f64),
}

impl fmt::Display for LengthModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LengthModelError::EmptyDistribution => {
                write!(f, "duration distribution must not be empty")
            }
            LengthModelError::NonPositiveWeight(w) => {
                write!(f, "distribution weight {w} must be positive and finite")
            }
            LengthModelError::NonPositiveDuration(l) => {
                write!(f, "transaction duration {l} must be positive and finite")
            }
        }
    }
}

impl std::error::Error for LengthModelError {}

/// One class of transaction durations: a relative weight and a duration
/// (any time unit, as long as it is consistent across classes).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DurationClass {
    /// Relative frequency of this class (normalized internally).
    pub weight: f64,
    /// Duration of transactions in this class.
    pub duration: f64,
}

/// A collision model for transactions of mixed durations.
///
/// # Examples
///
/// ```
/// use retri_model::lengths::{DurationClass, MixedLengthModel};
/// use retri_model::{p_success, Density, IdBits};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let h = IdBits::new(8)?;
/// let t = Density::new(5)?;
///
/// // Degenerate single-length distribution reproduces Eq. 4.
/// let uniform = MixedLengthModel::new(vec![DurationClass { weight: 1.0, duration: 3.0 }])?;
/// assert!((uniform.p_success(h, t) - p_success(h, t)).abs() < 1e-12);
///
/// // A mix of short and long transactions at the same density collides
/// // differently than the equal-length assumption predicts.
/// let mixed = MixedLengthModel::new(vec![
///     DurationClass { weight: 0.9, duration: 1.0 },
///     DurationClass { weight: 0.1, duration: 19.0 },
/// ])?;
/// assert!(mixed.p_success(h, t) != p_success(h, t));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MixedLengthModel {
    classes: Vec<DurationClass>,
    mean_duration: f64,
}

impl MixedLengthModel {
    /// Creates a mixed-length model from duration classes.
    ///
    /// Weights are relative and normalized internally.
    ///
    /// # Errors
    ///
    /// Returns an error if the distribution is empty or contains
    /// non-positive weights or durations.
    pub fn new(classes: Vec<DurationClass>) -> Result<Self, LengthModelError> {
        if classes.is_empty() {
            return Err(LengthModelError::EmptyDistribution);
        }
        let mut total_weight = 0.0;
        for class in &classes {
            if !(class.weight.is_finite() && class.weight > 0.0) {
                return Err(LengthModelError::NonPositiveWeight(class.weight));
            }
            if !(class.duration.is_finite() && class.duration > 0.0) {
                return Err(LengthModelError::NonPositiveDuration(class.duration));
            }
            total_weight += class.weight;
        }
        let classes: Vec<DurationClass> = classes
            .into_iter()
            .map(|c| DurationClass {
                weight: c.weight / total_weight,
                duration: c.duration,
            })
            .collect();
        let mean_duration = classes.iter().map(|c| c.weight * c.duration).sum();
        Ok(MixedLengthModel {
            classes,
            mean_duration,
        })
    }

    /// The normalized duration classes.
    #[must_use]
    pub fn classes(&self) -> &[DurationClass] {
        &self.classes
    }

    /// Expected number of overlapping transactions seen by a tagged
    /// transaction of duration `duration` at density `density`.
    #[must_use]
    pub(crate) fn expected_overlaps(&self, duration: f64, density: Density) -> f64 {
        let lambda = (density.get() - 1) as f64 / self.mean_duration;
        lambda * (duration + self.mean_duration)
    }

    /// Marginal transaction success probability at identifier width `id`
    /// and density `density`.
    #[must_use]
    pub fn p_success(&self, id: IdBits, density: Density) -> f64 {
        let survival = 1.0 - 1.0 / id.space_size();
        self.classes
            .iter()
            .map(|c| c.weight * survival.powf(self.expected_overlaps(c.duration, density)))
            .sum()
    }

    /// Marginal collision probability: `1 - P(success)`.
    #[must_use]
    pub fn p_collision(&self, id: IdBits, density: Density) -> f64 {
        1.0 - self.p_success(id, density)
    }

    /// AFF efficiency (Eq. 3) under the mixed-length success probability.
    #[must_use]
    pub fn efficiency(&self, data: DataBits, id: IdBits, density: Density) -> Efficiency {
        let d = data.get() as f64;
        let h = id.get() as f64;
        Efficiency::new(d / (d + h) * self.p_success(id, density))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::p_success as eq4_p_success;

    fn h(bits: u8) -> IdBits {
        IdBits::new(bits).unwrap()
    }
    fn t(density: u64) -> Density {
        Density::new(density).unwrap()
    }
    fn class(weight: f64, duration: f64) -> DurationClass {
        DurationClass { weight, duration }
    }

    #[test]
    fn rejects_empty_distribution() {
        assert_eq!(
            MixedLengthModel::new(vec![]).unwrap_err(),
            LengthModelError::EmptyDistribution
        );
    }

    #[test]
    fn rejects_bad_weights_and_durations() {
        assert!(matches!(
            MixedLengthModel::new(vec![class(0.0, 1.0)]),
            Err(LengthModelError::NonPositiveWeight(_))
        ));
        assert!(matches!(
            MixedLengthModel::new(vec![class(1.0, -1.0)]),
            Err(LengthModelError::NonPositiveDuration(_))
        ));
        assert!(matches!(
            MixedLengthModel::new(vec![class(f64::NAN, 1.0)]),
            Err(LengthModelError::NonPositiveWeight(_))
        ));
    }

    #[test]
    fn weights_are_normalized() {
        let m = MixedLengthModel::new(vec![class(2.0, 1.0), class(6.0, 2.0)]).unwrap();
        let total: f64 = m.classes().iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((m.classes()[0].weight - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mean_duration_is_weighted_average() {
        let m = MixedLengthModel::new(vec![class(1.0, 2.0), class(1.0, 4.0)]).unwrap();
        assert!((m.mean_duration - 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_class_reduces_to_eq4() {
        // The generalized model must agree with Eq. 4 when all
        // transactions have equal length, for any length scale.
        for duration in [0.5, 1.0, 42.0] {
            let m = MixedLengthModel::new(vec![class(1.0, duration)]).unwrap();
            for density in [1u64, 2, 5, 16] {
                let got = m.p_success(h(8), t(density));
                let want = eq4_p_success(h(8), t(density));
                assert!(
                    (got - want).abs() < 1e-12,
                    "duration={duration} T={density}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn equal_length_overlap_count_matches_paper() {
        let m = MixedLengthModel::new(vec![class(1.0, 7.0)]).unwrap();
        assert!((m.expected_overlaps(7.0, t(5)) - 8.0).abs() < 1e-12); // 2(T-1)
    }

    #[test]
    fn long_transactions_collide_more_than_short() {
        let m = MixedLengthModel::new(vec![class(0.5, 1.0), class(0.5, 10.0)]).unwrap();
        let short = m.expected_overlaps(1.0, t(5));
        let long = m.expected_overlaps(10.0, t(5));
        assert!(long > short);
    }

    #[test]
    fn no_contention_is_always_success() {
        let m = MixedLengthModel::new(vec![class(0.3, 1.0), class(0.7, 9.0)]).unwrap();
        assert_eq!(m.p_success(h(4), t(1)), 1.0);
    }

    #[test]
    fn p_collision_complements_success() {
        let m = MixedLengthModel::new(vec![class(0.5, 1.0), class(0.5, 3.0)]).unwrap();
        let sum = m.p_success(h(6), t(5)) + m.p_collision(h(6), t(5));
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_mix_differs_from_equal_length_assumption() {
        // The Section 4.1 caveat quantified: same T, different collision
        // characteristics.
        let m = MixedLengthModel::new(vec![class(0.9, 1.0), class(0.1, 19.0)]).unwrap();
        let mixed = m.p_success(h(8), t(5));
        let uniform = eq4_p_success(h(8), t(5));
        assert!((mixed - uniform).abs() > 1e-6);
    }

    #[test]
    fn efficiency_uses_marginal_success() {
        let d = DataBits::new(16).unwrap();
        let m = MixedLengthModel::new(vec![class(1.0, 1.0)]).unwrap();
        let e = m.efficiency(d, h(9), t(16));
        let base = crate::efficiency::aff_efficiency(d, h(9), t(16));
        assert!((e.get() - base.get()).abs() < 1e-12);
    }
}
