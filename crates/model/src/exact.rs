//! Refinements of Eq. 4: exact collision probabilities.
//!
//! Eq. 4 is deliberately simple — every one of the `2(T-1)` overlap
//! events is treated as an independent uniform draw. Section 8 lists
//! "refining our analysis" as ongoing work; this module provides the
//! two standard exact quantities the approximation brackets:
//!
//! - [`p_success_snapshot`] — the probability that a tagged
//!   transaction's identifier is unique among `T-1` concurrently active
//!   peers at one instant: `(1 - 2^-H)^(T-1)`. Eq. 4 doubles the
//!   exponent to account for the churn of overlapping windows, so it is
//!   always the more pessimistic of the two.
//! - [`p_all_distinct`] — the birthday-problem probability that *all*
//!   `T` concurrent transactions hold mutually distinct identifiers:
//!   `∏_{i=1}^{T-1} (1 - i/2^H)`, exactly zero once `T` exceeds the
//!   pool (pigeonhole).

use crate::params::{Density, IdBits};

/// Probability a tagged transaction is unique among `T - 1` concurrent
/// peers at a snapshot in time.
///
/// # Examples
///
/// ```
/// use retri_model::exact::p_success_snapshot;
/// use retri_model::{p_success, Density, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let h = IdBits::new(8)?;
/// let t = Density::new(5)?;
/// // Eq. 4 double-counts overlap churn, so it is always at or below
/// // the snapshot probability.
/// assert!(p_success(h, t) <= p_success_snapshot(h, t));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn p_success_snapshot(id: IdBits, density: Density) -> f64 {
    let survival = 1.0 - 1.0 / id.space_size();
    survival.powf((density.get() - 1) as f64)
}

/// Birthday probability that all `T` concurrent transactions hold
/// distinct identifiers.
///
/// Returns exactly `0.0` when `T` exceeds the pool size (pigeonhole).
///
/// # Examples
///
/// ```
/// use retri_model::exact::p_all_distinct;
/// use retri_model::{Density, IdBits};
///
/// # fn main() -> Result<(), retri_model::ModelError> {
/// let h = IdBits::new(2)?; // four identifiers
/// assert_eq!(p_all_distinct(h, Density::new(5)?), 0.0); // pigeonhole
/// // T=2 over 4 ids: 3/4 chance of distinctness.
/// assert!((p_all_distinct(h, Density::new(2)?) - 0.75).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn p_all_distinct(id: IdBits, density: Density) -> f64 {
    let pool = id.space_size();
    if u128::from(density.get()) > id.space_len() {
        return 0.0;
    }
    let mut p = 1.0;
    for i in 1..density.get() {
        p *= 1.0 - i as f64 / pool;
        if p == 0.0 {
            break;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::p_success as eq4;

    fn h(bits: u8) -> IdBits {
        IdBits::new(bits).unwrap()
    }
    fn t(density: u64) -> Density {
        Density::new(density).unwrap()
    }

    #[test]
    fn eq4_is_the_pessimistic_bound() {
        for bits in [1u8, 4, 8, 16] {
            for density in [1u64, 2, 5, 16, 256] {
                assert!(
                    eq4(h(bits), t(density)) <= p_success_snapshot(h(bits), t(density)) + 1e-15,
                    "H={bits} T={density}"
                );
            }
        }
    }

    #[test]
    fn snapshot_equals_eq4_squared_relationship() {
        // Eq. 4's exponent is exactly twice the snapshot's, so
        // P_eq4 = P_snapshot^2.
        for bits in [4u8, 8, 12] {
            for density in [2u64, 5, 16] {
                let snap = p_success_snapshot(h(bits), t(density));
                assert!((eq4(h(bits), t(density)) - snap * snap).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn all_distinct_is_stricter_than_tagged_uniqueness() {
        for bits in [4u8, 8] {
            for density in [2u64, 5, 10] {
                assert!(
                    p_all_distinct(h(bits), t(density))
                        <= p_success_snapshot(h(bits), t(density)) + 1e-15
                );
            }
        }
    }

    #[test]
    fn pigeonhole_is_exact() {
        assert_eq!(p_all_distinct(h(2), t(5)), 0.0);
        assert_eq!(p_all_distinct(h(2), t(4)), 4.0 * 3.0 * 2.0 * 1.0 / 256.0);
        assert!(p_all_distinct(h(2), t(4)) > 0.0);
    }

    #[test]
    fn single_transaction_always_distinct() {
        for bits in [1u8, 8, 64] {
            assert_eq!(p_all_distinct(h(bits), t(1)), 1.0);
            assert_eq!(p_success_snapshot(h(bits), t(1)), 1.0);
        }
    }

    #[test]
    fn all_distinct_monotone_in_width() {
        let mut last = 0.0;
        for bits in 4..=16u8 {
            let p = p_all_distinct(h(bits), t(16));
            assert!(p >= last);
            last = p;
        }
        assert!(last > 0.99);
    }
}
