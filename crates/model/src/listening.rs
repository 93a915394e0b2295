//! Extension: a model of the *listening* heuristic (paper Section 3.2).
//!
//! Instead of picking identifiers blindly, a node can listen to ongoing
//! transmissions and avoid identifiers it has recently heard. The paper
//! measures this heuristic (Figure 4, "listening" series) but models only
//! the pessimistic uniform-selection bound (Eq. 4), leaving a listening
//! model as future work (Section 8). This module provides that refinement.
//!
//! # Model
//!
//! Consider a tagged transaction contending with up to `2(T-1)` overlap
//! events (as in Eq. 4). For each overlapping transaction:
//!
//! - With probability `hear` the tagged sender heard the contender's
//!   identifier before picking its own (it was transmitted in range,
//!   wasn't lost, and the radio was listening). Avoidance then makes a
//!   collision with *that* contender impossible, at the price of
//!   shrinking the selection pool from `2^H` to `2^H - w`, where `w` is
//!   the avoidance-window size (the paper uses the `2T` most recently
//!   heard identifiers).
//! - With probability `1 - hear` the contender was not heard (hidden
//!   terminal, RF loss, radio asleep, or a simultaneous-pick race) and the
//!   collision probability for that overlap is `1 / (2^H - w)` — uniform
//!   over the reduced pool.
//!
//! giving
//!
//! ```text
//! P(success) = (1 - (1 - hear) / (2^H - w))^(2(T-1))    for w < 2^H
//! ```
//!
//! With `hear = 0` and `w = 0` this degenerates to Eq. 4 exactly, and
//! with `hear = 1` collisions vanish — the two envelopes visible in the
//! paper's Figure 4.

use core::fmt;

use crate::params::{Density, IdBits};

/// Error returned when listening-model parameters are out of domain.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ListeningError {
    /// `hear` must be a probability in `[0, 1]`.
    HearProbabilityOutOfRange(f64),
    /// The avoidance window must leave at least one identifier to pick:
    /// `window < 2^H`.
    WindowExhaustsPool {
        /// Requested window size.
        window: u64,
        /// Identifier width whose pool it exhausts.
        id_bits: IdBits,
    },
}

impl fmt::Display for ListeningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ListeningError::HearProbabilityOutOfRange(p) => {
                write!(f, "hear probability {p} outside [0, 1]")
            }
            ListeningError::WindowExhaustsPool { window, id_bits } => write!(
                f,
                "avoidance window {window} leaves no free identifier in a {id_bits} pool"
            ),
        }
    }
}

impl std::error::Error for ListeningError {}

/// Parameters of the listening refinement.
///
/// # Examples
///
/// ```
/// use retri_model::listening::ListeningModel;
/// use retri_model::{Density, IdBits};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = Density::new(5)?;
/// let h = IdBits::new(8)?;
///
/// // Perfect listening in a fully connected testbed: no collisions.
/// let perfect = ListeningModel::new(1.0, t.get() * 2)?;
/// assert_eq!(perfect.p_success(h, t), 1.0);
///
/// // No listening degenerates to the pessimistic Eq. 4 bound.
/// let blind = ListeningModel::new(0.0, 0)?;
/// let eq4 = retri_model::p_success(h, t);
/// assert!((blind.p_success(h, t) - eq4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ListeningModel {
    hear: f64,
    window: u64,
}

impl ListeningModel {
    /// Creates a listening model.
    ///
    /// `hear` is the probability that a contender's identifier was heard
    /// before selection; `window` is the number of recently heard
    /// identifiers a sender avoids (the paper's adaptive rule uses
    /// `2T`).
    ///
    /// # Errors
    ///
    /// Returns [`ListeningError::HearProbabilityOutOfRange`] if `hear`
    /// is not in `[0, 1]`.
    pub fn new(hear: f64, window: u64) -> Result<Self, ListeningError> {
        if !(0.0..=1.0).contains(&hear) {
            return Err(ListeningError::HearProbabilityOutOfRange(hear));
        }
        Ok(ListeningModel { hear, window })
    }

    /// The paper's adaptive window rule: avoid identifiers heard within
    /// the most recent `2T` transactions (Section 5.1).
    ///
    /// # Errors
    ///
    /// Returns [`ListeningError::HearProbabilityOutOfRange`] if `hear` is
    /// not in `[0, 1]`.
    pub fn with_adaptive_window(hear: f64, density: Density) -> Result<Self, ListeningError> {
        ListeningModel::new(hear, 2 * density.get())
    }

    /// Returns the hear probability.
    #[must_use]
    pub fn hear(&self) -> f64 {
        self.hear
    }

    /// Returns the avoidance-window size.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Effective per-overlap collision probability at width `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ListeningError::WindowExhaustsPool`] if the avoidance
    /// window is at least the pool size: a sender that refuses every
    /// identifier cannot transmit at all.
    pub(crate) fn try_p_collision_per_overlap(&self, id: IdBits) -> Result<f64, ListeningError> {
        let pool = id.space_size();
        let window = self.window as f64;
        if window >= pool {
            return Err(ListeningError::WindowExhaustsPool {
                window: self.window,
                id_bits: id,
            });
        }
        Ok((1.0 - self.hear) / (pool - window))
    }

    /// Transaction success probability under listening.
    ///
    /// # Panics
    ///
    /// Panics if the avoidance window exhausts the identifier pool.
    #[must_use]
    pub fn p_success(&self, id: IdBits, density: Density) -> f64 {
        self.try_p_success(id, density)
            .expect("avoidance window must be smaller than the identifier pool")
    }

    /// Transaction success probability under listening.
    ///
    /// # Errors
    ///
    /// Returns [`ListeningError::WindowExhaustsPool`] if the window is at
    /// least the pool size.
    pub(crate) fn try_p_success(
        &self,
        id: IdBits,
        density: Density,
    ) -> Result<f64, ListeningError> {
        let c = self.try_p_collision_per_overlap(id)?;
        Ok((1.0 - c).powf(density.contending_overlaps() as f64))
    }
}

impl Default for ListeningModel {
    /// A blind selector: no listening, no avoidance (Eq. 4 exactly).
    fn default() -> Self {
        ListeningModel {
            hear: 0.0,
            window: 0,
        }
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

    #[test]
    fn rejects_bad_hear_probability() {
        assert!(matches!(
            ListeningModel::new(-0.1, 0),
            Err(ListeningError::HearProbabilityOutOfRange(_))
        ));
        assert!(matches!(
            ListeningModel::new(1.1, 0),
            Err(ListeningError::HearProbabilityOutOfRange(_))
        ));
    }

    #[test]
    fn blind_model_matches_eq4() {
        let blind = ListeningModel::default();
        for bits in [1u8, 4, 8, 16] {
            for density in [1u64, 5, 16] {
                let got = blind.p_success(h(bits), t(density));
                let want = eq4_p_success(h(bits), t(density));
                assert!((got - want).abs() < 1e-12, "H={bits} T={density}");
            }
        }
    }

    #[test]
    fn perfect_listening_never_collides() {
        let m = ListeningModel::new(1.0, 10).unwrap();
        assert_eq!(m.p_success(h(8), t(5)), 1.0);
        assert_eq!(m.p_success(h(8), t(256)), 1.0);
    }

    #[test]
    fn listening_dominates_blind_selection() {
        // With any positive hear probability and a window that does not
        // meaningfully shrink the pool, listening is at least as good.
        let blind = ListeningModel::default();
        let listen = ListeningModel::with_adaptive_window(0.9, t(5)).unwrap();
        for bits in 5..=16 {
            assert!(
                listen.p_success(h(bits), t(5)) >= blind.p_success(h(bits), t(5)),
                "listening must not hurt at H={bits}"
            );
        }
    }

    #[test]
    fn window_shrinks_pool_and_can_hurt_with_no_hearing() {
        // Avoidance without hearing is pure loss: the pool shrinks but no
        // collisions are prevented. This is why the paper says listening
        // "is usually not as helpful as making the identifier pool larger".
        let none = ListeningModel::new(0.0, 0).unwrap();
        let deaf_avoider = ListeningModel::new(0.0, 12).unwrap();
        assert!(deaf_avoider.p_success(h(4), t(5)) < none.p_success(h(4), t(5)));
    }

    #[test]
    fn exhausted_pool_is_an_error() {
        let m = ListeningModel::new(0.5, 16).unwrap();
        assert!(matches!(
            m.try_p_success(h(4), t(5)),
            Err(ListeningError::WindowExhaustsPool { .. })
        ));
        // One identifier left is still fine.
        let m = ListeningModel::new(0.5, 15).unwrap();
        assert!(m.try_p_success(h(4), t(5)).is_ok());
    }

    #[test]
    #[should_panic(expected = "avoidance window")]
    fn p_success_panics_on_exhausted_pool() {
        let m = ListeningModel::new(0.5, 300).unwrap();
        let _ = m.p_success(h(8), t(5));
    }

    #[test]
    fn errors_display_nonempty() {
        let err = ListeningModel::new(2.0, 0).unwrap_err();
        assert!(!err.to_string().is_empty());
        let err = ListeningModel::new(0.5, 1 << 20)
            .unwrap()
            .try_p_success(h(4), t(5))
            .unwrap_err();
        assert!(err.to_string().contains("window"));
    }
}
