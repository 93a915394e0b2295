//! Extension: the optimal frame setting for Dynamic-Frame Aloha.
//!
//! Dynamic-Frame Aloha (DFA) divides time into frames of `L` slots; each
//! of the `N` backlogged nodes transmits in exactly one uniformly chosen
//! slot per frame, and a slot delivers iff exactly one node chose it.
//! Barletta, Borgonovo & Cesana (*"A formal proof of the optimal frame
//! setting for Dynamic-Frame Aloha with known population size"*,
//! PAPERS.md) prove the frame length maximizing per-slot throughput with
//! a known population is exactly `L* = N`.
//!
//! The derivation is elementary here because one frame is memoryless: a
//! given node succeeds iff the other `N - 1` nodes all avoid its slot,
//! so the expected number of successful slots per frame is
//! `N · (1 - 1/L)^(N-1)` and the per-slot throughput
//!
//! ```text
//! f(L) = (N / L) · (1 - 1/L)^(N-1)
//! ```
//!
//! Differentiating `ln f` gives `d/dL ln f = -1/L + (N-1)/(L(L-1))`,
//! which is positive for `L < N` and negative for `L > N`: the unique
//! integer maximum sits at `L = N`, where throughput approaches `1/e` as
//! `N` grows. The netsim DFA MAC sizes each frame from this rule — with
//! `N` either known or read from the (side-effect-free)
//! `DensityEstimator` — and the bench harness asserts the measured
//! throughput lands inside the Wilson interval of these predictions.

use core::fmt;

/// Closed-form predictions for one DFA operating point `(N, L)`.
///
/// Produced by [`predict`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DfaPoint {
    /// Backlogged population `N`.
    pub population: u64,
    /// Frame length `L` in slots.
    pub frame_length: u64,
    /// Probability a given node's transmission succeeds in one frame:
    /// `(1 - 1/L)^(N-1)`.
    pub p_success: f64,
    /// Expected successful slots per frame: `N · p_success`.
    pub expected_successes: f64,
    /// Per-slot throughput `f(L) = expected_successes / L` — the
    /// efficiency `E` of the frame: the fraction of airtime slots that
    /// carry exactly one transmission.
    pub throughput: f64,
}

impl fmt::Display for DfaPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DFA N={} L={}: P(success)={:.4}, throughput {:.4}",
            self.population, self.frame_length, self.p_success, self.throughput
        )
    }
}

/// The frame length maximizing per-slot throughput for a known
/// population of `n` backlogged nodes: `L* = N` (Barletta et al.).
///
/// A population of zero has nothing to schedule; the minimum useful
/// frame is one slot, so the result is clamped to at least 1.
///
/// # Examples
///
/// ```
/// use retri_model::dfa::optimal_frame_length;
///
/// assert_eq!(optimal_frame_length(16), 16);
/// assert_eq!(optimal_frame_length(0), 1);
/// ```
#[must_use]
pub fn optimal_frame_length(n: u64) -> u64 {
    n.max(1)
}

/// Probability that one node's transmission succeeds in a frame of `l`
/// slots shared with `n - 1` other nodes: `(1 - 1/l)^(n-1)`.
///
/// Degenerate inputs are total: `n = 0` or `l = 0` yield 0 (nothing can
/// succeed in an empty frame; with no population the probability is
/// vacuous and reported as 0), and a lone node always succeeds.
#[must_use]
pub fn attempt_success_probability(n: u64, l: u64) -> f64 {
    if n == 0 || l == 0 {
        return 0.0;
    }
    if n == 1 {
        return 1.0;
    }
    if l == 1 {
        // Two or more nodes in a single slot always collide.
        return 0.0;
    }
    (1.0 - 1.0 / l as f64).powi((n - 1).min(i32::MAX as u64) as i32)
}

/// Expected number of successful slots in one frame: `n · (1-1/l)^(n-1)`.
#[must_use]
pub(crate) fn expected_successes(n: u64, l: u64) -> f64 {
    n as f64 * attempt_success_probability(n, l)
}

/// Per-slot throughput `f(l) = (n/l) · (1 - 1/l)^(n-1)` — the expected
/// fraction of the frame's slots that deliver.
#[must_use]
pub fn slot_throughput(n: u64, l: u64) -> f64 {
    if l == 0 {
        return 0.0;
    }
    expected_successes(n, l) / l as f64
}

/// Closed-form predictions at an explicit operating point `(n, l)`.
///
/// # Examples
///
/// ```
/// use retri_model::dfa::{optimal_frame_length, predict};
///
/// let p = predict(16, optimal_frame_length(16));
/// assert_eq!(p.frame_length, 16);
/// // Optimal throughput approaches 1/e from above as N grows.
/// assert!(p.throughput > 1.0 / std::f64::consts::E);
/// assert!(p.throughput < 0.4);
/// ```
#[must_use]
pub fn predict(n: u64, l: u64) -> DfaPoint {
    DfaPoint {
        population: n,
        frame_length: l,
        p_success: attempt_success_probability(n, l),
        expected_successes: expected_successes(n, l),
        throughput: slot_throughput(n, l),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_node_always_succeeds() {
        assert!((attempt_success_probability(1, 1) - 1.0).abs() < 1e-12);
        assert!((slot_throughput(1, 1) - 1.0).abs() < 1e-12);
        assert_eq!(optimal_frame_length(1), 1);
    }

    #[test]
    fn single_slot_frames_always_collide() {
        assert_eq!(attempt_success_probability(2, 1), 0.0);
        assert_eq!(slot_throughput(5, 1), 0.0);
    }

    #[test]
    fn degenerate_inputs_are_total() {
        assert_eq!(attempt_success_probability(0, 8), 0.0);
        assert_eq!(attempt_success_probability(8, 0), 0.0);
        assert_eq!(slot_throughput(8, 0), 0.0);
        assert_eq!(optimal_frame_length(0), 1);
    }

    #[test]
    fn pair_in_two_slots_matches_hand_count() {
        // Two nodes, two slots: 4 equally likely placements, 2 of which
        // separate them. Each node succeeds with probability 1/2 and
        // the expected successes are 1 of 2 slots.
        assert!((attempt_success_probability(2, 2) - 0.5).abs() < 1e-12);
        assert!((expected_successes(2, 2) - 1.0).abs() < 1e-12);
        assert!((slot_throughput(2, 2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn optimal_throughput_decreases_toward_inv_e() {
        let inv_e = 1.0 / std::f64::consts::E;
        let mut prev = f64::INFINITY;
        for n in 1..=256u64 {
            let f = slot_throughput(n, optimal_frame_length(n));
            assert!(f > inv_e, "N={n}: {f} <= 1/e");
            assert!(f <= prev, "optimal throughput must be nonincreasing");
            prev = f;
        }
        assert!((slot_throughput(4096, optimal_frame_length(4096)) - inv_e).abs() < 1e-3);
    }

    #[test]
    fn prediction_fields_are_consistent() {
        let p = predict(12, 16);
        assert!((p.expected_successes - 12.0 * p.p_success).abs() < 1e-12);
        assert!((p.throughput - p.expected_successes / 16.0).abs() < 1e-12);
        assert_eq!(p.population, 12);
        assert_eq!(p.frame_length, 16);
    }

    #[test]
    fn display_reads_naturally() {
        let text = predict(8, 8).to_string();
        assert!(text.contains("N=8"));
        assert!(text.contains("L=8"));
    }
}
