//! Fault injection: bit errors, bursts, erasures, churn, partitions.
//!
//! The paper validates AFF on a real, noisy Radiometrix RPC channel;
//! [`crate::radio::RadioConfig::frame_loss`] only models *independent
//! whole-frame* loss, which never exercises the CRC-16 path with
//! corrupted bytes and never creates the bursty regimes a deployed
//! sensor network lives in. A [`FaultModel`] composes with the radio
//! model to add:
//!
//! - **per-bit corruption** and **whole-frame erasure** governed by a
//!   [`GilbertElliott`] good/bad two-state burst process (i.i.d. BER is
//!   the degenerate case where both states coincide),
//! - **scheduled churn**: node deaths and revivals applied through the
//!   simulator's existing `set_alive` machinery, and
//! - **partition windows**: time intervals during which frames crossing
//!   a node-group boundary are severed deterministically.
//!
//! All random fault decisions are drawn from each receiver's
//! *dedicated* fault stream (see [`crate::sim`]), so enabling faults
//! never moves a draw of any other stream, and a run with
//! [`FaultModel::none`] stays byte-identical to one with no fault model
//! at all.

use rand::rngs::StdRng;
use rand::Rng;

use crate::node::NodeId;
use crate::time::SimTime;

/// Channel quality while the Gilbert–Elliott process sits in one state.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChannelState {
    /// Probability that any single payload bit is flipped.
    pub bit_error_rate: f64,
    /// Probability that the whole frame is erased (lost before decode).
    pub frame_erasure: f64,
}

impl ChannelState {
    /// A state that corrupts and erases nothing.
    #[must_use]
    pub fn clean() -> Self {
        ChannelState {
            bit_error_rate: 0.0,
            frame_erasure: 0.0,
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.bit_error_rate),
            "bit_error_rate must be a probability, got {}",
            self.bit_error_rate
        );
        assert!(
            (0.0..=1.0).contains(&self.frame_erasure),
            "frame_erasure must be a probability, got {}",
            self.frame_erasure
        );
    }
}

/// What the channel did to one delivered frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameFault {
    /// The frame was erased outright.
    pub erased: bool,
    /// Per-bit flip probability to apply if not erased.
    pub bit_error_rate: f64,
}

/// A Gilbert–Elliott two-state burst channel.
///
/// The process holds a good/bad state per receiver and steps once per
/// frame: from good it moves to bad with probability `to_bad`, from bad
/// back to good with probability `to_good`. The stationary probability
/// of the bad state is `to_bad / (to_bad + to_good)`.
///
/// When the two states coincide ([`GilbertElliott::iid`]) the process
/// degenerates *exactly* to an i.i.d. channel: the transition draw is
/// skipped entirely, so the decision stream equals a plain Bernoulli
/// sequence over the same RNG — bit-for-bit, not just in distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GilbertElliott {
    /// Channel quality in the good state.
    pub good: ChannelState,
    /// Channel quality in the bad state.
    pub bad: ChannelState,
    /// Per-frame transition probability good → bad.
    pub to_bad: f64,
    /// Per-frame transition probability bad → good.
    pub to_good: f64,
}

impl GilbertElliott {
    /// An i.i.d. channel: both states share `state`, so no burst
    /// structure exists and no transition draws are consumed.
    #[must_use]
    pub fn iid(state: ChannelState) -> Self {
        state.validate();
        GilbertElliott {
            good: state,
            bad: state,
            to_bad: 0.0,
            to_good: 0.0,
        }
    }

    /// A bursty channel with distinct good/bad states.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]`.
    #[must_use]
    pub fn bursty(good: ChannelState, bad: ChannelState, to_bad: f64, to_good: f64) -> Self {
        good.validate();
        bad.validate();
        assert!(
            (0.0..=1.0).contains(&to_bad) && (0.0..=1.0).contains(&to_good),
            "transition probabilities must lie in [0, 1], got {to_bad} / {to_good}"
        );
        GilbertElliott {
            good,
            bad,
            to_bad,
            to_good,
        }
    }

    /// Whether the process is the degenerate i.i.d. case (both states
    /// coincide, so transitions are unobservable).
    #[must_use]
    pub fn is_degenerate(&self) -> bool {
        self.good == self.bad
    }

    /// Stationary probability of the bad state:
    /// `to_bad / (to_bad + to_good)`, or `0` when both transition
    /// probabilities are zero.
    #[must_use]
    pub fn stationary_bad(&self) -> f64 {
        let total = self.to_bad + self.to_good;
        if total == 0.0 {
            0.0
        } else {
            self.to_bad / total
        }
    }

    /// Steps the per-receiver state one frame and returns the governing
    /// channel quality. Degenerate (i.i.d.) channels consume no draw.
    pub fn step(&self, in_bad: &mut bool, rng: &mut StdRng) -> ChannelState {
        if !self.is_degenerate() {
            let p = if *in_bad { self.to_good } else { self.to_bad };
            if rng.gen_range(0.0..1.0) < p {
                *in_bad = !*in_bad;
            }
        }
        if *in_bad {
            self.bad
        } else {
            self.good
        }
    }

    /// Judges one frame: steps the state, then draws the erasure
    /// decision (one draw, skipped when the governing state cannot
    /// erase). The returned [`FrameFault`] carries the bit-error rate
    /// for the caller to apply per payload bit.
    pub fn judge_frame(&self, in_bad: &mut bool, rng: &mut StdRng) -> FrameFault {
        let state = self.step(in_bad, rng);
        let erased = state.frame_erasure > 0.0 && rng.gen_range(0.0..1.0) < state.frame_erasure;
        FrameFault {
            erased,
            bit_error_rate: state.bit_error_rate,
        }
    }
}

/// A scheduled liveness change applied at simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChurnEvent {
    /// When the change applies.
    pub at: SimTime,
    /// The node whose liveness changes. The node must have been added
    /// to the simulator before this time is reached.
    pub node: NodeId,
    /// `false` kills the node, `true` revives it.
    pub alive: bool,
}

/// A time window during which one node group is cut off from the rest.
///
/// While `start <= now < end`, any frame whose sender and receiver sit
/// on opposite sides of the group boundary is severed deterministically
/// (no RNG draw), counted as a partition loss.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PartitionWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// The isolated group; membership is tested by linear scan, so keep
    /// groups small (they describe a cut, not a census).
    pub group: Vec<NodeId>,
}

impl PartitionWindow {
    /// Creates a window isolating `group` during `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics unless `start < end`.
    #[must_use]
    pub fn new(start: SimTime, end: SimTime, group: Vec<NodeId>) -> Self {
        assert!(start < end, "partition window must have positive length");
        PartitionWindow { start, end, group }
    }

    fn contains(&self, node: NodeId) -> bool {
        self.group.contains(&node)
    }

    /// Whether this window severs a frame from `from` to `to` at `at`.
    #[must_use]
    pub(crate) fn severs(&self, from: NodeId, to: NodeId, at: SimTime) -> bool {
        self.start <= at && at < self.end && (self.contains(from) != self.contains(to))
    }
}

/// The complete fault configuration of a simulation run.
///
/// The default ([`FaultModel::none`]) injects nothing and adds zero
/// cost and zero RNG draws to the hot path.
#[derive(Debug, Clone, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FaultModel {
    channel: Option<GilbertElliott>,
    churn: Vec<ChurnEvent>,
    partitions: Vec<PartitionWindow>,
}

impl FaultModel {
    /// No faults: the identity model.
    #[must_use]
    pub fn none() -> Self {
        FaultModel::default()
    }

    /// Whether this model injects nothing at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.channel.is_none() && self.churn.is_empty() && self.partitions.is_empty()
    }

    /// Sets the Gilbert–Elliott corruption/erasure channel.
    #[must_use]
    pub fn with_channel(mut self, channel: GilbertElliott) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Adds one scheduled death/revival.
    #[must_use]
    pub fn with_churn_event(mut self, at: SimTime, node: NodeId, alive: bool) -> Self {
        self.churn.push(ChurnEvent { at, node, alive });
        self
    }

    /// Adds a partition window.
    #[must_use]
    pub fn with_partition(mut self, window: PartitionWindow) -> Self {
        self.partitions.push(window);
        self
    }

    /// The corruption/erasure channel, if any.
    #[must_use]
    pub fn channel(&self) -> Option<GilbertElliott> {
        self.channel
    }

    /// The scheduled churn events.
    #[must_use]
    pub fn churn(&self) -> &[ChurnEvent] {
        &self.churn
    }

    /// The partition windows.
    #[must_use]
    pub fn partitions(&self) -> &[PartitionWindow] {
        &self.partitions
    }

    /// Whether any partition window severs `from → to` at `at`.
    #[must_use]
    pub(crate) fn severs(&self, from: NodeId, to: NodeId, at: SimTime) -> bool {
        !self.partitions.is_empty() && self.partitions.iter().any(|w| w.severs(from, to, at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_model_is_inert() {
        let model = FaultModel::none();
        assert!(model.is_none());
        assert!(model.channel().is_none());
        assert!(!model.severs(NodeId(0), NodeId(1), SimTime::ZERO));
    }

    #[test]
    fn partition_severs_only_across_the_cut_during_the_window() {
        let window = PartitionWindow::new(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            vec![NodeId(0), NodeId(1)],
        );
        let model = FaultModel::none().with_partition(window);
        let inside = SimTime::from_millis(1500);
        // Across the cut, inside the window: severed.
        assert!(model.severs(NodeId(0), NodeId(2), inside));
        assert!(model.severs(NodeId(2), NodeId(1), inside));
        // Same side (either side): not severed.
        assert!(!model.severs(NodeId(0), NodeId(1), inside));
        assert!(!model.severs(NodeId(2), NodeId(3), inside));
        // Outside the window: not severed.
        assert!(!model.severs(NodeId(0), NodeId(2), SimTime::from_millis(999)));
        assert!(!model.severs(NodeId(0), NodeId(2), SimTime::from_secs(2)));
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn empty_partition_window_rejected() {
        let _ = PartitionWindow::new(SimTime::from_secs(1), SimTime::from_secs(1), vec![]);
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn invalid_bit_error_rate_rejected() {
        let _ = GilbertElliott::iid(ChannelState {
            bit_error_rate: 1.5,
            frame_erasure: 0.0,
        });
    }

    #[test]
    fn stationary_bad_matches_transition_ratio() {
        let ge = GilbertElliott::bursty(
            ChannelState::clean(),
            ChannelState {
                bit_error_rate: 0.01,
                frame_erasure: 0.2,
            },
            0.1,
            0.3,
        );
        assert!((ge.stationary_bad() - 0.25).abs() < 1e-12);
        assert_eq!(
            GilbertElliott::iid(ChannelState::clean()).stationary_bad(),
            0.0
        );
    }

    #[test]
    fn degenerate_channel_consumes_no_transition_draws() {
        // A degenerate channel's erasure decisions must be bit-for-bit
        // identical to a plain Bernoulli sequence over the same RNG.
        let p = 0.3;
        let ge = GilbertElliott::iid(ChannelState {
            bit_error_rate: 0.0,
            frame_erasure: p,
        });
        let mut channel_rng = StdRng::seed_from_u64(99);
        let mut plain_rng = StdRng::seed_from_u64(99);
        let mut in_bad = false;
        for _ in 0..10_000 {
            let fault = ge.judge_frame(&mut in_bad, &mut channel_rng);
            let plain = plain_rng.gen_range(0.0..1.0) < p;
            assert_eq!(fault.erased, plain);
            assert!(!in_bad, "degenerate channel never enters the bad state");
        }
    }
}
