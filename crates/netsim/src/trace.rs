//! Event tracing for debugging and analysis.
//!
//! A [`Tracer`] is an optional bounded ring buffer of medium-level
//! events — transmissions, per-receiver delivery outcomes, topology
//! changes. Protocol authors use it to answer "what actually happened
//! on the air?" without instrumenting their own code, and tests use it
//! to assert fine-grained causality that the aggregate
//! [`crate::medium::MediumStats`] cannot express.
//!
//! The tracer is an event log, not a metrics path: it keeps no counts
//! beyond the number of events it evicted. Its queries
//! ([`Tracer::deliveries_between`], [`Tracer::losses_at`]) filter the
//! *retained window*; the run's totals come from the engine's own
//! counters ([`crate::sim::ShardedSim::record_metrics`]).
//!
//! Tracing is off by default (zero cost); enable it with
//! [`crate::sim::ShardedSim::enable_trace`].

use std::collections::VecDeque;

use crate::node::NodeId;
use crate::time::SimTime;
use crate::topology::Position;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A node began transmitting a frame.
    TxStart {
        /// When.
        at: SimTime,
        /// Transmitting node.
        node: NodeId,
        /// Medium sequence number of the transmission.
        seq: u64,
        /// Bits on the air (payload + preamble).
        bits: u64,
    },
    /// A receiver got the frame.
    Delivered {
        /// When (transmission end).
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Medium sequence number.
        seq: u64,
    },
    /// A receiver got the frame, but the fault channel flipped payload
    /// bits in transit: what arrived is not what was sent. Whether the
    /// corruption is *detected* is up to the protocol's decoder (for
    /// AFF, `wire` parsing and the CRC-16 verdict).
    Corrupted {
        /// When (transmission end).
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Medium sequence number.
        seq: u64,
        /// How many payload bits were flipped.
        flipped_bits: u64,
    },
    /// A receiver in range did not get the frame.
    Lost {
        /// When (transmission end).
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// The receiver that missed it.
        to: NodeId,
        /// Medium sequence number.
        seq: u64,
        /// Why.
        reason: LossReason,
    },
    /// A node's liveness changed.
    Liveness {
        /// When.
        at: SimTime,
        /// The node.
        node: NodeId,
        /// New state.
        alive: bool,
    },
    /// A node moved.
    Moved {
        /// When.
        at: SimTime,
        /// The node.
        node: NodeId,
        /// New position.
        to: Position,
    },
}

/// Why a frame was not delivered to a particular receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossReason {
    /// Overlapping audible transmission.
    RfCollision,
    /// The receiver's own radio was transmitting.
    HalfDuplex,
    /// Independent random frame loss.
    RandomLoss,
    /// The receiver's radio was duty-cycled off.
    Asleep,
    /// The fault channel erased the whole frame.
    FaultErasure,
    /// A fault-model partition window severed the link.
    Partitioned,
}

impl LossReason {
    /// Every variant, in a fixed order (also the metric-label order).
    pub const ALL: [LossReason; 6] = [
        LossReason::RfCollision,
        LossReason::HalfDuplex,
        LossReason::RandomLoss,
        LossReason::Asleep,
        LossReason::FaultErasure,
        LossReason::Partitioned,
    ];

    /// The snake_case metric-label value for this reason.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LossReason::RfCollision => "rf_collision",
            LossReason::HalfDuplex => "half_duplex",
            LossReason::RandomLoss => "random_loss",
            LossReason::Asleep => "asleep",
            LossReason::FaultErasure => "fault_erasure",
            LossReason::Partitioned => "partitioned",
        }
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// When full, the oldest events are discarded (and counted), so a
/// long-running simulation cannot exhaust memory through its tracer.
#[derive(Debug)]
pub struct Tracer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Records one event, evicting the oldest when the buffer is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained losses suffered by `node`, oldest first.
    pub fn losses_at(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> {
        self.events()
            .filter(move |e| matches!(e, TraceEvent::Lost { to, .. } if *to == node))
    }

    /// Retained deliveries from `from` to `to`.
    #[must_use]
    pub fn deliveries_between(&self, from: NodeId, to: NodeId) -> usize {
        self.events()
            .filter(|e| {
                matches!(e, TraceEvent::Delivered { from: f, to: t, .. }
                         if *f == from && *t == to)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(seq: u64) -> TraceEvent {
        TraceEvent::TxStart {
            at: SimTime::from_micros(seq),
            node: NodeId(0),
            seq,
            bits: 8,
        }
    }

    fn lost(seq: u64, to: NodeId) -> TraceEvent {
        TraceEvent::Lost {
            at: SimTime::from_micros(seq),
            from: NodeId(0),
            to,
            seq,
            reason: LossReason::RfCollision,
        }
    }

    fn delivered(seq: u64, to: NodeId) -> TraceEvent {
        TraceEvent::Delivered {
            at: SimTime::from_micros(seq),
            from: NodeId(0),
            to,
            seq,
        }
    }

    /// Checks both filters, for every receiver the tests use, against a
    /// linear recount of the retained window.
    fn assert_filters_match_a_recount(tracer: &Tracer) {
        for node in 0..3u32 {
            let node = NodeId(node);
            let scan_deliveries = tracer
                .events
                .iter()
                .filter(|e| {
                    matches!(e, TraceEvent::Delivered { from, to, .. }
                             if *from == NodeId(0) && *to == node)
                })
                .count();
            assert_eq!(tracer.deliveries_between(NodeId(0), node), scan_deliveries);
            let scan_losses: Vec<&TraceEvent> = tracer
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Lost { to, .. } if *to == node))
                .collect();
            let filtered: Vec<&TraceEvent> = tracer.losses_at(node).collect();
            assert_eq!(filtered, scan_losses);
        }
    }

    #[test]
    fn ring_buffer_caps_and_counts_drops() {
        let mut tracer = Tracer::new(3);
        for seq in 0..5 {
            tracer.record(tx(seq));
        }
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.dropped(), 2);
        let seqs: Vec<u64> = tracer
            .events()
            .map(|e| match e {
                TraceEvent::TxStart { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest must be discarded first");
    }

    #[test]
    fn filters_select_by_node() {
        let mut tracer = Tracer::new(16);
        tracer.record(delivered(1, NodeId(1)));
        tracer.record(lost(1, NodeId(2)));
        assert_eq!(tracer.deliveries_between(NodeId(0), NodeId(1)), 1);
        assert_eq!(tracer.deliveries_between(NodeId(0), NodeId(2)), 0);
        assert_eq!(tracer.losses_at(NodeId(2)).count(), 1);
        assert_eq!(tracer.losses_at(NodeId(1)).count(), 0);
        assert_filters_match_a_recount(&tracer);
    }

    #[test]
    fn index_tracks_the_retained_window_across_eviction() {
        let mut tracer = Tracer::new(4);
        // Fill: D(1→a) L(→b) D(1→a) L(→b); then two more events evict
        // the first delivery and the first loss.
        tracer.record(delivered(0, NodeId(1)));
        tracer.record(lost(1, NodeId(2)));
        tracer.record(delivered(2, NodeId(1)));
        tracer.record(lost(3, NodeId(2)));
        assert_eq!(tracer.deliveries_between(NodeId(0), NodeId(1)), 2);
        assert_eq!(tracer.losses_at(NodeId(2)).count(), 2);
        assert_filters_match_a_recount(&tracer);

        tracer.record(tx(4));
        tracer.record(tx(5));
        assert_eq!(tracer.dropped(), 2);
        assert_eq!(tracer.deliveries_between(NodeId(0), NodeId(1)), 1);
        let retained: Vec<u64> = tracer
            .losses_at(NodeId(2))
            .map(|e| match e {
                TraceEvent::Lost { seq, .. } => *seq,
                other => panic!("losses_at returned {other:?}"),
            })
            .collect();
        assert_eq!(retained, vec![3], "only the newer loss is retained");
        assert_filters_match_a_recount(&tracer);
    }

    #[test]
    fn index_matches_a_linear_recount_under_heavy_eviction() {
        // Deterministic mixed stream, small capacity: the filters must
        // always answer what a linear recount of the retained window
        // gives.
        let mut tracer = Tracer::new(7);
        let mut state = 0x9E3779B97F4A7C15u64;
        for seq in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let to = NodeId((state >> 32) as u32 % 3);
            match state % 3 {
                0 => tracer.record(delivered(seq, to)),
                1 => tracer.record(lost(seq, to)),
                _ => tracer.record(tx(seq)),
            }
            assert_filters_match_a_recount(&tracer);
        }
        assert!(tracer.dropped() > 0, "the test must exercise eviction");
    }

    #[test]
    fn loss_reason_labels_are_unique() {
        let mut labels: Vec<&str> = LossReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), LossReason::ALL.len());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Tracer::new(0);
    }
}
