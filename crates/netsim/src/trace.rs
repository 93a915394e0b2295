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
//! beyond the number of events it evicted, and [`Tracer::events`] yields
//! only the *retained window*; the run's totals come from the engine's
//! own counters ([`crate::sim::ShardedSim::record_metrics`]).
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
