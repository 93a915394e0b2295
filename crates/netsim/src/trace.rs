//! Event tracing for debugging and analysis.
//!
//! A [`Tracer`] is an optional bounded ring buffer of medium-level
//! events — transmissions, per-receiver delivery outcomes, topology
//! changes. Protocol authors use it to answer "what actually happened
//! on the air?" without instrumenting their own code, and tests use it
//! to assert fine-grained causality that the aggregate
//! [`crate::shard::MediumStats`] cannot express.
//!
//! Alongside the ring buffer the tracer maintains an *index* in a
//! [`retri_obs::Registry`]: monotonic recorded/evicted counters per
//! `(from, to)` delivery pair and per-receiver loss lists, so the
//! query methods ([`Tracer::deliveries_between`],
//! [`Tracer::losses_at`]) answer from the index instead of scanning
//! every retained event. The public semantics are unchanged — both
//! still describe the *retained window* — the linear scans are gone.
//!
//! Tracing is off by default (zero cost); enable it with
//! [`crate::shard::ShardedSim::enable_trace`].

use std::collections::{HashMap, VecDeque};

use retri_obs::{CounterId, Registry, Snapshot};

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

    pub(crate) fn index(self) -> usize {
        match self {
            LossReason::RfCollision => 0,
            LossReason::HalfDuplex => 1,
            LossReason::RandomLoss => 2,
            LossReason::Asleep => 3,
            LossReason::FaultErasure => 4,
            LossReason::Partitioned => 5,
        }
    }
}

/// A bounded ring buffer of [`TraceEvent`]s with an indexed side table.
///
/// When full, the oldest events are discarded (and counted), so a
/// long-running simulation cannot exhaust memory through its tracer.
/// The index stays consistent with the window: recorded and evicted
/// counters both only grow (they live in a [`Registry`]), and a
/// window count is always `recorded - evicted`.
#[derive(Debug)]
pub struct Tracer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    /// Total events ever recorded; the ordinal of the next event.
    recorded: u64,
    registry: Registry,
    delivered: HashMap<(NodeId, NodeId), CounterId>,
    delivered_evicted: HashMap<(NodeId, NodeId), CounterId>,
    losses: HashMap<NodeId, CounterId>,
    losses_evicted: HashMap<NodeId, CounterId>,
    /// Ordinals of retained `Lost` events, per receiver, oldest first.
    loss_ordinals: HashMap<NodeId, VecDeque<u64>>,
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
            recorded: 0,
            registry: Registry::new(),
            delivered: HashMap::new(),
            delivered_evicted: HashMap::new(),
            losses: HashMap::new(),
            losses_evicted: HashMap::new(),
            loss_ordinals: HashMap::new(),
        }
    }

    fn delivered_id(&mut self, from: NodeId, to: NodeId, evicted: bool) -> CounterId {
        let (cache, name) = if evicted {
            (
                &mut self.delivered_evicted,
                "netsim_trace_deliveries_evicted_total",
            )
        } else {
            (&mut self.delivered, "netsim_trace_deliveries_total")
        };
        *cache.entry((from, to)).or_insert_with(|| {
            self.registry.counter(
                name,
                &[
                    ("from", &from.index().to_string()),
                    ("to", &to.index().to_string()),
                ],
            )
        })
    }

    fn loss_id(&mut self, to: NodeId, evicted: bool) -> CounterId {
        let (cache, name) = if evicted {
            (
                &mut self.losses_evicted,
                "netsim_trace_losses_evicted_total",
            )
        } else {
            (&mut self.losses, "netsim_trace_losses_total")
        };
        *cache.entry(to).or_insert_with(|| {
            self.registry
                .counter(name, &[("to", &to.index().to_string())])
        })
    }

    /// Records one event, evicting (and index-adjusting) the oldest
    /// when the buffer is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            let evicted = self.events.pop_front().expect("buffer is full");
            self.dropped += 1;
            match evicted {
                TraceEvent::Delivered { from, to, .. } => {
                    let id = self.delivered_id(from, to, true);
                    self.registry.add(id, 1);
                }
                TraceEvent::Lost { to, .. } => {
                    let id = self.loss_id(to, true);
                    self.registry.add(id, 1);
                    let ordinals = self
                        .loss_ordinals
                        .get_mut(&to)
                        .expect("retained loss has an ordinal list");
                    let front = ordinals.pop_front();
                    debug_assert_eq!(front, Some(self.dropped - 1));
                }
                _ => {}
            }
        }
        let ordinal = self.recorded;
        self.recorded += 1;
        match event {
            TraceEvent::Delivered { from, to, .. } => {
                let id = self.delivered_id(from, to, false);
                self.registry.add(id, 1);
            }
            TraceEvent::Lost { to, .. } => {
                let id = self.loss_id(to, false);
                self.registry.add(id, 1);
                self.loss_ordinals.entry(to).or_default().push_back(ordinal);
            }
            _ => {}
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

    /// A snapshot of the index registry (the
    /// `netsim_trace_deliveries[_evicted]_total` and
    /// `netsim_trace_losses[_evicted]_total` counter families).
    #[must_use]
    pub fn index_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Retained losses suffered by `node`, oldest first.
    ///
    /// Compatibility shim over the index: walks only that node's
    /// retained-loss ordinals (O(losses at `node`)) instead of
    /// filtering every retained event.
    pub fn losses_at(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> {
        self.loss_ordinals
            .get(&node)
            .into_iter()
            .flat_map(move |ordinals| {
                ordinals.iter().map(move |ordinal| {
                    let slot = (ordinal - self.dropped) as usize;
                    &self.events[slot]
                })
            })
    }

    /// Retained deliveries from `from` to `to`.
    ///
    /// Compatibility shim over the index: the answer is the recorded
    /// minus the evicted counter for the pair — O(1), no scan.
    #[must_use]
    pub fn deliveries_between(&self, from: NodeId, to: NodeId) -> usize {
        let recorded = self
            .delivered
            .get(&(from, to))
            .map_or(0, |id| self.registry.counter_value(*id));
        let evicted = self
            .delivered_evicted
            .get(&(from, to))
            .map_or(0, |id| self.registry.counter_value(*id));
        (recorded - evicted) as usize
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

        let snapshot = tracer.index_snapshot();
        assert_eq!(snapshot.counter("netsim_trace_deliveries_total"), 2);
        assert_eq!(snapshot.counter("netsim_trace_deliveries_evicted_total"), 1);
        assert_eq!(snapshot.counter("netsim_trace_losses_total"), 2);
        assert_eq!(snapshot.counter("netsim_trace_losses_evicted_total"), 1);
    }

    #[test]
    fn index_matches_a_linear_recount_under_heavy_eviction() {
        // Deterministic mixed stream, small capacity: the indexed
        // answers must always equal what the old linear scans computed.
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
            for node in 0..3u32 {
                let node = NodeId(node);
                let scan_deliveries = tracer
                    .events()
                    .filter(|e| {
                        matches!(e, TraceEvent::Delivered { from, to, .. }
                                 if *from == NodeId(0) && *to == node)
                    })
                    .count();
                assert_eq!(tracer.deliveries_between(NodeId(0), node), scan_deliveries);
                let scan_losses: Vec<&TraceEvent> = tracer
                    .events()
                    .filter(|e| matches!(e, TraceEvent::Lost { to, .. } if *to == node))
                    .collect();
                let indexed: Vec<&TraceEvent> = tracer.losses_at(node).collect();
                assert_eq!(indexed, scan_losses);
            }
        }
        assert!(tracer.dropped() > 0, "the test must exercise eviction");
    }

    #[test]
    fn loss_reason_labels_are_unique() {
        let mut labels: Vec<&str> = LossReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), LossReason::ALL.len());
        for reason in LossReason::ALL {
            assert_eq!(LossReason::ALL[reason.index()], reason);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Tracer::new(0);
    }
}
