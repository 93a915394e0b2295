//! The sending side of the fragmentation service, as a simulator
//! protocol.
//!
//! An [`AffSender`] reproduces the paper's transmitter workload
//! (Section 5.1): a stream of fixed-size packets of random bytes, each
//! fragmented under a fresh key chosen by a pluggable
//! [`SelectorPolicy`]. In the *saturating* mode a sender tops up its
//! radio queue whenever it runs dry — "a continuous stream of random
//! 80-byte packets" — and in the *periodic* mode it offers a fixed
//! packet rate, which the load-sweep ablations use. Sending, listening
//! and notification-triggered retransmission are the shared endpoint
//! rules of [`crate::service::AffService`].

use rand::{Rng, RngCore};
use retri::permutation::{PermutationSelector, SequentialSelector};
use retri::select::{AdaptiveListeningSelector, IdSelector, ListeningSelector, UniformSelector};
use retri::TransactionId;
use retri_netsim::{Context, Frame, Protocol, SimDuration, SimTime, Timer};

use crate::endpoint::Outbox;
use crate::frag::FragmentError;
use crate::wire::{Body, Truth, WireConfig};

/// How a sender picks the key of each packet: the two series of the
/// paper's Figure 4, the adaptive variant of Section 5.1, two structured
/// selectors, and the static-address baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SelectorPolicy {
    /// Uniform random selection, no learned state (the Eq. 4 bound).
    Uniform,
    /// Avoid the last `window` identifiers heard on the air.
    Listening {
        /// Window size in observations.
        window: usize,
    },
    /// Listening with the window adapted to `2·T̂`, where `T̂` is
    /// estimated from identifiers heard within the given horizon.
    AdaptiveListening {
        /// How long (µs) a heard transaction counts as concurrent.
        concurrency_ttl_micros: u64,
    },
    /// PERIDOT-style keyed-permutation walk: collision-free within any
    /// window of `2^H` draws, unpredictable without the key (drawn from
    /// the node's RNG stream on first use).
    Permutation,
    /// A counter from a random start — the IPv4-ID taxonomy's
    /// predictable policy, used as the adversarial harness's attack
    /// target.
    Sequential,
    /// IP-style static addressing, the paper's baseline: the key is
    /// `WireConfig::static_key` of the node's address
    /// ([`Context::node_id`]) and a per-sender packet counter modulo
    /// `2^seq_bits`. Draws no randomness and ignores the air. Only valid
    /// on a [`WireConfig::static_address`] wire with the same
    /// `seq_bits`.
    StaticAddress {
        /// Sequence-number width.
        seq_bits: u32,
    },
}

/// A selector instantiated from a [`SelectorPolicy`].
#[derive(Debug, Clone)]
pub(crate) enum PolicySelector {
    Uniform(UniformSelector),
    Listening(ListeningSelector),
    Adaptive(AdaptiveListeningSelector),
    Permutation(PermutationSelector),
    Sequential(SequentialSelector),
    StaticAddress { seq_bits: u32, next_seq: u64 },
}

impl PolicySelector {
    pub(crate) fn build(policy: SelectorPolicy, space: retri::IdentifierSpace) -> Self {
        match policy {
            SelectorPolicy::Uniform => PolicySelector::Uniform(UniformSelector::new(space)),
            SelectorPolicy::Listening { window } => {
                PolicySelector::Listening(ListeningSelector::new(space, window))
            }
            SelectorPolicy::AdaptiveListening {
                concurrency_ttl_micros,
            } => PolicySelector::Adaptive(AdaptiveListeningSelector::new(
                space,
                concurrency_ttl_micros,
            )),
            SelectorPolicy::Permutation => {
                PolicySelector::Permutation(PermutationSelector::new(space))
            }
            SelectorPolicy::Sequential => {
                PolicySelector::Sequential(SequentialSelector::new(space))
            }
            SelectorPolicy::StaticAddress { seq_bits } => PolicySelector::StaticAddress {
                seq_bits,
                next_seq: 0,
            },
        }
    }

    /// The key of the next packet `ctx`'s node sends on `wire`.
    pub(crate) fn select(&mut self, ctx: &mut Context<'_>, wire: &WireConfig) -> TransactionId {
        match self {
            PolicySelector::Uniform(s) => s.select(ctx.rng()),
            PolicySelector::Listening(s) => s.select(ctx.rng()),
            PolicySelector::Adaptive(s) => {
                let now_micros = ctx.now().as_micros();
                s.select_at(ctx.rng(), now_micros)
            }
            PolicySelector::Permutation(s) => s.select(ctx.rng()),
            PolicySelector::Sequential(s) => s.select(ctx.rng()),
            PolicySelector::StaticAddress { seq_bits, next_seq } => {
                let seq_mask = 1u64.checked_shl(*seq_bits).map_or(u64::MAX, |m| m - 1);
                let seq = *next_seq & seq_mask;
                *next_seq = next_seq.wrapping_add(1);
                wire.static_key(ctx.node_id().index() as u64, seq)
            }
        }
    }

    pub(crate) fn observe(&mut self, id: TransactionId, now_micros: u64) {
        match self {
            PolicySelector::Uniform(s) => s.observe(id),
            PolicySelector::Listening(s) => s.observe(id),
            PolicySelector::Adaptive(s) => s.observe_at(id, now_micros),
            // Structured policies ignore the air by design.
            PolicySelector::Permutation(s) => s.observe(id),
            PolicySelector::Sequential(s) => s.observe(id),
            PolicySelector::StaticAddress { .. } => {}
        }
    }
}

/// When and how fast a sender offers packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Workload {
    /// Packet size in bytes (the paper uses 80).
    pub packet_bytes: usize,
    /// When to start offering packets.
    pub start: SimTime,
    /// When to stop (no new packets are offered at or after this time).
    pub stop: SimTime,
    /// Offered-load mode.
    pub mode: WorkloadMode,
}

/// Offered-load modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum WorkloadMode {
    /// Keep the radio queue non-empty: a new packet is fragmented soon
    /// after the previous one has fully left the queue ("a continuous
    /// stream", Section 5.1).
    ///
    /// `poll` is the grid a new packet starts on, not a busy loop: after
    /// each packet the sender arms one
    /// [`Context::set_timer_when_idle`] timer, so the next packet starts
    /// at the first instant `last + k·poll` at which the queue is empty,
    /// and the engine skips the instants in between.
    Saturate {
        /// Spacing of the instants at which a new packet may start.
        poll: SimDuration,
    },
    /// Offer one packet every `period`, regardless of queue state.
    Periodic {
        /// Packet period.
        period: SimDuration,
    },
}

impl Workload {
    /// The paper's trial workload: continuous 80-byte packets for two
    /// minutes.
    #[must_use]
    pub fn paper_trial() -> Self {
        Workload {
            packet_bytes: 80,
            start: SimTime::ZERO,
            stop: SimTime::from_secs(120),
            mode: WorkloadMode::Saturate {
                poll: SimDuration::from_millis(2),
            },
        }
    }

    /// A periodic workload of `packet_bytes`-byte packets every
    /// `period`, for `duration`.
    #[must_use]
    pub fn periodic(packet_bytes: usize, period: SimDuration, duration: SimDuration) -> Self {
        Workload {
            packet_bytes,
            start: SimTime::ZERO,
            stop: SimTime::ZERO + duration,
            mode: WorkloadMode::Periodic { period },
        }
    }
}

/// Counters kept by a sender.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SenderStats {
    /// Packets fragmented and queued.
    pub packets_sent: u64,
    /// Fragments queued (introductions included).
    pub fragments_sent: u64,
    /// Data bits offered (packet payload only — the "useful bits" of
    /// Eq. 1).
    pub data_bits_sent: u64,
    /// Packets retransmitted under a fresh identifier after a collision
    /// notification (only nonzero on notification-enabled wires).
    pub retransmissions: u64,
}

const TICK: u64 = 1;

/// A transmitter node of the paper's testbed: the shared send and hear
/// rules plus a [`Workload`] and the Section 5.1 truth trailer.
///
/// # Examples
///
/// See [`crate::roles`] for a complete five-transmitter experiment.
#[derive(Debug)]
pub struct AffSender {
    outbox: Outbox,
    workload: Workload,
    truth_source: Option<u64>,
    packet_seq: u32,
}

impl AffSender {
    /// Creates a sender.
    ///
    /// `truth_source` must be `Some(unique id)` exactly when `wire` is
    /// instrumented (it becomes the Section 5.1 trailer).
    ///
    /// # Errors
    ///
    /// Returns [`FragmentError::NoDataCapacity`] if the wire headers do
    /// not fit `max_frame_bytes`.
    pub fn new(
        wire: WireConfig,
        max_frame_bytes: usize,
        policy: SelectorPolicy,
        workload: Workload,
        truth_source: Option<u64>,
    ) -> Result<Self, FragmentError> {
        assert_eq!(
            truth_source.is_some(),
            wire.instrumented(),
            "truth_source must match wire instrumentation"
        );
        Ok(AffSender {
            outbox: Outbox::new(wire, max_frame_bytes, policy)?,
            workload,
            truth_source,
            packet_seq: 0,
        })
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> SenderStats {
        self.outbox.stats()
    }

    /// The wire configuration in use.
    #[must_use]
    pub fn wire(&self) -> &WireConfig {
        self.outbox.wire()
    }

    fn send_packet(&mut self, ctx: &mut Context<'_>) {
        let mut packet = vec![0u8; self.workload.packet_bytes];
        ctx.rng().fill_bytes(&mut packet);
        let truth = self.truth_source.map(|source| Truth {
            source,
            packet_seq: self.packet_seq,
        });
        self.outbox
            .send(ctx, &packet, truth)
            .expect("workload packet size is a valid packet length");
        self.packet_seq = self.packet_seq.wrapping_add(1);
    }
}

impl Protocol for AffSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let delay = self.workload.start.since(ctx.now());
        ctx.set_timer(delay, TICK);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        // A transmitter only listens for keys: the header is enough.
        if let Ok(header) = self.wire().decode_header(&frame.payload) {
            let notify = matches!(header.body, Body::Notify);
            self.outbox.hear(ctx, header.key, notify);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        if timer.token != TICK || ctx.now() >= self.workload.stop {
            return;
        }
        match self.workload.mode {
            WorkloadMode::Saturate { poll } => {
                if ctx.pending_frames() == 0 {
                    self.send_packet(ctx);
                }
                ctx.set_timer_when_idle(poll, TICK);
            }
            WorkloadMode::Periodic { period } => {
                self.send_packet(ctx);
                // Jitter desynchronizes periodic senders that booted at
                // the same instant (real deployments are never
                // phase-locked).
                let jitter = ctx.rng().gen_range(0..=period.as_micros() / 4);
                ctx.set_timer(period + SimDuration::from_micros(jitter), TICK);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retri::IdentifierSpace;

    fn wire(bits: u8) -> WireConfig {
        WireConfig::aff(IdentifierSpace::new(bits).unwrap())
    }

    #[test]
    fn constructor_checks_instrumentation_consistency() {
        let plain = wire(8);
        assert!(AffSender::new(
            plain.clone(),
            27,
            SelectorPolicy::Uniform,
            Workload::paper_trial(),
            None
        )
        .is_ok());
        let instrumented = plain.with_instrumentation();
        assert!(AffSender::new(
            instrumented,
            27,
            SelectorPolicy::Uniform,
            Workload::paper_trial(),
            Some(7)
        )
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "truth_source must match")]
    fn mismatched_instrumentation_panics() {
        let _ = AffSender::new(
            wire(8).with_instrumentation(),
            27,
            SelectorPolicy::Uniform,
            Workload::paper_trial(),
            None,
        );
    }

    #[test]
    fn oversized_headers_are_a_constructor_error() {
        let result = AffSender::new(
            wire(64).with_instrumentation(),
            20,
            SelectorPolicy::Uniform,
            Workload::paper_trial(),
            Some(1),
        );
        assert!(matches!(result, Err(FragmentError::NoDataCapacity { .. })));
    }

    #[test]
    fn paper_trial_matches_section_5_1() {
        let w = Workload::paper_trial();
        assert_eq!(w.packet_bytes, 80);
        assert_eq!(w.stop, SimTime::from_secs(120));
        assert!(matches!(w.mode, WorkloadMode::Saturate { .. }));
    }

    #[test]
    fn periodic_workload_has_expected_bounds() {
        let w = Workload::periodic(
            16,
            SimDuration::from_millis(100),
            SimDuration::from_secs(10),
        );
        assert_eq!(w.start, SimTime::ZERO);
        assert_eq!(w.stop, SimTime::from_secs(10));
    }
}
