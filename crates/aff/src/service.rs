//! The embeddable fragmentation service.
//!
//! [`AffService`] is the *driver* a downstream application embeds — the
//! equivalent of the paper's kernel fragmentation driver that "accepts
//! packets of up to 64 Kbytes from applications, fragments them ...
//! watches for fragments coming in from the radio, reassembles them,
//! and delivers successfully reconstructed packets" (Section 5). On a
//! wire built with [`WireConfig::with_notifications`] it also runs the
//! Section 3.2 mechanism: it broadcasts a notification when it sees two
//! senders on one identifier, and retransmits a recent packet of its own
//! once, under a fresh identifier, when it hears one.
//!
//! The experiment roles run the same rules: [`AffSender`] is the send
//! and hear half plus a workload, [`AffReceiver`] the receive half plus
//! the ground-truth pipeline. Every rule lives once, in the crate's
//! shared endpoint halves.
//!
//! An application's [`retri_netsim::Protocol`] owns an `AffService` and
//! forwards its radio callbacks:
//!
//! ```
//! use retri::IdentifierSpace;
//! use retri_aff::service::AffService;
//! use retri_aff::{SelectorPolicy, WireConfig};
//! use retri_netsim::prelude::*;
//!
//! struct MyApp {
//!     aff: AffService,
//! }
//!
//! impl Protocol for MyApp {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         self.aff
//!             .send(ctx, b"a situation report longer than one frame....")
//!             .unwrap();
//!     }
//!     fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
//!         self.aff.handle_frame(ctx, frame);
//!         while let Some(packet) = self.aff.poll_delivered() {
//!             // application logic on the reassembled packet
//!             assert!(!packet.is_empty());
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
//! }
//!
//! # let wire = WireConfig::aff(IdentifierSpace::new(8).unwrap());
//! # let _ = MyApp { aff: AffService::new(wire, 27, SelectorPolicy::Uniform).unwrap() };
//! ```
//!
//! [`AffSender`]: crate::sender::AffSender
//! [`AffReceiver`]: crate::receiver::AffReceiver

use std::collections::VecDeque;

use retri::TransactionId;
use retri_netsim::{Context, Frame};

use crate::endpoint::{Inbox, Outbox};
use crate::frag::FragmentError;
use crate::reassembly::ReassemblyStats;
use crate::sender::SelectorPolicy;
use crate::wire::{Fragment, WireConfig};

/// Default reassembly timeout: a few transaction durations on the
/// paper's radio.
const DEFAULT_REASSEMBLY_TTL_MICROS: u64 = 300_000;

/// Counters kept by an [`AffService`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServiceStats {
    /// Packets accepted from the application.
    pub packets_sent: u64,
    /// Fragments queued at the radio (retransmissions included).
    pub fragments_sent: u64,
    /// Packets reassembled and delivered to the application.
    pub packets_delivered: u64,
    /// Frames that did not parse as fragments of this wire.
    pub decode_errors: u64,
    /// Collision notifications broadcast (Section 3.2; only nonzero on
    /// notifying wires).
    pub notifications_sent: u64,
    /// Packets retransmitted under a fresh identifier after a collision
    /// notification (only nonzero on notifying wires).
    pub retransmissions: u64,
}

/// A bidirectional address-free fragmentation endpoint.
///
/// See the [module documentation](self) for the embedding pattern.
#[derive(Debug)]
pub struct AffService {
    outbox: Outbox,
    inbox: Inbox,
    delivered: VecDeque<Vec<u8>>,
    decode_errors: u64,
}

impl AffService {
    /// Creates a service endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`FragmentError::NoDataCapacity`] if the wire's headers
    /// leave no payload room in `max_frame_bytes` frames.
    pub fn new(
        wire: WireConfig,
        max_frame_bytes: usize,
        policy: SelectorPolicy,
    ) -> Result<Self, FragmentError> {
        Ok(AffService {
            inbox: Inbox::new(wire.clone(), DEFAULT_REASSEMBLY_TTL_MICROS),
            outbox: Outbox::new(wire, max_frame_bytes, policy)?,
            delivered: VecDeque::new(),
            decode_errors: 0,
        })
    }

    /// Changes the reassembly timeout (µs of inactivity before an
    /// incomplete packet is discarded).
    #[must_use]
    pub fn with_reassembly_ttl(mut self, ttl_micros: u64) -> Self {
        self.inbox = Inbox::new(self.wire().clone(), ttl_micros);
        self
    }

    /// The wire configuration in use.
    #[must_use]
    pub fn wire(&self) -> &WireConfig {
        self.outbox.wire()
    }

    /// Service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let sent = self.outbox.stats();
        ServiceStats {
            packets_sent: sent.packets_sent,
            fragments_sent: sent.fragments_sent,
            packets_delivered: self.reassembly_stats().delivered,
            decode_errors: self.decode_errors,
            notifications_sent: self.inbox.notifications_sent(),
            retransmissions: sent.retransmissions,
        }
    }

    /// Reassembly counters (checksum failures reveal identifier
    /// collisions).
    #[must_use]
    pub fn reassembly_stats(&self) -> ReassemblyStats {
        self.inbox.reassembler().stats()
    }

    /// Fragments `packet` under a fresh ephemeral identifier and queues
    /// every fragment at the radio. Returns the identifier used.
    ///
    /// # Errors
    ///
    /// Returns [`FragmentError::BadPacketLength`] for empty or >64 KiB
    /// packets.
    pub fn send(
        &mut self,
        ctx: &mut Context<'_>,
        packet: &[u8],
    ) -> Result<TransactionId, FragmentError> {
        self.outbox.send(ctx, packet, None)
    }

    /// Feeds a received radio frame through the service. Completed
    /// packets become available from [`AffService::poll_delivered`].
    pub fn handle_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        let Ok(fragment) = self.wire().decode(&frame.payload) else {
            self.decode_errors += 1;
            return;
        };
        let notify = matches!(fragment, Fragment::Notify { .. });
        self.outbox.hear(ctx, fragment.key(), notify);
        if notify {
            return;
        }
        if let Some(packet) = self.inbox.receive(ctx, &fragment) {
            self.delivered.push_back(packet);
        }
    }

    /// Pops the next fully reassembled, checksum-verified packet, if
    /// any.
    pub fn poll_delivered(&mut self) -> Option<Vec<u8>> {
        self.delivered.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frag::Fragmenter;
    use retri::IdentifierSpace;
    use retri_netsim::node::ContextHarness;
    use retri_netsim::{FramePayload, NodeId, SimTime};

    fn service(bits: u8) -> AffService {
        let wire = WireConfig::aff(IdentifierSpace::new(bits).unwrap());
        AffService::new(wire, 27, SelectorPolicy::Listening { window: 8 }).unwrap()
    }

    #[test]
    fn loopback_send_and_deliver() {
        let mut alice = service(8);
        let mut bob = service(8);
        let mut harness = ContextHarness::new(1);

        let packet: Vec<u8> = (0..100).collect();
        {
            let mut ctx = harness.context(NodeId(0));
            alice.send(&mut ctx, &packet).unwrap();
        }

        let payloads: Vec<_> = harness.sent_payloads().into_iter().cloned().collect();
        assert!(payloads.len() >= 2);
        let mut rx_harness = ContextHarness::new(2);
        for payload in &payloads {
            let mut ctx = rx_harness.context(NodeId(1));
            bob.handle_frame(
                &mut ctx,
                &retri_netsim::Frame::new(NodeId(0), payload.clone()),
            );
        }
        assert_eq!(bob.poll_delivered(), Some(packet));
        assert_eq!(bob.poll_delivered(), None);
        assert_eq!(bob.stats().packets_delivered, 1);
        assert_eq!(alice.stats().packets_sent, 1);
    }

    #[test]
    fn send_validates_packet_length() {
        let mut svc = service(8);
        let mut harness = ContextHarness::new(3);
        let mut ctx = harness.context(NodeId(0));
        assert!(matches!(
            svc.send(&mut ctx, &[]),
            Err(FragmentError::BadPacketLength { len: 0 })
        ));
        let oversized = vec![0u8; 70_000];
        assert!(svc.send(&mut ctx, &oversized).is_err());
    }

    #[test]
    fn fresh_identifier_per_packet() {
        // The defining RETRI behavior: consecutive sends use (almost
        // surely) different identifiers.
        let mut svc = service(16);
        let mut harness = ContextHarness::new(4);
        let mut ids = std::collections::HashSet::new();
        for _ in 0..20 {
            let mut ctx = harness.context(NodeId(0));
            ids.insert(svc.send(&mut ctx, &[1, 2, 3]).unwrap());
        }
        assert!(ids.len() >= 19, "ephemeral ids must be fresh per packet");
    }

    #[test]
    fn listening_service_avoids_heard_identifiers() {
        let mut svc = service(4);
        let wire = svc.wire().clone();
        let space = wire.space();
        let mut harness = ContextHarness::new(5);
        // Overhear another node's introduction using id 5.
        let heard = Fragment::Intro {
            key: space.id(5).unwrap(),
            total_len: 10,
            checksum: 0,
            truth: None,
        };
        let payload = wire.encode(&heard).unwrap();
        {
            let mut ctx = harness.context(NodeId(0));
            svc.handle_frame(&mut ctx, &retri_netsim::Frame::new(NodeId(9), payload));
        }
        for _ in 0..50 {
            let mut ctx = harness.context(NodeId(0));
            let id = svc.send(&mut ctx, &[7; 4]).unwrap();
            assert_ne!(id.value(), 5, "service must avoid the heard identifier");
        }
    }

    #[test]
    fn decode_errors_counted_not_fatal() {
        let mut svc = service(8);
        let mut harness = ContextHarness::new(6);
        let junk = retri_netsim::FramePayload::from_bits(vec![0xFF], 3).unwrap();
        let mut ctx = harness.context(NodeId(0));
        svc.handle_frame(&mut ctx, &retri_netsim::Frame::new(NodeId(1), junk));
        assert_eq!(svc.stats().decode_errors, 1);
    }

    #[test]
    fn reassembly_ttl_expires_partials() {
        let wire = WireConfig::aff(IdentifierSpace::new(8).unwrap());
        let mut svc = AffService::new(wire.clone(), 27, SelectorPolicy::Uniform)
            .unwrap()
            .with_reassembly_ttl(1_000);
        let fragmenter = Fragmenter::new(wire, 27).unwrap();
        let id = fragmenter.wire().space().id(9).unwrap();
        let payloads = fragmenter.fragment(&[1u8; 60], id, None).unwrap();
        let mut harness = ContextHarness::new(7);
        // First fragment at t=0...
        {
            let mut ctx = harness.context(NodeId(0));
            svc.handle_frame(
                &mut ctx,
                &retri_netsim::Frame::new(NodeId(1), payloads[0].clone()),
            );
        }
        // ...the rest far past the ttl: the packet must NOT assemble
        // from the stale intro.
        harness.set_now(SimTime::from_secs(10));
        for payload in &payloads[1..] {
            let mut ctx = harness.context(NodeId(0));
            svc.handle_frame(
                &mut ctx,
                &retri_netsim::Frame::new(NodeId(1), payload.clone()),
            );
        }
        assert_eq!(svc.poll_delivered(), None);
    }

    /// Hands `payload`, sent by `from`, to `svc`.
    fn hear(svc: &mut AffService, air: &mut ContextHarness, from: NodeId, payload: &FramePayload) {
        let frame = retri_netsim::Frame::new(from, payload.clone());
        svc.handle_frame(&mut air.context(NodeId(9)), &frame);
    }

    #[test]
    fn collision_notification_makes_the_owner_retransmit() {
        // Section 3.2 on a notifying wire. Alice and Bob draw from the
        // same RNG stream with fresh selectors, so they send different
        // packets under one identifier. Carol sees the two conflicting
        // introductions and notifies; Alice, in earshot, retransmits
        // under a fresh identifier, and Carol delivers the packet.
        let wire = WireConfig::aff(IdentifierSpace::new(8).unwrap()).with_notifications();
        let endpoint =
            || AffService::new(wire.clone(), 27, SelectorPolicy::Listening { window: 8 }).unwrap();
        let (mut alice, mut bob, mut carol) = (endpoint(), endpoint(), endpoint());
        let packet = vec![0xAA; 40];
        let mut alice_air = ContextHarness::new(11);
        let mut bob_air = ContextHarness::new(11);
        let id = alice
            .send(&mut alice_air.context(NodeId(0)), &packet)
            .unwrap();
        let bobs_id = bob
            .send(&mut bob_air.context(NodeId(1)), &[0xBB; 40])
            .unwrap();
        assert_eq!(id, bobs_id);

        let mut carol_air = ContextHarness::new(12);
        let alice_intro = alice_air.sent_payloads()[0].clone();
        let bob_intro = bob_air.sent_payloads()[0].clone();
        hear(&mut carol, &mut carol_air, NodeId(0), &alice_intro);
        hear(&mut carol, &mut carol_air, NodeId(1), &bob_intro);
        assert_eq!(carol.stats().notifications_sent, 1);
        let notify = carol_air.sent_payloads()[0].clone();
        assert_eq!(
            wire.decode(&notify).unwrap(),
            Fragment::Notify {
                key: id,
                truth: None
            }
        );

        alice_air.clear();
        hear(&mut alice, &mut alice_air, NodeId(2), &notify);
        // A repeated notification does not retransmit the packet again.
        hear(&mut alice, &mut alice_air, NodeId(2), &notify);
        let stats = alice.stats();
        assert_eq!(stats.retransmissions, 1);
        assert_eq!(stats.packets_sent, 1);
        let resent: Vec<FramePayload> = alice_air.sent_payloads().into_iter().cloned().collect();
        assert_eq!(stats.fragments_sent, 2 * resent.len() as u64);
        let fresh = wire.decode(&resent[0]).unwrap().key();
        assert_ne!(fresh, id, "the retransmission avoids the burned identifier");

        for payload in &resent {
            hear(&mut carol, &mut carol_air, NodeId(0), payload);
        }
        assert_eq!(carol.poll_delivered(), Some(packet));
        assert_eq!(carol.stats().packets_delivered, 1);
        assert_eq!(carol.stats().notifications_sent, 1);
    }
}
