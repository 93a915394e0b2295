//! The AFF protocol rules, written once.
//!
//! Every fragmentation node in the workspace runs these two halves:
//!
//! - [`Outbox`] — **send** (select a key, fragment, queue, and remember
//!   the packet for retransmission when the wire carries notifications)
//!   and **hear** (observe every key on the air; on a Section 3.2
//!   `Notify` naming one of our recent packets, retransmit it once under
//!   a fresh key);
//! - [`Inbox`] — **receive** (reassemble; when a fragment exposes a new
//!   identifier conflict on a notifying wire, broadcast `Notify`;
//!   deliver).
//!
//! [`AffService`](crate::service::AffService) runs both halves,
//! [`AffSender`](crate::sender::AffSender) only the outbox and
//! [`AffReceiver`](crate::receiver::AffReceiver) only the inbox. A
//! transmitter overhears every other transmitter's fragments, so giving
//! it an inbox would reassemble (and, on a notifying wire, report) the
//! whole channel for nothing.

use std::collections::VecDeque;

use retri::TransactionId;
use retri_netsim::Context;

use crate::frag::{FragmentError, Fragmenter};
use crate::reassembly::Reassembler;
use crate::sender::{PolicySelector, SelectorPolicy, SenderStats};
use crate::wire::{Fragment, Truth, WireConfig};

/// How many recently sent packets are retained for
/// notification-triggered retransmission.
const RETRANSMIT_HISTORY: usize = 4;

#[derive(Debug)]
struct SentPacket {
    id: TransactionId,
    packet: Vec<u8>,
    truth: Option<Truth>,
    retransmitted: bool,
}

/// The send and hear half of an AFF endpoint.
#[derive(Debug)]
pub(crate) struct Outbox {
    fragmenter: Fragmenter,
    selector: PolicySelector,
    history: VecDeque<SentPacket>,
    stats: SenderStats,
}

impl Outbox {
    pub(crate) fn new(
        wire: WireConfig,
        max_frame_bytes: usize,
        policy: SelectorPolicy,
    ) -> Result<Self, FragmentError> {
        let space = wire.space();
        Ok(Outbox {
            fragmenter: Fragmenter::new(wire, max_frame_bytes)?,
            selector: PolicySelector::build(policy, space),
            history: VecDeque::with_capacity(RETRANSMIT_HISTORY),
            stats: SenderStats::default(),
        })
    }

    pub(crate) fn wire(&self) -> &WireConfig {
        self.fragmenter.wire()
    }

    pub(crate) fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Selects a key, fragments `packet` under it and queues every
    /// fragment at the radio. Returns the key used.
    pub(crate) fn send(
        &mut self,
        ctx: &mut Context<'_>,
        packet: &[u8],
        truth: Option<Truth>,
    ) -> Result<TransactionId, FragmentError> {
        let id = self.transmit(ctx, packet, truth)?;
        self.stats.packets_sent += 1;
        self.stats.data_bits_sent += packet.len() as u64 * 8;
        if self.wire().notifications_enabled() {
            if self.history.len() == RETRANSMIT_HISTORY {
                self.history.pop_front();
            }
            self.history.push_back(SentPacket {
                id,
                packet: packet.to_vec(),
                truth,
                retransmitted: false,
            });
        }
        Ok(id)
    }

    /// Learns the key of a fragment heard on the air; `notify` says
    /// whether it was a Section 3.2 notification. One naming a recently
    /// sent packet makes that packet go out once more under a fresh
    /// key; listening policies avoid the burned key, which was just
    /// observed.
    pub(crate) fn hear(&mut self, ctx: &mut Context<'_>, key: TransactionId, notify: bool) {
        self.selector.observe(key, ctx.now().as_micros());
        if !notify {
            return;
        }
        let Some(entry) = self
            .history
            .iter_mut()
            .find(|entry| entry.id == key && !entry.retransmitted)
        else {
            return; // someone else's collision, or already handled
        };
        entry.retransmitted = true;
        let packet = std::mem::take(&mut entry.packet);
        let truth = entry.truth;
        self.transmit(ctx, &packet, truth)
            .expect("a packet that fragmented once fragments again");
        self.stats.retransmissions += 1;
    }

    fn transmit(
        &mut self,
        ctx: &mut Context<'_>,
        packet: &[u8],
        truth: Option<Truth>,
    ) -> Result<TransactionId, FragmentError> {
        let id = self.selector.select(ctx, self.fragmenter.wire());
        for payload in self.fragmenter.fragment(packet, id, truth)? {
            ctx.send(payload)
                .expect("fragmenter respects the radio frame limit");
            self.stats.fragments_sent += 1;
        }
        Ok(id)
    }
}

/// The receive half of an AFF endpoint.
#[derive(Debug)]
pub(crate) struct Inbox {
    reassembler: Reassembler,
    notifications_sent: u64,
}

impl Inbox {
    pub(crate) fn new(wire: WireConfig, reassembly_ttl_micros: u64) -> Self {
        Inbox {
            reassembler: Reassembler::new(wire, reassembly_ttl_micros),
            notifications_sent: 0,
        }
    }

    pub(crate) fn wire(&self) -> &WireConfig {
        self.reassembler.wire()
    }

    pub(crate) fn reassembler(&self) -> &Reassembler {
        &self.reassembler
    }

    /// Collision notifications broadcast so far.
    pub(crate) fn notifications_sent(&self) -> u64 {
        self.notifications_sent
    }

    /// Feeds one data or introduction fragment to reassembly; returns a
    /// completed, checksum-valid packet if this fragment finished one.
    ///
    /// On a notifying wire, a fragment that exposes a new identifier
    /// conflict (a contradicting introduction or an out-of-bounds byte
    /// range, both proof of two senders on one key) makes this endpoint
    /// broadcast a Section 3.2 `Notify` naming the key.
    pub(crate) fn receive(
        &mut self,
        ctx: &mut Context<'_>,
        fragment: &Fragment,
    ) -> Option<Vec<u8>> {
        let conflicts_before = self.reassembler.stats().identifier_conflicts();
        let packet = self.reassembler.accept(fragment, ctx.now().as_micros());
        if self.wire().notifications_enabled()
            && self.reassembler.stats().identifier_conflicts() > conflicts_before
        {
            let notify = Fragment::Notify {
                key: fragment.key(),
                truth: None,
            };
            // A notification is the smallest fragment, so encoding and
            // queueing cannot fail in practice; the paper treats all
            // feedback as best-effort, so a failure is simply dropped.
            if let Ok(payload) = self.wire().encode(&notify) {
                if ctx.send(payload).is_ok() {
                    self.notifications_sent += 1;
                }
            }
        }
        packet
    }
}
