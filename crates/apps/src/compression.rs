//! Attribute-based name compression with RETRI codes.
//!
//! The paper's second "other context" (Section 6): attribute/value
//! lists "might be quite large, but the same attribute/value pairs
//! might be used frequently by a node. This problem has traditionally
//! been solved by creation of a 'codebook' mapping small identifiers to
//! long lists of attributes. Nodes using codebooks can choose RETRI
//! identifiers instead of traditional alternatives."
//!
//! A [`CompressionNode`] in sender mode transmits a recurring attribute
//! list: the first time (and whenever the binding is retired) it sends
//! a **definition** — code plus the full list — and thereafter just the
//! short **coded** message. Receivers learn definitions into a
//! [`retri::codebook::ReceiverCodebook`]; a code collision between two
//! senders surfaces as a codebook conflict and heals when either sender
//! rebinds.

use rand::Rng;
use retri::codebook::{LearnOutcome, ReceiverCodebook, SenderCodebook};
use retri::{IdentifierSpace, TransactionId};
use retri_netsim::prelude::*;

const MSG_DEFINE: u8 = 1;
const MSG_CODED: u8 = 2;

const TIMER_SEND: u64 = 1;
const TIMER_REBIND: u64 = 2;

/// Counters kept by a compression node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CompressionStats {
    /// Definition messages sent (code + full attribute list).
    pub definitions_sent: u64,
    /// Coded (compressed) messages sent.
    pub coded_sent: u64,
    /// Bits actually offered to the radio.
    pub bits_sent: u64,
    /// Bits that would have been offered had every message carried the
    /// full attribute list (the uncompressed counterfactual).
    pub uncompressed_bits: u64,
    /// Coded messages received and successfully resolved.
    pub resolved: u64,
    /// Coded messages received whose code had no live binding.
    pub unresolved: u64,
    /// Codebook conflicts observed (two senders defined the same code).
    pub conflicts: u64,
}

impl CompressionStats {
    /// Fraction of bits saved versus sending the full list every time.
    #[must_use]
    pub fn savings(&self) -> f64 {
        if self.uncompressed_bits == 0 {
            0.0
        } else {
            1.0 - self.bits_sent as f64 / self.uncompressed_bits as f64
        }
    }
}

/// A node that periodically transmits a recurring attribute list using
/// codebook compression, and decodes everyone else's.
#[derive(Debug)]
pub struct CompressionNode {
    space: IdentifierSpace,
    sender_book: SenderCodebook<Vec<u8>>,
    receiver_book: ReceiverCodebook<Vec<u8>>,
    /// This node's recurring attribute list (empty = receive-only).
    attributes: Vec<u8>,
    period: SimDuration,
    /// Retire the binding (forcing a fresh ephemeral code) every this
    /// often. `None` keeps one binding forever.
    rebind_every: Option<SimDuration>,
    stats: CompressionStats,
}

impl CompressionNode {
    /// Creates a node announcing `attributes` every `period`.
    #[must_use]
    pub fn new(
        space: IdentifierSpace,
        attributes: Vec<u8>,
        period: SimDuration,
        rebind_every: Option<SimDuration>,
    ) -> Self {
        CompressionNode {
            space,
            sender_book: SenderCodebook::new(space, 16),
            receiver_book: ReceiverCodebook::new(60_000_000),
            attributes,
            period,
            rebind_every,
            stats: CompressionStats::default(),
        }
    }

    /// A receive-only node.
    #[must_use]
    pub fn listener(space: IdentifierSpace) -> Self {
        CompressionNode::new(space, Vec::new(), SimDuration::from_secs(1), None)
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CompressionStats {
        self.stats
    }

    fn encode_define(&self, code: TransactionId) -> FramePayload {
        let raw = code.value() as u16;
        let mut bytes = vec![MSG_DEFINE, (raw >> 8) as u8, raw as u8];
        bytes.extend_from_slice(&self.attributes);
        FramePayload::from_bytes(bytes).expect("non-empty")
    }

    fn encode_coded(code: TransactionId) -> FramePayload {
        let raw = code.value() as u16;
        FramePayload::from_bytes(vec![MSG_CODED, (raw >> 8) as u8, raw as u8]).expect("non-empty")
    }

    /// Sends either a definition or a coded message for this node's
    /// attribute list.
    ///
    /// # Panics
    ///
    /// Panics if the attribute list does not fit one radio frame: a
    /// definition must be transmittable in a single frame (compose with
    /// AFF fragmentation for longer lists).
    fn announce(&mut self, ctx: &mut Context<'_>) {
        if self.attributes.is_empty() {
            return;
        }
        assert!(
            3 + self.attributes.len() <= ctx.max_frame_bytes(),
            "attribute list of {} bytes does not fit a {}-byte frame; \
             compose with AFF fragmentation for longer lists",
            self.attributes.len(),
            ctx.max_frame_bytes()
        );
        let full_bits = (3 + self.attributes.len()) as u64 * 8;
        let already_bound = self.sender_book.code_of(&self.attributes).is_some();
        let code = self.sender_book.encode(self.attributes.clone(), ctx.rng());
        let payload = if already_bound {
            self.stats.coded_sent += 1;
            Self::encode_coded(code)
        } else {
            self.stats.definitions_sent += 1;
            self.encode_define(code)
        };
        self.stats.bits_sent += u64::from(payload.bits());
        self.stats.uncompressed_bits += full_bits;
        ctx.send(payload).expect("size checked above");
        let jitter = ctx.rng().gen_range(0..=self.period.as_micros() / 8);
        ctx.set_timer(self.period + SimDuration::from_micros(jitter), TIMER_SEND);
    }
}

impl Protocol for CompressionNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if !self.attributes.is_empty() {
            self.announce(ctx);
            if let Some(rebind) = self.rebind_every {
                ctx.set_timer(rebind, TIMER_REBIND);
            }
        }
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        let bytes = frame.payload.bytes();
        if bytes.len() < 3 {
            return;
        }
        let raw = (u64::from(bytes[1]) << 8) | u64::from(bytes[2]);
        let Ok(code) = self.space.id(raw & self.space.mask()) else {
            return;
        };
        let now = ctx.now().as_micros();
        match bytes[0] {
            MSG_DEFINE => {
                let attrs = bytes[3..].to_vec();
                // Avoid codes other senders define (listening).
                self.sender_book.observe(code);
                if self.receiver_book.learn(code, attrs, now) == LearnOutcome::Conflict {
                    self.stats.conflicts += 1;
                }
            }
            MSG_CODED => {
                if self.receiver_book.resolve(code, now).is_some() {
                    self.stats.resolved += 1;
                } else {
                    self.stats.unresolved += 1;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        match timer.token {
            TIMER_SEND => self.announce(ctx),
            TIMER_REBIND => {
                // Ephemerality: retire the binding so the next send
                // defines a fresh code. Conflicts cannot outlive this.
                self.sender_book.retire(&self.attributes.clone());
                if let Some(rebind) = self.rebind_every {
                    ctx.set_timer(rebind, TIMER_REBIND);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        senders: usize,
        id_bits: u8,
        seconds: u64,
        seed: u64,
        rebind: Option<SimDuration>,
    ) -> ShardedSim<CompressionNode> {
        let space = IdentifierSpace::new(id_bits).unwrap();
        let rebind_every = rebind;
        let mut sim = ShardedSimBuilder::new(seed)
            .radio(RadioConfig::radiometrix_rpc())
            .range(100.0)
            .build(move |id: NodeId| {
                if id.index() < senders {
                    // A realistic recurring attribute list, ~18 bytes.
                    let attrs = format!("type=temp node-class={}", id.index()).into_bytes();
                    CompressionNode::new(space, attrs, SimDuration::from_millis(500), rebind_every)
                } else {
                    CompressionNode::listener(space)
                }
            });
        let topo = Topology::full_mesh(senders + 1, 100.0);
        for id in topo.node_ids() {
            sim.add_node_at(topo.position(id));
        }
        sim.run_until(SimTime::from_secs(seconds));
        sim
    }

    #[test]
    fn compression_saves_most_bits() {
        let sim = run(3, 12, 30, 1, None);
        for id in sim.node_ids().take(3) {
            let stats = sim.protocol(id).stats();
            assert_eq!(stats.definitions_sent, 1, "one definition per binding");
            assert!(stats.coded_sent > 10);
            assert!(
                stats.savings() > 0.5,
                "coded messages should save well over half: {:?}",
                stats.savings()
            );
        }
    }

    #[test]
    fn listener_resolves_coded_messages() {
        let sim = run(3, 12, 30, 2, None);
        let listener = sim.protocol(NodeId(3)).stats();
        assert!(listener.resolved > 10);
        assert_eq!(listener.conflicts, 0, "12-bit codes must not conflict here");
    }

    #[test]
    fn tiny_code_space_conflicts_and_heals() {
        // 2-bit codes among 6 senders: conflicts are inevitable. With
        // periodic rebinding the system keeps functioning (most coded
        // messages still resolve).
        let mut conflicts = 0;
        let mut resolved = 0;
        for seed in 0..3 {
            let sim = run(6, 2, 40, 50 + seed, Some(SimDuration::from_secs(5)));
            let listener = sim.protocol(NodeId(6)).stats();
            conflicts += listener.conflicts;
            resolved += listener.resolved;
        }
        assert!(conflicts > 0, "4 codes among 6 senders must conflict");
        assert!(
            resolved > 0,
            "the system must keep working despite conflicts"
        );
    }

    #[test]
    fn rebinding_causes_fresh_definitions() {
        let sim = run(2, 12, 30, 3, Some(SimDuration::from_secs(5)));
        let stats = sim.protocol(NodeId(0)).stats();
        assert!(
            stats.definitions_sent >= 4,
            "rebinding every 5 s over 30 s needs several definitions: {stats:?}"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run(3, 8, 20, 9, None);
        let b = run(3, 8, 20, 9, None);
        for id in a.node_ids() {
            assert_eq!(a.protocol(id).stats(), b.protocol(id).stats());
        }
    }
}
