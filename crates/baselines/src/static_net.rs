//! The static-addressing fragmentation testbed.
//!
//! The same workload, radios, and topology as the AFF testbed
//! ([`retri_aff::Testbed`]), but fragments are keyed IP-style by
//! `(static source address, per-sender sequence number)` — guaranteed
//! unique, never colliding, and paying `addr_bits + seq_bits` of header
//! in every fragment. Head-to-head runs against AFF give the *measured*
//! version of the paper's Figures 1–3 efficiency comparison.

use retri_aff::frag::Fragmenter;
use retri_aff::reassembly::{Reassembler, ReassemblyStats};
use retri_aff::sender::{Workload, WorkloadMode};
use retri_aff::wire::WireConfig;
use retri_model::IdBits;
use retri_netsim::prelude::*;

/// A transmitter with a static address, streaming fragmented packets.
#[derive(Debug)]
pub struct StaticSender {
    fragmenter: Fragmenter,
    address: u64,
    seq_bits: u32,
    workload: Workload,
    packet_seq: u64,
    packets_sent: u64,
    data_bits_sent: u64,
}

impl StaticSender {
    /// Creates a sender owning `address`.
    ///
    /// # Panics
    ///
    /// Panics if the wire headers leave no payload room (construct the
    /// [`StaticTestbed`] instead of calling this directly).
    #[must_use]
    pub fn new(
        wire: WireConfig,
        max_frame_bytes: usize,
        address: u64,
        seq_bits: u32,
        workload: Workload,
    ) -> Self {
        StaticSender {
            fragmenter: Fragmenter::new(wire, max_frame_bytes)
                .expect("static wire must fit the radio"),
            address,
            seq_bits,
            workload,
            packet_seq: 0,
            packets_sent: 0,
            data_bits_sent: 0,
        }
    }

    /// Packets offered so far.
    #[must_use]
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Packet data bits offered so far (the Eq. 1 numerator candidates).
    #[must_use]
    pub fn data_bits_sent(&self) -> u64 {
        self.data_bits_sent
    }

    fn send_packet(&mut self, ctx: &mut Context<'_>) {
        use rand::RngCore as _;
        let mut packet = vec![0u8; self.workload.packet_bytes];
        ctx.rng().fill_bytes(&mut packet);
        let seq_mask = if self.seq_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.seq_bits) - 1
        };
        let key = self
            .fragmenter
            .wire()
            .static_key(self.address, self.packet_seq & seq_mask);
        let payloads = self
            .fragmenter
            .fragment(&packet, key, None)
            .expect("workload packet size is valid");
        for payload in payloads {
            ctx.send(payload).expect("fragmenter respects frame limit");
        }
        self.packet_seq = self.packet_seq.wrapping_add(1);
        self.packets_sent += 1;
        self.data_bits_sent += packet.len() as u64 * 8;
    }
}

const TICK: u64 = 1;

impl Protocol for StaticSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let delay = self.workload.start.since(ctx.now());
        ctx.set_timer(delay, TICK);
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        if timer.token != TICK || ctx.now() >= self.workload.stop {
            return;
        }
        match self.workload.mode {
            WorkloadMode::Saturate { poll } => {
                if ctx.pending_frames() == 0 {
                    self.send_packet(ctx);
                }
                ctx.set_timer(poll, TICK);
            }
            WorkloadMode::Periodic { period } => {
                self.send_packet(ctx);
                ctx.set_timer(period, TICK);
            }
        }
    }
}

/// The receiver: one reassembler keyed by `(address, sequence)`.
#[derive(Debug)]
pub struct StaticReceiver {
    reassembler: Reassembler,
    data_bits_delivered: u64,
}

impl StaticReceiver {
    /// Creates a receiver.
    #[must_use]
    pub fn new(wire: WireConfig, reassembly_ttl_micros: u64) -> Self {
        StaticReceiver {
            reassembler: Reassembler::new(wire, reassembly_ttl_micros),
            data_bits_delivered: 0,
        }
    }

    /// Reassembly counters.
    #[must_use]
    pub fn stats(&self) -> ReassemblyStats {
        self.reassembler.stats()
    }

    /// Useful bits delivered (the Eq. 1 numerator).
    #[must_use]
    pub fn data_bits_delivered(&self) -> u64 {
        self.data_bits_delivered
    }
}

impl Protocol for StaticReceiver {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        if let Ok(Some(packet)) = self
            .reassembler
            .accept_payload(&frame.payload, ctx.now().as_micros())
        {
            self.data_bits_delivered += packet.len() as u64 * 8;
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
}

/// Either role of the static testbed.
#[derive(Debug)]
pub enum StaticNode {
    /// A transmitter.
    Sender(StaticSender),
    /// The designated receiver.
    Receiver(StaticReceiver),
}

impl StaticNode {
    /// The sender inside, if any.
    #[must_use]
    pub fn as_sender(&self) -> Option<&StaticSender> {
        match self {
            StaticNode::Sender(s) => Some(s),
            StaticNode::Receiver(_) => None,
        }
    }

    /// The receiver inside, if any.
    #[must_use]
    pub fn as_receiver(&self) -> Option<&StaticReceiver> {
        match self {
            StaticNode::Receiver(r) => Some(r),
            StaticNode::Sender(_) => None,
        }
    }
}

impl Protocol for StaticNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        match self {
            StaticNode::Sender(s) => s.on_start(ctx),
            StaticNode::Receiver(r) => r.on_start(ctx),
        }
    }
    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        match self {
            StaticNode::Sender(s) => s.on_frame(ctx, frame),
            StaticNode::Receiver(r) => r.on_frame(ctx, frame),
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        match self {
            StaticNode::Sender(s) => s.on_timer(ctx, timer),
            StaticNode::Receiver(r) => r.on_timer(ctx, timer),
        }
    }
}

/// Configuration of a static-addressing trial, mirroring
/// [`retri_aff::Testbed`].
#[derive(Debug, Clone)]
pub struct StaticTestbed {
    /// Number of transmitters.
    pub transmitters: usize,
    /// Static address width (16 = optimal for tens of thousands of
    /// nodes, 32 = conservative, 48 = Ethernet).
    pub addr_bits: IdBits,
    /// Per-sender sequence width.
    pub seq_bits: u32,
    /// Offered workload per transmitter.
    pub workload: Workload,
    /// Radio model.
    pub radio: RadioConfig,
    /// MAC configuration.
    pub mac: MacConfig,
    /// Reassembly timeout, µs.
    pub reassembly_ttl_micros: u64,
}

impl StaticTestbed {
    /// Mirrors [`retri_aff::Testbed::paper`] with static addressing of
    /// the given width.
    ///
    /// # Panics
    ///
    /// Panics for invalid address widths.
    #[must_use]
    pub fn paper(addr_bits: u8) -> Self {
        StaticTestbed {
            transmitters: 5,
            addr_bits: IdBits::new(addr_bits).expect("valid address width"),
            seq_bits: 8,
            workload: Workload::paper_trial(),
            radio: RadioConfig::radiometrix_rpc(),
            mac: MacConfig::csma(),
            reassembly_ttl_micros: 300_000,
        }
    }

    /// Runs one trial.
    #[must_use]
    pub fn run(&self, seed: u64) -> StaticTrialResult {
        let wire = WireConfig::static_address(self.addr_bits, self.seq_bits);
        let transmitters = self.transmitters;
        let radio = self.radio;
        let workload = self.workload;
        let seq_bits = self.seq_bits;
        let ttl = self.reassembly_ttl_micros;
        let wire_for_factory = wire.clone();
        let mut sim = ShardedSimBuilder::new(seed)
            .radio(radio)
            .mac(self.mac)
            .range(100.0)
            .shards(retri_aff::default_shards())
            .build(move |id: NodeId| {
                if id.index() < transmitters {
                    StaticNode::Sender(StaticSender::new(
                        wire_for_factory.clone(),
                        radio.max_frame_bytes,
                        id.index() as u64,
                        seq_bits,
                        workload,
                    ))
                } else {
                    StaticNode::Receiver(StaticReceiver::new(wire_for_factory.clone(), ttl))
                }
            });
        let topo = Topology::full_mesh(transmitters + 1, 100.0);
        for id in topo.node_ids() {
            sim.add_node_at(topo.position(id));
        }
        let receiver = NodeId(transmitters as u32);
        sim.run_until(self.workload.stop + SimDuration::from_secs(2));

        let rx = sim
            .protocol(receiver)
            .as_receiver()
            .expect("last node is the receiver");
        let mut packets_offered = 0;
        for id in sim.node_ids().take(transmitters) {
            packets_offered += sim
                .protocol(id)
                .as_sender()
                .expect("first nodes are senders")
                .packets_sent();
        }
        StaticTrialResult {
            delivered: rx.stats().delivered,
            checksum_failures: rx.stats().checksum_failures,
            data_bits_delivered: rx.data_bits_delivered(),
            packets_offered,
            total_bits_sent: sim.total_meter().tx_bits(),
            medium: sim.stats(),
        }
    }
}

/// Outcome of one static-addressing trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct StaticTrialResult {
    /// Packets delivered (checksum verified).
    pub delivered: u64,
    /// Checksum failures (should be zero: keys are unique).
    pub checksum_failures: u64,
    /// Useful bits delivered.
    pub data_bits_delivered: u64,
    /// Packets offered by all transmitters.
    pub packets_offered: u64,
    /// Total bits transmitted network-wide.
    pub total_bits_sent: u64,
    /// Medium counters.
    pub medium: MediumStats,
}

impl StaticTrialResult {
    /// Measured Eq. 1 efficiency at the designated receiver: useful bits
    /// delivered over total bits transmitted.
    #[must_use]
    pub fn measured_efficiency(&self) -> f64 {
        if self.total_bits_sent == 0 {
            0.0
        } else {
            self.data_bits_delivered as f64 / self.total_bits_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retri_netsim::SimTime;

    fn quick(addr_bits: u8) -> StaticTestbed {
        let mut testbed = StaticTestbed::paper(addr_bits);
        testbed.workload.stop = SimTime::from_secs(10);
        testbed
    }

    #[test]
    fn static_keys_never_collide() {
        let result = quick(16).run(1);
        assert!(result.delivered > 20, "{result:?}");
        assert_eq!(result.checksum_failures, 0);
    }

    #[test]
    fn wider_addresses_cost_efficiency() {
        let narrow = quick(16).run(2);
        let wide = quick(48).run(2);
        assert!(
            wide.measured_efficiency() < narrow.measured_efficiency(),
            "48-bit addresses must be less efficient: {} vs {}",
            wide.measured_efficiency(),
            narrow.measured_efficiency()
        );
    }

    #[test]
    fn trials_are_reproducible() {
        let a = quick(32).run(5);
        let b = quick(32).run(5);
        assert_eq!(a, b);
    }

    #[test]
    fn sequence_wrap_breaks_the_uniqueness_guarantee() {
        // The static scheme's fine print: keys are only guaranteed
        // unique "while the sequence space does not wrap within a
        // reassembly timeout". A 1-bit sequence wraps every other
        // packet; with a lossy radio leaving incomplete reassemblies
        // behind, wrapped keys land on that debris and fail checksums —
        // the very failure mode AFF's per-transaction ephemerality is
        // designed to avoid.
        let mut testbed = quick(16);
        testbed.seq_bits = 1;
        testbed.radio = testbed.radio.with_frame_loss(0.05);
        let result = testbed.run(6);
        assert!(
            result.checksum_failures > 0,
            "a wrapping sequence over a lossy link must alias keys: {result:?}"
        );
        // The healthy configuration on the same channel stays clean.
        let mut healthy = quick(16);
        healthy.radio = healthy.radio.with_frame_loss(0.05);
        let clean = healthy.run(6);
        assert_eq!(clean.checksum_failures, 0, "{clean:?}");
    }

    #[test]
    fn efficiency_is_a_ratio() {
        let result = quick(16).run(3);
        let e = result.measured_efficiency();
        assert!(e > 0.0 && e < 1.0, "efficiency {e}");
    }
}
