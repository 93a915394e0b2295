//! Mixed sender/receiver networks, and the paper's testbed in a box.
//!
//! A [`retri_netsim::ShardedSim`] hosts one protocol type per run;
//! [`AffNode`] is the sum of the two AFF roles so transmitters and the
//! designated receiver can share a network. [`Testbed`] is the one place
//! an AFF network is built. By default it assembles the exact experiment
//! of Section 5.1 — `transmitters` senders saturating the channel toward
//! one fully connected receiver — and runs one trial; a
//! [`Testbed::layout`] of [`NodeSpec`]s replaces that network with any
//! other geometry (hidden terminals, mixed packet sizes, many clusters),
//! run by the same code. With [`SelectorPolicy::StaticAddress`] the same
//! testbed runs the IP-style static-addressing baseline of the
//! efficiency comparisons. Trials run on the sharded deterministic
//! engine, so [`Testbed::shards`] scales wall-clock without changing a
//! single output byte.

use retri::IdentifierSpace;
use retri_model::IdBits;
use retri_netsim::adversary::adversary_stream_seed;
use retri_netsim::prelude::*;
use retri_netsim::trace::TraceEvent;
use retri_obs::{Obs, Snapshot};

use crate::adversary::AffForgeCodec;
use crate::reassembly::ReassemblyStats;
use crate::receiver::{AffReceiver, ReceiverStats};
use crate::sender::{AffSender, SelectorPolicy, SenderStats, Workload};
use crate::wire::WireConfig;

/// Either role of the AFF experiment.
// Exactly one Receiver exists per testbed, so the size skew between the
// variants never multiplies across the node population.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum AffNode {
    /// A transmitting node.
    Sender(AffSender),
    /// The designated receiving node.
    Receiver(AffReceiver),
    /// An identifier-predicting eavesdropper (the selector taxonomy's
    /// security axis; absent from every clean testbed).
    Adversary(Eavesdropper<AffForgeCodec>),
}

impl AffNode {
    /// The sender inside, if this node transmits.
    #[must_use]
    pub fn as_sender(&self) -> Option<&AffSender> {
        match self {
            AffNode::Sender(sender) => Some(sender),
            _ => None,
        }
    }

    /// The receiver inside, if this node is the designated receiver.
    #[must_use]
    pub fn as_receiver(&self) -> Option<&AffReceiver> {
        match self {
            AffNode::Receiver(receiver) => Some(receiver),
            _ => None,
        }
    }

    /// The eavesdropper inside, if this node attacks.
    #[must_use]
    pub(crate) fn as_adversary(&self) -> Option<&Eavesdropper<AffForgeCodec>> {
        match self {
            AffNode::Adversary(adversary) => Some(adversary),
            _ => None,
        }
    }
}

impl Protocol for AffNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        match self {
            AffNode::Sender(sender) => sender.on_start(ctx),
            AffNode::Receiver(receiver) => receiver.on_start(ctx),
            AffNode::Adversary(adversary) => adversary.on_start(ctx),
        }
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        match self {
            AffNode::Sender(sender) => sender.on_frame(ctx, frame),
            AffNode::Receiver(receiver) => receiver.on_frame(ctx, frame),
            AffNode::Adversary(adversary) => adversary.on_frame(ctx, frame),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        match self {
            AffNode::Sender(sender) => sender.on_timer(ctx, timer),
            AffNode::Receiver(receiver) => receiver.on_timer(ctx, timer),
            AffNode::Adversary(adversary) => adversary.on_timer(ctx, timer),
        }
    }
}

/// How a node takes part in a testbed layout.
#[derive(Debug, Clone, Copy)]
pub enum Role {
    /// Transmitter of fixed-size packets under the testbed's workload.
    Sender {
        /// Packet size, bytes.
        packet_bytes: usize,
    },
    /// Designated receiver.
    Receiver,
}

/// One node of a testbed layout.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// Where the node sits.
    pub position: Position,
    /// What it does.
    pub role: Role,
}

/// Configuration of one Section 5.1 trial.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Number of transmitters in the default layout (the paper uses 5).
    /// Ignored when [`Testbed::layout`] is set.
    pub transmitters: usize,
    /// Identifier width under test; the address width under
    /// [`SelectorPolicy::StaticAddress`].
    pub id_bits: u8,
    /// Selection policy (the "random" vs "listening" series, or the
    /// static-address baseline).
    pub policy: SelectorPolicy,
    /// Offered workload per transmitter. Its `packet_bytes` sizes the
    /// default layout's packets only; a [`Testbed::layout`] gives each
    /// sender its own.
    pub workload: Workload,
    /// Radio model.
    pub radio: RadioConfig,
    /// MAC configuration.
    pub mac: MacConfig,
    /// How long incomplete reassemblies survive, µs.
    pub reassembly_ttl_micros: u64,
    /// Enable the Section 3.2 collision-notification mechanism
    /// (receiver broadcasts conflicts; senders retransmit once under a
    /// fresh identifier). Costs one kind bit on every fragment.
    pub notifications: bool,
    /// Duty-cycle the *transmitters'* receivers: `(period, on_fraction)`.
    /// Models Section 3.2's "some nodes may choose to minimize the time
    /// they spend listening": it starves the listening heuristic of
    /// observations without affecting transmission. Phases are staggered
    /// across transmitters in layout order. Receivers always listen.
    pub sender_duty: Option<(SimDuration, f64)>,
    /// Channel faults to inject (bit errors, bursts, erasures, churn,
    /// partitions). Defaults to [`FaultModel::none`], which leaves the
    /// trial byte-identical to a fault-unaware build.
    pub faults: FaultModel,
    /// When `Some`, one extra eavesdropper node joins after the last
    /// layout node, at the first receiver's position, and runs the
    /// identifier-prediction attack. Its randomness comes from the
    /// dedicated [`adversary_stream_seed`] stream, so `None` leaves the
    /// trial byte-identical to an adversary-unaware build.
    pub adversary: Option<EavesdropperConfig>,
    /// Spatial shards for the simulation engine. Trial output is
    /// invariant in this knob (the sharded engine's event stream is
    /// shard-count-independent by construction); it only selects how
    /// much of the trial runs in parallel. [`Testbed::paper`] runs on one
    /// shard.
    pub shards: usize,
    /// The network: node positions and roles, in node-id order. `None`
    /// is the paper's: [`Testbed::transmitters`] senders of
    /// `workload.packet_bytes` on a fully connected ring, then one
    /// receiver. [`Testbed::run`] and [`Testbed::run_observed`] need
    /// exactly one receiver; [`Testbed::simulate`] takes any layout.
    pub layout: Option<Vec<NodeSpec>>,
}

impl Testbed {
    /// The paper's configuration: five transmitters, one receiver, fully
    /// connected, RPC radios, continuous 80-byte packets for two
    /// minutes.
    ///
    /// The reassembly timeout is set to roughly two transaction
    /// durations (a packet takes ~170 ms on a saturated 40 kbit/s
    /// channel shared by five senders). This matters for fidelity to
    /// Eq. 4: a much longer timeout lets the debris of one collision
    /// linger and poison later reuses of the same identifier, inflating
    /// the measured rate beyond what the model's instantaneous-overlap
    /// definition counts.
    #[must_use]
    pub fn paper(id_bits: u8, policy: SelectorPolicy) -> Self {
        Testbed {
            transmitters: 5,
            id_bits,
            policy,
            workload: Workload::paper_trial(),
            radio: RadioConfig::radiometrix_rpc(),
            mac: MacConfig::csma(),
            reassembly_ttl_micros: 300_000,
            notifications: false,
            sender_duty: None,
            faults: FaultModel::none(),
            adversary: None,
            shards: 1,
            layout: None,
        }
    }

    /// Returns a copy with the standard next-id-probing eavesdropper
    /// enabled over this testbed's identifier space.
    #[must_use]
    pub fn with_adversary(mut self) -> Self {
        let space = IdentifierSpace::new(self.id_bits).expect("valid identifier width");
        self.adversary = Some(EavesdropperConfig::stride_probe(space.mask()));
        self
    }

    /// Returns a copy with collision notifications enabled.
    #[must_use]
    pub fn with_notifications(mut self) -> Self {
        self.notifications = true;
        self
    }

    /// Runs one trial with the given seed; returns the receiver's
    /// verdicts, the medium statistics and the radio energy (transmit +
    /// receive + idle listening, honoring duty cycles).
    ///
    /// # Panics
    ///
    /// Panics if the identifier width is invalid or leaves no payload
    /// room in the configured radio's frames, or if the layout does not
    /// hold exactly one receiver (use [`Testbed::simulate`] for those).
    #[must_use]
    pub fn run(&self, seed: u64) -> TrialResult {
        let nodes = self.nodes();
        let receiver = sole_receiver(&nodes);
        let sim = self.run_sim(nodes, seed, None);
        collect(&sim, receiver).0
    }

    /// Builds the testbed network and runs it to the trial deadline
    /// (`workload.stop` plus 2 s of drain), for callers that read
    /// per-node state: several receivers, or per-sender counters.
    ///
    /// # Panics
    ///
    /// Panics if the identifier width is invalid or leaves no payload
    /// room in the configured radio's frames.
    #[must_use]
    pub fn simulate(&self, seed: u64) -> ShardedSim<AffNode> {
        self.run_sim(self.nodes(), seed, None)
    }

    /// Runs one trial with tracing on and observes it: the medium keeps
    /// a [`TraceEvent`] ring of `trace_capacity` events, every
    /// `netsim_*` and `aff_*` metric is folded into a per-trial registry
    /// from the engine's and the nodes' own counters after the run, and
    /// the result carries everything the `trace_report` lifecycle audit
    /// needs. The registry lives and dies inside this call, so the
    /// testbed itself stays `Sync`; the trial's outcome equals
    /// [`Testbed::run`]'s.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Testbed::run`].
    #[must_use]
    pub fn run_observed(&self, seed: u64, trace_capacity: usize) -> ObservedTrialResult {
        let nodes = self.nodes();
        let receiver_id = sole_receiver(&nodes);
        let sim = self.run_sim(nodes, seed, Some(trace_capacity));
        let (trial, sender, senders) = collect(&sim, receiver_id);
        let rx = sim
            .protocol(receiver_id)
            .as_receiver()
            .expect("the layout's receiver");
        let mut obs = Obs::enabled();
        sim.record_metrics(&mut obs);
        crate::obs::record(&mut obs, &sender, rx);
        let tracer = sim.tracer().expect("run_observed enables tracing");
        ObservedTrialResult {
            trial,
            receiver_id,
            senders,
            snapshot: obs.snapshot().expect("obs was built enabled"),
            trace: tracer.events().copied().collect(),
            trace_dropped: tracer.dropped(),
            sender,
            receiver: rx.stats(),
            reassembly: rx.aff_stats(),
            pending_fragments: rx.reassembler().pending_fragments(),
        }
    }

    /// The layout, or the paper's full mesh when none is set.
    fn nodes(&self) -> Vec<NodeSpec> {
        if let Some(layout) = &self.layout {
            return layout.clone();
        }
        let mesh = Topology::full_mesh(self.transmitters + 1, 100.0);
        mesh.node_ids()
            .map(|id| NodeSpec {
                position: mesh.position(id),
                role: if id.index() < self.transmitters {
                    Role::Sender {
                        packet_bytes: self.workload.packet_bytes,
                    }
                } else {
                    Role::Receiver
                },
            })
            .collect()
    }

    /// Builds the network of `nodes` and runs it to the trial deadline,
    /// optionally with tracing.
    fn run_sim(
        &self,
        nodes: Vec<NodeSpec>,
        seed: u64,
        trace_capacity: Option<usize>,
    ) -> ShardedSim<AffNode> {
        let wire = match self.policy {
            SelectorPolicy::StaticAddress { seq_bits } => WireConfig::static_address(
                IdBits::new(self.id_bits).expect("valid address width"),
                seq_bits,
            ),
            _ => {
                WireConfig::aff(IdentifierSpace::new(self.id_bits).expect("valid identifier width"))
            }
        };
        let wire = if self.notifications {
            wire.with_notifications()
        } else {
            wire
        };
        let policy = self.policy;
        let workload = self.workload;
        let radio = self.radio;
        let ttl = self.reassembly_ttl_micros;
        let adversary_config = self.adversary;
        // Derived even when unused so the factory closure stays cheap;
        // the main RNG stream is never involved.
        let adversary_seed = adversary_stream_seed(seed);
        let roles: Vec<Role> = nodes.iter().map(|node| node.role).collect();
        let mut sim = ShardedSimBuilder::new(seed)
            .radio(radio)
            .mac(self.mac)
            .range(100.0)
            .faults(self.faults.clone())
            .shards(self.shards.max(1))
            .build(move |id: NodeId| match roles.get(id.index()) {
                Some(&Role::Sender { packet_bytes }) => AffNode::Sender(
                    AffSender::new(
                        wire.clone(),
                        radio.max_frame_bytes,
                        policy,
                        Workload {
                            packet_bytes,
                            ..workload
                        },
                        None,
                    )
                    .expect("testbed wire fits the radio"),
                ),
                Some(Role::Receiver) => AffNode::Receiver(AffReceiver::new(wire.clone(), ttl)),
                None => AffNode::Adversary(Eavesdropper::new(
                    AffForgeCodec::new(wire.clone()),
                    adversary_config
                        .expect("nodes past the layout exist only when an adversary is configured"),
                    adversary_seed,
                )),
            });
        if let Some(capacity) = trace_capacity {
            sim.enable_trace(capacity);
        }
        for node in &nodes {
            sim.add_node_at(node.position);
        }
        // Appending the eavesdropper keeps every layout node's id,
        // position, and RNG stream exactly as in an adversary-free run.
        if self.adversary.is_some() {
            let at = nodes
                .iter()
                .find(|node| matches!(node.role, Role::Receiver))
                .map_or(Position::new(0.0, 0.0), |node| node.position);
            sim.add_node_at(at);
        }
        if let Some((period, on_fraction)) = self.sender_duty {
            let senders: Vec<NodeId> = (0..nodes.len())
                .filter(|&i| matches!(nodes[i].role, Role::Sender { .. }))
                .map(|i| NodeId(i as u32))
                .collect();
            for (ordinal, &id) in senders.iter().enumerate() {
                let phase = SimDuration::from_micros(
                    period.as_micros() * ordinal as u64 / senders.len() as u64,
                );
                sim.set_duty_cycle(
                    id,
                    Some(retri_netsim::radio::DutyCycle::new(
                        period,
                        on_fraction,
                        phase,
                    )),
                );
            }
        }
        // Run until the workload stops plus drain time.
        let deadline = self.workload.stop + SimDuration::from_secs(2);
        sim.run_until(deadline);
        sim
    }
}

/// The node id of the layout's one receiver.
fn sole_receiver(nodes: &[NodeSpec]) -> NodeId {
    let mut receivers = (0..nodes.len()).filter(|&i| matches!(nodes[i].role, Role::Receiver));
    match (receivers.next(), receivers.next()) {
        (Some(index), None) => NodeId(index as u32),
        _ => panic!(
            "a trial needs exactly one receiver in the layout; \
             use Testbed::simulate to run other layouts"
        ),
    }
}

/// Extracts the trial verdicts and energy readings from a finished
/// simulator, with the senders' counters summed; also returns the
/// sender count.
fn collect(sim: &ShardedSim<AffNode>, receiver: NodeId) -> (TrialResult, SenderStats, usize) {
    let rx = sim
        .protocol(receiver)
        .as_receiver()
        .expect("the layout's receiver");
    let mut sender = SenderStats::default();
    let mut senders = 0;
    let mut sender_energy = 0.0;
    for id in sim.node_ids() {
        let Some(node) = sim.protocol(id).as_sender() else {
            continue;
        };
        let stats = node.stats();
        sender.packets_sent += stats.packets_sent;
        sender.fragments_sent += stats.fragments_sent;
        sender.data_bits_sent += stats.data_bits_sent;
        sender.retransmissions += stats.retransmissions;
        sender_energy += sim.energy_nj(id);
        senders += 1;
    }
    let trial = TrialResult {
        truth_delivered: rx.truth_delivered(),
        aff_delivered: rx.aff_delivered(),
        collision_loss_rate: rx.collision_loss_rate().unwrap_or(0.0),
        packets_offered: sender.packets_sent,
        retransmissions: sender.retransmissions,
        notifications_sent: rx.stats().notifications_sent,
        decode_errors: rx.stats().decode_errors,
        truth_crc_rejections: rx.stats().truth_crc_rejections,
        checksum_failures: rx.aff_stats().checksum_failures,
        identifier_conflicts: rx.aff_stats().identifier_conflicts(),
        medium: sim.stats(),
        total_bits_sent: sim.total_meter().tx_bits(),
        mean_sender_energy_nj: sender_energy / senders.max(1) as f64,
        receiver_energy_nj: sim.energy_nj(receiver),
        adversary: sim
            .node_ids()
            .find_map(|id| sim.protocol(id).as_adversary())
            .map(Eavesdropper::stats),
    };
    (trial, sender, senders)
}

/// Everything one observed trial produces: the ordinary results plus
/// the metrics snapshot, the medium trace, and the receiver-side
/// fragment accounting the `trace_report` audit cross-validates.
#[derive(Debug, Clone)]
pub struct ObservedTrialResult {
    /// The protocol-level outcome with energy readings.
    pub trial: TrialResult,
    /// The layout's receiver.
    pub receiver_id: NodeId,
    /// How many senders the layout holds.
    pub senders: usize,
    /// Every `netsim_*` and `aff_*` metric recorded during the trial.
    pub snapshot: Snapshot,
    /// The retained medium-event window, oldest first.
    pub trace: Vec<TraceEvent>,
    /// Events the ring buffer evicted (0 when `trace_capacity` covered
    /// the whole run).
    pub trace_dropped: u64,
    /// Aggregated transmitter-side counters.
    pub sender: SenderStats,
    /// The designated receiver's frame-level counters.
    pub receiver: ReceiverStats,
    /// The AFF reassembly pipeline's fragment-fate counters.
    pub reassembly: ReassemblyStats,
    /// Fragments still sitting in incomplete buffers at the deadline
    /// (the "stranded" fate).
    pub pending_fragments: u64,
}

/// Outcome of one testbed trial.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrialResult {
    /// Packets the receiver got intact judged by ground truth.
    pub truth_delivered: u64,
    /// Packets the receiver got using AFF identifiers alone.
    pub aff_delivered: u64,
    /// `1 - aff/truth`: the Figure 4 y-axis.
    pub collision_loss_rate: f64,
    /// Packets offered by all transmitters.
    pub packets_offered: u64,
    /// Notification-triggered retransmissions (0 unless enabled).
    pub retransmissions: u64,
    /// Collision notifications the receiver broadcast (0 unless
    /// enabled).
    pub notifications_sent: u64,
    /// Frames that failed fragment parsing at the receiver (only the
    /// fault channel's bit errors can cause this in a clean topology).
    pub decode_errors: u64,
    /// Ground-truth assemblies rejected by the CRC-16: bit corruption
    /// that survived parse.
    pub truth_crc_rejections: u64,
    /// AFF-pipeline assemblies rejected by the CRC-16 (identifier
    /// collisions or surviving corruption).
    pub checksum_failures: u64,
    /// AFF identifier/bounds conflicts observed by the reassembler.
    pub identifier_conflicts: u64,
    /// Medium counters.
    pub medium: MediumStats,
    /// Total bits transmitted network-wide.
    pub total_bits_sent: u64,
    /// Mean per-sender radio energy, nanojoules (tx + rx + idle,
    /// honoring duty cycles).
    pub mean_sender_energy_nj: f64,
    /// The receiver's radio energy, nanojoules.
    pub receiver_energy_nj: f64,
    /// What the eavesdropper heard and injected (`None` in clean
    /// testbeds).
    pub adversary: Option<AdversaryStats>,
}

impl TrialResult {
    /// Delivery ratio: packets the AFF pipeline delivered per packet
    /// offered. With notifications enabled, recovered retransmissions
    /// raise this above `1 - collision_loss_rate` (a retransmitted
    /// packet counts once as offered but its recovery delivers it).
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.packets_offered == 0 {
            0.0
        } else {
            self.aff_delivered as f64 / self.packets_offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_testbed(id_bits: u8, policy: SelectorPolicy) -> Testbed {
        let mut testbed = Testbed::paper(id_bits, policy);
        // Shorter trials keep unit tests fast; integration tests run the
        // full two minutes.
        testbed.workload.stop = SimTime::from_secs(10);
        testbed
    }

    #[test]
    fn trial_delivers_packets_end_to_end() {
        let result = quick_testbed(8, SelectorPolicy::Uniform).run(1);
        assert!(result.truth_delivered > 20, "{result:?}");
        assert!(result.aff_delivered > 0);
        assert!(result.packets_offered >= result.truth_delivered);
    }

    #[test]
    fn tiny_id_space_collides_heavily() {
        let result = quick_testbed(1, SelectorPolicy::Uniform).run(2);
        assert!(
            result.collision_loss_rate > 0.5,
            "1-bit identifiers among 5 senders must collide: {result:?}"
        );
    }

    #[test]
    fn wide_id_space_rarely_collides() {
        let result = quick_testbed(16, SelectorPolicy::Uniform).run(3);
        assert!(
            result.collision_loss_rate < 0.05,
            "16-bit identifiers should almost never collide: {result:?}"
        );
    }

    #[test]
    fn listening_beats_uniform_at_marginal_widths() {
        // At 4 bits with T=5 the uniform policy loses a noticeable
        // fraction; listening in a fully connected testbed recovers most
        // of it (the gap in Figure 4).
        let uniform = quick_testbed(4, SelectorPolicy::Uniform).run(4);
        let listening = quick_testbed(4, SelectorPolicy::Listening { window: 10 }).run(4);
        assert!(
            listening.collision_loss_rate < uniform.collision_loss_rate,
            "listening {listening:?} vs uniform {uniform:?}"
        );
    }

    #[test]
    fn trials_are_reproducible() {
        let a = quick_testbed(6, SelectorPolicy::Uniform).run(9);
        let b = quick_testbed(6, SelectorPolicy::Uniform).run(9);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_vary() {
        let a = quick_testbed(6, SelectorPolicy::Uniform).run(10);
        let b = quick_testbed(6, SelectorPolicy::Uniform).run(11);
        // Medium totals can coincide on a saturated collision-free
        // channel (capacity-limited), but identifier selection must
        // differ between seeds.
        assert_ne!(a, b);
    }

    #[test]
    fn trials_are_shard_count_invariant() {
        // The testbed's whole output — protocol verdicts, medium
        // counters, energy — must not depend on how many shards the
        // engine uses.
        let mut testbed = quick_testbed(4, SelectorPolicy::Listening { window: 10 });
        testbed.workload.stop = SimTime::from_secs(5);
        let reference = testbed.run(19);
        for shards in [2, 4] {
            testbed.shards = shards;
            assert_eq!(
                testbed.run(19),
                reference,
                "trial diverged at {shards} shards"
            );
        }
    }

    /// The paper's network, written out as a layout.
    fn paper_mesh(transmitters: usize) -> Vec<NodeSpec> {
        let mesh = Topology::full_mesh(transmitters + 1, 100.0);
        mesh.node_ids()
            .map(|id| NodeSpec {
                position: mesh.position(id),
                role: if id.index() < transmitters {
                    Role::Sender { packet_bytes: 80 }
                } else {
                    Role::Receiver
                },
            })
            .collect()
    }

    #[test]
    fn a_spelled_out_paper_mesh_runs_the_default_layout() {
        let mut base = quick_testbed(4, SelectorPolicy::Listening { window: 10 });
        base.workload.stop = SimTime::from_secs(5);
        let variants = [
            base.clone(),
            base.clone().with_adversary(),
            base.clone().with_notifications(),
            Testbed {
                sender_duty: Some((SimDuration::from_millis(200), 0.25)),
                ..base.clone()
            },
            Testbed {
                id_bits: 16,
                policy: SelectorPolicy::StaticAddress { seq_bits: 8 },
                ..base.clone()
            },
        ];
        for shards in [1, 4] {
            for variant in &variants {
                let mut testbed = Testbed {
                    shards,
                    ..variant.clone()
                };
                let default = testbed.run(29);
                testbed.layout = Some(paper_mesh(testbed.transmitters));
                assert_eq!(testbed.run(29), default, "{testbed:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "simulate")]
    fn run_rejects_a_layout_without_a_receiver() {
        let mut testbed = quick_testbed(8, SelectorPolicy::Uniform);
        testbed.layout = Some(vec![NodeSpec {
            position: Position::new(0.0, 0.0),
            role: Role::Sender { packet_bytes: 80 },
        }]);
        let _ = testbed.run(1);
    }

    #[test]
    #[should_panic(expected = "simulate")]
    fn run_rejects_a_layout_with_two_receivers() {
        let mut testbed = quick_testbed(8, SelectorPolicy::Uniform);
        let mut layout = paper_mesh(2);
        layout.push(NodeSpec {
            position: Position::new(0.0, 0.0),
            role: Role::Receiver,
        });
        testbed.layout = Some(layout);
        let _ = testbed.run(1);
    }

    #[test]
    fn notifications_trigger_retransmissions_and_recover_packets() {
        // At 3 bits with five senders, collisions are frequent; the
        // Section 3.2 mechanism should fire and recover deliveries.
        let without = quick_testbed(3, SelectorPolicy::Uniform).run(12);
        let with = quick_testbed(3, SelectorPolicy::Uniform)
            .with_notifications()
            .run(12);
        assert_eq!(without.notifications_sent, 0);
        assert_eq!(without.retransmissions, 0);
        assert!(with.notifications_sent > 0, "{with:?}");
        assert!(with.retransmissions > 0, "{with:?}");
        assert!(
            with.retransmissions <= with.notifications_sent * 2,
            "at most the two colliding senders react per notification: {with:?}"
        );
        assert!(
            with.delivery_ratio() > without.delivery_ratio(),
            "recovery must raise goodput: {} vs {}",
            with.delivery_ratio(),
            without.delivery_ratio()
        );
    }

    #[test]
    fn duty_cycled_listeners_collide_more() {
        // Starving the listening heuristic of observations pushes the
        // collision rate back toward the blind bound (Section 3.2).
        let policy = SelectorPolicy::Listening { window: 10 };
        let awake = quick_testbed(4, policy).run(14);
        let mut sleepy_testbed = quick_testbed(4, policy);
        sleepy_testbed.sender_duty = Some((SimDuration::from_millis(200), 0.1));
        let sleepy = sleepy_testbed.run(14);
        assert!(sleepy.medium.sleep_misses > 0, "{sleepy:?}");
        assert!(
            sleepy.collision_loss_rate > awake.collision_loss_rate,
            "sleepy {sleepy:?} vs awake {awake:?}"
        );
    }

    #[test]
    fn observed_trial_matches_the_plain_trial() {
        // Observability and tracing never touch an RNG stream, so the
        // protocol-level outcome must be bit-identical with them on.
        let testbed = quick_testbed(6, SelectorPolicy::Uniform);
        let plain = testbed.run(9);
        let observed = testbed.run_observed(9, 1 << 16);
        assert_eq!(plain, observed.trial);
    }

    #[test]
    fn observed_trial_snapshot_mirrors_native_counters() {
        let mut testbed = quick_testbed(4, SelectorPolicy::Uniform);
        testbed.faults = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
            bit_error_rate: 0.0005,
            frame_erasure: 0.05,
        }));
        let observed = testbed.run_observed(17, 1 << 16);
        let snap = &observed.snapshot;
        let medium = observed.trial.medium;
        assert_eq!(snap.counter("netsim_frames_sent_total"), medium.frames_sent);
        assert_eq!(snap.counter("netsim_deliveries_total"), medium.deliveries);
        assert_eq!(
            snap.counter("aff_fragments_accepted_total"),
            observed.reassembly.fragments_accepted
        );
        assert_eq!(
            snap.counter("aff_fragments_sent_total"),
            observed.sender.fragments_sent
        );
        assert_eq!(
            snap.counter("aff_decode_errors_total"),
            observed.receiver.decode_errors
        );
        assert_eq!(
            snap.counter("aff_truth_delivered_total"),
            observed.trial.truth_delivered
        );
        // Every frame the receiver heard either parsed or did not.
        assert_eq!(
            observed.receiver.fragments_parsed + observed.receiver.decode_errors,
            snap.counter("aff_fragments_parsed_total") + snap.counter("aff_decode_errors_total")
        );
    }

    #[test]
    fn observed_trial_names_the_layouts_receiver() {
        let mut testbed = quick_testbed(8, SelectorPolicy::Uniform);
        testbed.workload.stop = SimTime::from_secs(2);
        let observed = testbed.run_observed(5, 1 << 16);
        assert_eq!((observed.receiver_id, observed.senders), (NodeId(5), 5));
        let sender = |x: f64| NodeSpec {
            position: Position::new(x, 0.0),
            role: Role::Sender { packet_bytes: 80 },
        };
        let receiver = NodeSpec {
            position: Position::new(0.0, 0.0),
            role: Role::Receiver,
        };
        testbed.layout = Some(vec![sender(-30.0), receiver, sender(30.0)]);
        let observed = testbed.run_observed(5, 1 << 16);
        assert_eq!((observed.receiver_id, observed.senders), (NodeId(1), 2));
        assert!(
            observed.receiver.fragments_parsed > 0,
            "{:?}",
            observed.receiver
        );
    }

    #[test]
    fn observed_trial_conserves_fragment_fates() {
        let testbed = quick_testbed(3, SelectorPolicy::Uniform);
        let observed = testbed.run_observed(23, 1 << 16);
        let stats = observed.reassembly;
        assert!(stats.fragments_accepted > 0);
        assert_eq!(
            stats.fragments_accepted,
            stats.fragments_resolved() + observed.pending_fragments,
            "every accepted fragment must have exactly one fate: {stats:?}"
        );
    }

    #[test]
    fn fault_off_trials_match_the_unfaulted_build() {
        let mut with_none = quick_testbed(6, SelectorPolicy::Uniform);
        with_none.faults = FaultModel::none();
        let base = quick_testbed(6, SelectorPolicy::Uniform).run(9);
        assert_eq!(base, with_none.run(9));
    }

    #[test]
    fn injected_bit_errors_flow_through_real_decode() {
        // A noticeable i.i.d. BER must surface as parse failures and/or
        // CRC rejections — never as silently delivered wrong bytes. The
        // ground-truth pipeline separates "lost to corruption" from
        // "lost to identifier collision".
        let mut testbed = quick_testbed(8, SelectorPolicy::Uniform);
        testbed.faults = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
            bit_error_rate: 0.002,
            frame_erasure: 0.0,
        }));
        let result = testbed.run(21);
        assert!(result.medium.corrupted_deliveries > 0, "{result:?}");
        assert!(
            result.decode_errors > 0,
            "some flips must break parsing: {result:?}"
        );
        assert!(
            result.truth_crc_rejections + result.checksum_failures > 0,
            "some flips must survive parse and die at the CRC: {result:?}"
        );
        assert!(
            result.truth_delivered > 0,
            "a 0.2% BER must not kill the channel: {result:?}"
        );
    }

    #[test]
    fn adversary_off_trials_match_the_adversary_unaware_shape() {
        // `adversary: None` must be a pure no-op: same node count, same
        // RNG draws, same result as a testbed that never mentions it.
        let mut with_none = quick_testbed(6, SelectorPolicy::Uniform);
        with_none.adversary = None;
        let base = quick_testbed(6, SelectorPolicy::Uniform).run(9);
        assert_eq!(base, with_none.run(9));
    }

    #[test]
    fn adversary_cripples_the_sequential_selector() {
        let clean = quick_testbed(12, SelectorPolicy::Sequential).run(30);
        let attacked = quick_testbed(12, SelectorPolicy::Sequential)
            .with_adversary()
            .run(30);
        let stats = attacked.adversary.expect("adversary was configured");
        assert!(stats.frames_heard > 0, "{stats:?}");
        assert!(stats.frames_injected > 0, "{stats:?}");
        assert!(
            attacked.collision_loss_rate > clean.collision_loss_rate + 0.05,
            "predicted-id spray must force losses: attacked {:?} vs clean {:?}",
            attacked,
            clean
        );
        assert!(
            attacked.truth_delivered > 0,
            "the spray contends for airtime but cannot silence the channel"
        );
    }

    #[test]
    fn adversary_barely_dents_unpredictable_selectors() {
        for policy in [SelectorPolicy::Uniform, SelectorPolicy::Permutation] {
            let attacked = quick_testbed(12, policy).with_adversary().run(31);
            assert!(
                attacked.collision_loss_rate < 0.05,
                "blind guessing in a 4096-id pool is harmless: {policy:?} {attacked:?}"
            );
        }
    }

    #[test]
    fn adversarial_trials_are_reproducible() {
        let testbed = quick_testbed(12, SelectorPolicy::Sequential).with_adversary();
        assert_eq!(testbed.run(33), testbed.run(33));
    }

    #[test]
    fn structured_selectors_deliver_end_to_end() {
        for policy in [SelectorPolicy::Permutation, SelectorPolicy::Sequential] {
            let result = quick_testbed(8, policy).run(34);
            assert!(result.truth_delivered > 20, "{policy:?}: {result:?}");
            assert!(result.aff_delivered > 0, "{policy:?}: {result:?}");
        }
    }

    #[test]
    fn notifications_idle_at_wide_identifiers() {
        // With 12-bit identifiers collisions are vanishingly rare: the
        // mechanism should cost almost nothing and never fire.
        let result = quick_testbed(12, SelectorPolicy::Uniform)
            .with_notifications()
            .run(13);
        assert_eq!(result.notifications_sent, 0, "{result:?}");
        assert_eq!(result.retransmissions, 0);
    }

    /// The static-addressing baseline: fragments keyed IP-style by
    /// `(static address, per-sender sequence)` — guaranteed unique,
    /// never colliding, and paying `addr_bits + seq_bits` of header in
    /// every fragment.
    mod static_address {
        use super::*;

        fn quick(addr_bits: u8) -> Testbed {
            quick_testbed(addr_bits, SelectorPolicy::StaticAddress { seq_bits: 8 })
        }

        /// Measured Eq. 1 efficiency: useful bits delivered over total
        /// bits transmitted.
        fn measured_efficiency(result: &TrialResult) -> f64 {
            let packet_bits = Workload::paper_trial().packet_bytes as u64 * 8;
            (result.aff_delivered * packet_bits) as f64 / result.total_bits_sent as f64
        }

        #[test]
        fn static_keys_never_collide() {
            let result = quick(16).run(1);
            assert!(result.aff_delivered > 20, "{result:?}");
            assert_eq!(result.checksum_failures, 0);
        }

        #[test]
        fn wider_addresses_cost_efficiency() {
            let narrow = measured_efficiency(&quick(16).run(2));
            let wide = measured_efficiency(&quick(48).run(2));
            assert!(
                wide < narrow,
                "48-bit addresses must be less efficient: {wide} vs {narrow}"
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
            // behind, wrapped keys land on that debris and fail
            // checksums — the very failure mode AFF's per-transaction
            // ephemerality is designed to avoid.
            let mut testbed = quick(16);
            testbed.policy = SelectorPolicy::StaticAddress { seq_bits: 1 };
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
            let e = measured_efficiency(&quick(16).run(3));
            assert!(e > 0.0 && e < 1.0, "efficiency {e}");
        }
    }
}
