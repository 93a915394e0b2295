//! Address-free, multi-hop data dissemination in the style of directed
//! diffusion.
//!
//! The paper positions RETRI inside the SCADDS architecture, whose
//! flagship communication pattern is directed diffusion (Intanagonwiwat
//! et al., the paper’s reference \[9\]): sinks flood *interests*, gradients form
//! toward the sink, and matching data flows down the gradients. This
//! module implements a deliberately address-free variant in which every
//! identifier is a RETRI identifier:
//!
//! - an **interest code** is a random ephemeral identifier naming one
//!   sink's current interest epoch. Sinks re-flood with a *fresh* code
//!   every epoch, so a code collision between two sinks cannot persist;
//! - a **sample identifier** is a random ephemeral identifier naming one
//!   data sample for the purpose of flood-duplicate suppression — a
//!   textbook RETRI "transaction". A collision makes a relay wrongly
//!   suppress a distinct sample: a loss, tolerated and measured.
//!
//! No node address appears on the air. Gradients are not per-neighbor
//! state (which would need neighbor identities) but a scalar *height* —
//! each node's hop distance to the sink, learned from the interest
//! flood. Data descends the height field: a node forwards a sample iff
//! the transmitting relay was higher than itself. Ground-truth origin
//! ids ride *inside the payload*, exactly as the paper prescribes ("a
//! node's unique identifier can be sent as data"), and are used here
//! only to measure false suppressions.
//!
//! # Wire format (byte-aligned for clarity)
//!
//! ```text
//! INTEREST: kind=1 | code (2B) | height (1B)
//! DATA:     kind=2 | code (2B) | height (1B) | sample id (2B)
//!           | origin (4B, payload) | seq (4B, payload) | value (2B, payload)
//! ```

use std::collections::BTreeMap;

use retri::select::{IdSelector, UniformSelector};
use retri::{IdentifierSpace, TransactionId};
use retri_netsim::prelude::*;

const KIND_INTEREST: u8 = 1;
const KIND_DATA: u8 = 2;

const TIMER_EPOCH: u64 = 1;
const TIMER_REFLOOD: u64 = 2;
const TIMER_SAMPLE: u64 = 3;
const TIMER_FORWARD: u64 = 4;

/// Maximum random delay before a forwarded frame is handed to the MAC.
/// Jitter desynchronizes the rebroadcast storms of flooding protocols,
/// which otherwise collide at hidden terminals (two forwarders out of
/// mutual carrier-sense range).
const FORWARD_JITTER_MICROS: u64 = 40_000;

/// Static configuration of the diffusion protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiffusionConfig {
    /// Interest-code width in bits (1..=16).
    pub interest_bits: u8,
    /// Sample-identifier width in bits (1..=16).
    pub sample_bits: u8,
    /// How often the sink picks a fresh interest code.
    pub epoch: SimDuration,
    /// How often the current interest is re-flooded within an epoch
    /// (repairs losses and reaches newcomers).
    pub reflood: SimDuration,
    /// How often a source produces a sample.
    pub sample_period: SimDuration,
    /// How long a seen sample identifier suppresses duplicates, µs.
    pub dedup_ttl_micros: u64,
    /// How long a gradient (a heard interest code) stays alive without
    /// being re-heard, µs. Should cover two or three re-flood periods —
    /// long enough to ride out a lost re-flood, short enough that a
    /// superseded epoch's code dies quickly (sources keep spending
    /// energy on every live code until it expires).
    pub gradient_ttl_micros: u64,
}

impl Default for DiffusionConfig {
    /// 8-bit interest codes, 10-bit sample ids, 30 s epochs, 5 s
    /// re-floods, a sample every 2 s.
    fn default() -> Self {
        DiffusionConfig {
            interest_bits: 8,
            sample_bits: 10,
            epoch: SimDuration::from_secs(30),
            reflood: SimDuration::from_secs(5),
            sample_period: SimDuration::from_secs(2),
            dedup_ttl_micros: 10_000_000,
            gradient_ttl_micros: 12_000_000,
        }
    }
}

/// What a node does in the diffusion network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum DiffusionRole {
    /// Floods interests and consumes matching samples.
    Sink,
    /// Produces samples for the current interest.
    Source,
    /// Forwards interests and samples.
    Relay,
}

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DiffusionStats {
    /// Interest floods originated (sinks only).
    pub interests_flooded: u64,
    /// Interest frames forwarded.
    pub interests_forwarded: u64,
    /// Samples originated (sources only).
    pub samples_produced: u64,
    /// Sample frames forwarded down the gradient.
    pub samples_forwarded: u64,
    /// Distinct samples delivered (sink only).
    pub samples_delivered: u64,
    /// Duplicate sample frames correctly suppressed.
    pub duplicates_suppressed: u64,
    /// Distinct samples wrongly suppressed because their ephemeral
    /// identifier collided with a different recent sample (the RETRI
    /// loss mode, measured via ground truth in the payload).
    pub false_suppressions: u64,
}

#[derive(Debug, Clone, Copy)]
struct SeenSample {
    origin: u32,
    seq: u32,
    last_seen: u64,
}

/// A decoded DATA frame (bundles the six wire fields).
#[derive(Debug, Clone, Copy)]
struct DataFrame {
    code: TransactionId,
    sender_height: u8,
    sample: TransactionId,
    origin: u32,
    seq: u32,
    value: u16,
}

#[derive(Debug, Clone, Copy)]
struct Gradient {
    height: u8,
    last_heard: u64,
    /// When this node last rebroadcast this code (rate-limits refresh
    /// forwarding to one per re-flood period).
    last_forwarded: u64,
}

/// One node of the diffusion network.
#[derive(Debug)]
pub struct DiffusionNode {
    role: DiffusionRole,
    config: DiffusionConfig,
    interest_space: IdentifierSpace,
    sample_space: IdentifierSpace,
    selector_interest: UniformSelector,
    selector_sample: UniformSelector,
    /// Ground-truth identity for payload-borne origin marking.
    origin: u32,
    /// This sink's own current code (sinks only).
    my_code: Option<TransactionId>,
    /// One gradient per live interest code: supports any number of
    /// concurrent sinks, each with its own ephemeral code. Ordered by
    /// code, so ties between gradients and the order of per-code sends
    /// are reproducible.
    gradients: BTreeMap<TransactionId, Gradient>,
    next_seq: u32,
    /// Duplicate suppression, keyed per (interest code, sample id):
    /// the same sample identifier under two different codes is two
    /// distinct flood transactions.
    seen: BTreeMap<(TransactionId, TransactionId), SeenSample>,
    outbox: std::collections::VecDeque<FramePayload>,
    stats: DiffusionStats,
}

impl DiffusionNode {
    /// Creates a node. `origin` must be unique per node (use the
    /// simulator node index); it travels only inside payloads.
    ///
    /// # Panics
    ///
    /// Panics if either identifier width is outside `1..=16`.
    #[must_use]
    pub fn new(role: DiffusionRole, config: DiffusionConfig, origin: u32) -> Self {
        assert!(
            (1..=16).contains(&config.interest_bits),
            "interest width {} outside 1..=16",
            config.interest_bits
        );
        assert!(
            (1..=16).contains(&config.sample_bits),
            "sample width {} outside 1..=16",
            config.sample_bits
        );
        let interest_space = IdentifierSpace::new(config.interest_bits).expect("validated above");
        let sample_space = IdentifierSpace::new(config.sample_bits).expect("validated above");
        DiffusionNode {
            role,
            config,
            interest_space,
            sample_space,
            selector_interest: UniformSelector::new(interest_space),
            selector_sample: UniformSelector::new(sample_space),
            origin,
            my_code: None,
            gradients: BTreeMap::new(),
            next_seq: 0,
            seen: BTreeMap::new(),
            outbox: std::collections::VecDeque::new(),
            stats: DiffusionStats::default(),
        }
    }

    /// Queues a frame for transmission after a short random jitter,
    /// breaking the synchronized rebroadcast bursts that collide at
    /// hidden terminals.
    fn send_jittered(&mut self, ctx: &mut Context<'_>, payload: FramePayload) {
        use rand::Rng as _;
        self.outbox.push_back(payload);
        let jitter = ctx.rng().gen_range(1..=FORWARD_JITTER_MICROS);
        ctx.set_timer(SimDuration::from_micros(jitter), TIMER_FORWARD);
    }

    /// The node's role.
    #[must_use]
    pub fn role(&self) -> DiffusionRole {
        self.role
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DiffusionStats {
        self.stats
    }

    /// Hop distance to the nearest sink over any live gradient (`None`
    /// until an interest has been heard). A sink reports `Some(0)`.
    #[must_use]
    pub fn height(&self) -> Option<u8> {
        if self.role == DiffusionRole::Sink {
            return self.my_code.map(|_| 0);
        }
        self.gradients.values().map(|g| g.height).min()
    }

    fn encode_interest(code: TransactionId, height: u8) -> FramePayload {
        let raw = code.value() as u16;
        FramePayload::from_bytes(vec![KIND_INTEREST, (raw >> 8) as u8, raw as u8, height])
            .expect("non-empty")
    }

    fn encode_data(
        code: TransactionId,
        height: u8,
        sample: TransactionId,
        origin: u32,
        seq: u32,
        value: u16,
    ) -> FramePayload {
        let code_raw = code.value() as u16;
        let sample_raw = sample.value() as u16;
        let mut bytes = vec![
            KIND_DATA,
            (code_raw >> 8) as u8,
            code_raw as u8,
            height,
            (sample_raw >> 8) as u8,
            sample_raw as u8,
        ];
        bytes.extend_from_slice(&origin.to_be_bytes());
        bytes.extend_from_slice(&seq.to_be_bytes());
        bytes.extend_from_slice(&value.to_be_bytes());
        FramePayload::from_bytes(bytes).expect("non-empty")
    }

    fn new_epoch(&mut self, ctx: &mut Context<'_>) {
        debug_assert_eq!(self.role, DiffusionRole::Sink);
        let code = self.selector_interest.select(ctx.rng());
        self.my_code = Some(code);
        // Old samples belong to the old epoch.
        self.seen.clear();
        self.flood_interest(ctx);
        ctx.set_timer(self.config.epoch, TIMER_EPOCH);
        ctx.set_timer(self.config.reflood, TIMER_REFLOOD);
    }

    fn flood_interest(&mut self, ctx: &mut Context<'_>) {
        if let Some(code) = self.my_code {
            let _ = ctx.send(Self::encode_interest(code, 0));
            self.stats.interests_flooded += 1;
        }
    }

    fn produce_sample(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now().as_micros();
        self.expire_gradients(now);
        // One reading, announced once per live interest (each sink gets
        // its own flood transaction under a fresh sample identifier).
        let codes: Vec<(TransactionId, u8)> = self
            .gradients
            .iter()
            .map(|(code, g)| (*code, g.height))
            .collect();
        if codes.is_empty() {
            return; // no interest heard yet
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let value = (seq % 1000) as u16;
        for (code, height) in codes {
            let sample = self.selector_sample.select(ctx.rng());
            // Remember our own sample so we do not re-forward our echo.
            self.remember(code, sample, self.origin, seq, ctx.now().as_micros());
            let _ = ctx.send(Self::encode_data(
                code,
                height,
                sample,
                self.origin,
                seq,
                value,
            ));
        }
        self.stats.samples_produced += 1;
    }

    fn remember(
        &mut self,
        code: TransactionId,
        sample: TransactionId,
        origin: u32,
        seq: u32,
        now: u64,
    ) {
        let ttl = self.config.dedup_ttl_micros;
        self.seen
            .retain(|_, entry| now.saturating_sub(entry.last_seen) <= ttl);
        self.seen.insert(
            (code, sample),
            SeenSample {
                origin,
                seq,
                last_seen: now,
            },
        );
    }

    fn expire_gradients(&mut self, now: u64) {
        let ttl = self.config.gradient_ttl_micros;
        self.gradients
            .retain(|_, g| now.saturating_sub(g.last_heard) <= ttl);
    }

    fn on_interest(&mut self, ctx: &mut Context<'_>, code: TransactionId, heard_height: u8) {
        if self.role == DiffusionRole::Sink {
            return; // sinks originate interests; they do not adopt them
        }
        let now = ctx.now().as_micros();
        self.expire_gradients(now);
        let my_new_height = heard_height.saturating_add(1);
        match self.gradients.get_mut(&code) {
            None => {
                self.gradients.insert(
                    code,
                    Gradient {
                        height: my_new_height,
                        last_heard: now,
                        last_forwarded: now,
                    },
                );
                let payload = Self::encode_interest(code, my_new_height);
                self.send_jittered(ctx, payload);
                self.stats.interests_forwarded += 1;
            }
            Some(gradient) => {
                gradient.last_heard = now;
                let refresh_due =
                    now.saturating_sub(gradient.last_forwarded) >= self.config.reflood.as_micros();
                if my_new_height < gradient.height {
                    gradient.height = my_new_height;
                    gradient.last_forwarded = now;
                    let payload = Self::encode_interest(code, my_new_height);
                    self.send_jittered(ctx, payload);
                    self.stats.interests_forwarded += 1;
                } else if heard_height > gradient.height.saturating_add(1) {
                    // Gradient repair: a neighbor believes the sink is
                    // much farther than it is through us — it must have
                    // missed our earlier advertisement (RF loss during
                    // the flood storm). Re-advertise so its next
                    // relaxation step can descend; without this, one
                    // lost frame pins an inflated height until the next
                    // epoch.
                    gradient.last_forwarded = now;
                    let height = gradient.height;
                    let payload = Self::encode_interest(code, height);
                    self.send_jittered(ctx, payload);
                    self.stats.interests_forwarded += 1;
                } else if heard_height < gradient.height && refresh_due {
                    // Keep-alive propagation: the sink's periodic
                    // re-flood must reach every hop or distant gradients
                    // expire. Forward at most once per re-flood period.
                    gradient.last_forwarded = now;
                    let height = gradient.height;
                    let payload = Self::encode_interest(code, height);
                    self.send_jittered(ctx, payload);
                    self.stats.interests_forwarded += 1;
                }
            }
        }
    }

    fn on_data(&mut self, ctx: &mut Context<'_>, data: DataFrame) {
        let DataFrame {
            code,
            sender_height,
            sample,
            origin,
            seq,
            value,
        } = data;
        let now = ctx.now().as_micros();
        self.expire_gradients(now);
        let my_height = if self.role == DiffusionRole::Sink {
            if self.my_code != Some(code) {
                return; // another sink's stream (or a stale epoch)
            }
            0
        } else {
            match self.gradients.get(&code) {
                Some(gradient) => gradient.height,
                None => return, // no gradient for this interest yet
            }
        };
        // Duplicate suppression by ephemeral sample identifier, scoped
        // to the interest code.
        let ttl = self.config.dedup_ttl_micros;
        self.seen
            .retain(|_, entry| now.saturating_sub(entry.last_seen) <= ttl);
        if let Some(entry) = self.seen.get_mut(&(code, sample)) {
            entry.last_seen = now;
            if entry.origin == origin && entry.seq == seq {
                self.stats.duplicates_suppressed += 1;
            } else {
                // A *different* sample under the same ephemeral id: the
                // RETRI collision loss, visible only through the
                // ground truth in the payload.
                self.stats.false_suppressions += 1;
            }
            return;
        }
        self.remember(code, sample, origin, seq, now);
        if self.role == DiffusionRole::Sink {
            self.stats.samples_delivered += 1;
            let _ = value;
            return;
        }
        // Descend the gradient: forward only if the sample came from
        // higher up (a peer at our height on another branch would also
        // carry it — forwarding on equal height would double every
        // frame, so strictly higher only).
        if sender_height > my_height {
            let payload = Self::encode_data(code, my_height, sample, origin, seq, value);
            self.send_jittered(ctx, payload);
            self.stats.samples_forwarded += 1;
        }
    }
}

impl Protocol for DiffusionNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        match self.role {
            DiffusionRole::Sink => self.new_epoch(ctx),
            DiffusionRole::Source => {
                ctx.set_timer(self.config.sample_period, TIMER_SAMPLE);
            }
            DiffusionRole::Relay => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        let bytes = frame.payload.bytes();
        if bytes.len() < 4 {
            return;
        }
        let code_raw = (u64::from(bytes[1]) << 8) | u64::from(bytes[2]);
        let Ok(code) = self
            .interest_space
            .id(code_raw & self.interest_space.mask())
        else {
            return;
        };
        match bytes[0] {
            KIND_INTEREST => self.on_interest(ctx, code, bytes[3]),
            KIND_DATA if bytes.len() >= 16 => {
                let sample_raw = (u64::from(bytes[4]) << 8) | u64::from(bytes[5]);
                let Ok(sample) = self.sample_space.id(sample_raw & self.sample_space.mask()) else {
                    return;
                };
                let origin = u32::from_be_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
                let seq = u32::from_be_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
                let value = u16::from_be_bytes([bytes[14], bytes[15]]);
                self.on_data(
                    ctx,
                    DataFrame {
                        code,
                        sender_height: bytes[3],
                        sample,
                        origin,
                        seq,
                        value,
                    },
                );
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        match timer.token {
            TIMER_EPOCH if self.role == DiffusionRole::Sink => self.new_epoch(ctx),
            TIMER_REFLOOD if self.role == DiffusionRole::Sink => {
                use rand::Rng as _;
                self.flood_interest(ctx);
                // Jitter keeps periodic floods from phase-locking with
                // periodic data at hidden-terminal relays.
                let jitter = ctx.rng().gen_range(0..=self.config.reflood.as_micros() / 4);
                ctx.set_timer(
                    self.config.reflood + SimDuration::from_micros(jitter),
                    TIMER_REFLOOD,
                );
            }
            TIMER_SAMPLE if self.role == DiffusionRole::Source => {
                use rand::Rng as _;
                self.produce_sample(ctx);
                let jitter = ctx
                    .rng()
                    .gen_range(0..=self.config.sample_period.as_micros() / 4);
                ctx.set_timer(
                    self.config.sample_period + SimDuration::from_micros(jitter),
                    TIMER_SAMPLE,
                );
            }
            TIMER_FORWARD => {
                if let Some(payload) = self.outbox.pop_front() {
                    let _ = ctx.send(payload);
                }
            }
            _ => {}
        }
    }
}

/// Builds a line network `sink — relay … relay — source` with the given
/// number of hops and runs it; returns the simulator for inspection.
/// Node 0 is the sink; the last node is the source.
#[must_use]
pub fn run_line(
    hops: usize,
    config: DiffusionConfig,
    duration: SimDuration,
    seed: u64,
) -> ShardedSim<DiffusionNode> {
    assert!(hops >= 1, "need at least one hop");
    let nodes = hops + 1;
    let mut sim = ShardedSimBuilder::new(seed)
        .radio(RadioConfig::radiometrix_rpc())
        .mac(MacConfig::csma())
        .range(60.0)
        .build(move |id: NodeId| {
            let role = if id.index() == 0 {
                DiffusionRole::Sink
            } else if id.index() == nodes - 1 {
                DiffusionRole::Source
            } else {
                DiffusionRole::Relay
            };
            DiffusionNode::new(role, config, id.0)
        });
    for i in 0..nodes {
        // 50 m spacing with 60 m range: strictly nearest-neighbor links.
        sim.add_node_at(Position::new(i as f64 * 50.0, 0.0));
    }
    sim.run_until(SimTime::ZERO + duration);
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The interest code in effect at `node`: a sink's own code, or the
    /// code of the lowest (nearest) live gradient, ties going to the
    /// smaller code.
    fn current_code(node: &DiffusionNode) -> Option<TransactionId> {
        if node.role == DiffusionRole::Sink {
            return node.my_code;
        }
        node.gradients
            .iter()
            .min_by_key(|(_, g)| g.height)
            .map(|(code, _)| *code)
    }

    /// All live interest codes known to `node`, in code order.
    fn live_codes(node: &DiffusionNode) -> impl Iterator<Item = TransactionId> + '_ {
        node.gradients.keys().copied()
    }

    #[test]
    fn interest_flood_builds_heights_along_the_line() {
        let sim = run_line(4, DiffusionConfig::default(), SimDuration::from_secs(10), 1);
        for i in 0..=4u32 {
            assert_eq!(
                sim.protocol(NodeId(i)).height(),
                Some(i as u8),
                "node {i} height"
            );
        }
        // Everyone converged on the sink's code.
        let code = current_code(sim.protocol(NodeId(0)));
        for i in 1..=4u32 {
            assert_eq!(current_code(sim.protocol(NodeId(i))), code);
        }
    }

    #[test]
    fn samples_flow_down_the_gradient_to_the_sink() {
        let sim = run_line(4, DiffusionConfig::default(), SimDuration::from_secs(40), 2);
        let source = sim.protocol(NodeId(4)).stats();
        let sink = sim.protocol(NodeId(0)).stats();
        assert!(source.samples_produced >= 10, "{source:?}");
        // Nearly all samples arrive (lossless radio, CSMA line).
        assert!(
            sink.samples_delivered >= source.samples_produced - 2,
            "sink {sink:?} vs source {source:?}"
        );
        // Relays forwarded them.
        for i in 1..=3u32 {
            assert!(sim.protocol(NodeId(i)).stats().samples_forwarded > 0);
        }
    }

    #[test]
    fn duplicate_frames_are_suppressed_not_multiplied() {
        // In a line, a relay's rebroadcast is heard by the node it came
        // from; suppression must stop infinite echo.
        let sim = run_line(3, DiffusionConfig::default(), SimDuration::from_secs(30), 3);
        let source = sim.protocol(NodeId(3)).stats();
        let sink = sim.protocol(NodeId(0)).stats();
        assert!(sink.samples_delivered <= source.samples_produced);
        let total_suppressed: u64 = sim
            .node_ids()
            .map(|id| sim.protocol(id).stats().duplicates_suppressed)
            .sum();
        assert!(total_suppressed > 0, "echoes must be suppressed");
    }

    #[test]
    fn epochs_refresh_the_interest_code() {
        let config = DiffusionConfig {
            epoch: SimDuration::from_secs(5),
            ..DiffusionConfig::default()
        };
        let mut sim = run_line(2, config, SimDuration::from_secs(4), 4);
        let first_code = current_code(sim.protocol(NodeId(0)));
        // Run past the next epoch *and* one re-flood, so the relay has
        // seen the fresh code even if the first flood frame was lost to
        // a hidden-terminal collision with the source's data.
        sim.run_until(SimTime::from_secs(17));
        let later_code = current_code(sim.protocol(NodeId(0)));
        // With 8-bit codes the chance of re-drawing the same one across
        // two epochs is 2/256 over this window; the fixed seed makes
        // the assertion deterministic.
        assert_ne!(first_code, later_code, "epoch must pick a fresh code");
        // Relays learned the new code (the old gradient may linger until
        // its ttl — multi-sink support keeps every live code).
        let relay_codes: Vec<_> = live_codes(sim.protocol(NodeId(1))).collect();
        assert!(relay_codes.contains(&later_code.unwrap()));
    }

    #[test]
    fn tiny_sample_space_causes_false_suppressions() {
        // 2-bit sample ids with many samples in flight: collisions must
        // appear, and they are *measured*, not fatal.
        let config = DiffusionConfig {
            sample_bits: 2,
            sample_period: SimDuration::from_millis(300),
            ..DiffusionConfig::default()
        };
        let mut false_suppressions = 0;
        for seed in 0..3 {
            let sim = run_line(3, config, SimDuration::from_secs(60), 50 + seed);
            false_suppressions += sim
                .node_ids()
                .map(|id| sim.protocol(id).stats().false_suppressions)
                .sum::<u64>();
        }
        assert!(
            false_suppressions > 0,
            "4 sample ids at this rate must collide"
        );
    }

    #[test]
    fn sane_sample_space_rarely_false_suppresses() {
        let sim = run_line(3, DiffusionConfig::default(), SimDuration::from_secs(60), 6);
        let false_suppressions: u64 = sim
            .node_ids()
            .map(|id| sim.protocol(id).stats().false_suppressions)
            .sum();
        let delivered = sim.protocol(NodeId(0)).stats().samples_delivered;
        assert!(delivered > 15, "delivered only {delivered}");
        assert!(
            false_suppressions <= delivered / 10,
            "10-bit sample ids should almost never collide: {false_suppressions}"
        );
    }

    #[test]
    fn two_sinks_receive_independently() {
        // Multi-sink: sinks at both ends of a line, one source in the
        // middle. Each sink floods its own ephemeral code; the source
        // answers both; relays keep one gradient per code.
        let config = DiffusionConfig::default();
        let mut sim = ShardedSimBuilder::new(33)
            .radio(RadioConfig::radiometrix_rpc())
            .mac(MacConfig::csma())
            .range(60.0)
            .build(move |id: NodeId| {
                let role = match id.index() {
                    0 | 4 => DiffusionRole::Sink,
                    2 => DiffusionRole::Source,
                    _ => DiffusionRole::Relay,
                };
                DiffusionNode::new(role, config, id.0)
            });
        for i in 0..5 {
            sim.add_node_at(Position::new(i as f64 * 50.0, 0.0));
        }
        sim.run_until(SimTime::from_secs(40));
        let left = sim.protocol(NodeId(0));
        let right = sim.protocol(NodeId(4));
        // Distinct ephemeral codes (8-bit space, fixed seed).
        assert_ne!(current_code(left), current_code(right));
        // Both sinks receive a healthy share of the source's readings.
        let produced = sim.protocol(NodeId(2)).stats().samples_produced;
        assert!(produced >= 15, "{produced}");
        for sink in [NodeId(0), NodeId(4)] {
            let delivered = sim.protocol(sink).stats().samples_delivered;
            assert!(
                delivered as f64 >= produced as f64 * 0.6,
                "sink {sink} got {delivered}/{produced}"
            );
        }
        // The source is serving two live gradients.
        assert!(live_codes(sim.protocol(NodeId(2))).count() >= 2);
    }

    #[test]
    fn relay_without_interest_stays_silent() {
        // A node that never heard an interest has no gradient and must
        // not forward data.
        let config = DiffusionConfig::default();
        let mut sim = ShardedSimBuilder::new(7)
            .range(60.0)
            .build(move |id: NodeId| DiffusionNode::new(DiffusionRole::Relay, config, id.0));
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.run_until(SimTime::from_secs(5));
        let stats = sim.protocol(NodeId(0)).stats();
        assert_eq!(stats.interests_forwarded, 0);
        assert_eq!(stats.samples_forwarded, 0);
        assert_eq!(sim.protocol(NodeId(0)).height(), None);
    }

    /// The `wildfire_watch` example's network: a 5×5 grid at 50 m
    /// spacing, the sink in one corner and two sources in the other,
    /// run for 120 s from seed 1610. Sources serve more than one live
    /// gradient at a time.
    fn run_wildfire_grid() -> ShardedSim<DiffusionNode> {
        const SIDE: usize = 5;
        let config = DiffusionConfig::default();
        let mut sim = ShardedSimBuilder::new(1610)
            .radio(RadioConfig::radiometrix_rpc())
            .mac(MacConfig::csma())
            .range(60.0)
            .build(move |id: NodeId| {
                let role = match id.index() {
                    0 => DiffusionRole::Sink,
                    i if i >= SIDE * SIDE - 2 => DiffusionRole::Source,
                    _ => DiffusionRole::Relay,
                };
                DiffusionNode::new(role, config, id.0)
            });
        for row in 0..SIDE {
            for col in 0..SIDE {
                sim.add_node_at(Position::new(col as f64 * 50.0, row as f64 * 50.0));
            }
        }
        sim.run_until(SimTime::from_secs(120));
        sim
    }

    /// Regression: two runs of one seeded scenario in one process agree
    /// on every counter. The grid case failed while gradients lived in
    /// a std `HashMap`, whose per-instance random keys ordered a
    /// source's per-code sends and broke height ties.
    #[test]
    fn runs_are_reproducible() {
        let line = || run_line(3, DiffusionConfig::default(), SimDuration::from_secs(20), 9);
        for run in [line, run_wildfire_grid] {
            let (a, b) = (run(), run());
            assert!(a.stats().deliveries > 0);
            assert_eq!(a.stats(), b.stats());
            for id in a.node_ids() {
                assert_eq!(a.protocol(id).stats(), b.protocol(id).stats());
                assert_eq!(a.protocol(id).height(), b.protocol(id).height());
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn rejects_wide_interest_codes() {
        let _ = DiffusionNode::new(
            DiffusionRole::Relay,
            DiffusionConfig {
                interest_bits: 17,
                ..DiffusionConfig::default()
            },
            0,
        );
    }
}
