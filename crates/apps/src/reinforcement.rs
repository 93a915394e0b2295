//! Interest reinforcement with ephemeral stream identifiers.
//!
//! The paper's first "other context" (Section 6): *"When a node
//! transmits a sensor reading, its neighbors periodically send feedback
//! to the transmitter indicating their level of interest. ... RETRI can
//! serve this purpose equally well: 'Whoever just sent data with
//! Identifier 4, send more of that.'"*
//!
//! Sensors broadcast readings tagged with an ephemeral identifier that
//! they re-pick each *epoch*. A sink reinforces identifiers whose
//! readings it finds interesting (here: value above a threshold).
//! Sensors that hear a reinforcement for their *current* identifier
//! raise their reporting rate; others decay back to the base rate.
//!
//! If two sensors pick the same identifier in the same epoch, a
//! reinforcement meant for one also accelerates the other — a
//! *misdirected reinforcement*. Because identifiers are ephemeral, the
//! mistake lasts at most an epoch; the run statistics expose how often
//! it happens so the experiment can confirm the "small marginal effect"
//! claim.

use rand::Rng;
use retri::select::{IdSelector, UniformSelector};
use retri::{IdentifierSpace, TransactionId};
use retri_netsim::prelude::*;

const MSG_READING: u8 = 1;
const MSG_REINFORCE: u8 = 2;

const TIMER_REPORT: u64 = 1;
const TIMER_EPOCH: u64 = 2;

/// Counters kept by a sensor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SensorStats {
    /// Readings broadcast.
    pub readings_sent: u64,
    /// Reinforcements heard for this sensor's current identifier.
    pub reinforcements_matched: u64,
    /// Of those, reinforcements heard while this sensor was NOT sending
    /// interesting data — i.e. received only because of an identifier
    /// collision with an interesting sensor.
    pub misdirected: u64,
    /// Epochs begun (each with a fresh identifier).
    pub epochs: u64,
}

/// Counters kept by a sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SinkStats {
    /// Readings heard.
    pub readings_heard: u64,
    /// Of those, interesting ones.
    pub interesting_heard: u64,
    /// Reinforcements sent.
    pub reinforcements_sent: u64,
}

/// A sensor that reports a (fixed, per-node) value each period under an
/// ephemeral per-epoch identifier.
#[derive(Debug)]
pub struct Sensor {
    space: IdentifierSpace,
    selector: UniformSelector,
    current_id: Option<TransactionId>,
    /// The value this sensor reports; "interesting" if above the sink
    /// threshold.
    pub value: u16,
    base_period: SimDuration,
    boosted_period: SimDuration,
    epoch: SimDuration,
    boosted: bool,
    stats: SensorStats,
}

/// A sink that reinforces identifiers carrying interesting readings.
#[derive(Debug)]
pub struct Sink {
    space: IdentifierSpace,
    threshold: u16,
    stats: SinkStats,
}

/// Either role, for mixed networks.
#[derive(Debug)]
pub enum ReinforcementNode {
    /// A reporting sensor.
    Sensor(Sensor),
    /// The interested sink.
    Sink(Sink),
}

impl ReinforcementNode {
    /// Creates a sensor node.
    #[must_use]
    pub fn sensor(
        space: IdentifierSpace,
        value: u16,
        base_period: SimDuration,
        epoch: SimDuration,
    ) -> Self {
        ReinforcementNode::Sensor(Sensor {
            space,
            selector: UniformSelector::new(space),
            current_id: None,
            value,
            base_period,
            boosted_period: SimDuration::from_micros((base_period.as_micros() / 4).max(1)),
            epoch,
            boosted: false,
            stats: SensorStats::default(),
        })
    }

    /// Creates a sink node reinforcing readings above `threshold`.
    #[must_use]
    pub fn sink(space: IdentifierSpace, threshold: u16) -> Self {
        ReinforcementNode::Sink(Sink {
            space,
            threshold,
            stats: SinkStats::default(),
        })
    }

    /// Sensor statistics, if this is a sensor.
    #[must_use]
    pub fn sensor_stats(&self) -> Option<SensorStats> {
        match self {
            ReinforcementNode::Sensor(s) => Some(s.stats),
            ReinforcementNode::Sink(_) => None,
        }
    }

    /// Sink statistics, if this is the sink.
    #[must_use]
    pub fn sink_stats(&self) -> Option<SinkStats> {
        match self {
            ReinforcementNode::Sink(s) => Some(s.stats),
            ReinforcementNode::Sensor(_) => None,
        }
    }
}

/// Wire: kind (8) + identifier (H, bit-packed into 2 bytes here for
/// simplicity — the efficiency argument is made by the AFF experiments;
/// this app focuses on semantics) + value (16).
fn encode(kind: u8, id: TransactionId, value: u16) -> FramePayload {
    let raw = id.value() as u16;
    FramePayload::from_bytes(vec![
        kind,
        (raw >> 8) as u8,
        raw as u8,
        (value >> 8) as u8,
        value as u8,
    ])
    .expect("non-empty")
}

fn decode(space: IdentifierSpace, frame: &Frame) -> Option<(u8, TransactionId, u16)> {
    let bytes = frame.payload.bytes();
    if bytes.len() < 5 {
        return None;
    }
    let raw = (u64::from(bytes[1]) << 8) | u64::from(bytes[2]);
    let id = space.id(raw & space.mask()).ok()?;
    let value = (u16::from(bytes[3]) << 8) | u16::from(bytes[4]);
    Some((bytes[0], id, value))
}

impl Sensor {
    fn new_epoch(&mut self, ctx: &mut Context<'_>) {
        self.current_id = Some(self.selector.select(ctx.rng()));
        self.boosted = false;
        self.stats.epochs += 1;
        ctx.set_timer(self.epoch, TIMER_EPOCH);
    }

    fn report(&mut self, ctx: &mut Context<'_>) {
        if let Some(id) = self.current_id {
            let _ = ctx.send(encode(MSG_READING, id, self.value));
            self.stats.readings_sent += 1;
        }
        let period = if self.boosted {
            self.boosted_period
        } else {
            self.base_period
        };
        // Jitter desynchronizes sensors that booted together.
        let jitter = ctx.rng().gen_range(0..=period.as_micros() / 8);
        ctx.set_timer(period + SimDuration::from_micros(jitter), TIMER_REPORT);
    }
}

impl Protocol for ReinforcementNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        match self {
            ReinforcementNode::Sensor(sensor) => {
                sensor.new_epoch(ctx);
                sensor.report(ctx);
            }
            ReinforcementNode::Sink(_) => {}
        }
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        match self {
            ReinforcementNode::Sensor(sensor) => {
                let Some((kind, id, _value)) = decode(sensor.space, frame) else {
                    return;
                };
                if kind == MSG_REINFORCE && sensor.current_id == Some(id) {
                    sensor.stats.reinforcements_matched += 1;
                    sensor.boosted = true;
                    // The paper's collision effect: this sensor was
                    // reinforced although its own data is boring.
                    if !interesting(sensor.value) {
                        sensor.stats.misdirected += 1;
                    }
                }
            }
            ReinforcementNode::Sink(sink) => {
                let Some((kind, id, value)) = decode(sink.space, frame) else {
                    return;
                };
                if kind == MSG_READING {
                    sink.stats.readings_heard += 1;
                    if value >= sink.threshold {
                        sink.stats.interesting_heard += 1;
                        let _ = ctx.send(encode(MSG_REINFORCE, id, 0));
                        sink.stats.reinforcements_sent += 1;
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        if let ReinforcementNode::Sensor(sensor) = self {
            match timer.token {
                TIMER_REPORT => sensor.report(ctx),
                TIMER_EPOCH => sensor.new_epoch(ctx),
                _ => {}
            }
        }
    }
}

/// The fixed "interesting" predicate shared by sinks (threshold 1000)
/// and the misdirection accounting.
fn interesting(value: u16) -> bool {
    value >= 1000
}

/// The sink threshold matching the fixed "interesting" predicate.
pub const INTERESTING_THRESHOLD: u16 = 1000;

#[cfg(test)]
mod tests {
    use super::*;

    /// n sensors (half interesting) + 1 sink, full mesh.
    fn run(sensors: usize, id_bits: u8, seconds: u64, seed: u64) -> ShardedSim<ReinforcementNode> {
        let space = IdentifierSpace::new(id_bits).unwrap();
        let mut sim = ShardedSimBuilder::new(seed)
            .radio(RadioConfig::radiometrix_rpc())
            .range(100.0)
            .build(move |id: NodeId| {
                if id.index() < sensors {
                    // Even-index sensors are interesting, odd boring.
                    let value = if id.index().is_multiple_of(2) {
                        2000
                    } else {
                        10
                    };
                    ReinforcementNode::sensor(
                        space,
                        value,
                        SimDuration::from_millis(500),
                        SimDuration::from_secs(5),
                    )
                } else {
                    ReinforcementNode::sink(space, INTERESTING_THRESHOLD)
                }
            });
        let topo = Topology::full_mesh(sensors + 1, 100.0);
        for id in topo.node_ids() {
            sim.add_node_at(topo.position(id));
        }
        sim.run_until(SimTime::from_secs(seconds));
        sim
    }

    #[test]
    fn interesting_sensors_get_reinforced() {
        let sim = run(4, 16, 30, 1);
        let interesting = sim.protocol(NodeId(0)).sensor_stats().unwrap();
        let boring = sim.protocol(NodeId(1)).sensor_stats().unwrap();
        assert!(interesting.reinforcements_matched > 0);
        // With 16-bit identifiers collisions are essentially impossible,
        // so the boring sensor hears nothing for its ids.
        assert_eq!(boring.reinforcements_matched, 0);
        assert_eq!(boring.misdirected, 0);
    }

    #[test]
    fn boost_accelerates_reporting() {
        let sim = run(2, 16, 30, 2);
        let interesting = sim.protocol(NodeId(0)).sensor_stats().unwrap();
        let boring = sim.protocol(NodeId(1)).sensor_stats().unwrap();
        assert!(
            interesting.readings_sent > boring.readings_sent,
            "reinforced sensor must report faster: {interesting:?} vs {boring:?}"
        );
    }

    #[test]
    fn tiny_id_space_misdirects_occasionally() {
        // 2-bit identifiers among 8 sensors: collisions are common, so
        // some boring sensors get reinforced by mistake.
        let mut misdirected = 0;
        for seed in 0..5 {
            let sim = run(8, 2, 40, 100 + seed);
            for id in sim.node_ids().take(8) {
                misdirected += sim.protocol(id).sensor_stats().unwrap().misdirected;
            }
        }
        assert!(
            misdirected > 0,
            "with 4 identifiers and 8 sensors, misdirection must occur"
        );
    }

    #[test]
    fn misdirection_is_bounded_by_epochs() {
        // The ephemeral re-pick heals mistakes: a boring sensor is never
        // misdirected more often than once per report within an epoch,
        // and across epochs the rate stays a small fraction at sane
        // widths.
        let sim = run(6, 8, 60, 7);
        for id in sim.node_ids().take(6) {
            let stats = sim.protocol(id).sensor_stats().unwrap();
            assert!(stats.epochs >= 10);
            if stats.misdirected > 0 {
                // Misdirected reinforcements only make sense for boring
                // sensors that collided — and stay rare.
                assert!(stats.misdirected < stats.readings_sent);
            }
        }
    }

    #[test]
    fn sink_counts_are_consistent() {
        let sim = run(4, 16, 20, 3);
        let sink = sim.protocol(NodeId(4)).sink_stats().unwrap();
        assert!(sink.readings_heard >= sink.interesting_heard);
        assert_eq!(sink.reinforcements_sent, sink.interesting_heard);
    }
}
