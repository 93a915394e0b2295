//! Habitat monitoring: a sensor field with interest reinforcement.
//!
//! The scenario the paper's introduction motivates: a dense, unattended
//! field of sensors reporting ambient readings, where a sink steers
//! reporting rates with address-free feedback — "whoever just sent data
//! with identifier 4, send more of that" (Section 6).
//!
//! Twelve sensors surround a sink; sensors near a (simulated) animal
//! track report motion values above the interest threshold and get
//! reinforced, speeding up their reports. Everything runs over
//! 27-byte-frame low-power radios with 8-bit ephemeral identifiers.
//!
//! Run with: `cargo run --release -p retri-examples --bin habitat_monitoring`

use retri::IdentifierSpace;
use retri_apps::reinforcement::{ReinforcementNode, INTERESTING_THRESHOLD};
use retri_netsim::prelude::*;
use retri_netsim::topology::Topology;

fn main() {
    const SENSORS: usize = 12;
    let space = IdentifierSpace::new(8).expect("8-bit identifiers");
    let mut sim = ShardedSimBuilder::new(1870)
        .radio(RadioConfig::radiometrix_rpc())
        .range(120.0)
        .build(move |id: NodeId| {
            if id.index() < SENSORS {
                // Sensors 0..4 sit on the animal track: interesting data.
                let value = if id.index() < 4 { 2500 } else { 40 };
                ReinforcementNode::sensor(
                    space,
                    value,
                    SimDuration::from_millis(800),
                    SimDuration::from_secs(8),
                )
            } else {
                ReinforcementNode::sink(space, INTERESTING_THRESHOLD)
            }
        });
    // Sensors on a circle, sink in the middle.
    let topo = Topology::full_mesh(SENSORS, 200.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim.add_node_at(Position::new(0.0, 0.0)); // the sink

    sim.run_until(SimTime::from_secs(60));

    println!("habitat monitoring: 60 s, {SENSORS} sensors, 1 sink, 8-bit RETRI ids\n");
    println!("sensor  interesting  readings  reinforced  misdirected");
    for id in sim.node_ids().take(SENSORS) {
        let stats = sim.protocol(id).sensor_stats().expect("sensor node");
        println!(
            "  n{:<4} {:>11} {:>9} {:>11} {:>12}",
            id.index(),
            if id.index() < 4 { "yes" } else { "no" },
            stats.readings_sent,
            stats.reinforcements_matched,
            stats.misdirected,
        );
    }
    let sink = sim
        .protocol(NodeId(SENSORS as u32))
        .sink_stats()
        .expect("sink node");
    println!(
        "\nsink heard {} readings ({} interesting), sent {} reinforcements",
        sink.readings_heard, sink.interesting_heard, sink.reinforcements_sent
    );
    let on_track: u64 = (0..4)
        .map(|i| {
            sim.protocol(NodeId(i))
                .sensor_stats()
                .expect("sensor")
                .readings_sent
        })
        .sum();
    let off_track: u64 = (4..SENSORS as u32)
        .map(|i| {
            sim.protocol(NodeId(i))
                .sensor_stats()
                .expect("sensor")
                .readings_sent
        })
        .sum();
    println!(
        "interesting sensors reported {:.1}x as often as boring ones — \
         reinforcement steered the energy budget without a single address",
        on_track as f64 / 4.0 / (off_track as f64 / (SENSORS - 4) as f64)
    );
}
