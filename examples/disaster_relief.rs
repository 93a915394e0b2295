//! Disaster relief: sensors dropped into inhospitable terrain.
//!
//! The paper's motivating deployment where manual configuration is
//! "ruled out completely" (Section 1): nodes scattered at random, some
//! failing mid-mission, new ones air-dropped later — and through all of
//! it, 80-byte situation reports must reach the collector. Address-free
//! fragmentation needs no allocation step, so a node is useful from its
//! first transmission.
//!
//! Run with: `cargo run --release -p retri-examples --bin disaster_relief`

use rand::SeedableRng;
use retri::IdentifierSpace;
use retri_aff::sender::{Workload, WorkloadMode};
use retri_aff::{AffNode, AffReceiver, AffSender, SelectorPolicy, WireConfig};
use retri_netsim::prelude::*;

fn main() {
    const FIELD_NODES: usize = 10;
    let wire = WireConfig::aff(IdentifierSpace::new(8).expect("8-bit identifiers"));
    let radio = RadioConfig::radiometrix_rpc().with_frame_loss(0.02); // rough RF
    let wire_for_factory = wire.clone();
    let workload = Workload {
        packet_bytes: 80,
        start: SimTime::ZERO,
        stop: SimTime::from_secs(120),
        mode: WorkloadMode::Periodic {
            period: SimDuration::from_millis(900),
        },
    };
    let mut sim = ShardedSimBuilder::new(911)
        .radio(radio)
        .mac(MacConfig::csma())
        .range(100.0)
        .build(move |id: NodeId| {
            if id.index() < FIELD_NODES {
                AffNode::Sender(
                    AffSender::new(
                        wire_for_factory.clone(),
                        radio.max_frame_bytes,
                        SelectorPolicy::AdaptiveListening {
                            concurrency_ttl_micros: 400_000,
                        },
                        workload,
                        None,
                    )
                    .expect("wire fits the radio"),
                )
            } else {
                AffNode::Receiver(AffReceiver::new(wire_for_factory.clone(), 300_000))
            }
        });

    // Random air-drop inside an 80 m disc around the collector.
    let mut drop_rng = rand::rngs::StdRng::seed_from_u64(42);
    let drop =
        retri_netsim::topology::Topology::random_disc(FIELD_NODES, 80.0, 100.0, &mut drop_rng);
    for id in drop.node_ids() {
        sim.add_node_at(drop.position(id));
    }
    let collector = sim.add_node_at(Position::new(0.0, 0.0));

    // Mission dynamics: two nodes die in the rubble, one is re-dropped.
    sim.schedule_set_alive(SimTime::from_secs(30), NodeId(2), false);
    sim.schedule_set_alive(SimTime::from_secs(45), NodeId(7), false);
    sim.schedule_set_alive(SimTime::from_secs(70), NodeId(2), true);

    sim.run_until(SimTime::from_secs(125));

    let rx = sim
        .protocol(collector)
        .as_receiver()
        .expect("collector is the receiver");
    let offered: u64 = sim
        .node_ids()
        .take(FIELD_NODES)
        .map(|id| {
            sim.protocol(id)
                .as_sender()
                .expect("field node")
                .stats()
                .packets_sent
        })
        .sum();
    println!("disaster relief: {FIELD_NODES} air-dropped nodes, 2 failures, 1 re-drop, 120 s\n");
    println!("situation reports offered:            {offered}");
    println!(
        "reports delivered (ground truth):      {}",
        rx.truth_delivered()
    );
    println!(
        "reports delivered (AFF ids alone):     {}",
        rx.aff_delivered()
    );
    println!(
        "loss attributable to id collisions:    {:.2}%",
        rx.collision_loss_rate().unwrap_or(0.0) * 100.0
    );
    let meter = sim.total_meter();
    println!(
        "network energy: {} bits transmitted, {} received",
        meter.tx_bits(),
        meter.rx_bits()
    );
    println!(
        "\nNo address was assigned, defended, or reclaimed at any point —\n\
         including for the re-dropped node, which was useful again from\n\
         its very first frame."
    );
}
