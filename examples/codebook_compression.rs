//! Attribute-codebook compression with ephemeral codes.
//!
//! The Section 6 name-compression context: nodes repeatedly transmit
//! the same long attribute/value lists ("type=seismic class=vehicle
//! conf=high ..."); binding each list to a short random code saves most
//! of the bits, and codebook conflicts — two nodes picking the same
//! code — are tolerated and healed by periodic rebinding instead of
//! being prevented by an allocation protocol.
//!
//! Run with: `cargo run --release -p retri-examples --bin codebook_compression`

use retri::IdentifierSpace;
use retri_apps::compression::CompressionNode;
use retri_netsim::prelude::*;
use retri_netsim::topology::Topology;

fn main() {
    const SENDERS: usize = 6;
    let space = IdentifierSpace::new(6).expect("6-bit codes");
    let mut sim = ShardedSimBuilder::new(7)
        .radio(RadioConfig::radiometrix_rpc())
        .range(150.0)
        .build(move |id: NodeId| {
            if id.index() < SENDERS {
                // A recurring 22-byte attribute list (definitions must
                // fit one 27-byte radio frame).
                let attrs = format!("type=seismic sector={}", id.index()).into_bytes();
                CompressionNode::new(
                    space,
                    attrs,
                    SimDuration::from_millis(700),
                    Some(SimDuration::from_secs(15)), // ephemeral rebinding
                )
            } else {
                CompressionNode::listener(space)
            }
        });
    let topo = Topology::full_mesh(SENDERS + 1, 150.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim.run_until(SimTime::from_secs(90));

    println!("codebook compression: {SENDERS} senders, 6-bit codes, rebinding every 15 s\n");
    println!("node  definitions  coded  bits sent  uncompressed  savings");
    for id in sim.node_ids().take(SENDERS) {
        let stats = sim.protocol(id).stats();
        println!(
            "  n{:<3} {:>10} {:>6} {:>10} {:>13} {:>7.1}%",
            id.index(),
            stats.definitions_sent,
            stats.coded_sent,
            stats.bits_sent,
            stats.uncompressed_bits,
            stats.savings() * 100.0
        );
    }
    let listener = sim.protocol(NodeId(SENDERS as u32)).stats();
    println!(
        "\nlistener resolved {} coded messages, {} unresolved, {} code conflicts observed",
        listener.resolved, listener.unresolved, listener.conflicts
    );
    println!(
        "\nConflicts (if any) healed automatically at the next rebinding —\n\
         no conflict-free code allocation protocol was ever run."
    );
}
