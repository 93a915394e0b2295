//! Cross-crate integration tests for the Section 6 application
//! contexts, checking measured behavior against the analytic model
//! where one applies.

use retri_apps::compression::CompressionNode;
use retri_apps::diffusion::{run_line, DiffusionConfig};
use retri_apps::reinforcement::{ReinforcementNode, INTERESTING_THRESHOLD};
use retri_model::exact::p_all_distinct;
use retri_model::{Density, IdBits};
use retri_netsim::prelude::*;
use retri_netsim::topology::Topology;

#[test]
fn diffusion_delivers_across_many_hops() {
    let sim = run_line(
        6,
        DiffusionConfig::default(),
        SimDuration::from_secs(60),
        11,
    );
    // Heights form the line 0..=6.
    for i in 0..=6u32 {
        assert_eq!(sim.protocol(NodeId(i)).height(), Some(i as u8));
    }
    let produced = sim.protocol(NodeId(6)).stats().samples_produced;
    let delivered = sim.protocol(NodeId(0)).stats().samples_delivered;
    assert!(produced >= 25);
    assert!(
        delivered as f64 >= produced as f64 * 0.5,
        "six-hop delivery collapsed: {delivered}/{produced}"
    );
}

#[test]
fn compression_savings_match_arithmetic() {
    // The measured savings of the codebook app must equal the wire
    // arithmetic: definitions cost (3 + attrs) bytes, coded messages 3
    // bytes, versus (3 + attrs) bytes every time uncompressed.
    let space = retri::IdentifierSpace::new(12).unwrap();
    let attrs_len = 20usize;
    let mut sim = ShardedSimBuilder::new(21)
        .radio(RadioConfig::radiometrix_rpc())
        .range(100.0)
        .build(move |id: NodeId| {
            if id.index() == 0 {
                CompressionNode::new(
                    space,
                    vec![0xAB; attrs_len],
                    SimDuration::from_millis(500),
                    None,
                )
            } else {
                CompressionNode::listener(space)
            }
        });
    let topo = Topology::full_mesh(2, 100.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim.run_until(SimTime::from_secs(30));
    let stats = sim.protocol(NodeId(0)).stats();
    let definitions = stats.definitions_sent;
    let coded = stats.coded_sent;
    assert_eq!(definitions, 1);
    let expected_sent = definitions * (3 + attrs_len as u64) * 8 + coded * 3 * 8;
    let expected_uncompressed = (definitions + coded) * (3 + attrs_len as u64) * 8;
    assert_eq!(stats.bits_sent, expected_sent);
    assert_eq!(stats.uncompressed_bits, expected_uncompressed);
    let expected_savings = 1.0 - expected_sent as f64 / expected_uncompressed as f64;
    assert!((stats.savings() - expected_savings).abs() < 1e-12);
    assert!(stats.savings() > 0.8, "20-byte lists compress well");

    // The analytic codebook model predicts the same amortized cost:
    // full message = (3 + attrs) bytes, coded message = 3 bytes.
    let uses = definitions + coded;
    let predicted =
        retri_model::codebook::expected_bits_per_message((3 + attrs_len as u32) * 8, 3 * 8, uses);
    let measured = stats.bits_sent as f64 / uses as f64;
    assert!(
        (predicted - measured).abs() < 1e-9,
        "{predicted} vs {measured}"
    );
}

#[test]
fn reinforcement_misdirection_scales_with_id_width() {
    // Misdirected reinforcements come from epoch-level identifier
    // collisions; widening the space must suppress them, in the
    // direction the birthday analysis predicts.
    let run = |bits: u8, seed: u64| {
        let space = retri::IdentifierSpace::new(bits).unwrap();
        let sensors = 8usize;
        let mut sim = ShardedSimBuilder::new(seed)
            .radio(RadioConfig::radiometrix_rpc())
            .range(100.0)
            .build(move |id: NodeId| {
                if id.index() < sensors {
                    let value = if id.index().is_multiple_of(2) {
                        2000
                    } else {
                        10
                    };
                    ReinforcementNode::sensor(
                        space,
                        value,
                        SimDuration::from_millis(400),
                        SimDuration::from_secs(4),
                    )
                } else {
                    ReinforcementNode::sink(space, INTERESTING_THRESHOLD)
                }
            });
        let topo = Topology::full_mesh(sensors + 1, 100.0);
        for id in topo.node_ids() {
            sim.add_node_at(topo.position(id));
        }
        sim.run_until(SimTime::from_secs(60));
        (0..sensors as u32)
            .map(|i| sim.protocol(NodeId(i)).sensor_stats().unwrap().misdirected)
            .sum::<u64>()
    };
    let narrow: u64 = (0..3).map(|s| run(3, 400 + s)).sum();
    let wide: u64 = (0..3).map(|s| run(12, 400 + s)).sum();
    assert!(
        narrow > wide,
        "3-bit spaces must misdirect more than 12-bit: {narrow} vs {wide}"
    );
    assert_eq!(
        wide, 0,
        "12-bit epoch codes among 8 sensors never collide here"
    );
    // Sanity: the birthday analysis agrees with the direction.
    let t = Density::new(8).unwrap();
    assert!(
        p_all_distinct(IdBits::new(3).unwrap(), t) < p_all_distinct(IdBits::new(12).unwrap(), t)
    );
}
