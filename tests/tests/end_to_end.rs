//! End-to-end stack tests: protocols over the simulated radios, across
//! crates.

use retri_aff::{SelectorPolicy, Testbed};
use retri_baselines::{full_mesh, DynamicAddrConfig, DynamicAddrNode};
use retri_netsim::SimTime;

#[test]
fn aff_testbed_delivers_the_offered_workload() {
    let mut testbed = Testbed::paper(10, SelectorPolicy::Uniform);
    testbed.workload.stop = SimTime::from_secs(20);
    let result = testbed.run(1);
    assert!(result.packets_offered > 50, "{result:?}");
    // With 10-bit ids almost everything that survives RF makes it
    // through the identifier layer too.
    assert!(result.truth_delivered > 0);
    let ratio = result.aff_delivered as f64 / result.truth_delivered as f64;
    assert!(ratio > 0.95, "{result:?}");
}

#[test]
fn static_testbed_never_suffers_identifier_collisions() {
    let mut testbed = Testbed::paper(16, SelectorPolicy::StaticAddress { seq_bits: 8 });
    testbed.workload.stop = SimTime::from_secs(20);
    let result = testbed.run(2);
    assert!(result.aff_delivered > 50);
    assert_eq!(result.checksum_failures, 0);
}

#[test]
fn measured_efficiency_ordering_matches_figure_1() {
    // Head-to-head at the same workload: a well-sized AFF identifier
    // yields better measured efficiency (useful bits per bit on air)
    // than Ethernet-scale static addressing, and a catastrophically
    // narrow identifier is worse than either.
    let packet_bits = 80.0 * 8.0;
    let run_secs = 20;

    let measure = |bits: u8, policy: SelectorPolicy, seed: u64| {
        let mut testbed = Testbed::paper(bits, policy);
        testbed.workload.stop = SimTime::from_secs(run_secs);
        let result = testbed.run(seed);
        result.aff_delivered as f64 * packet_bits / result.total_bits_sent as f64
    };

    let aff10 = measure(10, SelectorPolicy::Uniform, 3);
    let aff2 = measure(2, SelectorPolicy::Uniform, 3);
    let static48 = measure(48, SelectorPolicy::StaticAddress { seq_bits: 8 }, 3);
    assert!(
        aff10 > static48,
        "well-sized AFF ({aff10:.4}) must beat 48-bit static ({static48:.4})"
    );
    assert!(
        aff2 < static48,
        "2-bit AFF ({aff2:.4}) must lose to static ({static48:.4}) through collisions"
    );
}

#[test]
fn dynamic_allocation_converges_but_costs_bits() {
    let mut sim = full_mesh(6, 4, 1, |_| {
        DynamicAddrNode::new(DynamicAddrConfig::default())
    });
    sim.run_until(SimTime::from_secs(30));
    let mut addresses = Vec::new();
    let mut control_bits = 0u64;
    for id in sim.node_ids() {
        let node = sim.protocol(id);
        assert!(node.is_bound());
        addresses.push(node.address().unwrap());
        control_bits += node.stats().control_bits_sent;
    }
    addresses.sort_unstable();
    addresses.dedup();
    assert_eq!(addresses.len(), 6, "addresses must be locally unique");
    assert!(control_bits > 0, "local uniqueness is never free");
}

#[test]
fn aff_trials_deterministic_across_full_stack() {
    let mut testbed = Testbed::paper(
        6,
        SelectorPolicy::AdaptiveListening {
            concurrency_ttl_micros: 400_000,
        },
    );
    testbed.workload.stop = SimTime::from_secs(15);
    let a = testbed.run(99);
    let b = testbed.run(99);
    assert_eq!(a, b);
}

#[test]
fn paper_fragment_shape_holds_on_the_real_radio() {
    // One 80-byte packet = 5 frames on the air (Section 5.1), verified
    // through the simulator's frame counter rather than the fragmenter.
    let mut testbed = Testbed::paper(8, SelectorPolicy::Uniform);
    testbed.transmitters = 1;
    testbed.workload.stop = SimTime::from_secs(10);
    let result = testbed.run(5);
    assert_eq!(
        result.medium.frames_sent,
        result.packets_offered * 5,
        "{result:?}"
    );
}
