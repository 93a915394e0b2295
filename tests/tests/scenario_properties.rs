//! Property-based integration tests: randomized whole-network scenarios
//! must uphold cross-crate invariants.

use proptest::prelude::*;
use retri_aff::sender::{Workload, WorkloadMode};
use retri_aff::{AffNode, AffReceiver, AffSender, SelectorPolicy, Testbed, WireConfig};
use retri_netsim::prelude::*;
use retri_netsim::topology::Topology;

fn run_scenario(
    seed: u64,
    transmitters: usize,
    id_bits: u8,
    packet_bytes: usize,
    listening: bool,
    secs: u64,
) -> (u64, u64, u64) {
    let wire = WireConfig::aff(retri::IdentifierSpace::new(id_bits).unwrap());
    let radio = RadioConfig::radiometrix_rpc();
    let policy = if listening {
        SelectorPolicy::Listening {
            window: 2 * (transmitters + 1),
        }
    } else {
        SelectorPolicy::Uniform
    };
    let workload = Workload {
        packet_bytes,
        start: SimTime::ZERO,
        stop: SimTime::from_secs(secs),
        mode: WorkloadMode::Saturate {
            poll: SimDuration::from_millis(2),
        },
    };
    let wire_for_factory = wire.clone();
    let mut sim = ShardedSimBuilder::new(seed)
        .radio(radio)
        .mac(MacConfig::csma())
        .range(100.0)
        .build(move |id: NodeId| {
            if id.index() < transmitters {
                AffNode::Sender(
                    AffSender::new(
                        wire_for_factory.clone(),
                        radio.max_frame_bytes,
                        policy,
                        workload,
                        None,
                    )
                    .expect("wire fits the radio"),
                )
            } else {
                AffNode::Receiver(AffReceiver::new(wire_for_factory.clone(), 300_000))
            }
        });
    let topo = Topology::full_mesh(transmitters + 1, 100.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim.run_until(SimTime::from_secs(secs + 2));
    let rx = sim
        .protocol(NodeId(transmitters as u32))
        .as_receiver()
        .expect("receiver node");
    let offered: u64 = sim
        .node_ids()
        .take(transmitters)
        .map(|id| {
            sim.protocol(id)
                .as_sender()
                .expect("sender node")
                .stats()
                .packets_sent
        })
        .sum();
    (offered, rx.truth_delivered(), rx.aff_delivered())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Across random configurations: deliveries never exceed offers, AFF
    /// deliveries never exceed ground truth (modulo the 2^-16 CRC
    /// residual, which these sizes cannot hit), and something always
    /// gets through at sane widths.
    #[test]
    fn delivery_ordering_invariants(
        seed in any::<u64>(),
        transmitters in 2usize..6,
        id_bits in 4u8..16,
        packet_bytes in 20usize..200,
        listening in any::<bool>(),
    ) {
        let (offered, truth, aff) =
            run_scenario(seed, transmitters, id_bits, packet_bytes, listening, 8);
        prop_assert!(truth <= offered, "truth {truth} > offered {offered}");
        prop_assert!(aff <= truth, "aff {aff} > truth {truth}");
        prop_assert!(offered > 0);
        prop_assert!(truth > 0, "a saturating CSMA mesh must deliver something");
    }

    /// Determinism holds for arbitrary scenario parameters.
    #[test]
    fn scenarios_are_reproducible(
        seed in any::<u64>(),
        transmitters in 2usize..5,
        id_bits in 2u8..12,
    ) {
        let a = run_scenario(seed, transmitters, id_bits, 80, false, 5);
        let b = run_scenario(seed, transmitters, id_bits, 80, false, 5);
        prop_assert_eq!(a, b);
    }
}

/// A fault model that touches every injection mechanism at once.
fn composite_faults() -> FaultModel {
    FaultModel::none()
        .with_channel(GilbertElliott::bursty(
            ChannelState {
                bit_error_rate: 1e-4,
                frame_erasure: 0.0,
            },
            ChannelState {
                bit_error_rate: 5e-3,
                frame_erasure: 0.05,
            },
            0.1,
            0.3,
        ))
        .with_churn_event(SimTime::from_secs(1), NodeId(0), false)
        .with_churn_event(SimTime::from_secs(2), NodeId(0), true)
        .with_partition(PartitionWindow::new(
            SimTime::from_secs(3),
            SimTime::from_secs(4),
            vec![NodeId(1)],
        ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The fault RNG lives on its own seed stream: a channel that is
    /// configured but clean (zero error rates) consumes no draws and
    /// leaves the whole trial byte-identical to `FaultModel::none()` —
    /// the integration-level face of the golden-capture guarantee.
    #[test]
    fn clean_channel_is_byte_identical_to_no_fault_model(
        seed in any::<u64>(),
        id_bits in 3u8..12,
    ) {
        let mut baseline = Testbed::paper(id_bits, SelectorPolicy::Uniform);
        baseline.workload.stop = SimTime::from_secs(5);
        let mut clean = baseline.clone();
        clean.faults = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState::clean()));
        prop_assert_eq!(baseline.run(seed), clean.run(seed));
    }

    /// Fault-enabled runs are exactly as reproducible as clean ones:
    /// same seed, same composite fault model, byte-identical result —
    /// and the faults demonstrably fire.
    #[test]
    fn fault_enabled_same_seed_runs_are_byte_identical(
        seed in any::<u64>(),
        id_bits in 4u8..12,
    ) {
        let mut testbed = Testbed::paper(id_bits, SelectorPolicy::Uniform);
        testbed.workload.stop = SimTime::from_secs(5);
        testbed.faults = composite_faults();
        let a = testbed.run(seed);
        let b = testbed.run(seed);
        prop_assert_eq!(a, b);
        prop_assert!(
            a.medium.corrupted_deliveries + a.medium.fault_erasures > 0,
            "the composite channel must actually fire: {a:?}"
        );
        prop_assert!(a.medium.partition_losses > 0, "{a:?}");
    }
}
