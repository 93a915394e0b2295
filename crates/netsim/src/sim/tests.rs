use retri_obs::Obs;

use crate::fault::{ChannelState, FaultModel, GilbertElliott, PartitionWindow};
use crate::frame::{Frame, FramePayload};
use crate::mac::MacConfig;
use crate::node::{Context, NodeId, Protocol, Timer};
use crate::radio::{DutyCycle, RadioConfig};
use crate::shard::testkit::Chatter;
use crate::shard::{ShardedSim, ShardedSimBuilder};
use crate::time::{SimDuration, SimTime};
use crate::topology::Position;
use crate::trace::{LossReason, TraceEvent};

/// Node 0 sends three 10-byte frames to node 1, 10 m away, over CSMA on
/// one shard.
fn two_node_sim(seed: u64) -> ShardedSim<Chatter> {
    let mut sim = ShardedSimBuilder::new(seed).build(|id| Chatter {
        to_send: if id == NodeId(0) { 3 } else { 0 },
        heard: 0,
        payload_bytes: 10,
    });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim
}

#[test]
fn frames_are_delivered_in_range() {
    let mut sim = two_node_sim(1);
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.protocol(NodeId(1)).heard, 3);
    assert_eq!(sim.stats().frames_sent, 3);
    assert_eq!(sim.stats().deliveries, 3);
}

#[test]
fn runs_are_reproducible() {
    let mut a = two_node_sim(7);
    let mut b = two_node_sim(7);
    a.run_until(SimTime::from_secs(2));
    b.run_until(SimTime::from_secs(2));
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.meter(NodeId(0)), b.meter(NodeId(0)));
}

#[test]
fn out_of_range_nodes_hear_nothing() {
    let mut sim = ShardedSimBuilder::new(2).range(50.0).build(|id| Chatter {
        to_send: if id == NodeId(0) { 2 } else { 0 },
        heard: 0,
        payload_bytes: 5,
    });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(500.0, 0.0));
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.protocol(NodeId(1)).heard, 0);
    assert_eq!(sim.stats().deliveries, 0);
}

/// Nodes 0 and 1 each saturate CSMA with 20 frames; node 2, in range of
/// both, only listens.
fn csma_pair_and_listener(seed: u64) -> ShardedSim<Chatter> {
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(MacConfig::csma())
        .build(|id| Chatter {
            to_send: if id != NodeId(2) { 20 } else { 0 },
            heard: 0,
            payload_bytes: 27,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.add_node_at(Position::new(5.0, 5.0));
    sim
}

#[test]
fn csma_serializes_mutually_audible_senders() {
    // Two senders in range of each other and of a receiver: carrier
    // sense + random backoff should avoid almost all collisions.
    let mut sim = csma_pair_and_listener(3);
    sim.run_until(SimTime::from_secs(30));
    let heard = sim.protocol(NodeId(2)).heard;
    assert!(heard >= 38, "receiver heard only {heard}/40");
}

#[test]
fn backoff_metrics_count_carrier_sense_deferrals() {
    let mut sim = csma_pair_and_listener(42);
    sim.run_until(SimTime::from_secs(30));
    let mut obs = Obs::enabled();
    sim.record_metrics(&mut obs);
    let snap = obs.snapshot().expect("enabled");
    let backoffs = snap.counter("netsim_mac_backoffs_total");
    let slots = snap.counter("netsim_mac_backoff_slots_total");
    assert!(backoffs > 0, "two saturating senders must defer");
    assert!(slots >= backoffs, "every backoff waits at least one slot");
}

#[test]
fn hidden_terminals_collide_despite_csma() {
    let mut sim = ShardedSimBuilder::new(4).range(100.0).build(|id| Chatter {
        // Both far senders chatter; the middle node listens.
        to_send: if id != NodeId(1) { 40 } else { 0 },
        heard: 0,
        payload_bytes: 27,
    });
    sim.add_node_at(Position::new(-90.0, 0.0));
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(90.0, 0.0));
    sim.run_until(SimTime::from_secs(10));
    assert!(
        sim.stats().rf_collisions > 0,
        "hidden terminals must produce RF collisions: {}",
        sim.stats()
    );
}

#[test]
fn random_loss_drops_frames() {
    let mut sim = ShardedSimBuilder::new(5)
        .radio(RadioConfig::radiometrix_rpc().with_frame_loss(1.0))
        .build(|id| Chatter {
            to_send: if id == NodeId(0) { 5 } else { 0 },
            heard: 0,
            payload_bytes: 5,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(sim.protocol(NodeId(1)).heard, 0);
    assert_eq!(sim.stats().random_losses, 5);
}

#[test]
fn dead_node_neither_sends_nor_receives() {
    let mut sim = two_node_sim(7);
    sim.schedule_set_alive(SimTime::ZERO, NodeId(1), false);
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.protocol(NodeId(1)).heard, 0);
    assert_eq!(sim.stats().deliveries, 0);
}

#[test]
fn timers_fire_and_cancel() {
    struct TimerProto {
        fired: Vec<u64>,
    }
    impl Protocol for TimerProto {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
            let cancel_me = ctx.set_timer(SimDuration::from_millis(20), 2);
            ctx.set_timer(SimDuration::from_millis(30), 3);
            ctx.cancel_timer(cancel_me);
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, timer: Timer) {
            self.fired.push(timer.token);
        }
    }
    let mut sim = ShardedSimBuilder::new(9).build(|_| TimerProto { fired: Vec::new() });
    let n = sim.add_node_at(Position::new(0.0, 0.0));
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.protocol(n).fired, vec![1, 3]);
}

#[test]
fn tracer_records_transmissions_and_outcomes() {
    let mut sim = two_node_sim(30);
    sim.enable_trace(1024);
    sim.run_until(SimTime::from_secs(2));
    let tracer = sim.tracer().expect("enabled above");
    let tx_starts = tracer
        .events()
        .filter(|e| matches!(e, TraceEvent::TxStart { .. }))
        .count();
    assert_eq!(tx_starts as u64, sim.stats().frames_sent);
    assert_eq!(
        tracer.deliveries_between(NodeId(0), NodeId(1)) as u64,
        sim.stats().deliveries
    );
    assert_eq!(tracer.dropped(), 0);
}

#[test]
fn tracer_records_dynamics() {
    let mut sim = two_node_sim(32);
    sim.enable_trace(64);
    sim.schedule_set_alive(SimTime::from_millis(100), NodeId(1), false);
    sim.schedule_move(
        SimTime::from_millis(200),
        NodeId(1),
        Position::new(99.0, 0.0),
    );
    sim.run_until(SimTime::from_secs(1));
    let tracer = sim.tracer().expect("enabled above");
    assert!(tracer.events().any(|e| matches!(
        e,
        TraceEvent::Liveness {
            node: NodeId(1),
            alive: false,
            ..
        }
    )));
    assert!(tracer.events().any(|e| matches!(
        e,
        TraceEvent::Moved {
            node: NodeId(1),
            ..
        }
    )));
}

#[test]
fn fault_off_is_byte_identical_to_no_fault_model() {
    let mut base = two_node_sim(7);
    let mut with_none = faulty_pair(7, FaultModel::none(), 3, 10);
    base.run_until(SimTime::from_secs(2));
    with_none.run_until(SimTime::from_secs(2));
    assert_eq!(base.stats(), with_none.stats());
    assert_eq!(base.meter(NodeId(0)), with_none.meter(NodeId(0)));
    assert_eq!(base.meter(NodeId(1)), with_none.meter(NodeId(1)));
    assert_eq!(
        base.protocol(NodeId(1)).heard,
        with_none.protocol(NodeId(1)).heard
    );
}

#[test]
fn energy_meters_account_tx_and_rx() {
    let mut sim = two_node_sim(6);
    sim.run_until(SimTime::from_secs(2));
    let sender = sim.meter(NodeId(0));
    let receiver = sim.meter(NodeId(1));
    let bits_per_frame = sim.radio().bits_on_air(80); // 10-byte payload
    assert_eq!(sender.tx_bits(), 3 * bits_per_frame);
    assert_eq!(receiver.rx_bits(), 3 * bits_per_frame);
    assert_eq!(sim.total_meter().tx_bits(), 3 * bits_per_frame);
}

#[test]
fn movement_breaks_connectivity_mid_run() {
    let mut sim = ShardedSimBuilder::new(8).range(50.0).build(|_| Chatter {
        to_send: 0,
        heard: 0,
        payload_bytes: 5,
    });
    let a = sim.add_node_at(Position::new(0.0, 0.0));
    let b = sim.add_node_at(Position::new(10.0, 0.0));
    // Move b away after 1 s, then add a sender next to a.
    sim.schedule_move(SimTime::from_secs(1), b, Position::new(400.0, 0.0));
    sim.run_until(SimTime::from_secs(2));
    sim.add_node_with(
        Position::new(0.0, 0.0),
        Chatter {
            to_send: 2,
            heard: 0,
            payload_bytes: 5,
        },
    );
    sim.run_until(SimTime::from_secs(4));
    assert_eq!(sim.protocol(b).heard, 0, "moved node must not hear");
    // a (still at origin) hears the new sender.
    assert_eq!(sim.protocol(a).heard, 2);
}

#[test]
fn duty_cycled_receiver_misses_frames_while_asleep() {
    // Sender streams frames; receiver listens 10% of each 100 ms.
    let mut sim = ShardedSimBuilder::new(21).build(|id| Chatter {
        to_send: if id == NodeId(0) { 40 } else { 0 },
        heard: 0,
        payload_bytes: 27,
    });
    sim.add_node_at(Position::new(0.0, 0.0));
    let rx = sim.add_node_at(Position::new(10.0, 0.0));
    sim.set_duty_cycle(
        rx,
        Some(DutyCycle::new(
            SimDuration::from_millis(100),
            0.1,
            SimDuration::ZERO,
        )),
    );
    sim.run_until(SimTime::from_secs(10));
    let stats = sim.stats();
    assert!(stats.sleep_misses > 0, "{stats}");
    assert!(
        sim.protocol(rx).heard < 40,
        "a 10% duty cycle cannot hear everything"
    );
    assert_eq!(
        stats.deliveries
            + stats.sleep_misses
            + stats.rf_collisions
            + stats.half_duplex_losses
            + stats.random_losses,
        40,
        "every attempt lands in exactly one bucket: {stats}"
    );
    // Sleeping saves receive energy.
    let bits_per_frame = sim.radio().bits_on_air(27 * 8);
    assert!(sim.meter(rx).rx_bits() < 40 * bits_per_frame);
}

#[test]
fn full_duty_cycle_hears_everything() {
    let mut sim = two_node_sim(22);
    sim.set_duty_cycle(
        NodeId(1),
        Some(DutyCycle::new(
            SimDuration::from_millis(50),
            1.0,
            SimDuration::ZERO,
        )),
    );
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.protocol(NodeId(1)).heard, 3);
    assert_eq!(sim.stats().sleep_misses, 0);
}

#[test]
fn tracer_records_losses_with_reasons() {
    let mut sim = ShardedSimBuilder::new(31)
        .radio(RadioConfig::radiometrix_rpc().with_frame_loss(1.0))
        .build(|id| Chatter {
            to_send: if id == NodeId(0) { 3 } else { 0 },
            heard: 0,
            payload_bytes: 5,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.enable_trace(64);
    sim.run_until(SimTime::from_secs(2));
    let tracer = sim.tracer().expect("enabled above");
    let random_losses = tracer
        .events()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Lost {
                    reason: LossReason::RandomLoss,
                    ..
                }
            )
        })
        .count();
    assert_eq!(random_losses, 3);
}

/// The two-node chatter pair under `faults`, node 0 sending
/// `to_send` frames of `payload_bytes`.
fn faulty_pair(
    seed: u64,
    faults: FaultModel,
    to_send: u32,
    payload_bytes: usize,
) -> ShardedSim<Chatter> {
    let mut sim = ShardedSimBuilder::new(seed)
        .faults(faults)
        .build(move |id| Chatter {
            to_send: if id == NodeId(0) { to_send } else { 0 },
            heard: 0,
            payload_bytes,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim
}

#[test]
fn fault_erasure_drops_frames_without_moving_the_mac_schedule() {
    let erase_all = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
        bit_error_rate: 0.0,
        frame_erasure: 1.0,
    }));
    let mut base = two_node_sim(13);
    let mut faulty = faulty_pair(13, erase_all, 3, 10);
    base.run_until(SimTime::from_secs(2));
    faulty.run_until(SimTime::from_secs(2));
    assert_eq!(faulty.protocol(NodeId(1)).heard, 0);
    assert_eq!(faulty.stats().fault_erasures, 3);
    assert_eq!(faulty.stats().deliveries, 0);
    // Fault draws come from their own streams: the MAC schedule,
    // and hence the sender's meter, match the clean run.
    assert_eq!(base.stats().frames_sent, faulty.stats().frames_sent);
    assert_eq!(base.meter(NodeId(0)), faulty.meter(NodeId(0)));
}

#[test]
fn bit_errors_corrupt_deliveries_and_are_traced() {
    // BER 1.0 flips every payload bit: frames still arrive, but
    // every delivery is counted and traced as corrupted.
    let flip_all = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
        bit_error_rate: 1.0,
        frame_erasure: 0.0,
    }));
    let mut sim = faulty_pair(14, flip_all, 3, 10);
    sim.enable_trace(64);
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.protocol(NodeId(1)).heard, 3);
    let stats = sim.stats();
    assert_eq!(stats.deliveries, 3);
    assert_eq!(stats.corrupted_deliveries, 3);
    assert_eq!(stats.flipped_bits, 3 * 80);
    let corrupted = sim
        .tracer()
        .expect("enabled above")
        .events()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Corrupted {
                    flipped_bits: 80,
                    ..
                }
            )
        })
        .count();
    assert_eq!(corrupted, 3);
}

#[test]
fn partition_window_severs_cross_group_frames() {
    // The sender bursts 40 back-to-back frames (~7 ms each); the
    // first 100 ms are partitioned, so early frames are severed and
    // later ones delivered.
    let faults = FaultModel::none().with_partition(PartitionWindow::new(
        SimTime::ZERO,
        SimTime::from_millis(100),
        vec![NodeId(0)],
    ));
    let mut sim = faulty_pair(15, faults, 40, 27);
    sim.enable_trace(128);
    sim.run_until(SimTime::from_secs(10));
    let stats = sim.stats();
    assert!(stats.partition_losses > 0, "{stats}");
    assert!(stats.deliveries > 0, "{stats}");
    assert_eq!(stats.partition_losses + stats.deliveries, 40, "{stats}");
    assert_eq!(
        u64::from(sim.protocol(NodeId(1)).heard),
        stats.deliveries,
        "partitioned frames never reach the protocol"
    );
    assert!(sim.tracer().expect("enabled above").events().any(|e| {
        matches!(
            e,
            TraceEvent::Lost {
                reason: LossReason::Partitioned,
                ..
            }
        )
    }));
}

#[test]
fn fault_model_churn_kills_and_revives_on_schedule() {
    // The receiver dies before any frame lands and revives at
    // 100 ms, partway through the sender's ~300 ms burst.
    let faults = FaultModel::none()
        .with_churn_event(SimTime::from_micros(1), NodeId(1), false)
        .with_churn_event(SimTime::from_millis(100), NodeId(1), true);
    let mut sim = faulty_pair(16, faults, 40, 27);
    sim.run_until(SimTime::from_secs(10));
    let heard = sim.protocol(NodeId(1)).heard;
    assert!(heard > 0, "revived node must hear again");
    assert!(heard < 40, "dead interval must cost frames: {heard}");
}

#[test]
fn every_attempt_lands_in_exactly_one_bucket_under_faults() {
    let faults = FaultModel::none()
        .with_channel(GilbertElliott::bursty(
            ChannelState::clean(),
            ChannelState {
                bit_error_rate: 0.01,
                frame_erasure: 0.5,
            },
            0.2,
            0.3,
        ))
        .with_partition(PartitionWindow::new(
            SimTime::from_millis(100),
            SimTime::from_millis(250),
            vec![NodeId(0)],
        ));
    let mut sim = faulty_pair(17, faults, 60, 27);
    sim.run_until(SimTime::from_secs(20));
    let stats = sim.stats();
    assert!(stats.fault_erasures > 0, "{stats}");
    assert!(stats.partition_losses > 0, "{stats}");
    assert_eq!(
        stats.deliveries
            + stats.sleep_misses
            + stats.rf_collisions
            + stats.half_duplex_losses
            + stats.random_losses
            + stats.fault_erasures
            + stats.partition_losses,
        60,
        "every attempt lands in exactly one bucket: {stats}"
    );
    assert!(
        stats.corrupted_deliveries <= stats.deliveries,
        "corruption is a flavor of delivery, not a loss: {stats}"
    );
}

#[test]
fn obs_counters_match_medium_stats() {
    let faults = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
        bit_error_rate: 0.001,
        frame_erasure: 0.3,
    }));
    let mut sim = faulty_pair(40, faults, 30, 27);
    sim.run_until(SimTime::from_secs(20));
    let mut obs = Obs::enabled();
    sim.record_metrics(&mut obs);
    let stats = sim.stats();
    let snap = obs.snapshot().expect("enabled");
    assert_eq!(snap.counter("netsim_frames_sent_total"), stats.frames_sent);
    assert_eq!(snap.counter("netsim_deliveries_total"), stats.deliveries);
    assert_eq!(
        snap.counter_with("netsim_drops_total", &[("reason", "fault_erasure")]),
        Some(stats.fault_erasures)
    );
    assert_eq!(
        snap.counter("netsim_corrupted_deliveries_total"),
        stats.corrupted_deliveries
    );
    assert_eq!(
        snap.counter("netsim_flipped_bits_total"),
        stats.flipped_bits
    );
    // Airtime counter and completed spans agree with frames sent.
    assert_eq!(
        snap.counter("netsim_tx_airtime_completed_total"),
        stats.frames_sent
    );
    let spans = snap
        .histogram_with("netsim_tx_airtime_micros", &[])
        .expect("span histogram registered");
    assert_eq!(spans.count(), stats.frames_sent);
    assert_eq!(
        spans.sum(),
        snap.counter("netsim_airtime_micros_total") as f64,
        "span durations must sum to total airtime"
    );
    // Energy gauges equal the meters exactly.
    let total = sim.total_meter();
    assert_eq!(
        snap.gauge("netsim_energy_tx_nj"),
        total.tx_energy_nj(&sim.radio().energy)
    );
    assert_eq!(
        snap.gauge("netsim_energy_rx_nj"),
        total.rx_energy_nj(&sim.radio().energy)
    );
}

#[test]
fn obs_on_run_is_identical_to_obs_off() {
    // Metrics are pure observations: the RNG streams, stats, and
    // meters of an observed run must equal the unobserved run.
    let mut plain = two_node_sim(41);
    let mut observed = two_node_sim(41);
    plain.run_until(SimTime::from_secs(2));
    observed.run_until(SimTime::from_secs(2));
    let mut obs = Obs::enabled();
    observed.record_metrics(&mut obs);
    assert_eq!(plain.stats(), observed.stats());
    assert_eq!(plain.meter(NodeId(0)), observed.meter(NodeId(0)));
    assert_eq!(plain.meter(NodeId(1)), observed.meter(NodeId(1)));
    assert_eq!(
        plain.protocol(NodeId(1)).heard,
        observed.protocol(NodeId(1)).heard
    );
    // And folding into a *disabled* handle records nothing.
    let mut disabled = two_node_sim(41);
    disabled.run_until(SimTime::from_secs(2));
    let mut off = Obs::disabled();
    disabled.record_metrics(&mut off);
    assert!(off.snapshot().is_none());
    assert_eq!(plain.stats(), disabled.stats());
}

#[test]
fn oversized_send_is_rejected_at_send_time() {
    struct BigSender {
        result: Option<Result<(), crate::frame::FrameError>>,
    }
    impl Protocol for BigSender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let payload = FramePayload::from_bytes(vec![0; 28]).unwrap();
            self.result = Some(ctx.send(payload));
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
    }
    let mut sim = ShardedSimBuilder::new(11).build(|_| BigSender { result: None });
    let n = sim.add_node_at(Position::new(0.0, 0.0));
    sim.run_until(SimTime::from_millis(1));
    assert!(matches!(
        sim.protocol(n).result,
        Some(Err(crate::frame::FrameError::TooLarge { .. }))
    ));
    assert_eq!(sim.stats().frames_sent, 0);
}
