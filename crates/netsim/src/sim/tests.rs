use proptest::prelude::*;

use retri::hash::FixedSet;

use super::*;
use crate::fault::{ChannelState, GilbertElliott, PartitionWindow};
use crate::node::TimerHandle;

/// Sends `to_send` frames at start; counts frames heard.
struct Chatter {
    to_send: u32,
    heard: u32,
    payload_bytes: usize,
}

impl Protocol for Chatter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.to_send {
            ctx.send(FramePayload::from_bytes(vec![0xAA; self.payload_bytes]).unwrap())
                .unwrap();
        }
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
        self.heard += 1;
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
}

/// A saturating sender, the engine-level twin of the AFF senders'
/// `Saturate` workload: whenever a tick finds the radio queue empty
/// it sends a burst of 1–6 frames of 1–27 random bytes and records
/// the instant. Ticks run in chains, each tick arming the next: the
/// poll-mode twin re-arms a plain timer every `poll` and checks the
/// queue itself, the idle-mode twin arms
/// [`Context::set_timer_when_idle`]. A boot starts a chain after
/// `offset` and leaves any chain of an earlier life running.
struct Saturator {
    idle: bool,
    poll: SimDuration,
    /// Delay from boot to the first tick.
    offset: SimDuration,
    /// No burst starts at or after this instant.
    stop: SimTime,
    /// The instants bursts were sent at.
    sends: Vec<SimTime>,
    /// Timer callbacks made.
    ticks: u64,
    /// Idle-timer callbacks that found the queue busy (the idle
    /// timer's contract is that there are none).
    busy_ticks: u64,
}

/// Token of a chain's first tick, a plain timer in either mode.
const FIRST_TICK: u64 = 0;
/// Token of every later tick.
const TICK: u64 = 1;

impl Saturator {
    fn new(idle: bool, poll: SimDuration, offset: SimDuration, stop: SimTime) -> Self {
        Saturator {
            idle,
            poll,
            offset,
            stop,
            sends: Vec::new(),
            ticks: 0,
            busy_ticks: 0,
        }
    }
}

impl Protocol for Saturator {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.offset, FIRST_TICK);
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        self.ticks += 1;
        if self.idle && timer.token == TICK && ctx.pending_frames() > 0 {
            self.busy_ticks += 1;
        }
        if ctx.now() >= self.stop {
            return;
        }
        if ctx.pending_frames() == 0 {
            for _ in 0..ctx.rng().gen_range(1..=6) {
                let len = ctx.rng().gen_range(1..=27);
                let bytes = (0..len).map(|_| ctx.rng().gen()).collect();
                ctx.send(FramePayload::from_bytes(bytes).unwrap()).unwrap();
            }
            self.sends.push(ctx.now());
        }
        if self.idle {
            ctx.set_timer_when_idle(self.poll, TICK);
        } else {
            ctx.set_timer(self.poll, TICK);
        }
    }
}

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
    let deliveries = tracer
        .events()
        .filter(|e| {
            matches!(e, TraceEvent::Delivered { from, to, .. }
                     if *from == NodeId(0) && *to == NodeId(1))
        })
        .count();
    assert_eq!(deliveries as u64, sim.stats().deliveries);
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

fn two_node(seed: u64, mac: MacConfig, shards: usize) -> ShardedSim<Chatter> {
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(mac)
        .shards(shards)
        .build(|id| Chatter {
            to_send: if id == NodeId(0) { 3 } else { 0 },
            heard: 0,
            payload_bytes: 10,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim
}

#[test]
fn aloha_two_node_delivery() {
    let mut sim = two_node(1, MacConfig::aloha(), 2);
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.protocol(NodeId(1)).heard, 3);
    assert_eq!(sim.stats().frames_sent, 3);
    assert_eq!(sim.stats().deliveries, 3);
}

/// The O(active) contract, global half (ISSUE 7): advancing the
/// clock across a fully idle stretch must execute zero windows —
/// a naive engine would walk ~200k empty lookahead windows here,
/// scanning every shard in each.
#[test]
fn fully_idle_stretches_execute_zero_windows() {
    let mut sim = two_node(7, MacConfig::aloha(), 2);
    sim.run_until(SimTime::from_secs(1));
    let active = sim.windows_executed();
    assert!(active > 0, "the chatter phase must execute windows");
    assert_eq!(sim.protocol(NodeId(1)).heard, 3);
    sim.run_until(SimTime::from_secs(101));
    assert_eq!(
        sim.windows_executed(),
        active,
        "idle time must be skipped, not walked window by window"
    );
}

/// The O(active) contract, per-shard half: a shard owning only
/// silent nodes fast-forwards through windows its busy siblings
/// execute, without perturbing their deliveries.
#[test]
fn idle_shards_skip_windows_inside_active_ones() {
    let mut sim = ShardedSimBuilder::new(9)
        .mac(MacConfig::aloha())
        .shards(2)
        .build(|id| Chatter {
            to_send: if id.0 == 0 { 2 } else { 0 },
            heard: 0,
            payload_bytes: 10,
        });
    // Two clusters far apart: the default spatial-stripe placement
    // gives the silent right-hand pair its own shard.
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.add_node_at(Position::new(1000.0, 0.0));
    sim.add_node_at(Position::new(1010.0, 0.0));
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.protocol(NodeId(1)).heard, 2);
    assert_eq!(sim.protocol(NodeId(2)).heard, 0);
    assert!(
        sim.shard_windows_skipped() > 0,
        "the silent shard must skip, not walk, the busy windows"
    );
}

#[test]
fn csma_two_node_delivery() {
    let mut sim = two_node(1, MacConfig::csma(), 2);
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.protocol(NodeId(1)).heard, 3);
    assert_eq!(sim.stats().deliveries, 3);
}

/// An uncontended DFA sender: every slot transmission succeeds,
/// every transmission gets exactly one feedback verdict, and the
/// frame/slot accounting holds.
#[test]
fn dfa_two_node_delivery() {
    let mac = MacConfig::dfa_known(SimDuration::from_millis(8), 2);
    let mut sim = two_node(1, mac, 2);
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(sim.protocol(NodeId(1)).heard, 3);
    assert_eq!(sim.stats().frames_sent, 3);
    assert_eq!(sim.stats().deliveries, 3);
    let dfa = sim.dfa_stats();
    assert_eq!(dfa.successes, 3);
    assert_eq!(dfa.collisions, 0);
    assert_eq!(dfa.attempts(), sim.stats().frames_sent);
    assert!(dfa.frames >= 3, "one frame draw per attempt at least");
    assert_eq!(
        dfa.slots,
        dfa.frames * 2,
        "known N=2 sizes every frame at 2"
    );
}

/// A saturated DFA clique: collided frames are requeued and
/// re-contend in later frames until every payload is through —
/// the engine must drain completely, with exactly one feedback
/// verdict per transmission.
#[test]
fn dfa_clique_requeues_collisions_until_drained() {
    let mac = MacConfig::dfa_known(SimDuration::from_millis(8), 4);
    let mut sim = ShardedSimBuilder::new(3)
        .mac(mac)
        .shards(2)
        .build(|_| Chatter {
            to_send: 3,
            heard: 0,
            payload_bytes: 10,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.add_node_at(Position::new(0.0, 10.0));
    sim.add_node_at(Position::new(10.0, 10.0));
    sim.run_until(SimTime::from_secs(30));
    for id in sim.node_ids() {
        assert_eq!(
            sim.protocol(id).heard,
            9,
            "{id} must hear all 3 frames of its 3 peers"
        );
    }
    let dfa = sim.dfa_stats();
    assert_eq!(
        dfa.successes, 12,
        "12 distinct payloads eventually got through"
    );
    assert_eq!(
        dfa.attempts(),
        sim.stats().frames_sent,
        "one verdict per transmission"
    );
    assert_eq!(
        sim.stats().frames_sent,
        12 + dfa.collisions,
        "every extra transmission is a requeued collision"
    );
}

/// DFA digests — including the DFA counters — are shard-count
/// invariant (the deterministic cousin of the proptests in
/// `tests/shard_invariance.rs`).
#[test]
fn dfa_is_shard_count_invariant() {
    let mac = MacConfig::dfa_known(SimDuration::from_millis(8), 16);
    let mut reference = grid_run(11, mac, 1, false);
    reference.run_until(SimTime::from_secs(20));
    let want = (digest(&reference), reference.dfa_stats());
    for shards in [2usize, 4] {
        let mut sim = grid_run(11, mac, shards, false);
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(
            (digest(&sim), sim.dfa_stats()),
            want,
            "diverged at {shards} shards"
        );
    }
}

/// The condensed output of one run: everything the engine promises
/// to keep invariant across shard counts.
#[derive(Debug, PartialEq)]
struct RunDigest {
    stats: MediumStats,
    heard: Vec<u32>,
    total: EnergyMeter,
    traces: Vec<TraceEvent>,
}

fn digest(sim: &ShardedSim<Chatter>) -> RunDigest {
    RunDigest {
        stats: sim.stats(),
        heard: sim.node_ids().map(|id| sim.protocol(id).heard).collect(),
        total: sim.total_meter(),
        traces: sim
            .tracer()
            .map(|t| t.events().copied().collect())
            .unwrap_or_default(),
    }
}

/// A saturated 4×4 grid with mobility, churn, partitions, duty
/// cycling, and a lossy fault channel — every code path at once.
fn grid_run(seed: u64, mac: MacConfig, shards: usize, faulty: bool) -> ShardedSim<Chatter> {
    let topo = Topology::grid(4, 4, 30.0, 45.0);
    let mut builder = ShardedSimBuilder::new(seed).mac(mac).range(45.0);
    if faulty {
        builder = builder.faults(
            FaultModel::none()
                .with_channel(GilbertElliott::bursty(
                    ChannelState {
                        frame_erasure: 0.02,
                        bit_error_rate: 1e-3,
                    },
                    ChannelState {
                        frame_erasure: 0.3,
                        bit_error_rate: 1e-2,
                    },
                    0.1,
                    0.4,
                ))
                .with_churn_event(SimTime::from_millis(300), NodeId(5), false)
                .with_churn_event(SimTime::from_millis(700), NodeId(5), true)
                .with_partition(PartitionWindow::new(
                    SimTime::from_millis(200),
                    SimTime::from_millis(600),
                    vec![NodeId(0), NodeId(1), NodeId(4)],
                )),
        );
    }
    let mut sim = builder
        .shards(shards)
        .build_with_topology(&topo, |id| Chatter {
            to_send: 2 + id.0 % 3,
            heard: 0,
            payload_bytes: 12,
        });
    sim.enable_trace(100_000);
    sim.schedule_move(
        SimTime::from_millis(250),
        NodeId(3),
        Position::new(200.0, 200.0),
    );
    sim.schedule_move(
        SimTime::from_millis(800),
        NodeId(3),
        Position::new(30.0, 0.0),
    );
    if faulty {
        sim.set_duty_cycle(
            NodeId(7),
            Some(DutyCycle::new(
                SimDuration::from_millis(50),
                0.5,
                SimDuration::ZERO,
            )),
        );
    }
    sim
}

fn grid_digest(seed: u64, mac: MacConfig, shards: usize, faulty: bool) -> RunDigest {
    let mut sim = grid_run(seed, mac, shards, faulty);
    // Split the run so rebalancing after the mid-run move happens.
    sim.run_until(SimTime::from_millis(500));
    sim.run_until(SimTime::from_millis(1500));
    digest(&sim)
}

#[test]
fn shard_count_invariance_aloha() {
    let reference = grid_digest(11, MacConfig::aloha(), 1, false);
    assert!(reference.stats.frames_sent > 0);
    assert!(reference.stats.deliveries > 0);
    assert!(!reference.traces.is_empty());
    for shards in [2, 4, 8] {
        assert_eq!(
            grid_digest(11, MacConfig::aloha(), shards, false),
            reference,
            "ALOHA run diverged at {shards} shards"
        );
    }
}

#[test]
fn shard_count_invariance_csma() {
    let reference = grid_digest(12, MacConfig::csma(), 1, false);
    assert!(reference.stats.frames_sent > 0);
    assert!(reference.stats.deliveries > 0);
    for shards in [2, 4, 8] {
        assert_eq!(
            grid_digest(12, MacConfig::csma(), shards, false),
            reference,
            "CSMA run diverged at {shards} shards"
        );
    }
}

#[test]
fn shard_count_invariance_with_faults() {
    for mac in [MacConfig::aloha(), MacConfig::csma()] {
        let reference = grid_digest(13, mac, 1, true);
        assert!(reference.stats.frames_sent > 0);
        for shards in [2, 4] {
            assert_eq!(
                grid_digest(13, mac, shards, true),
                reference,
                "faulty run diverged at {shards} shards"
            );
        }
    }
}

#[test]
fn parallel_matches_forced_serial() {
    for mac in [MacConfig::aloha(), MacConfig::csma()] {
        // The 16-node grid is far below the threading threshold, so
        // it runs inline by default: force the worker-thread path to
        // pin serial == threaded.
        let mut parallel = grid_run(14, mac, 4, true);
        parallel.set_force_threads(true);
        let mut serial = grid_run(14, mac, 4, true);
        assert!(!serial.uses_worker_threads());
        parallel.run_until(SimTime::from_secs(1));
        serial.run_until(SimTime::from_secs(1));
        assert_eq!(digest(&parallel), digest(&serial));
    }
}

/// The full invariance digest, but on the worker-thread engine
/// (one shared air view, interest routing of delivery events).
#[test]
fn shard_count_invariance_threaded() {
    for (seed, mac) in [(15, MacConfig::aloha()), (16, MacConfig::csma())] {
        let reference = grid_digest(seed, mac, 1, true);
        assert!(reference.stats.frames_sent > 0);
        for shards in [2, 4, 8] {
            let mut sim = grid_run(seed, mac, shards, true);
            sim.set_force_threads(true);
            sim.run_until(SimTime::from_millis(500));
            sim.run_until(SimTime::from_millis(1500));
            assert_eq!(
                digest(&sim),
                reference,
                "threaded {mac:?} run diverged at {shards} shards"
            );
        }
    }
}

/// Regression test for the PR 5 `sim_fault_channel` blowup: a
/// testbed-sized topology sharded four ways must run the windowed
/// loop inline — worker threads and their per-window barriers cost
/// orders of magnitude more than such a simulation does.
#[test]
fn small_topologies_gate_to_the_inline_loop() {
    let mut sim = two_node(41, MacConfig::csma(), 4);
    assert!(
        !sim.uses_worker_threads(),
        "a 2-node sim must not spin up worker threads"
    );
    // The debugging knob still overrides the cost model.
    sim.set_force_threads(true);
    assert!(sim.uses_worker_threads());
    // Single-shard sims never thread, whatever the knobs say.
    let mut single = two_node(41, MacConfig::csma(), 1);
    single.set_force_threads(true);
    assert!(!single.uses_worker_threads());
}

/// Transmissions that start and end inside one window (airtime
/// shorter than the lookahead) all count as ended airtimes.
#[test]
fn same_window_transmissions_leave_no_assignment_behind() {
    let mut sim = ShardedSimBuilder::new(5)
        .radio(RadioConfig {
            bitrate_bps: 1_000_000,
            preamble_bits: 0,
            ..RadioConfig::radiometrix_rpc()
        })
        .mac(MacConfig::aloha())
        .build(|_| Chatter {
            to_send: 200,
            heard: 0,
            payload_bytes: 27,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(sim.stats().frames_sent, 400);
    let mut obs = Obs::enabled();
    sim.record_metrics(&mut obs);
    let snap = obs.snapshot().expect("enabled");
    assert_eq!(snap.counter("netsim_tx_airtime_completed_total"), 400);
}

/// A run stopped while a frame is on the air counts it as started
/// and active, but not as completed or in the airtime histogram.
#[test]
fn a_frame_on_the_air_at_the_deadline_stays_active() {
    let mut sim = two_node(8, MacConfig::aloha(), 1);
    // ALOHA sends the first frame one turnaround after the start and
    // the second one inter-frame space after the first ends.
    let airtime = sim.radio().airtime(10 * 8);
    let second_start = SimTime::ZERO + LOOKAHEAD + airtime + MacConfig::aloha().ifs;
    sim.run_until(second_start + SimDuration::from_micros(airtime.as_micros() / 2));
    let mut obs = Obs::enabled();
    sim.record_metrics(&mut obs);
    let snap = obs.snapshot().expect("enabled");
    assert_eq!(snap.counter("netsim_tx_airtime_started_total"), 2);
    assert_eq!(snap.counter("netsim_tx_airtime_completed_total"), 1);
    assert_eq!(snap.gauge("netsim_tx_airtime_active"), 1.0);
    let airtimes = snap
        .histogram_with("netsim_tx_airtime_micros", &[])
        .expect("airtime histogram registered");
    assert_eq!(airtimes.count(), 1);
    assert_eq!(airtimes.sum(), airtime.as_micros() as f64);
}

proptest! {
    /// Observed runs keep their worker threads, and observing one
    /// changes neither its output nor, at any shard count, its
    /// metrics: both equal the inline single-shard run's.
    #[test]
    fn threaded_observed_runs_match_one_shard(seed in 0..u64::MAX, faulty in any::<bool>()) {
        for mac in [MacConfig::aloha(), MacConfig::csma()] {
            let mut reference = grid_run(seed, mac, 1, faulty);
            reference.run_until(SimTime::from_millis(500));
            reference.run_until(SimTime::from_millis(1500));
            let mut expected = Obs::enabled();
            reference.record_metrics(&mut expected);
            let expected = expected.snapshot().expect("enabled").to_jsonl();
            for shards in [2, 4, 8] {
                let mut sim = grid_run(seed, mac, shards, faulty);
                sim.set_force_threads(true);
                prop_assert!(sim.uses_worker_threads());
                sim.run_until(SimTime::from_millis(500));
                sim.run_until(SimTime::from_millis(1500));
                let mut obs = Obs::enabled();
                sim.record_metrics(&mut obs);
                prop_assert_eq!(digest(&sim), digest(&reference), "{:?} at K = {}", mac, shards);
                let snapshot = obs.snapshot().expect("enabled").to_jsonl();
                prop_assert_eq!(&snapshot, &expected, "{:?} at K = {}", mac, shards);
            }
        }
    }
}

/// A shard's interest set loses and regains the sender's cell while
/// its frame is on the air — the receiver moves away and back within
/// one airtime — so routing hands that shard the delivery event more
/// than once. The receive phase must judge the frame once: one
/// shard, two threaded shards and two inline shards all agree.
#[test]
fn regained_interest_delivers_once() {
    let run = |shards: usize, threads: bool| {
        let mut sim = ShardedSimBuilder::new(3)
            .mac(MacConfig::aloha())
            .range(100.0)
            .shards(shards)
            .build(|id| Chatter {
                to_send: u32::from(id == NodeId(1)),
                heard: 0,
                payload_bytes: 27,
            });
        // Stripes by grid cell: {0, sender} | {receiver, 3}.
        sim.add_node_at(Position::new(-500.0, 50.0));
        let sender = sim.add_node_at(Position::new(90.0, 50.0));
        let receiver = sim.add_node_at(Position::new(110.0, 50.0));
        sim.add_node_at(Position::new(700.0, 50.0));
        sim.enable_trace(64);
        // Four nodes on two shards run inline unless forced.
        sim.set_force_threads(threads);
        assert_eq!(sim.uses_worker_threads(), threads && shards > 1);
        // The frame is on the air over [0.5 ms, 7.1 ms).
        sim.schedule_move(
            SimTime::from_micros(1_200),
            receiver,
            Position::new(3_000.0, 3_000.0),
        );
        sim.schedule_move(
            SimTime::from_micros(3_200),
            receiver,
            Position::new(110.0, 50.0),
        );
        sim.run_until(SimTime::from_micros(3_500));
        if shards > 1 {
            let receiver_shard = sim.owner[receiver.index()].0 as usize;
            assert_ne!(receiver_shard, sim.owner[sender.index()].0 as usize);
            let copies = sim.cores[receiver_shard]
                .rx_heap
                .iter()
                .filter(|ev| matches!(ev.kind, RxKind::Deliver { .. }))
                .count();
            assert!(copies > 1, "routing must repeat the delivery event");
        }
        sim.run_until(SimTime::from_millis(50));
        sim
    };
    let reference = run(1, false);
    assert_eq!(reference.stats().frames_sent, 1);
    assert_eq!(reference.protocol(NodeId(2)).heard, 1);
    let want = digest(&reference);
    for threads in [true, false] {
        let sim = run(2, threads);
        let heard: Vec<u32> = sim.node_ids().map(|id| sim.protocol(id).heard).collect();
        assert_eq!(heard, want.heard, "threads: {threads}");
        assert_eq!(digest(&sim), want, "threads: {threads}");
    }
}

/// A node added between runs while a frame is on the air hears the rest
/// of it, as on one shard. At K = 2 the new node joins shard 0 and no
/// rebalance moves anything, so shard 0, which the frame was never
/// routed to, gains the sender's cell only when its interest is rebuilt
/// at the next run.
#[test]
fn a_node_added_mid_frame_hears_it_on_every_shard_count() {
    let run = |shards: usize| {
        let mut sim = ShardedSimBuilder::new(5)
            .mac(MacConfig::aloha())
            .range(100.0)
            .shards(shards)
            .build(|id| Chatter {
                to_send: u32::from(id == NodeId(1)),
                heard: 0,
                payload_bytes: 27,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(1000.0, 0.0));
        // The frame is on the air from 0.5 ms to 7.1 ms.
        sim.run_until(SimTime::from_millis(2));
        let late = sim.add_node_at(Position::new(950.0, 0.0));
        sim.run_until(SimTime::from_millis(100));
        (sim.protocol(late).heard, digest(&sim))
    };
    let (heard, reference) = run(1);
    assert_eq!(heard, 1);
    for shards in [2, 4] {
        let (late_heard, outcome) = run(shards);
        assert_eq!(late_heard, heard, "K = {shards}");
        assert_eq!(outcome, reference, "K = {shards}");
    }
}

/// Panics at a fixed sim time on one node.
struct Grenade {
    armed: bool,
}

impl Protocol for Grenade {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.armed {
            ctx.set_timer(SimDuration::from_millis(7), 99);
        }
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {
        panic!("protocol detonated");
    }
}

/// A panic inside a protocol callback on a worker thread must
/// propagate to the caller with its original payload — not hang the
/// barrier protocol, and not surface as a generic secondhand
/// message.
#[test]
fn worker_panic_propagates_instead_of_hanging() {
    let result = std::panic::catch_unwind(|| {
        let mut sim = ShardedSimBuilder::new(43)
            .shards(4)
            .build(|id| Grenade { armed: id.0 == 2 });
        for i in 0..8 {
            sim.add_node_at(Position::new(f64::from(i) * 30.0, 0.0));
        }
        sim.set_force_threads(true);
        sim.run_until(SimTime::from_secs(1));
    });
    let payload = result.expect_err("the protocol panic must propagate");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert_eq!(message, "protocol detonated");
}

/// Placement is pure load balancing: forcing a scattered placement
/// that spatial stripes would never pick, in the middle of a run,
/// leaves the output unchanged on the inline and threaded loops.
#[test]
fn placement_strategies_never_change_output() {
    let reference = grid_digest(17, MacConfig::csma(), 1, true);
    let stripes = spatial_stripes(&Topology::grid(4, 4, 30.0, 45.0), 3);
    assert_eq!(stripes.len(), 16);
    assert!(stripes.iter().all(|&s| s < 3), "stripes out of range");
    let scattered: Vec<u32> = (0..16).map(|i| i % 3).collect();
    assert_ne!(scattered, stripes);
    for threads in [false, true] {
        let mut sim = grid_run(17, MacConfig::csma(), 3, true);
        sim.set_force_threads(threads);
        sim.run_until(SimTime::from_millis(500));
        sim.reassign(&scattered);
        sim.run_until(SimTime::from_millis(1500));
        assert_eq!(
            digest(&sim),
            reference,
            "scattered placement diverged (threads: {threads})"
        );
    }
}

/// Spatial stripes cut the cell-sorted order into contiguous
/// near-equal chunks.
#[test]
fn spatial_stripes_are_contiguous_and_balanced() {
    let topo = Topology::grid(8, 8, 30.0, 45.0);
    let assignment = spatial_stripes(&topo, 4);
    let mut sizes = [0usize; 4];
    for &s in &assignment {
        sizes[s as usize] += 1;
    }
    assert_eq!(sizes, [16, 16, 16, 16]);
    // Contiguous: ascending grid cells never step back a shard.
    let mut by_cell: Vec<((i64, i64), u32)> = topo
        .node_ids()
        .map(|id| (topo.cell(id), assignment[id.index()]))
        .collect();
    by_cell.sort_unstable();
    assert!(by_cell.windows(2).all(|w| w[0].1 <= w[1].1));
}

/// The first run's rebalance moves every node into a table reserved at
/// its shard's exact count: no doubling slack on the receiving shard,
/// and shard 0 keeps none of the capacity it was built with.
#[test]
fn rebalanced_node_tables_hold_no_spare_capacity() {
    let topo = Topology::grid(20, 20, 30.0, 45.0);
    let mut sim = ShardedSimBuilder::new(3)
        .range(45.0)
        .shards(2)
        .build_with_topology(&topo, |_| Chatter {
            to_send: 1,
            heard: 0,
            payload_bytes: 12,
        });
    sim.run_until(SimTime::ZERO);
    for (shard, core) in sim.cores.iter().enumerate() {
        assert_eq!(core.nodes.len(), 200, "shard {shard}");
        assert_eq!(core.nodes.capacity(), core.nodes.len(), "shard {shard}");
    }
}

/// Arms three timers at start, latest deadline first.
struct Ticker {
    fired: Vec<u64>,
}

impl Protocol for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(30), 3);
        ctx.set_timer(SimDuration::from_millis(10), 1);
        ctx.set_timer(SimDuration::from_millis(20), 2);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, _ctx: &mut Context<'_>, timer: Timer) {
        self.fired.push(timer.token);
    }
}

#[test]
fn timers_fire_in_deadline_order() {
    let mut sim = ShardedSimBuilder::new(9)
        .shards(2)
        .build(|_| Ticker { fired: Vec::new() });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.run_until(SimTime::from_millis(100));
    for id in [NodeId(0), NodeId(1)] {
        assert_eq!(sim.protocol(id).fired, vec![1, 2, 3]);
    }
}

/// Records each timer's token with the time it fired.
struct Stamper {
    fired: Vec<(u64, SimTime)>,
}

impl Protocol for Stamper {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(30), 3);
        ctx.set_timer(SimDuration::from_millis(10), 1);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        self.fired.push((timer.token, ctx.now()));
    }
}

#[test]
fn timers_fire_at_their_deadlines() {
    let mut sim = ShardedSimBuilder::new(9).build(|_| Stamper { fired: Vec::new() });
    let n = sim.add_node_at(Position::new(0.0, 0.0));
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(
        sim.protocol(n).fired,
        vec![(1, SimTime::from_millis(10)), (3, SimTime::from_millis(30))]
    );
}

/// Queues `burst` full frames at boot and, 1 ms in, while they are
/// still queued, arms one idle timer per entry of `polls` (tokens 10,
/// 11, …). Records every handle it gets and every idle timer that
/// fires, with the pending count it saw.
struct Parker {
    burst: u32,
    polls: Vec<u64>,
    armed: Vec<TimerHandle>,
    idle: Vec<TimerHandle>,
    fired: Vec<(u64, SimTime, usize)>,
}

impl Parker {
    fn new(burst: u32, polls: &[u64]) -> Self {
        Parker {
            burst,
            polls: polls.to_vec(),
            armed: Vec::new(),
            idle: Vec::new(),
            fired: Vec::new(),
        }
    }
}

impl Protocol for Parker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.burst {
            ctx.send(FramePayload::from_bytes(vec![7; 27]).unwrap())
                .unwrap();
        }
        self.armed
            .push(ctx.set_timer(SimDuration::from_millis(1), 1));
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        match timer.token {
            1 => {
                for (i, &poll) in self.polls.iter().enumerate() {
                    let poll = SimDuration::from_micros(poll);
                    let handle = ctx.set_timer_when_idle(poll, 10 + i as u64);
                    self.armed.push(handle);
                    self.idle.push(handle);
                }
            }
            token => self.fired.push((token, ctx.now(), ctx.pending_frames())),
        }
    }
}

fn parker_sim(shards: usize, parker: impl Fn(NodeId) -> Parker + 'static) -> ShardedSim<Parker> {
    ShardedSimBuilder::new(41)
        .mac(MacConfig::aloha())
        .range(50.0)
        .shards(shards)
        .build(parker)
}

/// The armed idle timers of `node`, with the shard holding each and
/// whether it is parked.
fn idle_on(sim: &ShardedSim<Parker>, node: NodeId) -> Vec<(usize, TimerHandle, bool)> {
    sim.cores
        .iter()
        .enumerate()
        .flat_map(|(shard, core)| {
            core.idle
                .armed(node)
                .map(move |(handle, parked)| (shard, handle, parked))
        })
        .collect()
}

#[test]
fn parked_idle_timers_fire_once_the_queue_drains() {
    let mut sim = parker_sim(1, |_| Parker::new(4, &[300, 700]));
    let node = sim.add_node_at(Position::new(0.0, 0.0));
    sim.run_until(SimTime::from_millis(2));
    // Armed while four frames were queued: both wait off the heap.
    let idle = sim.protocol(node).idle.clone();
    let armed: Vec<(usize, TimerHandle, bool)> =
        idle.iter().map(|&handle| (0, handle, true)).collect();
    assert_eq!(idle_on(&sim, node), armed);
    sim.run_until(SimTime::from_secs(1));
    assert!(idle_on(&sim, node).is_empty());
    let fired = &sim.protocol(node).fired;
    assert_eq!(
        fired.len(),
        2,
        "each idle timer fires exactly once: {fired:?}"
    );
    let armed_at = SimTime::from_millis(1);
    for &(token, at, pending) in fired {
        let poll = [300, 700][(token - 10) as usize];
        assert_eq!(pending, 0, "timer {token} fired on a busy queue");
        assert_eq!(
            at.since(armed_at).as_micros() % poll,
            0,
            "timer {token} off its grid"
        );
        assert!(
            at > SimTime::from_millis(20),
            "four 27-byte frames take > 20 ms"
        );
    }
    // The first fires on the first instant of either grid after the
    // queue drained, so the two fire less than a 700 µs poll apart.
    assert!(fired[1].1.since(fired[0].1) < SimDuration::from_micros(700));
}

#[test]
fn idle_timers_draw_handles_from_the_node_counter() {
    let mut sim = parker_sim(1, |_| Parker::new(1, &[300, 900]));
    let node = sim.add_node_at(Position::new(0.0, 0.0));
    sim.run_until(SimTime::from_millis(2));
    let handles: Vec<u64> = sim.protocol(node).armed.iter().map(|h| h.0).collect();
    assert_eq!(handles, vec![0, 1, 2]);
}

#[test]
fn parked_idle_timers_follow_their_node_across_shards() {
    // Stripes cut the cell-sorted nodes in half: {0, 1} | {2, 3}.
    // Node 0, parked, then moves past nodes 2 and 3 while node 2
    // moves home, so the rebalance at the next run hands node 0 to
    // the other shard.
    let mut sim = parker_sim(2, |id| {
        if id == NodeId(0) {
            Parker::new(4, &[300])
        } else {
            Parker::new(0, &[])
        }
    });
    for x in [10.0, 20.0, 200.0, 210.0] {
        sim.add_node_at(Position::new(x, 10.0));
    }
    let node = NodeId(0);
    sim.run_until(SimTime::from_millis(2));
    let before = idle_on(&sim, node);
    assert_eq!(before.len(), 1);
    assert!(before[0].2, "armed while the queue was busy");
    sim.schedule_move(SimTime::from_millis(3), node, Position::new(220.0, 10.0));
    sim.schedule_move(SimTime::from_millis(3), NodeId(2), Position::new(5.0, 10.0));
    sim.run_until(SimTime::from_millis(4));
    sim.run_until(SimTime::from_millis(5));
    let after = idle_on(&sim, node);
    assert_eq!(after.len(), 1);
    assert_eq!((after[0].1, after[0].2), (before[0].1, before[0].2));
    assert_ne!(after[0].0, before[0].0, "node 0 changed shards");
    assert_eq!(after[0].0, sim.owner[node.index()].0 as usize);
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.protocol(node).fired.len(), 1);
}

#[test]
fn a_sender_moving_mid_transmission_reaches_every_shard_in_range() {
    // Node 0 starts its frame at 500 µs (one turnaround after boot)
    // out of node 1's range, on the other shard, and moves next to
    // node 1 in the same window. Delivery at the frame's end follows
    // the sender: the single-shard run delivers, and so must two
    // shards, whose interest sets never held node 0's origin cell.
    let run = |shards: usize| {
        let mut sim = ShardedSimBuilder::new(5)
            .mac(MacConfig::aloha())
            .range(50.0)
            .shards(shards)
            .build(|id| Chatter {
                to_send: u32::from(id == NodeId(0)),
                heard: 0,
                payload_bytes: 8,
            });
        sim.add_node_at(Position::new(200.0, 200.0));
        sim.add_node_at(Position::new(10.0, 10.0));
        sim.schedule_move(
            SimTime::from_micros(700),
            NodeId(0),
            Position::new(20.0, 10.0),
        );
        sim.run_until(SimTime::from_millis(100));
        (sim.stats(), sim.protocol(NodeId(1)).heard)
    };
    let (stats, heard) = run(1);
    assert_eq!((stats.deliveries, heard), (1, 1));
    assert_eq!(run(2), (stats, heard));
}

#[test]
fn moving_out_of_range_stops_delivery() {
    let mut sim = ShardedSimBuilder::new(21)
        .mac(MacConfig::aloha())
        .shards(2)
        .build(|id| Chatter {
            to_send: if id == NodeId(0) { 1 } else { 0 },
            heard: 0,
            payload_bytes: 8,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.enable_trace(64);
    sim.schedule_move(
        SimTime::from_millis(0),
        NodeId(1),
        Position::new(900.0, 0.0),
    );
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.stats().frames_sent, 1);
    assert_eq!(sim.stats().deliveries, 0);
    assert!(sim.tracer().unwrap().events().any(|e| matches!(
        e,
        TraceEvent::Moved {
            node: NodeId(1),
            ..
        }
    )));
}

#[test]
fn dead_nodes_do_not_hear_and_revival_reboots() {
    // Node 1 dies before the frame, revives, and re-runs on_start
    // (sending its own frame after rebirth).
    let mut sim = ShardedSimBuilder::new(22)
        .mac(MacConfig::aloha())
        .shards(2)
        .build(|_| Chatter {
            to_send: 1,
            heard: 0,
            payload_bytes: 8,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.enable_trace(64);
    sim.schedule_set_alive(SimTime::from_micros(1), NodeId(1), false);
    sim.schedule_set_alive(SimTime::from_millis(500), NodeId(1), true);
    sim.run_until(SimTime::from_secs(1));
    // Node 0's start-of-run frame found node 1 dead; node 1's
    // rebirth re-ran on_start, and that frame was heard by node 0.
    assert_eq!(sim.protocol(NodeId(0)).heard, 1);
    let liveness: Vec<bool> = sim
        .tracer()
        .unwrap()
        .events()
        .filter_map(|e| match e {
            TraceEvent::Liveness {
                node: NodeId(1),
                alive,
                ..
            } => Some(*alive),
            _ => None,
        })
        .collect();
    assert_eq!(liveness, vec![false, true]);
}

#[test]
fn duty_cycle_sleep_misses_and_awake_micros() {
    let mut sim = two_node(23, MacConfig::aloha(), 2);
    sim.set_duty_cycle(
        NodeId(1),
        Some(DutyCycle::new(
            // Asleep whenever anything is on the air: period 1 s,
            // on only in the last half, frames start near t=0.
            SimDuration::from_secs(1),
            0.5,
            SimDuration::from_millis(500),
        )),
    );
    sim.run_until(SimTime::from_millis(400));
    assert_eq!(sim.stats().sleep_misses, 3);
    assert_eq!(sim.protocol(NodeId(1)).heard, 0);
    assert_eq!(sim.awake_micros(NodeId(1)), 200_000);
    assert_eq!(sim.awake_micros(NodeId(0)), 400_000);
}

#[test]
fn hidden_terminals_collide_in_sharded_engine() {
    let mut sim = ShardedSimBuilder::new(24)
        .range(100.0)
        .shards(4)
        .build(|id| Chatter {
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
fn builder_bulk_topology_matches_incremental_adds() {
    let topo = Topology::grid(3, 3, 30.0, 45.0);
    let mk_chatter = |id: NodeId| Chatter {
        to_send: 1 + id.0 % 2,
        heard: 0,
        payload_bytes: 6,
    };
    let mut bulk = ShardedSimBuilder::new(31)
        .range(45.0)
        .shards(3)
        .build_with_topology(&topo, mk_chatter);
    let mut incremental = ShardedSimBuilder::new(31)
        .range(45.0)
        .shards(3)
        .build(mk_chatter);
    for id in topo.node_ids() {
        incremental.add_node_at(topo.position(id));
    }
    bulk.run_until(SimTime::from_secs(1));
    incremental.run_until(SimTime::from_secs(1));
    assert_eq!(digest(&bulk), digest(&incremental));
}

/// A hidden-terminal triple at x = 0, 250 and 500 m on a 300 m
/// topology, built by a builder set to `builder_range`: both ends send
/// one 20-byte ALOHA frame at start.
fn wide_triple(builder_range: f64, shards: usize) -> ShardedSim<Chatter> {
    let mut topo = Topology::new(300.0);
    for x in [0.0, 250.0, 500.0] {
        topo.add(Position::new(x, 0.0));
    }
    let mut sim = ShardedSimBuilder::new(9)
        .mac(MacConfig::aloha())
        .range(builder_range)
        .shards(shards)
        .build_with_topology(&topo, |id| Chatter {
            to_send: u32::from(id != NodeId(1)),
            heard: 0,
            payload_bytes: 20,
        });
    sim.run_until(SimTime::from_secs(1));
    sim
}

/// `build_with_topology` keys the air, the interest sets and the
/// placement by the given topology's grid, whatever range the builder
/// holds: the two frames collide at the middle node on one shard and on
/// three, as when the two ranges agree.
#[test]
fn build_with_topology_takes_the_topologys_range() {
    let reference = wide_triple(300.0, 1);
    assert_eq!(reference.stats().rf_collisions, 2);
    assert_eq!(reference.protocol(NodeId(1)).heard, 0);
    for shards in [1, 3] {
        let sim = wide_triple(100.0, shards);
        assert_eq!(sim.stats(), reference.stats(), "K = {shards}");
        assert_eq!(sim.stats().rf_collisions, 2, "K = {shards}");
        assert_eq!(sim.protocol(NodeId(1)).heard, 0, "K = {shards}");
    }
}

/// The last representable instant is a valid deadline: the run delivers
/// its one frame once and stops there, and a second run to it is a
/// no-op.
#[test]
fn running_to_the_last_instant_stops_there() {
    let end = SimTime::from_micros(u64::MAX);
    let mut sim = ShardedSimBuilder::new(6)
        .mac(MacConfig::aloha())
        .build(|id| Chatter {
            to_send: u32::from(id == NodeId(0)),
            heard: 0,
            payload_bytes: 10,
        });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.run_until(end);
    let stats = sim.stats();
    assert_eq!((stats.frames_sent, stats.deliveries), (1, 1));
    assert_eq!(sim.protocol(NodeId(1)).heard, 1);
    assert_eq!(sim.now(), end);
    let windows = sim.windows_executed();
    sim.run_until(end);
    assert_eq!(sim.stats(), stats);
    assert_eq!(sim.protocol(NodeId(1)).heard, 1);
    assert_eq!(sim.windows_executed(), windows);
    assert_eq!(sim.now(), end);
}

/// Arms one timer per delay at start, tokens counted from 1.
struct DelayTicker {
    delays: Vec<u64>,
    fired: Vec<(u64, SimTime)>,
}

impl Protocol for DelayTicker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (token, &delay) in (1..).zip(&self.delays) {
            ctx.set_timer(SimDuration::from_micros(delay), token);
        }
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        self.fired.push((timer.token, ctx.now()));
    }
}

/// Timers inside the last lookahead before `u64::MAX` µs, and at it,
/// fire once each: the last window ends at the top of time instead of
/// overflowing, on one shard and on two threaded ones — also when the
/// top instant is all a threaded run has left after an earlier window.
#[test]
fn timers_at_the_top_of_time_fire_once() {
    let end = SimTime::from_micros(u64::MAX);
    let run = |delays: &[u64], shards: usize| {
        let delays = delays.to_vec();
        let mut sim = ShardedSimBuilder::new(3)
            .shards(shards)
            .build(move |_| DelayTicker {
                delays: delays.clone(),
                fired: Vec::new(),
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(500.0, 0.0));
        sim.set_force_threads(true);
        assert_eq!(sim.uses_worker_threads(), shards > 1);
        sim.run_until(end);
        assert_eq!(sim.now(), end);
        let fired: Vec<_> = sim
            .node_ids()
            .map(|id| sim.protocol(id).fired.clone())
            .collect();
        let windows = sim.windows_executed();
        sim.run_until(end);
        assert_eq!(sim.windows_executed(), windows);
        (fired, windows)
    };
    for delays in [[u64::MAX - 100, u64::MAX], [1_000, u64::MAX]] {
        let (fired, windows) = run(&delays, 1);
        let expected: Vec<_> = (1..).zip(delays.map(SimTime::from_micros)).collect();
        assert_eq!(fired, vec![expected.clone(), expected], "{delays:?}");
        assert_eq!(run(&delays, 2), (fired, windows), "{delays:?}");
    }
}

/// Token of [`TopSender`]'s timer armed past the top of time.
const PAST_THE_TOP: u64 = 100;
/// Token of [`TopSender`]'s idle timer.
const IDLE_AT_THE_TOP: u64 = 200;

/// Sends a 10-byte frame from a timer at each of `sends` (µs after
/// start). The first such callback also arms a timer `u64::MAX` µs
/// ahead, and with `idle` every one arms an idle timer polling every
/// `idle` µs.
struct TopSender {
    sends: Vec<u64>,
    idle: Option<u64>,
    fired: Vec<(u64, SimTime)>,
    heard: u32,
}

impl Protocol for TopSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (token, &at) in (0..).zip(&self.sends) {
            ctx.set_timer(SimDuration::from_micros(at), token);
        }
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
        self.heard += 1;
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        self.fired.push((timer.token, ctx.now()));
        if timer.token >= PAST_THE_TOP {
            return;
        }
        ctx.send(FramePayload::from_bytes(vec![0x5A; 10]).unwrap())
            .unwrap();
        if timer.token == 0 {
            ctx.set_timer(SimDuration::from_micros(u64::MAX), PAST_THE_TOP);
        }
        if let Some(poll) = self.idle {
            ctx.set_timer_when_idle(SimDuration::from_micros(poll), IDLE_AT_THE_TOP);
        }
    }
}

/// Nothing is scheduled past the last instant. Nodes send from timers
/// near the top of time:
///
/// - node 0 at 1 ms, which also arms a timer past the top from
///   `now > 0`, and at `u64::MAX − 100` µs, whose turnaround would
///   end past the top;
/// - node 1 at `u64::MAX −` half an airtime, whose airtime would;
/// - nodes 2 and 3 (out of everyone's range) one turnaround and one
///   airtime before `u64::MAX − 10` µs, each with an idle timer that
///   finds its frame on the air: node 2's next poll instant is past the
///   top, and node 3's is not, but the next one at or after its frame's
///   end is; so is the inter-frame space after either frame;
/// - node 4 during node 2's frame: under CSMA its backoffs end on a
///   busy channel or past the top, and under ALOHA its airtime would.
///
/// Under ALOHA and CSMA only the 1 ms frame and the frames of nodes 2
/// and 3 reach the air, and no timer past the top fires;
/// `run_until(u64::MAX)` returns on one shard and on two threaded ones,
/// with the same output. Dynamic-Frame Aloha, whose slot grid ends
/// before the frames near the top would, sends the 1 ms frame alone.
#[test]
fn sends_and_timers_past_the_top_of_time_never_happen() {
    let end = SimTime::from_micros(u64::MAX);
    let airtime = RadioConfig::radiometrix_rpc().airtime(80).as_micros();
    let turnaround = LOOKAHEAD.as_micros();
    let last = u64::MAX - 10 - airtime - turnaround;
    let plans = [
        (0.0, vec![1_000, u64::MAX - 100], None),
        (10.0, vec![u64::MAX - airtime / 2], None),
        (20.0, vec![last], Some(turnaround + airtime / 2)),
        (500.0, vec![last], Some(1_500)),
        (30.0, vec![last + 100], None),
    ];
    let run = |mac: MacConfig, shards: usize| {
        let nodes = plans.clone();
        let mut sim = ShardedSimBuilder::new(17)
            .mac(mac)
            .shards(shards)
            .build(move |id| {
                let (_, sends, idle) = nodes[id.index()].clone();
                TopSender {
                    sends,
                    idle,
                    fired: Vec::new(),
                    heard: 0,
                }
            });
        for &(x, _, _) in &plans {
            sim.add_node_at(Position::new(x, 0.0));
        }
        sim.set_force_threads(true);
        assert_eq!(sim.uses_worker_threads(), shards > 1);
        sim.run_until(end);
        assert_eq!(sim.now(), end);
        let nodes: Vec<_> = sim
            .node_ids()
            .map(|id| (sim.protocol(id).fired.clone(), sim.protocol(id).heard))
            .collect();
        (nodes, sim.stats(), sim.dfa_stats())
    };
    let at = SimTime::from_micros;
    let expected_fired = vec![
        vec![(0, at(1_000)), (1, at(u64::MAX - 100))],
        vec![(0, at(u64::MAX - airtime / 2))],
        vec![(0, at(last))],
        vec![(0, at(last))],
        vec![(0, at(last + 100))],
    ];
    let dfa = MacConfig::dfa_known(SimDuration::from_millis(8), 5);
    for mac in [MacConfig::aloha(), MacConfig::csma(), dfa] {
        let (nodes, stats, dfa_stats) = run(mac, 1);
        let fired: Vec<_> = nodes.iter().map(|(fired, _)| fired.clone()).collect();
        assert_eq!(fired, expected_fired, "{mac:?}");
        let heard: Vec<_> = nodes.iter().map(|&(_, heard)| heard).collect();
        if mac.dfa_config().is_some() {
            assert_eq!(stats.frames_sent, 1, "{mac:?}");
            assert_eq!(heard, [0, 1, 1, 0, 1], "{mac:?}");
        } else {
            assert_eq!(stats.frames_sent, 3, "{mac:?}");
            assert_eq!(heard, [1, 2, 1, 0, 2], "{mac:?}");
        }
        assert_eq!(run(mac, 2), (nodes, stats, dfa_stats), "{mac:?}");
    }
}

/// Dynamics scheduled for one instant apply in the order they were
/// scheduled: two moves of one node leave it at the second destination,
/// and a death then a revival leave it alive, traced in that order — on
/// one shard and on two threaded ones.
#[test]
fn same_instant_dynamics_apply_in_schedule_order() {
    let (first, second) = (SimTime::from_millis(20), SimTime::from_millis(40));
    let (away, back) = (Position::new(500.0, 0.0), Position::new(20.0, 0.0));
    let run = |shards: usize| {
        let mut sim = ShardedSimBuilder::new(4)
            .mac(MacConfig::aloha())
            .shards(shards)
            .build(|_| Chatter {
                to_send: 1,
                heard: 0,
                payload_bytes: 8,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        let mover = sim.add_node_at(Position::new(10.0, 0.0));
        sim.set_force_threads(true);
        assert_eq!(sim.uses_worker_threads(), shards > 1);
        sim.enable_trace(64);
        sim.schedule_move(first, mover, away);
        sim.schedule_move(first, mover, back);
        sim.schedule_set_alive(second, mover, false);
        sim.schedule_set_alive(second, mover, true);
        sim.run_until(SimTime::from_millis(100));
        sim
    };
    let mover = NodeId(1);
    let one = run(1);
    assert_eq!(one.topology().position(mover), back);
    assert!(one.topology().is_alive(mover));
    let dynamics: Vec<TraceEvent> = one
        .tracer()
        .unwrap()
        .events()
        .filter(|e| matches!(e, TraceEvent::Moved { .. } | TraceEvent::Liveness { .. }))
        .copied()
        .collect();
    let moved = |to| TraceEvent::Moved {
        at: first,
        node: mover,
        to,
    };
    let liveness = |alive| TraceEvent::Liveness {
        at: second,
        node: mover,
        alive,
    };
    assert_eq!(
        dynamics,
        vec![moved(away), moved(back), liveness(false), liveness(true)]
    );
    let two = run(2);
    assert_eq!(two.topology().position(mover), back);
    assert!(two.topology().is_alive(mover));
    assert_eq!(digest(&two), digest(&one));
}

#[test]
fn node_streams_are_distinct_per_label_and_node() {
    let mut seen = FixedSet::default();
    for root in stream_roots(42) {
        for node in 0..64 {
            assert!(seen.insert(node_stream_seed(root, NodeId(node))));
        }
    }
    // Provenance: every simulated trial's draws depend on these values,
    // one per label, in `NODE_STREAM_LABELS` order.
    let pins = [
        0xc4ba_bf2a_1b29_d98f,
        0x0c2b_09d5_2a24_87cb,
        0x1f4f_0f3f_cc81_6f22,
        0xbd24_3eea_62f9_ea9b,
    ];
    for ((label, root), pin) in NODE_STREAM_LABELS.iter().zip(stream_roots(7)).zip(pins) {
        assert_eq!(root, stream_seed(7, label), "{label}");
        assert_eq!(node_stream_seed(root, NodeId(5)), pin, "{label}");
    }
}

mod idle_timer {
    use super::*;

    /// A scheduled topology change.
    #[derive(Debug, Clone)]
    enum Change {
        Die {
            node: usize,
            at: u64,
            down: u64,
        },
        Move {
            node: usize,
            at: u64,
            x: f64,
            y: f64,
        },
    }

    /// One run: a MAC, a poll interval, nodes on a 3×3-cell field
    /// (range 50) with their first-tick offsets, topology changes,
    /// and the deadlines `run_until` is called with.
    #[derive(Debug, Clone)]
    struct Case {
        seed: u64,
        mac: u8,
        poll: u64,
        nodes: Vec<(f64, f64, u64)>,
        changes: Vec<Change>,
        stops: Vec<u64>,
    }

    /// The run's end, µs; bursts stop 100 ms earlier.
    const END: u64 = 400_000;

    fn change(nodes: usize) -> impl Strategy<Value = Change> {
        (
            0u8..2,
            0..nodes,
            1u64..END,
            1u64..20_000,
            (0.0..150.0f64, 0.0..150.0f64),
        )
            .prop_map(|(kind, node, at, down, (x, y))| match kind {
                0 => Change::Die { node, at, down },
                _ => Change::Move { node, at, x, y },
            })
    }

    /// The poll interval: under the 500 µs lookahead, equal to it,
    /// or above it and off its grid.
    fn poll() -> impl Strategy<Value = u64> {
        (0u8..3, 1u64..4_000).prop_map(|(kind, p)| match kind {
            0 => 50 + p % 450,
            1 => 500,
            _ => 501 + p + u64::from(p % 500 == 499),
        })
    }

    fn case() -> impl Strategy<Value = Case> {
        (2usize..14).prop_flat_map(|n| {
            (
                (any::<u64>(), 0u8..3, poll()),
                proptest::collection::vec((0.0..150.0f64, 0.0..150.0f64, 0u64..6_000), n),
                proptest::collection::vec(change(n), 0..8),
                proptest::collection::vec(1u64..END, 0..6),
            )
                .prop_map(|((seed, mac, poll), nodes, changes, stops)| Case {
                    seed,
                    mac,
                    poll,
                    nodes,
                    changes,
                    stops,
                })
        })
    }

    /// Dynamic-Frame Aloha on a clique of 2–4 nodes polling faster
    /// than the lookahead, with frequent short deaths: slot
    /// collisions requeue frames in the receive phase, sometimes in
    /// the window of their node's death.
    fn dfa_churn() -> impl Strategy<Value = Case> {
        (2usize..5).prop_flat_map(|n| {
            (
                (any::<u64>(), 50u64..500),
                proptest::collection::vec((0.0..30.0f64, 0.0..30.0f64, 0u64..6_000), n),
                proptest::collection::vec((0..n, 1u64..END - 100_000, 1u64..5_000), 4..24),
                proptest::collection::vec(1u64..END, 0..6),
            )
                .prop_map(|((seed, poll), nodes, deaths, stops)| Case {
                    seed,
                    mac: 2,
                    poll,
                    nodes,
                    changes: deaths
                        .into_iter()
                        .map(|(node, at, down)| Change::Die { node, at, down })
                        .collect(),
                    stops,
                })
        })
    }

    /// What a run produced.
    struct Outcome {
        /// Per node, the instants it sent bursts at.
        sends: Vec<Vec<SimTime>>,
        /// Per node, its timer callbacks.
        ticks: Vec<u64>,
        /// Idle-timer callbacks that found a busy queue, all nodes.
        busy_ticks: u64,
        stats: MediumStats,
        dfa: DfaStats,
        trace: Vec<TraceEvent>,
    }

    fn run(case: &Case, idle: bool, shards: usize) -> Outcome {
        let mac = match case.mac {
            0 => MacConfig::aloha(),
            1 => MacConfig::csma(),
            _ => MacConfig::dfa_known(SimDuration::from_millis(8), case.nodes.len() as u32),
        };
        let poll = SimDuration::from_micros(case.poll);
        let offsets: Vec<u64> = case.nodes.iter().map(|&(_, _, offset)| offset).collect();
        let stop = SimTime::from_micros(END - 100_000);
        let mut sim = ShardedSimBuilder::new(case.seed)
            .mac(mac)
            .range(50.0)
            .shards(shards)
            .build(move |id| {
                let offset = SimDuration::from_micros(offsets[id.index()]);
                Saturator::new(idle, poll, offset, stop)
            });
        for &(x, y, _) in &case.nodes {
            sim.add_node_at(Position::new(x, y));
        }
        // Worker threads cost barrier waits on every window, so one
        // case in four runs its four shards on them.
        if shards > 1 && case.seed.is_multiple_of(4) {
            sim.set_force_threads(true);
        }
        sim.enable_trace(1 << 20);
        for change in &case.changes {
            match *change {
                Change::Die { node, at, down } => {
                    sim.schedule_set_alive(SimTime::from_micros(at), NodeId(node as u32), false);
                    let back = SimTime::from_micros(at + down);
                    sim.schedule_set_alive(back, NodeId(node as u32), true);
                }
                Change::Move { node, at, x, y } => {
                    let to = Position::new(x, y);
                    sim.schedule_move(SimTime::from_micros(at), NodeId(node as u32), to);
                }
            }
        }
        // Some deadlines fall on the window grid, some inside a
        // window; each resumed run may rebalance the shards.
        let mut stops = case.stops.clone();
        stops.sort_unstable();
        for deadline in stops.into_iter().chain([END]) {
            sim.run_until(SimTime::from_micros(deadline));
        }
        let nodes = || sim.node_ids().map(|id| sim.protocol(id));
        Outcome {
            sends: nodes().map(|p| p.sends.clone()).collect(),
            ticks: nodes().map(|p| p.ticks).collect(),
            busy_ticks: nodes().map(|p| p.busy_ticks).sum(),
            stats: sim.stats(),
            dfa: sim.dfa_stats(),
            trace: sim.tracer().unwrap().events().copied().collect(),
        }
    }

    /// An idle timer is the poll loop it replaces: the same bursts
    /// at the same instants, and the same medium, DFA counters and
    /// trace, at one shard and at four (inline or threaded), with no
    /// more timer callbacks and none on a busy queue.
    fn idle_matches_poll(case: &Case) -> Result<(), TestCaseError> {
        let poll = run(case, false, 1);
        prop_assert!(poll.sends.iter().any(|s| !s.is_empty()), "no node sent");
        for shards in [1, 4] {
            let idle = run(case, true, shards);
            prop_assert_eq!(&idle.sends, &poll.sends, "send instants, K = {}", shards);
            prop_assert_eq!(idle.stats, poll.stats, "medium, K = {}", shards);
            prop_assert_eq!(idle.dfa, poll.dfa, "DFA, K = {}", shards);
            prop_assert!(idle.trace == poll.trace, "trace differs, K = {}", shards);
            prop_assert_eq!(idle.busy_ticks, 0, "idle callbacks on a busy queue");
            for (node, (idle_ticks, poll_ticks)) in idle.ticks.iter().zip(&poll.ticks).enumerate() {
                prop_assert!(
                    idle_ticks <= poll_ticks,
                    "node {} made {} idle callbacks against {} polls",
                    node,
                    idle_ticks,
                    poll_ticks
                );
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn idle_timer_matches_the_poll_loop(case in case()) {
            idle_matches_poll(&case)?;
        }

        #[test]
        fn idle_timer_matches_the_poll_loop_under_dfa_churn(case in dfa_churn()) {
            idle_matches_poll(&case)?;
        }
    }
}

mod shared_topology {
    use super::*;

    /// What a topology holds: each node's position, liveness, cell and
    /// neighbors, and the bucket of every cell within one ring of a
    /// node, as a sorted set.
    type Content = (
        Vec<(Position, bool, Cell, Vec<NodeId>)>,
        Vec<(Cell, Vec<NodeId>)>,
    );

    fn content(topology: &Topology) -> Content {
        let nodes = topology
            .node_ids()
            .map(|id| {
                let neighbors = topology.neighbors(id).collect();
                (
                    topology.position(id),
                    topology.is_alive(id),
                    topology.cell(id),
                    neighbors,
                )
            })
            .collect();
        let mut cells: Vec<Cell> = topology
            .node_ids()
            .flat_map(|id| {
                let (cx, cy) = topology.cell(id);
                (-1..=1).flat_map(move |dx| (-1..=1).map(move |dy| (cx + dx, cy + dy)))
            })
            .collect();
        cells.sort_unstable();
        cells.dedup();
        let buckets = cells
            .into_iter()
            .map(|cell| {
                let mut bucket: Vec<NodeId> = topology.nodes_in(cell).collect();
                bucket.sort_unstable();
                (cell, bucket)
            })
            .collect();
        (nodes, buckets)
    }

    /// Whether the master and every shard's replicas are one allocation.
    fn shared<P>(sim: &ShardedSim<P>) -> bool {
        sim.cores.iter().all(|core| {
            Arc::ptr_eq(&core.topo_mac, &sim.master) && Arc::ptr_eq(&core.topo_rx, &sim.master)
        })
    }

    fn chatter(_: NodeId) -> Chatter {
        Chatter {
            to_send: 1,
            heard: 0,
            payload_bytes: 8,
        }
    }

    /// The master and every replica stay one allocation until a dynamic
    /// event writes to one: after `build_with_topology`, after a run
    /// without dynamics, and after nodes are added and the next run
    /// starts, at K = 1, 2 and 4. A run with dynamics leaves the master
    /// and the 2K replicas a copy each, and the next node add shares
    /// them again. A network built empty and then populated, like the
    /// paper testbed, shares its one topology from its first run on.
    #[test]
    fn replicas_share_the_master_until_a_dynamic_event() {
        let ms = SimTime::from_millis;
        for shards in [1, 2, 4] {
            let topology = Topology::grid(4, 4, 30.0, 45.0);
            let mut sim = ShardedSimBuilder::new(21)
                .mac(MacConfig::aloha())
                .shards(shards)
                .build_with_topology(&topology, chatter);
            assert!(shared(&sim), "built, K = {shards}");
            sim.run_until(ms(100));
            assert!(shared(&sim), "no dynamics, K = {shards}");
            sim.add_node_at(Position::new(15.0, 15.0));
            sim.run_until(ms(200));
            assert!(shared(&sim), "node added, K = {shards}");
            assert_eq!(sim.topology().len(), 17);
            sim.schedule_move(ms(250), NodeId(0), Position::new(100.0, 100.0));
            sim.schedule_set_alive(ms(260), NodeId(1), false);
            sim.run_until(ms(300));
            let mut copies: Vec<*const Topology> = sim
                .cores
                .iter()
                .flat_map(|core| [Arc::as_ptr(&core.topo_mac), Arc::as_ptr(&core.topo_rx)])
                .chain([Arc::as_ptr(&sim.master)])
                .collect();
            copies.sort_unstable();
            copies.dedup();
            assert_eq!(copies.len(), 2 * shards + 1, "dynamics, K = {shards}");
            sim.add_node_at(Position::new(45.0, 45.0));
            sim.run_until(ms(400));
            assert!(shared(&sim), "node added after dynamics, K = {shards}");

            let mut incremental = ShardedSimBuilder::new(21)
                .mac(MacConfig::aloha())
                .shards(shards)
                .build(chatter);
            for id in topology.node_ids() {
                incremental.add_node_at(topology.position(id));
            }
            incremental.run_until(ms(100));
            assert!(shared(&incremental), "built empty, K = {shards}");
        }
    }

    /// A scheduled topology change of node `node` modulo the node count,
    /// `at` µs after the run that schedules it starts.
    #[derive(Debug, Clone)]
    enum Change {
        Die {
            node: usize,
            at: u64,
            down: u64,
        },
        Move {
            node: usize,
            at: u64,
            x: f64,
            y: f64,
        },
    }

    /// One `run_until`: the nodes added and the changes scheduled
    /// before it, and how far past the previous deadline it runs, µs.
    #[derive(Debug, Clone)]
    struct Step {
        adds: Vec<(f64, f64)>,
        changes: Vec<Change>,
        length: u64,
    }

    /// A MAC (ALOHA, CSMA or Dynamic-Frame Aloha), saturating senders
    /// on a 3×3-cell field (range 50) and the runs that follow.
    #[derive(Debug, Clone)]
    struct Case {
        seed: u64,
        mac: u8,
        nodes: Vec<(f64, f64)>,
        steps: Vec<Step>,
    }

    fn position() -> (std::ops::Range<f64>, std::ops::Range<f64>) {
        (0.0..150.0, 0.0..150.0)
    }

    fn change() -> impl Strategy<Value = Change> {
        (0u8..2, 0usize..64, 1u64..60_000, 1u64..30_000, position()).prop_map(
            |(kind, node, at, down, (x, y))| match kind {
                0 => Change::Die { node, at, down },
                _ => Change::Move { node, at, x, y },
            },
        )
    }

    fn case() -> impl Strategy<Value = Case> {
        let step = (
            proptest::collection::vec(position(), 0..3),
            proptest::collection::vec(change(), 0..5),
            1u64..60_000,
        )
            .prop_map(|(adds, changes, length)| Step {
                adds,
                changes,
                length,
            });
        (
            (any::<u64>(), 0u8..3),
            proptest::collection::vec(position(), 1..10),
            proptest::collection::vec(step, 1..6),
        )
            .prop_map(|((seed, mac), nodes, steps)| Case {
                seed,
                mac,
                nodes,
                steps,
            })
    }

    /// What a run produced.
    struct Outcome {
        sends: Vec<Vec<SimTime>>,
        stats: MediumStats,
        dfa: DfaStats,
        trace: Vec<TraceEvent>,
        topology: Content,
    }

    /// Runs `case` on `shards` shards (on worker threads when more than
    /// one), checking after every `run_until` that each replica holds
    /// what the master holds.
    fn run(case: &Case, shards: usize) -> Result<Outcome, TestCaseError> {
        let mac = match case.mac {
            0 => MacConfig::aloha(),
            1 => MacConfig::csma(),
            _ => MacConfig::dfa_known(SimDuration::from_millis(8), 8),
        };
        let idle = case.seed.is_multiple_of(2);
        let mut sim = ShardedSimBuilder::new(case.seed)
            .mac(mac)
            .range(50.0)
            .shards(shards)
            .build(move |id| {
                let offset = SimDuration::from_micros(u64::from(id.0) * 397 % 5_000);
                Saturator::new(
                    idle,
                    SimDuration::from_millis(5),
                    offset,
                    SimTime::from_secs(60),
                )
            });
        for &(x, y) in &case.nodes {
            sim.add_node_at(Position::new(x, y));
        }
        sim.set_force_threads(true);
        sim.enable_trace(1 << 20);
        for step in &case.steps {
            for &(x, y) in &step.adds {
                sim.add_node_at(Position::new(x, y));
            }
            let (now, nodes) = (sim.now(), sim.owner.len());
            let after = |micros| now + SimDuration::from_micros(micros);
            for change in &step.changes {
                match *change {
                    Change::Die { node, at, down } => {
                        let node = NodeId((node % nodes) as u32);
                        sim.schedule_set_alive(after(at), node, false);
                        sim.schedule_set_alive(after(at + down), node, true);
                    }
                    Change::Move { node, at, x, y } => {
                        let node = NodeId((node % nodes) as u32);
                        sim.schedule_move(after(at), node, Position::new(x, y));
                    }
                }
            }
            sim.run_until(after(step.length));
            let master = content(sim.topology());
            for core in &sim.cores {
                let index = core.index;
                prop_assert!(
                    content(&core.topo_mac) == master,
                    "MAC replica of shard {} differs from the master, K = {}",
                    index,
                    shards
                );
                prop_assert!(
                    content(&core.topo_rx) == master,
                    "receive replica of shard {} differs from the master, K = {}",
                    index,
                    shards
                );
            }
        }
        Ok(Outcome {
            sends: sim
                .node_ids()
                .map(|id| sim.protocol(id).sends.clone())
                .collect(),
            stats: sim.stats(),
            dfa: sim.dfa_stats(),
            trace: sim.tracer().unwrap().events().copied().collect(),
            topology: content(sim.topology()),
        })
    }

    proptest! {
        /// Every replica equals the master at every run boundary, under
        /// random moves, deaths, revivals and node adds between runs —
        /// what lets a replica share the master again after an add —
        /// and the runs at K = 2 and 4 on worker threads equal K = 1's.
        #[test]
        fn replicas_match_the_master_at_every_run_boundary(case in case()) {
            let reference = run(&case, 1)?;
            for shards in [2, 4] {
                let outcome = run(&case, shards)?;
                prop_assert_eq!(&outcome.sends, &reference.sends, "sends, K = {}", shards);
                prop_assert_eq!(outcome.stats, reference.stats, "medium, K = {}", shards);
                prop_assert_eq!(outcome.dfa, reference.dfa, "DFA, K = {}", shards);
                prop_assert!(outcome.trace == reference.trace, "trace differs, K = {}", shards);
                prop_assert!(outcome.topology == reference.topology, "topology differs, K = {}", shards);
            }
        }
    }
}

/// Infinite, NaN and ±1e300 m coordinates saturate onto cells at the
/// edge of the `i64` plane. A K = 2 run over such nodes, on every MAC,
/// must neither overflow the cell arithmetic of the interest sets, the
/// move path or the interference gather, nor link anyone new: the two
/// nodes sharing the far corner hear only each other.
#[test]
fn edge_cell_positions_run_on_two_shards() {
    let mut positions: Vec<Position> = (0..9)
        .map(|i| Position::new(f64::from(i % 3) * 30.0, f64::from(i / 3) * 30.0))
        .collect();
    positions.extend([
        Position::new(f64::INFINITY, 0.0),
        Position::new(1e300, 1e300),
        Position::new(1e300, 1e300),
        Position::new(-1e300, f64::NEG_INFINITY),
    ]);
    let topo = Topology::from_positions(45.0, positions);
    let (corner_a, corner_b) = (NodeId(10), NodeId(11));
    // Under ALOHA the pair's simultaneous start-up frames collide.
    for (mac, heard_by_corner) in [
        (MacConfig::aloha(), 0),
        (MacConfig::csma(), 2),
        (MacConfig::dfa_known(SimDuration::from_millis(8), 4), 2),
    ] {
        let mut sim = ShardedSimBuilder::new(5)
            .mac(mac)
            .range(45.0)
            .shards(2)
            .build_with_topology(&topo, |_| Chatter {
                to_send: 2,
                heard: 0,
                payload_bytes: 12,
            });
        sim.schedule_move(
            SimTime::from_millis(1),
            NodeId(4),
            Position::new(f64::NAN, 1e300),
        );
        sim.schedule_move(
            SimTime::from_millis(2),
            NodeId(12),
            Position::new(-1e300, -1e300),
        );
        sim.run_until(SimTime::from_secs(2));
        let heard = |node: NodeId| sim.protocol(node).heard;
        assert_eq!(heard(NodeId(9)), 0, "{mac:?}");
        assert_eq!(heard(NodeId(12)), 0, "{mac:?}");
        assert_eq!(heard(corner_a), heard_by_corner, "{mac:?}");
        assert_eq!(heard(corner_b), heard_by_corner, "{mac:?}");
        assert_eq!(sim.topology().degree(NodeId(4)), 0, "{mac:?}");
        assert_eq!(
            sim.topology().neighbors(corner_a).collect::<Vec<_>>(),
            [corner_b]
        );
    }
}
