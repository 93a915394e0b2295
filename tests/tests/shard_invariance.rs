//! Shard-count invariance of the parallel engine, end to end.
//!
//! The sharded simulator's contract (`retri_netsim::sim`) is that the
//! merged event stream is **identical for every shard count** — per-node
//! RNG streams and deterministic barrier merges make the partitioning
//! invisible. These tests pin that contract at three levels: the raw
//! trace-event stream, a full AFF testbed trial, and the serialized
//! provenance JSON the experiment registry emits (which must also still
//! match the committed golden capture when run on four shards).

use retri_aff::{SelectorPolicy, Testbed};
use retri_bench::{experiments, EffortLevel};
use retri_netsim::prelude::*;
use retri_netsim::trace::TraceEvent;

/// Saturating ALOHA sender used for the raw-engine stream comparison.
struct Chatterbox;

impl Protocol for Chatterbox {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let phase = 1 + 997 * u64::from(ctx.node_id().0);
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let _ = ctx.send(FramePayload::from_bytes(vec![0xEE; 10]).expect("non-empty"));
        ctx.set_timer(SimDuration::from_millis(7), 0);
    }
}

/// Runs a faulty, churning 5x5 grid on `shards` shards and returns the
/// full trace-event stream plus the medium counters.
fn traced_run(shards: usize) -> (Vec<TraceEvent>, MediumStats) {
    let faults = FaultModel::none()
        .with_channel(GilbertElliott::bursty(
            ChannelState::clean(),
            ChannelState {
                bit_error_rate: 0.01,
                frame_erasure: 0.05,
            },
            0.05,
            0.25,
        ))
        .with_churn_event(SimTime::from_millis(400), NodeId(7), false)
        .with_churn_event(SimTime::from_millis(900), NodeId(7), true);
    let mut sim = ShardedSimBuilder::new(0xDECAF)
        .mac(MacConfig::aloha())
        .range(45.0)
        .faults(faults)
        .shards(shards)
        .build_with_topology(&Topology::grid(5, 5, 30.0, 45.0), |_| Chatterbox);
    sim.schedule_move(
        SimTime::from_millis(600),
        NodeId(3),
        Position::new(500.0, 500.0),
    );
    sim.enable_trace(1 << 16);
    sim.run_until(SimTime::from_secs(2));
    let tracer = sim.tracer().expect("trace enabled");
    assert_eq!(tracer.dropped(), 0, "trace ring must not wrap");
    (tracer.events().copied().collect(), sim.stats())
}

#[test]
fn trace_stream_is_identical_across_shard_counts() {
    let (baseline_events, baseline_stats) = traced_run(1);
    assert!(
        baseline_events
            .iter()
            .any(|e| matches!(e, TraceEvent::Lost { .. })),
        "scenario must actually exercise loss paths"
    );
    for shards in [2, 4, 8] {
        let (events, stats) = traced_run(shards);
        assert_eq!(stats, baseline_stats, "stats diverged at {shards} shards");
        assert_eq!(
            events, baseline_events,
            "trace stream diverged at {shards} shards"
        );
    }
}

#[test]
fn testbed_trial_is_identical_across_shard_counts() {
    let mut testbed = Testbed::paper(5, SelectorPolicy::Listening { window: 12 });
    testbed.workload.stop = SimTime::from_secs(5);
    testbed.faults = FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
        bit_error_rate: 0.003,
        frame_erasure: 0.01,
    }));
    testbed.shards = 1;
    let baseline = testbed.run(23);
    for shards in [2, 4, 8] {
        testbed.shards = shards;
        assert_eq!(
            testbed.run(23),
            baseline,
            "trial diverged at {shards} shards"
        );
    }
}

#[test]
fn adversarial_trial_is_identical_across_shard_counts() {
    // The eavesdropper is an ordinary protocol node on its own labelled
    // RNG stream, so an attacked trial must be just as shard-invariant
    // as a clean one: observations, predictions, and injected forgeries
    // all ride the same deterministic merged event stream.
    let mut testbed = Testbed::paper(16, SelectorPolicy::Sequential).with_adversary();
    testbed.workload.stop = SimTime::from_secs(5);
    testbed.shards = 1;
    let baseline = testbed.run(41);
    let stats = baseline.adversary.expect("adversary stats recorded");
    assert!(
        stats.frames_injected > 0 && stats.predictions_made > 0,
        "scenario must actually exercise the attack: {stats:?}"
    );
    for shards in [2, 4, 8] {
        testbed.shards = shards;
        assert_eq!(
            testbed.run(41),
            baseline,
            "adversarial trial diverged at {shards} shards"
        );
    }
}

#[test]
fn provenance_json_bytes_are_identical_across_shard_counts() {
    // The same sweep the golden capture pins, emitted from one and from
    // four shards: the serialized provenance must agree byte for byte,
    // and both must still match the committed golden file — the sharded
    // engine may not perturb the recorded experiment artifacts.
    let run = experiments::find("ablation_lengths")
        .expect("registered experiment")
        .run;
    let serial = run(EffortLevel::Quick, 1).json;
    let sharded = run(EffortLevel::Quick, 4).json;
    assert_eq!(serial, sharded, "provenance JSON diverged across shards");

    let golden_path = format!(
        "{}/golden/quick-provenance/ablation_lengths.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|err| panic!("cannot read {golden_path}: {err}"));
    assert_eq!(
        sharded, golden,
        "four-shard provenance drifted from the golden capture"
    );
}
