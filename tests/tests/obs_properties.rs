//! Cross-crate observability properties.
//!
//! Three guarantees the obs subsystem makes across the whole stack:
//!
//! 1. **Counters are honest** — an independent recount of the raw
//!    [`TraceEvent`] stream always equals the metrics registry's
//!    counters, for arbitrary seeds, densities, and fault channels
//!    (proptest).
//! 2. **Recording never perturbs** — a trial run with tracing,
//!    metrics, and run-metrics all enabled produces exactly the same
//!    results as the plain run (the RNG streams are untouched).
//! 3. **The lifecycle ledger closes** — the six-scenario fault-matrix
//!    recordings all pass the `trace_report` audit: 100% of
//!    transmitted fragments resolve to exactly one fate, and every
//!    total cross-validates against the native counters, surviving a
//!    JSON round-trip. The recordings are identical at one and four
//!    shards, and their metrics match pinned digests.

use proptest::prelude::*;
use retri::hash::{fnv1a, FNV_OFFSET};
use retri_aff::{SelectorPolicy, Testbed};
use retri_bench::audit::{audit, Recording};
use retri_bench::{ablations, differential, harness, EffortLevel};
use retri_netsim::trace::{LossReason, TraceEvent};
use retri_netsim::{ChannelState, FaultModel, GilbertElliott, SimTime};

/// The fault channels the recount property sweeps over.
fn channel(choice: u8) -> FaultModel {
    match choice {
        0 => FaultModel::none(),
        1 => FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
            bit_error_rate: 2e-3,
            frame_erasure: 0.0,
        })),
        _ => FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
            bit_error_rate: 0.0,
            frame_erasure: 0.2,
        })),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 1: for any (seed, density, channel), recounting the
    /// trace reproduces the registry's counters exactly.
    #[test]
    fn trace_recount_equals_registry_counters(
        seed in 0..u64::MAX,
        transmitters in 2usize..5,
        fault in 0u8..3,
    ) {
        let mut testbed = Testbed::paper(8, SelectorPolicy::Uniform);
        testbed.transmitters = transmitters;
        testbed.workload.stop = SimTime::from_secs(5);
        testbed.faults = channel(fault);
        let observed = testbed.run_observed(seed, 1 << 18);
        prop_assert_eq!(observed.trace_dropped, 0, "trace window too small");

        let mut tx = 0u64;
        let mut delivered = 0u64;
        let mut corrupted = 0u64;
        let mut flipped = 0u64;
        let mut lost = [0u64; LossReason::ALL.len()];
        for event in &observed.trace {
            match *event {
                TraceEvent::TxStart { .. } => tx += 1,
                TraceEvent::Delivered { .. } => delivered += 1,
                TraceEvent::Corrupted { flipped_bits, .. } => {
                    delivered += 1;
                    corrupted += 1;
                    flipped += flipped_bits;
                }
                TraceEvent::Lost { reason, .. } => {
                    let slot = LossReason::ALL
                        .iter()
                        .position(|&r| r == reason)
                        .expect("ALL covers every reason");
                    lost[slot] += 1;
                }
                TraceEvent::Liveness { .. } | TraceEvent::Moved { .. } => {}
            }
        }
        let snapshot = &observed.snapshot;
        prop_assert_eq!(tx, snapshot.counter("netsim_frames_sent_total"));
        prop_assert_eq!(delivered, snapshot.counter("netsim_deliveries_total"));
        prop_assert_eq!(corrupted, snapshot.counter("netsim_corrupted_deliveries_total"));
        prop_assert_eq!(flipped, snapshot.counter("netsim_flipped_bits_total"));
        for (slot, reason) in LossReason::ALL.iter().enumerate() {
            prop_assert_eq!(
                lost[slot],
                snapshot
                    .counter_with("netsim_drops_total", &[("reason", reason.label())])
                    .unwrap_or(0),
                "drop counter for {:?}",
                reason
            );
        }
        // The drop total is also the sum over reasons.
        prop_assert_eq!(
            lost.iter().sum::<u64>(),
            snapshot.counter("netsim_drops_total")
        );
    }
}

/// Property 2: observing a trial does not change its outcome, and the
/// run-metrics registry does not change any provenance cell.
#[test]
fn observation_never_perturbs_results() {
    let mut testbed = Testbed::paper(8, SelectorPolicy::Uniform);
    testbed.workload.stop = SimTime::from_secs(10);
    let plain = testbed.run(27);
    let observed = testbed.run_observed(27, 1 << 18);
    assert_eq!(plain, observed.trial, "tracing+metrics changed a trial");

    let baseline = ablations::mixed_lengths(EffortLevel::Quick, 1);
    harness::enable_run_metrics();
    let instrumented = ablations::mixed_lengths(EffortLevel::Quick, 1);
    assert_eq!(
        baseline.cells, instrumented.cells,
        "run metrics changed a sweep's results"
    );
    assert!(baseline.obs.is_none());
    let snapshot = instrumented
        .obs
        .expect("instrumented run embeds a snapshot");
    assert_eq!(
        snapshot.counter("bench_trials_total"),
        EffortLevel::Quick.trials(),
        "one sweep of one cell records its trials"
    );
}

/// FNV-1a digests of each scenario's metrics JSONL, captured from a
/// build that mirrored every medium and receiver event into the registry
/// as it happened: the fold of the native counters after the run must
/// export the same bytes.
const METRIC_DIGESTS: [(&str, u64); 6] = [
    ("clean", 0x40b0_3f0e_c760_f178),
    ("iid_ber", 0xceb7_2fa3_0d74_ee7a),
    ("burst", 0x782e_0c28_81e3_3c12),
    ("erasure", 0x1702_7727_47a2_a79f),
    ("churn", 0x65ec_c8bb_b09f_34e6),
    ("partition", 0x29e6_8639_02b4_8f88),
];

/// Property 3: the six-scenario fault matrix audits clean, before and
/// after a JSON round-trip through the recording format; its recordings
/// are the same at one and four shards, and its metrics match the
/// pinned digests.
#[test]
fn fault_matrix_recordings_audit_clean() {
    let recordings = differential::record_fault_traces(EffortLevel::Quick, 1);
    assert_eq!(recordings.len(), 6);
    let sharded = differential::record_fault_traces(EffortLevel::Quick, 4);
    let as_json = |recordings: &[Recording]| -> Vec<String> {
        recordings
            .iter()
            .map(|r| serde_json::to_string(&r.to_json_value()).unwrap())
            .collect()
    };
    assert_eq!(
        as_json(&sharded),
        as_json(&recordings),
        "recordings differ between one and four shards"
    );
    for (recording, (scenario, digest)) in recordings.iter().zip(METRIC_DIGESTS) {
        assert_eq!(recording.scenario, scenario);
        assert_eq!(
            fnv1a(FNV_OFFSET, recording.metrics.to_jsonl().as_bytes()),
            digest,
            "[{scenario}] metrics changed"
        );
    }
    let mut scenarios: Vec<&str> = Vec::new();
    for recording in &recordings {
        scenarios.push(&recording.scenario);
        let report = audit(recording);
        assert!(
            report.is_clean(),
            "[{}] {:#?}",
            recording.scenario,
            report.errors
        );
        // Every scenario moves real traffic, and the ledger is never
        // trivially empty.
        assert!(report.frames.transmitted > 0);
        assert!(report.fragments.accepted > 0);

        let json = serde_json::to_string_pretty(&recording.to_json_value()).unwrap();
        let parsed = Recording::from_json_value(&serde_json::from_str(&json).unwrap())
            .expect("recording parses back");
        let reparsed = audit(&parsed);
        assert!(
            reparsed.is_clean(),
            "[{}] round-trip broke the audit",
            parsed.scenario
        );
        assert_eq!(reparsed.frames, report.frames);
        assert_eq!(reparsed.fragments, report.fragments);
    }
    scenarios.sort_unstable();
    assert_eq!(
        scenarios,
        ["burst", "churn", "clean", "erasure", "iid_ber", "partition"]
    );
}
