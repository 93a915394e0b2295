//! Transaction-lifecycle audit over observed trials.
//!
//! [`audit`] replays one observed testbed trial — the medium-event
//! trace, the metrics snapshot, and every native counter the protocol
//! stack kept — and reconstructs the lifecycle ledger the paper's loss
//! accounting implies:
//!
//! - **frame level** — every `(seq, receiver)` pair in the trace must
//!   carry exactly one fate (delivered, corrupted, or lost with a
//!   reason), and the per-fate totals must equal the
//!   [`MediumStats`](retri_netsim::prelude::MediumStats) counters and
//!   the `netsim_*` metrics bit for bit;
//! - **fragment level** — every fragment the receiver accepted must
//!   resolve to exactly one of delivered, checksum-rejected,
//!   conflict-discarded, expired, or stranded-in-buffer, and the
//!   totals must match [`ReassemblyStats`](retri_aff::reassembly::ReassemblyStats);
//! - **receiver level** — every frame the medium delivered to the
//!   designated receiver is either a decode error or a parsed
//!   fragment.
//!
//! Any discrepancy becomes one line in [`AuditReport::errors`]; the
//! `trace_report` binary records the fault matrix's trials
//! ([`crate::differential::record_fault_traces`]), audits them, and
//! exits non-zero on a non-empty list. [`Recording::to_json_value`]
//! writes a trial out as a `retri-trace-recording/v1` document for
//! inspection.

use std::collections::HashMap;

use retri_aff::roles::ObservedTrialResult;
use retri_netsim::trace::{LossReason, TraceEvent};
use retri_netsim::NodeId;
use serde::json::Value;
use serde::Serialize;

/// Schema tag every recording document carries.
const RECORDING_SCHEMA: &str = "retri-trace-recording/v1";

/// One observed fault-matrix trial and what it ran.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The fault-matrix scenario's name.
    pub scenario: &'static str,
    /// The trial's simulation seed.
    pub seed: u64,
    /// The trial itself: trace, metrics and native counters.
    pub observed: ObservedTrialResult,
}

impl Recording {
    /// Serializes the recording as a `retri-trace-recording/v1`
    /// document.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        let observed = &self.observed;
        obj(vec![
            ("schema", RECORDING_SCHEMA.to_string().to_json_value()),
            ("scenario", self.scenario.to_string().to_json_value()),
            ("seed", self.seed.to_json_value()),
            ("transmitters", (observed.senders as u64).to_json_value()),
            (
                "receiver",
                u64::from(observed.receiver_id.0).to_json_value(),
            ),
            ("trace_dropped", observed.trace_dropped.to_json_value()),
            ("medium", observed.trial.medium.to_json_value()),
            ("sender", observed.sender.to_json_value()),
            ("receiver_stats", observed.receiver.to_json_value()),
            ("reassembly", observed.reassembly.to_json_value()),
            (
                "pending_fragments",
                observed.pending_fragments.to_json_value(),
            ),
            ("metrics", observed.snapshot.to_json_value()),
            (
                "trace",
                Value::Array(observed.trace.iter().map(trace_event_to_json).collect()),
            ),
        ])
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Serializes one [`TraceEvent`] (the recording's `trace` entries).
fn trace_event_to_json(event: &TraceEvent) -> Value {
    match event {
        TraceEvent::TxStart {
            at,
            node,
            seq,
            bits,
        } => obj(vec![
            ("type", "tx_start".to_string().to_json_value()),
            ("at_micros", at.as_micros().to_json_value()),
            ("node", (node.0 as u64).to_json_value()),
            ("seq", seq.to_json_value()),
            ("bits", bits.to_json_value()),
        ]),
        TraceEvent::Delivered { at, from, to, seq } => obj(vec![
            ("type", "delivered".to_string().to_json_value()),
            ("at_micros", at.as_micros().to_json_value()),
            ("from", (from.0 as u64).to_json_value()),
            ("to", (to.0 as u64).to_json_value()),
            ("seq", seq.to_json_value()),
        ]),
        TraceEvent::Corrupted {
            at,
            from,
            to,
            seq,
            flipped_bits,
        } => obj(vec![
            ("type", "corrupted".to_string().to_json_value()),
            ("at_micros", at.as_micros().to_json_value()),
            ("from", (from.0 as u64).to_json_value()),
            ("to", (to.0 as u64).to_json_value()),
            ("seq", seq.to_json_value()),
            ("flipped_bits", flipped_bits.to_json_value()),
        ]),
        TraceEvent::Lost {
            at,
            from,
            to,
            seq,
            reason,
        } => obj(vec![
            ("type", "lost".to_string().to_json_value()),
            ("at_micros", at.as_micros().to_json_value()),
            ("from", (from.0 as u64).to_json_value()),
            ("to", (to.0 as u64).to_json_value()),
            ("seq", seq.to_json_value()),
            ("reason", reason.label().to_string().to_json_value()),
        ]),
        TraceEvent::Liveness { at, node, alive } => obj(vec![
            ("type", "liveness".to_string().to_json_value()),
            ("at_micros", at.as_micros().to_json_value()),
            ("node", (node.0 as u64).to_json_value()),
            ("alive", alive.to_json_value()),
        ]),
        TraceEvent::Moved { at, node, to } => obj(vec![
            ("type", "moved".to_string().to_json_value()),
            ("at_micros", at.as_micros().to_json_value()),
            ("node", (node.0 as u64).to_json_value()),
            ("x", to.x.to_json_value()),
            ("y", to.y.to_json_value()),
        ]),
    }
}

/// Per-frame fate totals reconstructed from the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFates {
    /// Frames put on the air (`TxStart` events).
    pub transmitted: u64,
    /// `(seq, receiver)` pairs delivered intact.
    pub delivered_clean: u64,
    /// Pairs delivered with flipped bits.
    pub delivered_corrupted: u64,
    /// Pairs lost, per [`LossReason::ALL`] order.
    pub lost: [u64; LossReason::ALL.len()],
}

impl FrameFates {
    /// All per-receiver outcomes: deliveries plus every loss.
    #[must_use]
    pub fn outcomes(&self) -> u64 {
        self.delivered_clean + self.delivered_corrupted + self.lost.iter().sum::<u64>()
    }
}

/// Fragment-fate totals at the designated receiver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragmentFates {
    /// Fragments the reassembler accepted.
    pub accepted: u64,
    /// ... that completed a checksum-valid packet.
    pub delivered: u64,
    /// ... that completed a packet the CRC-16 rejected.
    pub checksum_rejected: u64,
    /// ... discarded by a newest-wins conflict restart.
    pub conflict_discarded: u64,
    /// ... evicted with their buffer by the reassembly timeout.
    pub expired: u64,
    /// ... still in incomplete buffers at the deadline.
    pub stranded: u64,
}

impl FragmentFates {
    /// Sum of every terminal and stranded fate.
    #[must_use]
    pub fn resolved(&self) -> u64 {
        self.delivered
            + self.checksum_rejected
            + self.conflict_discarded
            + self.expired
            + self.stranded
    }
}

/// The outcome of auditing one observed trial.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Frame-level fate totals from the trace.
    pub frames: FrameFates,
    /// Fragment-level fate totals from the receiver's `ReassemblyStats`.
    pub fragments: FragmentFates,
    /// Frames the medium handed to the designated receiver.
    pub receiver_frames: u64,
    /// Every discrepancy found, one line each; empty means the
    /// lifecycle ledger closed.
    pub errors: Vec<String>,
}

impl AuditReport {
    /// Whether every fragment resolved to exactly one fate and every
    /// cross-check matched.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A frame outcome already seen for a `(seq, receiver)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Delivered,
    Corrupted,
    Lost(LossReason),
}

/// Audits one observed trial: reconstructs frame and fragment lifecycles
/// and cross-validates them against the native counters and the
/// metrics snapshot. Every discrepancy becomes one
/// [`AuditReport::errors`] line.
#[must_use]
pub fn audit(observed: &ObservedTrialResult) -> AuditReport {
    let mut report = AuditReport::default();
    let errors = &mut report.errors;
    if observed.trace_dropped > 0 {
        errors.push(format!(
            "trace evicted {} events; the ledger cannot close (raise the trace capacity)",
            observed.trace_dropped
        ));
    }

    // Frame level: every (seq, receiver) pair gets exactly one fate.
    let mut transmitted: HashMap<u64, u64> = HashMap::new();
    let mut fates: HashMap<(u64, NodeId), Fate> = HashMap::new();
    for event in &observed.trace {
        match *event {
            TraceEvent::TxStart { seq, bits, .. } => {
                if transmitted.insert(seq, bits).is_some() {
                    errors.push(format!("medium seq {seq} transmitted twice"));
                }
                report.frames.transmitted += 1;
            }
            TraceEvent::Delivered { seq, to, .. } => {
                record_fate(&transmitted, &mut fates, errors, seq, to, Fate::Delivered);
                report.frames.delivered_clean += 1;
            }
            TraceEvent::Corrupted { seq, to, .. } => {
                record_fate(&transmitted, &mut fates, errors, seq, to, Fate::Corrupted);
                report.frames.delivered_corrupted += 1;
            }
            TraceEvent::Lost {
                seq, to, reason, ..
            } => {
                record_fate(
                    &transmitted,
                    &mut fates,
                    errors,
                    seq,
                    to,
                    Fate::Lost(reason),
                );
                let slot = LossReason::ALL
                    .iter()
                    .position(|&r| r == reason)
                    .expect("ALL covers every reason");
                report.frames.lost[slot] += 1;
            }
            TraceEvent::Liveness { .. } | TraceEvent::Moved { .. } => {}
        }
    }

    // Cross-check the trace totals against the medium counters.
    let medium = &observed.trial.medium;
    let reason_totals = [
        ("rf_collision", medium.rf_collisions),
        ("half_duplex", medium.half_duplex_losses),
        ("random_loss", medium.random_losses),
        ("asleep", medium.sleep_misses),
        ("fault_erasure", medium.fault_erasures),
        ("partitioned", medium.partition_losses),
    ];
    check(
        errors,
        "frames transmitted",
        report.frames.transmitted,
        medium.frames_sent,
    );
    check(
        errors,
        "frames delivered",
        report.frames.delivered_clean + report.frames.delivered_corrupted,
        medium.deliveries,
    );
    check(
        errors,
        "corrupted deliveries",
        report.frames.delivered_corrupted,
        medium.corrupted_deliveries,
    );
    for (slot, &(label, expected)) in reason_totals.iter().enumerate() {
        check(
            errors,
            &format!("losses[{label}]"),
            report.frames.lost[slot],
            expected,
        );
    }

    // ... and against the metrics snapshot.
    let metrics = &observed.snapshot;
    check(
        errors,
        "netsim_frames_sent_total",
        metrics.counter("netsim_frames_sent_total"),
        medium.frames_sent,
    );
    check(
        errors,
        "netsim_deliveries_total",
        metrics.counter("netsim_deliveries_total"),
        medium.deliveries,
    );
    for &(label, expected) in &reason_totals {
        check(
            errors,
            &format!("netsim_drops_total{{reason={label}}}"),
            metrics
                .counter_with("netsim_drops_total", &[("reason", label)])
                .unwrap_or(0),
            expected,
        );
    }

    // Receiver level: every frame the medium handed to the designated
    // receiver either parsed or counted as a decode error.
    let receiver = observed.receiver_id;
    report.receiver_frames = fates
        .iter()
        .filter(|(&(_, to), fate)| to == receiver && !matches!(fate, Fate::Lost(_)))
        .count() as u64;
    let rx = &observed.receiver;
    check(
        errors,
        "receiver frames = decode_errors + fragments_parsed",
        report.receiver_frames,
        rx.decode_errors + rx.fragments_parsed,
    );

    // Fragment level: 100% of accepted fragments resolve to exactly
    // one fate.
    let stats = &observed.reassembly;
    report.fragments = FragmentFates {
        accepted: stats.fragments_accepted,
        delivered: stats.fragments_delivered,
        checksum_rejected: stats.fragments_checksum_rejected,
        conflict_discarded: stats.fragments_conflict_discarded,
        expired: stats.fragments_expired,
        stranded: observed.pending_fragments,
    };
    check(
        errors,
        "fragment fates (delivered + crc-rejected + conflicted + expired + stranded)",
        report.fragments.resolved(),
        report.fragments.accepted,
    );
    check(
        errors,
        "aff_fragments_accepted_total",
        metrics.counter("aff_fragments_accepted_total"),
        stats.fragments_accepted,
    );
    check(
        errors,
        "aff_fragments_delivered_total",
        metrics.counter("aff_fragments_delivered_total"),
        stats.fragments_delivered,
    );
    check(
        errors,
        "aff_fragments_sent_total",
        metrics.counter("aff_fragments_sent_total"),
        observed.sender.fragments_sent,
    );
    // Frames on the air all originate from queued fragments or
    // notifications; the queue may still hold fragments at the
    // deadline, so this bound is one-sided.
    if medium.frames_sent > observed.sender.fragments_sent + rx.notifications_sent {
        errors.push(format!(
            "{} frames on the air but only {} fragments + {} notifications were queued",
            medium.frames_sent, observed.sender.fragments_sent, rx.notifications_sent
        ));
    }
    report
}

fn record_fate(
    transmitted: &HashMap<u64, u64>,
    fates: &mut HashMap<(u64, NodeId), Fate>,
    errors: &mut Vec<String>,
    seq: u64,
    to: NodeId,
    fate: Fate,
) {
    if !transmitted.contains_key(&seq) {
        errors.push(format!(
            "receiver outcome for seq {seq} without a TxStart (node {})",
            to.index()
        ));
    }
    if let Some(previous) = fates.insert((seq, to), fate) {
        errors.push(format!(
            "seq {seq} -> node {} has two fates: {previous:?} then {fate:?}",
            to.index()
        ));
    }
}

fn check(errors: &mut Vec<String>, what: &str, got: u64, expected: u64) {
    if got != expected {
        errors.push(format!(
            "{what}: ledger says {got}, counters say {expected}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retri_aff::{SelectorPolicy, Testbed};
    use retri_netsim::SimTime;

    fn observed_trial(seed: u64) -> ObservedTrialResult {
        let mut testbed = Testbed::paper(6, SelectorPolicy::Uniform);
        testbed.workload.stop = SimTime::from_secs(10);
        testbed.run_observed(seed, 1 << 20)
    }

    #[test]
    fn clean_trial_audits_clean() {
        let report = audit(&observed_trial(5));
        assert!(report.is_clean(), "{:#?}", report.errors);
        assert!(report.frames.transmitted > 0);
        assert!(report.frames.outcomes() > 0);
        assert!(report.fragments.accepted > 0);
    }

    #[test]
    fn recording_round_trips_through_json() {
        // The written document parses back to the very value it was
        // written from: every count and float survives the text.
        let recording = Recording {
            scenario: "unit",
            seed: 6,
            observed: observed_trial(6),
        };
        let value = recording.to_json_value();
        let json = serde_json::to_string_pretty(&value).unwrap();
        assert_eq!(serde_json::from_str(&json).unwrap(), value);
        assert_eq!(
            value
                .get("trace")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(recording.observed.trace.len())
        );
    }

    #[test]
    fn tampered_counters_fail_the_audit() {
        let mut observed = observed_trial(7);
        observed.reassembly.fragments_delivered += 1;
        let report = audit(&observed);
        assert!(!report.is_clean());
        assert!(
            report.errors.iter().any(|e| e.contains("fragment fates")),
            "{:#?}",
            report.errors
        );
    }

    #[test]
    fn truncated_trace_is_reported() {
        let mut observed = observed_trial(8);
        observed.trace_dropped = 3;
        let report = audit(&observed);
        assert!(report.errors.iter().any(|e| e.contains("evicted")));
    }

    #[test]
    fn duplicate_fate_is_reported() {
        let mut observed = observed_trial(9);
        let dup = observed
            .trace
            .iter()
            .find(|e| matches!(e, TraceEvent::Delivered { .. }))
            .copied()
            .expect("a delivery exists");
        observed.trace.push(dup);
        let report = audit(&observed);
        assert!(report.errors.iter().any(|e| e.contains("two fates")));
    }
}
