//! Transaction-lifecycle audit over recorded traces.
//!
//! A [`Recording`] is one observed testbed trial flattened to plain
//! data: the medium-event trace, the metrics snapshot, and every
//! native counter the protocol stack kept. [`audit`] replays it and
//! reconstructs the lifecycle ledger the paper's loss accounting
//! implies:
//!
//! - **frame level** — every `(seq, receiver)` pair in the trace must
//!   carry exactly one fate (delivered, corrupted, or lost with a
//!   reason), and the per-fate totals must equal the
//!   [`MediumStats`] counters and the `netsim_*` metrics bit for bit;
//! - **fragment level** — every fragment the receiver accepted must
//!   resolve to exactly one of delivered, checksum-rejected,
//!   conflict-discarded, expired, or stranded-in-buffer, and the
//!   totals must match [`ReassemblyStats`];
//! - **receiver level** — every frame the medium delivered to the
//!   designated receiver is either a decode error or a parsed
//!   fragment.
//!
//! Any discrepancy becomes one line in [`AuditReport::errors`]; the
//! `trace_report --check` binary turns a non-empty list into a
//! non-zero exit. Recordings serialize through
//! [`Recording::to_json_value`] / [`Recording::from_json_value`] so
//! `fault_matrix --trace` and `trace_report` agree on the format
//! ([`RECORDING_SCHEMA`]).

use std::collections::HashMap;

use retri_aff::reassembly::ReassemblyStats;
use retri_aff::receiver::ReceiverStats;
use retri_aff::roles::ObservedTrialResult;
use retri_aff::sender::SenderStats;
use retri_netsim::prelude::MediumStats;
use retri_netsim::topology::Position;
use retri_netsim::trace::{LossReason, TraceEvent};
use retri_netsim::{NodeId, SimTime};
use retri_obs::Snapshot;
use serde::json::Value;
use serde::Serialize;

/// Schema tag every recording document carries.
pub const RECORDING_SCHEMA: &str = "retri-trace-recording/v1";

/// One observed trial, flattened for (de)serialization and audit.
#[derive(Debug, Clone)]
pub struct Recording {
    /// Scenario name (e.g. a fault-matrix scenario).
    pub scenario: String,
    /// The trial's simulation seed.
    pub seed: u64,
    /// Transmitter count; nodes `0..transmitters` send.
    pub transmitters: u32,
    /// The designated receiver's node id.
    pub receiver: u32,
    /// Trace events evicted by the ring buffer (must be 0 for a
    /// complete audit).
    pub trace_dropped: u64,
    /// Medium-level counters.
    pub medium: MediumStats,
    /// Aggregated transmitter counters.
    pub sender: SenderStats,
    /// The receiver's frame-level counters.
    pub receiver_stats: ReceiverStats,
    /// The receiver's fragment-fate counters.
    pub reassembly: ReassemblyStats,
    /// Fragments stranded in incomplete buffers at the deadline.
    pub pending_fragments: u64,
    /// Every metric recorded during the trial.
    pub metrics: Snapshot,
    /// The retained medium-event window, oldest first.
    pub trace: Vec<TraceEvent>,
}

impl Recording {
    /// Flattens one observed trial.
    #[must_use]
    pub fn from_observed(
        scenario: &str,
        seed: u64,
        transmitters: u32,
        observed: &ObservedTrialResult,
    ) -> Self {
        Recording {
            scenario: scenario.to_string(),
            seed,
            transmitters,
            receiver: transmitters,
            trace_dropped: observed.trace_dropped,
            medium: observed.energy.trial.medium,
            sender: observed.sender,
            receiver_stats: observed.receiver,
            reassembly: observed.reassembly,
            pending_fragments: observed.pending_fragments,
            metrics: observed.snapshot.clone(),
            trace: observed.trace.clone(),
        }
    }

    /// Serializes the recording (the `fault_matrix --trace` format).
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        obj(vec![
            ("schema", RECORDING_SCHEMA.to_string().to_json_value()),
            ("scenario", self.scenario.to_json_value()),
            ("seed", self.seed.to_json_value()),
            ("transmitters", u64::from(self.transmitters).to_json_value()),
            ("receiver", u64::from(self.receiver).to_json_value()),
            ("trace_dropped", self.trace_dropped.to_json_value()),
            ("medium", medium_to_json(&self.medium)),
            ("sender", sender_to_json(&self.sender)),
            ("receiver_stats", receiver_to_json(&self.receiver_stats)),
            ("reassembly", reassembly_to_json(&self.reassembly)),
            ("pending_fragments", self.pending_fragments.to_json_value()),
            ("metrics", self.metrics.to_json_value()),
            (
                "trace",
                Value::Array(self.trace.iter().map(trace_event_to_json).collect()),
            ),
        ])
    }

    /// Parses a recording; `None` on a missing field, a wrong schema
    /// tag, or a malformed trace event.
    #[must_use]
    pub fn from_json_value(value: &Value) -> Option<Self> {
        if value.get("schema")?.as_str()? != RECORDING_SCHEMA {
            return None;
        }
        let trace = value
            .get("trace")?
            .as_array()?
            .iter()
            .map(trace_event_from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(Recording {
            scenario: value.get("scenario")?.as_str()?.to_string(),
            seed: value.get("seed")?.as_u64()?,
            transmitters: u32::try_from(value.get("transmitters")?.as_u64()?).ok()?,
            receiver: u32::try_from(value.get("receiver")?.as_u64()?).ok()?,
            trace_dropped: value.get("trace_dropped")?.as_u64()?,
            medium: medium_from_json(value.get("medium")?)?,
            sender: sender_from_json(value.get("sender")?)?,
            receiver_stats: receiver_from_json(value.get("receiver_stats")?)?,
            reassembly: reassembly_from_json(value.get("reassembly")?)?,
            pending_fragments: value.get("pending_fragments")?.as_u64()?,
            metrics: Snapshot::from_json_value(value.get("metrics")?)?,
            trace,
        })
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

fn u64_field(value: &Value, key: &str) -> Option<u64> {
    value.get(key)?.as_u64()
}

fn medium_to_json(stats: &MediumStats) -> Value {
    obj(vec![
        ("frames_sent", stats.frames_sent.to_json_value()),
        ("deliveries", stats.deliveries.to_json_value()),
        ("rf_collisions", stats.rf_collisions.to_json_value()),
        (
            "half_duplex_losses",
            stats.half_duplex_losses.to_json_value(),
        ),
        ("random_losses", stats.random_losses.to_json_value()),
        ("sleep_misses", stats.sleep_misses.to_json_value()),
        ("fault_erasures", stats.fault_erasures.to_json_value()),
        ("partition_losses", stats.partition_losses.to_json_value()),
        (
            "corrupted_deliveries",
            stats.corrupted_deliveries.to_json_value(),
        ),
        ("flipped_bits", stats.flipped_bits.to_json_value()),
    ])
}

fn medium_from_json(value: &Value) -> Option<MediumStats> {
    Some(MediumStats {
        frames_sent: u64_field(value, "frames_sent")?,
        deliveries: u64_field(value, "deliveries")?,
        rf_collisions: u64_field(value, "rf_collisions")?,
        half_duplex_losses: u64_field(value, "half_duplex_losses")?,
        random_losses: u64_field(value, "random_losses")?,
        sleep_misses: u64_field(value, "sleep_misses")?,
        fault_erasures: u64_field(value, "fault_erasures")?,
        partition_losses: u64_field(value, "partition_losses")?,
        corrupted_deliveries: u64_field(value, "corrupted_deliveries")?,
        flipped_bits: u64_field(value, "flipped_bits")?,
    })
}

fn sender_to_json(stats: &SenderStats) -> Value {
    obj(vec![
        ("packets_sent", stats.packets_sent.to_json_value()),
        ("fragments_sent", stats.fragments_sent.to_json_value()),
        ("data_bits_sent", stats.data_bits_sent.to_json_value()),
        ("retransmissions", stats.retransmissions.to_json_value()),
    ])
}

fn sender_from_json(value: &Value) -> Option<SenderStats> {
    Some(SenderStats {
        packets_sent: u64_field(value, "packets_sent")?,
        fragments_sent: u64_field(value, "fragments_sent")?,
        data_bits_sent: u64_field(value, "data_bits_sent")?,
        retransmissions: u64_field(value, "retransmissions")?,
    })
}

fn receiver_to_json(stats: &ReceiverStats) -> Value {
    obj(vec![
        ("truth_delivered", stats.truth_delivered.to_json_value()),
        ("decode_errors", stats.decode_errors.to_json_value()),
        (
            "truth_crc_rejections",
            stats.truth_crc_rejections.to_json_value(),
        ),
        (
            "notifications_sent",
            stats.notifications_sent.to_json_value(),
        ),
        ("fragments_parsed", stats.fragments_parsed.to_json_value()),
    ])
}

fn receiver_from_json(value: &Value) -> Option<ReceiverStats> {
    Some(ReceiverStats {
        truth_delivered: u64_field(value, "truth_delivered")?,
        decode_errors: u64_field(value, "decode_errors")?,
        truth_crc_rejections: u64_field(value, "truth_crc_rejections")?,
        notifications_sent: u64_field(value, "notifications_sent")?,
        fragments_parsed: u64_field(value, "fragments_parsed")?,
    })
}

fn reassembly_to_json(stats: &ReassemblyStats) -> Value {
    obj(vec![
        ("delivered", stats.delivered.to_json_value()),
        ("checksum_failures", stats.checksum_failures.to_json_value()),
        ("expired", stats.expired.to_json_value()),
        (
            "fragments_accepted",
            stats.fragments_accepted.to_json_value(),
        ),
        (
            "duplicate_fragments",
            stats.duplicate_fragments.to_json_value(),
        ),
        (
            "conflicting_intros",
            stats.conflicting_intros.to_json_value(),
        ),
        ("bounds_conflicts", stats.bounds_conflicts.to_json_value()),
        (
            "fragments_delivered",
            stats.fragments_delivered.to_json_value(),
        ),
        (
            "fragments_checksum_rejected",
            stats.fragments_checksum_rejected.to_json_value(),
        ),
        (
            "fragments_conflict_discarded",
            stats.fragments_conflict_discarded.to_json_value(),
        ),
        ("fragments_expired", stats.fragments_expired.to_json_value()),
    ])
}

fn reassembly_from_json(value: &Value) -> Option<ReassemblyStats> {
    Some(ReassemblyStats {
        delivered: u64_field(value, "delivered")?,
        checksum_failures: u64_field(value, "checksum_failures")?,
        expired: u64_field(value, "expired")?,
        fragments_accepted: u64_field(value, "fragments_accepted")?,
        duplicate_fragments: u64_field(value, "duplicate_fragments")?,
        conflicting_intros: u64_field(value, "conflicting_intros")?,
        bounds_conflicts: u64_field(value, "bounds_conflicts")?,
        fragments_delivered: u64_field(value, "fragments_delivered")?,
        fragments_checksum_rejected: u64_field(value, "fragments_checksum_rejected")?,
        fragments_conflict_discarded: u64_field(value, "fragments_conflict_discarded")?,
        fragments_expired: u64_field(value, "fragments_expired")?,
    })
}

/// Serializes one [`TraceEvent`] (the recording's `trace` entries).
#[must_use]
pub fn trace_event_to_json(event: &TraceEvent) -> Value {
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

fn node_field(value: &Value, key: &str) -> Option<NodeId> {
    Some(NodeId(u32::try_from(u64_field(value, key)?).ok()?))
}

fn time_field(value: &Value) -> Option<SimTime> {
    Some(SimTime::from_micros(u64_field(value, "at_micros")?))
}

/// Parses one trace event; `None` on unknown type or missing field.
#[must_use]
pub fn trace_event_from_json(value: &Value) -> Option<TraceEvent> {
    let at = time_field(value)?;
    Some(match value.get("type")?.as_str()? {
        "tx_start" => TraceEvent::TxStart {
            at,
            node: node_field(value, "node")?,
            seq: u64_field(value, "seq")?,
            bits: u64_field(value, "bits")?,
        },
        "delivered" => TraceEvent::Delivered {
            at,
            from: node_field(value, "from")?,
            to: node_field(value, "to")?,
            seq: u64_field(value, "seq")?,
        },
        "corrupted" => TraceEvent::Corrupted {
            at,
            from: node_field(value, "from")?,
            to: node_field(value, "to")?,
            seq: u64_field(value, "seq")?,
            flipped_bits: u64_field(value, "flipped_bits")?,
        },
        "lost" => TraceEvent::Lost {
            at,
            from: node_field(value, "from")?,
            to: node_field(value, "to")?,
            seq: u64_field(value, "seq")?,
            reason: *LossReason::ALL.iter().find(|reason| {
                reason.label() == value.get("reason").and_then(Value::as_str).unwrap_or("")
            })?,
        },
        "liveness" => TraceEvent::Liveness {
            at,
            node: node_field(value, "node")?,
            alive: value.get("alive")?.as_bool()?,
        },
        "moved" => TraceEvent::Moved {
            at,
            node: node_field(value, "node")?,
            to: Position::new(value.get("x")?.as_f64()?, value.get("y")?.as_f64()?),
        },
        _ => return None,
    })
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

/// The outcome of auditing one [`Recording`].
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// The recording's scenario name.
    pub scenario: String,
    /// Frame-level fate totals from the trace.
    pub frames: FrameFates,
    /// Fragment-level fate totals from [`ReassemblyStats`].
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

/// Audits one recording: reconstructs frame and fragment lifecycles
/// and cross-validates them against the native counters and the
/// metrics snapshot. Every discrepancy becomes one
/// [`AuditReport::errors`] line.
#[must_use]
pub fn audit(recording: &Recording) -> AuditReport {
    let mut report = AuditReport {
        scenario: recording.scenario.clone(),
        ..AuditReport::default()
    };
    let errors = &mut report.errors;
    if recording.trace_dropped > 0 {
        errors.push(format!(
            "trace evicted {} events; the ledger cannot close (raise the trace capacity)",
            recording.trace_dropped
        ));
    }

    // Frame level: every (seq, receiver) pair gets exactly one fate.
    let mut transmitted: HashMap<u64, u64> = HashMap::new();
    let mut fates: HashMap<(u64, NodeId), Fate> = HashMap::new();
    for event in &recording.trace {
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
    let medium = &recording.medium;
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
    let metrics = &recording.metrics;
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
    let receiver = NodeId(recording.receiver);
    report.receiver_frames = fates
        .iter()
        .filter(|(&(_, to), fate)| to == receiver && !matches!(fate, Fate::Lost(_)))
        .count() as u64;
    let rx = &recording.receiver_stats;
    check(
        errors,
        "receiver frames = decode_errors + fragments_parsed",
        report.receiver_frames,
        rx.decode_errors + rx.fragments_parsed,
    );

    // Fragment level: 100% of accepted fragments resolve to exactly
    // one fate.
    let stats = &recording.reassembly;
    report.fragments = FragmentFates {
        accepted: stats.fragments_accepted,
        delivered: stats.fragments_delivered,
        checksum_rejected: stats.fragments_checksum_rejected,
        conflict_discarded: stats.fragments_conflict_discarded,
        expired: stats.fragments_expired,
        stranded: recording.pending_fragments,
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
        recording.sender.fragments_sent,
    );
    // Frames on the air all originate from queued fragments or
    // notifications; the queue may still hold fragments at the
    // deadline, so this bound is one-sided.
    if medium.frames_sent > recording.sender.fragments_sent + rx.notifications_sent {
        errors.push(format!(
            "{} frames on the air but only {} fragments + {} notifications were queued",
            medium.frames_sent, recording.sender.fragments_sent, rx.notifications_sent
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

    fn observed_recording(seed: u64) -> Recording {
        let mut testbed = Testbed::paper(6, SelectorPolicy::Uniform);
        testbed.workload.stop = SimTime::from_secs(10);
        let observed = testbed.run_observed(seed, 1 << 20);
        Recording::from_observed("unit", seed, testbed.transmitters as u32, &observed)
    }

    #[test]
    fn clean_trial_audits_clean() {
        let recording = observed_recording(5);
        let report = audit(&recording);
        assert!(report.is_clean(), "{:#?}", report.errors);
        assert!(report.frames.transmitted > 0);
        assert!(report.frames.outcomes() > 0);
        assert!(report.fragments.accepted > 0);
    }

    #[test]
    fn recording_round_trips_through_json() {
        let recording = observed_recording(6);
        let json = serde_json::to_string_pretty(&recording.to_json_value()).unwrap();
        let parsed = Recording::from_json_value(&serde_json::from_str(&json).unwrap())
            .expect("recording parses back");
        assert_eq!(parsed.trace, recording.trace);
        assert_eq!(parsed.medium, recording.medium);
        assert_eq!(parsed.reassembly, recording.reassembly);
        assert_eq!(parsed.receiver_stats, recording.receiver_stats);
        assert!(audit(&parsed).is_clean());
    }

    #[test]
    fn tampered_counters_fail_the_audit() {
        let mut recording = observed_recording(7);
        recording.reassembly.fragments_delivered += 1;
        let report = audit(&recording);
        assert!(!report.is_clean());
        assert!(
            report.errors.iter().any(|e| e.contains("fragment fates")),
            "{:#?}",
            report.errors
        );
    }

    #[test]
    fn truncated_trace_is_reported() {
        let mut recording = observed_recording(8);
        recording.trace_dropped = 3;
        let report = audit(&recording);
        assert!(report.errors.iter().any(|e| e.contains("evicted")));
    }

    #[test]
    fn duplicate_fate_is_reported() {
        let mut recording = observed_recording(9);
        let dup = recording
            .trace
            .iter()
            .find(|e| matches!(e, TraceEvent::Delivered { .. }))
            .copied()
            .expect("a delivery exists");
        recording.trace.push(dup);
        let report = audit(&recording);
        assert!(report.errors.iter().any(|e| e.contains("two fates")));
    }
}
