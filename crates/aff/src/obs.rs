//! Observability for the paper testbed: the AFF endpoints' own
//! counters, folded into a [`retri_obs`] registry after a run.
//!
//! Senders and the receiver count every packet and fragment in plain
//! `u64` fields on their hot paths ([`SenderStats`],
//! [`ReceiverStats`](crate::receiver::ReceiverStats),
//! [`ReassemblyStats`](crate::reassembly::ReassemblyStats)). [`record`]
//! adds the totals once, under the `aff_*` names, when
//! [`Testbed::run_observed`](crate::roles::Testbed::run_observed)
//! finishes; per-event mirroring would buy nothing over the native
//! counters.

use retri_obs::Obs;

use crate::receiver::AffReceiver;
use crate::sender::SenderStats;

/// Adds the senders' summed totals and the receiver's totals and final
/// buffer occupancy to `obs`.
pub(crate) fn record(obs: &mut Obs, sender: &SenderStats, receiver: &AffReceiver) {
    let rx = receiver.stats();
    let aff = receiver.aff_stats();
    let counters = [
        ("aff_packets_offered_total", sender.packets_sent),
        ("aff_fragments_sent_total", sender.fragments_sent),
        ("aff_data_bits_sent_total", sender.data_bits_sent),
        ("aff_retransmissions_total", sender.retransmissions),
        ("aff_fragments_parsed_total", rx.fragments_parsed),
        ("aff_decode_errors_total", rx.decode_errors),
        ("aff_truth_delivered_total", rx.truth_delivered),
        ("aff_truth_crc_rejections_total", rx.truth_crc_rejections),
        ("aff_notifications_sent_total", rx.notifications_sent),
        ("aff_fragments_accepted_total", aff.fragments_accepted),
        ("aff_fragments_delivered_total", aff.fragments_delivered),
        (
            "aff_fragments_checksum_rejected_total",
            aff.fragments_checksum_rejected,
        ),
        (
            "aff_fragments_conflict_discarded_total",
            aff.fragments_conflict_discarded,
        ),
        ("aff_fragments_expired_total", aff.fragments_expired),
        ("aff_duplicate_fragments_total", aff.duplicate_fragments),
        ("aff_packets_delivered_total", aff.delivered),
        ("aff_checksum_failures_total", aff.checksum_failures),
    ];
    for (name, value) in counters {
        obs.add_counter(name, &[], value);
    }
    for (kind, value) in [
        ("intro", aff.conflicting_intros),
        ("bounds", aff.bounds_conflicts),
    ] {
        obs.add_counter("aff_identifier_conflicts_total", &[("kind", kind)], value);
    }
    let reassembler = receiver.reassembler();
    let gauges = [
        ("aff_reassembly_pending_buffers", reassembler.pending_len()),
        (
            "aff_reassembly_buffered_bytes",
            reassembler.buffered_bytes(),
        ),
    ];
    for (name, value) in gauges {
        obs.set_gauge(name, &[], value as f64);
    }
}
