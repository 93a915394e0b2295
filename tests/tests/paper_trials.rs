//! Full-length paper trials, pinned.
//!
//! The golden capture (`golden_bytes.rs`) runs 15 s quick trials only.
//! These pins hold the paper's own 120 s Section 5.1 trials —
//! `Testbed::paper(H, policy).run(7919 + H)` for H ∈ {4, 6, 8} under
//! both of Figure 4's selector series — plus one collision-notification
//! trial on four shards. The counts were captured while the senders
//! still polled their radio queue every 2 ms; the idle timer that
//! replaced the poll must reproduce them exactly, and so must any later
//! change that claims not to move output.

use retri_aff::{SelectorPolicy, Testbed, TrialResult};
use retri_netsim::prelude::MediumStats;

/// The pinned fields of one trial.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    medium: MediumStats,
    truth_delivered: u64,
    aff_delivered: u64,
    packets_offered: u64,
    identifier_conflicts: u64,
    retransmissions: u64,
}

impl Pin {
    fn of(trial: &TrialResult) -> Self {
        Pin {
            medium: trial.medium,
            truth_delivered: trial.truth_delivered,
            aff_delivered: trial.aff_delivered,
            packets_offered: trial.packets_offered,
            identifier_conflicts: trial.identifier_conflicts,
            retransmissions: trial.retransmissions,
        }
    }
}

/// The pin of a trial on the paper's lossless, fully connected
/// testbed, where CSMA leaves no RF collisions: every frame sent
/// reaches all five other nodes.
fn pin(frames_sent: u64, outcome: [u64; 5]) -> Pin {
    let [truth_delivered, aff_delivered, packets_offered, identifier_conflicts, retransmissions] =
        outcome;
    Pin {
        medium: MediumStats {
            frames_sent,
            deliveries: 5 * frames_sent,
            ..MediumStats::default()
        },
        truth_delivered,
        aff_delivered,
        packets_offered,
        identifier_conflicts,
        retransmissions,
    }
}

fn check(testbed: &Testbed, seed: u64, want: &Pin) {
    let got = Pin::of(&testbed.run(seed));
    assert_eq!(
        &got, want,
        "H = {} {:?} on {} shard(s), seed {seed}",
        testbed.id_bits, testbed.policy, testbed.shards
    );
}

#[test]
fn full_length_paper_trials_are_pinned() {
    let (uniform, listening) = (
        SelectorPolicy::Uniform,
        SelectorPolicy::Listening { window: 10 },
    );
    // (H, policy, frames sent, [truth, aff, offered, conflicts, retransmissions])
    let pins = [
        (4, uniform, 19_450, [3_890, 2_247, 3_890, 667, 0]),
        (4, listening, 19_450, [3_890, 3_346, 3_890, 178, 0]),
        (6, uniform, 19_410, [3_882, 3_454, 3_882, 216, 0]),
        (6, listening, 19_410, [3_882, 3_790, 3_882, 47, 0]),
        (8, uniform, 19_175, [3_835, 3_720, 3_835, 55, 0]),
        (8, listening, 19_175, [3_835, 3_805, 3_835, 10, 0]),
    ];
    for (h, policy, frames_sent, outcome) in pins {
        check(
            &Testbed::paper(h, policy),
            7919 + u64::from(h),
            &pin(frames_sent, outcome),
        );
    }
}

#[test]
fn full_length_notification_trial_on_four_shards_is_pinned() {
    let testbed = Testbed {
        shards: 4,
        ..Testbed::paper(6, SelectorPolicy::Uniform).with_notifications()
    };
    check(
        &testbed,
        7925,
        &pin(19_574, [3_872, 3_432, 3_467, 214, 405]),
    );
}
