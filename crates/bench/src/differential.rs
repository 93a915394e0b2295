//! Statistical differential tests: the simulator against Eq. 2–4.
//!
//! The paper's closed-form model makes three falsifiable claims about
//! the testbed of Section 5.1:
//!
//! - **Eq. 4** — a transaction among `T` concurrent transmitters using
//!   `H`-bit identifiers succeeds with probability
//!   `(1 - 2^-H)^(2(T-1))`.
//! - **Eq. 2** — framing efficiency is useful bits over transmitted
//!   bits; here checked with the *real* AFF header layout rather than
//!   the paper's idealized `D/(D+H)`.
//! - **Eq. 3** — end-to-end efficiency composes framing with the Eq. 4
//!   success probability.
//!
//! `differential_sweep` runs a grid of `(policy, H, T, D)` cells
//! through the full simulator stack and scores each cell:
//!
//! - the observed success proportion gets a 99% Wilson score interval,
//!   and `model_within_interval` records whether Eq. 4 lands inside it
//!   (a [`Verdict`] allowing `SERIALIZATION_BIAS_ALLOWANCE`). The
//!   *attempt* denominator is ground-truth deliveries — packets that
//!   survived the radio — because Eq. 4 models identifier collisions,
//!   not RF loss.
//! - `framing_observed` strips the physical-layer preamble from the
//!   measured bit meter and compares against the exact bit count the
//!   [`Fragmenter`] produces for one packet.
//! - `efficiency_observed` is measured useful-bits/transmitted-bits;
//!   `efficiency_predicted` replaces only the identifier-collision
//!   factor with Eq. 4, so a mismatch isolates model error from radio
//!   effects.
//! - listening cells record `beats_uniform_bound`: Section 3.2 claims
//!   the heuristic outperforms blind selection, so its observed success
//!   rate should exceed the uniform Eq. 4 bound.
//!
//! [`fault_matrix`] runs the same testbed under each fault-injection
//! scenario ([`retri_netsim::fault`]) and reports the loss-accounting
//! counters, proving corrupted frames flow through real decode: bit
//! errors surface as parse failures, CRC rejections, and
//! identifier/bounds conflicts — never as silently delivered wrong
//! bytes.
//!
//! [`report`] combines the two into the registry's `fault_matrix`
//! document, and [`record_fault_traces`] re-runs each scenario's first
//! trial observed for the `trace_report` lifecycle audit.
//!
//! [`crate::taxonomy`] extends this harness adversarially, scoring
//! every selector family across clean *and* attacked cells.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri::IdentifierSpace;
use retri_aff::wire::WireConfig;
use retri_aff::{Fragmenter, SelectorPolicy, Testbed, TrialResult};
use retri_model::stats::{Verdict, Z_99};
use retri_model::{p_success, Density, IdBits};
use retri_netsim::prelude::*;

use crate::audit::Recording;
use crate::harness::{self, Provenance};
use crate::EffortLevel;

/// How far Eq. 4 may sit *below* the observed Wilson interval before a
/// cell fails (the [`Verdict`] allowance). Eq. 4 counts `2(T-1)`
/// collision exposures as if every concurrent transaction overlapped
/// destructively, but the CSMA testbed serializes transmissions, so two
/// transactions sharing an identifier often complete back-to-back
/// unharmed and the simulator *beats* Eq. 4 by a percent or two, most
/// visibly for short packets. This absolute allowance is that rescue's
/// measured ceiling across the sweep grid. Nothing widens the upper
/// side: the simulator losing *more* than Eq. 4 predicts would be a
/// real bug (EXPERIMENTS.md, "Fault model and differential tests").
pub(crate) const SERIALIZATION_BIAS_ALLOWANCE: f64 = 0.02;

/// One `(policy, H, T, D)` cell of the differential sweep, with every
/// verdict the integration suite asserts on.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DifferentialCell {
    /// Selection policy ("uniform" / "listening").
    pub policy: String,
    /// Identifier width `H`.
    pub id_bits: u8,
    /// Transaction density `T` (concurrent transmitters).
    pub transmitters: usize,
    /// Packet size `D`, bytes.
    pub packet_bytes: usize,
    /// Ground-truth deliveries across all trials: the packets that
    /// survived the radio and so were exposed to identifier collision.
    pub attempts: u64,
    /// Packets the AFF pipeline delivered (survived collision too).
    pub successes: u64,
    /// `successes / attempts`.
    pub observed: f64,
    /// Eq. 4 at this `(H, T)`.
    pub predicted: f64,
    /// 99% Wilson interval lower bound around `observed`.
    pub wilson_low: f64,
    /// 99% Wilson interval upper bound around `observed`.
    pub wilson_high: f64,
    /// Whether Eq. 4 is inside the Wilson interval, allowing
    /// `SERIALIZATION_BIAS_ALLOWANCE` below it.
    pub model_within_interval: bool,
    /// Listening cells only: observed success exceeds the uniform
    /// Eq. 4 bound (Section 3.2's claim). Always `false` for uniform.
    pub beats_uniform_bound: bool,
    /// Measured useful-bits over transmitted-bits with the preamble
    /// stripped: the Eq. 2 quantity under the real header layout.
    pub framing_observed: f64,
    /// The same ratio computed exactly from the [`Fragmenter`]'s output
    /// for one packet.
    pub framing_predicted: f64,
    /// Measured end-to-end efficiency (Eq. 1 numerator over the full
    /// bit meter, preamble included).
    pub efficiency_observed: f64,
    /// `efficiency_observed` with the collision factor replaced by
    /// Eq. 4: `truth × p_success × D·8 / total_bits`.
    pub efficiency_predicted: f64,
}

/// The sweep grid: `(policy name, policy, H, T, D)` in sweep order.
fn sweep_cells() -> Vec<(&'static str, SelectorPolicy, u8, usize, usize)> {
    let listening = SelectorPolicy::AdaptiveListening {
        concurrency_ttl_micros: 400_000,
    };
    vec![
        ("uniform", SelectorPolicy::Uniform, 6, 5, 80),
        ("uniform", SelectorPolicy::Uniform, 8, 5, 80),
        ("uniform", SelectorPolicy::Uniform, 6, 8, 80),
        ("uniform", SelectorPolicy::Uniform, 8, 8, 80),
        ("uniform", SelectorPolicy::Uniform, 8, 5, 40),
        ("listening", listening, 8, 5, 80),
        ("listening", listening, 6, 8, 80),
    ]
}

/// Exact framing efficiency of one `packet_bytes` packet under the real
/// AFF wire layout: useful bits over the encoded fragments' bits
/// (preamble excluded — it is a radio constant, not a header cost).
fn exact_framing(id_bits: u8, packet_bytes: usize, max_frame_bytes: usize) -> f64 {
    let space = IdentifierSpace::new(id_bits).expect("valid identifier width");
    let wire = WireConfig::aff(space);
    let fragmenter = Fragmenter::new(wire.clone(), max_frame_bytes).expect("wire fits the radio");
    let key = wire.space().id(0).expect("identifier 0 exists");
    let payloads = fragmenter
        .fragment(&vec![0u8; packet_bytes], key, None)
        .expect("packet fragments");
    let wire_bits: u64 = payloads.iter().map(|p| u64::from(p.bits())).sum();
    (packet_bytes as f64 * 8.0) / wire_bits as f64
}

/// Runs the differential sweep and returns its provenance document.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub(crate) fn differential_sweep(
    level: EffortLevel,
    shards: usize,
) -> Provenance<DifferentialCell> {
    let cells = sweep_cells();
    let runs = harness::run_cells(
        "differential_model",
        level,
        &cells,
        |&(_, policy, bits, transmitters, packet_bytes), trial| {
            let mut testbed = Testbed::paper(bits, policy);
            testbed.shards = shards;
            testbed.transmitters = transmitters;
            testbed.workload.packet_bytes = packet_bytes;
            testbed.workload.stop = SimTime::from_secs(level.trial_secs());
            // Eq. 4 models identifier collisions and nothing else, so
            // the sweep must not add loss modes outside the model. The
            // testbed's default 300 ms reassembly TTL is one: at the
            // densest cell (T = 8) a transaction's five fragments
            // interleave with seven competing streams across ~280 ms
            // of channel time, so the reaper starts evicting *live*
            // reassemblies and the observed rate lands points below
            // Eq. 4 for every seed. One second is >3x the densest
            // cell's span — eviction then only affects genuinely dead
            // buffers, which is what the TTL is for.
            testbed.reassembly_ttl_micros = 1_000_000;
            testbed.run(trial.seed)
        },
    );
    let preamble_bits = u64::from(RadioConfig::radiometrix_rpc().preamble_bits);
    let mut provenance = Provenance::new("differential_model", level);
    for (&(name, _, bits, transmitters, packet_bytes), cell_runs) in cells.iter().zip(runs) {
        let attempts: u64 = cell_runs.values.iter().map(|r| r.truth_delivered).sum();
        let successes: u64 = cell_runs.values.iter().map(|r| r.aff_delivered).sum();
        let offered: u64 = cell_runs.values.iter().map(|r| r.packets_offered).sum();
        let total_bits: u64 = cell_runs.values.iter().map(|r| r.total_bits_sent).sum();
        let frames: u64 = cell_runs.values.iter().map(|r| r.medium.frames_sent).sum();
        let observed = successes as f64 / attempts as f64;
        let predicted = p_success(
            IdBits::new(bits).expect("valid width"),
            Density::new(transmitters as u64).expect("positive density"),
        );
        let verdict = Verdict::of(successes, attempts, Z_99, predicted)
            .allowing(SERIALIZATION_BIAS_ALLOWANCE);
        let packet_bits = packet_bytes as f64 * 8.0;
        let header_bits = (total_bits - frames * preamble_bits) as f64;
        provenance.push_cell(
            cell_runs.seeds,
            DifferentialCell {
                policy: name.to_string(),
                id_bits: bits,
                transmitters,
                packet_bytes,
                attempts,
                successes,
                observed,
                predicted,
                wilson_low: verdict.low,
                wilson_high: verdict.high,
                model_within_interval: verdict.inside(),
                beats_uniform_bound: name == "listening" && observed > predicted,
                framing_observed: offered as f64 * packet_bits / header_bits,
                framing_predicted: exact_framing(bits, packet_bytes, 27),
                efficiency_observed: successes as f64 * packet_bits / total_bits as f64,
                efficiency_predicted: attempts as f64 * predicted * packet_bits / total_bits as f64,
            },
        );
    }
    provenance.with_run_metrics()
}

/// One fault-injection scenario's aggregated loss accounting.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FaultScenarioCell {
    /// Scenario name ("clean", "iid_ber", "burst", ...).
    pub scenario: String,
    /// Packets offered by all transmitters, summed over trials.
    pub packets_offered: u64,
    /// Ground-truth deliveries.
    pub truth_delivered: u64,
    /// AFF-pipeline deliveries.
    pub aff_delivered: u64,
    /// `aff_delivered / packets_offered`.
    pub delivery_ratio: f64,
    /// Receiver frames that failed fragment parsing.
    pub decode_errors: u64,
    /// Ground-truth assemblies rejected by the CRC-16.
    pub truth_crc_rejections: u64,
    /// AFF assemblies rejected by the CRC-16.
    pub checksum_failures: u64,
    /// Identifier/bounds conflicts observed by the reassembler.
    pub identifier_conflicts: u64,
    /// Frames delivered with at least one flipped bit.
    pub corrupted_deliveries: u64,
    /// Total bits flipped across corrupted deliveries.
    pub flipped_bits: u64,
    /// Frames erased outright by the fault channel.
    pub fault_erasures: u64,
    /// Frames severed by partition windows.
    pub partition_losses: u64,
}

/// The fault scenarios, in matrix order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Clean,
    IidBer,
    Burst,
    Erasure,
    Churn,
    Partition,
}

impl Scenario {
    /// Every scenario, in matrix order.
    const ALL: [Scenario; 6] = [
        Scenario::Clean,
        Scenario::IidBer,
        Scenario::Burst,
        Scenario::Erasure,
        Scenario::Churn,
        Scenario::Partition,
    ];

    fn name(self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::IidBer => "iid_ber",
            Scenario::Burst => "burst",
            Scenario::Erasure => "erasure",
            Scenario::Churn => "churn",
            Scenario::Partition => "partition",
        }
    }

    /// The scenario's fault model for one trial. Churn schedules are
    /// derived from the trial seed through the labeled-stream split
    /// ([`retri::seed::stream_seed`]), so they vary across trials while
    /// staying fully reproducible.
    fn faults(self, trial_seed: u64, trial_secs: u64) -> FaultModel {
        match self {
            Scenario::Clean => FaultModel::none(),
            Scenario::IidBer => {
                FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
                    bit_error_rate: 1.5e-3,
                    frame_erasure: 0.0,
                }))
            }
            Scenario::Burst => FaultModel::none().with_channel(GilbertElliott::bursty(
                ChannelState::clean(),
                ChannelState {
                    bit_error_rate: 0.02,
                    frame_erasure: 0.0,
                },
                0.05,
                0.20,
            )),
            Scenario::Erasure => {
                FaultModel::none().with_channel(GilbertElliott::iid(ChannelState {
                    bit_error_rate: 0.0,
                    frame_erasure: 0.15,
                }))
            }
            Scenario::Churn => {
                // Transmitter 0 dies and revives a few times per trial,
                // at stream-seeded offsets inside the workload window.
                let mut rng =
                    StdRng::seed_from_u64(retri::seed::stream_seed(trial_seed, "bench.churn"));
                let mut faults = FaultModel::none();
                let window = trial_secs * 1_000_000;
                for cycle in 0..3u64 {
                    let base = cycle * window / 3;
                    let death = base + rng.gen_range(0..window / 6);
                    let revival = death + window / 12 + rng.gen_range(0..window / 12);
                    faults = faults
                        .with_churn_event(SimTime::from_micros(death), NodeId(0), false)
                        .with_churn_event(SimTime::from_micros(revival), NodeId(0), true);
                }
                faults
            }
            Scenario::Partition => FaultModel::none().with_partition(PartitionWindow::new(
                SimTime::from_secs(trial_secs / 5),
                SimTime::from_secs(trial_secs / 2),
                vec![NodeId(0), NodeId(1)],
            )),
        }
    }

    /// The paper testbed (`H = 8`, `T = 5`, `D = 80`) under this
    /// scenario's faults for the trial seeded `trial_seed`.
    fn testbed(self, level: EffortLevel, shards: usize, trial_seed: u64) -> Testbed {
        let mut testbed = Testbed::paper(8, SelectorPolicy::Uniform);
        testbed.shards = shards;
        testbed.workload.stop = SimTime::from_secs(level.trial_secs());
        testbed.faults = self.faults(trial_seed, level.trial_secs());
        testbed
    }
}

/// Runs every fault scenario on the paper testbed (`H = 8`, `T = 5`,
/// `D = 80`) and returns the aggregated loss accounting per scenario.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub fn fault_matrix(level: EffortLevel, shards: usize) -> Provenance<FaultScenarioCell> {
    let runs = harness::run_cells("fault_matrix", level, &Scenario::ALL, |&scenario, trial| {
        scenario.testbed(level, shards, trial.seed).run(trial.seed)
    });
    let mut provenance = Provenance::new("fault_matrix", level);
    for (scenario, cell_runs) in Scenario::ALL.iter().zip(runs) {
        let sum =
            |field: fn(&TrialResult) -> u64| -> u64 { cell_runs.values.iter().map(field).sum() };
        let offered = sum(|r| r.packets_offered);
        let aff = sum(|r| r.aff_delivered);
        provenance.push_cell(
            cell_runs.seeds,
            FaultScenarioCell {
                scenario: scenario.name().to_string(),
                packets_offered: offered,
                truth_delivered: sum(|r| r.truth_delivered),
                aff_delivered: aff,
                delivery_ratio: aff as f64 / offered as f64,
                decode_errors: sum(|r| r.decode_errors),
                truth_crc_rejections: sum(|r| r.truth_crc_rejections),
                checksum_failures: sum(|r| r.checksum_failures),
                identifier_conflicts: sum(|r| r.identifier_conflicts),
                corrupted_deliveries: sum(|r| r.medium.corrupted_deliveries),
                flipped_bits: sum(|r| r.medium.flipped_bits),
                fault_erasures: sum(|r| r.medium.fault_erasures),
                partition_losses: sum(|r| r.medium.partition_losses),
            },
        );
    }
    provenance.with_run_metrics()
}

/// Records one observed trial per fault scenario for the
/// `trace_report` lifecycle audit: trial 0 of each scenario cell is
/// re-run with tracing and metrics enabled on the testbed
/// [`fault_matrix`] builds from the same `harness::trial_seed`, so the
/// recording replays exactly what the matrix measured.
///
/// # Panics
///
/// Panics if the testbed fails to run.
#[must_use]
pub fn record_fault_traces(level: EffortLevel, shards: usize) -> Vec<Recording> {
    Scenario::ALL
        .iter()
        .enumerate()
        .map(|(cell_index, &scenario)| {
            let seed = harness::trial_seed("fault_matrix", cell_index, 0);
            Recording {
                scenario: scenario.name(),
                seed,
                observed: scenario
                    .testbed(level, shards, seed)
                    .run_observed(seed, 1 << 20),
            }
        })
        .collect()
}

/// The `fault_matrix` document of the experiment registry.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FaultMatrixDocument {
    /// The Eq. 2–4 differential sweep.
    pub differential: Provenance<DifferentialCell>,
    /// The fault-scenario loss-accounting matrix.
    pub faults: Provenance<FaultScenarioCell>,
}

/// Runs both halves of the fault-matrix report.
#[must_use]
pub fn report(level: EffortLevel, shards: usize) -> FaultMatrixDocument {
    FaultMatrixDocument {
        differential: differential_sweep(level, shards),
        faults: fault_matrix(level, shards),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_framing_matches_hand_count() {
        // 80 bytes over 27-byte frames with 8-bit identifiers: one
        // introduction plus data fragments; useful/wire must be < 1 and
        // better than the 40-byte packet (fixed per-packet intro cost).
        let f80 = exact_framing(8, 80, 27);
        let f40 = exact_framing(8, 40, 27);
        assert!(f80 > 0.5 && f80 < 1.0, "{f80}");
        assert!(
            f80 > f40,
            "longer packets amortize the intro: {f80} vs {f40}"
        );
    }

    #[test]
    fn sweep_grid_is_the_documented_shape() {
        let cells = sweep_cells();
        assert_eq!(cells.len(), 7);
        assert!(cells.iter().all(|&(_, _, h, t, _)| h >= 6 && t >= 5));
        assert_eq!(
            cells
                .iter()
                .filter(|&&(name, ..)| name == "listening")
                .count(),
            2
        );
    }

    #[test]
    fn churn_schedules_are_reproducible_and_ordered() {
        let a = Scenario::Churn.faults(42, 15);
        let b = Scenario::Churn.faults(42, 15);
        assert_eq!(a.churn(), b.churn());
        let c = Scenario::Churn.faults(43, 15);
        assert_ne!(a.churn(), c.churn());
        let window = 15 * 1_000_000;
        for pair in a.churn().chunks(2) {
            assert!(pair[0].at < pair[1].at, "death precedes revival");
            assert!(!pair[0].alive && pair[1].alive);
            assert!(pair[1].at <= SimTime::from_micros(window));
        }
    }

    #[test]
    fn scenario_names_are_unique() {
        let names = Scenario::ALL.map(Scenario::name);
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
