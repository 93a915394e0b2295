//! The experiment registry: one entry per provenance document of the
//! paper's evaluation — Figures 1–4, the measured-efficiency comparison,
//! ten ablations, the Eq. 2–4 differential check with the fault matrix,
//! and the selector taxonomy — in the order the `experiments` binary
//! runs them.
//!
//! Each entry runs its sweep at the given effort on the given number of
//! spatial shards and returns the document as pretty JSON together with
//! the table it prints. At quick effort every document is byte-identical
//! to `tests/golden/quick-provenance/<name>.json` on any shard count, and
//! at standard and paper effort to the documents under
//! `tests/golden/standard-provenance/` and `tests/golden/paper-provenance/`.
//! The analytic figures ignore both arguments.
//!
//! ```
//! use retri_bench::experiments::{find, EXPERIMENTS};
//! use retri_bench::EffortLevel;
//!
//! assert_eq!(EXPERIMENTS.len(), 17);
//! let fig1 = find("fig1").expect("registered");
//! let output = (fig1.run)(EffortLevel::Quick, 1);
//! assert!(output.json.contains("\"experiment\": \"fig1\""));
//! assert!(output.table.starts_with("Figure 1"));
//! ```

use crate::harness::Provenance;
use crate::table::{self, f, opt};
use crate::{ablations, differential, figures, taxonomy, EffortLevel};

/// What one experiment produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// The provenance document, serialized as pretty JSON.
    pub json: String,
    /// The report printed on stdout: heading, table and closing notes.
    pub table: String,
}

impl Output {
    fn new<T: serde::Serialize>(document: &T, table: String) -> Self {
        Output {
            json: serde_json::to_string_pretty(document).expect("provenance serializes"),
            table,
        }
    }
}

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The document's name: its golden file stem and `--only` argument.
    pub name: &'static str,
    /// Runs the experiment at an effort on a number of spatial shards.
    pub run: fn(EffortLevel, usize) -> Output,
}

impl Experiment {
    const fn new(name: &'static str, run: fn(EffortLevel, usize) -> Output) -> Self {
        Experiment { name, run }
    }
}

/// Every experiment, in evaluation order.
pub static EXPERIMENTS: [Experiment; 17] = [
    Experiment::new("fig1", fig1),
    Experiment::new("fig2", fig2),
    Experiment::new("fig3", fig3),
    Experiment::new("fig4", fig4),
    Experiment::new("efficiency_measured", efficiency_measured),
    Experiment::new("ablation_listening", ablation_listening),
    Experiment::new("ablation_hidden", ablation_hidden),
    Experiment::new("ablation_lengths", ablation_lengths),
    Experiment::new("ablation_dynamic_addr", ablation_dynamic_addr),
    Experiment::new("ablation_scaling", ablation_scaling),
    Experiment::new("ablation_notification", ablation_notification),
    Experiment::new("ablation_duty_cycle", ablation_duty_cycle),
    Experiment::new("ablation_energy", ablation_energy),
    Experiment::new("ablation_mac", ablation_mac),
    Experiment::new("ablation_density", ablation_density),
    Experiment::new("fault_matrix", fault_matrix),
    Experiment::new("selector_taxonomy", selector_taxonomy),
];

/// The registered experiment called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|experiment| experiment.name == name)
}

/// Every registered name, comma-separated, for usage and error messages.
#[must_use]
pub fn names() -> String {
    EXPERIMENTS
        .iter()
        .map(|experiment| experiment.name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// The experiments a run selects: all of them, or only the one named.
///
/// # Panics
///
/// Panics on a name the registry does not hold, listing the names it
/// does.
#[must_use]
pub fn select(only: Option<&str>) -> &'static [Experiment] {
    match only {
        None => &EXPERIMENTS,
        Some(name) => std::slice::from_ref(find(name).unwrap_or_else(|| {
            panic!("unknown experiment `{name}`; the registry has: {}", names())
        })),
    }
}

/// The densities and static widths Figures 1 and 2 plot.
const DENSITIES: [u64; 3] = [16, 256, 65536];
const STATICS: [u8; 2] = [16, 32];

/// Figures 1–2: the efficiency-vs-width table and the curve peaks.
fn efficiency_vs_width(figure: u8, data_bits: u32) -> (Vec<figures::EfficiencyRow>, String) {
    let rows = figures::efficiency_vs_width(data_bits, &DENSITIES, &STATICS, 32);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row.id_bits.to_string()];
            cells.extend(row.aff.iter().map(|&e| f(e)));
            cells.extend(row.static_lines.iter().map(|&e| f(e)));
            cells
        })
        .collect();
    let mut text = format!(
        "Figure {figure}: Efficiency of AFF vs. static allocation, {data_bits}-bit data\n\n{}",
        table::render(
            &[
                "id_bits",
                "AFF T=16",
                "AFF T=256",
                "AFF T=65536",
                "static 16-bit",
                "static 32-bit",
            ],
            &printable,
        )
    );
    text += "\nOptimal identifier sizes (curve peaks):\n";
    for (t, bits, eff) in figures::optima(data_bits, &DENSITIES) {
        text += &format!(
            "  T={t:<6} optimum at {bits:>2} bits, efficiency {}\n",
            f(eff)
        );
    }
    (rows, text)
}

/// Figure 1: efficiency of AFF vs. static allocation for 16-bit data.
fn fig1(_: EffortLevel, _: usize) -> Output {
    let (rows, mut text) = efficiency_vs_width(1, 16);
    text += "\nPaper check: at T=16 the optimum is 9 bits and beats both static\n\
             lines (Section 4.2); at T=65536 a fully utilized 16-bit static\n\
             space wins everywhere.\n";
    Output::new(&Provenance::analytic("fig1", rows), text)
}

/// Figure 2: the same sweep for 128-bit data, where every optimum moves
/// to more bits.
fn fig2(_: EffortLevel, _: usize) -> Output {
    let (rows, mut text) = efficiency_vs_width(2, 128);
    text += "\nPaper check: every optimum sits at more bits than with 16-bit data:\n";
    for (small, large) in figures::optima(16, &DENSITIES)
        .iter()
        .zip(&figures::optima(128, &DENSITIES))
    {
        text += &format!("  T={:<6} {} bits -> {} bits\n", small.0, small.1, large.1);
    }
    Output::new(&Provenance::analytic("fig2", rows), text)
}

/// Figure 3: efficiency vs. load for 16-bit data; a static line ends
/// where its address space is exhausted.
fn fig3(_: EffortLevel, _: usize) -> Output {
    let rows = figures::efficiency_vs_load(16, &[9, 12, 16], &[5, 8, 16], 1 << 20);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row.density.to_string()];
            cells.extend(row.aff.iter().map(|&e| f(e)));
            cells.extend(row.static_lines.iter().map(|&e| opt(e)));
            cells
        })
        .collect();
    let text = format!(
        "Figure 3: Efficiency vs. load (transaction density), 16-bit data\n\n{}\n\
         '-' marks loads where a static space has fewer addresses than\n\
         concurrent transactions: the scheme is undefined there, while\n\
         every AFF column is defined at every load.\n",
        table::render(
            &[
                "T",
                "AFF 9-bit",
                "AFF 12-bit",
                "AFF 16-bit",
                "static 5-bit",
                "static 8-bit",
                "static 16-bit",
            ],
            &printable,
        )
    );
    Output::new(&Provenance::analytic("fig3", rows), text)
}

/// Figure 4: collision rate predicted by Eq. 4 vs. observed on the
/// Section 5.1 testbed, random and listening selection, H = 1..=12.
fn fig4(level: EffortLevel, shards: usize) -> Output {
    let id_sizes: Vec<u8> = (1..=12).collect();
    let provenance = figures::fig4_series(level, shards, &id_sizes);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            vec![
                p.policy.to_string(),
                p.id_bits.to_string(),
                f(p.observed.mean),
                f(p.observed.std_dev),
                f(p.predicted),
            ]
        })
        .collect();
    let text = format!(
        "Figure 4: collision rate, model vs. implementation (T=5, {} trials x {} s per point)\n\n{}\n\
         Paper check: the random policy tracks the Eq. 4 curve; the\n\
         listening policy sits well below it at every width (Figure 4).\n\
         Error bars in the paper are one standard deviation — the std_dev\n\
         column here.\n",
        level.trials(),
        level.trial_secs(),
        table::render(
            &["policy", "id_bits", "observed", "std_dev", "model (Eq. 4)"],
            &rows,
        )
    );
    Output::new(&provenance, text)
}

/// Eq. 1 measured on the simulator for AFF and static addressing under
/// the same five-transmitter workload.
fn efficiency_measured(level: EffortLevel, shards: usize) -> Output {
    let provenance = figures::measured_efficiency(level, shards);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            vec![
                p.scheme.clone(),
                f(p.efficiency.mean),
                f(p.collision_loss.mean),
            ]
        })
        .collect();
    let text = format!(
        "Measured efficiency, 80-byte packets, 5 transmitters -> 1 receiver ({} trials x {} s)\n\n{}\n\
         Paper check: mid-width AFF beats every static width; very narrow\n\
         AFF loses to collisions, very wide AFF converges to static of the\n\
         same width (Figure 1's shape, measured).\n",
        level.trials(),
        level.trial_secs(),
        table::render(&["scheme", "measured efficiency", "collision loss"], &rows)
    );
    Output::new(&provenance, text)
}

/// Listening-window size at 4-bit identifiers, from no listening
/// through 16T.
fn ablation_listening(level: EffortLevel, shards: usize) -> Output {
    let provenance = ablations::listening_window(level, shards);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            let label = match p.window {
                0 => "0 (uniform)".to_string(),
                w => format!("{w} (≈{}T)", w / 5),
            };
            vec![label, f(p.observed.mean), f(p.observed.std_dev)]
        })
        .collect();
    let text = format!(
        "Ablation: listening window at 4-bit identifiers, T=5 ({} trials x {} s)\n\n{}",
        level.trials(),
        level.trial_secs(),
        table::render(&["window", "collision loss", "std_dev"], &rows)
    );
    Output::new(&provenance, text)
}

/// Two mutually inaudible senders around one receiver, against the
/// same load fully connected (the Section 3.2 limitation).
fn ablation_hidden(level: EffortLevel, shards: usize) -> Output {
    let provenance = ablations::hidden_terminal(level, shards);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            vec![
                p.geometry.to_string(),
                f(p.id_loss.mean),
                f(p.id_loss.std_dev),
                f(p.rf_collisions.mean),
            ]
        })
        .collect();
    let text = format!(
        "Ablation: hidden terminals, 2 senders + middle receiver, 2-bit ids, listening on\n\
         ({} trials x {} s)\n\n{}\n\
         Hidden senders defeat carrier sense (more RF collisions) and\n\
         listening (identifier collisions return toward the blind rate).\n",
        level.trials(),
        level.trial_secs(),
        table::render(
            &["geometry", "id-collision loss", "std_dev", "RF collisions"],
            &rows,
        )
    );
    Output::new(&provenance, text)
}

/// Mixed packet sizes against Eq. 4 and the mixed-length model.
fn ablation_lengths(level: EffortLevel, shards: usize) -> Output {
    let provenance = ablations::mixed_lengths(level, shards);
    let result = &provenance.cells[0].cell;
    let rows = vec![
        vec![
            "observed".to_string(),
            f(result.observed.mean),
            f(result.observed.std_dev),
        ],
        vec![
            "Eq. 4 (equal lengths)".to_string(),
            f(result.eq4_prediction),
            "-".to_string(),
        ],
        vec![
            "mixed-length model".to_string(),
            f(result.mixed_prediction),
            "-".to_string(),
        ],
    ];
    let text = format!(
        "Ablation: mixed packet sizes 20/20/80/80/200 B, 6-bit ids, T=5 ({} trials x {} s)\n\n{}\n\
         Both models count a collision as fatal for *both* parties; in the\n\
         implementation the newest introduction wins the reassembly buffer,\n\
         so a short packet that collides with a long in-flight one often\n\
         still completes. Mixed lengths therefore measure *below* the\n\
         equal-length prediction — structure the Section 4.1 caveat\n\
         anticipated but Eq. 4 cannot express.\n",
        level.trials(),
        level.trial_secs(),
        table::render(&["source", "collision rate", "std_dev"], &rows)
    );
    Output::new(&provenance, text)
}

/// One allocation protocol's overhead per churn rate.
fn churn_table(provenance: &Provenance<ablations::ChurnPoint>) -> String {
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            let churn = if p.churn_period_secs == u64::MAX {
                "none".to_string()
            } else {
                format!("every {} s", p.churn_period_secs)
            };
            vec![
                churn,
                p.control_bits.to_string(),
                p.data_bits.to_string(),
                f(p.overhead_ratio),
            ]
        })
        .collect();
    table::render(
        &["churn", "control bits", "data bits", "overhead/data"],
        &rows,
    )
}

/// Allocation overhead under churn, decentralized and centralized; the
/// document is an array of the two sweeps.
fn ablation_dynamic_addr(level: EffortLevel, shards: usize) -> Output {
    let dynamic = ablations::dynamic_churn(level, shards);
    let central = ablations::central_churn(level, shards);
    // AFF comparator: a 9-bit ephemeral identifier on a 16-bit reading.
    let text = format!(
        "Ablation: allocation overhead vs. churn, 8 nodes, 2-byte readings / 30 s\n\n\
         Decentralized listen/claim/defend (SDR/MASC style, Section 2.2):\n{}\n\
         Centralized controller (WINS style, Section 7):\n{}\n\
         AFF comparator (no allocation protocol at all): a 9-bit identifier\n\
         on a 16-bit reading costs a constant {} overhead per data bit,\n\
         independent of churn — and needs neither neighbors' cooperation\n\
         nor a controller that must never die.\n",
        churn_table(&dynamic),
        churn_table(&central),
        f(9.0 / 16.0)
    );
    Output::new(&vec![dynamic, central], text)
}

/// Per-cluster collision loss and static address bits as the network
/// grows at constant local density (Section 4.3).
fn ablation_scaling(level: EffortLevel, shards: usize) -> Output {
    let provenance = ablations::density_scaling(level, shards);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            vec![
                p.clusters.to_string(),
                p.total_nodes.to_string(),
                f(p.observed_loss.mean),
                f(p.observed_loss.std_dev),
                p.aff_bits.to_string(),
                p.static_bits_required.to_string(),
            ]
        })
        .collect();
    let text = format!(
        "Ablation: density scaling — growing the network at constant local density\n\
         ({} trials x {} s)\n\n{}\n\
         The AFF column is constant while the static requirement grows —\n\
         spatial reuse lets every cluster share one small identifier space.\n",
        level.trials(),
        level.trial_secs(),
        table::render(
            &[
                "clusters",
                "nodes",
                "per-cluster loss",
                "std_dev",
                "AFF bits",
                "static bits needed",
            ],
            &rows,
        )
    );
    Output::new(&provenance, text)
}

/// Section 3.2 collision notifications with one fresh-identifier
/// retransmission, on and off per identifier width.
fn ablation_notification(level: EffortLevel, shards: usize) -> Output {
    let provenance = ablations::notification(level, shards);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            vec![
                p.id_bits.to_string(),
                if p.notifications { "on" } else { "off" }.to_string(),
                f(p.delivery_ratio.mean),
                f(p.delivery_ratio.std_dev),
                p.retransmissions.to_string(),
                p.bits_per_trial.to_string(),
            ]
        })
        .collect();
    let text = format!(
        "Ablation: collision notifications + fresh-id retransmission, T=5\n\
         ({} trials x {} s per point)\n\n{}\n\
         Notifications recover deliveries where collisions are common\n\
         (narrow identifiers) and idle where they are rare — but every\n\
         fragment pays one extra kind bit, so at well-provisioned widths\n\
         the plain wire is strictly cheaper.\n",
        level.trials(),
        level.trial_secs(),
        table::render(
            &[
                "id_bits",
                "notify",
                "delivery ratio",
                "std_dev",
                "retransmits",
                "bits/trial",
            ],
            &rows,
        )
    );
    Output::new(&provenance, text)
}

/// Duty-cycled listeners: collisions climb from the perfect-listening
/// floor toward the blind Eq. 4 bound as the radios sleep more.
fn ablation_duty_cycle(level: EffortLevel, shards: usize) -> Output {
    let provenance = ablations::duty_cycle(level, shards);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            vec![
                format!("{:.0}%", p.radio_on * 100.0),
                f(p.observed.mean),
                f(p.observed.std_dev),
                f(p.listening_model),
                f(p.blind_bound),
            ]
        })
        .collect();
    let text = format!(
        "Ablation: duty-cycled listeners, 4-bit ids, T=5 ({} trials x {} s)\n\n{}\n\
         As the listening radio sleeps more, collisions climb from the\n\
         near-zero perfect-listening floor toward the blind Eq. 4 bound.\n",
        level.trials(),
        level.trial_secs(),
        table::render(
            &[
                "radio on",
                "observed",
                "std_dev",
                "listening model",
                "blind bound (Eq. 4)",
            ],
            &rows,
        )
    );
    Output::new(&provenance, text)
}

/// The duty-cycle sweep priced in joules: collision loss and measured
/// per-transmitter radio energy.
fn ablation_energy(level: EffortLevel, shards: usize) -> Output {
    let provenance = ablations::listening_energy(level, shards);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            vec![
                format!("{:.0}%", p.radio_on * 100.0),
                f(p.collision_loss.mean),
                f(p.collision_loss.std_dev),
                format!("{:.1}", p.energy_mj.mean),
            ]
        })
        .collect();
    let text = format!(
        "Ablation: energy cost of listening, 4-bit ids, T=5 ({} trials x {} s)\n\n{}\n\
         Sleeping the receiver saves idle-listening millijoules but buys\n\
         them back as identifier collisions — the Section 3.2 trade-off\n\
         priced in joules. Which side wins depends on the idle draw of the\n\
         radio and the value of a delivered packet.\n",
        level.trials(),
        level.trial_secs(),
        table::render(
            &[
                "radio on",
                "collision loss",
                "std_dev",
                "energy/sender (mJ)",
            ],
            &rows,
        )
    );
    Output::new(&provenance, text)
}

/// Identifier collisions under CSMA, ALOHA and slotted DFA at a paced
/// load: the MAC moves them only through concurrency.
fn ablation_mac(level: EffortLevel, shards: usize) -> Output {
    let provenance = ablations::mac_robustness(level, shards);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            vec![
                p.mac.to_string(),
                p.id_bits.to_string(),
                f(p.id_loss.mean),
                f(p.id_loss.std_dev),
                format!("{:.0}", p.delivered.mean),
            ]
        })
        .collect();
    let text = format!(
        "Ablation: MAC robustness, paced load (packet per 300 ms per sender), T=5\n\
         ({} trials x {} s per point)\n\n{}\n\
         ALOHA's RF losses slash deliveries, but the identifier-collision\n\
         rate among delivered packets stays in the same regime: the paper's\n\
         result is not an artifact of the MAC. Slotted DFA recovers most of\n\
         ALOHA's lost deliveries while stretching transactions across its\n\
         frames — concurrency rises, and id-loss climbs with it, exactly\n\
         the Eq. 4 dependence on T.\n",
        level.trials(),
        level.trial_secs(),
        table::render(
            &[
                "MAC",
                "id_bits",
                "id-collision loss",
                "std_dev",
                "delivered",
            ],
            &rows,
        )
    );
    Output::new(&provenance, text)
}

/// Eq. 4 along the density axis: 6-bit identifiers, 2–12 transmitters.
fn ablation_density(level: EffortLevel, shards: usize) -> Output {
    let provenance = ablations::density_sweep(level, shards);
    let rows: Vec<Vec<String>> = provenance
        .points()
        .map(|p| {
            vec![
                p.transmitters.to_string(),
                f(p.observed.mean),
                f(p.observed.std_dev),
                f(p.predicted),
            ]
        })
        .collect();
    let text = format!(
        "Ablation: collision rate vs. transaction density, 6-bit ids\n\
         ({} trials x {} s per point)\n\n{}\n\
         Together with Figure 4 (the H axis), this validates both model\n\
         parameters. The small systematic deviations are instructive: at\n\
         low T the measurement sits *below* Eq. 4, whose 2(T-1) overlap\n\
         count is explicitly a worst case; at high T it sits slightly\n\
         above, as collision debris (partial reassemblies pinning an\n\
         identifier) adds contention the instantaneous model cannot see.\n",
        level.trials(),
        level.trial_secs(),
        table::render(
            &["transmitters (T)", "observed", "std_dev", "model (Eq. 4)"],
            &rows,
        )
    );
    Output::new(&provenance, text)
}

/// The simulator against Eq. 2–4 cell by cell, then the paper testbed
/// under every fault scenario with its loss accounting.
fn fault_matrix(level: EffortLevel, shards: usize) -> Output {
    let report = differential::report(level, shards);
    let rows: Vec<Vec<String>> = report
        .differential
        .points()
        .map(|c| {
            vec![
                c.policy.clone(),
                c.id_bits.to_string(),
                c.transmitters.to_string(),
                c.packet_bytes.to_string(),
                f(c.observed),
                f(c.predicted),
                format!("[{}, {}]", f(c.wilson_low), f(c.wilson_high)),
                if c.policy == "listening" {
                    if c.beats_uniform_bound {
                        "beats"
                    } else {
                        "NO"
                    }
                } else if c.model_within_interval {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
                f(c.framing_observed),
                f(c.framing_predicted),
            ]
        })
        .collect();
    let sweep_table = table::render(
        &[
            "policy",
            "H",
            "T",
            "D",
            "observed",
            "Eq. 4",
            "99% Wilson",
            "verdict",
            "framing",
            "exact",
        ],
        &rows,
    );
    let rows: Vec<Vec<String>> = report
        .faults
        .points()
        .map(|c| {
            vec![
                c.scenario.clone(),
                f(c.delivery_ratio),
                c.decode_errors.to_string(),
                c.truth_crc_rejections.to_string(),
                c.checksum_failures.to_string(),
                c.identifier_conflicts.to_string(),
                c.corrupted_deliveries.to_string(),
                c.fault_erasures.to_string(),
                c.partition_losses.to_string(),
            ]
        })
        .collect();
    let fault_table = table::render(
        &[
            "scenario",
            "delivered",
            "parse err",
            "truth CRC",
            "aff CRC",
            "conflicts",
            "corrupted",
            "erased",
            "severed",
        ],
        &rows,
    );
    let text = format!(
        "Differential model check + fault matrix ({} trials x {} s per cell)\n\n{sweep_table}\n\
         Uniform cells: Eq. 4 must sit inside the Wilson interval.\n\
         Listening cells: the observed rate should instead *beat* the\n\
         uniform bound (Section 3.2).\n\n{fault_table}\n\
         Paper check: every injected fault lands in an accounting\n\
         column; the clean scenario shows zeros in all fault counters.\n",
        level.trials(),
        level.trial_secs(),
    );
    Output::new(&report, text)
}

/// Every selector family scored on correctness, security and
/// performance; a verdict the scorecard does not meet panics
/// ([`taxonomy::assert_verdicts`]).
fn selector_taxonomy(level: EffortLevel, shards: usize) -> Output {
    let scorecard = taxonomy::taxonomy_sweep(level, shards);
    let rows: Vec<Vec<String>> = scorecard
        .points()
        .map(|s| {
            vec![
                s.policy.clone(),
                f(s.observed),
                f(s.predicted),
                if s.policy == "uniform" {
                    if s.eq4_within_interval { "yes" } else { "NO" }.to_string()
                } else {
                    "n/a".to_string()
                },
                f(s.clean_loss_rate),
                f(s.attacked_loss_rate),
                format!(
                    "[{}, {}]",
                    f(s.attacked_wilson_low),
                    f(s.attacked_wilson_high)
                ),
                if s.uplift_significant { "UPLIFT" } else { "no" }.to_string(),
                s.self_collisions_in_window.to_string(),
                // Wall-clock, so measured outside the provenance
                // document (which must stay byte-deterministic).
                format!("{:.0}", taxonomy::select_cost_ns(&s.policy)),
                f(s.efficiency_observed),
            ]
        })
        .collect();
    taxonomy::assert_verdicts(scorecard.points());
    let text = format!(
        "Selector taxonomy ({} trials x {} s per cell, 5 policies x 3 cells)\n\n{}\n\
         Correctness: uniform must contain Eq. 4 in its Wilson interval.\n\
         Security: only the sequential row should show UPLIFT — the\n\
         eavesdropper predicts counters, not keyed or random draws.\n\
         Structure: repeats counts re-drawn ids over one full window\n\
         (a permutation must show 0; memoryless draws pile up).\n\n\
         All scorecard verdicts hold.\n",
        level.trials(),
        level.trial_secs(),
        table::render(
            &[
                "policy",
                "observed",
                "Eq. 4",
                "in CI",
                "clean loss",
                "atk loss",
                "atk 99% Wilson",
                "uplift",
                "repeats",
                "ns/draw",
                "E",
            ],
            &rows,
        )
    );
    Output::new(&scorecard, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_runs_everything_or_the_one_named() {
        assert_eq!(select(None).len(), EXPERIMENTS.len());
        let only = select(Some("ablation_density"));
        assert_eq!(only.len(), 1);
        assert_eq!(only[0].name, "ablation_density");
    }

    #[test]
    #[should_panic(expected = "unknown experiment `fig5`; the registry has: fig1, fig2, fig3")]
    fn unknown_names_are_rejected_with_the_registry_listed() {
        let _ = select(Some("fig5"));
    }
}
