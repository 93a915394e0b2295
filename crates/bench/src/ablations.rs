//! Ablation studies for the design choices called out in DESIGN.md.
//!
//! Every study runs through `harness::run_cells`: cells are the sweep
//! points in definition order, trials fan out across OS threads, and
//! seeds come from `harness::trial_seed` under the experiment id named
//! in each function's documentation. Each study returns a [`Provenance`]
//! document carrying both the results and the seeds that produced them.
//!
//! Every AFF study runs on [`Testbed`], the one place an AFF network is
//! built: the paper's fully connected mesh, or a [`Testbed::layout`]
//! for the hidden-terminal, mixed-length and scaling geometries. The
//! allocation-churn studies run the baselines' protocols on a full mesh
//! of their own.

use retri_aff::sender::WorkloadMode;
use retri_aff::{AffNode, NodeSpec, Role, SelectorPolicy, Testbed, WireConfig};
use retri_baselines::{full_mesh, static_alloc, DynamicAddrConfig, DynamicAddrNode};
use retri_model::lengths::{DurationClass, MixedLengthModel};
use retri_model::listening::ListeningModel;
use retri_model::stats::Summary;
use retri_model::{p_collision, Density, IdBits};
use retri_netsim::prelude::*;
use retri_netsim::topology::Topology;

use crate::harness::{self, Provenance};
use crate::EffortLevel;

fn receiver_loss(sim: &ShardedSim<AffNode>, receiver: NodeId) -> f64 {
    sim.protocol(receiver)
        .as_receiver()
        .expect("node is the receiver")
        .collision_loss_rate()
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// Ablation 1: listening-window size
// ---------------------------------------------------------------------

/// One window size's measured collision rate.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct WindowPoint {
    /// Avoidance window, in observations (0 = uniform selection).
    pub window: usize,
    /// Observed collision rates across trials.
    pub observed: Summary,
}

/// Sweeps the listening window at a fixed marginal identifier width
/// (4 bits, where T = 5 makes collisions common).
///
/// Experiment id: `ablation_listening`.
#[must_use]
pub(crate) fn listening_window(level: EffortLevel, shards: usize) -> Provenance<WindowPoint> {
    let windows = [0usize, 5, 10, 20, 80];
    let runs = harness::run_cells("ablation_listening", level, &windows, |&window, trial| {
        let policy = if window == 0 {
            SelectorPolicy::Uniform
        } else {
            SelectorPolicy::Listening { window }
        };
        let mut testbed = Testbed::paper(4, policy);
        testbed.shards = shards;
        testbed.workload.stop = SimTime::from_secs(level.trial_secs());
        testbed.run(trial.seed).collision_loss_rate
    });
    let mut provenance = Provenance::new("ablation_listening", level);
    for (&window, cell_runs) in windows.iter().zip(runs) {
        let observed = cell_runs.summarize(|&rate| rate);
        provenance.push_cell(cell_runs.seeds, WindowPoint { window, observed });
    }
    provenance.with_run_metrics()
}

// ---------------------------------------------------------------------
// Ablation 2: hidden terminals
// ---------------------------------------------------------------------

/// One geometry's losses in the hidden-terminal study.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct GeometryPoint {
    /// Geometry label ("fully connected" / "hidden terminals").
    pub geometry: &'static str,
    /// Identifier-collision loss at the middle receiver.
    pub id_loss: Summary,
    /// RF-collision counts (medium level).
    pub rf_collisions: Summary,
}

/// Two senders, one receiver, a *paced* workload (one 40-byte packet
/// every ~100 ms) so the channel is loaded but not saturated. In the
/// connected geometry carrier sense avoids RF collisions and listening
/// avoids identifier collisions; hidden terminals defeat both — RF
/// collisions rise and identifier collisions return toward the blind
/// rate, the limitation the paper concedes in Section 3.2.
///
/// Experiment id: `ablation_hidden`. Cell 0 is the connected geometry,
/// cell 1 the hidden one.
#[must_use]
pub fn hidden_terminal(level: EffortLevel, shards: usize) -> Provenance<GeometryPoint> {
    let cells = hidden_terminal_cells(level, shards);
    let runs = harness::run_cells("ablation_hidden", level, &cells, |(_, testbed), trial| {
        let result = testbed.run(trial.seed);
        (
            result.collision_loss_rate,
            result.medium.rf_collisions as f64,
        )
    });
    let mut provenance = Provenance::new("ablation_hidden", level);
    for ((geometry, _), cell_runs) in cells.into_iter().zip(runs) {
        let id_loss = cell_runs.summarize(|&(loss, _)| loss);
        let rf_collisions = cell_runs.summarize(|&(_, rf)| rf);
        provenance.push_cell(
            cell_runs.seeds,
            GeometryPoint {
                geometry,
                id_loss,
                rf_collisions,
            },
        );
    }
    provenance.with_run_metrics()
}

/// The hidden-terminal study's two testbeds: one sender on each side of
/// the receiver (node 1), 30 m out or 90 m out.
fn hidden_terminal_cells(level: EffortLevel, shards: usize) -> [(&'static str, Testbed); 2] {
    let sender = |x: f64| NodeSpec {
        position: Position::new(x, 0.0),
        role: Role::Sender { packet_bytes: 40 },
    };
    let receiver = NodeSpec {
        position: Position::new(0.0, 0.0),
        role: Role::Receiver,
    };
    // A narrow space so identifier collisions are visible.
    let mut testbed = Testbed::paper(2, SelectorPolicy::Listening { window: 8 });
    testbed.shards = shards;
    testbed.workload.stop = SimTime::from_secs(level.trial_secs());
    testbed.workload.mode = WorkloadMode::Periodic {
        period: SimDuration::from_millis(100),
    };
    let geometry = |outer: f64| Testbed {
        layout: Some(vec![sender(-outer), receiver, sender(outer)]),
        ..testbed.clone()
    };
    [
        ("fully connected", geometry(30.0)),
        ("hidden terminals", geometry(90.0)),
    ]
}

// ---------------------------------------------------------------------
// Ablation 3: non-uniform transaction lengths
// ---------------------------------------------------------------------

/// Measured vs. modeled collision rates under mixed packet sizes.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MixedLengthResult {
    /// Observed aggregate collision rate.
    pub observed: Summary,
    /// The equal-length Eq. 4 prediction at the same density.
    pub eq4_prediction: f64,
    /// The mixed-length extension's prediction.
    pub mixed_prediction: f64,
}

/// Five senders with packet sizes 20/20/80/80/200 bytes (short flows
/// competing with a long one — the Section 4.1 caveat), 6-bit
/// identifiers.
///
/// Experiment id: `ablation_lengths` (a single cell).
///
/// # Panics
///
/// Panics if the simulation produces no transactions (cannot happen at
/// the configured workloads).
#[must_use]
pub fn mixed_lengths(level: EffortLevel, shards: usize) -> Provenance<MixedLengthResult> {
    let id_bits = 6u8;
    let sizes = [20usize, 20, 80, 80, 200];
    let mesh = Topology::full_mesh(sizes.len() + 1, 100.0);
    let layout = mesh
        .node_ids()
        .map(|id| NodeSpec {
            position: mesh.position(id),
            role: match sizes.get(id.index()) {
                Some(&packet_bytes) => Role::Sender { packet_bytes },
                None => Role::Receiver,
            },
        })
        .collect();
    let receiver = NodeId(sizes.len() as u32);
    let mut testbed = Testbed::paper(id_bits, SelectorPolicy::Uniform);
    testbed.shards = shards;
    testbed.workload.stop = SimTime::from_secs(level.trial_secs());
    testbed.layout = Some(layout);

    let cells = [testbed];
    let runs = harness::run_cells("ablation_lengths", level, &cells, |testbed, trial| {
        let sim = testbed.simulate(trial.seed);
        let offered: Vec<f64> = (0..sizes.len())
            .map(|i| {
                sim.protocol(NodeId(i as u32))
                    .as_sender()
                    .expect("sender node")
                    .stats()
                    .packets_sent as f64
            })
            .collect();
        (receiver_loss(&sim, receiver), offered)
    });
    let cell_runs = runs.into_iter().next().expect("one cell");
    let observed = cell_runs.summarize(|(rate, _)| *rate);
    let mut offered_per_size = vec![0.0f64; sizes.len()];
    for (_, offered) in &cell_runs.values {
        for (total, count) in offered_per_size.iter_mut().zip(offered) {
            *total += *count;
        }
    }

    // Duration of a transaction is proportional to its fragment count;
    // class weights are the measured shares of offered transactions.
    let wire = WireConfig::aff(retri::IdentifierSpace::new(id_bits).expect("valid"));
    let fragmenter = retri_aff::Fragmenter::new(wire, 27).expect("fits the radio");
    let classes: Vec<DurationClass> = sizes
        .iter()
        .zip(&offered_per_size)
        .map(|(&bytes, &count)| DurationClass {
            weight: count.max(1e-9),
            duration: fragmenter.fragments_per_packet(bytes) as f64,
        })
        .collect();
    let mixed_model = MixedLengthModel::new(classes).expect("valid distribution");
    let h = IdBits::new(id_bits).expect("valid width");
    let t = Density::new(sizes.len() as u64).expect("positive");
    let mut provenance = Provenance::new("ablation_lengths", level);
    provenance.push_cell(
        cell_runs.seeds,
        MixedLengthResult {
            observed,
            eq4_prediction: p_collision(h, t),
            mixed_prediction: mixed_model.p_collision(h, t),
        },
    );
    provenance.with_run_metrics()
}

// ---------------------------------------------------------------------
// Ablation 4: dynamic local allocation under churn
// ---------------------------------------------------------------------

/// One churn rate's overhead accounting.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct ChurnPoint {
    /// Mean time between one node's death-rebirth cycles, seconds
    /// (`u64::MAX` encodes "no churn").
    pub churn_period_secs: u64,
    /// Allocation-protocol bits per node over the run.
    pub control_bits: u64,
    /// Application data bits per node over the run.
    pub data_bits: u64,
    /// Control overhead per data bit.
    pub overhead_ratio: f64,
}

fn churn_point(churn: Option<u64>, control: u64, data: u64) -> ChurnPoint {
    ChurnPoint {
        churn_period_secs: churn.unwrap_or(u64::MAX),
        control_bits: control,
        data_bits: data,
        overhead_ratio: if data == 0 {
            f64::INFINITY
        } else {
            control as f64 / data as f64
        },
    }
}

/// The churn periods both allocation studies sweep.
const CHURN_PERIODS: [Option<u64>; 4] = [None, Some(120), Some(60), Some(30)];

/// Nodes in both allocation studies' full mesh.
const CHURN_NODES: usize = 8;

/// Runs an allocation protocol on a [`full_mesh`] of [`CHURN_NODES`] on
/// `shards` spatial shards for `run_secs` and returns the network's
/// `(control, data)` bits sent. Under a churn period, nodes
/// `first_victim..CHURN_NODES` take turns at 5 s outages, the first at
/// `period` seconds and the next every `period / CHURN_NODES + 1`
/// seconds after.
fn churned_bits<P, F>(
    seed: u64,
    shards: usize,
    first_victim: u32,
    churn: Option<u64>,
    run_secs: u64,
    factory: F,
    bits: impl Fn(&P) -> (u64, u64),
) -> (u64, u64)
where
    P: Protocol + Send,
    F: FnMut(NodeId) -> P + 'static,
{
    let mut sim = full_mesh(CHURN_NODES, seed, shards, factory);
    if let Some(period) = churn {
        let mut at = period;
        let mut victim = first_victim;
        while at + 5 < run_secs {
            sim.schedule_set_alive(SimTime::from_secs(at), NodeId(victim), false);
            sim.schedule_set_alive(SimTime::from_secs(at + 5), NodeId(victim), true);
            victim = if victim + 1 == CHURN_NODES as u32 {
                first_victim
            } else {
                victim + 1
            };
            at += period / CHURN_NODES as u64 + 1;
        }
    }
    sim.run_until(SimTime::from_secs(run_secs));
    sim.node_ids().fold((0, 0), |(control, data), id| {
        let (c, d) = bits(sim.protocol(id));
        (control + c, data + d)
    })
}

/// Sweeps churn for an 8-node mesh running the dynamic local-address
/// allocation protocol with the paper's low-rate sensor workload.
///
/// The comparison number for AFF is analytic and constant: an H-bit
/// ephemeral identifier on D data bits costs exactly `H / D` overhead
/// per data bit, churn or no churn — re-derived by the caller from the
/// model. The dynamic protocol's overhead grows with churn, which is
/// the paper's Section 2.3 argument.
///
/// Experiment id: `ablation_dynamic_addr`. The overhead accounting is a
/// long deterministic run per churn rate, so each cell runs one trial
/// regardless of effort.
#[must_use]
pub(crate) fn dynamic_churn(level: EffortLevel, shards: usize) -> Provenance<ChurnPoint> {
    let run_secs = (level.trial_secs() * 10).max(120);
    let runs = harness::run_trials(
        "ablation_dynamic_addr",
        1,
        &CHURN_PERIODS,
        |&churn, trial| {
            let config = DynamicAddrConfig::default();
            churned_bits(
                trial.seed,
                shards,
                0,
                churn,
                run_secs,
                move |_| DynamicAddrNode::new(config),
                |node: &DynamicAddrNode| {
                    let stats = node.stats();
                    (stats.control_bits_sent, stats.data_bits_sent)
                },
            )
        },
    );
    let mut provenance = Provenance::new("ablation_dynamic_addr", level);
    provenance.trials_per_cell = 1;
    for (&churn, cell_runs) in CHURN_PERIODS.iter().zip(runs) {
        let (control, data) = cell_runs.values[0];
        provenance.push_cell(cell_runs.seeds, churn_point(churn, control, data));
    }
    provenance.with_run_metrics()
}

/// The centralized (WINS-style) comparator at the same churn levels:
/// a controller (node 0, never churned — losing it is the
/// single-point-of-failure experiment, shown separately) assigns
/// addresses to 7 clients on request.
///
/// Experiment id: `ablation_central_addr`; one trial per cell, like
/// [`dynamic_churn`].
#[must_use]
pub(crate) fn central_churn(level: EffortLevel, shards: usize) -> Provenance<ChurnPoint> {
    use retri_baselines::{CentralAllocConfig, CentralAllocNode};
    let run_secs = (level.trial_secs() * 10).max(120);
    let runs = harness::run_trials(
        "ablation_central_addr",
        1,
        &CHURN_PERIODS,
        |&churn, trial| {
            let config = CentralAllocConfig::default();
            churned_bits(
                trial.seed,
                shards,
                1,
                churn,
                run_secs,
                move |id: NodeId| {
                    if id.index() == 0 {
                        CentralAllocNode::controller(config)
                    } else {
                        CentralAllocNode::client(config)
                    }
                },
                |node: &CentralAllocNode| {
                    let stats = node.stats();
                    (stats.control_bits_sent, stats.data_bits_sent)
                },
            )
        },
    );
    let mut provenance = Provenance::new("ablation_central_addr", level);
    provenance.trials_per_cell = 1;
    for (&churn, cell_runs) in CHURN_PERIODS.iter().zip(runs) {
        let (control, data) = cell_runs.values[0];
        provenance.push_cell(cell_runs.seeds, churn_point(churn, control, data));
    }
    provenance.with_run_metrics()
}

// ---------------------------------------------------------------------
// Ablation 5: density scaling
// ---------------------------------------------------------------------

/// One network size's scaling comparison.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct ScalingPoint {
    /// Independent clusters in the network.
    pub clusters: usize,
    /// Total nodes in the network.
    pub total_nodes: usize,
    /// Mean identifier-collision loss across cluster receivers
    /// (constant: density does not grow with the network).
    pub observed_loss: Summary,
    /// Address bits a globally unique static allocation needs at this
    /// size (grows with the network).
    pub static_bits_required: u8,
    /// The AFF identifier width in use (constant).
    pub aff_bits: u8,
}

/// Grows a network by adding far-apart clusters of 3 senders + 1
/// receiver. Every cluster reuses the same 6-bit identifier space; the
/// per-cluster collision rate stays flat while the static address
/// requirement grows logarithmically with the node count — the paper's
/// central scaling claim (Section 4.3).
///
/// Experiment id: `ablation_scaling`.
#[must_use]
pub(crate) fn density_scaling(level: EffortLevel, shards: usize) -> Provenance<ScalingPoint> {
    let aff_bits = 6u8;
    let mut testbed = Testbed::paper(aff_bits, SelectorPolicy::Uniform);
    testbed.shards = shards;
    testbed.workload.stop = SimTime::from_secs(level.trial_secs());
    let cells: Vec<(usize, Testbed, Vec<NodeId>)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&clusters| {
            let mut layout = Vec::new();
            let mut receivers = Vec::new();
            for c in 0..clusters {
                // Clusters 10 km apart: mutually silent.
                let base = c as f64 * 10_000.0;
                let cluster_topo = Topology::full_mesh(4, 100.0);
                for i in 0..3u32 {
                    let p = cluster_topo.position(NodeId(i));
                    layout.push(NodeSpec {
                        position: Position::new(base + p.x, p.y),
                        role: Role::Sender { packet_bytes: 80 },
                    });
                }
                let p = cluster_topo.position(NodeId(3));
                receivers.push(NodeId(layout.len() as u32));
                layout.push(NodeSpec {
                    position: Position::new(base + p.x, p.y),
                    role: Role::Receiver,
                });
            }
            let testbed = Testbed {
                layout: Some(layout),
                ..testbed.clone()
            };
            (clusters, testbed, receivers)
        })
        .collect();
    let runs = harness::run_cells(
        "ablation_scaling",
        level,
        &cells,
        |(_, testbed, receivers), trial| {
            let sim = testbed.simulate(trial.seed);
            receivers
                .iter()
                .map(|&r| receiver_loss(&sim, r))
                .collect::<Vec<f64>>()
        },
    );
    let mut provenance = Provenance::new("ablation_scaling", level);
    for (&(clusters, ..), cell_runs) in cells.iter().zip(runs) {
        let losses: Vec<f64> = cell_runs.values.iter().flatten().copied().collect();
        // Each cluster is three senders and its receiver.
        let total_nodes = 4 * clusters;
        provenance.push_cell(
            cell_runs.seeds,
            ScalingPoint {
                clusters,
                total_nodes,
                observed_loss: Summary::of(&losses),
                static_bits_required: static_alloc::bits_required(total_nodes as u64),
                aff_bits,
            },
        );
    }
    provenance.with_run_metrics()
}

// ---------------------------------------------------------------------
// Ablation 6: MAC robustness
// ---------------------------------------------------------------------

/// One (MAC, width) cell of the MAC-robustness study.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct MacPoint {
    /// MAC label ("CSMA" / "ALOHA" / "DFA").
    pub mac: &'static str,
    /// Identifier width.
    pub id_bits: u8,
    /// Identifier-collision loss among delivered packets.
    pub id_loss: Summary,
    /// Ground-truth packets delivered per trial (shows the MAC's RF
    /// cost).
    pub delivered: Summary,
}

/// Runs the testbed under CSMA, pure ALOHA, and slotted Dynamic-Frame
/// Aloha at a paced (60% duty) load. The claim under test: identifier
/// collisions are a property of identifier selection and *concurrency*,
/// not of the MAC mechanism itself. CSMA and ALOHA agree on id-loss
/// while differing wildly in deliveries. DFA (8 ms slots covering the
/// 6.6 ms fragment airtime, frames sized to the five transmitters) is
/// the instructive third column: it delivers far more than ALOHA, but
/// pacing every fragment onto the slot grid stretches each transaction
/// across several frames, so more transactions overlap — and the
/// id-loss column rises exactly as Eq. 4 predicts for a larger
/// effective T. The MAC moves id-loss only through concurrency, which
/// is the paper's claim restated. The DFA cells are appended after the
/// original six so the per-cell seed derivation — and therefore the
/// committed golden capture of those cells — is unchanged.
///
/// Experiment id: `ablation_mac`.
#[must_use]
pub(crate) fn mac_robustness(level: EffortLevel, shards: usize) -> Provenance<MacPoint> {
    let mut cells = Vec::new();
    for (label, mac) in [
        ("CSMA", MacConfig::csma()),
        ("ALOHA", MacConfig::aloha()),
        ("DFA", MacConfig::dfa_known(SimDuration::from_millis(8), 5)),
    ] {
        for bits in [3u8, 4, 6] {
            cells.push((label, mac, bits));
        }
    }
    let runs = harness::run_cells("ablation_mac", level, &cells, |&(_, mac, bits), trial| {
        let mut testbed = Testbed::paper(bits, SelectorPolicy::Uniform);
        testbed.shards = shards;
        testbed.mac = mac;
        // Paced load: each sender offers a packet every 300 ms
        // (~35 ms of airtime each, 5 senders ≈ 60% channel duty).
        testbed.workload.mode = WorkloadMode::Periodic {
            period: SimDuration::from_millis(300),
        };
        testbed.workload.stop = SimTime::from_secs(level.trial_secs());
        let result = testbed.run(trial.seed);
        (result.collision_loss_rate, result.truth_delivered as f64)
    });
    let mut provenance = Provenance::new("ablation_mac", level);
    for (&(label, _, bits), cell_runs) in cells.iter().zip(runs) {
        let id_loss = cell_runs.summarize(|&(loss, _)| loss);
        let delivered = cell_runs.summarize(|&(_, delivered)| delivered);
        provenance.push_cell(
            cell_runs.seeds,
            MacPoint {
                mac: label,
                id_bits: bits,
                id_loss,
                delivered,
            },
        );
    }
    provenance.with_run_metrics()
}

// ---------------------------------------------------------------------
// Ablation 7: Eq. 4 along the density axis
// ---------------------------------------------------------------------

/// One transmitter count's observed vs. predicted collision rate.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct DensityPoint {
    /// Concurrent transmitters (the model's T).
    pub transmitters: usize,
    /// Observed collision rates across trials.
    pub observed: Summary,
    /// The Eq. 4 prediction at this density.
    pub predicted: f64,
}

/// Figure 4 sweeps the identifier width at fixed density (T = 5); this
/// study sweeps the *density* at fixed width (6 bits), adding
/// transmitters to the fully connected testbed. Eq. 4's exponent
/// `2(T-1)` predicts how the collision rate grows with contention.
///
/// Experiment id: `ablation_density`.
#[must_use]
pub(crate) fn density_sweep(level: EffortLevel, shards: usize) -> Provenance<DensityPoint> {
    let id_bits = 6u8;
    let h = IdBits::new(id_bits).expect("valid width");
    let cells = [2usize, 3, 5, 8, 12];
    let runs = harness::run_cells("ablation_density", level, &cells, |&transmitters, trial| {
        let mut testbed = Testbed::paper(id_bits, SelectorPolicy::Uniform);
        testbed.shards = shards;
        testbed.transmitters = transmitters;
        testbed.workload.stop = SimTime::from_secs(level.trial_secs());
        testbed.run(trial.seed).collision_loss_rate
    });
    let mut provenance = Provenance::new("ablation_density", level);
    for (&transmitters, cell_runs) in cells.iter().zip(runs) {
        let observed = cell_runs.summarize(|&rate| rate);
        provenance.push_cell(
            cell_runs.seeds,
            DensityPoint {
                transmitters,
                observed,
                predicted: p_collision(h, Density::new(transmitters as u64).expect("nonzero")),
            },
        );
    }
    provenance.with_run_metrics()
}

// ---------------------------------------------------------------------
// Ablation 8: duty-cycled listeners
// ---------------------------------------------------------------------

/// One duty-cycle setting's measured and modeled collision rates.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DutyCyclePoint {
    /// Fraction of time the listening radio is on.
    pub radio_on: f64,
    /// Observed collision rates across trials.
    pub observed: Summary,
    /// This repository's listening-model prediction at the
    /// corresponding hear probability.
    pub listening_model: f64,
    /// The blind Eq. 4 bound.
    pub blind_bound: f64,
}

/// Five transmitters run the listening policy while their receivers
/// duty-cycle from always-on down to 5%: as the radios sleep more, the
/// avoidance window starves and the collision rate climbs from the
/// perfect-listening floor back toward the blind Eq. 4 bound
/// (Section 3.2's power argument).
///
/// Experiment id: `ablation_duty_cycle`.
#[must_use]
pub fn duty_cycle(level: EffortLevel, shards: usize) -> Provenance<DutyCyclePoint> {
    let id_bits = 4u8;
    let h = IdBits::new(id_bits).expect("valid width");
    let t = Density::new(5).expect("five transmitters");
    let cells = [1.0f64, 0.5, 0.25, 0.1, 0.05];
    let runs = harness::run_cells(
        "ablation_duty_cycle",
        level,
        &cells,
        |&on_fraction, trial| {
            let mut testbed = Testbed::paper(id_bits, SelectorPolicy::Listening { window: 10 });
            testbed.shards = shards;
            testbed.workload.stop = SimTime::from_secs(level.trial_secs());
            if on_fraction < 1.0 {
                testbed.sender_duty = Some((SimDuration::from_millis(200), on_fraction));
            }
            testbed.run(trial.seed).collision_loss_rate
        },
    );
    let mut provenance = Provenance::new("ablation_duty_cycle", level);
    for (&on_fraction, cell_runs) in cells.iter().zip(runs) {
        let observed = cell_runs.summarize(|&rate| rate);
        // A fragment-level hearing chance of `on_fraction` gives a
        // per-transaction hear probability of roughly 1-(1-d)^5 with
        // five fragments per packet; and a starved listener's avoidance
        // window only holds the identifiers it actually heard, so the
        // effective window shrinks with the same probability.
        let hear = 1.0 - (1.0 - on_fraction).powi(5);
        let window = (10.0 * hear).round() as u64;
        let model = ListeningModel::new(hear, window)
            .expect("valid probability")
            .p_success(h, t);
        provenance.push_cell(
            cell_runs.seeds,
            DutyCyclePoint {
                radio_on: on_fraction,
                observed,
                listening_model: 1.0 - model,
                blind_bound: p_collision(h, t),
            },
        );
    }
    provenance.with_run_metrics()
}

// ---------------------------------------------------------------------
// Ablation 9: the listening-energy trade-off
// ---------------------------------------------------------------------

/// One duty-cycle setting's collision loss and measured radio energy.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct EnergyPoint {
    /// Fraction of time the listening radio is on.
    pub radio_on: f64,
    /// Observed collision loss across trials.
    pub collision_loss: Summary,
    /// Per-transmitter radio energy across trials, millijoules.
    pub energy_mj: Summary,
}

/// Prices both sides of the Section 3.2 listening trade: the same
/// duty-cycle sweep as [`duty_cycle`], reporting the measured collision
/// loss *and* the measured per-transmitter radio energy (transmit +
/// receive + idle listening).
///
/// Experiment id: `ablation_energy`.
#[must_use]
pub(crate) fn listening_energy(level: EffortLevel, shards: usize) -> Provenance<EnergyPoint> {
    let cells = [1.0f64, 0.5, 0.25, 0.1, 0.05];
    let runs = harness::run_cells("ablation_energy", level, &cells, |&on_fraction, trial| {
        let mut testbed = Testbed::paper(4, SelectorPolicy::Listening { window: 10 });
        testbed.shards = shards;
        testbed.workload.stop = SimTime::from_secs(level.trial_secs());
        if on_fraction < 1.0 {
            testbed.sender_duty = Some((SimDuration::from_millis(200), on_fraction));
        }
        let result = testbed.run(trial.seed);
        (
            result.collision_loss_rate,
            result.mean_sender_energy_nj / 1e6,
        )
    });
    let mut provenance = Provenance::new("ablation_energy", level);
    for (&on_fraction, cell_runs) in cells.iter().zip(runs) {
        let collision_loss = cell_runs.summarize(|&(loss, _)| loss);
        let energy_mj = cell_runs.summarize(|&(_, mj)| mj);
        provenance.push_cell(
            cell_runs.seeds,
            EnergyPoint {
                radio_on: on_fraction,
                collision_loss,
                energy_mj,
            },
        );
    }
    provenance.with_run_metrics()
}

// ---------------------------------------------------------------------
// Ablation 10: collision notifications
// ---------------------------------------------------------------------

/// One (width, notifications) cell of the notification study.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct NotificationPoint {
    /// Identifier width under test.
    pub id_bits: u8,
    /// Whether collision notifications were enabled.
    pub notifications: bool,
    /// Ground-truth delivery ratio across trials.
    pub delivery_ratio: Summary,
    /// Total retransmissions across all trials.
    pub retransmissions: u64,
    /// Mean bits on air per trial.
    pub bits_per_trial: u64,
}

/// Enables the paper's Section 3.2 "identifier collision notification":
/// the receiver broadcasts a notification when two introductions (or an
/// out-of-bounds fragment) expose a conflict, and senders retransmit
/// the collided packet once under a fresh identifier.
///
/// Experiment id: `ablation_notification`.
#[must_use]
pub fn notification(level: EffortLevel, shards: usize) -> Provenance<NotificationPoint> {
    let mut cells = Vec::new();
    for bits in [2u8, 3, 4, 5, 6, 8] {
        for notifications in [false, true] {
            cells.push((bits, notifications));
        }
    }
    let runs = harness::run_cells(
        "ablation_notification",
        level,
        &cells,
        |&(bits, notifications), trial| {
            let mut testbed = Testbed::paper(bits, SelectorPolicy::Uniform);
            testbed.shards = shards;
            if notifications {
                testbed = testbed.with_notifications();
            }
            testbed.workload.stop = SimTime::from_secs(level.trial_secs());
            let result = testbed.run(trial.seed);
            (
                result.delivery_ratio(),
                result.retransmissions,
                result.total_bits_sent,
            )
        },
    );
    let mut provenance = Provenance::new("ablation_notification", level);
    for (&(bits, notifications), cell_runs) in cells.iter().zip(runs) {
        let delivery_ratio = cell_runs.summarize(|&(ratio, _, _)| ratio);
        let retransmissions = cell_runs.values.iter().map(|&(_, r, _)| r).sum();
        let total_bits: u64 = cell_runs.values.iter().map(|&(_, _, b)| b).sum();
        provenance.push_cell(
            cell_runs.seeds,
            NotificationPoint {
                id_bits: bits,
                notifications,
                delivery_ratio,
                retransmissions,
                bits_per_trial: total_bits / level.trials(),
            },
        );
    }
    provenance.with_run_metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_window_monotone_improvement() {
        let provenance = listening_window(EffortLevel::Quick, 1);
        let points: Vec<&WindowPoint> = provenance.points().collect();
        assert_eq!(points.len(), 5);
        let blind = points[0];
        let widest = points.last().unwrap();
        assert!(widest.observed.mean < blind.observed.mean);
    }

    #[test]
    fn hidden_terminals_hurt() {
        let result = hidden_terminal(EffortLevel::Quick, 1);
        let connected = &result.cells[0].cell;
        let hidden = &result.cells[1].cell;
        assert!(
            hidden.rf_collisions.mean > connected.rf_collisions.mean,
            "hidden geometry must produce more RF collisions: {result:?}"
        );
        assert!(
            hidden.id_loss.mean >= connected.id_loss.mean,
            "listening cannot work across hidden terminals: {result:?}"
        );
    }

    #[test]
    fn hidden_terminal_trials_read_the_middle_receiver() {
        // `Testbed::run` finds the layout's receiver itself; it must be
        // the node the geometry puts in the middle.
        for (geometry, testbed) in hidden_terminal_cells(EffortLevel::Quick, 1) {
            let result = testbed.run(3);
            let sim = testbed.simulate(3);
            assert_eq!(
                result.collision_loss_rate,
                receiver_loss(&sim, NodeId(1)),
                "{geometry}"
            );
            assert_eq!(
                result.medium.rf_collisions,
                sim.stats().rf_collisions,
                "{geometry}"
            );
        }
    }

    #[test]
    fn mixed_lengths_predictions_are_finite() {
        let provenance = mixed_lengths(EffortLevel::Quick, 1);
        let result = &provenance.cells[0].cell;
        assert!(result.observed.mean >= 0.0 && result.observed.mean <= 1.0);
        assert!(result.eq4_prediction > 0.0);
        assert!(result.mixed_prediction > 0.0);
        assert!(
            (result.mixed_prediction - result.eq4_prediction).abs() > 1e-6,
            "the mixed model must differ from the equal-length assumption"
        );
    }

    #[test]
    fn churn_increases_overhead() {
        let provenance = dynamic_churn(EffortLevel::Quick, 1);
        let points: Vec<&ChurnPoint> = provenance.points().collect();
        let stable = points[0];
        let churned = points.last().unwrap();
        assert!(
            churned.overhead_ratio > stable.overhead_ratio,
            "churn must raise allocation overhead: {points:?}"
        );
    }

    #[test]
    fn mac_choice_does_not_create_or_hide_id_collisions() {
        let provenance = mac_robustness(EffortLevel::Quick, 1);
        let points: Vec<&MacPoint> = provenance.points().collect();
        for bits in [3u8, 4, 6] {
            let csma = points
                .iter()
                .find(|p| p.mac == "CSMA" && p.id_bits == bits)
                .unwrap();
            let aloha = points
                .iter()
                .find(|p| p.mac == "ALOHA" && p.id_bits == bits)
                .unwrap();
            // ALOHA delivers (far) fewer packets...
            assert!(aloha.delivered.mean < csma.delivered.mean);
            // ...but the identifier-collision rate among what does get
            // through stays in the same regime (within 0.15 absolute at
            // Quick effort).
            assert!(
                (aloha.id_loss.mean - csma.id_loss.mean).abs() < 0.15,
                "H={bits}: ALOHA {:?} vs CSMA {:?}",
                aloha.id_loss,
                csma.id_loss
            );
            // The DFA column: slotted pacing recovers most of ALOHA's
            // lost deliveries...
            let dfa = points
                .iter()
                .find(|p| p.mac == "DFA" && p.id_bits == bits)
                .unwrap();
            assert!(
                dfa.delivered.mean > aloha.delivered.mean,
                "H={bits}: DFA {:?} vs ALOHA {:?}",
                dfa.delivered,
                aloha.delivered
            );
        }
        // ...at the price of stretching transactions across frames, so
        // more of them overlap and identifier collisions climb — and
        // widening the identifier space buys the loss back down, per
        // Eq. 4.
        let dfa_loss = |bits: u8| {
            points
                .iter()
                .find(|p| p.mac == "DFA" && p.id_bits == bits)
                .unwrap()
                .id_loss
                .mean
        };
        assert!(
            dfa_loss(3) > dfa_loss(6),
            "wider identifiers must shrink DFA id-loss: {:?} vs {:?}",
            dfa_loss(3),
            dfa_loss(6)
        );
    }

    #[test]
    fn scaling_keeps_local_loss_flat_while_static_grows() {
        let provenance = density_scaling(EffortLevel::Quick, 1);
        let points: Vec<&ScalingPoint> = provenance.points().collect();
        let first = points[0];
        let last = points.last().unwrap();
        assert!(last.static_bits_required > first.static_bits_required);
        assert_eq!(first.aff_bits, last.aff_bits);
        // Loss stays in the same ballpark (no growth with network size):
        // allow generous slack for sampling noise at Quick effort.
        assert!(
            (last.observed_loss.mean - first.observed_loss.mean).abs() < 0.15,
            "per-cluster loss should not grow with network size: {points:?}"
        );
    }

    #[test]
    fn density_sweep_tracks_eq4_growth() {
        let provenance = density_sweep(EffortLevel::Quick, 1);
        let points: Vec<&DensityPoint> = provenance.points().collect();
        assert_eq!(points.len(), 5);
        // The Eq. 4 prediction is strictly increasing in T.
        for pair in points.windows(2) {
            assert!(pair[1].predicted > pair[0].predicted);
        }
    }

    #[test]
    fn provenance_records_a_seed_per_trial() {
        let provenance = density_sweep(EffortLevel::Quick, 1);
        for cell in &provenance.cells {
            assert_eq!(cell.seeds.len(), EffortLevel::Quick.trials() as usize);
            assert_eq!(
                cell.seeds,
                (0..EffortLevel::Quick.trials())
                    .map(|t| harness::trial_seed("ablation_density", cell.cell_index, t))
                    .collect::<Vec<_>>()
            );
        }
    }
}
