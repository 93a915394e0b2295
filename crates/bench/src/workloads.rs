//! Fixed wall-clock workloads for the recorded benchmark trajectory.
//!
//! Each workload is a deterministic batch of trials fanned out through
//! [`crate::harness::run_trials`], so the serial / parallel dimension
//! of `BENCH_netsim.json` is exactly the `RETRI_BENCH_WORKERS`
//! dimension every experiment binary has. The batch is repeated a few
//! times and the **median** batch wall-clock is recorded — medians are
//! robust to the occasional scheduler hiccup that poisons a mean.
//!
//! The set deliberately spans the three hot layers the simulator
//! stack exercises:
//!
//! - `sim_dense_mesh_32` / `sim_hidden_triple` / `sim_sparse_grid_400`
//!   — the netsim hot path under ALOHA medium saturation (every
//!   delivery judged against a full medium), CSMA hidden-terminal
//!   contention, and large sparse topologies;
//! - `sim_dense_mesh_32_obs` — the dense mesh again with the metrics
//!   registry and airtime spans live, so the trajectory records the
//!   obs-on overhead next to the obs-off baseline;
//! - `sim_fault_channel` — the paper testbed under a bursty
//!   Gilbert-Elliott bit-error channel (the fault-injection hot path);
//! - `sim_mesh_10k` / `sim_mesh_10k_sharded` — a 10,000-node grid under
//!   staggered ALOHA traffic, run on one spatial shard and on as many
//!   shards as the host offers (`RETRI_BENCH_SHARDS` overrides). The
//!   sharded engine's event stream is shard-count-invariant, so the pair
//!   records pure parallel speedup on an identical simulation;
//! - `selector_churn` — identifier selection (the RETRI core);
//! - `wire_roundtrip` — AFF fragmentation, bit-packing, and
//!   reassembly;
//! - `svc_alloc_1m` / `svc_alloc_contended` — the `retrid` allocator
//!   service: one million identifier allocations across every minting
//!   strategy on the in-process transport, and a smaller TCP run with
//!   concurrent clients against deliberately shallow shard queues so
//!   BUSY shedding is on the measured path. Next to the timing, these
//!   record throughput and latency detail (allocations/sec, p99) via
//!   [`svc_detail`].
//!
//! Regenerate the trajectory file with
//! `cargo run -p retri-bench --release --bin bench_summary` (see the
//! Performance section of EXPERIMENTS.md for the schema).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri::density::DensityEstimator;
use retri::select::{AdaptiveListeningSelector, IdSelector, ListeningSelector};
use retri::IdentifierSpace;
use retri_aff::reassembly::Reassembler;
use retri_aff::wire::WireConfig;
use retri_aff::{Fragmenter, SelectorPolicy, Testbed};
use retri_model::stats::{WilsonInterval, Z_99};
use retri_netsim::prelude::*;
use retri_netsim::topology::Topology;
use retri_obs::Obs;
use retri_service::{
    run_load, LoadPlan, LoadReport, Server, ServiceConfig, ServiceHandle, TcpClient,
};

use crate::harness::run_trials;

/// One named workload: a deterministic trial body plus its batch shape.
pub struct Workload {
    /// Stable name, used as the seed-derivation experiment id and as
    /// the key in `BENCH_netsim.json`.
    pub name: &'static str,
    /// One-line description recorded next to the numbers.
    pub description: &'static str,
    /// Trials per batch (the unit the parallel harness schedules).
    pub trials: u64,
    /// Simulated node count, for workloads whose memory footprint is
    /// part of the story: `bench_summary` records peak-RSS-derived
    /// bytes-per-node next to the timing when this is set.
    pub nodes: Option<u64>,
    /// Whether the workload's number is only meaningful against its
    /// serial sibling on real parallel hardware. On small hosts the
    /// trajectory entry carries an explicit `skipped` marker for these
    /// instead of recording a silently meaningless comparison.
    pub sharded: bool,
    run: fn(seed: u64, quick: bool),
}

/// A workload's measured batch wall-clock under one worker setting.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Every repetition's batch wall-clock, nanoseconds, in run order.
    pub samples_ns: Vec<u64>,
    /// Median of `samples_ns`.
    pub median_ns: u64,
}

/// The fixed workload set, in recording order.
#[must_use]
pub fn all() -> Vec<Workload> {
    let small = |name, description, trials, run| Workload {
        name,
        description,
        trials,
        nodes: None,
        sharded: false,
        run,
    };
    vec![
        small(
            "sim_dense_mesh_32",
            "32-node full mesh, every node saturating an ALOHA channel",
            8,
            sim_dense_mesh,
        ),
        small(
            "sim_dense_mesh_32_obs",
            "the same dense mesh with metrics and span recording enabled",
            8,
            sim_dense_mesh_obs,
        ),
        small(
            "sim_hidden_triple",
            "hidden-terminal triple with both senders saturating",
            8,
            sim_hidden_triple,
        ),
        small(
            "sim_sparse_grid_400",
            "20x20 grid, nearest-neighbor range, sparse periodic traffic",
            4,
            sim_sparse_grid,
        ),
        small(
            "sim_fault_channel",
            "paper testbed under a bursty Gilbert-Elliott bit-error channel",
            8,
            sim_fault_channel,
        ),
        small(
            "sim_dfa_saturated",
            "16-node saturated clique: DFA known-N vs density-estimated vs CSMA vs ALOHA",
            4,
            sim_dfa_saturated,
        ),
        Workload {
            name: "sim_mesh_10k",
            description: "100x100 grid (10k nodes), staggered ALOHA traffic, one shard",
            trials: 1,
            nodes: Some(10_000),
            sharded: false,
            run: sim_mesh_10k_serial,
        },
        Workload {
            name: "sim_mesh_10k_sharded",
            description: "the same 10k-node grid on every available spatial shard",
            trials: 1,
            nodes: Some(10_000),
            sharded: true,
            run: sim_mesh_10k_sharded,
        },
        Workload {
            name: "sim_mesh_100k_sharded",
            description: "400x250 grid (100k nodes), staggered ALOHA, available shards",
            trials: 1,
            nodes: Some(100_000),
            sharded: true,
            run: sim_mesh_100k_sharded,
        },
        Workload {
            name: "sim_mesh_1m_sharded",
            description: "1000x1000 sparse grid (1M nodes), scattered one-shot ALOHA",
            trials: 1,
            nodes: Some(1_000_000),
            sharded: true,
            run: sim_mesh_1m_sharded,
        },
        small(
            "selector_churn",
            "listening + adaptive identifier selection with live windows",
            8,
            selector_churn,
        ),
        small(
            "wire_roundtrip",
            "AFF fragment -> wire encode -> reassemble round trips",
            8,
            wire_roundtrip,
        ),
        small(
            "svc_alloc_1m",
            "retrid in-process: 1M identifier allocations across all 5 strategies",
            1,
            svc_alloc_1m,
        ),
        small(
            "svc_alloc_contended",
            "retrid over TCP: 4 clients vs depth-2 shard queues (BUSY shedding live)",
            1,
            svc_alloc_contended,
        ),
    ]
}

/// Runs one workload's batch `reps` times under the current
/// `RETRI_BENCH_WORKERS` setting and returns the per-rep wall-clocks
/// with their median.
#[must_use]
pub fn measure(workload: &Workload, quick: bool, reps: usize) -> Measurement {
    assert!(reps >= 1, "at least one repetition required");
    let mut samples_ns: Vec<u64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let cells = [()];
        let runs = run_trials(workload.name, workload.trials, &cells, |(), trial| {
            (workload.run)(trial.seed, quick);
        });
        let elapsed = started.elapsed().as_nanos() as u64;
        assert_eq!(runs[0].values.len(), workload.trials as usize);
        samples_ns.push(elapsed);
    }
    let mut sorted = samples_ns.clone();
    sorted.sort_unstable();
    Measurement {
        median_ns: sorted[sorted.len() / 2],
        samples_ns,
    }
}

/// Keeps a node's MAC queue topped up so the channel stays saturated —
/// the paper's "transmit a continuous stream of packets" workload.
struct Saturator {
    payload_bytes: usize,
}

impl Saturator {
    fn top_up(&self, ctx: &mut Context<'_>) {
        while ctx.pending_frames() < 4 {
            ctx.send(FramePayload::from_bytes(vec![0xA5; self.payload_bytes]).expect("non-empty"))
                .expect("payload fits the radio frame");
        }
    }
}

impl Protocol for Saturator {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.top_up(ctx);
        ctx.set_timer(SimDuration::from_millis(20), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        self.top_up(ctx);
        ctx.set_timer(SimDuration::from_millis(20), 0);
    }
}

/// The 32-node full mesh of saturating ALOHA senders.
fn dense_mesh(seed: u64) -> ShardedSim<Saturator> {
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(MacConfig::aloha())
        .range(100.0)
        .build(|_| Saturator { payload_bytes: 27 });
    let topo = Topology::full_mesh(32, 100.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim
}

fn sim_dense_mesh(seed: u64, quick: bool) {
    // ALOHA, not CSMA: with carrier sense the mesh serializes onto one
    // transmission at a time and the benchmark measures the event heap.
    // Without it, all 32 radios keep overlapping transmissions on the
    // air, so every delivery judgment works against a full medium —
    // the hot path this workload exists to watch.
    let sim_secs = if quick { 10 } else { 60 };
    let mut sim = dense_mesh(seed);
    sim.run_until(SimTime::from_secs(sim_secs));
    assert!(sim.stats().frames_sent > 0);
    std::hint::black_box(sim.stats());
}

fn sim_dense_mesh_obs(seed: u64, quick: bool) {
    // The obs-overhead probe: byte-for-byte the `sim_dense_mesh_32`
    // workload plus a live metrics registry (counters, per-reason drop
    // accounting, energy gauges, airtime spans). The trajectory entry
    // comparing this median against the base workload's is the recorded
    // obs-on overhead.
    let sim_secs = if quick { 10 } else { 60 };
    let obs = Obs::enabled();
    let mut sim = dense_mesh(seed);
    sim.enable_obs(&obs);
    sim.run_until(SimTime::from_secs(sim_secs));
    let snapshot = obs.snapshot().expect("obs is enabled");
    assert_eq!(
        snapshot.counter("netsim_frames_sent_total"),
        sim.stats().frames_sent,
        "recorded metrics must mirror the native counters"
    );
    std::hint::black_box(snapshot);
}

fn sim_hidden_triple(seed: u64, quick: bool) {
    let sim_secs = if quick { 60 } else { 240 };
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(MacConfig::csma())
        .range(100.0)
        .build(|id| Saturator {
            // The middle node (id 1) only listens.
            payload_bytes: if id == NodeId(1) { 1 } else { 27 },
        });
    let (topo, (a, r, b)) = Topology::hidden_terminal(100.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    let _ = (a, r, b);
    sim.run_until(SimTime::from_secs(sim_secs));
    std::hint::black_box(sim.stats());
}

/// Staggered periodic senders on a big, mostly disconnected grid.
struct SparseSender;

impl Protocol for SparseSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let delay = SimDuration::from_millis(10 * u64::from(ctx.node_id().0));
        ctx.set_timer(delay, 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let _ = ctx.send(FramePayload::from_bytes(vec![1; 8]).expect("non-empty"));
        ctx.set_timer(SimDuration::from_secs(2), 0);
    }
}

fn sim_sparse_grid(seed: u64, quick: bool) {
    let sim_secs = if quick { 20 } else { 60 };
    let mut sim = ShardedSimBuilder::new(seed)
        .range(60.0)
        .build(|_| SparseSender);
    let topo = Topology::grid(20, 20, 50.0, 60.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim.run_until(SimTime::from_secs(sim_secs));
    std::hint::black_box(sim.stats());
}

fn sim_fault_channel(seed: u64, quick: bool) {
    // The Section 5.1 testbed with every delivery additionally judged by
    // a bursty Gilbert-Elliott channel: exercises the fault RNG stream,
    // per-bit corruption, and the receiver's reject paths together.
    let sim_secs = if quick { 10 } else { 40 };
    let mut testbed = Testbed::paper(8, SelectorPolicy::Uniform);
    testbed.workload.stop = SimTime::from_secs(sim_secs);
    testbed.faults = FaultModel::none().with_channel(GilbertElliott::bursty(
        ChannelState::clean(),
        ChannelState {
            bit_error_rate: 0.02,
            frame_erasure: 0.0,
        },
        0.05,
        0.20,
    ));
    let result = testbed.run(seed);
    assert!(result.truth_delivered > 0);
    std::hint::black_box(result);
}

/// Contenders in the DFA saturation clique (and therefore the optimal
/// Dynamic-Frame Aloha frame length, L* = N).
const DFA_CLIQUE: u32 = 16;

/// How long a contender keeps one ephemeral transaction identifier
/// before drawing a fresh one — long against the estimator horizon so
/// the distinct-identifier count tracks the contender count instead of
/// the rotation rate.
const DFA_ID_ROTATE: SimDuration = SimDuration::from_secs(8);

/// A saturating sender whose payloads open with its current RETRI
/// transaction identifier and whose receive path feeds a
/// [`DensityEstimator`] — the paper's loop closed end to end: heard
/// ephemeral identifiers → density estimate T̂ → Dynamic-Frame Aloha
/// frame size (via [`Protocol::population_estimate`]).
struct DfaSaturator {
    txn_id: u64,
    estimator: DensityEstimator,
}

impl DfaSaturator {
    fn new() -> Self {
        DfaSaturator {
            txn_id: 0,
            // 2 s horizon: every live contender succeeds several times
            // per horizon at saturation, so the window holds one
            // identifier per foreign contender. Light smoothing
            // exercises the time-decayed EWMA read path.
            estimator: DensityEstimator::with_smoothing(2_000_000, 0.3),
        }
    }

    fn top_up(&mut self, ctx: &mut Context<'_>) {
        while ctx.pending_frames() < 4 {
            let mut bytes = vec![0xA5u8; 12];
            bytes[..8].copy_from_slice(&self.txn_id.to_le_bytes());
            ctx.send(FramePayload::from_bytes(bytes).expect("non-empty"))
                .expect("payload fits the radio frame");
        }
    }
}

impl Protocol for DfaSaturator {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.txn_id = ctx.rng().gen_range(0..u64::MAX);
        self.top_up(ctx);
        ctx.set_timer(SimDuration::from_millis(20), 0);
        ctx.set_timer(DFA_ID_ROTATE, 1);
    }
    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        if let Ok(id) = <[u8; 8]>::try_from(&frame.payload.bytes()[..8]) {
            self.estimator
                .observe(u64::from_le_bytes(id), ctx.now().as_micros());
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        match timer.token {
            0 => {
                self.top_up(ctx);
                ctx.set_timer(SimDuration::from_millis(20), 0);
            }
            _ => {
                self.txn_id = ctx.rng().gen_range(0..u64::MAX);
                ctx.set_timer(DFA_ID_ROTATE, 1);
            }
        }
    }
    fn population_estimate(&self, now: SimTime) -> Option<u64> {
        Some(self.estimator.estimated_density(now.as_micros()).get())
    }
}

/// One saturated-clique run under `mac`: 16 [`DfaSaturator`] nodes in
/// RF range of each other for `sim_secs` simulated seconds.
fn dfa_clique_run(seed: u64, sim_secs: u64, mac: MacConfig) -> (MediumStats, DfaStats) {
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(mac)
        .range(100.0)
        .build(|_| DfaSaturator::new());
    let topo = Topology::full_mesh(DFA_CLIQUE as usize, 100.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    sim.run_until(SimTime::from_secs(sim_secs));
    (sim.stats(), sim.dfa_stats())
}

/// The adaptive-MAC acceptance run: the same saturated 16-node clique
/// under four MACs — Dynamic-Frame Aloha with the population known
/// a-priori, DFA sizing frames from each node's own density estimate,
/// CSMA, and pure ALOHA. A 12-byte payload (3.6 ms airtime) fits the
/// 4 ms slot, so the run is an exact slotted model and the known-N
/// per-attempt success rate must sit inside the 99% Wilson interval of
/// the closed form (1 - 1/L)^(N-1). The recorded [`DfaDetail`] carries
/// that verdict plus the known-vs-estimated success counts the
/// `bench_guard` adaptive-MAC rule enforces.
fn sim_dfa_saturated(seed: u64, quick: bool) {
    let sim_secs = if quick { 15 } else { 60 };
    let slot = SimDuration::from_millis(4);
    let (known_stats, known) =
        dfa_clique_run(seed, sim_secs, MacConfig::dfa_known(slot, DFA_CLIQUE));
    let (estimated_stats, estimated) =
        dfa_clique_run(seed, sim_secs, MacConfig::dfa_estimated(slot, 8));
    let (csma_stats, _) = dfa_clique_run(seed, sim_secs, MacConfig::csma());
    let (aloha_stats, _) = dfa_clique_run(seed, sim_secs, MacConfig::aloha());
    let n = u64::from(DFA_CLIQUE);
    let predicted = retri_model::dfa::attempt_success_probability(n, n);
    let wilson = WilsonInterval::of(known.successes, known.attempts(), Z_99);
    record_dfa_detail(DfaDetail {
        known_attempts: known.attempts(),
        known_successes: known.successes,
        estimated_attempts: estimated.attempts(),
        estimated_successes: estimated.successes,
        wilson_ok: predicted >= wilson.low && predicted <= wilson.high,
        known_deliveries: known_stats.deliveries,
        estimated_deliveries: estimated_stats.deliveries,
        csma_deliveries: csma_stats.deliveries,
        aloha_deliveries: aloha_stats.deliveries,
    });
    std::hint::black_box((known_stats, estimated_stats, csma_stats, aloha_stats));
}

/// A periodic sender for the 10k-node mesh: each node's phase is
/// staggered by its id so the channel carries steady, overlapping ALOHA
/// traffic instead of one synchronized burst per period.
struct MeshSender;

impl Protocol for MeshSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let phase = 10_000 * (u64::from(ctx.node_id().0) % 10) + 1;
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let _ = ctx.send(FramePayload::from_bytes(vec![0x5A; 12]).expect("non-empty"));
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
}

/// The shared 10k-node topology: a 100x100 grid with 30 m spacing and
/// 45 m range, so every interior node hears its 8 surrounding
/// neighbors. Built once — laying out 10,000 nodes is itself
/// measurable work that must not pollute the timed region.
fn mesh_10k_topology() -> &'static Topology {
    static TOPO: OnceLock<Topology> = OnceLock::new();
    TOPO.get_or_init(|| Topology::grid(100, 100, 30.0, 45.0))
}

/// Builds and runs the 10k-node mesh on `shards` spatial shards,
/// returning the finished simulator for inspection.
fn run_mesh_10k(seed: u64, quick: bool, shards: usize, trace: bool) -> ShardedSim<MeshSender> {
    let sim_secs = if quick { 2 } else { 5 };
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(MacConfig::aloha())
        .range(45.0)
        .shards(shards)
        .build_with_topology(mesh_10k_topology(), |_| MeshSender);
    if trace {
        sim.enable_trace(1 << 18);
    }
    sim.run_until(SimTime::from_secs(sim_secs));
    assert!(sim.stats().frames_sent > 0);
    sim
}

fn sim_mesh_10k_serial(seed: u64, quick: bool) {
    let sim = run_mesh_10k(seed, quick, 1, false);
    std::hint::black_box(sim.stats());
}

/// Shard count for the `sim_mesh_10k_sharded` workload:
/// `RETRI_BENCH_SHARDS` when set, else the host's available
/// parallelism.
#[must_use]
pub fn sharded_workload_shards() -> usize {
    std::env::var("RETRI_BENCH_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(4)
}

fn sim_mesh_10k_sharded(seed: u64, quick: bool) {
    let sim = run_mesh_10k(seed, quick, sharded_workload_shards(), false);
    std::hint::black_box(sim.stats());
}

/// The 100k-node topology for the scale workload: a 400x250 grid with
/// the same 30 m spacing / 45 m range geometry as the 10k mesh.
fn mesh_100k_topology() -> &'static Topology {
    static TOPO: OnceLock<Topology> = OnceLock::new();
    TOPO.get_or_init(|| Topology::grid(400, 250, 30.0, 45.0))
}

/// One order of magnitude past the 10k mesh — the first step toward
/// the ROADMAP's 100k–1M-node target. Short simulated horizons keep
/// the batch minutes-scale: the point of the workload is that 100k
/// nodes *complete* and their throughput is recorded, not a long soak.
fn sim_mesh_100k_sharded(seed: u64, quick: bool) {
    let sim_millis = if quick { 500 } else { 2_000 };
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(MacConfig::aloha())
        .range(45.0)
        .shards(sharded_workload_shards())
        .build_with_topology(mesh_100k_topology(), |_| MeshSender);
    sim.run_until(SimTime::from_millis(sim_millis));
    assert!(sim.stats().frames_sent > 0);
    std::hint::black_box(sim.stats());
}

/// A one-shot sender for the million-node grid: each node transmits a
/// single frame at a phase scattered over a 10 s horizon, so any given
/// run simulates a *sparse* slice of the population — the regime the
/// paper's Eq. 4 was never measured in, and exactly the shape the
/// O(active) engine work (window skipping, delta-routed ghosts) exists
/// for. Cost must track the ~1.5% of nodes whose phase falls inside
/// the horizon, not the million-node topology.
struct ScatterSender;

impl Protocol for ScatterSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let phase = 10_000 * (u64::from(ctx.node_id().0) % 997) + 1;
        ctx.set_timer(SimDuration::from_micros(phase), 0);
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let _ = ctx.send(FramePayload::from_bytes(vec![0xE7; 12]).expect("non-empty"));
    }
}

/// The million-node topology: a 1000x1000 grid with 50 m spacing and
/// 60 m range, so each interior node hears only its 4 axial neighbors
/// (the diagonal is 70.7 m) — sparse adjacency, sparse interference.
fn mesh_1m_topology() -> &'static Topology {
    static TOPO: OnceLock<Topology> = OnceLock::new();
    TOPO.get_or_init(|| Topology::grid(1000, 1000, 50.0, 60.0))
}

/// The ROADMAP's million-node target (ISSUE 7). The simulated horizon
/// is deliberately tiny — the workload's point is that a 1M-node
/// sparse mesh *completes* with cost proportional to its active
/// traffic, and that its peak memory is recorded; the `bench_guard`
/// scale rule then pins the 1M/100k cost multiple against the
/// `wire_roundtrip` anchor.
fn sim_mesh_1m_sharded(seed: u64, quick: bool) {
    let sim_millis = if quick { 150 } else { 1_000 };
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(MacConfig::aloha())
        .range(60.0)
        .shards(sharded_workload_shards())
        .build_with_topology(mesh_1m_topology(), |_| ScatterSender);
    sim.run_until(SimTime::from_millis(sim_millis));
    assert!(sim.stats().frames_sent > 0);
    std::hint::black_box(sim.stats());
}

/// Everything `scale_smoke` needs to prove shard-count invariance: a
/// digest over the run's observable output plus the wall-clock it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshDigest {
    /// FNV-1a over the medium stats, the full trace-event stream, the
    /// tracer's drop counter, and the summed energy meter.
    pub digest: u64,
    /// Frames the 10k nodes put on the air, for a human-readable check.
    pub frames_sent: u64,
    /// Wall-clock of the `run_until` region (build excluded).
    pub wall: Duration,
}

/// Runs the 10k-node mesh with tracing on and digests every observable
/// output. Two calls with the same `(seed, quick)` must return equal
/// digests for **any** shard counts — that is the sharded engine's
/// byte-identity contract, and the `scale_smoke` binary and CI job
/// enforce it by diffing this value across `--shards` settings.
#[must_use]
pub fn mesh_10k_digest(seed: u64, quick: bool, shards: usize) -> MeshDigest {
    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    let started = Instant::now();
    let sim = run_mesh_10k(seed, quick, shards, true);
    let wall = started.elapsed();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let stats = sim.stats();
    fnv1a(&mut hash, format!("{stats:?}").as_bytes());
    let tracer = sim.tracer().expect("trace was enabled");
    for event in tracer.events() {
        fnv1a(&mut hash, format!("{event:?}").as_bytes());
    }
    fnv1a(&mut hash, &tracer.dropped().to_le_bytes());
    fnv1a(&mut hash, format!("{:?}", sim.total_meter()).as_bytes());
    MeshDigest {
        digest: hash,
        frames_sent: stats.frames_sent,
        wall,
    }
}

fn selector_churn(seed: u64, quick: bool) {
    let selections: u64 = if quick { 50_000 } else { 200_000 };
    let space = IdentifierSpace::new(9).expect("valid width");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut listening = ListeningSelector::new(space, 16);
    let mut adaptive = AdaptiveListeningSelector::new(space, 64);
    for tick in 0..selections {
        let id = listening.select(&mut rng);
        listening.observe(id);
        let other = adaptive.select_at(&mut rng, tick);
        adaptive.observe_at(other, tick);
        std::hint::black_box((id, other));
    }
}

fn wire_roundtrip(seed: u64, quick: bool) {
    let round_trips: u64 = if quick { 10_000 } else { 40_000 };
    let space = IdentifierSpace::new(8).expect("valid width");
    let wire = WireConfig::aff(space);
    let fragmenter = Fragmenter::new(wire.clone(), 27).expect("fits");
    let packet: Vec<u8> = (0..80u8).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..round_trips {
        let key = space.sample(&mut rng);
        let payloads = fragmenter.fragment(&packet, key, None).expect("fragments");
        let mut reassembler = Reassembler::new(wire.clone(), u64::MAX / 2);
        let mut out = None;
        for payload in &payloads {
            if let Some(p) = reassembler.accept_payload(payload, 0).expect("parses") {
                out = Some(p);
            }
        }
        assert!(out.is_some(), "round trip must deliver the packet");
        std::hint::black_box(out);
    }
}

/// Throughput/latency detail from the latest run of one `svc_*`
/// workload — the numbers the trajectory schema records next to the
/// batch wall-clock (`bench_summary` writes them as `svc_allocs`,
/// `svc_allocs_per_sec`, `svc_p99_latency_ns`, `svc_busy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvcDetail {
    /// Identifiers minted in the run.
    pub allocs: u64,
    /// BUSY replies shed by the server (0 on the in-process transport).
    pub busy: u64,
    /// Median per-request latency, nanoseconds (worst client).
    pub p50_latency_ns: u64,
    /// 99th-percentile per-request latency, nanoseconds (worst client).
    pub p99_latency_ns: u64,
    /// Allocations per second over the run's wall-clock.
    pub allocs_per_sec: f64,
}

/// Side-channel from the `svc_*` workload bodies to `bench_summary`:
/// the `Workload::run` signature only times, so the service workloads
/// deposit their [`LoadReport`]-derived detail here, keyed by workload
/// name. Each run overwrites its slot — the recorded detail is from
/// the last rep of the last pass.
fn svc_details() -> &'static Mutex<HashMap<&'static str, SvcDetail>> {
    static DETAILS: OnceLock<Mutex<HashMap<&'static str, SvcDetail>>> = OnceLock::new();
    DETAILS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The latest recorded detail for one `svc_*` workload, if it has run
/// in this process.
#[must_use]
pub fn svc_detail(name: &str) -> Option<SvcDetail> {
    svc_details()
        .lock()
        .expect("svc detail lock")
        .get(name)
        .copied()
}

fn record_svc_detail(name: &'static str, detail: SvcDetail) {
    svc_details()
        .lock()
        .expect("svc detail lock")
        .insert(name, detail);
}

/// Adaptive-MAC detail from the latest `sim_dfa_saturated` run — the
/// numbers `bench_summary` records next to the batch wall-clock (as
/// `dfa_known_successes`, `dfa_estimated_successes`, `dfa_wilson_ok`,
/// …) and the `bench_guard` adaptive-MAC rule reads back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfaDetail {
    /// Known-N frame attempts with a recorded verdict.
    pub known_attempts: u64,
    /// Known-N successful (uncollided) transmissions.
    pub known_successes: u64,
    /// Density-estimated frame attempts with a recorded verdict.
    pub estimated_attempts: u64,
    /// Density-estimated successful transmissions.
    pub estimated_successes: u64,
    /// Whether the closed-form per-attempt success probability
    /// (1 - 1/L)^(N-1) sits inside the 99% Wilson interval of the
    /// known-N run's observed rate.
    pub wilson_ok: bool,
    /// Per-receiver deliveries under DFA known-N.
    pub known_deliveries: u64,
    /// Per-receiver deliveries under DFA estimated-N.
    pub estimated_deliveries: u64,
    /// Per-receiver deliveries under CSMA (same clique, same horizon).
    pub csma_deliveries: u64,
    /// Per-receiver deliveries under pure ALOHA.
    pub aloha_deliveries: u64,
}

/// Side-channel from the `sim_dfa_saturated` body to `bench_summary`,
/// mirroring [`svc_detail`]: overwritten by each run, so the recorded
/// detail is from the last rep of the last pass — and deterministic,
/// because the harness derives trial seeds from the workload name.
fn dfa_details() -> &'static Mutex<Option<DfaDetail>> {
    static DETAILS: OnceLock<Mutex<Option<DfaDetail>>> = OnceLock::new();
    DETAILS.get_or_init(|| Mutex::new(None))
}

/// The latest recorded adaptive-MAC detail, if `sim_dfa_saturated` has
/// run in this process.
#[must_use]
pub fn dfa_detail() -> Option<DfaDetail> {
    *dfa_details().lock().expect("dfa detail lock")
}

fn record_dfa_detail(detail: DfaDetail) {
    *dfa_details().lock().expect("dfa detail lock") = Some(detail);
}

/// The acceptance run: one million identifier allocations across every
/// minting strategy, on the in-process transport (the allocator core
/// with zero transport overhead). Deliberately **not** shrunk by
/// `--quick` — "retrid serves ≥ 1M allocations in a single recorded
/// run" is the property the trajectory entry exists to record, and at
/// in-process speed the full run is cheap anyway.
fn svc_alloc_1m(seed: u64, _quick: bool) {
    let mut config = ServiceConfig::new(seed);
    config.shards = 4;
    let mut handle = ServiceHandle::new(&config);
    let plan = LoadPlan::new(1_000_000);
    let report = run_load(&mut handle, &plan).expect("in-process transport cannot fail");
    assert_eq!(report.allocs, 1_000_000, "short allocation run");
    record_svc_detail(
        "svc_alloc_1m",
        SvcDetail {
            allocs: report.allocs,
            busy: report.busy,
            p50_latency_ns: report.p50_latency_ns,
            p99_latency_ns: report.p99_latency_ns,
            allocs_per_sec: report.allocs_per_sec(),
        },
    );
    std::hint::black_box(report);
}

/// The contended run: the full TCP stack — framing, per-connection
/// threads, bounded shard queues — under four concurrent clients
/// whose combined demand overwhelms two depth-2 queues, so BUSY
/// shedding and retry are part of the measured path (the recorded
/// `svc_busy` count proves the backpressure fired, not just existed).
fn svc_alloc_contended(seed: u64, quick: bool) {
    const CLIENTS: u64 = 4;
    let total: u64 = if quick { 40_000 } else { 200_000 };
    let mut config = ServiceConfig::new(seed);
    config.shards = 2;
    config.queue_depth = 2;
    let server = Server::start(&config, "127.0.0.1:0").expect("bind an ephemeral port");
    let addr = server.addr();
    let per_client = total / CLIENTS;
    let reports: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut plan = LoadPlan::new(per_client);
                    plan.shards = 2;
                    plan.batch = 64;
                    let mut client = TcpClient::connect(addr).expect("connect to own server");
                    run_load(&mut client, &plan).expect("tcp load run")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    server.shutdown();
    let allocs: u64 = reports.iter().map(|r| r.allocs).sum();
    assert_eq!(allocs, per_client * CLIENTS, "short allocation run");
    let slowest_ns = reports.iter().map(|r| r.elapsed_ns).max().unwrap_or(0);
    record_svc_detail(
        "svc_alloc_contended",
        SvcDetail {
            allocs,
            busy: reports.iter().map(|r| r.busy).sum(),
            p50_latency_ns: reports.iter().map(|r| r.p50_latency_ns).max().unwrap_or(0),
            p99_latency_ns: reports.iter().map(|r| r.p99_latency_ns).max().unwrap_or(0),
            allocs_per_sec: if slowest_ns == 0 {
                0.0
            } else {
                allocs as f64 * 1e9 / slowest_ns as f64
            },
        },
    );
    std::hint::black_box(reports);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_described() {
        let set = all();
        let mut names: Vec<&str> = set.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), set.len(), "duplicate workload name");
        for w in &set {
            assert!(!w.description.is_empty());
            assert!(w.trials >= 1);
        }
    }

    #[test]
    fn sharded_workloads_declare_their_node_counts() {
        // The skip-marker and bytes-per-node recording both key off
        // these flags; a sharded workload without a node count would
        // silently drop out of the memory column.
        for w in all() {
            if w.sharded {
                assert!(w.nodes.is_some(), "{} needs a node count", w.name);
            }
            if w.name.contains("mesh_1m") {
                assert_eq!(w.nodes, Some(1_000_000));
            }
        }
    }

    #[test]
    fn mesh_topology_is_10k_nodes() {
        let topo = mesh_10k_topology();
        assert_eq!(topo.node_ids().count(), 10_000);
        // Interior nodes must hear all 8 surrounding neighbors —
        // otherwise the "mesh" degenerates into disconnected rows.
        let diagonal = (2.0_f64 * 30.0 * 30.0).sqrt();
        assert!(diagonal < 45.0);
    }

    #[test]
    fn dfa_saturated_closes_the_retri_loop() {
        // The acceptance pair, on a fixed seed (deterministic, so this
        // cannot flake): the known-N run matches the closed form, and
        // sizing frames from the density estimator costs at most 10% of
        // the known-population throughput over the same horizon.
        sim_dfa_saturated(11, true);
        let d = dfa_detail().expect("workload records its detail");
        assert!(
            d.wilson_ok,
            "known-N success rate must contain the closed form: {d:?}"
        );
        assert!(
            d.estimated_successes * 10 >= d.known_successes * 9,
            "density-estimated DFA below 90% of known-N throughput: {d:?}"
        );
        assert!(d.known_attempts >= d.known_successes);
        assert!(d.csma_deliveries > 0, "carrier sense serializes the clique");
        // Pure ALOHA at full saturation collapses — 16 radios
        // back-to-back on one channel leave no collision-free air. The
        // recorded (possibly zero) count is the baseline DFA beats.
        assert!(d.aloha_deliveries < d.known_deliveries, "{d:?}");
    }

    #[test]
    fn measure_reports_median_of_samples() {
        let tiny = Workload {
            name: "bench_selftest",
            description: "tiny workload for harness tests",
            trials: 2,
            nodes: None,
            sharded: false,
            run: |seed, _quick| {
                std::hint::black_box(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            },
        };
        let m = measure(&tiny, true, 3);
        assert_eq!(m.samples_ns.len(), 3);
        let mut sorted = m.samples_ns.clone();
        sorted.sort_unstable();
        assert_eq!(m.median_ns, sorted[1]);
    }
}
