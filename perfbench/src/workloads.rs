//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics), plus the small probes a traced run uses for the
//! layers its own workload does not drive.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use retri_service::proto::ALL_SHARDS;
use retri_service::{Reply, Request, Server, ServiceConfig, StrategyKind, StrategyStats};

use crate::anchor::{Anchor, AnchorKind};
use crate::inputs::{mesh_phases, testbed_plan, OpKind, SplitMix, TrialSpec};
use crate::mesh;
use crate::report::{proc_status_kb, Checks, Metrics};
use crate::retrid::{self, Conn, InProc, StepStats};
use crate::service;
use crate::stats::{median, percentile, quantile, tail};
use crate::testbed::{cell_losses, run_plain, run_traced, shape_checks, trial_ok, TrialDigest};
use crate::trace::{self_times, Span, Tracer};

/// Set-up repetitions whose median is reported as `setup_s`.
const SETUP_REPS: usize = 5;

/// Host parallelism: shard count for the mesh and the server.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The highest percentile the latency metrics report. Host preemption
/// on small shared machines puts stalls of several milliseconds into
/// about one percent of samples at random times, so p99 and above
/// measure the host; p90 measures the program.
pub const TAIL_Q: f64 = 0.9;

/// The tail of an ascending sample: p90, or the highest percentile
/// below it with ten samples beyond it, or the maximum of a sample too
/// small for either.
fn tail_of(sorted: &[u64]) -> u64 {
    tail(sorted, TAIL_Q).map_or(*sorted.last().expect("samples"), |t| t.value)
}

/// Records the latency metrics of a sample, in µs, scaled by `factor`.
fn latency_metrics(m: &mut Metrics, samples_ns: &mut [u64], factor: f64) {
    samples_ns.sort_unstable();
    m.set(
        "p50_us",
        percentile(samples_ns, 0.5) as f64 * factor / 1e3,
        "us",
    );
    m.set("p90_us", tail_of(samples_ns) as f64 * factor / 1e3, "us");
    eprintln!(
        "latency sample: n={} tail=p{:.2}",
        samples_ns.len(),
        tail(samples_ns, TAIL_Q).map_or(100.0, |t| t.q * 100.0)
    );
}

/// Prints the end-to-end numbers before the anchor scales them.
fn unscaled(ops_per_s: f64, samples_ns: &[u64], setup_s: f64) {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    eprintln!(
        "unscaled: ops_per_s {ops_per_s} p50_us {} p90_us {} setup_s {setup_s}",
        percentile(&sorted, 0.5) as f64 / 1e3,
        tail_of(&sorted) as f64 / 1e3
    );
}

/// Durations scaled to the reference host, each by the anchor samples
/// nearest to when it ended.
fn normalized(anchor: &Anchor, durations_ns: &[u64], ended: &[Instant]) -> Vec<u64> {
    durations_ns
        .iter()
        .zip(ended)
        .map(|(&ns, &at)| (ns as f64 * anchor.factor_at(at)).round() as u64)
        .collect()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ---------------------------------------------------------------- testbed

/// Trials run until `secs` have passed, with the plan they came from.
struct TrialRun {
    trials: Vec<(TrialSpec, TrialDigest)>,
    wall_ns: Vec<u64>,
    ended: Vec<Instant>,
    elapsed_s: f64,
}

/// Runs trials from `plan` until `secs_budget` has passed, timing the
/// anchor after each trial when `anchor` is given.
fn testbed_trials(
    plan: &[TrialSpec],
    secs_budget: f64,
    mut anchor: Option<&mut Anchor>,
) -> TrialRun {
    let started = Instant::now();
    let mut run = TrialRun {
        trials: Vec::new(),
        wall_ns: Vec::new(),
        ended: Vec::new(),
        elapsed_s: 0.0,
    };
    for spec in plan {
        if started.elapsed().as_secs_f64() >= secs_budget {
            break;
        }
        let t = Instant::now();
        let digest = run_plain(spec);
        run.wall_ns.push(t.elapsed().as_nanos() as u64);
        run.ended.push(Instant::now());
        run.trials.push((*spec, digest));
        if let Some(anchor) = anchor.as_deref_mut() {
            anchor.sample();
        }
    }
    run.elapsed_s = started.elapsed().as_secs_f64();
    run
}

fn check_trials(c: &mut Checks, trials: &[(TrialSpec, TrialDigest)]) {
    for (spec, digest) in trials {
        c.check(trial_ok(digest), &format!("trial {spec:?}: {digest:?}"));
    }
    for (ok, what) in shape_checks(&cell_losses(trials)) {
        c.check(ok, &what);
    }
}

/// The testbed set-up: the trial plan and one warm-up trial.
fn testbed_setup(seed: u64, secs_budget: f64, anchor: &mut Anchor) -> (Vec<TrialSpec>, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut plan = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        plan = testbed_plan(seed, plan_len(secs_budget));
        let warm = TrialSpec {
            seed: SplitMix::new(seed, "testbed.warmup").next_u64() ^ rep as u64,
            ..plan[plan.len() - 1]
        };
        std::hint::black_box(run_plain(&warm));
        times.record(t, anchor);
    }
    (plan, times)
}

/// Trials planned for a run of `secs_budget`: more than the fastest
/// host gets through.
fn plan_len(secs_budget: f64) -> usize {
    (secs_budget * 20.0).ceil() as usize + 60
}

/// Durations of the set-up repetitions, with when each ended.
#[derive(Debug, Default)]
struct SetupTimes {
    ns: Vec<u64>,
    ended: Vec<Instant>,
}

impl SetupTimes {
    /// Records a repetition started at `started`, then times the anchor
    /// twice so the repetition has samples next to it.
    fn record(&mut self, started: Instant, anchor: &mut Anchor) {
        self.ns.push(started.elapsed().as_nanos() as u64);
        self.ended.push(Instant::now());
        anchor.samples(2);
    }

    /// Median repetition, s, unscaled.
    fn median_s(&self) -> f64 {
        let s: Vec<f64> = self.ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        median(&s)
    }

    /// Median repetition, s, on the reference host.
    fn scaled_s(&self, anchor: &Anchor) -> f64 {
        let s: Vec<f64> = normalized(anchor, &self.ns, &self.ended)
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        median(&s)
    }
}

/// Untraced `testbed`.
pub fn testbed_e2e(seed: u64, secs_budget: f64, m: &mut Metrics, c: &mut Checks) {
    let mut anchor = Anchor::new(AnchorKind::Compute);
    let (plan, setup) = testbed_setup(seed, secs_budget, &mut anchor);
    let run = testbed_trials(&plan, secs_budget, Some(&mut anchor));
    check_trials(c, &run.trials);
    unscaled(
        run.trials.len() as f64 / (run.wall_ns.iter().sum::<u64>() as f64 / 1e9),
        &run.wall_ns,
        setup.median_s(),
    );
    let mut trial_ns = normalized(&anchor, &run.wall_ns, &run.ended);
    let busy_s = trial_ns.iter().sum::<u64>() as f64 / 1e9;
    m.set("ops_per_s", run.trials.len() as f64 / busy_s, "1/s");
    latency_metrics(m, &mut trial_ns, 1.0);
    m.set("setup_s", setup.scaled_s(&anchor), "s");
    eprintln!(
        "anchor time factor over the run: {:.4}",
        anchor.time_factor()
    );
}

/// Per-layer metrics of traced trials.
fn testbed_layers(
    m: &mut Metrics,
    c: &mut Checks,
    specs: &[TrialSpec],
    reference: Option<&[(TrialSpec, TrialDigest)]>,
    tracer: &mut Tracer,
) -> f64 {
    let started = Instant::now();
    let mut sums = [0u64; 6];
    for (i, spec) in specs.iter().enumerate() {
        let (digest, layers) = run_traced(spec, i as u64, tracer);
        if let Some((_, expected)) = reference.and_then(|r| r.get(i)) {
            c.check(
                digest == *expected,
                &format!("traced trial {i} digest matches the untraced one"),
            );
        }
        c.check(trial_ok(&digest), &format!("traced trial {spec:?}"));
        for (slot, v) in sums.iter_mut().zip([
            digest.packets_offered,
            layers.fragments_sent,
            digest.aff_delivered,
            digest.identifier_conflicts,
            layers.windows,
            layers.windows_skipped,
        ]) {
            *slot += v;
        }
        let medium = digest.medium;
        netsim_counts(m, i == 0, &medium);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let n = specs.len().max(1) as f64;
    let times = self_times(tracer.spans());
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    m.set(
        "aff.sender.self_ns",
        get("aff.sender").self_ns as f64 / n,
        "ns",
    );
    m.set(
        "aff.receiver.self_ns",
        get("aff.receiver").self_ns as f64 / n,
        "ns",
    );
    m.set("aff.packets_offered", sums[0] as f64 / n, "count");
    m.set("aff.fragments_sent", sums[1] as f64 / n, "count");
    m.set("aff.delivered", sums[2] as f64 / n, "count");
    m.set("aff.identifier_conflicts", sums[3] as f64 / n, "count");
    m.set(
        "aff.delivery_ratio",
        sums[2] as f64 / sums[0].max(1) as f64,
        "ratio",
    );
    engine_metrics(m, &times, "netsim.run_until", sums[4], sums[5]);
    medium_counts_per_call(m, n);
    specs.len() as f64 / elapsed
}

/// Netsim engine metrics from the `netsim.run_until` spans of a traced
/// single-shard run.
fn engine_metrics(
    m: &mut Metrics,
    times: &std::collections::BTreeMap<&'static str, crate::trace::SelfTime>,
    run: &str,
    windows: u64,
    skipped: u64,
) {
    let run = times.get(run).copied().unwrap_or_default();
    let calls = run.calls.max(1) as f64;
    m.set("netsim.engine.self_ns", run.self_ns as f64 / calls, "ns");
    m.set("netsim.windows", windows as f64 / calls, "count");
    m.set("netsim.windows_skipped", skipped as f64 / calls, "count");
    m.set(
        "netsim.ns_per_window",
        run.total_ns as f64 / windows.max(1) as f64,
        "ns",
    );
}

/// Medium counters, accumulated over calls (`first` resets them).
fn netsim_counts(m: &mut Metrics, first: bool, medium: &retri_netsim::prelude::MediumStats) {
    let prev = |m: &Metrics, name: &str| {
        if first {
            0.0
        } else {
            m.get(name).unwrap_or(0.0)
        }
    };
    let frames = prev(m, "netsim.frames_sent") + medium.frames_sent as f64;
    let deliveries = prev(m, "netsim.deliveries") + medium.deliveries as f64;
    let collisions = prev(m, "netsim.rf_collisions") + medium.rf_collisions as f64;
    let lost = prev(m, "netsim.other_losses")
        + (medium.half_duplex_losses
            + medium.random_losses
            + medium.sleep_misses
            + medium.fault_erasures
            + medium.partition_losses) as f64;
    m.set("netsim.frames_sent", frames, "count");
    m.set("netsim.deliveries", deliveries, "count");
    m.set("netsim.rf_collisions", collisions, "count");
    m.set("netsim.other_losses", lost, "count");
    m.set(
        "netsim.delivery_ratio",
        deliveries / (deliveries + collisions + lost).max(1.0),
        "ratio",
    );
}

/// Turns the medium counts [`netsim_counts`] summed into counts per
/// `run_until` call.
fn medium_counts_per_call(m: &mut Metrics, calls: f64) {
    for name in [
        "netsim.frames_sent",
        "netsim.deliveries",
        "netsim.rf_collisions",
        "netsim.other_losses",
    ] {
        let total = m.get(name).unwrap_or(0.0);
        m.set(name, total / calls, "count");
    }
}

/// Traced `testbed`: the untraced trials of the first half, then the
/// same trials traced, whose digests must match.
pub fn testbed_traced(
    seed: u64,
    secs_budget: f64,
    m: &mut Metrics,
    c: &mut Checks,
    tracer: &mut Tracer,
) {
    let plan = testbed_plan(seed, plan_len(secs_budget));
    let untraced = testbed_trials(&plan, secs_budget / 2.0, None);
    check_trials(c, &untraced.trials);
    let untraced_rate = untraced.trials.len() as f64 / untraced.elapsed_s;
    let specs: Vec<TrialSpec> = untraced.trials.iter().map(|t| t.0).collect();
    let traced_rate = testbed_layers(m, c, &specs, Some(&untraced.trials), tracer);
    m.set(
        "trace.overhead_pct",
        (untraced_rate / traced_rate - 1.0) * 100.0,
        "%",
    );
}

/// One traced trial, for the AFF layer of another workload, and for the
/// engine too when that workload runs no simulation of its own.
fn testbed_probe(
    seed: u64,
    with_netsim: bool,
    m: &mut Metrics,
    c: &mut Checks,
    tracer: &mut Tracer,
) {
    let mut probe = Metrics::default();
    testbed_layers(&mut probe, c, &testbed_plan(seed, 1), None, tracer);
    for (name, value, unit) in probe.iter() {
        if name.starts_with("aff.") || with_netsim {
            m.set(name.clone(), *value, unit);
        }
    }
}

// ------------------------------------------------------------------- mesh

/// Mesh set-up timings: the topology, then the simulator over it.
struct MeshSetup {
    sim: retri_netsim::prelude::ShardedSim<crate::testbed::Timed<mesh::Beacon>>,
    times: SetupTimes,
    topology_s: f64,
    sim_s: f64,
    bytes_per_node: f64,
}

fn mesh_setup(seed: u64, phases: &Arc<Vec<u64>>, shards: usize, anchor: &mut Anchor) -> MeshSetup {
    let mut times = SetupTimes::default();
    let mut topo_times = Vec::new();
    let mut sim_times = Vec::new();
    let mut last = None;
    let mut bytes_per_node = 0.0;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let rss = proc_status_kb("VmRSS");
        let started = Instant::now();
        let topo = mesh::topology();
        topo_times.push(secs(started.elapsed()));
        let t = Instant::now();
        let sim = mesh::build(seed, &topo, phases, shards, false);
        sim_times.push(secs(t.elapsed()));
        times.record(started, anchor);
        drop(topo);
        if bytes_per_node == 0.0 {
            bytes_per_node =
                proc_status_kb("VmRSS").saturating_sub(rss) as f64 * 1024.0 / mesh::nodes() as f64;
        }
        last = Some(sim);
    }
    MeshSetup {
        sim: last.expect("at least one set-up"),
        times,
        topology_s: median(&topo_times),
        sim_s: median(&sim_times),
        bytes_per_node,
    }
}

fn mesh_checks(c: &mut Checks, run: &mesh::RunStats, medium: &retri_netsim::prelude::MediumStats) {
    c.add(run.boundaries, run.frame_mismatches);
    if run.frame_mismatches > 0 {
        eprintln!(
            "check failed: frame count off at {} period boundaries",
            run.frame_mismatches
        );
    }
    c.check(medium.deliveries > 0, "mesh deliveries > 0");
    c.check(medium.rf_collisions > 0, "mesh rf_collisions > 0");
}

/// Untraced `mesh`.
pub fn mesh_e2e(seed: u64, secs_budget: f64, m: &mut Metrics, c: &mut Checks) {
    let phases = Arc::new(mesh_phases(seed, mesh::nodes(), mesh::PERIOD_US));
    let mut setup_anchor = Anchor::new(AnchorKind::Compute);
    let mut setup = mesh_setup(seed, &phases, nproc(), &mut setup_anchor);
    // The shards wait for each other at every window barrier, so the
    // steps are scaled by an anchor that does the same.
    let mut anchor = Anchor::new(AnchorKind::Parallel(nproc()));
    let started = Instant::now();
    let run = mesh::run(&mut setup.sim, &phases, |_| {
        anchor.sample();
        started.elapsed().as_secs_f64() >= secs_budget
    });
    mesh_checks(c, &run, &setup.sim.stats());
    unscaled(
        run.frames as f64 / (run.run_ns as f64 / 1e9),
        &run.step_ns,
        setup.times.median_s(),
    );
    let mut step_ns = normalized(&anchor, &run.step_ns, &run.step_ended);
    let busy_s = step_ns.iter().sum::<u64>() as f64 / 1e9;
    m.set("ops_per_s", run.frames as f64 / busy_s, "1/s");
    latency_metrics(m, &mut step_ns, 1.0);
    m.set("setup_s", setup.times.scaled_s(&setup_anchor), "s");
    eprintln!(
        "anchor time factor over the run: {:.4}",
        anchor.time_factor()
    );
}

/// The same mesh input at `K = 1` and `K = nproc` over `periods`
/// periods, both timed: digests must match. Records the speed-up and
/// the single-shard engine metrics.
fn mesh_speedup(
    seed: u64,
    phases: &Arc<Vec<u64>>,
    periods: u64,
    m: &mut Metrics,
    c: &mut Checks,
    tracer: &mut Tracer,
) {
    let topo = mesh::topology();
    let mut results = Vec::new();
    for shards in [1, nproc()] {
        let mut sim = mesh::build(seed, &topo, phases, shards, true);
        let mut n = 0;
        let span = tracer.open(
            if shards == 1 {
                "netsim.run_until.k1"
            } else {
                "netsim.run_until.kn"
            },
            shards as u64,
        );
        let run = mesh::run(&mut sim, phases, |boundary| {
            n += u64::from(boundary);
            n == periods
        });
        tracer.close(span);
        if shards == 1 {
            let (ns, calls) = sim.node_ids().fold((0, 0), |(ns, calls), id| {
                let p = sim.protocol(id);
                (ns + p.ns, calls + p.calls)
            });
            tracer.record("netsim.callbacks.k1", span, ns, calls);
            let steps = run.step_ns.len() as u64;
            tracer.set_calls(span, steps);
            let times = self_times(tracer.spans());
            engine_metrics(
                m,
                &times,
                "netsim.run_until.k1",
                sim.windows_executed(),
                sim.shard_windows_skipped(),
            );
        }
        c.add(run.boundaries, run.frame_mismatches);
        results.push((mesh::digest(&sim), run.run_ns));
    }
    c.check(
        results[0].0 == results[1].0,
        "mesh digest at K = 1 equals K = nproc",
    );
    m.set(
        "netsim.parallel_speedup",
        results[0].1 as f64 / results[1].1.max(1) as f64,
        "x",
    );
}

/// Traced `mesh`: an untraced half, a traced half with a span per
/// simulated period, then the shard-count comparison.
pub fn mesh_traced(
    seed: u64,
    secs_budget: f64,
    m: &mut Metrics,
    c: &mut Checks,
    tracer: &mut Tracer,
) {
    let phases = Arc::new(mesh_phases(seed, mesh::nodes(), mesh::PERIOD_US));
    let half = secs_budget / 2.0;

    let mut setup = mesh_setup(
        seed,
        &phases,
        nproc(),
        &mut Anchor::new(AnchorKind::Compute),
    );
    let started = Instant::now();
    let untraced = mesh::run(&mut setup.sim, &phases, |_| {
        started.elapsed().as_secs_f64() >= half
    });
    mesh_checks(c, &untraced, &setup.sim.stats());
    drop(setup);

    let mut setup = mesh_setup(
        seed,
        &phases,
        nproc(),
        &mut Anchor::new(AnchorKind::Compute),
    );
    let started = Instant::now();
    let mut traced = mesh::RunStats::default();
    while traced.boundaries == 0 || started.elapsed().as_secs_f64() < half {
        let span = tracer.open("mesh.period", traced.boundaries);
        let period = mesh::run(&mut setup.sim, &phases, |_| true);
        tracer.close(span);
        traced.run_ns += period.run_ns;
        traced.frames += period.frames;
        traced.boundaries += period.boundaries;
        traced.frame_mismatches += period.frame_mismatches;
        traced.step_ns.extend(period.step_ns);
    }
    let medium = setup.sim.stats();
    mesh_checks(c, &traced, &medium);
    let steps = traced.step_ns.len() as f64;
    netsim_counts(m, true, &medium);
    medium_counts_per_call(m, steps);
    m.set("netsim.topology.build_s", setup.topology_s, "s");
    m.set("netsim.sim.build_s", setup.sim_s, "s");
    m.set("netsim.bytes_per_node", setup.bytes_per_node, "B");
    let rate = |r: &mesh::RunStats| r.frames as f64 / r.run_ns as f64;
    m.set(
        "trace.overhead_pct",
        (rate(&untraced) / rate(&traced) - 1.0) * 100.0,
        "%",
    );
    let (executed, skipped) = (
        setup.sim.windows_executed(),
        setup.sim.shard_windows_skipped(),
    );
    drop(setup);

    mesh_speedup(seed, &phases, 2, m, c, tracer);
    // Window counts of the sharded run; the engine's self time comes
    // from the single-shard run, where callbacks run inline.
    m.set("netsim.windows", executed as f64 / steps, "count");
    m.set("netsim.windows_skipped", skipped as f64 / steps, "count");
    m.set(
        "netsim.ns_per_window",
        traced.run_ns as f64 / executed.max(1) as f64,
        "ns",
    );
}

/// Mesh layers for another workload: set-up timings and the shard-count
/// comparison over one period.
fn mesh_probe(seed: u64, m: &mut Metrics, c: &mut Checks, tracer: &mut Tracer) {
    let phases = Arc::new(mesh_phases(seed, mesh::nodes(), mesh::PERIOD_US));
    let setup = mesh_setup(
        seed,
        &phases,
        nproc(),
        &mut Anchor::new(AnchorKind::Compute),
    );
    m.set("netsim.topology.build_s", setup.topology_s, "s");
    m.set("netsim.sim.build_s", setup.sim_s, "s");
    m.set("netsim.bytes_per_node", setup.bytes_per_node, "B");
    drop(setup);
    let mut scratch = Metrics::default();
    mesh_speedup(seed, &phases, 1, &mut scratch, c, tracer);
    m.set(
        "netsim.parallel_speedup",
        scratch.get("netsim.parallel_speedup").unwrap_or(0.0),
        "x",
    );
}

// ----------------------------------------------------------------- retrid

/// Wall time of one chunk of in-process requests; the anchor is timed
/// after each.
const RETRID_CHUNK: Duration = Duration::from_millis(50);

/// Requests served between two reads of the clock within a chunk.
const RETRID_BATCH: usize = 64;

/// Requests each set-up serves before anything is timed.
const RETRID_WARMUP: usize = 20_000;

/// Starts an in-process service, primes every domain and serves the
/// warm-up requests.
fn retrid_inproc(seed: u64, c: &mut Checks) -> InProc {
    let (mut client, primed) = InProc::start(seed, retrid_shards());
    c.check(primed, "priming allocations answered");
    let failed = (0..RETRID_WARMUP)
        .filter(|_| !client.serve_next().ok)
        .count();
    c.add(RETRID_WARMUP as u64, failed as u64);
    client
}

/// What one chunk of in-process requests measured.
struct Chunk {
    requests: u64,
    service_ns: u64,
    p50_ns: u64,
    tail_ns: u64,
    ended: Instant,
}

/// Serves requests for [`RETRID_CHUNK`], counting each in `c`.
fn retrid_chunk(client: &mut InProc, sample: &mut Vec<u64>, c: &mut Checks) -> Chunk {
    sample.clear();
    let mut failed = 0;
    let started = Instant::now();
    while started.elapsed() < RETRID_CHUNK {
        for _ in 0..RETRID_BATCH {
            let served = client.serve_next();
            sample.push(served.ns);
            failed += u64::from(!served.ok);
        }
    }
    let ended = Instant::now();
    c.add(sample.len() as u64, failed);
    let service_ns = sample.iter().sum();
    sample.sort_unstable();
    Chunk {
        requests: sample.len() as u64,
        service_ns,
        p50_ns: percentile(sample, 0.5),
        tail_ns: tail_of(sample),
        ended,
    }
}

/// Where among its chunks a `retrid` run reads each figure: the fastest
/// tenth. Contention from other tenants of the host only ever slows a
/// chunk, and on a 2-vCPU shared host it slowed whole runs by up to 50%;
/// read at the fast tenth, the anchor-scaled figures of ten runs spread
/// 6–9% (quartile distance over median) where their medians over chunks
/// spread 8–10% and their unscaled medians 18–20%.
const CHUNK_QUANTILE: f64 = 0.1;

/// Set-up repetitions of `retrid`, whose median is `setup_s`: one
/// takes well under 0.1 s.
const RETRID_SETUP_REPS: usize = 15;

/// `(ops_per_s, p50_us, p90_us)` of `chunks`, each chunk's times scaled
/// by its factor: requests per second of service time, and each chunk's
/// median and p90, each read at [`CHUNK_QUANTILE`] over the chunks.
fn retrid_figures(chunks: &[Chunk], factors: &[f64]) -> (f64, f64, f64) {
    let scaled = |of: fn(&Chunk) -> f64| -> f64 {
        let v: Vec<f64> = chunks.iter().zip(factors).map(|(k, f)| of(k) * f).collect();
        quantile(&v, CHUNK_QUANTILE)
    };
    let ns_per_request = scaled(|k| k.service_ns as f64 / k.requests as f64);
    (
        1e9 / ns_per_request,
        scaled(|k| k.p50_ns as f64) / 1e3,
        scaled(|k| k.tail_ns as f64) / 1e3,
    )
}

/// Untraced `retrid`: the generated mix served in process, one request
/// at a time, in chunks with an anchor sample after each.
pub fn retrid_e2e(seed: u64, secs_budget: f64, m: &mut Metrics, c: &mut Checks) {
    // Each request is a few hash-table updates and a buffer encode; the
    // compute anchor's large sort tracked its drift worse than no
    // anchor at all.
    let mut anchor = Anchor::new(AnchorKind::Table);
    let mut setup = SetupTimes::default();
    let mut client = None;
    for _ in 0..RETRID_SETUP_REPS {
        drop(client.take());
        let t = Instant::now();
        client = Some(retrid_inproc(seed, c));
        setup.record(t, &mut anchor);
    }
    let mut client = client.expect("at least one set-up");
    let mut sample = Vec::new();
    let mut chunks = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < secs_budget {
        chunks.push(retrid_chunk(&mut client, &mut sample, c));
        anchor.sample();
    }
    let (checks, failures) = client.check_final();
    if failures > 0 {
        eprintln!("check failed: {failures} final STATS reconciliation checks");
    }
    c.add(checks, failures);
    let (ops, p50, p90) = retrid_figures(&chunks, &vec![1.0; chunks.len()]);
    eprintln!(
        "unscaled: ops_per_s {ops} p50_us {p50} p90_us {p90} setup_s {}",
        setup.median_s()
    );
    let factors: Vec<f64> = chunks.iter().map(|k| anchor.factor_at(k.ended)).collect();
    let (ops, p50, p90) = retrid_figures(&chunks, &factors);
    m.set("ops_per_s", ops, "1/s");
    m.set("p50_us", p50, "us");
    m.set("p90_us", p90, "us");
    m.set("setup_s", setup.scaled_s(&anchor), "s");
    eprintln!(
        "latency sample: {} requests in {} chunks, tail=p90 per chunk",
        chunks.iter().map(|k| k.requests).sum::<u64>(),
        chunks.len()
    );
    eprintln!(
        "anchor time factor over the run: {:.4}",
        anchor.time_factor()
    );
}

/// Rate of the open-loop reference step over TCP, requests/s (all
/// connections).
pub const REF_RATE: f64 = 4_000.0;

/// Offered rates of the capacity ladder, requests/s: 7% apart from
/// 16k/s up.
#[must_use]
pub fn ladder() -> Vec<f64> {
    (0..LADDER_STEPS)
        .map(|k| (16_000.0 * 1.07f64.powi(k)).round())
        .collect()
}

/// Steps in the ladder (16k/s to 50k/s).
pub const LADDER_STEPS: i32 = 18;

/// The ladder's latency limit on the tail ([`TAIL_Q`]) timed from due
/// time.
pub const LATENCY_LIMIT_NS: u64 = 1_000_000;

/// Connections (and sender threads): one per core, at most four.
fn retrid_conns() -> usize {
    nproc().clamp(1, 4)
}

fn retrid_shards() -> u16 {
    u16::try_from(nproc().clamp(1, 64)).expect("small")
}

type TcpConns = Vec<Conn<TcpStream, TcpStream>>;

/// Starts a server, connects and primes every connection.
fn retrid_start(seed: u64, c: &mut Checks) -> std::io::Result<(Server, TcpConns)> {
    let shards = retrid_shards();
    let mut config = ServiceConfig::new(seed);
    config.shards = shards;
    let server = Server::start(&config, "127.0.0.1:0")?;
    let mut conns = retrid::connect(server.addr(), seed, shards, retrid_conns())?;
    let n = conns.len();
    for conn in &mut conns {
        let ok = retrid::prime(conn, shards, n)?;
        c.check(ok, "priming allocations answered");
    }
    Ok((server, conns))
}

/// The highest ladder rate that met the limit, interpolated on log
/// scales toward the next rate by where its tail crossed the limit.
/// `steps` holds `(rate, tail)` with `None` for a failed step.
#[must_use]
pub fn max_rate(steps: &[(f64, Option<u64>)], limit_ns: u64) -> f64 {
    let pass = |s: &(f64, Option<u64>)| s.1.is_some_and(|t| t <= limit_ns);
    let Some(best) = steps.iter().rposition(pass) else {
        return 0.0;
    };
    let (r1, t1) = (steps[best].0, steps[best].1.expect("passed") as f64);
    match steps.get(best + 1) {
        Some(&(r2, Some(t2))) if t2 as f64 > t1 && r2 > r1 => {
            let slope = ((t2 as f64).ln() - t1.ln()) / (r2.ln() - r1.ln());
            let r = r1 * (((limit_ns as f64).ln() - t1.ln()) / slope).exp();
            r.clamp(r1, r2)
        }
        _ => r1,
    }
}

fn step_tail(step: &StepStats) -> Option<u64> {
    if step.failed > 0 || step.latencies_ns.is_empty() {
        return None;
    }
    let mut sorted = step.latencies_ns.clone();
    sorted.sort_unstable();
    Some(tail_of(&sorted))
}

/// What follows the reference step in a `retrid` run over TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing: the reference step alone.
    ReferenceOnly,
    /// The capacity ladder, for the highest rate within the latency
    /// limit.
    Ladder,
}

/// What a `retrid` run over TCP measured.
struct RetridRun {
    reference: StepStats,
    max_rps: f64,
    ids_per_s: f64,
    backlog_max: u64,
    stats: Vec<StrategyStats>,
}

/// Climbs the ladder until two rates in a row miss the limit. Returns
/// the highest rate within it and the identifiers per second delivered
/// at that rate.
fn climb(
    conns: &mut TcpConns,
    clock: Instant,
    secs_budget: f64,
    backlog_max: &mut u64,
) -> std::io::Result<(f64, f64)> {
    let shards = retrid_shards();
    let rates = ladder();
    let step_secs = secs_budget / rates.len() as f64;
    let mut steps: Vec<(f64, Option<u64>)> = Vec::new();
    let mut ids = Vec::new();
    let mut fails = 0;
    let started = Instant::now();
    for rate in rates {
        if started.elapsed().as_secs_f64() > secs_budget {
            break;
        }
        // A failed step is run once more: a burst of host preemption can
        // spoil one step, but rarely two in a row.
        let mut best: Option<(StepStats, Option<u64>)> = None;
        for _attempt in 0..2 {
            let step = retrid::run_parallel_step(conns, clock, rate, step_secs, shards, false)?;
            let t = step_tail(&step);
            *backlog_max = (*backlog_max).max(step.backlog_max);
            eprintln!(
                "ladder {rate:>7.0}/s: tail {:>9} ns, failed {}, backlog {}",
                t.map_or("-".to_string(), |v| v.to_string()),
                step.failed,
                step.backlog_max
            );
            if best
                .as_ref()
                .is_none_or(|(_, bt)| t.unwrap_or(u64::MAX) < bt.unwrap_or(u64::MAX))
            {
                best = Some((step, t));
            }
            if t.is_some_and(|v| v <= LATENCY_LIMIT_NS) {
                break;
            }
        }
        let (step, t) = best.expect("one attempt");
        steps.push((rate, t));
        ids.push(step.ids as f64 / step_secs);
        fails = if t.is_some_and(|v| v <= LATENCY_LIMIT_NS) {
            0
        } else {
            fails + 1
        };
        if fails == 2 {
            break;
        }
    }
    let ids_per_s = steps
        .iter()
        .rposition(|s| s.1.is_some_and(|t| t <= LATENCY_LIMIT_NS))
        .map_or(0.0, |best| ids[best]);
    Ok((max_rate(&steps, LATENCY_LIMIT_NS), ids_per_s))
}

/// Starts the service, runs the reference step and then `phase`, and
/// checks the server's final statistics against what the clients saw.
/// With `clock` given, the reference step keeps a per-request timeline
/// on it.
fn retrid_run(
    seed: u64,
    secs_budget: f64,
    phase: Phase,
    clock: Option<Instant>,
    c: &mut Checks,
) -> std::io::Result<RetridRun> {
    let (server, mut conns) = retrid_start(seed, c)?;
    let shards = retrid_shards();
    let timeline = clock.is_some();
    let clock = clock.unwrap_or_else(Instant::now);
    let ref_secs = match phase {
        Phase::ReferenceOnly => secs_budget,
        Phase::Ladder => secs_budget * 0.3,
    };
    let reference =
        retrid::run_parallel_step(&mut conns, clock, REF_RATE, ref_secs, shards, timeline)?;
    c.add(reference.sent, reference.failed);
    let mut run = RetridRun {
        max_rps: 0.0,
        ids_per_s: reference.ids as f64 / ref_secs,
        backlog_max: reference.backlog_max,
        stats: Vec::new(),
        reference,
    };
    if phase == Phase::Ladder {
        (run.max_rps, run.ids_per_s) =
            climb(&mut conns, clock, secs_budget * 0.7, &mut run.backlog_max)?;
    }
    let mut writer = conns[0].writer.try_clone()?;
    let mut reader = conns[0].reader.try_clone()?;
    match retrid::request_sync(
        &mut writer,
        &mut reader,
        &Request::Stats { shard: ALL_SHARDS },
    )? {
        Reply::Stats(stats) => run.stats = stats,
        other => c.check(false, &format!("final STATS answered {other:?}")),
    }
    let books: Vec<_> = conns.iter().map(|conn| Arc::clone(&conn.book)).collect();
    let guards: Vec<_> = books.iter().map(|b| b.lock().expect("book lock")).collect();
    let refs: Vec<&retrid::Book> = guards.iter().map(|g| &**g).collect();
    let (checks, failures) = retrid::check_final_stats(&run.stats, &refs);
    if failures > 0 {
        eprintln!("check failed: {failures} final STATS reconciliation checks");
    }
    c.add(checks, failures);
    drop(guards);
    drop((writer, reader));
    drop(conns);
    server.shutdown();
    Ok(run)
}

fn retrid_layers(m: &mut Metrics, run: &RetridRun) {
    m.set("retrid.max_rps", run.max_rps, "1/s");
    m.set("retrid.ids_per_s", run.ids_per_s, "1/s");
    m.set("retrid.backlog_max", run.backlog_max as f64, "count");
    let mut lag = run.reference.gen_lag_ns.clone();
    lag.sort_unstable();
    m.set(
        "retrid.gen_lag_us",
        percentile(&lag, 0.99) as f64 / 1e3,
        "us",
    );
    // BUSY is counted per shard and repeated on each strategy's record.
    let busy: u64 = run
        .stats
        .iter()
        .filter(|s| s.strategy == StrategyKind::Uniform)
        .map(|s| s.busy)
        .sum();
    m.set("service.busy", busy as f64, "count");
    for kind in &StrategyKind::ALL[..4] {
        let of = run.stats.iter().filter(|s| s.strategy == *kind);
        let observed: u64 = of.clone().map(|s| s.collisions).sum();
        let predicted: f64 = of.map(|s| s.predicted_collisions).sum();
        m.set(
            format!("service.collisions_observed.{}", kind.name()),
            observed as f64,
            "count",
        );
        m.set(
            format!("service.collisions_predicted.{}", kind.name()),
            predicted,
            "count",
        );
    }
}

/// Requests the tracing overhead of `retrid` is measured on.
const OVERHEAD_REQUESTS: usize = 20_000;

/// Traced `retrid`: the in-process requests served untraced, then the
/// same requests replayed with a span per call (the tracing overhead);
/// then over TCP the reference step and the capacity ladder untraced on
/// half the time, and the reference step again with one span per
/// request.
///
/// # Errors
///
/// Returns transport errors.
pub fn retrid_traced(
    seed: u64,
    secs_budget: f64,
    m: &mut Metrics,
    c: &mut Checks,
    tracer: &mut Tracer,
) -> std::io::Result<()> {
    let shards = retrid_shards();
    let (mut client, primed) = InProc::start(seed, shards);
    c.check(primed, "priming allocations answered");
    let t = Instant::now();
    let failed = (0..OVERHEAD_REQUESTS)
        .filter(|_| !client.serve_next().ok)
        .count();
    let untraced_s = secs(t.elapsed());
    c.add(OVERHEAD_REQUESTS as u64, failed as u64);
    let t = Instant::now();
    service::replay(seed, shards, OVERHEAD_REQUESTS, tracer);
    let traced_s = secs(t.elapsed());
    m.set(
        "trace.overhead_pct",
        (traced_s / untraced_s - 1.0) * 100.0,
        "%",
    );

    let untraced = retrid_run(seed, secs_budget / 2.0, Phase::Ladder, None, c)?;
    retrid_layers(m, &untraced);
    let traced = retrid_run(
        seed,
        secs_budget * 0.15,
        Phase::ReferenceOnly,
        Some(tracer.epoch()),
        c,
    )?;
    request_spans(tracer, &traced.reference);
    Ok(())
}

/// Span names of the open-loop requests, by kind.
const RETRID_REQUEST_SPANS: [&str; 4] = [
    "retrid.request.alloc_small",
    "retrid.request.alloc_bulk",
    "retrid.request.release",
    "retrid.request.stats",
];

/// One span per request of a step whose clock was the tracer's epoch,
/// from due time to reply.
fn request_spans(tracer: &mut Tracer, step: &StepStats) {
    for &(kind, request, due, done) in &step.timeline {
        tracer.push(Span {
            name: RETRID_REQUEST_SPANS[OpKind::ALL
                .iter()
                .position(|&k| k == kind)
                .expect("listed kind")],
            start_ns: due,
            end_ns: done,
            parent: None,
            request,
            calls: 1,
        });
    }
}

/// A short reference step and ladder, for the `retrid` layers of
/// another workload.
fn retrid_probe(seed: u64, m: &mut Metrics, c: &mut Checks) -> std::io::Result<()> {
    let run = retrid_run(seed, 6.0, Phase::Ladder, None, c)?;
    retrid_layers(m, &run);
    Ok(())
}

/// The in-process service probes every traced run makes.
fn service_probe(seed: u64, m: &mut Metrics, tracer: &mut Tracer) -> std::io::Result<()> {
    let shards = retrid_shards();
    service::replay(seed, shards, 20_000, tracer);
    service::mint(seed, 200_000, tracer);
    service::tcp_round_trips(seed, shards, 2_000, tracer)?;
    // `service.*` spans come from these calls only.
    let spans = tracer.spans();
    let times = self_times(spans);
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    for (k, kind) in crate::inputs::OpKind::ALL.iter().enumerate() {
        let requests = get(service::REQUEST_SPANS[k]).calls.max(1) as f64;
        m.set(
            format!("service.proto.codec_ns.{}", kind.name()),
            get(service::CODEC_SPANS[k]).total_ns as f64 / requests,
            "ns",
        );
        m.set(
            format!("service.shard.handle_ns.{}", kind.name()),
            get(service::HANDLE_SPANS[k]).total_ns as f64 / requests,
            "ns",
        );
    }
    for (kind, name) in StrategyKind::ALL.iter().zip(service::MINT_SPANS) {
        let t = get(name);
        m.set(
            format!("service.strategy.mint_ns_per_id.{}", kind.name()),
            t.total_ns as f64 / t.calls.max(1) as f64,
            "ns",
        );
    }
    let mut rtt: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == service::TCP_SPAN)
        .map(|s| s.duration_ns())
        .collect();
    rtt.sort_unstable();
    let rtt = percentile(&rtt, 0.5) as f64;
    m.set("service.tcp.rtt_ns", rtt, "ns");
    let small = m.get("service.proto.codec_ns.alloc_small").unwrap_or(0.0)
        + m.get("service.shard.handle_ns.alloc_small").unwrap_or(0.0);
    m.set("service.transport.self_ns", rtt - small, "ns");
    Ok(())
}

/// A traced run of `workload`: its own traced pass, then probes for the
/// layers it does not drive, so every per-layer metric is reported.
///
/// # Errors
///
/// Returns transport errors.
pub fn traced(
    workload: &str,
    seed: u64,
    secs_budget: f64,
    m: &mut Metrics,
    c: &mut Checks,
    tracer: &mut Tracer,
) -> std::io::Result<()> {
    match workload {
        "testbed" => testbed_traced(seed, secs_budget, m, c, tracer),
        "mesh" => mesh_traced(seed, secs_budget, m, c, tracer),
        _ => retrid_traced(seed, secs_budget, m, c, tracer)?,
    }
    if workload != "testbed" {
        testbed_probe(seed, workload == "retrid", m, c, tracer);
    }
    if workload != "mesh" {
        mesh_probe(seed, m, c, tracer);
    }
    if workload != "retrid" {
        retrid_probe(seed, m, c)?;
    }
    service_probe(seed, m, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_takes_the_highest_passing_step_and_interpolates() {
        let ms = 1_000_000;
        // Passes at 1k and 2k, fails at 4k with 8 ms: the 2 ms crossing
        // on log scales lies halfway between 1 ms at 2k and 8 ms at 4k,
        // at one third of the log distance: 2k × 2^(1/3).
        let steps = [
            (1_000.0, Some(ms / 2)),
            (2_000.0, Some(ms)),
            (4_000.0, Some(8 * ms)),
        ];
        let r = max_rate(&steps, 2 * ms);
        assert!((r - 2_000.0 * 2f64.powf(1.0 / 3.0)).abs() < 1e-6, "{r}");
        // A failed step above the best one pins it to its ladder rate.
        let steps = [(1_000.0, Some(ms)), (2_000.0, None)];
        assert_eq!(max_rate(&steps, 2 * ms), 1_000.0);
        // An early miss does not hide a later pass.
        let steps = [
            (1_000.0, Some(3 * ms)),
            (2_000.0, Some(ms)),
            (4_000.0, None),
        ];
        assert_eq!(max_rate(&steps, 2 * ms), 2_000.0);
        assert_eq!(max_rate(&[(1_000.0, None)], 2 * ms), 0.0);
    }
}
