//! Shard-count invariance smoke test on the 10k-node mesh.
//!
//! Runs a 10,000-node staggered-ALOHA grid twice — once on a single
//! spatial shard, once on `--shards N` (default: the host's available
//! parallelism) — and **asserts the two runs' digests are identical**:
//! same medium stats, same full trace-event stream, same energy totals.
//! That is the sharded engine's central contract (the event stream is
//! shard-count-invariant by construction), and this binary is the
//! cheapest end-to-end proof of it, which is why CI's `scale-smoke`
//! job runs it on every push.
//!
//! Usage: `scale_smoke [--quick | --paper] [--shards N] [--json PATH]`
//!
//! With `--json`, writes `{schema, seed, effort, shards, digest,
//! frames_sent, wall_ns_serial, wall_ns_sharded, speedup_x1000}` for
//! the CI artifact diff.

use std::time::{Duration, Instant};

use retri::hash::{fnv1a, FNV_OFFSET};
use retri_bench::{Cli, EffortLevel};
use retri_netsim::prelude::*;

fn main() {
    let cli = Cli::from_env(
        &["--quick", "--paper", "--shards", "--json"],
        "usage: scale_smoke [--quick | --paper] [--shards N] [--json PATH]",
    );
    let level = cli.effort;
    let quick = level == EffortLevel::Quick;
    let shards = cli.shards.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    });
    let seed = 0xC0FF_EE00_0000_0005;

    eprintln!("10k-node mesh: {} effort", level.name());
    let topo = mesh_10k_topology();
    eprintln!("running on 1 shard...");
    let serial = mesh_10k_digest(&topo, seed, quick, 1);
    eprintln!(
        "  digest {:016x}  frames_sent {}  wall {:.2?}",
        serial.digest, serial.frames_sent, serial.wall
    );
    eprintln!("running on {shards} shards...");
    let sharded = mesh_10k_digest(&topo, seed, quick, shards);
    eprintln!(
        "  digest {:016x}  frames_sent {}  wall {:.2?}",
        sharded.digest, sharded.frames_sent, sharded.wall
    );

    assert_eq!(
        serial.digest, sharded.digest,
        "shard-count invariance violated: 1-shard and {shards}-shard runs diverged"
    );
    let speedup = serial.wall.as_secs_f64() / sharded.wall.as_secs_f64().max(1e-9);
    println!(
        "OK: digests identical across 1 and {shards} shards ({} trace-visible frames)",
        serial.frames_sent
    );
    println!(
        "wall-clock: 1 shard {:.2?}, {shards} shards {:.2?} ({speedup:.2}x)",
        serial.wall, sharded.wall
    );

    if let Some(path) = &cli.json {
        use serde_json::Value;
        let doc = Value::Object(vec![
            (
                "schema".to_string(),
                Value::String("retri-scale-smoke/v1".to_string()),
            ),
            ("seed".to_string(), Value::UInt(seed)),
            (
                "effort".to_string(),
                Value::String(level.name().to_string()),
            ),
            ("shards".to_string(), Value::UInt(shards as u64)),
            (
                "digest".to_string(),
                Value::String(format!("{:016x}", serial.digest)),
            ),
            ("frames_sent".to_string(), Value::UInt(serial.frames_sent)),
            (
                "wall_ns_serial".to_string(),
                Value::UInt(serial.wall.as_nanos() as u64),
            ),
            (
                "wall_ns_sharded".to_string(),
                Value::UInt(sharded.wall.as_nanos() as u64),
            ),
            (
                "speedup_x1000".to_string(),
                Value::UInt((speedup * 1000.0) as u64),
            ),
        ]);
        retri_bench::write_json(path, &doc);
    }
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

/// The 10k-node topology: a 100x100 grid with 30 m spacing and 45 m
/// range, so every interior node hears its 8 surrounding neighbors.
/// Built once and shared by both runs, outside the timed region.
fn mesh_10k_topology() -> Topology {
    Topology::grid(100, 100, 30.0, 45.0)
}

/// Builds and runs the 10k-node mesh on `shards` spatial shards with
/// tracing on, returning the finished simulator for inspection.
fn run_mesh_10k(topo: &Topology, seed: u64, quick: bool, shards: usize) -> ShardedSim<MeshSender> {
    let sim_secs = if quick { 2 } else { 5 };
    let mut sim = ShardedSimBuilder::new(seed)
        .mac(MacConfig::aloha())
        .range(45.0)
        .shards(shards)
        .build_with_topology(topo, |_| MeshSender);
    sim.enable_trace(1 << 18);
    sim.run_until(SimTime::from_secs(sim_secs));
    assert!(sim.stats().frames_sent > 0);
    sim
}

/// A digest over one run's observable output plus the wall-clock it
/// took.
struct MeshDigest {
    /// FNV-1a over the medium stats, the full trace-event stream, the
    /// tracer's drop counter, and the summed energy meter.
    digest: u64,
    /// Frames the 10k nodes put on the air, for a human-readable check.
    frames_sent: u64,
    /// Wall-clock of the build and `run_until` region.
    wall: Duration,
}

/// Runs the 10k-node mesh and digests every observable output. Two
/// calls with the same `(seed, quick)` must return equal digests for
/// **any** shard counts — that is the sharded engine's byte-identity
/// contract.
fn mesh_10k_digest(topo: &Topology, seed: u64, quick: bool, shards: usize) -> MeshDigest {
    let started = Instant::now();
    let sim = run_mesh_10k(topo, seed, quick, shards);
    let wall = started.elapsed();
    let stats = sim.stats();
    let mut hash = fnv1a(FNV_OFFSET, format!("{stats:?}").as_bytes());
    let tracer = sim.tracer().expect("trace was enabled");
    for event in tracer.events() {
        hash = fnv1a(hash, format!("{event:?}").as_bytes());
    }
    hash = fnv1a(hash, &tracer.dropped().to_le_bytes());
    hash = fnv1a(hash, format!("{:?}", sim.total_meter()).as_bytes());
    MeshDigest {
        digest: hash,
        frames_sent: stats.frames_sent,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_topology_is_10k_nodes() {
        let topo = mesh_10k_topology();
        assert_eq!(topo.node_ids().count(), 10_000);
        // Interior nodes must hear all 8 surrounding neighbors —
        // otherwise the "mesh" degenerates into disconnected rows.
        let diagonal = (2.0_f64 * 30.0 * 30.0).sqrt();
        assert!(diagonal < 45.0);
    }
}
