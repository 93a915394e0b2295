//! The `mesh` workload: a 400 × 250 grid (100k nodes, 30 m spacing,
//! 45 m range) where every node sends a periodic 12-byte ALOHA frame at
//! a phase drawn from the seed, on `K = nproc` shards.

use std::sync::Arc;
use std::time::Instant;

use retri_netsim::prelude::*;

use crate::testbed::Timed;

/// Grid columns.
pub const COLS: usize = 400;
/// Grid rows.
pub const ROWS: usize = 250;
/// Node spacing, m.
pub const SPACING_M: f64 = 30.0;
/// Radio range, m.
pub const RANGE_M: f64 = 45.0;
/// Beacon period, µs. Sized so that on this grid about half of all
/// receptions are delivered and most of the rest collide.
pub const PERIOD_US: u64 = 250_000;
/// Host-timed step of simulated time, µs (a tenth of the period).
pub const STEP_US: u64 = PERIOD_US / 10;
/// Beacon payload length, bytes.
pub const FRAME_BYTES: usize = 12;

/// Number of nodes.
#[must_use]
pub fn nodes() -> usize {
    COLS * ROWS
}

/// A node that sends one frame every [`PERIOD_US`], first at its phase.
#[derive(Debug)]
pub struct Beacon {
    phase_us: u64,
}

impl Protocol for Beacon {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_micros(self.phase_us), 0);
    }

    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: Timer) {
        let payload = FramePayload::from_bytes(vec![0xB5; FRAME_BYTES]).expect("non-empty");
        let _ = ctx.send(payload);
        ctx.set_timer(SimDuration::from_micros(PERIOD_US), 0);
    }
}

/// The topology.
#[must_use]
pub fn topology() -> Topology {
    Topology::grid(COLS, ROWS, SPACING_M, RANGE_M)
}

/// Builds the simulator over `topo` on `shards` shards, with the
/// beacons' callbacks timed when `timed`.
#[must_use]
pub fn build(
    seed: u64,
    topo: &Topology,
    phases: &Arc<Vec<u64>>,
    shards: usize,
    timed: bool,
) -> ShardedSim<Timed<Beacon>> {
    let phases = Arc::clone(phases);
    ShardedSimBuilder::new(seed)
        .mac(MacConfig::aloha())
        .range(RANGE_M)
        .shards(shards)
        .build_with_topology(topo, move |id: NodeId| {
            Timed::new(
                Beacon {
                    phase_us: phases[id.index()],
                },
                timed,
            )
        })
}

/// Frames on the air by `horizon_us`, as the phases imply: one per
/// node per period from its phase on. Exact at multiples of the period
/// (see [`crate::inputs::mesh_phases`]).
#[must_use]
pub fn expected_frames(phases: &[u64], horizon_us: u64) -> u64 {
    phases
        .iter()
        .map(|&p| {
            if horizon_us > p {
                (horizon_us - p).div_ceil(PERIOD_US)
            } else {
                0
            }
        })
        .sum()
}

/// FNV-1a over the medium counters and the network's energy meter.
#[must_use]
pub fn digest<P>(sim: &ShardedSim<P>) -> u64
where
    P: Protocol,
{
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in format!("{:?}{:?}", sim.stats(), sim.total_meter()).bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Host time per simulated step, and the checks made at each period
/// boundary, while running until `stop` returns true.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Host ns per [`STEP_US`] of simulated time.
    pub step_ns: Vec<u64>,
    /// When each step ended.
    pub step_ended: Vec<Instant>,
    /// Host ns spent in `run_until`.
    pub run_ns: u64,
    /// Frames put on the air during the run.
    pub frames: u64,
    /// Period boundaries checked.
    pub boundaries: u64,
    /// Boundaries where the frame count was not the expected one.
    pub frame_mismatches: u64,
}

/// Advances `sim` one step at a time, calling `after_step` after each
/// step (untimed) with whether the step ended on a period boundary, and
/// stops at the first boundary where it returns true. Checks the frame
/// count at every boundary.
pub fn run<P: Protocol + Send>(
    sim: &mut ShardedSim<P>,
    phases: &[u64],
    mut after_step: impl FnMut(bool) -> bool,
) -> RunStats {
    let mut stats = RunStats::default();
    let frames_before = sim.stats().frames_sent;
    loop {
        let next = sim.now() + SimDuration::from_micros(STEP_US);
        let started = Instant::now();
        sim.run_until(next);
        let ns = started.elapsed().as_nanos() as u64;
        stats.step_ns.push(ns);
        stats.step_ended.push(Instant::now());
        stats.run_ns += ns;
        let now_us = sim.now().as_micros();
        let boundary = now_us.is_multiple_of(PERIOD_US);
        if boundary {
            stats.boundaries += 1;
            if sim.stats().frames_sent != expected_frames(phases, now_us) {
                stats.frame_mismatches += 1;
            }
        }
        if after_step(boundary) && boundary {
            break;
        }
    }
    stats.frames = sim.stats().frames_sent - frames_before;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::mesh_phases;

    #[test]
    fn expected_frames_counts_each_firing_before_the_horizon() {
        let phases = [5_000, 100_000, 244_999];
        assert_eq!(expected_frames(&phases, 0), 0);
        assert_eq!(expected_frames(&phases, PERIOD_US), 3);
        assert_eq!(expected_frames(&phases, 100_000), 1);
        assert_eq!(expected_frames(&phases, 100_001), 2);
        assert_eq!(expected_frames(&phases, 3 * PERIOD_US), 9);
    }

    #[test]
    fn a_small_grid_matches_its_frame_count_and_shard_count() {
        let topo = Topology::grid(30, 20, SPACING_M, RANGE_M);
        let phases = Arc::new(mesh_phases(4, topo.len(), PERIOD_US));
        let mut digests = Vec::new();
        for shards in [1, 3] {
            let mut sim = build(4, &topo, &phases, shards, shards == 1);
            let mut periods = 0;
            let stats = run(&mut sim, &phases, |boundary| {
                periods += u32::from(boundary);
                periods == 2
            });
            assert_eq!(stats.boundaries, 2);
            assert_eq!(stats.frame_mismatches, 0);
            assert_eq!(stats.frames, 2 * topo.len() as u64);
            assert_eq!(stats.step_ns.len(), 20);
            let medium = sim.stats();
            assert!(
                medium.deliveries > 0 && medium.rf_collisions > 0,
                "{medium:?}"
            );
            digests.push(digest(&sim));
        }
        assert_eq!(digests[0], digests[1]);
    }
}
