//! The `testbed` workload: the paper's Section 5.1 experiment, one
//! `Testbed::paper` trial after another on one thread.
//!
//! The untraced path calls `Testbed::run`. The traced path builds the
//! same network from the same public parts, with every node wrapped in
//! [`Timed`] so the AFF callbacks can be told apart from the engine,
//! and must produce the same [`TrialDigest`].

use std::time::Instant;

use retri::IdentifierSpace;
use retri_aff::{AffNode, AffReceiver, AffSender, Testbed, TrialResult, WireConfig};
use retri_netsim::prelude::*;

use crate::inputs::TrialSpec;
use crate::trace::Tracer;

/// A protocol wrapper that times its inner protocol's callbacks.
#[derive(Debug)]
pub struct Timed<P> {
    /// The wrapped protocol.
    pub inner: P,
    /// Whether callbacks are timed (off, the wrapper only forwards).
    pub enabled: bool,
    /// Nanoseconds spent in callbacks.
    pub ns: u64,
    /// Callbacks made.
    pub calls: u64,
}

impl<P> Timed<P> {
    /// Wraps `inner`, timing its callbacks when `enabled`.
    pub fn new(inner: P, enabled: bool) -> Self {
        Timed {
            inner,
            enabled,
            ns: 0,
            calls: 0,
        }
    }

    fn time<T>(&mut self, f: impl FnOnce(&mut P) -> T) -> T {
        if !self.enabled {
            return f(&mut self.inner);
        }
        let started = Instant::now();
        let out = f(&mut self.inner);
        self.ns += started.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.time(|p| p.on_start(ctx));
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        self.time(|p| p.on_frame(ctx, frame));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        self.time(|p| p.on_timer(ctx, timer));
    }

    fn population_estimate(&self, now: SimTime) -> Option<u64> {
        self.inner.population_estimate(now)
    }
}

/// The fields of a trial's outcome that the untraced and traced paths
/// must agree on, and the per-trial readings the report uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialDigest {
    /// FNV-1a over every field below.
    pub digest: u64,
    /// Packets the receiver got intact by ground truth.
    pub truth_delivered: u64,
    /// Packets delivered on AFF identifiers alone.
    pub aff_delivered: u64,
    /// Packets offered by all senders.
    pub packets_offered: u64,
    /// Identifier conflicts the reassembler saw.
    pub identifier_conflicts: u64,
    /// Medium counters.
    pub medium: MediumStats,
    /// `1 − aff/truth`.
    pub loss: f64,
}

fn fnv1a(hash: &mut u64, value: u64) {
    for b in value.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

impl TrialDigest {
    fn new(
        truth_delivered: u64,
        aff_delivered: u64,
        packets_offered: u64,
        identifier_conflicts: u64,
        medium: MediumStats,
        loss: f64,
    ) -> Self {
        let mut digest = 0xCBF2_9CE4_8422_2325;
        for v in [
            truth_delivered,
            aff_delivered,
            packets_offered,
            identifier_conflicts,
            medium.frames_sent,
            medium.deliveries,
            medium.rf_collisions,
            medium.half_duplex_losses,
            loss.to_bits(),
        ] {
            fnv1a(&mut digest, v);
        }
        TrialDigest {
            digest,
            truth_delivered,
            aff_delivered,
            packets_offered,
            identifier_conflicts,
            medium,
            loss,
        }
    }

    fn from_result(r: &TrialResult) -> Self {
        TrialDigest::new(
            r.truth_delivered,
            r.aff_delivered,
            r.packets_offered,
            r.identifier_conflicts,
            r.medium,
            r.collision_loss_rate,
        )
    }
}

/// The testbed of one trial: the paper's configuration on one shard.
#[must_use]
pub fn testbed(spec: &TrialSpec) -> Testbed {
    let mut testbed = Testbed::paper(spec.id_bits, spec.policy());
    testbed.shards = 1;
    testbed
}

/// Runs one trial through `Testbed::run`.
#[must_use]
pub fn run_plain(spec: &TrialSpec) -> TrialDigest {
    TrialDigest::from_result(&testbed(spec).run(spec.seed))
}

/// Per-layer readings of one traced trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialLayers {
    /// Fragments the senders queued.
    pub fragments_sent: u64,
    /// Windows the engine executed.
    pub windows: u64,
    /// Windows shards skipped.
    pub windows_skipped: u64,
}

/// Runs one trial on the same network `Testbed::run` builds, with each
/// node's callbacks timed. Records a `testbed.trial` span holding a
/// `netsim.build` and a `netsim.run_until` span; the latter gets one
/// aggregate child span each for sender and receiver callbacks.
#[must_use]
pub fn run_traced(
    spec: &TrialSpec,
    request: u64,
    tracer: &mut Tracer,
) -> (TrialDigest, TrialLayers) {
    let tb = testbed(spec);
    let trial = tracer.open("testbed.trial", request);
    let build = tracer.open("netsim.build", request);
    let space = IdentifierSpace::new(tb.id_bits).expect("valid identifier width");
    let wire = WireConfig::aff(space);
    let (transmitters, policy, workload, radio, ttl) = (
        tb.transmitters,
        tb.policy,
        tb.workload,
        tb.radio,
        tb.reassembly_ttl_micros,
    );
    let mut sim = ShardedSimBuilder::new(spec.seed)
        .radio(radio)
        .mac(tb.mac)
        .range(100.0)
        .faults(tb.faults.clone())
        .shards(1)
        .build(move |id: NodeId| {
            let node = if id.index() < transmitters {
                AffNode::Sender(
                    AffSender::new(wire.clone(), radio.max_frame_bytes, policy, workload, None)
                        .expect("testbed wire fits the radio"),
                )
            } else {
                AffNode::Receiver(AffReceiver::new(wire.clone(), ttl))
            };
            Timed::new(node, true)
        });
    let topo = Topology::full_mesh(transmitters + 1, 100.0);
    for id in topo.node_ids() {
        sim.add_node_at(topo.position(id));
    }
    tracer.close(build);
    let run = tracer.open("netsim.run_until", request);
    sim.run_until(tb.workload.stop + SimDuration::from_secs(2));
    tracer.close(run);

    let mut sender_ns = 0;
    let mut sender_calls = 0;
    let mut packets_offered = 0;
    let mut layers = TrialLayers {
        windows: sim.windows_executed(),
        windows_skipped: sim.shard_windows_skipped(),
        ..TrialLayers::default()
    };
    for id in sim.node_ids().take(transmitters) {
        let node = sim.protocol(id);
        sender_ns += node.ns;
        sender_calls += node.calls;
        let stats = node
            .inner
            .as_sender()
            .expect("first nodes are senders")
            .stats();
        packets_offered += stats.packets_sent;
        layers.fragments_sent += stats.fragments_sent;
    }
    let rx_node = sim.protocol(NodeId(transmitters as u32));
    tracer.record("aff.sender", run, sender_ns, sender_calls);
    tracer.record("aff.receiver", run, rx_node.ns, rx_node.calls);
    let rx = rx_node
        .inner
        .as_receiver()
        .expect("last node is the receiver");
    let digest = TrialDigest::new(
        rx.truth_delivered(),
        rx.aff_delivered(),
        packets_offered,
        rx.aff_stats().identifier_conflicts(),
        sim.stats(),
        rx.collision_loss_rate().unwrap_or(0.0),
    );
    tracer.close(trial);
    (digest, layers)
}

/// Mean loss per `(H, policy)` cell, `None` for a cell with no trial.
#[must_use]
pub fn cell_losses(trials: &[(TrialSpec, TrialDigest)]) -> [Option<f64>; 6] {
    let mut sums = [(0.0, 0u32); 6];
    for (spec, digest) in trials {
        let cell = &mut sums[spec.cell()];
        cell.0 += digest.loss;
        cell.1 += 1;
    }
    sums.map(|(sum, n)| (n > 0).then(|| sum / f64::from(n)))
}

/// The sweep's shape checks, as `(ok, what)`: loss does not rise with
/// `H` under either policy (`Listening` can reach zero loss at two
/// widths), and `Listening` loses no more than `Uniform` at each `H`.
#[must_use]
pub fn shape_checks(losses: &[Option<f64>; 6]) -> Vec<(bool, String)> {
    let mut out = Vec::new();
    for listening in [0, 1] {
        for h in 0..2 {
            if let (Some(lo), Some(hi)) =
                (losses[h * 2 + listening], losses[(h + 1) * 2 + listening])
            {
                out.push((
                    hi <= lo,
                    format!(
                        "loss does not rise with H (policy {listening}, cell {h}): {lo} -> {hi}"
                    ),
                ));
            }
        }
    }
    for h in 0..3 {
        if let (Some(uniform), Some(listening)) = (losses[h * 2], losses[h * 2 + 1]) {
            out.push((
                listening <= uniform,
                format!("listening <= uniform at H index {h}: {listening} vs {uniform}"),
            ));
        }
    }
    out
}

/// Per-trial sanity: something was delivered, and AFF never delivers
/// more than ground truth.
#[must_use]
pub fn trial_ok(d: &TrialDigest) -> bool {
    d.truth_delivered > 0
        && d.aff_delivered <= d.truth_delivered
        && d.packets_offered >= d.truth_delivered
        && (0.0..=1.0).contains(&d.loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::testbed_plan;

    #[test]
    fn shape_checks_flag_inverted_sweeps() {
        let good = [
            Some(0.3),
            Some(0.1),
            Some(0.08),
            Some(0.02),
            Some(0.02),
            Some(0.005),
        ];
        assert!(shape_checks(&good).iter().all(|c| c.0));
        let mut bad = good;
        bad[5] = Some(0.5);
        assert!(shape_checks(&bad).iter().any(|c| !c.0));
    }

    #[test]
    fn traced_trial_matches_the_untraced_one() {
        // Full-length trials are the workload; a unit test checks the
        // equivalence on the real configuration but only one trial.
        let spec = testbed_plan(9, 1)[0];
        let plain = run_plain(&spec);
        let mut tracer = Tracer::new();
        let (traced, layers) = run_traced(&spec, 0, &mut tracer);
        assert_eq!(plain, traced);
        assert!(trial_ok(&plain));
        assert!(layers.windows > 0 && layers.fragments_sent > 0);
        let times = crate::trace::self_times(tracer.spans());
        assert!(times["aff.sender"].calls > 1000);
        assert!(times["netsim.run_until"].self_ns > 0);
    }
}
