//! The paper's central validation (Section 5.1 / Figure 4), as a test:
//! collision rates measured on the simulated testbed must agree with
//! the Eq. 4 analytic model, and the listening heuristic must beat
//! blind random selection. The last test closes the loop from heard
//! identifiers to the Dynamic-Frame Aloha frame length, L* = N.

use rand::Rng;
use retri::density::DensityEstimator;
use retri_aff::{SelectorPolicy, Testbed};
use retri_model::stats::{Summary, Verdict, Z_99};
use retri_model::{p_collision, Density, IdBits};
use retri_netsim::prelude::*;

const TRIALS: u64 = 4;
const TRIAL_SECS: u64 = 30;

fn measure(bits: u8, policy: SelectorPolicy) -> Summary {
    let mut testbed = Testbed::paper(bits, policy);
    testbed.workload.stop = SimTime::from_secs(TRIAL_SECS);
    let rates: Vec<f64> = (0..TRIALS)
        .map(|trial| testbed.run(0xF16_4000 + trial).collision_loss_rate)
        .collect();
    Summary::of(&rates)
}

#[test]
fn random_selection_tracks_eq4_across_widths() {
    let density = Density::new(5).unwrap();
    for bits in [3u8, 4, 5, 6, 8] {
        let observed = measure(bits, SelectorPolicy::Uniform);
        let predicted = p_collision(IdBits::new(bits).unwrap(), density);
        // Within 5 standard errors or an absolute tolerance. The
        // tolerance widens at very small pools: there the debris of one
        // collision (partial reassemblies holding an identifier) raises
        // the real rate slightly above Eq. 4's instantaneous-overlap
        // count, exactly the regime where the paper presents Eq. 4 as a
        // bound rather than an exact law.
        let abs_tol = if bits <= 3 { 0.12 } else { 0.07 };
        assert!(
            observed.agrees_with(predicted, 5.0, abs_tol),
            "H={bits}: observed {observed}, model {predicted:.4}"
        );
    }
}

#[test]
fn collision_rate_decreases_monotonically_with_width() {
    let mut last = 1.1;
    for bits in [2u8, 4, 6, 8, 10] {
        let observed = measure(bits, SelectorPolicy::Uniform).mean;
        assert!(
            observed < last + 0.02,
            "H={bits}: rate {observed} did not fall below {last}"
        );
        last = observed;
    }
}

#[test]
fn listening_beats_random_selection() {
    // The second series of Figure 4: at widths where the pool exceeds
    // the contention, listening all but eliminates collisions.
    for bits in [4u8, 5, 6] {
        let random = measure(bits, SelectorPolicy::Uniform);
        let listening = measure(
            bits,
            SelectorPolicy::AdaptiveListening {
                concurrency_ttl_micros: 400_000,
            },
        );
        assert!(
            listening.mean < random.mean,
            "H={bits}: listening {listening} not below random {random}"
        );
    }
    // At 5+ bits listening should be nearly collision-free.
    let listening5 = measure(
        5,
        SelectorPolicy::AdaptiveListening {
            concurrency_ttl_micros: 400_000,
        },
    );
    assert!(
        listening5.mean < 0.05,
        "listening at 5 bits should be near zero: {listening5}"
    );
}

/// The paper's exact Section 5.1 protocol: 10 trials × 120 s per
/// identifier size. Expensive (~minutes), so opt-in:
/// `cargo test -p retri-integration-tests --release -- --ignored`.
#[test]
#[ignore = "full paper protocol; run explicitly with -- --ignored"]
fn full_paper_protocol_validation() {
    let density = Density::new(5).unwrap();
    for bits in [4u8, 6, 8, 10] {
        let testbed = Testbed::paper(bits, SelectorPolicy::Uniform);
        let rates: Vec<f64> = (0..10)
            .map(|trial| testbed.run(0xFA9E5 + trial).collision_loss_rate)
            .collect();
        let observed = Summary::of(&rates);
        let predicted = p_collision(IdBits::new(bits).unwrap(), density);
        assert!(
            observed.agrees_with(predicted, 4.0, 0.05),
            "H={bits}: observed {observed}, model {predicted:.4}"
        );
    }
}

#[test]
fn listening_cannot_beat_physics_at_tiny_widths() {
    // With 1-bit identifiers and five senders, even perfect avoidance
    // leaves four contenders on two identifiers.
    let listening = measure(
        1,
        SelectorPolicy::AdaptiveListening {
            concurrency_ttl_micros: 400_000,
        },
    );
    assert!(
        listening.mean > 0.5,
        "no heuristic can save a 2-identifier pool at T=5: {listening}"
    );
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

/// What [`sim_dfa_saturated`] measured: the known-N verdict against
/// the closed form, and the four MACs' throughput on the same clique.
#[derive(Debug, Clone, Copy)]
struct DfaDetail {
    known_attempts: u64,
    known_successes: u64,
    estimated_successes: u64,
    /// Whether the closed-form per-attempt success probability
    /// (1 - 1/L)^(N-1) sits inside the 99% Wilson interval of the
    /// known-N run's observed rate.
    wilson_ok: bool,
    known_deliveries: u64,
    csma_deliveries: u64,
    aloha_deliveries: u64,
}

/// The adaptive-MAC acceptance run: the same saturated 16-node clique
/// under four MACs — Dynamic-Frame Aloha with the population known
/// a-priori, DFA sizing frames from each node's own density estimate,
/// CSMA, and pure ALOHA — for 15 simulated seconds each. A 12-byte
/// payload (3.6 ms airtime) fits the 4 ms slot, so the run is an exact
/// slotted model and the known-N per-attempt success rate must sit
/// inside the 99% Wilson interval of the closed form (1 - 1/L)^(N-1).
fn sim_dfa_saturated(seed: u64) -> DfaDetail {
    let sim_secs = 15;
    let slot = SimDuration::from_millis(4);
    let (known_stats, known) =
        dfa_clique_run(seed, sim_secs, MacConfig::dfa_known(slot, DFA_CLIQUE));
    let (_, estimated) = dfa_clique_run(seed, sim_secs, MacConfig::dfa_estimated(slot, 8));
    let (csma_stats, _) = dfa_clique_run(seed, sim_secs, MacConfig::csma());
    let (aloha_stats, _) = dfa_clique_run(seed, sim_secs, MacConfig::aloha());
    let n = u64::from(DFA_CLIQUE);
    let predicted = retri_model::dfa::attempt_success_probability(n, n);
    let verdict = Verdict::of(known.successes, known.attempts(), Z_99, predicted);
    DfaDetail {
        known_attempts: known.attempts(),
        known_successes: known.successes,
        estimated_successes: estimated.successes,
        wilson_ok: verdict.inside(),
        known_deliveries: known_stats.deliveries,
        csma_deliveries: csma_stats.deliveries,
        aloha_deliveries: aloha_stats.deliveries,
    }
}

#[test]
fn dfa_saturated_closes_the_retri_loop() {
    // The acceptance pair, on a fixed seed (deterministic, so this
    // cannot flake): the known-N run matches the closed form, and
    // sizing frames from the density estimator costs at most 10% of
    // the known-population throughput over the same horizon.
    let d = sim_dfa_saturated(11);
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
