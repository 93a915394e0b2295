//! Property tests for the fault-injection channel.
//!
//! Two statistical contracts from the issue, plus the byte-identity
//! contract that makes fault injection safe to ship:
//!
//! 1. the Gilbert–Elliott bad-state occupancy converges to the analytic
//!    stationary value `to_bad / (to_bad + to_good)` over long runs;
//! 2. the degenerate channel (good == bad) is *exactly* — not just in
//!    distribution — an i.i.d. Bernoulli erasure process;
//! 3. a simulation with `FaultModel::none()` is indistinguishable from
//!    one that never configured faults, for any seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri_netsim::fault::{ChannelState, FaultModel, GilbertElliott};
use retri_netsim::prelude::*;

/// A sender that bursts frames at start; receivers count frames heard.
struct Burst {
    to_send: u32,
    heard: u32,
}

impl Protocol for Burst {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.to_send {
            ctx.send(FramePayload::from_bytes(vec![0x5A; 20]).unwrap())
                .unwrap();
        }
    }
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
        self.heard += 1;
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
}

fn burst_sim(seed: u64, faults: Option<FaultModel>) -> ShardedSim<Burst> {
    let mut builder = ShardedSimBuilder::new(seed);
    if let Some(faults) = faults {
        builder = builder.faults(faults);
    }
    let mut sim = builder.build(|id| Burst {
        to_send: if id == NodeId(0) { 30 } else { 0 },
        heard: 0,
    });
    sim.add_node_at(Position::new(0.0, 0.0));
    sim.add_node_at(Position::new(10.0, 0.0));
    sim.add_node_at(Position::new(0.0, 10.0));
    sim.run_until(SimTime::from_secs(5));
    sim
}

proptest! {
    /// Long-run bad-state occupancy converges to the analytic
    /// stationary probability `to_bad / (to_bad + to_good)`.
    #[test]
    fn gilbert_elliott_occupancy_converges_to_stationary(
        seed in any::<u64>(),
        to_bad in 0.05f64..0.5,
        to_good in 0.05f64..0.5,
    ) {
        let ge = GilbertElliott::bursty(
            ChannelState::clean(),
            ChannelState { bit_error_rate: 0.0, frame_erasure: 1.0 },
            to_bad,
            to_good,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut in_bad = false;
        let steps = 200_000u64;
        let mut bad_steps = 0u64;
        for _ in 0..steps {
            ge.step(&mut in_bad, &mut rng);
            if in_bad {
                bad_steps += 1;
            }
        }
        let observed = bad_steps as f64 / steps as f64;
        let analytic = ge.stationary_bad();
        // With both transition probabilities >= 0.05 the chain mixes in
        // tens of steps; 200k steps put the sampling error well under
        // this tolerance.
        prop_assert!(
            (observed - analytic).abs() < 0.04,
            "occupancy {observed:.4} vs stationary {analytic:.4} \
             (to_bad={to_bad:.3}, to_good={to_good:.3})"
        );
    }

    /// Since erasures only happen in the bad state, the long-run
    /// erased-frame rate converges to `stationary_bad * p_erase`.
    #[test]
    fn gilbert_elliott_loss_rate_matches_stationary_product(
        seed in any::<u64>(),
        to_bad in 0.05f64..0.5,
        to_good in 0.05f64..0.5,
        p_erase in 0.3f64..1.0,
    ) {
        let ge = GilbertElliott::bursty(
            ChannelState::clean(),
            ChannelState { bit_error_rate: 0.0, frame_erasure: p_erase },
            to_bad,
            to_good,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut in_bad = false;
        let frames = 200_000u64;
        let mut erased = 0u64;
        for _ in 0..frames {
            if ge.judge_frame(&mut in_bad, &mut rng).erased {
                erased += 1;
            }
        }
        let observed = erased as f64 / frames as f64;
        let analytic = ge.stationary_bad() * p_erase;
        prop_assert!(
            (observed - analytic).abs() < 0.04,
            "loss rate {observed:.4} vs analytic {analytic:.4}"
        );
    }

    /// The degenerate channel is bit-for-bit a plain Bernoulli erasure
    /// stream: same RNG seed, same decisions, no extra draws.
    #[test]
    fn degenerate_channel_is_exactly_iid(
        seed in any::<u64>(),
        p in 0.01f64..0.99,
    ) {
        let ge = GilbertElliott::iid(ChannelState {
            bit_error_rate: 0.0,
            frame_erasure: p,
        });
        prop_assert!(ge.is_degenerate());
        let mut channel_rng = StdRng::seed_from_u64(seed);
        let mut bernoulli_rng = StdRng::seed_from_u64(seed);
        let mut in_bad = false;
        for frame in 0..5_000u32 {
            let erased = ge.judge_frame(&mut in_bad, &mut channel_rng).erased;
            let expected = bernoulli_rng.gen_range(0.0..1.0) < p;
            prop_assert_eq!(erased, expected, "diverged at frame {}", frame);
        }
    }

    /// `FaultModel::none()` leaves every observable of a run — stats,
    /// energy meters, frames heard — identical to a run that never
    /// configured faults, for any seed.
    #[test]
    fn none_model_is_byte_identical_for_any_seed(seed in any::<u64>()) {
        let base = burst_sim(seed, None);
        let with_none = burst_sim(seed, Some(FaultModel::none()));
        prop_assert_eq!(base.stats(), with_none.stats());
        for node in base.node_ids() {
            prop_assert_eq!(base.meter(node), with_none.meter(node));
            prop_assert_eq!(
                base.protocol(node).heard,
                with_none.protocol(node).heard
            );
        }
    }

    /// Fault-enabled runs are a pure function of the seed: identical
    /// seeds give identical stats, meters, and protocol observations.
    #[test]
    fn fault_runs_are_reproducible(seed in any::<u64>()) {
        let faults = FaultModel::none().with_channel(GilbertElliott::bursty(
            ChannelState { bit_error_rate: 0.001, frame_erasure: 0.0 },
            ChannelState { bit_error_rate: 0.01, frame_erasure: 0.3 },
            0.2,
            0.4,
        ));
        let a = burst_sim(seed, Some(faults.clone()));
        let b = burst_sim(seed, Some(faults));
        prop_assert_eq!(a.stats(), b.stats());
        for node in a.node_ids() {
            prop_assert_eq!(a.meter(node), b.meter(node));
            prop_assert_eq!(a.protocol(node).heard, b.protocol(node).heard);
        }
    }
}
