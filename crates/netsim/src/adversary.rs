//! Adversarial nodes: an eavesdropper that predicts identifiers and
//! injects forged frames to force reassembly collisions.
//!
//! The IPv4-ID selection taxonomy's *security* axis asks what an
//! attacker learns from identifiers on the air. For RETRI, the threat
//! is concrete: an eavesdropper that can guess a transaction identifier
//! *before or while it is in use* can transmit forged fragments under
//! that identifier and corrupt the victim's reassembly — turning a
//! probabilistic collision (Eq. 4) into a deliberate one. A predictable
//! selector (a sequential counter) hands the attacker every future
//! identifier after one observation; a uniform or keyed-permutation
//! selector leaves it guessing blind in a `2^H` pool.
//!
//! [`Eavesdropper`] implements that attacker as an ordinary simulator
//! [`Protocol`]: it listens to every frame it can hear, extracts
//! identifiers through a protocol-specific [`InjectionCodec`], predicts
//! the next `lookahead` identifiers under an assumed stride, and sprays
//! forged frames for its predictions on a periodic timer. Netsim knows
//! nothing about any particular wire format — the codec (implemented by
//! the protocol crate under attack, e.g. `retri-aff`) does all
//! encoding.
//!
//! All adversary randomness (injection jitter) comes from a dedicated
//! RNG stream seeded with [`adversary_stream_seed`], so adding an
//! adversary never moves a draw of any node's engine streams and
//! adversary-free runs stay byte-identical to builds that predate this
//! module.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::{Frame, FramePayload};
use crate::node::{Context, Protocol, Timer};
use crate::time::{SimDuration, SimTime};

/// Label absorbed into the simulation seed to derive the adversary RNG
/// stream (see [`adversary_stream_seed`]).
pub(crate) const ADVERSARY_STREAM_LABEL: &str = "netsim.adversary";

/// Timer token used for the periodic injection tick.
const INJECT_TICK: u64 = 1;

/// Derives the seed of the dedicated adversary RNG stream from the
/// simulation seed: [`retri::seed::stream_seed`] under the adversary
/// stream's own label.
#[must_use]
pub fn adversary_stream_seed(seed: u64) -> u64 {
    retri::seed::stream_seed(seed, ADVERSARY_STREAM_LABEL)
}

/// Translates between raw frames and the identifier space the attacker
/// reasons about.
///
/// Implemented by the protocol crate under attack; the simulator's
/// adversary machinery stays wire-format agnostic.
pub trait InjectionCodec {
    /// Extracts the transaction identifier from an overheard payload,
    /// if it parses as a frame carrying one.
    fn observed_id(&self, payload: &FramePayload) -> Option<u64>;

    /// Builds a forged payload under `id` designed to corrupt a
    /// victim's reassembly of that identifier. Returns `None` if `id`
    /// cannot be encoded.
    fn forge(&self, id: u64) -> Option<FramePayload>;
}

/// Tuning knobs for the [`Eavesdropper`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EavesdropperConfig {
    /// Bitmask of the identifier space under attack (predictions are
    /// computed modulo `id_mask + 1`).
    pub id_mask: u64,
    /// Assumed increment between a victim's consecutive identifiers.
    pub stride: u64,
    /// How many successive identifiers to predict per observation
    /// (covers observations the attacker's radio missed).
    pub lookahead: u64,
    /// Maximum number of live predictions; the oldest is dropped first.
    pub max_tracked: usize,
    /// Interval between injection ticks.
    pub inject_period: SimDuration,
    /// Forged frames transmitted per tick (round-robin over the live
    /// predictions).
    pub max_injections_per_tick: usize,
    /// How long a prediction stays live without being re-derived.
    pub prediction_ttl: SimDuration,
}

impl EavesdropperConfig {
    /// The standard next-id probe against counter-style selectors:
    /// stride 1, two ids of lookahead, a small tracked set, and a spray
    /// rate fast enough to land several forgeries inside one
    /// multi-fragment transaction at sensor-radio bitrates.
    #[must_use]
    pub fn stride_probe(id_mask: u64) -> Self {
        EavesdropperConfig {
            id_mask,
            stride: 1,
            lookahead: 2,
            max_tracked: 16,
            inject_period: SimDuration::from_micros(40_000),
            max_injections_per_tick: 2,
            prediction_ttl: SimDuration::from_secs(2),
        }
    }
}

/// Counters describing what an adversary heard and did during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AdversaryStats {
    /// Frames overheard on the air.
    pub frames_heard: u64,
    /// Overheard frames that yielded an identifier through the codec.
    pub ids_extracted: u64,
    /// Predictions derived (refreshes of an already-tracked id count).
    pub predictions_made: u64,
    /// Forged frames handed to the radio.
    pub frames_injected: u64,
}

/// A passive listener that predicts upcoming transaction identifiers
/// and injects forged frames for them.
///
/// See the [module docs](self) for the attack model. The eavesdropper
/// is half-duplex like every other node — its forgeries contend for
/// the channel through the normal MAC.
#[derive(Debug, Clone)]
pub struct Eavesdropper<C> {
    codec: C,
    config: EavesdropperConfig,
    rng: StdRng,
    /// Live predictions as `(id, expires_at)`, oldest first.
    predictions: Vec<(u64, SimTime)>,
    /// Round-robin position in `predictions` for injection fairness.
    cursor: usize,
    stats: AdversaryStats,
}

impl<C: InjectionCodec> Eavesdropper<C> {
    /// Creates an eavesdropper.
    ///
    /// `stream_seed` should come from [`adversary_stream_seed`] so the
    /// attacker's randomness is independent of the simulation's main
    /// RNG stream.
    #[must_use]
    pub fn new(codec: C, config: EavesdropperConfig, stream_seed: u64) -> Self {
        Eavesdropper {
            codec,
            config,
            rng: StdRng::seed_from_u64(stream_seed),
            predictions: Vec::new(),
            cursor: 0,
            stats: AdversaryStats::default(),
        }
    }

    /// What the adversary heard and did so far.
    #[must_use]
    pub fn stats(&self) -> AdversaryStats {
        self.stats
    }

    fn arm_tick(&mut self, ctx: &mut Context<'_>) {
        // Jitter desynchronizes the spray from the victims' MAC timing;
        // drawn from the adversary's own stream, never the main RNG.
        let period = self.config.inject_period.as_micros().max(1);
        let jitter = self.rng.gen_range(0..=period / 4);
        ctx.set_timer(SimDuration::from_micros(period + jitter), INJECT_TICK);
    }

    fn remember(&mut self, id: u64, expires: SimTime) {
        self.stats.predictions_made += 1;
        if let Some(entry) = self.predictions.iter_mut().find(|(known, _)| *known == id) {
            entry.1 = entry.1.max(expires);
            return;
        }
        self.predictions.push((id, expires));
        if self.predictions.len() > self.config.max_tracked {
            self.predictions.remove(0);
            self.cursor = self.cursor.saturating_sub(1);
        }
    }

    fn prune(&mut self, now: SimTime) {
        self.predictions.retain(|&(_, expires)| expires > now);
        if self.predictions.is_empty() {
            self.cursor = 0;
        } else {
            self.cursor %= self.predictions.len();
        }
    }
}

impl<C: InjectionCodec> Protocol for Eavesdropper<C> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.arm_tick(ctx);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        self.stats.frames_heard += 1;
        let Some(id) = self.codec.observed_id(&frame.payload) else {
            return;
        };
        self.stats.ids_extracted += 1;
        let expires = ctx.now() + self.config.prediction_ttl;
        let modulus_mask = self.config.id_mask;
        for step in 1..=self.config.lookahead {
            let predicted = id.wrapping_add(self.config.stride.wrapping_mul(step)) & modulus_mask;
            self.remember(predicted, expires);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        if timer.token != INJECT_TICK {
            return;
        }
        self.prune(ctx.now());
        let burst = self
            .config
            .max_injections_per_tick
            .min(self.predictions.len());
        for _ in 0..burst {
            let (id, _) = self.predictions[self.cursor];
            self.cursor = (self.cursor + 1) % self.predictions.len();
            if let Some(payload) = self.codec.forge(id) {
                if ctx.send(payload).is_ok() {
                    self.stats.frames_injected += 1;
                }
            }
        }
        self.arm_tick(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{ContextHarness, NodeId};

    /// Toy codec: the identifier is the first payload byte.
    struct ByteCodec;

    impl InjectionCodec for ByteCodec {
        fn observed_id(&self, payload: &FramePayload) -> Option<u64> {
            payload.bytes().first().copied().map(u64::from)
        }

        fn forge(&self, id: u64) -> Option<FramePayload> {
            FramePayload::from_bytes(vec![id as u8, 0xFF]).ok()
        }
    }

    fn config() -> EavesdropperConfig {
        EavesdropperConfig::stride_probe(0xFF)
    }

    fn frame(id: u8) -> Frame {
        Frame::new(NodeId(0), FramePayload::from_bytes(vec![id]).unwrap())
    }

    /// The identifiers currently predicted to appear next on the air.
    fn predicted_ids<C: InjectionCodec>(adv: &Eavesdropper<C>) -> Vec<u64> {
        adv.predictions.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn stream_seed_absorbs_the_label() {
        // Provenance: recorded adversarial runs depend on this value.
        assert_eq!(adversary_stream_seed(0), 0x97f2_276a_0740_dc14);
        assert_ne!(adversary_stream_seed(42), adversary_stream_seed(43));
    }

    #[test]
    fn observation_derives_strided_predictions() {
        let mut adv = Eavesdropper::new(ByteCodec, config(), 1);
        let mut harness = ContextHarness::new(0);
        adv.on_frame(&mut harness.context(NodeId(9)), &frame(10));
        assert_eq!(predicted_ids(&adv), vec![11, 12]);
        assert_eq!(adv.stats().ids_extracted, 1);
        assert_eq!(adv.stats().predictions_made, 2);
    }

    #[test]
    fn predictions_wrap_at_the_space_boundary() {
        let mut adv = Eavesdropper::new(ByteCodec, config(), 1);
        let mut harness = ContextHarness::new(0);
        adv.on_frame(&mut harness.context(NodeId(9)), &frame(255));
        assert_eq!(predicted_ids(&adv), vec![0, 1]);
    }

    #[test]
    fn tick_injects_forged_frames_and_rearms() {
        let mut adv = Eavesdropper::new(ByteCodec, config(), 1);
        let mut harness = ContextHarness::new(0);

        adv.on_start(&mut harness.context(NodeId(9)));
        assert_eq!(harness.armed_timers(), 1);

        adv.on_frame(&mut harness.context(NodeId(9)), &frame(20));

        harness.set_now(SimTime::from_millis(50));
        adv.on_timer(
            &mut harness.context(NodeId(9)),
            Timer {
                token: INJECT_TICK,
                handle: crate::node::TimerHandle(0),
            },
        );

        assert_eq!(adv.stats().frames_injected, 2);
        assert_eq!(harness.sent_payloads().len(), 2);
        let sent: Vec<u8> = harness
            .sent_payloads()
            .iter()
            .map(|p| p.bytes()[0])
            .collect();
        assert_eq!(sent, vec![21, 22]);
        assert_eq!(harness.armed_timers(), 2, "tick rearms itself");
    }

    #[test]
    fn expired_predictions_are_pruned() {
        let mut adv = Eavesdropper::new(ByteCodec, config(), 1);
        let mut harness = ContextHarness::new(0);
        adv.on_frame(&mut harness.context(NodeId(9)), &frame(5));
        assert_eq!(predicted_ids(&adv).len(), 2);

        // Far past the prediction TTL, a tick injects nothing.
        harness.set_now(SimTime::from_secs(60));
        adv.on_timer(
            &mut harness.context(NodeId(9)),
            Timer {
                token: INJECT_TICK,
                handle: crate::node::TimerHandle(0),
            },
        );
        assert_eq!(adv.stats().frames_injected, 0);
        assert!(predicted_ids(&adv).is_empty());
    }

    #[test]
    fn tracked_set_is_bounded_oldest_first() {
        let mut adv = Eavesdropper::new(ByteCodec, config(), 1);
        let mut harness = ContextHarness::new(0);
        {
            let mut ctx = harness.context(NodeId(9));
            for id in 0..20u8 {
                adv.on_frame(&mut ctx, &frame(id * 10));
            }
        }
        assert!(predicted_ids(&adv).len() <= config().max_tracked);
        // The newest observation's predictions are still tracked.
        assert!(predicted_ids(&adv).contains(&191));
    }

    #[test]
    fn refreshing_a_prediction_does_not_duplicate_it() {
        let mut adv = Eavesdropper::new(ByteCodec, config(), 1);
        let mut harness = ContextHarness::new(0);
        {
            let mut ctx = harness.context(NodeId(9));
            adv.on_frame(&mut ctx, &frame(30));
            adv.on_frame(&mut ctx, &frame(30));
        }
        assert_eq!(predicted_ids(&adv), vec![31, 32]);
        assert_eq!(adv.stats().predictions_made, 4);
    }

    #[test]
    fn unparseable_frames_are_counted_but_ignored() {
        struct RejectAll;
        impl InjectionCodec for RejectAll {
            fn observed_id(&self, _: &FramePayload) -> Option<u64> {
                None
            }
            fn forge(&self, _: u64) -> Option<FramePayload> {
                None
            }
        }
        let mut adv = Eavesdropper::new(RejectAll, config(), 1);
        let mut harness = ContextHarness::new(0);
        adv.on_frame(&mut harness.context(NodeId(9)), &frame(1));
        assert_eq!(adv.stats().frames_heard, 1);
        assert_eq!(adv.stats().ids_extracted, 0);
        assert!(predicted_ids(&adv).is_empty());
    }
}
