//! Nodes, protocols, and the context protocols act through.
//!
//! A node hosts exactly one [`Protocol`] instance — the code under test.
//! The simulator invokes the protocol on three occasions (start, frame
//! reception, timer expiry) and hands it a [`Context`] through which it
//! can read the clock, draw randomness, transmit frames, and arm timers.
//! All effects are buffered as commands and applied by the engine after
//! the callback returns, which keeps protocol code free of borrow
//! gymnastics and keeps event ordering deterministic.

use core::fmt;

use rand::rngs::StdRng;

use crate::frame::{Frame, FrameError, FramePayload};
use crate::time::{SimDuration, SimTime};

/// Identifies a node within one simulation.
///
/// This is *simulator* bookkeeping, not a protocol address: the
/// address-free protocols built on this simulator never put it on the
/// air (except as Section 5.1-style ground-truth instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a plain index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A pending timer: the caller's token plus the unique handle its
/// arming returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Timer {
    /// Caller-chosen discriminator (protocols multiplex their timers on
    /// it).
    pub token: u64,
    /// Unique handle for this arming, as [`Context::set_timer`] or
    /// [`Context::set_timer_when_idle`] returned it.
    pub handle: TimerHandle,
}

/// Uniquely identifies one arming of a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(pub(crate) u64);

/// The behavior a node runs.
///
/// Implementations contain all protocol state; the simulator owns the
/// instances and exposes them through [`crate::sim::ShardedSim::protocol`]
/// for post-run inspection.
pub trait Protocol {
    /// Called once when the node boots (simulation start, or the moment
    /// the node is added).
    fn on_start(&mut self, ctx: &mut Context<'_>);

    /// Called when the radio delivers a frame.
    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame);

    /// Called when a timer armed through [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer);

    /// This node's live estimate of the contending population, read by
    /// the Dynamic-Frame Aloha MAC at each frame boundary to size the
    /// next frame ([`crate::mac::FrameSizing::Estimated`]).
    ///
    /// Must be a **pure read**: the MAC may query it any number of
    /// times. Protocols that track density (e.g. through a
    /// `DensityEstimator` fed by the listening window) return their
    /// current `T̂`; the default `None` makes the MAC fall back to its
    /// configured frame floor.
    fn population_estimate(&self, now: SimTime) -> Option<u64> {
        let _ = now;
        None
    }
}

/// Effects a protocol requested during a callback.
#[derive(Debug)]
pub(crate) enum Command {
    Send {
        node: NodeId,
        payload: FramePayload,
    },
    /// `idle` is the poll interval of a [`Context::set_timer_when_idle`]
    /// timer, `None` for a plain [`Context::set_timer`] one.
    SetTimer {
        node: NodeId,
        at: SimTime,
        timer: Timer,
        idle: Option<SimDuration>,
    },
}

/// The interface a protocol uses to act on the world.
///
/// A context is only valid for the duration of one callback.
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) commands: &'a mut Vec<Command>,
    pub(crate) next_timer_handle: &'a mut u64,
    pub(crate) max_frame_bytes: usize,
    pub(crate) pending_frames: usize,
}

impl fmt::Debug for Context<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("node", &self.node)
            .finish_non_exhaustive()
    }
}

impl Context<'_> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this callback runs on.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The simulation's deterministic RNG.
    ///
    /// All protocol randomness must come from here so a run is
    /// reproducible from its seed.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The radio's maximum frame payload, bytes.
    #[must_use]
    pub fn max_frame_bytes(&self) -> usize {
        self.max_frame_bytes
    }

    /// Frames this node has queued or in flight at the radio, including
    /// frames queued earlier in this same callback.
    ///
    /// The engine's view lags the MAC by up to one window: callbacks run
    /// in a window's receive phase, after its MAC phase, so they see the
    /// queue and the frame on the air as of the end of that MAC phase
    /// (windows tile the timeline at multiples of the lookahead), plus
    /// any Dynamic-Frame Aloha requeue already made in the receive
    /// phase. Frames sent in a callback reach the MAC one lookahead
    /// later, and count here until then only in the callback that sent
    /// them.
    ///
    /// Lets a protocol implement a *saturating* workload — "transmit a
    /// continuous stream of packets" (paper Section 5.1) — by topping
    /// the queue up whenever it runs dry, without modeling the MAC; see
    /// [`Context::set_timer_when_idle`].
    #[must_use]
    pub fn pending_frames(&self) -> usize {
        self.pending_frames
            + self
                .commands
                .iter()
                .filter(|c| matches!(c, Command::Send { node, .. } if *node == self.node))
                .count()
    }

    /// Queues a frame for broadcast through the MAC. A frame whose
    /// turnaround or airtime would end past the last instant
    /// (`u64::MAX` µs) never reaches the air.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooLarge`] if the payload exceeds the
    /// radio's frame size.
    pub fn send(&mut self, payload: FramePayload) -> Result<(), FrameError> {
        if payload.byte_len() > self.max_frame_bytes {
            return Err(FrameError::TooLarge {
                bytes: payload.byte_len(),
                max_bytes: self.max_frame_bytes,
            });
        }
        self.commands.push(Command::Send {
            node: self.node,
            payload,
        });
        Ok(())
    }

    /// Arms a timer to fire after `delay`, carrying `token` back to
    /// [`Protocol::on_timer`]. Returns the timer's handle. A
    /// timer due past the last instant (`u64::MAX` µs) never fires.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        self.arm(self.now.checked_add(delay), token, None)
    }

    /// Arms a timer that fires at the first instant `now + k·poll`
    /// (k ≥ 1) at which [`Context::pending_frames`] reads 0 in the
    /// callback, carrying `token` back to [`Protocol::on_timer`]. Returns
    /// its handle, drawn from the same counter as
    /// [`Context::set_timer`]'s.
    ///
    /// It behaves exactly like re-arming `set_timer(poll)` at every
    /// instant of that grid and acting only when the queue is empty, but
    /// the engine skips the instants that would find the queue busy:
    /// under the view `pending_frames` documents, the count can only
    /// drop to 0 at a MAC event — a transmission ending on an empty
    /// queue (or, at the top of time, the last queued frame dropped), or
    /// the node's death — so the timer waits off the event
    /// heap until one happens. It fires at most once, and is dropped if
    /// the node is dead at a grid instant before that, as the poll
    /// loop's chain would end there. One node's timers due at the same
    /// instant fire in handle order; an idle timer keeps the handle it
    /// was armed with, where a poll loop draws a new one at every
    /// instant. Like the poll loop's, its instants end at the last one
    /// (`u64::MAX` µs).
    ///
    /// # Panics
    ///
    /// Panics if `poll` is zero.
    pub fn set_timer_when_idle(&mut self, poll: SimDuration, token: u64) -> TimerHandle {
        assert!(
            poll > SimDuration::ZERO,
            "an idle timer needs a nonzero poll"
        );
        self.arm(self.now.checked_add(poll), token, Some(poll))
    }

    /// Draws the next handle and, unless `at` is past the last instant,
    /// arms the timer.
    fn arm(&mut self, at: Option<SimTime>, token: u64, idle: Option<SimDuration>) -> TimerHandle {
        let handle = TimerHandle(*self.next_timer_handle);
        *self.next_timer_handle += 1;
        if let Some(at) = at {
            self.commands.push(Command::SetTimer {
                node: self.node,
                at,
                timer: Timer { token, handle },
                idle,
            });
        }
        handle
    }
}

/// A standalone harness for unit-testing [`Protocol`] implementations
/// without building a full simulator.
///
/// Owns the RNG and command buffer a [`Context`] borrows; effects
/// requested by the protocol can be inspected afterwards.
///
/// # Examples
///
/// ```
/// use retri_netsim::node::ContextHarness;
/// use retri_netsim::{FramePayload, NodeId, SimTime};
///
/// let mut harness = ContextHarness::new(42);
/// harness.set_now(SimTime::from_millis(5));
/// let mut ctx = harness.context(NodeId(0));
/// ctx.send(FramePayload::from_bytes(vec![1, 2, 3]).unwrap()).unwrap();
/// drop(ctx);
/// assert_eq!(harness.sent_payloads().len(), 1);
/// ```
#[derive(Debug)]
pub struct ContextHarness {
    rng: StdRng,
    commands: Vec<Command>,
    next_timer_handle: u64,
    now: SimTime,
}

impl ContextHarness {
    /// Creates a harness with a seeded RNG and a 27-byte frame limit
    /// (the paper's radio).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        use rand::SeedableRng as _;
        ContextHarness {
            rng: StdRng::seed_from_u64(seed),
            commands: Vec::new(),
            next_timer_handle: 0,
            now: SimTime::ZERO,
        }
    }

    /// Sets the time subsequent contexts will report.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Borrows a context for one protocol callback on `node`.
    pub fn context(&mut self, node: NodeId) -> Context<'_> {
        Context {
            now: self.now,
            node,
            rng: &mut self.rng,
            commands: &mut self.commands,
            next_timer_handle: &mut self.next_timer_handle,
            max_frame_bytes: 27,
            pending_frames: 0,
        }
    }

    /// Timers armed through contexts so far, idle timers included.
    #[cfg(test)]
    pub(crate) fn armed_timers(&self) -> usize {
        self.commands
            .iter()
            .filter(|c| matches!(c, Command::SetTimer { .. }))
            .count()
    }

    /// The payloads of all frames sent so far, in order.
    #[must_use]
    pub fn sent_payloads(&self) -> Vec<&FramePayload> {
        self.commands
            .iter()
            .filter_map(|c| match c {
                Command::Send { payload, .. } => Some(payload),
                _ => None,
            })
            .collect()
    }

    /// Clears recorded commands.
    pub fn clear(&mut self) {
        self.commands.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn context_parts() -> (StdRng, Vec<Command>, u64) {
        (StdRng::seed_from_u64(0), Vec::new(), 0)
    }

    #[test]
    fn send_validates_frame_size() {
        let (mut rng, mut commands, mut handles) = context_parts();
        let mut ctx = Context {
            now: SimTime::ZERO,
            node: NodeId(1),
            rng: &mut rng,
            commands: &mut commands,
            next_timer_handle: &mut handles,
            pending_frames: 0,
            max_frame_bytes: 4,
        };
        assert!(ctx
            .send(FramePayload::from_bytes(vec![0; 4]).unwrap())
            .is_ok());
        let err = ctx
            .send(FramePayload::from_bytes(vec![0; 5]).unwrap())
            .unwrap_err();
        assert_eq!(
            err,
            FrameError::TooLarge {
                bytes: 5,
                max_bytes: 4
            }
        );
        assert_eq!(commands.len(), 1);
    }

    #[test]
    fn timers_get_unique_handles_and_absolute_deadlines() {
        let (mut rng, mut commands, mut handles) = context_parts();
        let mut ctx = Context {
            now: SimTime::from_micros(100),
            node: NodeId(0),
            rng: &mut rng,
            commands: &mut commands,
            next_timer_handle: &mut handles,
            pending_frames: 0,
            max_frame_bytes: 27,
        };
        let h1 = ctx.set_timer(SimDuration::from_micros(50), 7);
        let h2 = ctx.set_timer(SimDuration::from_micros(10), 7);
        assert_ne!(h1, h2);
        match &commands[0] {
            Command::SetTimer { at, timer, .. } => {
                assert_eq!(at.as_micros(), 150);
                assert_eq!(timer.token, 7);
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn idle_timers_share_the_handle_counter() {
        let (mut rng, mut commands, mut handles) = context_parts();
        let mut ctx = Context {
            now: SimTime::from_micros(100),
            node: NodeId(3),
            rng: &mut rng,
            commands: &mut commands,
            next_timer_handle: &mut handles,
            pending_frames: 0,
            max_frame_bytes: 27,
        };
        let plain = ctx.set_timer(SimDuration::from_micros(50), 1);
        let idle = ctx.set_timer_when_idle(SimDuration::from_micros(300), 2);
        let after = ctx.set_timer(SimDuration::from_micros(50), 3);
        assert_eq!((plain.0, idle.0, after.0), (0, 1, 2));
        match &commands[1] {
            Command::SetTimer {
                node,
                at,
                timer,
                idle,
            } => {
                assert_eq!(*node, NodeId(3));
                assert_eq!(at.as_micros(), 400, "first poll instant is now + poll");
                assert_eq!(timer.token, 2);
                assert_eq!(*idle, Some(SimDuration::from_micros(300)));
            }
            other => panic!("unexpected command {other:?}"),
        }
        assert!(matches!(commands[0], Command::SetTimer { idle: None, .. }));
    }

    #[test]
    #[should_panic(expected = "nonzero poll")]
    fn idle_timer_rejects_a_zero_poll() {
        let mut harness = ContextHarness::new(1);
        harness
            .context(NodeId(0))
            .set_timer_when_idle(SimDuration::ZERO, 1);
    }

    #[test]
    fn harness_counts_idle_timers() {
        let mut harness = ContextHarness::new(1);
        {
            let mut ctx = harness.context(NodeId(0));
            ctx.set_timer(SimDuration::from_millis(1), 1);
            ctx.set_timer_when_idle(SimDuration::from_millis(2), 2);
        }
        assert_eq!(harness.armed_timers(), 2);
    }

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(NodeId(4).index(), 4);
    }
}
