//! Idle timers: the poll loop of a saturating sender without its idle
//! wake-ups.
//!
//! [`Context::set_timer_when_idle`] is the poll loop of a saturating
//! sender — wake every `poll`, send only if the radio queue is empty —
//! without the wake-ups that would only re-arm. A callback's view of the
//! queue ([`Context::pending_frames`]) is the node's queue plus its frame
//! on the air as of the end of its window's MAC phase, plus any
//! Dynamic-Frame Aloha requeue already made in the receive phase. So:
//!
//! - an idle timer armed or dispatched while that count is above zero
//!   *parks*: it stays off the heap, in its shard's idle-timer table,
//!   and its poll instants are skipped;
//! - only a MAC event can bring the count to zero — a `TxEnd` that
//!   leaves the queue empty (or the drop of the last queued frame,
//!   whose airtime would end past the last instant), or the node's
//!   death — and each pushes the node's parked timers back onto the
//!   receive heap at their first poll instant at or after the **start
//!   of the current window** (or the point where an earlier
//!   `run_until` stopped inside it): every receive event of the window
//!   already sees the end-of-phase state, so an instant before the
//!   `TxEnd` itself fires too, as the poll loop did;
//! - a dispatched idle timer is dropped if its node is dead (ending
//!   the chain, as the poll loop's did), parks again if the
//!   count is above zero, and otherwise calls the protocol.
//!
//! A Dynamic-Frame Aloha requeue can refill a dead node's queue in the
//! receive phase after the MAC phase released its timers; the
//! receive-phase death releases anything parked since, so that timer
//! too meets the dead node at its next instant.
//!
//! [`Context::set_timer_when_idle`]: crate::node::Context::set_timer_when_idle
//! [`Context::pending_frames`]: crate::node::Context::pending_frames

use retri::hash::FixedMap;

use crate::node::{NodeId, Timer, TimerHandle};
use crate::sim::{RxEvent, RxKind, LANE_R_TIMER};
use crate::time::{SimDuration, SimTime};

/// The receive event that fires `timer` on `node` at `at`.
pub(crate) fn timer_event(node: NodeId, at: SimTime, timer: Timer, idle: bool) -> RxEvent {
    RxEvent {
        at,
        lane: LANE_R_TIMER,
        a: u64::from(node.0),
        b: timer.handle.0,
        kind: RxKind::Timer { node, timer, idle },
    }
}

/// One armed idle timer ([`Context::set_timer_when_idle`]).
///
/// [`Context::set_timer_when_idle`]: crate::node::Context::set_timer_when_idle
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdleTimer {
    timer: Timer,
    poll: SimDuration,
    /// While the timer waits off the heap for the node's radio queue to
    /// drain, the poll instant it would fire at next (and every `poll`
    /// after it); `None` while its event is on the receive heap.
    parked: Option<SimTime>,
}

/// A shard's armed idle timers, keyed by node (a node may hold
/// several); an entry lives from arming until the timer fires or finds
/// its node dead. Kept beside the nodes rather than
/// in the engine's per-node state, so nodes that never arm one pay
/// nothing for it.
///
/// While a timer is parked its node's pending count
/// ([`Context::pending_frames`]) stays above zero: it parks only when
/// the count reads above zero, and only MAC events can bring the count
/// to zero — a `TxEnd` on an empty queue (or the drop of the last
/// queued frame at the top of time) and the node's death — each of
/// which releases the node's parked timers. So every poll
/// instant a parked timer skips is one where the poll loop it replaces
/// would only have re-armed.
///
/// [`Context::pending_frames`]: crate::node::Context::pending_frames
#[derive(Debug, Default)]
pub(crate) struct IdleTimers(FixedMap<NodeId, Vec<IdleTimer>>);

impl IdleTimers {
    /// Arms `node`'s idle timer: parked at `at` if `busy`, otherwise
    /// returned as its event at `at`.
    pub(crate) fn arm(
        &mut self,
        node: NodeId,
        at: SimTime,
        timer: Timer,
        poll: SimDuration,
        busy: bool,
    ) -> Option<RxEvent> {
        self.0.entry(node).or_default().push(IdleTimer {
            timer,
            poll,
            parked: busy.then_some(at),
        });
        (!busy).then(|| timer_event(node, at, timer, true))
    }

    /// Handles the event of `node`'s idle timer `handle` at `at`:
    /// whether the protocol should be called. One whose node is dead is
    /// dropped; one that finds the queue `busy` parks until its next
    /// poll instant, or is dropped if that is past the last instant.
    pub(crate) fn fire(
        &mut self,
        node: NodeId,
        handle: TimerHandle,
        at: SimTime,
        alive: bool,
        busy: bool,
    ) -> bool {
        if alive && busy {
            let past_the_top = self
                .0
                .get_mut(&node)
                .and_then(|timers| timers.iter_mut().find(|t| t.timer.handle == handle))
                .is_some_and(|timer| {
                    timer.parked = at.checked_add(timer.poll);
                    timer.parked.is_none()
                });
            if past_the_top {
                self.disarm(node, handle);
            }
            return false;
        }
        self.disarm(node, handle) && alive
    }

    /// Disarms `node`'s idle timer `handle`; whether it was armed.
    fn disarm(&mut self, node: NodeId, handle: TimerHandle) -> bool {
        let Some(timers) = self.0.get_mut(&node) else {
            return false;
        };
        let Some(index) = timers.iter().position(|t| t.timer.handle == handle) else {
            return false;
        };
        timers.swap_remove(index);
        if timers.is_empty() {
            self.0.remove(&node);
        }
        true
    }

    /// Moves `node`'s parked timers into `out` as timer events, each at
    /// its first poll instant at or after `floor`; a timer with no such
    /// instant before the last one is dropped. Their order does not
    /// matter: every timer event has a key of its own.
    pub(crate) fn release(&mut self, node: NodeId, floor: SimTime, out: &mut impl Extend<RxEvent>) {
        if self.0.is_empty() {
            return;
        }
        let Some(timers) = self.0.get_mut(&node) else {
            return;
        };
        timers.retain_mut(|timer| {
            let Some(next) = timer.parked.take() else {
                return true;
            };
            let (next, poll) = (next.as_micros(), timer.poll.as_micros());
            let late = floor.as_micros().saturating_sub(next);
            let Some(at) = late
                .div_ceil(poll)
                .checked_mul(poll)
                .and_then(|skip| next.checked_add(skip))
            else {
                return false;
            };
            out.extend([timer_event(
                node,
                SimTime::from_micros(at),
                timer.timer,
                true,
            )]);
            true
        });
        if timers.is_empty() {
            self.0.remove(&node);
        }
    }

    /// Takes every node's timers out of the table, for a rebalance to
    /// hand each node's to its new owner ([`Self::adopt`]).
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (NodeId, Vec<IdleTimer>)> + '_ {
        self.0.drain()
    }

    /// Takes over `node`'s timers from the shard that owned it.
    pub(crate) fn adopt(&mut self, node: NodeId, timers: Vec<IdleTimer>) {
        self.0.insert(node, timers);
    }

    /// `node`'s armed timers: each one's handle and whether it is
    /// parked.
    #[cfg(test)]
    pub(crate) fn armed(&self, node: NodeId) -> impl Iterator<Item = (TimerHandle, bool)> + '_ {
        self.0
            .get(&node)
            .into_iter()
            .flatten()
            .map(|t| (t.timer.handle, t.parked.is_some()))
    }
}
