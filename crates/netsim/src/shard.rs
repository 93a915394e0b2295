//! The deterministic windowed simulation engine.
//!
//! [`ShardedSim`] is the crate's simulation engine. It partitions a
//! topology into `K` spatial shards (one by default) — nodes are
//! grid-bucketed by position — each with its own event heaps and
//! scratch state, and advances them window by window under
//! *conservative lookahead* synchronization: every shard runs
//! independently inside a window `[T, T + L)` and the shards exchange
//! cross-shard work (new transmissions) at barrier epochs between
//! windows. Large topologies run the shards on scoped worker threads;
//! small ones, and every single-shard run, execute the same windows
//! inline on the calling thread.
//!
//! The lookahead bound `L` is the MAC turnaround delay: a protocol
//! callback running at time `t` enqueues its frame on the MAC at
//! `t + L`, so nothing a shard does inside a window can affect another
//! shard (or its own MAC) before the window closes. Transmissions begun
//! in a window are merged, numbered, and broadcast at the epoch barrier,
//! and every delivery of a frame happens at its airtime end — always a
//! later window than the one that emitted the frame under ALOHA, and
//! under a globally ordered MAC phase for carrier-sense MACs (carrier
//! sense has zero lookahead, so the MAC phase of a CSMA run is executed
//! as a single cross-shard merge in event order; the receive phase
//! still runs fully parallel).
//!
//! # Determinism
//!
//! The merged event stream is **invariant in the shard count**: runs
//! with `K ∈ {1, 2, 4, …}` produce byte-identical traces, stats, and
//! energy meters. The invariance is by construction:
//!
//! - Every random draw comes from a **per-node stream** derived from the
//!   builder seed and the node id (never from a per-shard or global
//!   sequential stream), so which shard a node lands on cannot move any
//!   draw.
//! - All cross-shard effects are mediated by the epoch barriers, where a
//!   single thread merges per-shard outboxes in a canonical
//!   `(start, node, tx-index)` order before assigning global sequence
//!   numbers.
//! - Within a window, every heap pop is ordered by an explicit
//!   `(time, lane, a, b)` key with no insertion-order component.
//! - Per-node counters (timer handles, MAC event sequence numbers,
//!   transmission indices) replace global counters.
//!
//! A single-shard run executes the *same* windowed algorithm with the
//! same per-node streams, so `--shards 1` is the reference output, not a
//! different engine.
//!
//! # Interference bookkeeping
//!
//! One air view holds every transmission record: a dense record deque
//! plus per-grid-cell and per-node sequence indexes (cell size = radio
//! range, so every in-range interferer of a node originates within one
//! cell of it). A delivery gathers the records overlapping its airtime
//! once, from the cells around its receivers, and filters them per
//! receiver by origin cell and range; DFA slot feedback runs the same
//! query with the sender as its one receiver. Carrier sense walks the
//! listener's neighbor list and those neighbors' own records. The view
//! is written only while every shard is parked between phases — by the
//! globally ordered CSMA MAC phase, the epoch barrier and pruning — and
//! is read-only during the receive phase, so every shard judges its
//! deliveries against it directly (threaded runs share it behind a read
//! lock that is never contended).
//!
//! Delivery *events*, by contrast, are routed: each shard keeps an
//! interest set of the grid cells within one ring of its nodes, and the
//! barrier hands a transmission's `Deliver` event only to the shards
//! interested in its origin cell — or in its sender's current cell, when
//! the sender moved after its transmission began.
//!
//! # Idle timers
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
//!   leaves the queue empty, or the node's death — and each pushes the
//!   node's parked timers back onto the receive heap at their first poll
//!   instant at or after the **start of the current window** (or the
//!   point where an earlier `run_until` stopped inside it): every
//!   receive event of the window already sees the end-of-phase state,
//!   so an instant before the `TxEnd` itself fires too, as the poll loop
//!   did;
//! - a dispatched idle timer is dropped if cancelled or if its node is
//!   dead (ending the chain, as the poll loop's did), parks again if the
//!   count is above zero, and otherwise calls the protocol.
//!
//! A Dynamic-Frame Aloha requeue can refill a dead node's queue in the
//! receive phase after the MAC phase released its timers; the
//! receive-phase death releases anything parked since, so that timer
//! too meets the dead node at its next instant.
//!
//! # Window loop
//!
//! One loop runs every window: window-start dynamics, the MAC phase,
//! the epoch barrier, the receive phase, and pruning. The per-shard
//! halves are methods of the shard core and the rest runs on the
//! calling thread; inline and threaded runs differ only in whether the
//! per-shard halves run in a `for` loop or on parked worker threads.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering as AtomicOrdering};
use std::sync::{Barrier, Mutex, PoisonError, RwLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri::hash::{FixedMap, FixedSet};
use retri_obs::Obs;

use crate::energy::EnergyMeter;
use crate::fault::{ChurnEvent, FaultModel};
use crate::frame::{Frame, FramePayload};
use crate::mac::{DfaConfig, DfaStats, FrameSizing, MacConfig};
use crate::node::{Command, Context, NodeId, Protocol, Timer, TimerHandle};
use crate::obs::TxStats;
use crate::radio::{DutyCycle, RadioConfig};
use crate::time::{SimDuration, SimTime};
use crate::topology::{Cell, Position, Topology};
use crate::trace::{LossReason, TraceEvent, Tracer};

/// Derives the seed of one of a node's dedicated RNG streams.
///
/// Mirrors [`crate::adversary::adversary_stream_seed`]: fold the label
/// bytes and then the node id (little-endian) through SplitMix64.
/// Distinct labels and distinct nodes land in unrelated streams, and the
/// derivation depends only on `(seed, label, node)` — never on shard
/// placement.
fn node_stream_seed(seed: u64, label: &str, node: NodeId) -> u64 {
    let mut state = seed;
    for &byte in label.as_bytes() {
        state ^= u64::from(byte);
        state = rand::splitmix64(&mut state);
    }
    for byte in node.0.to_le_bytes() {
        state ^= u64::from(byte);
        state = rand::splitmix64(&mut state);
    }
    state
}

/// Medium-level counters for a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MediumStats {
    /// Frames handed to the air.
    pub frames_sent: u64,
    /// Successful frame deliveries (one per receiver).
    pub deliveries: u64,
    /// Deliveries lost to overlapping transmissions.
    pub rf_collisions: u64,
    /// Deliveries missed because the receiver was itself transmitting.
    pub half_duplex_losses: u64,
    /// Deliveries lost to the independent random-loss draw.
    pub random_losses: u64,
    /// Deliveries missed because the receiver's radio was duty-cycled
    /// off.
    pub sleep_misses: u64,
    /// Deliveries erased outright by the fault channel.
    pub fault_erasures: u64,
    /// Deliveries severed by a fault-model partition window.
    pub partition_losses: u64,
    /// Deliveries that arrived with at least one flipped payload bit
    /// (included in `deliveries`: the frame did reach the protocol).
    pub corrupted_deliveries: u64,
    /// Total payload bits flipped across all corrupted deliveries.
    pub flipped_bits: u64,
}

impl core::fmt::Display for MediumStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} sent, {} delivered, {} RF-collided, {} half-duplex, {} random losses, \
             {} sleep misses, {} fault erasures, {} partition losses, {} corrupted ({} bits)",
            self.frames_sent,
            self.deliveries,
            self.rf_collisions,
            self.half_duplex_losses,
            self.random_losses,
            self.sleep_misses,
            self.fault_erasures,
            self.partition_losses,
            self.corrupted_deliveries,
            self.flipped_bits
        )
    }
}

/// The next multiple of `slot` at or after `t` — the absolute slot grid
/// every DFA node aligns its frames to.
fn align_up(t: SimTime, slot: SimDuration) -> SimTime {
    let step = slot.as_micros();
    debug_assert!(step > 0, "validated by MacConfig::validate");
    SimTime::from_micros(t.as_micros().div_ceil(step) * step)
}

/// Per-receiver delivery verdict for one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Delivered,
    /// Lost on the air: [`LossReason::HalfDuplex`],
    /// [`LossReason::RfCollision`] or [`LossReason::RandomLoss`].
    Failed(LossReason),
}

/// Sorting key of a buffered trace event: `(microseconds, lane, a, b)`.
///
/// Lanes order same-instant events canonically: dynamics (0), then
/// transmission starts (1), then deliveries (2). `a`/`b` disambiguate
/// within a lane (dynamic index; sequence number; receiver id).
type TraceKey = (u64, u8, u64, u64);

/// Trace lane for liveness/movement events (`a` = dynamic index).
const LANE_T_DYN: u8 = 0;
/// Trace lane for `TxStart` (`a` = sequence number).
const LANE_T_TX: u8 = 1;
/// Trace lane for delivery outcomes (`a` = seq, `b` = receiver).
const LANE_T_RX: u8 = 2;

// MAC-phase heap lanes.
const LANE_M_DYN: u8 = 0;
const LANE_M_ENQ: u8 = 1;
const LANE_M_TXEND: u8 = 2;
const LANE_M_TRY: u8 = 3;

// Receive-phase heap lanes.
const LANE_R_DYN: u8 = 0;
const LANE_R_START: u8 = 1;
const LANE_R_DELIVER: u8 = 2;
const LANE_R_TIMER: u8 = 3;
/// DFA sender-side slot feedback, judged after every same-instant
/// delivery so the sender's verdict reads the same air state its
/// receivers did.
const LANE_R_FEEDBACK: u8 = 4;

/// Minimum owned nodes per shard before worker threads pay for their
/// per-window barrier traffic; below this the windowed loop runs
/// inline on the calling thread (identical output). Small testbeds —
/// a few dozen nodes sharded four ways — otherwise spend orders of
/// magnitude more time in barrier waits than in simulation.
pub const MIN_NODES_PER_SHARD: usize = 64;

/// The MAC turnaround delay: a frame sent by a protocol callback at `t`
/// reaches the MAC at `t + LOOKAHEAD`. It is also the conservative
/// lookahead `L`, the width of every window, and must be positive: a
/// zero turnaround would let a callback's frame reach the air inside the
/// window that sent it, so no shard could run a window independently.
const LOOKAHEAD: SimDuration = SimDuration::from_micros(500);

/// A scheduled liveness or movement change (broadcast to every shard).
#[derive(Debug, Clone, Copy)]
enum DynAction {
    Move { node: NodeId, to: Position },
    SetAlive { node: NodeId, alive: bool },
}

/// MAC-phase event payload.
#[derive(Debug)]
enum MacKind {
    /// Apply a topology change to this shard's MAC replica.
    Dynamics(DynAction),
    /// A frame reaches the node's MAC queue (one turnaround after the
    /// protocol callback that sent it).
    Enqueue { node: NodeId, payload: FramePayload },
    /// The node's transmission leaves the air after `airtime`. `seq` is
    /// its number when the MAC phase assigned one (carrier sense).
    TxEnd {
        node: NodeId,
        airtime: SimDuration,
        seq: Option<u64>,
    },
    /// The node attempts to transmit the head of its queue.
    Try { node: NodeId },
}

/// A phase event, ordered by `(at, lane, a, b)`. In the MAC phase,
/// node-owned lanes use `a` = node id and `b` = a per-node event
/// counter, and the dynamics lane uses `a` = the global dynamic index.
#[derive(Debug, Clone, Copy)]
struct Event<K> {
    at: SimTime,
    lane: u8,
    a: u64,
    b: u64,
    kind: K,
}

/// A MAC-phase event.
type MacEvent = Event<MacKind>;
/// A receive-phase event.
type RxEvent = Event<RxKind>;

impl<K> Event<K> {
    fn key(&self) -> (SimTime, u8, u64, u64) {
        (self.at, self.lane, self.a, self.b)
    }
}

impl MacEvent {
    /// The node this event is pinned to, if it is node-owned (dynamics
    /// are broadcast and stay put on shard rebalancing).
    fn node(&self) -> Option<NodeId> {
        match self.kind {
            MacKind::Dynamics(_) => None,
            MacKind::Enqueue { node, .. } | MacKind::TxEnd { node, .. } | MacKind::Try { node } => {
                Some(node)
            }
        }
    }
}

impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<K> Eq for Event<K> {}
impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Event<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the smallest key pops
        // first.
        other.key().cmp(&self.key())
    }
}

/// Receive-phase event payload.
#[derive(Debug, Clone, Copy)]
enum RxKind {
    /// Apply a topology change to this shard's receive replica (the
    /// owner shard also records the trace event and reboots revived
    /// nodes).
    Dynamics { idx: u64, action: DynAction },
    /// Run a node's `on_start`.
    Start { node: NodeId },
    /// Judge delivery of transmission `seq` to this shard's owned
    /// neighbors of `sender`.
    Deliver { seq: u64, sender: NodeId },
    /// Fire a protocol timer. An `idle` one
    /// ([`Context::set_timer_when_idle`]) fires only if the node's radio
    /// queue is empty, and otherwise parks in the shard's
    /// [`IdleTimers`], which also hold its poll interval.
    Timer {
        node: NodeId,
        timer: Timer,
        idle: bool,
    },
    /// Judge Dynamic-Frame Aloha slot feedback for `sender`'s own
    /// transmission `seq` (routed only to the sender's owner shard):
    /// collision requeues the payload, and either way the sender
    /// re-contends at its frame boundary.
    DfaFeedback { seq: u64, sender: NodeId },
}

impl RxEvent {
    fn node(&self) -> Option<NodeId> {
        match self.kind {
            RxKind::Start { node } | RxKind::Timer { node, .. } => Some(node),
            // Feedback lives on the sender's owner shard, so it follows
            // the sender across rebalances.
            RxKind::DfaFeedback { sender, .. } => Some(sender),
            RxKind::Dynamics { .. } | RxKind::Deliver { .. } => None,
        }
    }
}

/// The receive event that fires `timer` on `node` at `at`.
fn timer_event(node: NodeId, at: SimTime, timer: Timer, idle: bool) -> RxEvent {
    RxEvent {
        at,
        lane: LANE_R_TIMER,
        a: u64::from(node.0),
        b: timer.handle.0,
        kind: RxKind::Timer { node, timer, idle },
    }
}

/// One armed idle timer ([`Context::set_timer_when_idle`]).
#[derive(Debug, Clone, Copy)]
struct IdleTimer {
    timer: Timer,
    poll: SimDuration,
    /// While the timer waits off the heap for the node's radio queue to
    /// drain, the poll instant it would fire at next (and every `poll`
    /// after it); `None` while its event is on the receive heap.
    parked: Option<SimTime>,
}

/// A shard's armed idle timers, keyed by node (a node may hold
/// several); an entry lives from arming until the timer fires, is
/// cancelled, or finds its node dead. Kept beside the nodes rather than
/// in [`LocalNode`], so nodes that never arm one pay nothing for it.
///
/// While a timer is parked its node's pending count
/// ([`Context::pending_frames`]) stays above zero: it parks only when
/// the count reads above zero, and only two MAC events can bring the
/// count to zero — a `TxEnd` on an empty queue and the node's death —
/// each of which releases the node's parked timers. So every poll
/// instant a parked timer skips is one where the poll loop it replaces
/// would only have re-armed.
#[derive(Debug, Default)]
struct IdleTimers(FixedMap<NodeId, Vec<IdleTimer>>);

impl IdleTimers {
    /// Arms `node`'s idle timer: parked at `at` if `busy`, otherwise
    /// returned as its event at `at`.
    fn arm(
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
    /// whether the protocol should be called. A cancelled timer has no
    /// entry and is dropped, and so is one whose node is dead; one that
    /// finds the queue `busy` parks until its next poll instant.
    fn fire(
        &mut self,
        node: NodeId,
        handle: TimerHandle,
        at: SimTime,
        alive: bool,
        busy: bool,
    ) -> bool {
        if alive && busy {
            if let Some(timer) = self
                .0
                .get_mut(&node)
                .and_then(|timers| timers.iter_mut().find(|t| t.timer.handle == handle))
            {
                timer.parked = Some(at + timer.poll);
            }
            return false;
        }
        self.cancel(node, handle) && alive
    }

    /// Disarms `node`'s idle timer `handle`; whether it was armed. Its
    /// event, if on the heap, then finds no entry and is dropped.
    fn cancel(&mut self, node: NodeId, handle: TimerHandle) -> bool {
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
    /// its first poll instant at or after `floor`. Their order does not
    /// matter: every timer event has a key of its own.
    fn release(&mut self, node: NodeId, floor: SimTime, out: &mut impl Extend<RxEvent>) {
        if self.0.is_empty() {
            return;
        }
        let Some(timers) = self.0.get_mut(&node) else {
            return;
        };
        for timer in timers {
            let Some(next) = timer.parked.take() else {
                continue;
            };
            let (next, poll) = (next.as_micros(), timer.poll.as_micros());
            let late = floor.as_micros().saturating_sub(next);
            let at = SimTime::from_micros(next + late.div_ceil(poll) * poll);
            out.extend([timer_event(node, at, timer.timer, true)]);
        }
    }
}

/// A pending master-topology update, applied at epoch barriers so the
/// master copy (used for the public accessor and shard rebalancing)
/// tracks the replicas.
#[derive(Debug)]
struct MasterDyn {
    at: SimTime,
    idx: u64,
    action: DynAction,
}

impl PartialEq for MasterDyn {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.idx) == (other.at, other.idx)
    }
}
impl Eq for MasterDyn {}
impl PartialOrd for MasterDyn {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MasterDyn {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.idx).cmp(&(self.at, self.idx))
    }
}

/// One transmission record in the air view.
#[derive(Debug)]
struct AirRecord {
    seq: u64,
    sender: NodeId,
    start: SimTime,
    end: SimTime,
    bits_on_air: u64,
    frame: Frame,
    /// Grid cell of the sender at transmission start (the interference
    /// index bucket; a sender relocating mid-flight keeps its record in
    /// the origin cell).
    cell: Cell,
    /// Whether the transmission's MAC `TxEnd` has run (clears carrier
    /// sense; delivery judgments ignore this flag).
    ended: bool,
}

impl AirRecord {
    fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && self.end > start
    }
}

/// Whether two grid cells are at most one cell apart on either axis —
/// the reach of a transmission originating in one at a node in the
/// other (cell size = radio range).
fn adjacent(a: Cell, b: Cell) -> bool {
    a.0.abs_diff(b.0) <= 1 && a.1.abs_diff(b.1) <= 1
}

/// A retained record that overlaps a judged transmission: what the
/// per-receiver interference test needs of it.
#[derive(Debug, Clone, Copy)]
struct Interferer {
    sender: NodeId,
    /// The record's origin cell.
    cell: Cell,
}

/// Whether any of `interferers` corrupts a frame at `receiver`, which
/// sits in grid cell `cell`: a record of another sender, originating
/// within one cell of the receiver's, whose sender is in range.
fn interferes(
    interferers: &[Interferer],
    receiver: NodeId,
    cell: Cell,
    topology: &Topology,
) -> bool {
    interferers.iter().any(|other| {
        other.sender != receiver
            && adjacent(other.cell, cell)
            && topology.in_range(other.sender, receiver)
    })
}

/// The view of the air every shard judges against.
///
/// Indexes records by the sender's grid cell (cell size = radio range)
/// so interference queries scan the cells around the receivers instead
/// of every concurrent transmission — the property that makes the view
/// cheap at 10k nodes.
#[derive(Debug)]
struct AirView {
    cell_size: f64,
    /// Retained records in seq order; `records[i]` has `base_seq + i`.
    records: VecDeque<AirRecord>,
    base_seq: u64,
    /// Retained record sequence numbers per origin cell, in insertion
    /// (= seq) order.
    cells: FixedMap<Cell, VecDeque<u64>>,
    /// Per-sender record sequence numbers, indexed by node.
    by_node: Vec<VecDeque<u64>>,
    /// Records still on the air (not ended).
    on_air: u32,
}

impl AirView {
    fn new(cell_size: f64) -> Self {
        AirView {
            cell_size,
            records: VecDeque::new(),
            base_seq: 0,
            cells: FixedMap::default(),
            by_node: Vec::new(),
            on_air: 0,
        }
    }

    fn add_node(&mut self) {
        self.by_node.push(VecDeque::new());
    }

    fn insert(&mut self, record: AirRecord) {
        debug_assert_eq!(
            record.seq,
            self.base_seq + self.records.len() as u64,
            "records must be inserted in sequence order"
        );
        self.cells
            .entry(record.cell)
            .or_default()
            .push_back(record.seq);
        self.on_air += 1;
        self.by_node[record.sender.index()].push_back(record.seq);
        self.records.push_back(record);
    }

    fn mark_ended(&mut self, seq: u64) {
        let index = usize::try_from(seq - self.base_seq).expect("record index fits usize");
        let record = &mut self.records[index];
        debug_assert!(!record.ended, "transmission {seq} ended twice");
        record.ended = true;
        self.on_air -= 1;
    }

    fn get(&self, seq: u64) -> Option<&AirRecord> {
        let index = usize::try_from(seq.checked_sub(self.base_seq)?).ok()?;
        self.records.get(index)
    }

    /// Whether `node`'s own radio is transmitting during `[start, end)`,
    /// other than `exclude_seq` (half-duplex check).
    fn transmitting_during(
        &self,
        node: NodeId,
        start: SimTime,
        end: SimTime,
        exclude_seq: u64,
    ) -> bool {
        self.by_node[node.index()].iter().any(|&seq| {
            let record = self.get(seq).expect("indexed record retained");
            seq != exclude_seq && record.overlaps(start, end)
        })
    }

    /// Collects into `out` every retained record other than `seq` that
    /// overlaps `seq`'s airtime and originates within one cell of the
    /// box `lo..=hi`: every record that can interfere at a receiver
    /// whose cell lies in the box. One gather serves all of a
    /// transmission's receivers, each filtered by [`interferes`].
    fn gather_interferers(&self, seq: u64, lo: Cell, hi: Cell, out: &mut Vec<Interferer>) {
        out.clear();
        let judged = self.get(seq).expect("judging unknown transmission");
        for cx in lo.0 - 1..=hi.0 + 1 {
            for cy in lo.1 - 1..=hi.1 + 1 {
                let Some(seqs) = self.cells.get(&(cx, cy)) else {
                    continue;
                };
                for &other in seqs {
                    let record = self.get(other).expect("indexed record retained");
                    if other != seq && record.overlaps(judged.start, judged.end) {
                        out.push(Interferer {
                            sender: record.sender,
                            cell: record.cell,
                        });
                    }
                }
            }
        }
    }

    /// Per-receiver delivery verdict, in precedence order: half-duplex,
    /// then RF collision among `interferers` (gathered for a box
    /// holding the receiver's cell `cell`), then the receiver's random
    /// loss draw.
    fn judge(
        &self,
        seq: u64,
        receiver: NodeId,
        cell: Cell,
        interferers: &[Interferer],
        random_loss: bool,
        topology: &Topology,
    ) -> Verdict {
        let record = self.get(seq).expect("judging unknown transmission");
        if self.transmitting_during(receiver, record.start, record.end, seq) {
            Verdict::Failed(LossReason::HalfDuplex)
        } else if interferes(interferers, receiver, cell, topology) {
            Verdict::Failed(LossReason::RfCollision)
        } else if random_loss {
            Verdict::Failed(LossReason::RandomLoss)
        } else {
            Verdict::Delivered
        }
    }

    /// CSMA carrier sense: whether `listener` (at `position`) hears any
    /// ongoing foreign transmission at `now`.
    ///
    /// Walks the listener's neighbors, which are exactly the live nodes
    /// in range of it (adjacency is symmetric), and their own records:
    /// a record is heard if it has not ended, covers `now` and
    /// originates within one cell of the listener's — the same records
    /// a 3×3 scan of the cell index would find. A silent air answers at
    /// once.
    fn busy_for(
        &self,
        listener: NodeId,
        position: Position,
        now: SimTime,
        topology: &Topology,
    ) -> bool {
        if self.on_air == 0 {
            return false;
        }
        let cell = cell_of(position, self.cell_size);
        topology.neighbors(listener).any(|sender| {
            self.by_node[sender.index()].iter().any(|&seq| {
                let record = self.get(seq).expect("indexed record retained");
                !record.ended
                    && record.start <= now
                    && record.end > now
                    && adjacent(record.cell, cell)
            })
        })
    }

    /// Drops front records ended before `horizon`. O(1) per record: the
    /// popped record has the globally smallest seq, which is also the
    /// front of its cell's and its sender's index deques.
    fn prune(&mut self, horizon: SimTime) {
        while let Some(front) = self.records.front() {
            if front.end >= horizon {
                break;
            }
            let record = self.records.pop_front().expect("front exists");
            self.base_seq += 1;
            let seqs = self
                .cells
                .get_mut(&record.cell)
                .expect("cell index present");
            let popped = seqs.pop_front();
            debug_assert_eq!(popped, Some(record.seq));
            if !record.ended {
                // Only carrier-sense runs end records (`mark_ended`);
                // the rest leave the on-air count here.
                self.on_air -= 1;
            }
            if seqs.is_empty() {
                self.cells.remove(&record.cell);
            }
            let by_node = &mut self.by_node[record.sender.index()];
            let popped = by_node.pop_front();
            debug_assert_eq!(popped, Some(record.seq));
        }
    }
}

/// A transmission begun inside the current window, pending global
/// sequence assignment (ALOHA) or already numbered (CSMA, whose MAC
/// phase runs in global order and numbers immediately).
#[derive(Debug)]
struct PendingTx {
    node: NodeId,
    /// Per-node transmission counter — the canonical tiebreak for
    /// same-instant starts.
    tx_idx: u64,
    start: SimTime,
    end: SimTime,
    bits_on_air: u64,
    /// Sender position at transmission start (grid-cell bucket).
    pos: Position,
    seq: Option<u64>,
    /// `None` when the record is already in the air view (CSMA).
    frame: Option<Frame>,
}

/// Per-node state owned by exactly one shard.
#[derive(Debug)]
struct LocalNode<P> {
    id: NodeId,
    protocol: P,
    meter: EnergyMeter,
    queue: VecDeque<FramePayload>,
    transmitting: bool,
    duty_cycle: Option<DutyCycle>,
    /// MAC backoff draws.
    mac_rng: StdRng,
    /// Protocol callback draws (`ctx.rng()`).
    proto_rng: StdRng,
    /// Per-delivery random-loss draws (this node receiving).
    chan_rng: StdRng,
    /// Fault-channel draws (this node receiving).
    fault_rng: StdRng,
    /// Gilbert–Elliott state for this receiver (`true` = bad).
    fault_bad: bool,
    next_timer_handle: u64,
    cancelled: FixedSet<TimerHandle>,
    /// Orders this node's MAC-phase events.
    mac_seq: u64,
    /// Counts this node's transmissions.
    tx_count: u64,
    /// DFA only: the slot this node committed to transmit in within its
    /// current frame (the `MacTry` wakeup is on the heap).
    dfa_slot_at: Option<SimTime>,
    /// DFA only: where this node's current frame ends; the next frame
    /// starts at the first slot boundary at or after it.
    dfa_frame_end: SimTime,
}

impl<P> LocalNode<P> {
    fn new(seed: u64, id: NodeId, protocol: P) -> Self {
        LocalNode {
            id,
            protocol,
            meter: EnergyMeter::new(),
            queue: VecDeque::new(),
            transmitting: false,
            duty_cycle: None,
            mac_rng: StdRng::seed_from_u64(node_stream_seed(seed, "netsim.shard.mac", id)),
            proto_rng: StdRng::seed_from_u64(node_stream_seed(seed, "netsim.shard.proto", id)),
            chan_rng: StdRng::seed_from_u64(node_stream_seed(seed, "netsim.shard.chan", id)),
            fault_rng: StdRng::seed_from_u64(node_stream_seed(seed, "netsim.shard.fault", id)),
            fault_bad: false,
            next_timer_handle: 0,
            cancelled: FixedSet::default(),
            mac_seq: 0,
            tx_count: 0,
            dfa_slot_at: None,
            dfa_frame_end: SimTime::ZERO,
        }
    }

    /// Frames queued at the MAC or on the air: what
    /// [`Context::pending_frames`] reads before the callback sends.
    fn pending_frames(&self) -> usize {
        self.queue.len() + usize::from(self.transmitting)
    }
}

/// Read-mostly engine parameters shared by every phase of a run.
struct EngineCtx<'a> {
    radio: &'a RadioConfig,
    mac: &'a MacConfig,
    faults: &'a FaultModel,
    tracing: bool,
    deadline: SimTime,
    /// The first instant this run may dispatch: everything before it ran
    /// in an earlier [`ShardedSim::run_until`].
    resume: SimTime,
    owner: &'a [(u32, u32)],
}

impl EngineCtx<'_> {
    /// Whether an event at `at` belongs to the window ending at `t_end`
    /// — the bound of every phase drain.
    fn in_window(&self, at: SimTime, t_end: SimTime) -> bool {
        at < t_end && at <= self.deadline
    }

    /// The earliest receive-phase instant not yet dispatched while the
    /// MAC phase of the window holding `at` runs: the window's start,
    /// unless an earlier run stopped inside the window. Every receive
    /// event from there on sees the MAC state as of the end of this MAC
    /// phase, so a timer released here may fire that early.
    fn rx_floor(&self, at: SimTime) -> SimTime {
        window_start(at).max(self.resume)
    }

    /// Local index of `node` on shard `shard` (which must own it).
    fn local(&self, shard: usize, node: NodeId) -> usize {
        let (s, l) = self.owner[node.index()];
        debug_assert_eq!(s as usize, shard, "event routed to non-owner shard");
        l as usize
    }
}

/// Mutable global state threaded through the CSMA MAC phase, which runs
/// in a single globally ordered drain and numbers transmissions (and
/// inserts their records) immediately, because carrier sense has zero
/// lookahead.
struct CsmaAir<'a> {
    air: &'a mut AirView,
    next_seq: &'a mut u64,
}

/// One spatial shard: its owned nodes, both event heaps, and private
/// topology replicas for each phase (the MAC and receive phases apply
/// broadcast dynamics independently, so each needs its own copy).
struct ShardCore<P> {
    index: usize,
    nodes: Vec<LocalNode<P>>,
    mac_heap: BinaryHeap<MacEvent>,
    rx_heap: BinaryHeap<RxEvent>,
    topo_mac: Topology,
    topo_rx: Topology,
    outbox: Vec<PendingTx>,
    stats: MediumStats,
    /// Dynamic-Frame Aloha counters for this shard's owned nodes
    /// (frames/slots counted at the draw, outcomes at the feedback).
    dfa: DfaStats,
    /// CSMA backoffs and the airtimes of ended transmissions, for
    /// [`ShardedSim::record_metrics`].
    tx: TxStats,
    trace_buf: Vec<(TraceKey, TraceEvent)>,
    commands: Vec<Command>,
    /// Receive-phase events pushed by the event being dispatched, held
    /// back until it is done so the first can replace it on the heap.
    rx_staged: Vec<RxEvent>,
    /// The owned receivers of the transmission being delivered, with
    /// their grid cells.
    receiver_scratch: Vec<(NodeId, Cell)>,
    /// The records overlapping the transmission being judged.
    interferer_scratch: Vec<Interferer>,
    /// Armed idle timers of owned nodes.
    idle: IdleTimers,
    /// Grid cells within one ring of any owned node — the cells whose
    /// transmissions this shard may have to deliver — refcounted by how
    /// many owned nodes contribute each cell, so a move patches the set
    /// with a ±1-ring delta instead of a full rebuild.
    interest: FixedMap<(i64, i64), u32>,
    /// Windows this shard fast-forwarded through without dispatching a
    /// single event (no queued MAC work, no pending receive events).
    windows_skipped: u64,
    /// Whether the MAC phase of the current window had nothing to
    /// dispatch for this shard — combined with an idle receive phase it
    /// counts the window into [`Self::windows_skipped`].
    mac_was_idle: bool,
}

impl<P: Protocol> ShardCore<P> {
    fn new(index: usize, range: f64) -> Self {
        ShardCore {
            index,
            nodes: Vec::new(),
            mac_heap: BinaryHeap::new(),
            rx_heap: BinaryHeap::new(),
            topo_mac: Topology::new(range),
            topo_rx: Topology::new(range),
            outbox: Vec::new(),
            stats: MediumStats::default(),
            dfa: DfaStats::default(),
            tx: TxStats::default(),
            trace_buf: Vec::new(),
            commands: Vec::new(),
            rx_staged: Vec::new(),
            receiver_scratch: Vec::new(),
            interferer_scratch: Vec::new(),
            idle: IdleTimers::default(),
            interest: FixedMap::default(),
            windows_skipped: 0,
            mac_was_idle: true,
        }
    }

    /// The shard's next pending event time across both phases — its
    /// next-activity time, from which the window loop picks the next
    /// window, so idle stretches are fast-forwarded deterministically.
    fn next_at(&self) -> Option<SimTime> {
        match (self.mac_heap.peek(), self.rx_heap.peek()) {
            (Some(m), Some(r)) => Some(m.at.min(r.at)),
            (Some(m), None) => Some(m.at),
            (None, Some(r)) => Some(r.at),
            (None, None) => None,
        }
    }

    /// Pushes a node-owned MAC event, stamped with the node's private
    /// event counter (the canonical same-key tiebreak).
    fn push_mac(&mut self, at: SimTime, lane: u8, node: NodeId, local: usize, kind: MacKind) {
        let b = self.nodes[local].mac_seq;
        self.nodes[local].mac_seq += 1;
        self.mac_heap.push(MacEvent {
            at,
            lane,
            a: u64::from(node.0),
            b,
            kind,
        });
    }

    /// This shard's MAC phase of the window ending at `t_end` for MACs
    /// without carrier sense: no cross-shard state is touched, so the
    /// shards run it in parallel, and new transmissions buffer in the
    /// outbox for the epoch barrier. Records whether the shard had
    /// anything to dispatch.
    fn mac_phase(&mut self, ctx: &EngineCtx<'_>, t_end: SimTime) {
        self.mac_was_idle = true;
        while let Some(ev) = self.mac_heap.peek() {
            if !ctx.in_window(ev.at, t_end) {
                break;
            }
            self.mac_was_idle = false;
            let ev = self.mac_heap.pop().expect("peeked above");
            self.dispatch_mac(ev, ctx, None);
        }
    }

    fn dispatch_mac(&mut self, ev: MacEvent, ctx: &EngineCtx<'_>, mut csma: Option<CsmaAir<'_>>) {
        let at = ev.at;
        match ev.kind {
            MacKind::Dynamics(action) => match action {
                DynAction::Move { node, to } => self.topo_mac.set_position(node, to),
                DynAction::SetAlive { node, alive } => {
                    self.topo_mac.set_alive(node, alive);
                    if !alive {
                        let (shard, local) = ctx.owner[node.index()];
                        if shard as usize == self.index {
                            let state = &mut self.nodes[local as usize];
                            state.queue.clear();
                            state.transmitting = false;
                            state.dfa_slot_at = None;
                            state.dfa_frame_end = SimTime::ZERO;
                            self.idle.release(node, ctx.rx_floor(at), &mut self.rx_heap);
                        }
                    }
                }
            },
            MacKind::Enqueue { node, payload } => {
                // A node that died during the turnaround delay never
                // hands the frame to its MAC (death clears MAC state
                // until revival).
                if self.topo_mac.is_alive(node) {
                    let local = ctx.local(self.index, node);
                    self.nodes[local].queue.push_back(payload);
                    self.push_mac(at, LANE_M_TRY, node, local, MacKind::Try { node });
                }
            }
            MacKind::TxEnd { node, airtime, seq } => {
                let local = ctx.local(self.index, node);
                self.nodes[local].transmitting = false;
                if self.nodes[local].queue.is_empty() {
                    self.idle.release(node, ctx.rx_floor(at), &mut self.rx_heap);
                }
                self.tx.airtimes.observe(airtime.as_micros() as f64);
                if let Some(cs) = csma.as_mut() {
                    cs.air
                        .mark_ended(seq.expect("carrier sense numbers at the start"));
                }
                if ctx.mac.dfa_config().is_none() {
                    // Next frame, after the inter-frame space. Under DFA
                    // the slot feedback (receive phase) schedules the
                    // re-contention at the frame boundary instead.
                    let retry = at + ctx.mac.ifs;
                    self.push_mac(retry, LANE_M_TRY, node, local, MacKind::Try { node });
                }
            }
            MacKind::Try { node } => self.mac_try(at, node, ctx, csma),
        }
    }

    /// DFA framing on the sharded engine: commits the node to one
    /// uniformly drawn slot of its next frame (drawn from the node's
    /// private MAC stream, so the draw is shard-placement invariant)
    /// and schedules the wakeup. Returns `true` when `mac_try` should
    /// transmit right now — the committed slot has arrived.
    fn dfa_frame_step(&mut self, at: SimTime, node: NodeId, local: usize, dfa: DfaConfig) -> bool {
        if let Some(slot_at) = self.nodes[local].dfa_slot_at {
            if at == slot_at {
                return true;
            }
            if at < slot_at {
                // An early try (e.g. a freshly queued frame); the slot
                // wakeup is already on the heap.
                return false;
            }
            // A stale commitment from before the node's queue drained
            // or the node died; fall through and draw a fresh frame.
        }
        let estimate = match dfa.sizing {
            FrameSizing::Estimated => self.nodes[local].protocol.population_estimate(at),
            _ => None,
        };
        let slots = u64::from(dfa.frame_length(estimate));
        // The frame starts at the next slot boundary after both `at`
        // and the previous frame's end, on the absolute slot grid every
        // node shares.
        let begin = at.max(self.nodes[local].dfa_frame_end);
        let frame_start = align_up(begin, dfa.slot);
        let slot_index = self.nodes[local].mac_rng.gen_range(0..slots);
        let slot_at = frame_start + dfa.slot * slot_index;
        let frame_end = frame_start + dfa.slot * slots;
        let state = &mut self.nodes[local];
        state.dfa_slot_at = Some(slot_at);
        state.dfa_frame_end = frame_end;
        self.dfa.frames += 1;
        self.dfa.slots += slots;
        self.push_mac(slot_at, LANE_M_TRY, node, local, MacKind::Try { node });
        false
    }

    fn mac_try(
        &mut self,
        at: SimTime,
        node: NodeId,
        ctx: &EngineCtx<'_>,
        mut csma: Option<CsmaAir<'_>>,
    ) {
        if !self.topo_mac.is_alive(node) {
            return;
        }
        let local = ctx.local(self.index, node);
        {
            let state = &self.nodes[local];
            if state.transmitting || state.queue.is_empty() {
                return;
            }
        }
        if let Some(&dfa) = ctx.mac.dfa_config() {
            if !self.dfa_frame_step(at, node, local, dfa) {
                return;
            }
            self.nodes[local].dfa_slot_at = None;
        }
        let pos = self.topo_mac.position(node);
        if let Some(cs) = csma.as_mut() {
            if cs.air.busy_for(node, pos, at, &self.topo_mac) {
                let slots = u64::from(
                    self.nodes[local]
                        .mac_rng
                        .gen_range(1..=ctx.mac.max_backoff_slots),
                );
                self.tx.backoffs += 1;
                self.tx.backoff_slots += slots;
                let retry = at + ctx.mac.backoff_slot * slots;
                self.push_mac(retry, LANE_M_TRY, node, local, MacKind::Try { node });
                return;
            }
        }
        let state = &mut self.nodes[local];
        let payload = state.queue.pop_front().expect("checked non-empty above");
        let bits_on_air = ctx.radio.bits_on_air(payload.bits());
        let airtime = ctx.radio.airtime(payload.bits());
        let end = at + airtime;
        let tx_idx = state.tx_count;
        state.tx_count += 1;
        state.transmitting = true;
        state.meter.record_tx(bits_on_air, airtime.as_micros());
        let mut pending = PendingTx {
            node,
            tx_idx,
            start: at,
            end,
            bits_on_air,
            pos,
            seq: None,
            frame: Some(Frame::new(node, payload)),
        };
        if let Some(cs) = csma.as_mut() {
            // Carrier-sense MACs run this phase in global event order,
            // so number and insert the record immediately: later
            // same-window carrier senses must hear it.
            let seq = *cs.next_seq;
            *cs.next_seq += 1;
            let cell = cell_of(pos, cs.air.cell_size);
            cs.air.insert(AirRecord {
                seq,
                sender: node,
                start: at,
                end,
                bits_on_air,
                frame: pending.frame.take().expect("frame present"),
                cell,
                ended: false,
            });
            pending.seq = Some(seq);
        }
        let seq = pending.seq;
        self.outbox.push(pending);
        self.push_mac(
            end,
            LANE_M_TXEND,
            node,
            local,
            MacKind::TxEnd { node, airtime, seq },
        );
    }

    /// This shard's receive phase of the window ending at `t_end`,
    /// judged against the air view (read-only here, so the shards run
    /// it in parallel). Returns the shard's next-activity time.
    ///
    /// A window in which neither phase had anything to dispatch counts
    /// as skipped. Heap emptiness is the complete test: in-flight
    /// airtime always has a pending `TxEnd`, and every transmission the
    /// shard must judge comes with a pending `Deliver`.
    fn rx_phase(&mut self, ctx: &EngineCtx<'_>, t_end: SimTime, air: &AirView) -> Option<SimTime> {
        let mut rx_was_idle = true;
        while let Some(&ev) = self.rx_heap.peek() {
            if !ctx.in_window(ev.at, t_end) {
                break;
            }
            rx_was_idle = false;
            let deliver = matches!(ev.kind, RxKind::Deliver { .. });
            if deliver {
                self.rx_heap.pop();
                // Routing may hand a shard one transmission more than
                // once: when its interest set loses and regains the
                // origin cell, or when a mover's record reaches it again.
                // Every copy of one `Deliver { seq }` has the key `(end,
                // LANE_R_DELIVER, seq, 0)`, which no other event shares,
                // and routing runs only between phases and never for a
                // record already past its end, so every copy is on the
                // heap before the first one pops. Keys pop in order and
                // nothing dispatched in between can push a smaller key,
                // so the copies pop back to back: drop the rest here and
                // judge the transmission once.
                while self
                    .rx_heap
                    .peek()
                    .is_some_and(|next| next.key() == ev.key())
                {
                    self.rx_heap.pop();
                }
            }
            self.dispatch_rx(ev, ctx, air);
            // Dispatch only stages its pushes, so any other event is
            // still the heap's top: its first follow-up (a timer
            // re-arming, typically) takes its place with one sift. The
            // pop order cannot tell: keys order every pop, and events
            // that share a key are identical copies.
            let mut staged = self.rx_staged.drain(..);
            if !deliver {
                let mut top = self.rx_heap.peek_mut().expect("dispatched event on top");
                debug_assert!(top.key() == ev.key(), "dispatch pushed past the stage");
                match staged.next() {
                    Some(follow_up) => *top = follow_up,
                    None => {
                        PeekMut::pop(top);
                    }
                }
            }
            self.rx_heap.extend(staged);
        }
        if self.mac_was_idle && rx_was_idle {
            self.windows_skipped += 1;
        }
        self.next_at()
    }

    fn owns(&self, ctx: &EngineCtx<'_>, node: NodeId) -> bool {
        ctx.owner[node.index()].0 as usize == self.index
    }

    fn dispatch_rx(&mut self, ev: RxEvent, ctx: &EngineCtx<'_>, air: &AirView) {
        let at = ev.at;
        match ev.kind {
            RxKind::Dynamics { idx, action } => match action {
                DynAction::Move { node, to } => {
                    self.topo_rx.set_position(node, to);
                    if ctx.tracing && self.owns(ctx, node) {
                        self.trace_buf.push((
                            (at.as_micros(), LANE_T_DYN, idx, 0),
                            TraceEvent::Moved { at, node, to },
                        ));
                    }
                }
                DynAction::SetAlive { node, alive } => {
                    self.topo_rx.set_alive(node, alive);
                    if self.owns(ctx, node) {
                        if ctx.tracing {
                            self.trace_buf.push((
                                (at.as_micros(), LANE_T_DYN, idx, 0),
                                TraceEvent::Liveness { at, node, alive },
                            ));
                        }
                        if alive {
                            // A reborn node boots afresh.
                            self.rx_staged.push(RxEvent {
                                at,
                                lane: LANE_R_START,
                                a: u64::from(node.0),
                                b: 0,
                                kind: RxKind::Start { node },
                            });
                        } else {
                            // The MAC phase released this node's timers at
                            // its death; one parked again since, on a
                            // Dynamic-Frame Aloha requeue, must see the
                            // node dead at its next instant.
                            self.idle.release(node, at, &mut self.rx_staged);
                        }
                    }
                }
            },
            RxKind::Start { node } => {
                if self.topo_rx.is_alive(node) {
                    let local = ctx.local(self.index, node);
                    self.with_ctx(local, at, ctx, |protocol, c| protocol.on_start(c));
                    self.drain_commands(local, at, ctx);
                }
            }
            RxKind::Timer { node, timer, idle } => {
                let local = ctx.local(self.index, node);
                let state = &mut self.nodes[local];
                let alive = self.topo_rx.is_alive(node);
                let fire = if idle {
                    let busy = state.pending_frames() > 0;
                    self.idle.fire(node, timer.handle, at, alive, busy)
                } else {
                    let cancelled =
                        !state.cancelled.is_empty() && state.cancelled.remove(&timer.handle);
                    !cancelled && alive
                };
                if fire {
                    self.with_ctx(local, at, ctx, |protocol, c| protocol.on_timer(c, timer));
                    self.drain_commands(local, at, ctx);
                }
            }
            RxKind::Deliver { seq, sender } => self.deliver(at, seq, sender, ctx, air),
            RxKind::DfaFeedback { seq, sender } => self.dfa_feedback(at, seq, sender, ctx, air),
        }
    }

    /// Sender-side DFA slot feedback: the transmission collided iff a
    /// foreign audible transmission overlapped its airtime. A collided
    /// frame is requeued, and either way the sender re-contends at its frame
    /// boundary — pushed past the current window so the retry never
    /// lands behind this window's already-run MAC phase (the boundary
    /// `window_end(at)` depends only on the lookahead, so
    /// the deferral is shard-count invariant).
    fn dfa_feedback(
        &mut self,
        at: SimTime,
        seq: u64,
        sender: NodeId,
        ctx: &EngineCtx<'_>,
        air: &AirView,
    ) {
        let record = air.get(seq).expect("feedback record retained");
        // The sender judges its own transmission as its one receiver.
        let cell = cell_of(self.topo_rx.position(sender), air.cell_size);
        let interferers = &mut self.interferer_scratch;
        air.gather_interferers(seq, cell, cell, interferers);
        let collided = interferes(interferers, sender, cell, &self.topo_rx);
        let local = ctx.local(self.index, sender);
        if collided {
            self.dfa.collisions += 1;
            if self.topo_rx.is_alive(sender) {
                let payload = record.frame.payload.clone();
                self.nodes[local].queue.push_front(payload);
            }
        } else {
            self.dfa.successes += 1;
        }
        let frame_end = self.nodes[local].dfa_frame_end;
        let retry = frame_end.max(window_end(at));
        self.push_mac(
            retry,
            LANE_M_TRY,
            sender,
            local,
            MacKind::Try { node: sender },
        );
    }

    /// Judges delivery of transmission `seq` to every owned neighbor of
    /// `sender`, in node id order, each receiver drawing from its own
    /// RNG streams.
    fn deliver(
        &mut self,
        at: SimTime,
        seq: u64,
        sender: NodeId,
        ctx: &EngineCtx<'_>,
        air: &AirView,
    ) {
        let mut receivers = std::mem::take(&mut self.receiver_scratch);
        receivers.extend(
            self.topo_rx
                .neighbors(sender)
                .filter(|r| self.owns(ctx, *r))
                .map(|r| (r, cell_of(self.topo_rx.position(r), air.cell_size))),
        );
        if receivers.is_empty() {
            self.receiver_scratch = receivers;
            return;
        }
        // One gather of the overlapping records serves every receiver:
        // the box spans the receivers' cells.
        let (mut lo, mut hi) = (receivers[0].1, receivers[0].1);
        for &(_, (cx, cy)) in &receivers {
            lo = (lo.0.min(cx), lo.1.min(cy));
            hi = (hi.0.max(cx), hi.1.max(cy));
        }
        let mut interferers = std::mem::take(&mut self.interferer_scratch);
        air.gather_interferers(seq, lo, hi, &mut interferers);
        let record = air.get(seq).expect("delivery record retained");
        let bits_on_air = record.bits_on_air;
        let tx_start = record.start;
        let tx_end_at = record.end;
        let airtime_micros = tx_end_at.since(tx_start).as_micros();
        for &(receiver, cell) in &receivers {
            let local = ctx.local(self.index, receiver);
            // Draw before any filtering so the stream is identical
            // across duty-cycle and fault configurations.
            let draw: f64 = self.nodes[local].chan_rng.gen_range(0.0..1.0);
            if ctx.faults.severs(sender, receiver, at) {
                self.stats.partition_losses += 1;
                self.trace_rx(ctx, at, seq, receiver, || TraceEvent::Lost {
                    at,
                    from: sender,
                    to: receiver,
                    seq,
                    reason: LossReason::Partitioned,
                });
                continue;
            }
            if let Some(duty) = self.nodes[local].duty_cycle {
                if !duty.awake_during(tx_start, tx_end_at) {
                    self.stats.sleep_misses += 1;
                    self.trace_rx(ctx, at, seq, receiver, || TraceEvent::Lost {
                        at,
                        from: sender,
                        to: receiver,
                        seq,
                        reason: LossReason::Asleep,
                    });
                    continue;
                }
            }
            let verdict = air.judge(
                seq,
                receiver,
                cell,
                &interferers,
                draw < ctx.radio.frame_loss,
                &self.topo_rx,
            );
            match verdict {
                Verdict::Failed(reason) => {
                    if reason == LossReason::HalfDuplex {
                        self.stats.half_duplex_losses += 1;
                    } else {
                        // The receiver's radio was listening: it paid
                        // for the corrupted or dropped frame.
                        self.nodes[local]
                            .meter
                            .record_rx(bits_on_air, airtime_micros);
                        if reason == LossReason::RfCollision {
                            self.stats.rf_collisions += 1;
                        } else {
                            self.stats.random_losses += 1;
                        }
                    }
                    self.trace_rx(ctx, at, seq, receiver, || TraceEvent::Lost {
                        at,
                        from: sender,
                        to: receiver,
                        seq,
                        reason,
                    });
                }
                Verdict::Delivered => {
                    self.nodes[local]
                        .meter
                        .record_rx(bits_on_air, airtime_micros);
                    // The fault channel judges last, from the receiver's
                    // own fault stream: erasure drops the frame, a
                    // positive BER may flip bits on a per-receiver copy.
                    let mut corrupted: Option<(Frame, u64)> = None;
                    if let Some(channel) = ctx.faults.channel() {
                        let state = &mut self.nodes[local];
                        let fault = channel.judge_frame(&mut state.fault_bad, &mut state.fault_rng);
                        if fault.erased {
                            self.stats.fault_erasures += 1;
                            self.trace_rx(ctx, at, seq, receiver, || TraceEvent::Lost {
                                at,
                                from: sender,
                                to: receiver,
                                seq,
                                reason: LossReason::FaultErasure,
                            });
                            continue;
                        }
                        if fault.bit_error_rate > 0.0 {
                            let mut mangled = record.frame.clone();
                            let mut flipped = 0u64;
                            for bit in 0..mangled.payload.bits() {
                                if state.fault_rng.gen_range(0.0..1.0) < fault.bit_error_rate {
                                    mangled.payload.flip_bit(bit);
                                    flipped += 1;
                                }
                            }
                            if flipped > 0 {
                                corrupted = Some((mangled, flipped));
                            }
                        }
                    }
                    self.stats.deliveries += 1;
                    match corrupted {
                        Some((mangled, flipped)) => {
                            self.stats.corrupted_deliveries += 1;
                            self.stats.flipped_bits += flipped;
                            self.trace_rx(ctx, at, seq, receiver, || TraceEvent::Corrupted {
                                at,
                                from: sender,
                                to: receiver,
                                seq,
                                flipped_bits: flipped,
                            });
                            self.with_ctx(local, at, ctx, |protocol, c| {
                                protocol.on_frame(c, &mangled);
                            });
                            self.drain_commands(local, at, ctx);
                        }
                        None => {
                            self.trace_rx(ctx, at, seq, receiver, || TraceEvent::Delivered {
                                at,
                                from: sender,
                                to: receiver,
                                seq,
                            });
                            let frame = &record.frame;
                            self.with_ctx(local, at, ctx, |protocol, c| {
                                protocol.on_frame(c, frame);
                            });
                            self.drain_commands(local, at, ctx);
                        }
                    }
                }
            }
        }
        receivers.clear();
        self.receiver_scratch = receivers;
        self.interferer_scratch = interferers;
    }

    fn trace_rx(
        &mut self,
        ctx: &EngineCtx<'_>,
        at: SimTime,
        seq: u64,
        receiver: NodeId,
        event: impl FnOnce() -> TraceEvent,
    ) {
        if ctx.tracing {
            self.trace_buf.push((
                (at.as_micros(), LANE_T_RX, seq, u64::from(receiver.0)),
                event(),
            ));
        }
    }

    fn with_ctx(
        &mut self,
        local: usize,
        at: SimTime,
        ctx: &EngineCtx<'_>,
        f: impl FnOnce(&mut P, &mut Context<'_>),
    ) {
        let state = &mut self.nodes[local];
        // Queue depth as of the end of this window's MAC phase — the
        // receive phase's view lags true MAC state by at most one
        // lookahead.
        let pending_frames = state.pending_frames();
        let mut c = Context {
            now: at,
            node: state.id,
            rng: &mut state.proto_rng,
            commands: &mut self.commands,
            next_timer_handle: &mut state.next_timer_handle,
            max_frame_bytes: ctx.radio.max_frame_bytes,
            pending_frames,
        };
        f(&mut state.protocol, &mut c);
    }

    fn drain_commands(&mut self, local: usize, at: SimTime, ctx: &EngineCtx<'_>) {
        while !self.commands.is_empty() {
            let mut batch = std::mem::take(&mut self.commands);
            for command in batch.drain(..) {
                match command {
                    Command::Send { node, payload } => {
                        debug_assert!(self.owns(ctx, node), "nodes only send as themselves");
                        let node_local = ctx.local(self.index, node);
                        // One MAC turnaround after the callback — the
                        // lookahead bound that makes windows independent.
                        let enqueue_at = at + LOOKAHEAD;
                        self.push_mac(
                            enqueue_at,
                            LANE_M_ENQ,
                            node,
                            node_local,
                            MacKind::Enqueue { node, payload },
                        );
                    }
                    Command::SetTimer {
                        node,
                        at,
                        timer,
                        idle,
                    } => {
                        let event = match idle {
                            Some(poll) => {
                                let state = &self.nodes[ctx.local(self.index, node)];
                                let busy = state.pending_frames() > 0;
                                self.idle.arm(node, at, timer, poll, busy)
                            }
                            None => Some(timer_event(node, at, timer, false)),
                        };
                        self.rx_staged.extend(event);
                    }
                    Command::CancelTimer { handle } => {
                        let node = self.nodes[local].id;
                        if !self.idle.cancel(node, handle) {
                            self.nodes[local].cancelled.insert(handle);
                        }
                    }
                }
            }
            if self.commands.is_empty() {
                self.commands = batch;
            }
        }
    }
}

/// Grid cell of a position at the given pitch (the radio range).
fn cell_of(position: Position, cell_size: f64) -> (i64, i64) {
    (
        (position.x / cell_size).floor() as i64,
        (position.y / cell_size).floor() as i64,
    )
}

/// Node-to-shard placement: sorts nodes by grid cell (column-major,
/// node id as tiebreak) and cuts the order into `shards` equal
/// contiguous stripes, returning each node's shard (indexed by id).
/// Neighboring cells share a stripe except at the K − 1 cut lines, so
/// cross-shard deliveries concentrate on thin boundaries. Placement is
/// pure load balancing: the merged event stream is invariant in it.
fn spatial_stripes(topology: &Topology, cell_size: f64, shards: usize) -> Vec<u32> {
    let mut order: Vec<((i64, i64), NodeId)> = topology
        .node_ids()
        .map(|id| (cell_of(topology.position(id), cell_size), id))
        .collect();
    order.sort_unstable_by_key(|&(cell, id)| (cell, id.0));
    let n = order.len().max(1);
    let mut out = vec![0u32; order.len()];
    for (rank, (_, id)) in order.into_iter().enumerate() {
        out[id.index()] = u32::try_from(rank * shards / n).expect("shard index fits u32");
    }
    out
}

/// Configures and constructs a [`ShardedSim`].
///
/// Besides the radio, MAC, range, and fault model, the builder sets the
/// shard count ([`shards`](Self::shards)).
///
/// # Examples
///
/// ```
/// use retri_netsim::prelude::*;
///
/// struct Quiet;
/// impl Protocol for Quiet {
///     fn on_start(&mut self, _ctx: &mut Context<'_>) {}
///     fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
///     fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
/// }
///
/// let mut sim = ShardedSimBuilder::new(1)
///     .radio(RadioConfig::radiometrix_rpc())
///     .mac(MacConfig::csma())
///     .range(100.0)
///     .build(|_id| Quiet);
/// sim.add_node_at(Position::new(0.0, 0.0));
/// sim.run_until(SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct ShardedSimBuilder {
    seed: u64,
    radio: RadioConfig,
    mac: MacConfig,
    range: f64,
    faults: FaultModel,
    shards: usize,
}

impl ShardedSimBuilder {
    /// Starts a builder with the given seed and defaults: the paper's
    /// RPC radio, CSMA, 100 m range, one shard.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ShardedSimBuilder {
            seed,
            radio: RadioConfig::radiometrix_rpc(),
            mac: MacConfig::csma(),
            range: 100.0,
            faults: FaultModel::none(),
            shards: 1,
        }
    }

    /// Sets the radio model.
    #[must_use]
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    /// Sets the MAC configuration.
    #[must_use]
    pub fn mac(mut self, mac: MacConfig) -> Self {
        self.mac = mac;
        self
    }

    /// Sets the radio range in meters (also the interference grid cell
    /// size).
    #[must_use]
    pub fn range(mut self, range: f64) -> Self {
        self.range = range;
        self
    }

    /// Sets the fault model (default: [`FaultModel::none`]).
    #[must_use]
    pub fn faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the shard count. Output is invariant in this knob; it only
    /// chooses how much of the work runs in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Builds the simulator; `factory` creates the protocol instance
    /// for each node added later.
    pub fn build<P, F>(self, factory: F) -> ShardedSim<P>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P + 'static,
    {
        self.mac.validate();
        let cores = (0..self.shards)
            .map(|i| ShardCore::new(i, self.range))
            .collect();
        let mut sim = ShardedSim {
            now: SimTime::ZERO,
            seed: self.seed,
            radio: self.radio,
            mac: self.mac,
            faults: self.faults,
            master: Topology::new(self.range),
            cores,
            owner: Vec::new(),
            air: AirView::new(self.range),
            master_dyn: BinaryHeap::new(),
            next_dyn_idx: 0,
            next_seq: 0,
            frames_sent: 0,
            factory: Box::new(factory),
            tracer: None,
            trace_main: Vec::new(),
            merge_scratch: Vec::new(),
            force_serial: false,
            force_threads: false,
            placement_dirty: false,
            interest_valid: false,
            windows_executed: 0,
            resume: SimTime::ZERO,
        };
        let churn: Vec<ChurnEvent> = sim.faults.churn().to_vec();
        for event in churn {
            sim.schedule_set_alive(event.at, event.node, event.alive);
        }
        sim
    }

    /// Builds the simulator pre-populated with every node of `topology`
    /// (positions and liveness), creating protocols via `factory`.
    ///
    /// Equivalent to adding each node individually but O(topology) —
    /// the replicas clone the finished adjacency instead of relinking
    /// per added node, which matters at 10k nodes.
    pub fn build_with_topology<P, F>(self, topology: &Topology, factory: F) -> ShardedSim<P>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P + 'static,
    {
        let mut sim = self.build(factory);
        sim.master = topology.clone();
        for core in &mut sim.cores {
            core.topo_mac = topology.clone();
            core.topo_rx = topology.clone();
        }
        let ids: Vec<NodeId> = topology.node_ids().collect();
        for id in ids {
            let protocol = (sim.factory)(id);
            sim.admit(id, protocol);
        }
        sim
    }
}

/// The sharded simulation: shard cores, the shared air view, and the
/// epoch-barrier state. See the [module docs](self) for the execution
/// model.
pub struct ShardedSim<P> {
    now: SimTime,
    seed: u64,
    radio: RadioConfig,
    mac: MacConfig,
    faults: FaultModel,
    /// Authoritative topology for the public accessor and shard
    /// rebalancing; dynamics are applied to it at epoch barriers.
    master: Topology,
    cores: Vec<ShardCore<P>>,
    /// `node -> (shard, local index)`.
    owner: Vec<(u32, u32)>,
    air: AirView,
    master_dyn: BinaryHeap<MasterDyn>,
    next_dyn_idx: u64,
    next_seq: u64,
    /// Global transmission counter (the only MediumStats field counted
    /// at the barrier rather than per shard).
    frames_sent: u64,
    factory: Box<dyn FnMut(NodeId) -> P>,
    tracer: Option<Tracer>,
    trace_main: Vec<(TraceKey, TraceEvent)>,
    merge_scratch: Vec<PendingTx>,
    force_serial: bool,
    force_threads: bool,
    /// Whether node placement may be stale (nodes added or dynamics
    /// applied since the last rebalance).
    placement_dirty: bool,
    /// Whether the per-shard interest refcounts match the current
    /// placement and master positions. Scheduled moves keep them valid
    /// incrementally; node adds and ownership rebalances invalidate
    /// them (full rebuild at the next run).
    interest_valid: bool,
    /// Windows actually executed (a window runs only when some shard
    /// has an event in it — fully idle stretches are skipped in O(1)).
    windows_executed: u64,
    /// The instant after the last run's deadline: events before it have
    /// all been dispatched.
    resume: SimTime,
}

impl<P> core::fmt::Debug for ShardedSim<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardedSim")
            .field("now", &self.now)
            .field("shards", &self.cores.len())
            .field("nodes", &self.owner.len())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> ShardedSim<P> {
    /// Adds a node at `position` using the builder's factory; its
    /// `on_start` runs at the current time.
    pub fn add_node_at(&mut self, position: Position) -> NodeId {
        let protocol = (self.factory)(NodeId(self.owner.len() as u32));
        self.add_node_with(position, protocol)
    }

    /// Adds a node with an explicitly constructed protocol instance.
    pub fn add_node_with(&mut self, position: Position, protocol: P) -> NodeId {
        let id = self.master.add(position);
        for core in &mut self.cores {
            core.topo_mac.add(position);
            core.topo_rx.add(position);
        }
        self.admit(id, protocol)
    }

    /// Registers an already-present topology node with the engine. It
    /// joins shard 0; placement moves it at the start of the next run
    /// (placement only affects load balance, never output).
    fn admit(&mut self, id: NodeId, protocol: P) -> NodeId {
        debug_assert_eq!(id.index(), self.owner.len());
        self.placement_dirty = true;
        self.interest_valid = false;
        let core = &mut self.cores[0];
        self.owner.push((0, core.nodes.len() as u32));
        self.air.add_node();
        core.nodes.push(LocalNode::new(self.seed, id, protocol));
        let at = self.now;
        core.rx_heap.push(RxEvent {
            at,
            lane: LANE_R_START,
            a: u64::from(id.0),
            b: 0,
            kind: RxKind::Start { node: id },
        });
        id
    }

    /// Schedules a node to move at a future time (network dynamics).
    pub fn schedule_move(&mut self, at: SimTime, node: NodeId, to: Position) {
        self.push_dynamic(at, DynAction::Move { node, to });
    }

    /// Schedules a node death (`false`) or rebirth (`true`).
    pub fn schedule_set_alive(&mut self, at: SimTime, node: NodeId, alive: bool) {
        self.push_dynamic(at, DynAction::SetAlive { node, alive });
    }

    fn push_dynamic(&mut self, at: SimTime, action: DynAction) {
        let idx = self.next_dyn_idx;
        self.next_dyn_idx += 1;
        self.master_dyn.push(MasterDyn { at, idx, action });
        for core in &mut self.cores {
            core.mac_heap.push(MacEvent {
                at,
                lane: LANE_M_DYN,
                a: idx,
                b: 0,
                kind: MacKind::Dynamics(action),
            });
            core.rx_heap.push(RxEvent {
                at,
                lane: LANE_R_DYN,
                a: idx,
                b: 0,
                kind: RxKind::Dynamics { idx, action },
            });
        }
    }

    /// Sets (or clears) a receiver duty cycle on a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    pub fn set_duty_cycle(&mut self, node: NodeId, duty_cycle: Option<DutyCycle>) {
        let (shard, local) = self.owner[node.index()];
        self.cores[shard as usize].nodes[local as usize].duty_cycle = duty_cycle;
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The radio model in use.
    #[must_use]
    pub fn radio(&self) -> &RadioConfig {
        &self.radio
    }

    /// The topology (positions, liveness, range).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.master
    }

    /// The shard count.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.cores.len()
    }

    /// How many `[T, T+L)` windows the engine actually executed. A
    /// window runs only when some shard has a pending event in it, so
    /// fully idle stretches of simulated time cost zero windows — the
    /// O(active) contract the scaling regression tests pin down.
    #[must_use]
    pub fn windows_executed(&self) -> u64 {
        self.windows_executed
    }

    /// How many executed windows individual shards fast-forwarded
    /// through without dispatching any event (summed over shards):
    /// the per-shard half of the O(active) contract — a shard with no
    /// queued MAC work and no pending receive events skips the window
    /// instead of walking it.
    #[must_use]
    pub fn shard_windows_skipped(&self) -> u64 {
        self.cores.iter().map(|c| c.windows_skipped).sum()
    }

    /// Medium-level counters, summed across shards.
    #[must_use]
    pub fn stats(&self) -> MediumStats {
        let mut total = MediumStats {
            frames_sent: self.frames_sent,
            ..MediumStats::default()
        };
        for core in &self.cores {
            let s = &core.stats;
            total.deliveries += s.deliveries;
            total.rf_collisions += s.rf_collisions;
            total.half_duplex_losses += s.half_duplex_losses;
            total.random_losses += s.random_losses;
            total.sleep_misses += s.sleep_misses;
            total.fault_erasures += s.fault_erasures;
            total.partition_losses += s.partition_losses;
            total.corrupted_deliveries += s.corrupted_deliveries;
            total.flipped_bits += s.flipped_bits;
        }
        total
    }

    /// Dynamic-Frame Aloha counters, summed across shards (all zero
    /// unless the MAC runs DFA).
    #[must_use]
    pub fn dfa_stats(&self) -> DfaStats {
        let mut total = DfaStats::default();
        for core in &self.cores {
            total.merge(&core.dfa);
        }
        total
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.owner.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.owner.len() as u32).map(NodeId)
    }

    fn local_node(&self, node: NodeId) -> &LocalNode<P> {
        let (shard, local) = self.owner[node.index()];
        &self.cores[shard as usize].nodes[local as usize]
    }

    /// The protocol instance of a node, for post-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.local_node(node).protocol
    }

    /// Mutable access to a node's protocol.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    pub fn protocol_mut(&mut self, node: NodeId) -> &mut P {
        let (shard, local) = self.owner[node.index()];
        &mut self.cores[shard as usize].nodes[local as usize].protocol
    }

    /// A node's energy meter.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn meter(&self, node: NodeId) -> &EnergyMeter {
        &self.local_node(node).meter
    }

    /// Network-wide energy meter (sum over nodes).
    #[must_use]
    pub fn total_meter(&self) -> EnergyMeter {
        let mut total = EnergyMeter::new();
        for core in &self.cores {
            for node in &core.nodes {
                total.merge(&node.meter);
            }
        }
        total
    }

    /// How long a node's receiver has been awake so far.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn awake_micros(&self, node: NodeId) -> u64 {
        let elapsed = self.now.as_micros();
        match self.local_node(node).duty_cycle {
            Some(duty) => (elapsed as f64 * duty.on_fraction()) as u64,
            None => elapsed,
        }
    }

    /// A node's total radio energy so far in nanojoules, including idle
    /// listening.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn energy_nj(&self, node: NodeId) -> f64 {
        self.local_node(node)
            .meter
            .total_energy_with_idle_nj(&self.radio.energy, self.awake_micros(node))
    }

    /// Enables event tracing with a bounded ring buffer of `capacity`
    /// events. Re-enabling resets the buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// The tracer, if enabled.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Adds this simulator's totals so far to `obs` under the `netsim_*`
    /// metric names (EXPERIMENTS.md "Observability"); a disabled handle
    /// records nothing. The totals come from the engine's own counters
    /// — [`Self::stats`], [`Self::total_meter`], and per-shard CSMA
    /// backoff and airtime counts — so observing a run never changes
    /// how it executes, and the result is the same at any shard count.
    /// Call it once, after the run: every call adds the totals again.
    pub fn record_metrics(&self, obs: &mut Obs) {
        let mut tx = TxStats::default();
        for core in &self.cores {
            tx.merge(&core.tx);
        }
        crate::obs::record(
            obs,
            &self.stats(),
            &self.total_meter(),
            &self.radio.energy,
            &tx,
        );
    }

    /// Forces the single-threaded window loop even for `shards > 1`.
    /// The windowed algorithm is identical either way — this is a
    /// validation/debugging knob.
    pub fn set_force_serial(&mut self, force: bool) {
        self.force_serial = force;
    }

    /// Forces worker threads for `shards > 1` even when the engine's
    /// cost model (machine parallelism, per-shard node count) would run
    /// the windows inline. A validation/debugging knob; output is
    /// identical either way. [`Self::set_force_serial`] wins if both
    /// are set.
    pub fn set_force_threads(&mut self, force: bool) {
        self.force_threads = force;
    }

    /// Whether the next [`Self::run_until`] would execute windows on
    /// worker threads. False for single-shard sims, forced-serial mode,
    /// single-core machines, or topologies too small to amortize the
    /// per-window barrier traffic (< [`MIN_NODES_PER_SHARD`] owned nodes
    /// per shard) — the windowed algorithm then runs inline, with
    /// identical output. Metrics play no part: they are folded in after
    /// the run ([`Self::record_metrics`]).
    #[must_use]
    pub fn uses_worker_threads(&self) -> bool {
        if self.cores.len() <= 1 || self.force_serial {
            return false;
        }
        if self.force_threads {
            return true;
        }
        std::thread::available_parallelism().map_or(1, usize::from) > 1
            && self.owner.len() >= self.cores.len() * MIN_NODES_PER_SHARD
    }

    /// Re-buckets node ownership into spatial stripes (see
    /// [`spatial_stripes`]). Called at the start of every run (and
    /// skipped unless nodes were added or dynamics ran since the last
    /// rebalance) so churn-heavy workloads keep their balance. Placement
    /// never affects output, so this is purely a load-balance step.
    fn rebalance_ownership(&mut self) {
        if self.cores.len() <= 1 || self.owner.is_empty() || !self.placement_dirty {
            return;
        }
        let desired = spatial_stripes(&self.master, self.air.cell_size, self.cores.len());
        self.reassign(&desired);
    }

    /// Moves every node to shard `desired[id]`, together with its state
    /// and its node-owned events.
    fn reassign(&mut self, desired: &[u32]) {
        self.placement_dirty = false;
        debug_assert_eq!(desired.len(), self.owner.len());
        debug_assert!(desired.iter().all(|&s| (s as usize) < self.cores.len()));
        if desired
            .iter()
            .zip(&self.owner)
            .all(|(want, have)| *want == have.0)
        {
            return;
        }
        // Ownership actually moves: the interest refcounts reflect the
        // old placement, so they rebuild at the start of the run.
        self.interest_valid = false;
        let mut slots: Vec<Option<LocalNode<P>>> = (0..self.owner.len()).map(|_| None).collect();
        let mut mac_orphans: Vec<MacEvent> = Vec::new();
        let mut rx_orphans: Vec<RxEvent> = Vec::new();
        // Pending delivery events may exist on only the cores that were
        // interested under the OLD placement; dedup them by sequence
        // number and re-broadcast below so the new owner of every
        // receiver sees them. (The next barrier routes fresh ones by
        // the new interest sets.)
        let mut pending_delivers: FixedMap<u64, (SimTime, NodeId)> = FixedMap::default();
        let mut idle: Vec<(NodeId, Vec<IdleTimer>)> = Vec::new();
        for core in &mut self.cores {
            for node in core.nodes.drain(..) {
                let index = node.id.index();
                slots[index] = Some(node);
            }
            idle.extend(core.idle.0.drain());
            // Node-owned events follow their node; dynamics already
            // exist once per shard and stay put.
            let events: Vec<MacEvent> = core.mac_heap.drain().collect();
            for ev in events {
                if ev.node().is_some() {
                    mac_orphans.push(ev);
                } else {
                    core.mac_heap.push(ev);
                }
            }
            let events: Vec<RxEvent> = core.rx_heap.drain().collect();
            for ev in events {
                if ev.node().is_some() {
                    rx_orphans.push(ev);
                } else if let RxKind::Deliver { seq, sender } = ev.kind {
                    pending_delivers.insert(seq, (ev.at, sender));
                } else {
                    core.rx_heap.push(ev);
                }
            }
        }
        for (index, slot) in slots.into_iter().enumerate() {
            let node = slot.expect("every node drained into a slot");
            let shard = desired[index] as usize;
            self.owner[index] = (desired[index], self.cores[shard].nodes.len() as u32);
            self.cores[shard].nodes.push(node);
        }
        for ev in mac_orphans {
            let node = ev.node().expect("partitioned as node-owned");
            self.cores[self.owner[node.index()].0 as usize]
                .mac_heap
                .push(ev);
        }
        for ev in rx_orphans {
            let node = ev.node().expect("partitioned as node-owned");
            self.cores[self.owner[node.index()].0 as usize]
                .rx_heap
                .push(ev);
        }
        for (node, timers) in idle {
            let core = &mut self.cores[self.owner[node.index()].0 as usize];
            core.idle.0.insert(node, timers);
        }
        for (seq, (at, sender)) in pending_delivers {
            for core in &mut self.cores {
                core.rx_heap.push(RxEvent {
                    at,
                    lane: LANE_R_DELIVER,
                    a: seq,
                    b: 0,
                    kind: RxKind::Deliver { seq, sender },
                });
            }
        }
    }

    /// Merges buffered trace events (main + per-shard) into the tracer
    /// in canonical key order.
    fn flush_traces(&mut self) {
        let Some(tracer) = self.tracer.as_mut() else {
            for core in &mut self.cores {
                core.trace_buf.clear();
            }
            self.trace_main.clear();
            return;
        };
        let mut all = std::mem::take(&mut self.trace_main);
        for core in &mut self.cores {
            all.append(&mut core.trace_buf);
        }
        all.sort_unstable_by_key(|(key, _)| *key);
        for (_, event) in all.drain(..) {
            tracer.record(event);
        }
        self.trace_main = all;
    }

    /// Rebuilds every shard's interest set from scratch: the grid cells
    /// within one ring of any owned node, refcounted per contributing
    /// node. A record whose origin cell is outside a shard's interest
    /// can neither be received by nor interfere at any node the shard
    /// owns (cell size = radio range), so the barrier's delivery fan-out
    /// is filtered by it. Only placement changes (node
    /// adds, ownership rebalances) pay this full rebuild; scheduled
    /// moves patch the refcounts incrementally as they execute.
    fn build_interest(&mut self) {
        for core in &mut self.cores {
            core.interest.clear();
        }
        for index in 0..self.owner.len() {
            let node = NodeId(index as u32);
            let shard = self.owner[index].0 as usize;
            let (cx, cy) = cell_of(self.master.position(node), self.air.cell_size);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    *self.cores[shard]
                        .interest
                        .entry((cx + dx, cy + dy))
                        .or_insert(0) += 1;
                }
            }
        }
    }
}

/// End of the synchronization window containing `at`: windows tile the
/// timeline at multiples of the lookahead, so the window start (and
/// therefore the whole window sequence) depends only on the global event
/// set — never on the shard count.
fn window_end(at: SimTime) -> SimTime {
    let l = LOOKAHEAD.as_micros();
    SimTime::from_micros((at.as_micros() / l + 1) * l)
}

/// Start of the synchronization window containing `at`.
fn window_start(at: SimTime) -> SimTime {
    let l = LOOKAHEAD.as_micros();
    SimTime::from_micros(at.as_micros() / l * l)
}

/// Routes the delivery events a shard newly needs because its interest
/// set gained `cell`: those of records *originating* in the cell, plus
/// those of in-flight records of senders *currently located* in it (a
/// sender that relocated mid-flight keeps its record indexed under the
/// origin cell, so the origin scan alone would miss it).
fn backfill_gained_cell<P: Protocol>(
    core: &mut ShardCore<P>,
    air: &AirView,
    master: &Topology,
    cell: (i64, i64),
    since: SimTime,
) {
    if let Some(indexed) = air.cells.get(&cell) {
        for &seq in indexed {
            route_deliver(core, air, seq, since);
        }
    }
    for node in master.nodes_in(cell) {
        for &seq in &air.by_node[node.index()] {
            route_deliver(core, air, seq, since);
        }
    }
}

/// Routes the mover's in-flight records to every shard interested in
/// its destination cell (receivers near the destination can hear the
/// remainder of a transmission begun elsewhere).
fn route_mover_records<P: Protocol>(
    cores: &mut [&mut ShardCore<P>],
    air: &AirView,
    node: NodeId,
    new_cell: (i64, i64),
    since: SimTime,
) {
    let seqs = &air.by_node[node.index()];
    if seqs.is_empty() {
        return;
    }
    for core in cores.iter_mut() {
        if core.interest.contains_key(&new_cell) {
            for &seq in seqs {
                route_deliver(core, air, seq, since);
            }
        }
    }
}

/// Pushes the delivery event of retained record `seq` onto a shard,
/// unless the record ended before `since` — it was then delivered at
/// the pre-move positions, which the pre-move interest covered. The
/// shard may already hold the event; the receive phase drops the copy.
fn route_deliver<P: Protocol>(core: &mut ShardCore<P>, air: &AirView, seq: u64, since: SimTime) {
    let record = air.get(seq).expect("indexed record retained");
    if record.end < since {
        return;
    }
    core.rx_heap.push(RxEvent {
        at: record.end,
        lane: LANE_R_DELIVER,
        a: seq,
        b: 0,
        kind: RxKind::Deliver {
            seq,
            sender: record.sender,
        },
    });
}

/// Applies the interest decrements a window's dynamics deferred (see
/// [`Conductor::apply_dynamics`]), dropping cells whose refcount
/// reaches zero. Runs after the window's barrier has routed with the
/// conservative union.
fn apply_interest_decrements<P: Protocol>(
    cores: &mut [&mut ShardCore<P>],
    deferred: &[(usize, (i64, i64))],
) {
    for &(shard, cell) in deferred {
        match cores[shard].interest.get_mut(&cell) {
            Some(count) if *count > 1 => *count -= 1,
            Some(_) => {
                cores[shard].interest.remove(&cell);
            }
            None => debug_assert!(false, "decrement of an untracked interest cell"),
        }
    }
}

/// The globally ordered MAC phase of carrier-sense runs: a cross-shard
/// merge in global event order, so carrier sense observes every earlier
/// transmission start (zero lookahead).
///
/// Each step dispatches the smallest in-window head among the shards'
/// MAC heaps, ties going to the lower shard index (only broadcast
/// dynamics share a key across shards). The scan costs O(K) per event:
/// cheaper than a heap of per-shard cursors at K = 1 and 4, dearer at
/// K = 16 (EXPERIMENTS.md "One engine"). The paper's experiments all
/// run at K = 1.
fn csma_mac_phase<P: Protocol>(
    cores: &mut [&mut ShardCore<P>],
    air: &mut AirView,
    next_seq: &mut u64,
    ctx: &EngineCtx<'_>,
    t_end: SimTime,
) {
    let in_window = |core: &ShardCore<P>| {
        core.mac_heap
            .peek()
            .filter(|ev| ctx.in_window(ev.at, t_end))
            .map(MacEvent::key)
    };
    for core in cores.iter_mut() {
        core.mac_was_idle = in_window(core).is_none();
    }
    while let Some((_, i)) = cores
        .iter()
        .enumerate()
        .filter_map(|(i, core)| Some((in_window(core)?, i)))
        .min()
    {
        let ev = cores[i].mac_heap.pop().expect("peeked above");
        cores[i].dispatch_mac(ev, ctx, Some(CsmaAir { air, next_seq }));
    }
}

/// How the per-shard steps of a window run: in a loop on the calling
/// thread ([`Inline`]) or on parked worker threads ([`Workers`]).
/// [`Conductor::run`] is the one window loop over either.
trait Crew<P> {
    /// Runs `f` on the calling thread with exclusive access to every
    /// shard core and the air view — the steps between phases.
    fn exclusive<R>(&mut self, f: impl FnOnce(&mut [&mut ShardCore<P>], &mut AirView) -> R) -> R;

    /// Every shard's [`ShardCore::mac_phase`] for the window ending at
    /// `t_end`.
    fn mac_phase(&mut self, t_end: SimTime);

    /// Every shard's [`ShardCore::rx_phase`] for the window ending at
    /// `t_end`; returns the earliest next-activity time of any shard.
    fn rx_phase(&mut self, t_end: SimTime) -> Option<SimTime>;
}

/// Runs the per-shard steps one shard after another on the calling
/// thread.
struct Inline<'a, P> {
    cores: Vec<&'a mut ShardCore<P>>,
    air: &'a mut AirView,
    ctx: &'a EngineCtx<'a>,
}

impl<P: Protocol> Crew<P> for Inline<'_, P> {
    fn exclusive<R>(&mut self, f: impl FnOnce(&mut [&mut ShardCore<P>], &mut AirView) -> R) -> R {
        f(&mut self.cores, self.air)
    }

    fn mac_phase(&mut self, t_end: SimTime) {
        for core in &mut self.cores {
            core.mac_phase(self.ctx, t_end);
        }
    }

    fn rx_phase(&mut self, t_end: SimTime) -> Option<SimTime> {
        // `min` drains the iterator, so every shard runs its phase.
        self.cores
            .iter_mut()
            .filter_map(|core| core.rx_phase(self.ctx, t_end, self.air))
            .min()
    }
}

// Worker phases announced through `Hub::phase`.
const PHASE_MAC: u8 = 0;
const PHASE_RX: u8 = 1;
const PHASE_STOP: u8 = 2;

/// Why no shard core or air view lock is ever found poisoned.
const POISONED: &str = "a panic holding this lock is re-raised before it is taken again";

/// What the calling thread and the worker threads share. The atomics
/// are `Relaxed`: every store is followed by a wait on `go` or `done`
/// before the matching load, and the barrier orders the two.
struct Hub {
    /// Releases the parked workers into the announced phase.
    go: Barrier,
    /// Every worker finished the phase and parked again.
    done: Barrier,
    phase: AtomicU8,
    t_end_micros: AtomicU64,
    /// Each shard's next-activity time in µs (`u64::MAX` for none),
    /// published at the end of its receive phase.
    next_slots: Vec<AtomicU64>,
    /// The first panic a worker caught, re-raised on the calling thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Runs the per-shard steps on one worker thread per shard.
///
/// The workers park at [`Hub::go`], run the announced phase on their
/// own core, and park again at [`Hub::done`]; the calling thread's
/// steps run while they are parked. The air view therefore needs no
/// replica: its read-write lock is never contended — workers read it
/// during the receive phase, the calling thread writes it in between.
struct Workers<'a, P> {
    cores: &'a [Mutex<&'a mut ShardCore<P>>],
    air: &'a RwLock<&'a mut AirView>,
    hub: &'a Hub,
}

impl<P> Workers<'_, P> {
    fn run_phase(&mut self, phase: u8, t_end: SimTime) {
        self.hub
            .t_end_micros
            .store(t_end.as_micros(), AtomicOrdering::Relaxed);
        self.hub.phase.store(phase, AtomicOrdering::Relaxed);
        self.hub.go.wait();
        self.hub.done.wait();
        let caught = self
            .hub
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = caught {
            std::panic::resume_unwind(payload);
        }
    }
}

impl<P> Drop for Workers<'_, P> {
    /// Releases the workers for good — also while unwinding from a
    /// panic, which would otherwise leave them parked at `go` and the
    /// thread scope waiting on them forever.
    fn drop(&mut self) {
        self.hub.phase.store(PHASE_STOP, AtomicOrdering::Relaxed);
        self.hub.go.wait();
    }
}

impl<P: Protocol> Crew<P> for Workers<'_, P> {
    fn exclusive<R>(&mut self, f: impl FnOnce(&mut [&mut ShardCore<P>], &mut AirView) -> R) -> R {
        // Uncontended: every worker is parked.
        let mut guards: Vec<_> = self
            .cores
            .iter()
            .map(|core| core.lock().expect(POISONED))
            .collect();
        let mut cores: Vec<&mut ShardCore<P>> = guards.iter_mut().map(|g| &mut ***g).collect();
        let mut air = self.air.write().expect(POISONED);
        f(&mut cores, &mut air)
    }

    fn mac_phase(&mut self, t_end: SimTime) {
        self.run_phase(PHASE_MAC, t_end);
    }

    fn rx_phase(&mut self, t_end: SimTime) -> Option<SimTime> {
        self.run_phase(PHASE_RX, t_end);
        let next = self
            .hub
            .next_slots
            .iter()
            .map(|slot| slot.load(AtomicOrdering::Relaxed))
            .min()
            .unwrap_or(u64::MAX);
        (next != u64::MAX).then(|| SimTime::from_micros(next))
    }
}

/// A worker thread's loop: runs the announced phase on shard `index`
/// until told to stop. A panic is caught and handed to the calling
/// thread, so every worker still reaches every barrier.
fn worker<P: Protocol>(
    index: usize,
    core: &Mutex<&mut ShardCore<P>>,
    air: &RwLock<&mut AirView>,
    ctx: &EngineCtx<'_>,
    hub: &Hub,
) {
    loop {
        hub.go.wait();
        let phase = hub.phase.load(AtomicOrdering::Relaxed);
        if phase == PHASE_STOP {
            return;
        }
        let t_end = SimTime::from_micros(hub.t_end_micros.load(AtomicOrdering::Relaxed));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut core = core.lock().expect(POISONED);
            if phase == PHASE_MAC {
                core.mac_phase(ctx, t_end);
            } else {
                let air = air.read().expect(POISONED);
                let next = core.rx_phase(ctx, t_end, &air);
                hub.next_slots[index].store(
                    next.map_or(u64::MAX, SimTime::as_micros),
                    AtomicOrdering::Relaxed,
                );
            }
        }));
        if let Err(payload) = result {
            hub.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
        hub.done.wait();
    }
}

/// The calling thread's half of the window loop — master dynamics, the
/// CSMA MAC phase, the epoch barrier and pruning, every step that runs
/// while the shards are parked — and the state those steps own.
struct Conductor<'a> {
    ctx: &'a EngineCtx<'a>,
    master: &'a mut Topology,
    master_dyn: &'a mut BinaryHeap<MasterDyn>,
    next_seq: &'a mut u64,
    frames_sent: &'a mut u64,
    trace_main: &'a mut Vec<(TraceKey, TraceEvent)>,
    merge: &'a mut Vec<PendingTx>,
    windows_executed: &'a mut u64,
}

impl Conductor<'_> {
    /// Executes every window with a pending event up to the deadline.
    fn run<P: Protocol>(&mut self, crew: &mut impl Crew<P>) {
        let ctx = self.ctx;
        let slack = ctx.radio.airtime(ctx.radio.max_frame_bytes as u32 * 8) * 2;
        let mut next = crew.exclusive(|cores, _| cores.iter().filter_map(|c| c.next_at()).min());
        while let Some(at) = next.filter(|&at| at <= ctx.deadline) {
            let t_end = window_end(at);
            *self.windows_executed += 1;
            // Window start: master dynamics scheduled inside this window
            // execute now, patching interest refcounts and routing
            // deliveries as they go. Nothing in the window body reads
            // the master topology, so start-of-window application is
            // equivalent to the phases' own in-order replays.
            let mut deferred = Vec::new();
            if self
                .master_dyn
                .peek()
                .is_some_and(|d| ctx.in_window(d.at, t_end))
            {
                deferred = crew.exclusive(|cores, air| self.apply_dynamics(cores, air, t_end));
            }
            if ctx.mac.carrier_sense {
                crew.exclusive(|cores, air| {
                    csma_mac_phase(cores, air, self.next_seq, ctx, t_end);
                });
            } else {
                crew.mac_phase(t_end);
            }
            crew.exclusive(|cores, air| {
                self.barrier(cores, air, !deferred.is_empty());
                // The barrier routed this window's publications with the
                // conservative pre-move ∪ post-move interest; the
                // pre-move halves retire now.
                apply_interest_decrements(cores, &deferred);
            });
            next = crew.rx_phase(t_end);
            // Air garbage collection, once no shard reads the view.
            let horizon = SimTime::from_micros(t_end.as_micros().saturating_sub(slack.as_micros()));
            crew.exclusive(|_, air| air.prune(horizon));
        }
    }

    /// Applies master-topology dynamics scheduled inside the window at
    /// the window's *start*, delta-routing their delivery consequences
    /// when the run has more than one shard:
    ///
    /// - a move patches the owning shard's ±1-ring interest refcounts —
    ///   the new ring's increments land immediately (cells going 0→1
    ///   get the delivery events of their in-flight records), while the
    ///   old ring's decrements are deferred to just after this window's
    ///   barrier, so the barrier routes this window's publications with
    ///   the union of pre- and post-move interest (conservative, hence
    ///   safe for frames that start before and end after the move);
    /// - the mover's own in-flight records are routed to every shard
    ///   interested in the destination cell, because a relocating
    ///   sender keeps its records indexed under their origin cells.
    ///
    /// Returns the deferred interest decrements, to be applied by
    /// [`apply_interest_decrements`] after the window's barrier.
    fn apply_dynamics<P: Protocol>(
        &mut self,
        cores: &mut [&mut ShardCore<P>],
        air: &AirView,
        t_end: SimTime,
    ) -> Vec<(usize, (i64, i64))> {
        let routed = cores.len() > 1;
        let mut deferred: Vec<(usize, (i64, i64))> = Vec::new();
        while let Some(next) = self.master_dyn.peek() {
            if !self.ctx.in_window(next.at, t_end) {
                break;
            }
            let dynamic = self.master_dyn.pop().expect("peeked above");
            match dynamic.action {
                DynAction::Move { node, to } => {
                    let (old_cell, new_cell) = self.master.set_position_tracked(node, to);
                    if !routed || old_cell == new_cell {
                        continue;
                    }
                    let shard = self.ctx.owner[node.index()].0 as usize;
                    for dx in -1..=1 {
                        for dy in -1..=1 {
                            deferred.push((shard, (old_cell.0 + dx, old_cell.1 + dy)));
                        }
                    }
                    for dx in -1..=1 {
                        for dy in -1..=1 {
                            let cell = (new_cell.0 + dx, new_cell.1 + dy);
                            let count = cores[shard].interest.entry(cell).or_insert(0);
                            *count += 1;
                            if *count == 1 {
                                backfill_gained_cell(
                                    cores[shard],
                                    air,
                                    self.master,
                                    cell,
                                    dynamic.at,
                                );
                            }
                        }
                    }
                    route_mover_records(cores, air, node, new_cell, dynamic.at);
                }
                DynAction::SetAlive { node, alive } => self.master.set_alive(node, alive),
            }
        }
        deferred
    }

    /// The epoch barrier: merges the shards' outboxes in canonical
    /// order, numbers the transmissions, records stats and traces,
    /// publishes the air records, and routes each delivery
    /// event to the shards that can possibly need it.
    ///
    /// Every receiver and every interferable pair sits within one cell
    /// ring of its counterpart (cell size = radio range), so a delivery
    /// event for a shard whose interest set lacks the record's origin
    /// cell would be a no-op: the shard owns no neighbor of the sender.
    /// Single-shard runs skip the filter.
    ///
    /// `moved` says a node changed cells at this window's start. A
    /// sender that did so after its transmission began has left the
    /// record's origin cell, and [`route_mover_records`] ran before the
    /// record existed, so such a record also goes to the shards
    /// interested in its sender's current cell.
    fn barrier<P: Protocol>(
        &mut self,
        cores: &mut [&mut ShardCore<P>],
        air: &mut AirView,
        moved: bool,
    ) {
        let ctx = self.ctx;
        let merge = &mut *self.merge;
        merge.clear();
        for core in cores.iter_mut() {
            merge.append(&mut core.outbox);
        }
        // Quiet windows (no transmissions started) skip the whole
        // barrier body.
        if merge.is_empty() {
            return;
        }
        merge.sort_unstable_by_key(|p| (p.start, p.node.0, p.tx_idx));
        let routed = cores.len() > 1;
        for p in merge.drain(..) {
            let seq = p.seq.unwrap_or_else(|| {
                let seq = *self.next_seq;
                *self.next_seq += 1;
                seq
            });
            *self.frames_sent += 1;
            if ctx.tracing {
                self.trace_main.push((
                    (p.start.as_micros(), LANE_T_TX, seq, 0),
                    TraceEvent::TxStart {
                        at: p.start,
                        node: p.node,
                        seq,
                        bits: p.bits_on_air,
                    },
                ));
            }
            if let Some(frame) = p.frame {
                let cell = cell_of(p.pos, air.cell_size);
                air.insert(AirRecord {
                    seq,
                    sender: p.node,
                    start: p.start,
                    end: p.end,
                    bits_on_air: p.bits_on_air,
                    frame,
                    cell,
                    ended: false,
                });
            }
            // CSMA transmissions were inserted during the MAC phase, ALOHA
            // ones just above — either way the record is published now.
            let cell = air.get(seq).expect("record published at this barrier").cell;
            let here = if moved {
                cell_of(self.master.position(p.node), air.cell_size)
            } else {
                cell
            };
            for core in cores.iter_mut() {
                if routed
                    && !core.interest.contains_key(&cell)
                    && !core.interest.contains_key(&here)
                {
                    continue;
                }
                core.rx_heap.push(RxEvent {
                    at: p.end,
                    lane: LANE_R_DELIVER,
                    a: seq,
                    b: 0,
                    kind: RxKind::Deliver {
                        seq,
                        sender: p.node,
                    },
                });
            }
            if ctx.mac.dfa_config().is_some() {
                // Sender-side slot feedback, routed only to the sender's
                // owner shard, which judges it against the air view at
                // the transmission's end.
                let (shard, _) = ctx.owner[p.node.index()];
                cores[shard as usize].rx_heap.push(RxEvent {
                    at: p.end,
                    lane: LANE_R_FEEDBACK,
                    a: seq,
                    b: 0,
                    kind: RxKind::DfaFeedback {
                        seq,
                        sender: p.node,
                    },
                });
            }
        }
    }
}

impl<P: Protocol + Send> ShardedSim<P> {
    /// Runs all events up to and including `deadline`, then advances
    /// the clock to it.
    ///
    /// Multi-shard runs execute windows on scoped worker threads when
    /// [`Self::uses_worker_threads`] says so; output is identical
    /// either way.
    ///
    /// # Panics
    ///
    /// Propagates panics from protocol callbacks (on worker threads,
    /// re-raised on the caller).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.rebalance_ownership();
        // Multi-shard runs route delivery events by interest: scheduled
        // dynamics patch the refcounted sets incrementally as they
        // execute (see `Conductor::apply_dynamics`), so only placement
        // changes pay a full rebuild.
        if self.cores.len() > 1 && !self.interest_valid {
            self.build_interest();
            self.interest_valid = true;
        }
        let dyn_before = self.master_dyn.len();
        self.run_windows(deadline);
        if self.master_dyn.len() != dyn_before {
            self.placement_dirty = true;
        }
        self.resume = self.resume.max(deadline + SimDuration::from_micros(1));
        self.now = self.now.max(deadline);
        self.flush_traces();
    }

    fn run_windows(&mut self, deadline: SimTime) {
        let threaded = self.uses_worker_threads();
        let ShardedSim {
            cores,
            air,
            next_seq,
            frames_sent,
            trace_main,
            merge_scratch,
            tracer,
            owner,
            radio,
            mac,
            faults,
            master,
            master_dyn,
            windows_executed,
            resume,
            ..
        } = self;
        let ctx = EngineCtx {
            radio,
            mac,
            faults,
            tracing: tracer.is_some(),
            deadline,
            resume: *resume,
            owner,
        };
        let mut conductor = Conductor {
            ctx: &ctx,
            master,
            master_dyn,
            next_seq,
            frames_sent,
            trace_main,
            merge: merge_scratch,
            windows_executed,
        };
        if !threaded {
            conductor.run(&mut Inline {
                cores: cores.iter_mut().collect(),
                air,
                ctx: &ctx,
            });
            return;
        }
        let cores: Vec<Mutex<&mut ShardCore<P>>> = cores.iter_mut().map(Mutex::new).collect();
        let air = RwLock::new(air);
        let hub = Hub {
            go: Barrier::new(cores.len() + 1),
            done: Barrier::new(cores.len() + 1),
            phase: AtomicU8::new(PHASE_STOP),
            t_end_micros: AtomicU64::new(0),
            next_slots: cores.iter().map(|_| AtomicU64::new(u64::MAX)).collect(),
            panic: Mutex::new(None),
        };
        std::thread::scope(|scope| {
            for (index, core) in cores.iter().enumerate() {
                let (air, ctx, hub) = (&air, &ctx, &hub);
                scope.spawn(move || worker(index, core, air, ctx, hub));
            }
            // A panic here or re-raised from a worker unwinds through
            // `Workers::drop`, which releases the workers so the scope
            // can join them before the panic propagates.
            conductor.run(&mut Workers {
                cores: &cores,
                air: &air,
                hub: &hub,
            });
        });
    }
}

/// Test doubles shared by the engine's unit tests and the crate's
/// `sim` and `medium` scenario tests: a chatty protocol and a
/// hand-driven air view.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;

    /// Sends `to_send` frames at start; counts frames heard.
    pub(crate) struct Chatter {
        pub(crate) to_send: u32,
        pub(crate) heard: u32,
        pub(crate) payload_bytes: usize,
    }

    impl Protocol for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.to_send {
                ctx.send(FramePayload::from_bytes(vec![0xAA; self.payload_bytes]).unwrap())
                    .unwrap();
            }
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
            self.heard += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
    }

    /// A saturating sender, the engine-level twin of the AFF senders'
    /// `Saturate` workload: whenever a tick finds the radio queue empty
    /// it sends a burst of 1–6 frames of 1–27 random bytes and records
    /// the instant. Ticks run in chains, each tick arming the next: the
    /// poll-mode twin re-arms a plain timer every `poll` and checks the
    /// queue itself, the idle-mode twin arms
    /// [`Context::set_timer_when_idle`]. A boot starts a chain after
    /// `offset` and leaves any chain of an earlier life running; a heard
    /// frame whose first byte is a multiple of four restarts the current
    /// life's chain (cancel and re-arm).
    pub(crate) struct Saturator {
        pub(crate) idle: bool,
        pub(crate) poll: SimDuration,
        /// Delay from boot to the first tick.
        pub(crate) offset: SimDuration,
        /// No burst starts at or after this instant.
        pub(crate) stop: SimTime,
        /// The instants bursts were sent at.
        pub(crate) sends: Vec<SimTime>,
        /// Timer callbacks made.
        pub(crate) ticks: u64,
        /// Idle-timer callbacks that found the queue busy (the idle
        /// timer's contract is that there are none).
        pub(crate) busy_ticks: u64,
        /// The pending tick of this life's chain.
        chain: Option<TimerHandle>,
    }

    /// Token of a chain's first tick, a plain timer in either mode.
    const FIRST_TICK: u64 = 0;
    /// Token of every later tick.
    const TICK: u64 = 1;

    impl Saturator {
        pub(crate) fn new(
            idle: bool,
            poll: SimDuration,
            offset: SimDuration,
            stop: SimTime,
        ) -> Self {
            Saturator {
                idle,
                poll,
                offset,
                stop,
                sends: Vec::new(),
                ticks: 0,
                busy_ticks: 0,
                chain: None,
            }
        }

        fn next_tick(&self, ctx: &mut Context<'_>) -> TimerHandle {
            if self.idle {
                ctx.set_timer_when_idle(self.poll, TICK)
            } else {
                ctx.set_timer(self.poll, TICK)
            }
        }
    }

    impl Protocol for Saturator {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.chain = Some(ctx.set_timer(self.offset, FIRST_TICK));
        }

        fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
            if frame.payload.bytes()[0].is_multiple_of(4) && ctx.now() < self.stop {
                if let Some(handle) = self.chain.take() {
                    ctx.cancel_timer(handle);
                }
                self.chain = Some(self.next_tick(ctx));
            }
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
            self.ticks += 1;
            if self.idle && timer.token == TICK && ctx.pending_frames() > 0 {
                self.busy_ticks += 1;
            }
            let current = self.chain == Some(timer.handle);
            if current {
                self.chain = None;
            }
            if ctx.now() >= self.stop {
                return;
            }
            if ctx.pending_frames() == 0 {
                for _ in 0..ctx.rng().gen_range(1..=6) {
                    let len = ctx.rng().gen_range(1..=27);
                    let bytes = (0..len).map(|_| ctx.rng().gen()).collect();
                    ctx.send(FramePayload::from_bytes(bytes).unwrap()).unwrap();
                }
                self.sends.push(ctx.now());
            }
            let next = self.next_tick(ctx);
            if current {
                self.chain = Some(next);
            }
        }
    }

    /// A frame from `src` whose payload is the full `u32` id,
    /// little-endian: `src as u8` would alias every node id >= 256 onto
    /// the same probe payload.
    pub(crate) fn probe(src: u32) -> Frame {
        Frame::new(
            NodeId(src),
            FramePayload::from_bytes(src.to_le_bytes().to_vec()).unwrap(),
        )
    }

    /// An air view over a fixed topology, driven by hand: tests publish
    /// transmissions over explicit microsecond intervals, then judge,
    /// carrier-sense and prune them without running an engine.
    pub(crate) struct AirScript {
        pub(super) air: AirView,
        pub(super) topo: Topology,
    }

    impl AirScript {
        pub(crate) fn new(topo: Topology) -> Self {
            let mut air = AirView::new(topo.range());
            for _ in topo.node_ids() {
                air.add_node();
            }
            AirScript { air, topo }
        }

        /// Publishes a probe transmission of `sender` over
        /// `[start, end)` µs the way the epoch barrier does; returns its
        /// sequence number.
        pub(crate) fn tx(&mut self, sender: NodeId, start: u64, end: u64) -> u64 {
            let seq = self.air.base_seq + self.air.records.len() as u64;
            self.air.insert(AirRecord {
                seq,
                sender,
                start: SimTime::from_micros(start),
                end: SimTime::from_micros(end),
                bits_on_air: 8,
                frame: probe(sender.0),
                cell: cell_of(self.topo.position(sender), self.air.cell_size),
                ended: false,
            });
            seq
        }

        /// Runs the MAC `TxEnd` of transmission `seq`.
        pub(crate) fn end(&mut self, seq: u64) {
            self.air.mark_ended(seq);
        }

        /// `receiver`'s verdict on `seq` on a lossless radio: `Ok` for a
        /// delivery, else the loss reason.
        pub(crate) fn verdict(&self, seq: u64, receiver: NodeId) -> Result<(), LossReason> {
            self.judge(seq, receiver, 0.9, 0.0)
        }

        /// `receiver`'s verdict on `seq` when the random-loss draw is
        /// `loss_draw` and the radio drops frames with probability
        /// `frame_loss`.
        pub(crate) fn judge(
            &self,
            seq: u64,
            receiver: NodeId,
            loss_draw: f64,
            frame_loss: f64,
        ) -> Result<(), LossReason> {
            let cell = cell_of(self.topo.position(receiver), self.air.cell_size);
            let mut interferers = Vec::new();
            self.air
                .gather_interferers(seq, cell, cell, &mut interferers);
            let verdict = self.air.judge(
                seq,
                receiver,
                cell,
                &interferers,
                loss_draw < frame_loss,
                &self.topo,
            );
            match verdict {
                Verdict::Delivered => Ok(()),
                Verdict::Failed(reason) => Err(reason),
            }
        }

        /// CSMA carrier sense of `listener` at `now` µs.
        pub(crate) fn busy_for(&self, listener: NodeId, now: u64) -> bool {
            let position = self.topo.position(listener);
            self.air
                .busy_for(listener, position, SimTime::from_micros(now), &self.topo)
        }

        /// Drops the records that ended before `horizon` µs.
        pub(crate) fn prune(&mut self, horizon: u64) {
            self.air.prune(SimTime::from_micros(horizon));
        }

        /// How many records the view retains.
        pub(crate) fn retained(&self) -> usize {
            self.air.records.len()
        }

        /// The sender and frame of retained record `seq`.
        pub(crate) fn record(&self, seq: u64) -> Option<(NodeId, &Frame)> {
            self.air
                .get(seq)
                .map(|record| (record.sender, &record.frame))
        }
    }

    /// Reference RF-collision test: the per-receiver scan of the 3×3
    /// cells around `receiver` that the engine's gather-and-filter
    /// replaced. Whether any foreign transmission audible at `receiver`
    /// overlaps `[start, end)` other than `exclude_seq`.
    pub(super) fn reference_interference_at(
        air: &AirView,
        receiver: NodeId,
        position: Position,
        start: SimTime,
        end: SimTime,
        exclude_seq: u64,
        topology: &Topology,
    ) -> bool {
        let (cx, cy) = cell_of(position, air.cell_size);
        (-1..=1).any(|dx| {
            (-1..=1).any(|dy| {
                air.cells.get(&(cx + dx, cy + dy)).is_some_and(|seqs| {
                    seqs.iter().any(|&seq| {
                        let record = air.get(seq).expect("indexed record retained");
                        seq != exclude_seq
                            && record.sender != receiver
                            && record.overlaps(start, end)
                            && topology.in_range(record.sender, receiver)
                    })
                })
            })
        })
    }

    /// Reference carrier sense: the scan of the 3×3 cells around
    /// `listener` that the engine's neighbor walk replaced (without the
    /// per-cell on-air counts, which only cut the scan short).
    pub(super) fn reference_busy_for(
        air: &AirView,
        listener: NodeId,
        position: Position,
        now: SimTime,
        topology: &Topology,
    ) -> bool {
        let (cx, cy) = cell_of(position, air.cell_size);
        (-1..=1).any(|dx| {
            (-1..=1).any(|dy| {
                air.cells.get(&(cx + dx, cy + dy)).is_some_and(|seqs| {
                    seqs.iter().any(|&seq| {
                        let record = air.get(seq).expect("indexed record retained");
                        !record.ended
                            && record.sender != listener
                            && record.start <= now
                            && record.end > now
                            && topology.in_range(record.sender, listener)
                    })
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::testkit::{AirScript, Chatter};
    use super::*;
    use crate::fault::{ChannelState, GilbertElliott, PartitionWindow};

    fn two_node(seed: u64, mac: MacConfig, shards: usize) -> ShardedSim<Chatter> {
        let mut sim = ShardedSimBuilder::new(seed)
            .mac(mac)
            .shards(shards)
            .build(|id| Chatter {
                to_send: if id == NodeId(0) { 3 } else { 0 },
                heard: 0,
                payload_bytes: 10,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim
    }

    #[test]
    fn aloha_two_node_delivery() {
        let mut sim = two_node(1, MacConfig::aloha(), 2);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.protocol(NodeId(1)).heard, 3);
        assert_eq!(sim.stats().frames_sent, 3);
        assert_eq!(sim.stats().deliveries, 3);
    }

    /// The O(active) contract, global half (ISSUE 7): advancing the
    /// clock across a fully idle stretch must execute zero windows —
    /// a naive engine would walk ~200k empty lookahead windows here,
    /// scanning every shard in each.
    #[test]
    fn fully_idle_stretches_execute_zero_windows() {
        let mut sim = two_node(7, MacConfig::aloha(), 2);
        sim.run_until(SimTime::from_secs(1));
        let active = sim.windows_executed();
        assert!(active > 0, "the chatter phase must execute windows");
        assert_eq!(sim.protocol(NodeId(1)).heard, 3);
        sim.run_until(SimTime::from_secs(101));
        assert_eq!(
            sim.windows_executed(),
            active,
            "idle time must be skipped, not walked window by window"
        );
    }

    /// The O(active) contract, per-shard half: a shard owning only
    /// silent nodes fast-forwards through windows its busy siblings
    /// execute, without perturbing their deliveries.
    #[test]
    fn idle_shards_skip_windows_inside_active_ones() {
        let mut sim = ShardedSimBuilder::new(9)
            .mac(MacConfig::aloha())
            .shards(2)
            .build(|id| Chatter {
                to_send: if id.0 == 0 { 2 } else { 0 },
                heard: 0,
                payload_bytes: 10,
            });
        // Two clusters far apart: the default spatial-stripe placement
        // gives the silent right-hand pair its own shard.
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.add_node_at(Position::new(1000.0, 0.0));
        sim.add_node_at(Position::new(1010.0, 0.0));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.protocol(NodeId(1)).heard, 2);
        assert_eq!(sim.protocol(NodeId(2)).heard, 0);
        assert!(
            sim.shard_windows_skipped() > 0,
            "the silent shard must skip, not walk, the busy windows"
        );
    }

    #[test]
    fn csma_two_node_delivery() {
        let mut sim = two_node(1, MacConfig::csma(), 2);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.protocol(NodeId(1)).heard, 3);
        assert_eq!(sim.stats().deliveries, 3);
    }

    /// An uncontended DFA sender: every slot transmission succeeds,
    /// every transmission gets exactly one feedback verdict, and the
    /// frame/slot accounting holds.
    #[test]
    fn dfa_two_node_delivery() {
        let mac = MacConfig::dfa_known(SimDuration::from_millis(8), 2);
        let mut sim = two_node(1, mac, 2);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.protocol(NodeId(1)).heard, 3);
        assert_eq!(sim.stats().frames_sent, 3);
        assert_eq!(sim.stats().deliveries, 3);
        let dfa = sim.dfa_stats();
        assert_eq!(dfa.successes, 3);
        assert_eq!(dfa.collisions, 0);
        assert_eq!(dfa.attempts(), sim.stats().frames_sent);
        assert!(dfa.frames >= 3, "one frame draw per attempt at least");
        assert_eq!(
            dfa.slots,
            dfa.frames * 2,
            "known N=2 sizes every frame at 2"
        );
    }

    /// A saturated DFA clique: collided frames are requeued and
    /// re-contend in later frames until every payload is through —
    /// the engine must drain completely, with exactly one feedback
    /// verdict per transmission.
    #[test]
    fn dfa_clique_requeues_collisions_until_drained() {
        let mac = MacConfig::dfa_known(SimDuration::from_millis(8), 4);
        let mut sim = ShardedSimBuilder::new(3)
            .mac(mac)
            .shards(2)
            .build(|_| Chatter {
                to_send: 3,
                heard: 0,
                payload_bytes: 10,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.add_node_at(Position::new(0.0, 10.0));
        sim.add_node_at(Position::new(10.0, 10.0));
        sim.run_until(SimTime::from_secs(30));
        for id in sim.node_ids() {
            assert_eq!(
                sim.protocol(id).heard,
                9,
                "{id} must hear all 3 frames of its 3 peers"
            );
        }
        let dfa = sim.dfa_stats();
        assert_eq!(
            dfa.successes, 12,
            "12 distinct payloads eventually got through"
        );
        assert_eq!(
            dfa.attempts(),
            sim.stats().frames_sent,
            "one verdict per transmission"
        );
        assert_eq!(
            sim.stats().frames_sent,
            12 + dfa.collisions,
            "every extra transmission is a requeued collision"
        );
    }

    /// DFA digests — including the DFA counters — are shard-count
    /// invariant (the deterministic cousin of the proptests in
    /// `tests/shard_invariance.rs`).
    #[test]
    fn dfa_is_shard_count_invariant() {
        let mac = MacConfig::dfa_known(SimDuration::from_millis(8), 16);
        let mut reference = grid_run(11, mac, 1, false);
        reference.run_until(SimTime::from_secs(20));
        let want = (digest(&reference), reference.dfa_stats());
        for shards in [2usize, 4] {
            let mut sim = grid_run(11, mac, shards, false);
            sim.run_until(SimTime::from_secs(20));
            assert_eq!(
                (digest(&sim), sim.dfa_stats()),
                want,
                "diverged at {shards} shards"
            );
        }
    }

    /// The condensed output of one run: everything the engine promises
    /// to keep invariant across shard counts.
    #[derive(Debug, PartialEq)]
    struct RunDigest {
        stats: MediumStats,
        heard: Vec<u32>,
        total: EnergyMeter,
        traces: Vec<TraceEvent>,
    }

    fn digest(sim: &ShardedSim<Chatter>) -> RunDigest {
        RunDigest {
            stats: sim.stats(),
            heard: sim.node_ids().map(|id| sim.protocol(id).heard).collect(),
            total: sim.total_meter(),
            traces: sim
                .tracer()
                .map(|t| t.events().copied().collect())
                .unwrap_or_default(),
        }
    }

    /// A saturated 4×4 grid with mobility, churn, partitions, duty
    /// cycling, and a lossy fault channel — every code path at once.
    fn grid_run(seed: u64, mac: MacConfig, shards: usize, faulty: bool) -> ShardedSim<Chatter> {
        let topo = Topology::grid(4, 4, 30.0, 45.0);
        let mut builder = ShardedSimBuilder::new(seed).mac(mac).range(45.0);
        if faulty {
            builder = builder.faults(
                FaultModel::none()
                    .with_channel(GilbertElliott::bursty(
                        ChannelState {
                            frame_erasure: 0.02,
                            bit_error_rate: 1e-3,
                        },
                        ChannelState {
                            frame_erasure: 0.3,
                            bit_error_rate: 1e-2,
                        },
                        0.1,
                        0.4,
                    ))
                    .with_churn_event(SimTime::from_millis(300), NodeId(5), false)
                    .with_churn_event(SimTime::from_millis(700), NodeId(5), true)
                    .with_partition(PartitionWindow::new(
                        SimTime::from_millis(200),
                        SimTime::from_millis(600),
                        vec![NodeId(0), NodeId(1), NodeId(4)],
                    )),
            );
        }
        let mut sim = builder
            .shards(shards)
            .build_with_topology(&topo, |id| Chatter {
                to_send: 2 + id.0 % 3,
                heard: 0,
                payload_bytes: 12,
            });
        sim.enable_trace(100_000);
        sim.schedule_move(
            SimTime::from_millis(250),
            NodeId(3),
            Position::new(200.0, 200.0),
        );
        sim.schedule_move(
            SimTime::from_millis(800),
            NodeId(3),
            Position::new(30.0, 0.0),
        );
        if faulty {
            sim.set_duty_cycle(
                NodeId(7),
                Some(DutyCycle::new(
                    SimDuration::from_millis(50),
                    0.5,
                    SimDuration::ZERO,
                )),
            );
        }
        sim
    }

    fn grid_digest(seed: u64, mac: MacConfig, shards: usize, faulty: bool) -> RunDigest {
        let mut sim = grid_run(seed, mac, shards, faulty);
        // Split the run so rebalancing after the mid-run move happens.
        sim.run_until(SimTime::from_millis(500));
        sim.run_until(SimTime::from_millis(1500));
        digest(&sim)
    }

    #[test]
    fn shard_count_invariance_aloha() {
        let reference = grid_digest(11, MacConfig::aloha(), 1, false);
        assert!(reference.stats.frames_sent > 0);
        assert!(reference.stats.deliveries > 0);
        assert!(!reference.traces.is_empty());
        for shards in [2, 4, 8] {
            assert_eq!(
                grid_digest(11, MacConfig::aloha(), shards, false),
                reference,
                "ALOHA run diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn shard_count_invariance_csma() {
        let reference = grid_digest(12, MacConfig::csma(), 1, false);
        assert!(reference.stats.frames_sent > 0);
        assert!(reference.stats.deliveries > 0);
        for shards in [2, 4, 8] {
            assert_eq!(
                grid_digest(12, MacConfig::csma(), shards, false),
                reference,
                "CSMA run diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn shard_count_invariance_with_faults() {
        for mac in [MacConfig::aloha(), MacConfig::csma()] {
            let reference = grid_digest(13, mac, 1, true);
            assert!(reference.stats.frames_sent > 0);
            for shards in [2, 4] {
                assert_eq!(
                    grid_digest(13, mac, shards, true),
                    reference,
                    "faulty run diverged at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_forced_serial() {
        for mac in [MacConfig::aloha(), MacConfig::csma()] {
            // The 16-node grid is far below the threading threshold, so
            // force the worker-thread path to pin serial == threaded.
            let mut parallel = grid_run(14, mac, 4, true);
            parallel.set_force_threads(true);
            let mut serial = grid_run(14, mac, 4, true);
            serial.set_force_serial(true);
            parallel.run_until(SimTime::from_secs(1));
            serial.run_until(SimTime::from_secs(1));
            assert_eq!(digest(&parallel), digest(&serial));
        }
    }

    /// The full invariance digest, but on the worker-thread engine
    /// (one shared air view, interest routing of delivery events).
    #[test]
    fn shard_count_invariance_threaded() {
        for (seed, mac) in [(15, MacConfig::aloha()), (16, MacConfig::csma())] {
            let reference = grid_digest(seed, mac, 1, true);
            assert!(reference.stats.frames_sent > 0);
            for shards in [2, 4, 8] {
                let mut sim = grid_run(seed, mac, shards, true);
                sim.set_force_threads(true);
                sim.run_until(SimTime::from_millis(500));
                sim.run_until(SimTime::from_millis(1500));
                assert_eq!(
                    digest(&sim),
                    reference,
                    "threaded {mac:?} run diverged at {shards} shards"
                );
            }
        }
    }

    /// Regression test for the PR 5 `sim_fault_channel` blowup: a
    /// testbed-sized topology sharded four ways must run the windowed
    /// loop inline — worker threads and their per-window barriers cost
    /// orders of magnitude more than such a simulation does.
    #[test]
    fn small_topologies_gate_to_the_inline_loop() {
        let mut sim = two_node(41, MacConfig::csma(), 4);
        assert!(
            !sim.uses_worker_threads(),
            "a 2-node sim must not spin up worker threads"
        );
        // The debugging knobs still override the cost model…
        sim.set_force_threads(true);
        assert!(sim.uses_worker_threads());
        // …with force_serial winning over force_threads.
        sim.set_force_serial(true);
        assert!(!sim.uses_worker_threads());
        // Single-shard sims never thread, whatever the knobs say.
        let mut single = two_node(41, MacConfig::csma(), 1);
        single.set_force_threads(true);
        assert!(!single.uses_worker_threads());
    }

    /// Transmissions that start and end inside one window (airtime
    /// shorter than the lookahead) all count as ended airtimes.
    #[test]
    fn same_window_transmissions_leave_no_assignment_behind() {
        let mut sim = ShardedSimBuilder::new(5)
            .radio(RadioConfig::ideal(1_000_000, 27))
            .mac(MacConfig::aloha())
            .build(|_| Chatter {
                to_send: 200,
                heard: 0,
                payload_bytes: 27,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.stats().frames_sent, 400);
        let mut obs = Obs::enabled();
        sim.record_metrics(&mut obs);
        let snap = obs.snapshot().expect("enabled");
        assert_eq!(snap.counter("netsim_tx_airtime_completed_total"), 400);
    }

    /// A run stopped while a frame is on the air counts it as started
    /// and active, but not as completed or in the airtime histogram.
    #[test]
    fn a_frame_on_the_air_at_the_deadline_stays_active() {
        let mut sim = two_node(8, MacConfig::aloha(), 1);
        // ALOHA sends the first frame one turnaround after the start and
        // the second one inter-frame space after the first ends.
        let airtime = sim.radio().airtime(10 * 8);
        let second_start = SimTime::ZERO + LOOKAHEAD + airtime + MacConfig::aloha().ifs;
        sim.run_until(second_start + SimDuration::from_micros(airtime.as_micros() / 2));
        let mut obs = Obs::enabled();
        sim.record_metrics(&mut obs);
        let snap = obs.snapshot().expect("enabled");
        assert_eq!(snap.counter("netsim_tx_airtime_started_total"), 2);
        assert_eq!(snap.counter("netsim_tx_airtime_completed_total"), 1);
        assert_eq!(snap.gauge("netsim_tx_airtime_active"), 1.0);
        let airtimes = snap
            .histogram_with("netsim_tx_airtime_micros", &[])
            .expect("airtime histogram registered");
        assert_eq!(airtimes.count(), 1);
        assert_eq!(airtimes.sum(), airtime.as_micros() as f64);
    }

    proptest! {
        /// Observed runs keep their worker threads, and observing one
        /// changes neither its output nor, at any shard count, its
        /// metrics: both equal the inline single-shard run's.
        #[test]
        fn threaded_observed_runs_match_one_shard(seed in 0..u64::MAX, faulty in any::<bool>()) {
            for mac in [MacConfig::aloha(), MacConfig::csma()] {
                let mut reference = grid_run(seed, mac, 1, faulty);
                reference.run_until(SimTime::from_millis(500));
                reference.run_until(SimTime::from_millis(1500));
                let mut expected = Obs::enabled();
                reference.record_metrics(&mut expected);
                let expected = expected.snapshot().expect("enabled").to_jsonl();
                for shards in [2, 4, 8] {
                    let mut sim = grid_run(seed, mac, shards, faulty);
                    sim.set_force_threads(true);
                    prop_assert!(sim.uses_worker_threads());
                    sim.run_until(SimTime::from_millis(500));
                    sim.run_until(SimTime::from_millis(1500));
                    let mut obs = Obs::enabled();
                    sim.record_metrics(&mut obs);
                    prop_assert_eq!(digest(&sim), digest(&reference), "{:?} at K = {}", mac, shards);
                    let snapshot = obs.snapshot().expect("enabled").to_jsonl();
                    prop_assert_eq!(&snapshot, &expected, "{:?} at K = {}", mac, shards);
                }
            }
        }
    }

    /// A shard's interest set loses and regains the sender's cell while
    /// its frame is on the air — the receiver moves away and back within
    /// one airtime — so routing hands that shard the delivery event more
    /// than once. The receive phase must judge the frame once: one
    /// shard, two threaded shards and two inline shards all agree.
    #[test]
    fn regained_interest_delivers_once() {
        let run = |shards: usize, threads: bool| {
            let mut sim = ShardedSimBuilder::new(3)
                .mac(MacConfig::aloha())
                .range(100.0)
                .shards(shards)
                .build(|id| Chatter {
                    to_send: u32::from(id == NodeId(1)),
                    heard: 0,
                    payload_bytes: 27,
                });
            // Stripes by grid cell: {0, sender} | {receiver, 3}.
            sim.add_node_at(Position::new(-500.0, 50.0));
            let sender = sim.add_node_at(Position::new(90.0, 50.0));
            let receiver = sim.add_node_at(Position::new(110.0, 50.0));
            sim.add_node_at(Position::new(700.0, 50.0));
            sim.enable_trace(64);
            if threads {
                sim.set_force_threads(true);
            } else {
                sim.set_force_serial(true);
            }
            // The frame is on the air over [0.5 ms, 7.1 ms).
            sim.schedule_move(
                SimTime::from_micros(1_200),
                receiver,
                Position::new(3_000.0, 3_000.0),
            );
            sim.schedule_move(
                SimTime::from_micros(3_200),
                receiver,
                Position::new(110.0, 50.0),
            );
            sim.run_until(SimTime::from_micros(3_500));
            if shards > 1 {
                let receiver_shard = sim.owner[receiver.index()].0 as usize;
                assert_ne!(receiver_shard, sim.owner[sender.index()].0 as usize);
                let copies = sim.cores[receiver_shard]
                    .rx_heap
                    .iter()
                    .filter(|ev| matches!(ev.kind, RxKind::Deliver { .. }))
                    .count();
                assert!(copies > 1, "routing must repeat the delivery event");
            }
            sim.run_until(SimTime::from_millis(50));
            sim
        };
        let reference = run(1, false);
        assert_eq!(reference.stats().frames_sent, 1);
        assert_eq!(reference.protocol(NodeId(2)).heard, 1);
        let want = digest(&reference);
        for threads in [true, false] {
            let sim = run(2, threads);
            let heard: Vec<u32> = sim.node_ids().map(|id| sim.protocol(id).heard).collect();
            assert_eq!(heard, want.heard, "threads: {threads}");
            assert_eq!(digest(&sim), want, "threads: {threads}");
        }
    }

    /// Panics at a fixed sim time on one node.
    struct Grenade {
        armed: bool,
    }

    impl Protocol for Grenade {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if self.armed {
                ctx.set_timer(SimDuration::from_millis(7), 99);
            }
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {
            panic!("protocol detonated");
        }
    }

    /// A panic inside a protocol callback on a worker thread must
    /// propagate to the caller with its original payload — not hang the
    /// barrier protocol, and not surface as a generic secondhand
    /// message.
    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let result = std::panic::catch_unwind(|| {
            let mut sim = ShardedSimBuilder::new(43)
                .shards(4)
                .build(|id| Grenade { armed: id.0 == 2 });
            for i in 0..8 {
                sim.add_node_at(Position::new(f64::from(i) * 30.0, 0.0));
            }
            sim.set_force_threads(true);
            sim.run_until(SimTime::from_secs(1));
        });
        let payload = result.expect_err("the protocol panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(message, "protocol detonated");
    }

    /// Placement is pure load balancing: forcing a scattered placement
    /// that spatial stripes would never pick, in the middle of a run,
    /// leaves the output unchanged on the inline and threaded loops.
    #[test]
    fn placement_strategies_never_change_output() {
        let reference = grid_digest(17, MacConfig::csma(), 1, true);
        let stripes = spatial_stripes(&Topology::grid(4, 4, 30.0, 45.0), 45.0, 3);
        assert_eq!(stripes.len(), 16);
        assert!(stripes.iter().all(|&s| s < 3), "stripes out of range");
        let scattered: Vec<u32> = (0..16).map(|i| i % 3).collect();
        assert_ne!(scattered, stripes);
        for threads in [false, true] {
            let mut sim = grid_run(17, MacConfig::csma(), 3, true);
            sim.set_force_threads(threads);
            sim.run_until(SimTime::from_millis(500));
            sim.reassign(&scattered);
            sim.run_until(SimTime::from_millis(1500));
            assert_eq!(
                digest(&sim),
                reference,
                "scattered placement diverged (threads: {threads})"
            );
        }
    }

    /// Spatial stripes cut the cell-sorted order into contiguous
    /// near-equal chunks.
    #[test]
    fn spatial_stripes_are_contiguous_and_balanced() {
        let topo = Topology::grid(8, 8, 30.0, 45.0);
        let assignment = spatial_stripes(&topo, 45.0, 4);
        let mut sizes = [0usize; 4];
        for &s in &assignment {
            sizes[s as usize] += 1;
        }
        assert_eq!(sizes, [16, 16, 16, 16]);
        // Contiguous: ascending grid cells never step back a shard.
        let mut by_cell: Vec<((i64, i64), u32)> = topo
            .node_ids()
            .map(|id| (cell_of(topo.position(id), 45.0), assignment[id.index()]))
            .collect();
        by_cell.sort_unstable();
        assert!(by_cell.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    /// Arms two timers at start, cancels one of them.
    struct Ticker {
        fired: Vec<u64>,
    }

    impl Protocol for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
            let doomed = ctx.set_timer(SimDuration::from_millis(20), 2);
            ctx.set_timer(SimDuration::from_millis(30), 3);
            ctx.cancel_timer(doomed);
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, timer: Timer) {
            self.fired.push(timer.token);
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let mut sim = ShardedSimBuilder::new(9)
            .shards(2)
            .build(|_| Ticker { fired: Vec::new() });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.run_until(SimTime::from_millis(100));
        for id in [NodeId(0), NodeId(1)] {
            assert_eq!(sim.protocol(id).fired, vec![1, 3]);
        }
    }

    /// Queues `burst` full frames at boot; 1 ms in, while they are still
    /// queued, arms one idle timer per entry of `polls` (tokens 10, 11,
    /// …), and at `cancel_at` cancels them. Records every handle it gets
    /// and every idle timer that fires, with the pending count it saw.
    struct Parker {
        burst: u32,
        polls: Vec<u64>,
        cancel_at: Option<SimDuration>,
        armed: Vec<TimerHandle>,
        idle: Vec<TimerHandle>,
        fired: Vec<(u64, SimTime, usize)>,
    }

    impl Parker {
        fn new(burst: u32, polls: &[u64], cancel_at: Option<SimDuration>) -> Self {
            Parker {
                burst,
                polls: polls.to_vec(),
                cancel_at,
                armed: Vec::new(),
                idle: Vec::new(),
                fired: Vec::new(),
            }
        }
    }

    impl Protocol for Parker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.burst {
                ctx.send(FramePayload::from_bytes(vec![7; 27]).unwrap())
                    .unwrap();
            }
            self.armed
                .push(ctx.set_timer(SimDuration::from_millis(1), 1));
            if let Some(at) = self.cancel_at {
                self.armed.push(ctx.set_timer(at, 2));
            }
        }
        fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
            match timer.token {
                1 => {
                    for (i, &poll) in self.polls.iter().enumerate() {
                        let poll = SimDuration::from_micros(poll);
                        let handle = ctx.set_timer_when_idle(poll, 10 + i as u64);
                        self.armed.push(handle);
                        self.idle.push(handle);
                    }
                }
                2 => {
                    for &handle in &self.idle {
                        ctx.cancel_timer(handle);
                    }
                }
                token => self.fired.push((token, ctx.now(), ctx.pending_frames())),
            }
        }
    }

    fn parker_sim(
        shards: usize,
        parker: impl Fn(NodeId) -> Parker + 'static,
    ) -> ShardedSim<Parker> {
        ShardedSimBuilder::new(41)
            .mac(MacConfig::aloha())
            .range(50.0)
            .shards(shards)
            .build(parker)
    }

    /// The armed idle timers of `node`, with the shard holding each and
    /// whether it is parked.
    fn idle_on(sim: &ShardedSim<Parker>, node: NodeId) -> Vec<(usize, TimerHandle, bool)> {
        sim.cores
            .iter()
            .enumerate()
            .flat_map(|(shard, core)| {
                core.idle
                    .0
                    .get(&node)
                    .into_iter()
                    .flatten()
                    .map(move |t| (shard, t.timer.handle, t.parked.is_some()))
            })
            .collect()
    }

    #[test]
    fn parked_idle_timers_fire_once_the_queue_drains() {
        let mut sim = parker_sim(1, |_| Parker::new(4, &[300, 700], None));
        let node = sim.add_node_at(Position::new(0.0, 0.0));
        sim.run_until(SimTime::from_millis(2));
        // Armed while four frames were queued: both wait off the heap.
        let idle = sim.protocol(node).idle.clone();
        let armed: Vec<(usize, TimerHandle, bool)> =
            idle.iter().map(|&handle| (0, handle, true)).collect();
        assert_eq!(idle_on(&sim, node), armed);
        sim.run_until(SimTime::from_secs(1));
        assert!(idle_on(&sim, node).is_empty());
        let fired = &sim.protocol(node).fired;
        assert_eq!(
            fired.len(),
            2,
            "each idle timer fires exactly once: {fired:?}"
        );
        let armed_at = SimTime::from_millis(1);
        for &(token, at, pending) in fired {
            let poll = [300, 700][(token - 10) as usize];
            assert_eq!(pending, 0, "timer {token} fired on a busy queue");
            assert_eq!(
                at.since(armed_at).as_micros() % poll,
                0,
                "timer {token} off its grid"
            );
            assert!(
                at > SimTime::from_millis(20),
                "four 27-byte frames take > 20 ms"
            );
        }
        // The first fires on the first instant of either grid after the
        // queue drained, so the two fire less than a 700 µs poll apart.
        assert!(fired[1].1.since(fired[0].1) < SimDuration::from_micros(700));
    }

    #[test]
    fn idle_timers_draw_handles_from_the_node_counter() {
        let mut sim = parker_sim(1, |_| {
            Parker::new(1, &[300, 900], Some(SimDuration::from_millis(5)))
        });
        let node = sim.add_node_at(Position::new(0.0, 0.0));
        sim.run_until(SimTime::from_millis(2));
        let handles: Vec<u64> = sim.protocol(node).armed.iter().map(|h| h.0).collect();
        assert_eq!(handles, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cancelling_a_parked_idle_timer_leaves_nothing_behind() {
        let cancel_at = Some(SimDuration::from_millis(3));
        let mut sim = parker_sim(1, move |_| Parker::new(4, &[300], cancel_at));
        let node = sim.add_node_at(Position::new(0.0, 0.0));
        sim.run_until(SimTime::from_millis(2));
        assert_eq!(idle_on(&sim, node).len(), 1);
        sim.run_until(SimTime::from_millis(4));
        // Cancelled while parked: no entry and no tombstone.
        assert!(idle_on(&sim, node).is_empty());
        assert!(sim.local_node(node).cancelled.is_empty());
        sim.run_until(SimTime::from_secs(1));
        assert!(
            sim.protocol(node).fired.is_empty(),
            "a cancelled timer fired"
        );
        assert_eq!(sim.stats().frames_sent, 4);
    }

    #[test]
    fn parked_idle_timers_follow_their_node_across_shards() {
        // Stripes cut the cell-sorted nodes in half: {0, 1} | {2, 3}.
        // Node 0, parked, then moves past nodes 2 and 3 while node 2
        // moves home, so the rebalance at the next run hands node 0 to
        // the other shard.
        let mut sim = parker_sim(2, |id| {
            if id == NodeId(0) {
                Parker::new(4, &[300], None)
            } else {
                Parker::new(0, &[], None)
            }
        });
        for x in [10.0, 20.0, 200.0, 210.0] {
            sim.add_node_at(Position::new(x, 10.0));
        }
        let node = NodeId(0);
        sim.run_until(SimTime::from_millis(2));
        let before = idle_on(&sim, node);
        assert_eq!(before.len(), 1);
        assert!(before[0].2, "armed while the queue was busy");
        sim.schedule_move(SimTime::from_millis(3), node, Position::new(220.0, 10.0));
        sim.schedule_move(SimTime::from_millis(3), NodeId(2), Position::new(5.0, 10.0));
        sim.run_until(SimTime::from_millis(4));
        sim.run_until(SimTime::from_millis(5));
        let after = idle_on(&sim, node);
        assert_eq!(after.len(), 1);
        assert_eq!((after[0].1, after[0].2), (before[0].1, before[0].2));
        assert_ne!(after[0].0, before[0].0, "node 0 changed shards");
        assert_eq!(after[0].0, sim.owner[node.index()].0 as usize);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.protocol(node).fired.len(), 1);
    }

    #[test]
    fn a_sender_moving_mid_transmission_reaches_every_shard_in_range() {
        // Node 0 starts its frame at 500 µs (one turnaround after boot)
        // out of node 1's range, on the other shard, and moves next to
        // node 1 in the same window. Delivery at the frame's end follows
        // the sender: the single-shard run delivers, and so must two
        // shards, whose interest sets never held node 0's origin cell.
        let run = |shards: usize| {
            let mut sim = ShardedSimBuilder::new(5)
                .mac(MacConfig::aloha())
                .range(50.0)
                .shards(shards)
                .build(|id| Chatter {
                    to_send: u32::from(id == NodeId(0)),
                    heard: 0,
                    payload_bytes: 8,
                });
            sim.add_node_at(Position::new(200.0, 200.0));
            sim.add_node_at(Position::new(10.0, 10.0));
            sim.schedule_move(
                SimTime::from_micros(700),
                NodeId(0),
                Position::new(20.0, 10.0),
            );
            sim.run_until(SimTime::from_millis(100));
            (sim.stats(), sim.protocol(NodeId(1)).heard)
        };
        let (stats, heard) = run(1);
        assert_eq!((stats.deliveries, heard), (1, 1));
        assert_eq!(run(2), (stats, heard));
    }

    #[test]
    fn moving_out_of_range_stops_delivery() {
        let mut sim = ShardedSimBuilder::new(21)
            .mac(MacConfig::aloha())
            .shards(2)
            .build(|id| Chatter {
                to_send: if id == NodeId(0) { 1 } else { 0 },
                heard: 0,
                payload_bytes: 8,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.enable_trace(64);
        sim.schedule_move(
            SimTime::from_millis(0),
            NodeId(1),
            Position::new(900.0, 0.0),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().frames_sent, 1);
        assert_eq!(sim.stats().deliveries, 0);
        assert!(sim.tracer().unwrap().events().any(|e| matches!(
            e,
            TraceEvent::Moved {
                node: NodeId(1),
                ..
            }
        )));
    }

    #[test]
    fn dead_nodes_do_not_hear_and_revival_reboots() {
        // Node 1 dies before the frame, revives, and re-runs on_start
        // (sending its own frame after rebirth).
        let mut sim = ShardedSimBuilder::new(22)
            .mac(MacConfig::aloha())
            .shards(2)
            .build(|_| Chatter {
                to_send: 1,
                heard: 0,
                payload_bytes: 8,
            });
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(10.0, 0.0));
        sim.enable_trace(64);
        sim.schedule_set_alive(SimTime::from_micros(1), NodeId(1), false);
        sim.schedule_set_alive(SimTime::from_millis(500), NodeId(1), true);
        sim.run_until(SimTime::from_secs(1));
        // Node 0's start-of-run frame found node 1 dead; node 1's
        // rebirth re-ran on_start, and that frame was heard by node 0.
        assert_eq!(sim.protocol(NodeId(0)).heard, 1);
        let liveness: Vec<bool> = sim
            .tracer()
            .unwrap()
            .events()
            .filter_map(|e| match e {
                TraceEvent::Liveness {
                    node: NodeId(1),
                    alive,
                    ..
                } => Some(*alive),
                _ => None,
            })
            .collect();
        assert_eq!(liveness, vec![false, true]);
    }

    #[test]
    fn duty_cycle_sleep_misses_and_awake_micros() {
        let mut sim = two_node(23, MacConfig::aloha(), 2);
        sim.set_duty_cycle(
            NodeId(1),
            Some(DutyCycle::new(
                // Asleep whenever anything is on the air: period 1 s,
                // on only in the last half, frames start near t=0.
                SimDuration::from_secs(1),
                0.5,
                SimDuration::from_millis(500),
            )),
        );
        sim.run_until(SimTime::from_millis(400));
        assert_eq!(sim.stats().sleep_misses, 3);
        assert_eq!(sim.protocol(NodeId(1)).heard, 0);
        assert_eq!(sim.awake_micros(NodeId(1)), 200_000);
        assert_eq!(sim.awake_micros(NodeId(0)), 400_000);
    }

    #[test]
    fn hidden_terminals_collide_in_sharded_engine() {
        let mut sim = ShardedSimBuilder::new(24)
            .range(100.0)
            .shards(4)
            .build(|id| Chatter {
                to_send: if id != NodeId(1) { 40 } else { 0 },
                heard: 0,
                payload_bytes: 27,
            });
        sim.add_node_at(Position::new(-90.0, 0.0));
        sim.add_node_at(Position::new(0.0, 0.0));
        sim.add_node_at(Position::new(90.0, 0.0));
        sim.run_until(SimTime::from_secs(10));
        assert!(
            sim.stats().rf_collisions > 0,
            "hidden terminals must produce RF collisions: {}",
            sim.stats()
        );
    }

    #[test]
    fn builder_bulk_topology_matches_incremental_adds() {
        let topo = Topology::grid(3, 3, 30.0, 45.0);
        let mk_chatter = |id: NodeId| Chatter {
            to_send: 1 + id.0 % 2,
            heard: 0,
            payload_bytes: 6,
        };
        let mut bulk = ShardedSimBuilder::new(31)
            .range(45.0)
            .shards(3)
            .build_with_topology(&topo, mk_chatter);
        let mut incremental = ShardedSimBuilder::new(31)
            .range(45.0)
            .shards(3)
            .build(mk_chatter);
        for id in topo.node_ids() {
            incremental.add_node_at(topo.position(id));
        }
        bulk.run_until(SimTime::from_secs(1));
        incremental.run_until(SimTime::from_secs(1));
        assert_eq!(digest(&bulk), digest(&incremental));
    }

    #[test]
    fn node_streams_are_distinct_per_label_and_node() {
        let mut seen = FixedSet::default();
        for label in [
            "netsim.shard.mac",
            "netsim.shard.proto",
            "netsim.shard.chan",
        ] {
            for node in 0..64 {
                assert!(seen.insert(node_stream_seed(42, label, NodeId(node))));
            }
        }
    }

    #[test]
    fn on_air_counts_follow_insert_end_and_prune() {
        let (topo, (a, r, b)) = Topology::hidden_terminal(100.0);
        let mut script = AirScript::new(topo);
        let sa = script.tx(a, 0, 100);
        let _sb = script.tx(b, 10, 110);
        assert_eq!(script.air.on_air, 2);
        script.end(sa);
        assert_eq!(script.air.on_air, 1);
        // a has nothing left on the air; b still does.
        assert!(!script.busy_for(b, 50));
        assert!(script.busy_for(r, 50));
        // Pruning an un-ended record releases its count too.
        script.prune(500);
        assert!(script.air.cells.is_empty(), "every record pruned");
        assert_eq!(script.air.on_air, 0);
        assert!(!script.busy_for(r, 50));
    }

    mod air_queries {
        use super::super::testkit::{reference_busy_for, reference_interference_at, AirScript};
        use super::super::*;
        use proptest::prelude::*;

        /// One step of a random air history.
        #[derive(Debug, Clone)]
        enum Step {
            /// `sender` transmits over `[start, start + len)` µs.
            Tx { sender: usize, start: u64, len: u64 },
            /// The MAC `TxEnd` of the `pick`-th retained un-ended record.
            End { pick: usize },
            /// `node` relocates (its records stay in their origin cells).
            Move { node: usize, x: f64, y: f64 },
            /// `node` dies or is revived.
            SetAlive { node: usize, alive: bool },
        }

        /// Four in seven steps transmit; the rest end, move or churn.
        fn step(nodes: usize, extent: f64) -> impl Strategy<Value = Step> {
            (
                0u8..7,
                0..nodes,
                (0u64..400, 1u64..200),
                (0.0..extent, 0.0..extent),
                0usize..64,
            )
                .prop_map(|(kind, node, (start, len), (x, y), pick)| match kind {
                    0..=3 => Step::Tx {
                        sender: node,
                        start,
                        len,
                    },
                    4 => Step::End { pick },
                    5 => Step::Move { node, x, y },
                    _ => Step::SetAlive {
                        node,
                        alive: pick % 2 == 0,
                    },
                })
        }

        fn scenario() -> impl Strategy<Value = (Vec<(f64, f64)>, Vec<Step>)> {
            // Range 50 on a 4×4-cell field: most nodes have neighbors,
            // many do not, and cell boundaries are everywhere.
            (2usize..12).prop_flat_map(|n| {
                (
                    proptest::collection::vec((0.0..200.0f64, 0.0..200.0f64), n),
                    proptest::collection::vec(step(n, 200.0), 1..40),
                )
            })
        }

        fn replay(positions: &[(f64, f64)], steps: &[Step]) -> AirScript {
            let mut topo = Topology::new(50.0);
            for &(x, y) in positions {
                topo.add(Position::new(x, y));
            }
            let mut script = AirScript::new(topo);
            for step in steps {
                match *step {
                    Step::Tx { sender, start, len } => {
                        script.tx(NodeId(sender as u32), start, start + len);
                    }
                    Step::End { pick } => {
                        let open: Vec<u64> = script
                            .air
                            .records
                            .iter()
                            .filter(|record| !record.ended)
                            .map(|record| record.seq)
                            .collect();
                        if !open.is_empty() {
                            script.end(open[pick % open.len()]);
                        }
                    }
                    Step::Move { node, x, y } => {
                        script
                            .topo
                            .set_position(NodeId(node as u32), Position::new(x, y));
                    }
                    Step::SetAlive { node, alive } => {
                        script.topo.set_alive(NodeId(node as u32), alive);
                    }
                }
            }
            script
        }

        // The default config runs 256 cases and honours
        // `PROPTEST_CASES`, which CI raises to widen this sweep.
        proptest! {
            /// The gather-and-filter interference verdict, for a box
            /// spanning every node (a delivery's receivers) and for the
            /// sender's own cell (DFA feedback), and the neighbor-walk
            /// carrier sense agree with the 3×3 cell scans they replaced
            /// for every record, receiver and instant.
            #[test]
            fn air_queries_match_the_cell_scans(case in scenario()) {
                let script = replay(&case.0, &case.1);
                let (air, topo) = (&script.air, &script.topo);
                let nodes: Vec<(NodeId, Cell)> = topo
                    .node_ids()
                    .map(|id| (id, cell_of(topo.position(id), air.cell_size)))
                    .collect();
                let xs = || nodes.iter().map(|&(_, cell)| cell.0);
                let ys = || nodes.iter().map(|&(_, cell)| cell.1);
                let lo = (xs().min().unwrap(), ys().min().unwrap());
                let hi = (xs().max().unwrap(), ys().max().unwrap());
                let mut gathered = Vec::new();
                let mut own = Vec::new();
                for record in &air.records {
                    let (seq, start, end) = (record.seq, record.start, record.end);
                    air.gather_interferers(seq, lo, hi, &mut gathered);
                    for &(receiver, cell) in &nodes {
                        let position = topo.position(receiver);
                        let want =
                            reference_interference_at(air, receiver, position, start, end, seq, topo);
                        prop_assert_eq!(
                            interferes(&gathered, receiver, cell, topo),
                            want,
                            "record {} at receiver {}", seq, receiver
                        );
                        air.gather_interferers(seq, cell, cell, &mut own);
                        prop_assert_eq!(interferes(&own, receiver, cell, topo), want);
                    }
                }
                let mut instants: Vec<u64> = air
                    .records
                    .iter()
                    .flat_map(|r| {
                        let (s, e) = (r.start.as_micros(), r.end.as_micros());
                        [s.saturating_sub(1), s, s + 1, e.saturating_sub(1), e, e + 1]
                    })
                    .collect();
                instants.sort_unstable();
                instants.dedup();
                for now in instants {
                    let now = SimTime::from_micros(now);
                    for &(listener, _) in &nodes {
                        let position = topo.position(listener);
                        prop_assert_eq!(
                            air.busy_for(listener, position, now, topo),
                            reference_busy_for(air, listener, position, now, topo),
                            "listener {} at {}", listener, now
                        );
                    }
                }
            }
        }
    }

    mod idle_timer {
        use super::super::testkit::Saturator;
        use super::super::*;
        use proptest::prelude::*;

        /// A scheduled topology change.
        #[derive(Debug, Clone)]
        enum Change {
            Die {
                node: usize,
                at: u64,
                down: u64,
            },
            Move {
                node: usize,
                at: u64,
                x: f64,
                y: f64,
            },
        }

        /// One run: a MAC, a poll interval, nodes on a 3×3-cell field
        /// (range 50) with their first-tick offsets, topology changes,
        /// and the deadlines `run_until` is called with.
        #[derive(Debug, Clone)]
        struct Case {
            seed: u64,
            mac: u8,
            poll: u64,
            nodes: Vec<(f64, f64, u64)>,
            changes: Vec<Change>,
            stops: Vec<u64>,
        }

        /// The run's end, µs; bursts stop 100 ms earlier.
        const END: u64 = 400_000;

        fn change(nodes: usize) -> impl Strategy<Value = Change> {
            (
                0u8..2,
                0..nodes,
                1u64..END,
                1u64..20_000,
                (0.0..150.0f64, 0.0..150.0f64),
            )
                .prop_map(|(kind, node, at, down, (x, y))| match kind {
                    0 => Change::Die { node, at, down },
                    _ => Change::Move { node, at, x, y },
                })
        }

        /// The poll interval: under the 500 µs lookahead, equal to it,
        /// or above it and off its grid.
        fn poll() -> impl Strategy<Value = u64> {
            (0u8..3, 1u64..4_000).prop_map(|(kind, p)| match kind {
                0 => 50 + p % 450,
                1 => 500,
                _ => 501 + p + u64::from(p % 500 == 499),
            })
        }

        fn case() -> impl Strategy<Value = Case> {
            (2usize..14).prop_flat_map(|n| {
                (
                    (any::<u64>(), 0u8..3, poll()),
                    proptest::collection::vec((0.0..150.0f64, 0.0..150.0f64, 0u64..6_000), n),
                    proptest::collection::vec(change(n), 0..8),
                    proptest::collection::vec(1u64..END, 0..6),
                )
                    .prop_map(|((seed, mac, poll), nodes, changes, stops)| Case {
                        seed,
                        mac,
                        poll,
                        nodes,
                        changes,
                        stops,
                    })
            })
        }

        /// Dynamic-Frame Aloha on a clique of 2–4 nodes polling faster
        /// than the lookahead, with frequent short deaths: slot
        /// collisions requeue frames in the receive phase, sometimes in
        /// the window of their node's death.
        fn dfa_churn() -> impl Strategy<Value = Case> {
            (2usize..5).prop_flat_map(|n| {
                (
                    (any::<u64>(), 50u64..500),
                    proptest::collection::vec((0.0..30.0f64, 0.0..30.0f64, 0u64..6_000), n),
                    proptest::collection::vec((0..n, 1u64..END - 100_000, 1u64..5_000), 4..24),
                    proptest::collection::vec(1u64..END, 0..6),
                )
                    .prop_map(|((seed, poll), nodes, deaths, stops)| Case {
                        seed,
                        mac: 2,
                        poll,
                        nodes,
                        changes: deaths
                            .into_iter()
                            .map(|(node, at, down)| Change::Die { node, at, down })
                            .collect(),
                        stops,
                    })
            })
        }

        /// What a run produced.
        struct Outcome {
            /// Per node, the instants it sent bursts at.
            sends: Vec<Vec<SimTime>>,
            /// Per node, its timer callbacks.
            ticks: Vec<u64>,
            /// Idle-timer callbacks that found a busy queue, all nodes.
            busy_ticks: u64,
            stats: MediumStats,
            dfa: DfaStats,
            trace: Vec<TraceEvent>,
        }

        fn run(case: &Case, idle: bool, shards: usize) -> Outcome {
            let mac = match case.mac {
                0 => MacConfig::aloha(),
                1 => MacConfig::csma(),
                _ => MacConfig::dfa_known(SimDuration::from_millis(8), case.nodes.len() as u32),
            };
            let poll = SimDuration::from_micros(case.poll);
            let offsets: Vec<u64> = case.nodes.iter().map(|&(_, _, offset)| offset).collect();
            let stop = SimTime::from_micros(END - 100_000);
            let mut sim = ShardedSimBuilder::new(case.seed)
                .mac(mac)
                .range(50.0)
                .shards(shards)
                .build(move |id| {
                    let offset = SimDuration::from_micros(offsets[id.index()]);
                    Saturator::new(idle, poll, offset, stop)
                });
            for &(x, y, _) in &case.nodes {
                sim.add_node_at(Position::new(x, y));
            }
            // Worker threads cost barrier waits on every window, so one
            // case in four runs its four shards on them.
            if shards > 1 && case.seed.is_multiple_of(4) {
                sim.set_force_threads(true);
            }
            sim.enable_trace(1 << 20);
            for change in &case.changes {
                match *change {
                    Change::Die { node, at, down } => {
                        sim.schedule_set_alive(
                            SimTime::from_micros(at),
                            NodeId(node as u32),
                            false,
                        );
                        let back = SimTime::from_micros(at + down);
                        sim.schedule_set_alive(back, NodeId(node as u32), true);
                    }
                    Change::Move { node, at, x, y } => {
                        let to = Position::new(x, y);
                        sim.schedule_move(SimTime::from_micros(at), NodeId(node as u32), to);
                    }
                }
            }
            // Some deadlines fall on the window grid, some inside a
            // window; each resumed run may rebalance the shards.
            let mut stops = case.stops.clone();
            stops.sort_unstable();
            for deadline in stops.into_iter().chain([END]) {
                sim.run_until(SimTime::from_micros(deadline));
            }
            let nodes = || sim.node_ids().map(|id| sim.protocol(id));
            Outcome {
                sends: nodes().map(|p| p.sends.clone()).collect(),
                ticks: nodes().map(|p| p.ticks).collect(),
                busy_ticks: nodes().map(|p| p.busy_ticks).sum(),
                stats: sim.stats(),
                dfa: sim.dfa_stats(),
                trace: sim.tracer().unwrap().events().copied().collect(),
            }
        }

        /// An idle timer is the poll loop it replaces: the same bursts
        /// at the same instants, and the same medium, DFA counters and
        /// trace, at one shard and at four (inline or threaded), with no
        /// more timer callbacks and none on a busy queue.
        fn idle_matches_poll(case: &Case) -> Result<(), TestCaseError> {
            let poll = run(case, false, 1);
            prop_assert!(poll.sends.iter().any(|s| !s.is_empty()), "no node sent");
            for shards in [1, 4] {
                let idle = run(case, true, shards);
                prop_assert_eq!(&idle.sends, &poll.sends, "send instants, K = {}", shards);
                prop_assert_eq!(idle.stats, poll.stats, "medium, K = {}", shards);
                prop_assert_eq!(idle.dfa, poll.dfa, "DFA, K = {}", shards);
                prop_assert!(idle.trace == poll.trace, "trace differs, K = {}", shards);
                prop_assert_eq!(idle.busy_ticks, 0, "idle callbacks on a busy queue");
                for (node, (idle_ticks, poll_ticks)) in
                    idle.ticks.iter().zip(&poll.ticks).enumerate()
                {
                    prop_assert!(
                        idle_ticks <= poll_ticks,
                        "node {} made {} idle callbacks against {} polls",
                        node,
                        idle_ticks,
                        poll_ticks
                    );
                }
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn idle_timer_matches_the_poll_loop(case in case()) {
                idle_matches_poll(&case)?;
            }

            #[test]
            fn idle_timer_matches_the_poll_loop_under_dfa_churn(case in dfa_churn()) {
                idle_matches_poll(&case)?;
            }
        }
    }
}
