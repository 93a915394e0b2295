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
//! # Air and interest routing
//!
//! Every shard judges its deliveries against one shared air view
//! ([`crate::medium`]). Delivery *events*, by contrast, are routed: each
//! shard keeps an interest set of the grid cells within one ring of its
//! nodes, and the barrier hands a transmission's `Deliver` event only to
//! the shards interested in its origin cell — or in its sender's current
//! cell, when the sender moved after its transmission began. Every cell
//! the engine uses is the topology's own ([`Topology::cell`]), so the
//! topology's range is the one pitch of the air, the interest sets and
//! the placement stripes.
//!
//! Idle timers ([`Context::set_timer_when_idle`]) park off the heap
//! while their node's radio queue is busy, in a per-shard table (the
//! crate's `timers` module).
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
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering as AtomicOrdering};
use std::sync::{Arc, Barrier, Mutex, PoisonError, RwLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri::hash::FixedMap;
use retri::seed::{absorb, stream_seed};
use retri_obs::Obs;

use crate::energy::EnergyMeter;
use crate::fault::{ChurnEvent, FaultModel};
use crate::frame::{Frame, FramePayload};
use crate::mac::{DfaConfig, DfaStats, FrameSizing, MacConfig};
use crate::medium::{interferes, AirRecord, AirView, Interferer, MediumStats, Verdict};
use crate::node::{Command, Context, NodeId, Protocol, Timer};
use crate::obs::TxStats;
use crate::radio::{DutyCycle, RadioConfig};
use crate::time::{SimDuration, SimTime};
use crate::timers::{timer_event, IdleTimers};
use crate::topology::{block, Cell, Position, Topology};
use crate::trace::{LossReason, TraceEvent, Tracer};

/// The labels of a node's four RNG streams: MAC backoff, protocol
/// callbacks, channel loss and the fault channel, in [`LocalNode`]'s
/// field order.
const NODE_STREAM_LABELS: [&str; 4] = [
    "netsim.shard.mac",
    "netsim.shard.proto",
    "netsim.shard.chan",
    "netsim.shard.fault",
];

/// The root of each of [`NODE_STREAM_LABELS`]' streams under the
/// builder seed: [`retri::seed::stream_seed`] of the label, computed
/// once per simulation rather than once per node.
fn stream_roots(seed: u64) -> [u64; 4] {
    NODE_STREAM_LABELS.map(|label| stream_seed(seed, label))
}

/// Derives the seed of one of a node's dedicated RNG streams from the
/// stream's root ([`stream_roots`]): the node id's little-endian bytes
/// absorbed one at a time. Distinct labels and distinct nodes land in
/// unrelated streams, and the derivation depends only on
/// `(seed, label, node)` — never on shard placement.
fn node_stream_seed(root: u64, node: NodeId) -> u64 {
    node.0
        .to_le_bytes()
        .into_iter()
        .fold(root, |state, byte| absorb(state, u64::from(byte)))
}

/// The next multiple of `slot` at or after `t` — the absolute slot grid
/// every DFA node aligns its frames to — or `None` past the last
/// instant.
fn align_up(t: SimTime, slot: SimDuration) -> Option<SimTime> {
    let step = slot.as_micros();
    debug_assert!(step > 0, "validated by MacConfig::validate");
    t.as_micros()
        .div_ceil(step)
        .checked_mul(step)
        .map(SimTime::from_micros)
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
pub(crate) const LANE_R_TIMER: u8 = 3;
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
pub(crate) enum DynAction {
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
pub(crate) struct Event<K> {
    pub(crate) at: SimTime,
    pub(crate) lane: u8,
    pub(crate) a: u64,
    pub(crate) b: u64,
    pub(crate) kind: K,
}

/// A MAC-phase event.
type MacEvent = Event<MacKind>;
/// A receive-phase event.
pub(crate) type RxEvent = Event<RxKind>;

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
pub(crate) enum RxKind {
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
    /// Sender's grid cell at transmission start (its record's origin
    /// cell).
    cell: Cell,
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
    /// A fresh node whose streams derive from the simulation's
    /// [`stream_roots`].
    fn new(roots: &[u64; 4], id: NodeId, protocol: P) -> Self {
        let [mac_rng, proto_rng, chan_rng, fault_rng] =
            roots.map(|root| StdRng::seed_from_u64(node_stream_seed(root, id)));
        LocalNode {
            id,
            protocol,
            meter: EnergyMeter::new(),
            queue: VecDeque::new(),
            transmitting: false,
            duty_cycle: None,
            mac_rng,
            proto_rng,
            chan_rng,
            fault_rng,
            fault_bad: false,
            next_timer_handle: 0,
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
    /// — the bound of every phase drain. The last window ends at the top
    /// of time and, unlike every other, holds its end instant.
    fn in_window(&self, at: SimTime, t_end: SimTime) -> bool {
        (at < t_end || t_end == TOP_OF_TIME) && at <= self.deadline
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

/// One spatial shard: its owned nodes, both event heaps, and a
/// topology replica for each phase. The MAC and receive phases apply
/// broadcast dynamics independently, so each may need a copy of its
/// own; until a dynamic event writes to one ([`Arc::make_mut`]), every
/// replica shares the master's [`ShardedSim::topology`].
struct ShardCore<P> {
    index: usize,
    nodes: Vec<LocalNode<P>>,
    mac_heap: BinaryHeap<MacEvent>,
    rx_heap: BinaryHeap<RxEvent>,
    topo_mac: Arc<Topology>,
    topo_rx: Arc<Topology>,
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
    /// An empty shard whose replicas share `master`.
    fn new(index: usize, master: &Arc<Topology>) -> Self {
        ShardCore {
            index,
            nodes: Vec::new(),
            mac_heap: BinaryHeap::new(),
            rx_heap: BinaryHeap::new(),
            topo_mac: Arc::clone(master),
            topo_rx: Arc::clone(master),
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
                DynAction::Move { node, to } => {
                    Arc::make_mut(&mut self.topo_mac).set_position(node, to)
                }
                DynAction::SetAlive { node, alive } => {
                    Arc::make_mut(&mut self.topo_mac).set_alive(node, alive);
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
                    if let Some(retry) = at.checked_add(ctx.mac.ifs) {
                        self.push_mac(retry, LANE_M_TRY, node, local, MacKind::Try { node });
                    }
                }
            }
            MacKind::Try { node } => self.mac_try(at, node, ctx, csma),
        }
    }

    /// DFA framing on the sharded engine: commits the node to one
    /// uniformly drawn slot of its next frame (drawn from the node's
    /// private MAC stream, so the draw is shard-placement invariant)
    /// and schedules the wakeup. Returns `true` when `mac_try` should
    /// transmit right now — the committed slot has arrived. A frame
    /// that would end past the last instant is never drawn.
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
        let Some(frame_start) = align_up(begin, dfa.slot) else {
            return false;
        };
        let slot_index = self.nodes[local].mac_rng.gen_range(0..slots);
        let (Some(slot_at), Some(frame_end)) = (
            frame_start.checked_add(dfa.slot * slot_index),
            frame_start.checked_add(dfa.slot * slots),
        ) else {
            return false;
        };
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
        if let Some(cs) = csma.as_mut() {
            if cs.air.busy_for(node, at, &self.topo_mac) {
                let slots = u64::from(
                    self.nodes[local]
                        .mac_rng
                        .gen_range(1..=ctx.mac.max_backoff_slots),
                );
                self.tx.backoffs += 1;
                self.tx.backoff_slots += slots;
                if let Some(retry) = at.checked_add(ctx.mac.backoff_slot * slots) {
                    self.push_mac(retry, LANE_M_TRY, node, local, MacKind::Try { node });
                }
                return;
            }
        }
        let state = &mut self.nodes[local];
        let payload = state.queue.pop_front().expect("checked non-empty above");
        let bits_on_air = ctx.radio.bits_on_air(payload.bits());
        let airtime = ctx.radio.airtime(payload.bits());
        let Some(end) = at.checked_add(airtime) else {
            // Its airtime would end past the last instant: the frame
            // never reaches the air, and the next one, if any, tries
            // now. An emptied queue releases idle timers, as a
            // transmission ending on one does.
            if state.queue.is_empty() {
                self.idle.release(node, ctx.rx_floor(at), &mut self.rx_heap);
            } else {
                self.push_mac(at, LANE_M_TRY, node, local, MacKind::Try { node });
            }
            return;
        };
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
            cell: self.topo_mac.cell(node),
            seq: None,
            frame: Some(Frame::new(node, payload)),
        };
        if let Some(cs) = csma.as_mut() {
            // Carrier-sense MACs run this phase in global event order,
            // so number and insert the record immediately: later
            // same-window carrier senses must hear it.
            let seq = *cs.next_seq;
            *cs.next_seq += 1;
            cs.air.insert(AirRecord {
                seq,
                sender: node,
                start: at,
                end,
                bits_on_air,
                frame: pending.frame.take().expect("frame present"),
                cell: pending.cell,
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
                    Arc::make_mut(&mut self.topo_rx).set_position(node, to);
                    if ctx.tracing && self.owns(ctx, node) {
                        self.trace_buf.push((
                            (at.as_micros(), LANE_T_DYN, idx, 0),
                            TraceEvent::Moved { at, node, to },
                        ));
                    }
                }
                DynAction::SetAlive { node, alive } => {
                    Arc::make_mut(&mut self.topo_rx).set_alive(node, alive);
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
                    self.drain_commands(at, ctx);
                }
            }
            RxKind::Timer { node, timer, idle } => {
                let local = ctx.local(self.index, node);
                let alive = self.topo_rx.is_alive(node);
                let fire = if idle {
                    let busy = self.nodes[local].pending_frames() > 0;
                    self.idle.fire(node, timer.handle, at, alive, busy)
                } else {
                    alive
                };
                if fire {
                    self.with_ctx(local, at, ctx, |protocol, c| protocol.on_timer(c, timer));
                    self.drain_commands(at, ctx);
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
        let cell = self.topo_rx.cell(sender);
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
                .map(|r| (r, self.topo_rx.cell(r))),
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
                            self.drain_commands(at, ctx);
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
                            self.drain_commands(at, ctx);
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

    fn drain_commands(&mut self, at: SimTime, ctx: &EngineCtx<'_>) {
        while !self.commands.is_empty() {
            let mut batch = std::mem::take(&mut self.commands);
            for command in batch.drain(..) {
                match command {
                    Command::Send { node, payload } => {
                        debug_assert!(self.owns(ctx, node), "nodes only send as themselves");
                        let node_local = ctx.local(self.index, node);
                        // One MAC turnaround after the callback — the
                        // lookahead bound that makes windows independent.
                        // A frame whose turnaround would end past the
                        // last instant never reaches the MAC.
                        let Some(enqueue_at) = at.checked_add(LOOKAHEAD) else {
                            continue;
                        };
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
                }
            }
            if self.commands.is_empty() {
                self.commands = batch;
            }
        }
    }
}

/// Node-to-shard placement: sorts nodes by grid cell (column-major,
/// node id as tiebreak) and cuts the order into `shards` equal
/// contiguous stripes, returning each node's shard (indexed by id).
/// Neighboring cells share a stripe except at the K − 1 cut lines, so
/// cross-shard deliveries concentrate on thin boundaries. Placement is
/// pure load balancing: the merged event stream is invariant in it.
fn spatial_stripes(topology: &Topology, shards: usize) -> Vec<u32> {
    let mut order: Vec<(Cell, NodeId)> = topology
        .node_ids()
        .map(|id| (topology.cell(id), id))
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

    /// Sets the radio range in meters of the empty topology
    /// [`build`](Self::build) starts from; its grid, pitched at the
    /// range, is the one the air and the shards use.
    /// [`build_with_topology`](Self::build_with_topology) takes the range
    /// of the topology it is given instead.
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
        let range = self.range;
        self.build_on(Topology::new(range), factory)
    }

    /// Builds the simulator on `master`, whose nodes are not admitted
    /// yet; every shard's replicas share it.
    fn build_on<P, F>(self, master: Topology, factory: F) -> ShardedSim<P>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P + 'static,
    {
        self.mac.validate();
        let master = Arc::new(master);
        let cores = (0..self.shards)
            .map(|i| ShardCore::new(i, &master))
            .collect();
        let mut sim = ShardedSim {
            now: SimTime::ZERO,
            stream_roots: stream_roots(self.seed),
            radio: self.radio,
            mac: self.mac,
            faults: self.faults,
            master,
            cores,
            owner: Vec::new(),
            air: AirView::default(),
            master_dyn: BTreeMap::new(),
            next_dyn_idx: 0,
            next_seq: 0,
            frames_sent: 0,
            factory: Box::new(factory),
            tracer: None,
            trace_main: Vec::new(),
            merge_scratch: Vec::new(),
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
    /// Equivalent to adding each node individually but O(topology): the
    /// engine keeps one copy of the finished adjacency, which the
    /// master and every shard's replicas share until a dynamic event
    /// writes to one, instead of relinking per added node — which
    /// matters at 10k nodes.
    pub fn build_with_topology<P, F>(self, topology: &Topology, factory: F) -> ShardedSim<P>
    where
        P: Protocol,
        F: FnMut(NodeId) -> P + 'static,
    {
        let mut sim = self.build_on(topology.clone(), factory);
        let n = topology.len();
        sim.owner.reserve_exact(n);
        sim.cores[0].nodes.reserve_exact(n);
        sim.cores[0].rx_heap.reserve_exact(n);
        for id in topology.node_ids() {
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
    /// The builder seed's [`stream_roots`], from which every node's RNG
    /// streams derive.
    stream_roots: [u64; 4],
    radio: RadioConfig,
    mac: MacConfig,
    faults: FaultModel,
    /// Authoritative topology for the public accessor and shard
    /// rebalancing; dynamics are applied to it at epoch barriers. The
    /// shards' replicas share it until a dynamic event writes to one,
    /// and share it again once nodes are added (at the next run).
    master: Arc<Topology>,
    cores: Vec<ShardCore<P>>,
    /// `node -> (shard, local index)`.
    owner: Vec<(u32, u32)>,
    air: AirView,
    /// Pending master-topology updates by `(instant, dynamic index)`,
    /// applied at epoch barriers so the master copy (the public
    /// accessor and shard rebalancing) tracks the replicas.
    master_dyn: BTreeMap<(SimTime, u64), DynAction>,
    next_dyn_idx: u64,
    next_seq: u64,
    /// Global transmission counter (the only MediumStats field counted
    /// at the barrier rather than per shard).
    frames_sent: u64,
    factory: Box<dyn FnMut(NodeId) -> P>,
    tracer: Option<Tracer>,
    trace_main: Vec<(TraceKey, TraceEvent)>,
    merge_scratch: Vec<PendingTx>,
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
    pub(crate) fn add_node_with(&mut self, position: Position, protocol: P) -> NodeId {
        // The replicas catch up at the next run (`share_master`).
        let id = Arc::make_mut(&mut self.master).add(position);
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
        core.nodes
            .push(LocalNode::new(&self.stream_roots, id, protocol));
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
        self.master_dyn.insert((at, idx), action);
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
    pub(crate) fn awake_micros(&self, node: NodeId) -> u64 {
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

    /// Forces worker threads for `shards > 1` even when the engine's
    /// cost model (machine parallelism, per-shard node count) would run
    /// the windows inline. A validation/debugging knob; output is
    /// identical either way.
    pub fn set_force_threads(&mut self, force: bool) {
        self.force_threads = force;
    }

    /// Whether the next [`Self::run_until`] would execute windows on
    /// worker threads. False for single-shard sims, single-core
    /// machines, or topologies too small to amortize the
    /// per-window barrier traffic (< [`MIN_NODES_PER_SHARD`] owned nodes
    /// per shard) — the windowed algorithm then runs inline, with
    /// identical output. Metrics play no part: they are folded in after
    /// the run ([`Self::record_metrics`]).
    #[must_use]
    pub(crate) fn uses_worker_threads(&self) -> bool {
        if self.cores.len() <= 1 {
            return false;
        }
        if self.force_threads {
            return true;
        }
        std::thread::available_parallelism().map_or(1, usize::from) > 1
            && self.owner.len() >= self.cores.len() * MIN_NODES_PER_SHARD
    }

    /// Points every replica that lacks nodes added since the last run at
    /// the master again. This is exact: between runs every replica
    /// equals the master but for those nodes, because each copy applied
    /// every dynamic event up to the deadline in the same
    /// `(instant, index)` order, and [`Topology`] keeps each neighbor
    /// list sorted by id.
    fn share_master(&mut self) {
        for core in &mut self.cores {
            for replica in [&mut core.topo_mac, &mut core.topo_rx] {
                if replica.len() != self.master.len() {
                    *replica = Arc::clone(&self.master);
                }
            }
        }
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
        let desired = spatial_stripes(&self.master, self.cores.len());
        self.reassign(&desired);
    }

    /// Moves every node to shard `desired[id]`, together with its state
    /// and its node-owned events, into tables reserved at each shard's
    /// exact count.
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
        let mut old_tables = Vec::with_capacity(self.cores.len());
        let mut mac_orphans: Vec<MacEvent> = Vec::new();
        let mut rx_orphans: Vec<RxEvent> = Vec::new();
        let mut idle = Vec::new();
        for (shard, core) in self.cores.iter_mut().enumerate() {
            let count = desired.iter().filter(|&&s| s as usize == shard).count();
            let table = std::mem::replace(&mut core.nodes, Vec::with_capacity(count));
            old_tables.push(table.into_iter());
            idle.extend(core.idle.drain());
            // Node-owned events follow their node. Dynamics already
            // exist once per shard, and delivery events stay with the
            // shards they were routed to: the interest rebuild that
            // follows every ownership change hands each shard those of
            // the cells it gains (`build_interest`).
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
                } else {
                    core.rx_heap.push(ev);
                }
            }
        }
        // Every table lists its nodes by ascending id (admits append
        // new ids to shard 0, and this merge refills in id order), so
        // node `index` is the next one its old table yields.
        for (index, &shard) in desired.iter().enumerate() {
            let node = old_tables[self.owner[index].0 as usize]
                .next()
                .expect("every node is in its owner's table");
            debug_assert_eq!(node.id.index(), index);
            let core = &mut self.cores[shard as usize];
            self.owner[index] = (shard, core.nodes.len() as u32);
            core.nodes.push(node);
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
            core.idle.adopt(node, timers);
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
    ///
    /// A shard that gains a cell gets the delivery events of the
    /// records still in flight there ([`backfill_gained_cell`]): a node
    /// added between runs hears the rest of a frame already on the air,
    /// as on one shard.
    fn build_interest(&mut self) {
        let before: Vec<_> = self
            .cores
            .iter_mut()
            .map(|core| std::mem::take(&mut core.interest))
            .collect();
        for index in 0..self.owner.len() {
            let node = NodeId(index as u32);
            let shard = self.owner[index].0 as usize;
            for cell in block(self.master.cell(node)) {
                *self.cores[shard].interest.entry(cell).or_insert(0) += 1;
            }
        }
        for (core, before) in self.cores.iter_mut().zip(&before) {
            let gained: Vec<Cell> = core
                .interest
                .keys()
                .filter(|cell| !before.contains_key(cell))
                .copied()
                .collect();
            for cell in gained {
                backfill_gained_cell(core, &self.air, &self.master, cell, self.resume);
            }
        }
    }
}

/// The last instant a simulation can reach, `u64::MAX` µs.
const TOP_OF_TIME: SimTime = SimTime::from_micros(u64::MAX);

/// End of the synchronization window containing `at`: windows tile the
/// timeline at multiples of the lookahead, so the window start (and
/// therefore the whole window sequence) depends only on the global event
/// set — never on the shard count. The last window, which the next
/// multiple would overflow, ends at [`TOP_OF_TIME`].
fn window_end(at: SimTime) -> SimTime {
    let l = LOOKAHEAD.as_micros();
    SimTime::from_micros((at.as_micros() / l + 1).saturating_mul(l))
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
    for seq in air.started_in(cell) {
        route_deliver(core, air, seq, since);
    }
    for node in master.nodes_in(cell) {
        for &seq in air.sent_by(node) {
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
    let seqs = air.sent_by(node);
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
    /// Each shard's next-activity time in µs (`u64::MAX` for none, or
    /// for the top of time), published at the end of its receive phase.
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
        if next != u64::MAX {
            return Some(SimTime::from_micros(next));
        }
        // The slot value `u64::MAX` also names the top of time, where an
        // event may still be pending: ask the parked cores.
        self.exclusive(|cores, _| cores.iter().filter_map(|c| c.next_at()).min())
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
    master: &'a mut Arc<Topology>,
    master_dyn: &'a mut BTreeMap<(SimTime, u64), DynAction>,
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
                .first_key_value()
                .is_some_and(|(&(at, _), _)| ctx.in_window(at, t_end))
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
        while let Some((&(at, _), _)) = self.master_dyn.first_key_value() {
            if !self.ctx.in_window(at, t_end) {
                break;
            }
            let (_, action) = self.master_dyn.pop_first().expect("peeked above");
            match action {
                DynAction::Move { node, to } => {
                    let (old_cell, new_cell) =
                        Arc::make_mut(self.master).set_position_tracked(node, to);
                    if !routed || old_cell == new_cell {
                        continue;
                    }
                    let shard = self.ctx.owner[node.index()].0 as usize;
                    deferred.extend(block(old_cell).map(|cell| (shard, cell)));
                    for cell in block(new_cell) {
                        let count = cores[shard].interest.entry(cell).or_insert(0);
                        *count += 1;
                        if *count == 1 {
                            backfill_gained_cell(cores[shard], air, self.master, cell, at);
                        }
                    }
                    route_mover_records(cores, air, node, new_cell, at);
                }
                DynAction::SetAlive { node, alive } => {
                    Arc::make_mut(self.master).set_alive(node, alive);
                }
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
                air.insert(AirRecord {
                    seq,
                    sender: p.node,
                    start: p.start,
                    end: p.end,
                    bits_on_air: p.bits_on_air,
                    frame,
                    cell: p.cell,
                    ended: false,
                });
            }
            // CSMA transmissions were inserted during the MAC phase, ALOHA
            // ones just above — either way the record is published now,
            // under the origin cell `p.cell`.
            let here = if moved {
                self.master.cell(p.node)
            } else {
                p.cell
            };
            for core in cores.iter_mut() {
                if routed
                    && !core.interest.contains_key(&p.cell)
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
    /// the machine has more than one core and every shard owns at least
    /// [`MIN_NODES_PER_SHARD`] nodes on average; output is identical
    /// either way.
    ///
    /// # Panics
    ///
    /// Propagates panics from protocol callbacks (on worker threads,
    /// re-raised on the caller).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.share_master();
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
        // The first instant after the deadline, if time has one.
        let after = SimTime::from_micros(deadline.as_micros().saturating_add(1));
        self.resume = self.resume.max(after);
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

/// Engine tests: scenarios run through the public API, and the
/// window loop, routing, placement and idle timers checked from inside.
#[cfg(test)]
mod tests;
