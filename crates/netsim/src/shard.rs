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
//! The merging thread owns the authoritative air view: a dense record
//! deque plus per-grid-cell and per-node sequence indexes (cell size =
//! radio range, so a 3×3 cell scan covers every in-range interferer).
//! Each cell also counts its transmissions still on the air, so carrier
//! sense skips silent cells and stops once it has seen them all. The
//! view is mutated only at epoch barriers and by the globally ordered
//! CSMA MAC phase. Inline runs judge deliveries against it directly;
//! threaded runs judge against per-shard ghost replicas holding only the
//! records within one cell ring of a shard's nodes, so the receive phase
//! takes no lock.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Barrier, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retri_obs::Obs;

use crate::energy::EnergyMeter;
use crate::fault::{ChurnEvent, FaultModel};
use crate::frame::{Frame, FramePayload};
use crate::mac::{DfaConfig, DfaStats, FrameSizing, MacConfig};
use crate::node::{Command, Context, NodeId, Protocol, Timer, TimerHandle};
use crate::obs::NetsimObs;
use crate::radio::{DutyCycle, RadioConfig};
use crate::time::{SimDuration, SimTime};
use crate::topology::{Position, Topology};
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
    /// The node's transmission `tx_idx` leaves the air.
    TxEnd { node: NodeId, tx_idx: u64 },
    /// The node attempts to transmit the head of its queue.
    Try { node: NodeId },
}

/// A phase event, ordered by `(at, lane, a, b)`. In the MAC phase,
/// node-owned lanes use `a` = node id and `b` = a per-node event
/// counter, and the dynamics lane uses `a` = the global dynamic index.
#[derive(Debug)]
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
#[derive(Debug)]
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
    /// Fire a protocol timer.
    Timer { node: NodeId, timer: Timer },
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

/// One transmission record in the shared air view.
///
/// The frame body is behind an `Arc` so per-shard ghost replicas share
/// it instead of deep-copying payload bytes.
#[derive(Debug)]
struct AirRecord {
    seq: u64,
    sender: NodeId,
    start: SimTime,
    end: SimTime,
    bits_on_air: u64,
    frame: Arc<Frame>,
    /// Grid cell of the sender at transmission start (the interference
    /// scan bucket; a sender relocating mid-flight keeps its record in
    /// the origin cell).
    cell: (i64, i64),
    /// Whether the transmission's MAC `TxEnd` has run (clears carrier
    /// sense; delivery judgments ignore this flag).
    ended: bool,
}

impl AirRecord {
    fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && self.end > start
    }

    /// A copy for a shard-local ghost view. The `ended` flag is MAC
    /// phase state and never consulted by receive-phase judgments, so
    /// ghosts pin it to `false`.
    fn ghost_copy(&self) -> AirRecord {
        AirRecord {
            seq: self.seq,
            sender: self.sender,
            start: self.start,
            end: self.end,
            bits_on_air: self.bits_on_air,
            frame: Arc::clone(&self.frame),
            cell: self.cell,
            ended: false,
        }
    }
}

/// Read-only delivery-judgment queries over some view of the air —
/// implemented by the global [`AirView`] (inline windows) and by the
/// per-shard [`GhostAir`] replicas (threaded windows), so the receive
/// phase is lock-free either way.
trait AirReads {
    fn get(&self, seq: u64) -> Option<&AirRecord>;

    /// Retained records `node` sent, by ascending sequence number.
    fn sent_by(&self, node: NodeId) -> Option<&VecDeque<u64>>;

    /// Retained records that started in grid `cell`, by ascending
    /// sequence number.
    fn started_in(&self, cell: (i64, i64)) -> Option<&VecDeque<u64>>;

    /// The grid pitch (= radio range).
    fn cell_size(&self) -> f64;

    /// Whether `node`'s own radio is transmitting during `[start, end)`,
    /// other than `exclude_seq` (half-duplex check).
    fn transmitting_during(
        &self,
        node: NodeId,
        start: SimTime,
        end: SimTime,
        exclude_seq: u64,
    ) -> bool {
        self.sent_by(node).is_some_and(|seqs| {
            seqs.iter().any(|&seq| {
                let record = self.get(seq).expect("indexed record retained");
                seq != exclude_seq && record.overlaps(start, end)
            })
        })
    }

    /// Whether any foreign transmission audible at `receiver` overlaps
    /// `[start, end)` other than `exclude_seq`.
    fn interference_at(
        &self,
        receiver: NodeId,
        position: Position,
        start: SimTime,
        end: SimTime,
        exclude_seq: u64,
        topology: &Topology,
    ) -> bool {
        let (cx, cy) = cell_of(position, self.cell_size());
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(seqs) = self.started_in((cx + dx, cy + dy)) else {
                    continue;
                };
                for &seq in seqs {
                    let record = self.get(seq).expect("indexed record retained");
                    if seq != exclude_seq
                        && record.sender != receiver
                        && record.overlaps(start, end)
                        && topology.in_range(record.sender, receiver)
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Per-receiver delivery verdict, in precedence order: half-duplex,
    /// then RF collision, then random loss.
    fn judge(
        &self,
        seq: u64,
        receiver: NodeId,
        position: Position,
        loss_draw: f64,
        frame_loss: f64,
        topology: &Topology,
    ) -> Verdict {
        let record = self.get(seq).expect("judging unknown transmission");
        if self.transmitting_during(receiver, record.start, record.end, seq) {
            Verdict::Failed(LossReason::HalfDuplex)
        } else if self.interference_at(receiver, position, record.start, record.end, seq, topology)
        {
            Verdict::Failed(LossReason::RfCollision)
        } else if loss_draw < frame_loss {
            Verdict::Failed(LossReason::RandomLoss)
        } else {
            Verdict::Delivered
        }
    }
}

/// The authoritative view of the air, owned by the merging thread.
///
/// Indexes records by the sender's grid cell (cell size = radio range)
/// so interference queries scan a 3×3 neighborhood instead of every
/// concurrent transmission — the property that makes the view cheap at
/// 10k nodes.
#[derive(Debug)]
struct AirView {
    cell_size: f64,
    /// Retained records in seq order; `records[i]` has `base_seq + i`.
    records: VecDeque<AirRecord>,
    base_seq: u64,
    cells: HashMap<(i64, i64), AirCell>,
    /// Per-sender record sequence numbers, indexed by node.
    by_node: Vec<VecDeque<u64>>,
    /// Records still on the air, summed over every cell.
    on_air: u32,
}

/// One grid cell of the [`AirView`] index.
#[derive(Debug, Default)]
struct AirCell {
    /// Retained record sequence numbers, in insertion (= seq) order.
    seqs: VecDeque<u64>,
    /// How many of those records are still on the air (not ended).
    on_air: u32,
}

impl AirView {
    fn new(cell_size: f64) -> Self {
        AirView {
            cell_size,
            records: VecDeque::new(),
            base_seq: 0,
            cells: HashMap::new(),
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
        let cell = self.cells.entry(record.cell).or_default();
        cell.seqs.push_back(record.seq);
        cell.on_air += 1;
        self.on_air += 1;
        self.by_node[record.sender.index()].push_back(record.seq);
        self.records.push_back(record);
    }

    fn mark_ended(&mut self, seq: u64) {
        let index = usize::try_from(seq - self.base_seq).expect("record index fits usize");
        let record = &mut self.records[index];
        debug_assert!(!record.ended, "transmission {seq} ended twice");
        record.ended = true;
        self.cells
            .get_mut(&record.cell)
            .expect("cell index present")
            .on_air -= 1;
        self.on_air -= 1;
    }

    /// CSMA carrier sense: whether `listener` (at `position`) hears any
    /// ongoing foreign transmission at `now`.
    ///
    /// Visits only on-air records: a record satisfying
    /// `start <= now < end` cannot have ended (its `TxEnd` runs at
    /// `end > now`), so a silent air answers at once, cells with no
    /// on-air record are skipped, and the newest-first walk of a cell
    /// stops after its `on_air` un-ended records.
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
        let (cx, cy) = cell_of(position, self.cell_size);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(cell) = self.cells.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                let mut remaining = cell.on_air;
                for &seq in cell.seqs.iter().rev() {
                    if remaining == 0 {
                        break;
                    }
                    let record = self.get(seq).expect("indexed record retained");
                    if record.ended {
                        continue;
                    }
                    if record.sender != listener
                        && record.start <= now
                        && record.end > now
                        && topology.in_range(record.sender, listener)
                    {
                        return true;
                    }
                    remaining -= 1;
                }
            }
        }
        false
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
            let cell = self
                .cells
                .get_mut(&record.cell)
                .expect("cell index present");
            let popped = cell.seqs.pop_front();
            debug_assert_eq!(popped, Some(record.seq));
            if !record.ended {
                // Only carrier-sense runs end records (`mark_ended`);
                // the rest leave the on-air count here.
                cell.on_air -= 1;
                self.on_air -= 1;
            }
            if cell.seqs.is_empty() {
                self.cells.remove(&record.cell);
            }
            let by_node = &mut self.by_node[record.sender.index()];
            let popped = by_node.pop_front();
            debug_assert_eq!(popped, Some(record.seq));
        }
    }
}

impl AirReads for AirView {
    fn get(&self, seq: u64) -> Option<&AirRecord> {
        let index = usize::try_from(seq.checked_sub(self.base_seq)?).ok()?;
        self.records.get(index)
    }

    fn sent_by(&self, node: NodeId) -> Option<&VecDeque<u64>> {
        self.by_node.get(node.index())
    }

    fn started_in(&self, cell: (i64, i64)) -> Option<&VecDeque<u64>> {
        self.cells.get(&cell).map(|indexed| &indexed.seqs)
    }

    fn cell_size(&self) -> f64 {
        self.cell_size
    }
}

/// A shard-local replica of the air records the shard can possibly
/// need for receive-phase judgments — the "ghost cells" of the shard's
/// boundary. Maintained by the merging thread at epoch barriers, read
/// (and pruned) exclusively by the owning shard, so the threaded
/// receive phase never touches a shared lock.
///
/// A record is replicated only to shards whose nodes occupy a grid
/// cell within one ring of the sender's cell — every receiver and
/// every interferable pair sits within one cell of its counterpart
/// because the cell size equals the radio range. Scheduled mobility
/// and churn are delta-routed: when a move changes which cells a
/// shard's interest set covers, only that shard receives the in-flight
/// records of the gained cells (a backfill), instead of every record
/// being broadcast to every shard.
#[derive(Debug, Default)]
struct GhostAir {
    cell_size: f64,
    /// Live records in ascending-seq order (mirrors the global view's
    /// retention window for this shard's subset).
    order: VecDeque<u64>,
    records: HashMap<u64, AirRecord>,
    /// Per-cell record seqs, ascending.
    cells: HashMap<(i64, i64), VecDeque<u64>>,
    /// Per-sender record seqs, ascending.
    by_node: HashMap<u32, VecDeque<u64>>,
}

impl GhostAir {
    fn clear(&mut self, cell_size: f64) {
        self.cell_size = cell_size;
        self.order.clear();
        self.records.clear();
        self.cells.clear();
        self.by_node.clear();
    }

    /// Whether the replica already holds `seq` — the dedup check for
    /// interest-delta backfills (a cell can be lost and later regained
    /// while a record from it is still in flight).
    fn contains(&self, seq: u64) -> bool {
        self.records.contains_key(&seq)
    }

    /// Inserts a record. Barrier routing appends in ascending seq order
    /// (O(1)); interest-delta backfills may arrive out of order and pay
    /// a sorted insert instead.
    fn insert(&mut self, record: &AirRecord) {
        debug_assert!(
            !self.contains(record.seq),
            "ghost records are inserted at most once"
        );
        Self::ordered_push(&mut self.order, record.seq);
        Self::ordered_push(self.cells.entry(record.cell).or_default(), record.seq);
        Self::ordered_push(self.by_node.entry(record.sender.0).or_default(), record.seq);
        self.records.insert(record.seq, record.ghost_copy());
    }

    fn ordered_push(deque: &mut VecDeque<u64>, seq: u64) {
        if deque.back().is_none_or(|&last| last < seq) {
            deque.push_back(seq);
        } else {
            let at = deque
                .binary_search(&seq)
                .expect_err("seq not already present");
            deque.insert(at, seq);
        }
    }

    /// Mirrors [`AirView::prune`]: drops front records ended before
    /// `horizon`, stopping at the first retained one.
    fn prune(&mut self, horizon: SimTime) {
        while let Some(&seq) = self.order.front() {
            let record = &self.records[&seq];
            if record.end >= horizon {
                break;
            }
            self.order.pop_front();
            let record = self.records.remove(&seq).expect("ordered record present");
            if let Some(cell) = self.cells.get_mut(&record.cell) {
                let popped = cell.pop_front();
                debug_assert_eq!(popped, Some(seq));
                if cell.is_empty() {
                    self.cells.remove(&record.cell);
                }
            }
            if let Some(by_node) = self.by_node.get_mut(&record.sender.0) {
                let popped = by_node.pop_front();
                debug_assert_eq!(popped, Some(seq));
                if by_node.is_empty() {
                    self.by_node.remove(&record.sender.0);
                }
            }
        }
    }
}

impl AirReads for GhostAir {
    fn get(&self, seq: u64) -> Option<&AirRecord> {
        self.records.get(&seq)
    }

    fn sent_by(&self, node: NodeId) -> Option<&VecDeque<u64>> {
        self.by_node.get(&node.0)
    }

    fn started_in(&self, cell: (i64, i64)) -> Option<&VecDeque<u64>> {
        self.cells.get(&cell)
    }

    fn cell_size(&self) -> f64 {
        self.cell_size
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
    airtime_micros: u64,
    /// Sender position at transmission start (grid-cell bucket).
    pos: Position,
    seq: Option<u64>,
    /// `None` when the record is already in the air view (CSMA).
    frame: Option<Arc<Frame>>,
}

/// A buffered airtime-span end (observability only). Spans end in the
/// same window their transmission starts when the airtime is shorter
/// than the lookahead, in which case the sequence number is not yet
/// assigned at `TxEnd` time.
#[derive(Debug)]
enum SpanEnd {
    Known {
        at_micros: u64,
        seq: u64,
    },
    Pending {
        at_micros: u64,
        node: NodeId,
        tx_idx: u64,
    },
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
    cancelled: HashSet<TimerHandle>,
    /// Orders this node's MAC-phase events.
    mac_seq: u64,
    /// Counts this node's transmissions.
    tx_count: u64,
    /// `(tx_idx, seq)` pairs of in-flight transmissions whose global
    /// sequence number is known; consumed by `TxEnd`.
    assigned: VecDeque<(u64, u64)>,
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
            cancelled: HashSet::new(),
            mac_seq: 0,
            tx_count: 0,
            assigned: VecDeque::new(),
            dfa_slot_at: None,
            dfa_frame_end: SimTime::ZERO,
        }
    }

    /// Removes and returns the sequence number assigned to `tx_idx`, if
    /// the assignment barrier has run for it.
    fn take_assigned(&mut self, tx_idx: u64) -> Option<u64> {
        let pos = self.assigned.iter().position(|&(t, _)| t == tx_idx)?;
        self.assigned.remove(pos).map(|(_, seq)| seq)
    }
}

/// Read-mostly engine parameters shared by every phase of a run.
struct EngineCtx<'a> {
    radio: &'a RadioConfig,
    mac: &'a MacConfig,
    faults: &'a FaultModel,
    lookahead: SimDuration,
    tracing: bool,
    deadline: SimTime,
    owner: &'a [(u32, u32)],
}

impl EngineCtx<'_> {
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
    span_ends: Vec<SpanEnd>,
    stats: MediumStats,
    /// Dynamic-Frame Aloha counters for this shard's owned nodes
    /// (frames/slots counted at the draw, outcomes at the feedback).
    dfa: DfaStats,
    trace_buf: Vec<(TraceKey, TraceEvent)>,
    commands: Vec<Command>,
    receiver_scratch: Vec<NodeId>,
    /// Shard-local air replica for the threaded receive phase (serial
    /// multi-shard windows maintain it too, so the replicas survive
    /// engine switches without a rebuild).
    ghost: GhostAir,
    /// Grid cells within one ring of any owned node — the cells whose
    /// air records this shard may need — refcounted by how many owned
    /// nodes contribute each cell, so a move patches the set with a
    /// ±1-ring delta instead of a full rebuild.
    interest: HashMap<(i64, i64), u32>,
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
            span_ends: Vec::new(),
            stats: MediumStats::default(),
            dfa: DfaStats::default(),
            trace_buf: Vec::new(),
            commands: Vec::new(),
            receiver_scratch: Vec::new(),
            ghost: GhostAir::default(),
            interest: HashMap::new(),
            windows_skipped: 0,
            mac_was_idle: true,
        }
    }

    /// The shard's next pending event time across both phases — the
    /// next-activity time the epoch barrier carries so idle shards can
    /// be fast-forwarded deterministically.
    fn next_at(&self) -> Option<SimTime> {
        match (self.mac_heap.peek(), self.rx_heap.peek()) {
            (Some(m), Some(r)) => Some(m.at.min(r.at)),
            (Some(m), None) => Some(m.at),
            (None, Some(r)) => Some(r.at),
            (None, None) => None,
        }
    }

    /// Whether the MAC phase would dispatch nothing in this window.
    /// A shard idle in both phases cannot produce or observe anything
    /// in the window: in-flight airtime always has a pending `TxEnd`
    /// and every ghost record that matters comes with a pending
    /// `Deliver`, so heap emptiness is the complete skip test.
    fn mac_idle(&self, t_end: SimTime, deadline: SimTime) -> bool {
        !self
            .mac_heap
            .peek()
            .is_some_and(|e| e.at < t_end && e.at <= deadline)
    }

    /// Whether the receive phase would dispatch nothing in this window.
    fn rx_idle(&self, t_end: SimTime, deadline: SimTime) -> bool {
        !self
            .rx_heap
            .peek()
            .is_some_and(|e| e.at < t_end && e.at <= deadline)
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

    /// Drains this shard's MAC events inside `[.., t_end)` (ALOHA: no
    /// carrier sense, fully shard-parallel; new transmissions buffer in
    /// the outbox for the epoch barrier).
    fn run_phase1(&mut self, ctx: &EngineCtx<'_>, t_end: SimTime, obs: Option<&NetsimObs>) {
        while let Some(ev) = self.mac_heap.peek() {
            if ev.at >= t_end || ev.at > ctx.deadline {
                break;
            }
            let ev = self.mac_heap.pop().expect("peeked above");
            self.dispatch_mac(ev, ctx, None, obs);
        }
    }

    fn dispatch_mac(
        &mut self,
        ev: MacEvent,
        ctx: &EngineCtx<'_>,
        mut csma: Option<CsmaAir<'_>>,
        obs: Option<&NetsimObs>,
    ) {
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
            MacKind::TxEnd { node, tx_idx } => {
                let local = ctx.local(self.index, node);
                self.nodes[local].transmitting = false;
                let seq = self.nodes[local].take_assigned(tx_idx);
                if let (Some(cs), Some(seq)) = (csma.as_mut(), seq) {
                    cs.air.mark_ended(seq);
                }
                if obs.is_some() {
                    self.span_ends.push(match seq {
                        Some(seq) => SpanEnd::Known {
                            at_micros: at.as_micros(),
                            seq,
                        },
                        None => SpanEnd::Pending {
                            at_micros: at.as_micros(),
                            node,
                            tx_idx,
                        },
                    });
                }
                if ctx.mac.dfa_config().is_none() {
                    // Next frame, after the inter-frame space. Under DFA
                    // the slot feedback (receive phase) schedules the
                    // re-contention at the frame boundary instead.
                    let retry = at + ctx.mac.ifs;
                    self.push_mac(retry, LANE_M_TRY, node, local, MacKind::Try { node });
                }
            }
            MacKind::Try { node } => self.mac_try(at, node, ctx, csma, obs),
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
        obs: Option<&NetsimObs>,
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
                if let Some(o) = obs {
                    o.mac_backoffs.inc();
                    o.mac_backoff_slots.add(slots);
                }
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
            airtime_micros: airtime.as_micros(),
            pos,
            seq: None,
            frame: Some(Arc::new(Frame::new(node, payload))),
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
            self.nodes[local].assigned.push_back((tx_idx, seq));
            pending.seq = Some(seq);
        }
        self.outbox.push(pending);
        self.push_mac(
            end,
            LANE_M_TXEND,
            node,
            local,
            MacKind::TxEnd { node, tx_idx },
        );
    }

    /// Drains this shard's receive events inside `[.., t_end)` — fully
    /// shard-parallel; the air view is read-only here.
    fn run_phase2<A: AirReads>(
        &mut self,
        ctx: &EngineCtx<'_>,
        t_end: SimTime,
        air: &A,
        obs: Option<&NetsimObs>,
    ) {
        while let Some(ev) = self.rx_heap.peek() {
            if ev.at >= t_end || ev.at > ctx.deadline {
                break;
            }
            let ev = self.rx_heap.pop().expect("peeked above");
            self.dispatch_rx(ev, ctx, air, obs);
        }
    }

    /// The threaded receive phase: reads this shard's own ghost air
    /// replica, so no shared state (and no lock) is touched.
    fn run_phase2_ghost(&mut self, ctx: &EngineCtx<'_>, t_end: SimTime, obs: Option<&NetsimObs>) {
        let ghost = std::mem::take(&mut self.ghost);
        self.run_phase2(ctx, t_end, &ghost, obs);
        self.ghost = ghost;
    }

    fn owns(&self, ctx: &EngineCtx<'_>, node: NodeId) -> bool {
        ctx.owner[node.index()].0 as usize == self.index
    }

    fn dispatch_rx<A: AirReads>(
        &mut self,
        ev: RxEvent,
        ctx: &EngineCtx<'_>,
        air: &A,
        obs: Option<&NetsimObs>,
    ) {
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
                            self.rx_heap.push(RxEvent {
                                at,
                                lane: LANE_R_START,
                                a: u64::from(node.0),
                                b: 0,
                                kind: RxKind::Start { node },
                            });
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
            RxKind::Timer { node, timer } => {
                let local = ctx.local(self.index, node);
                let state = &mut self.nodes[local];
                let cancelled =
                    !state.cancelled.is_empty() && state.cancelled.remove(&timer.handle);
                if !cancelled && self.topo_rx.is_alive(node) {
                    self.with_ctx(local, at, ctx, |protocol, c| protocol.on_timer(c, timer));
                    self.drain_commands(local, at, ctx);
                }
            }
            RxKind::Deliver { seq, sender } => self.deliver(at, seq, sender, ctx, air, obs),
            RxKind::DfaFeedback { seq, sender } => self.dfa_feedback(at, seq, sender, ctx, air),
        }
    }

    /// Sender-side DFA slot feedback: the transmission collided iff a
    /// foreign audible transmission overlapped its airtime. A collided
    /// frame is requeued, and either way the sender re-contends at its frame
    /// boundary — pushed past the current window so the retry never
    /// lands behind this window's already-run MAC phase (the boundary
    /// `window_end(at, lookahead)` depends only on the lookahead, so
    /// the deferral is shard-count invariant).
    fn dfa_feedback<A: AirReads>(
        &mut self,
        at: SimTime,
        seq: u64,
        sender: NodeId,
        ctx: &EngineCtx<'_>,
        air: &A,
    ) {
        let record = air.get(seq).expect("feedback record retained");
        let position = self.topo_rx.position(sender);
        let collided = air.interference_at(
            sender,
            position,
            record.start,
            record.end,
            seq,
            &self.topo_rx,
        );
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
        let retry = frame_end.max(window_end(at, ctx.lookahead));
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
    fn deliver<A: AirReads>(
        &mut self,
        at: SimTime,
        seq: u64,
        sender: NodeId,
        ctx: &EngineCtx<'_>,
        air: &A,
        obs: Option<&NetsimObs>,
    ) {
        let mut receivers = std::mem::take(&mut self.receiver_scratch);
        receivers.extend(
            self.topo_rx
                .neighbors(sender)
                .filter(|r| self.owns(ctx, *r)),
        );
        if receivers.is_empty() {
            self.receiver_scratch = receivers;
            return;
        }
        let record = air.get(seq).expect("delivery record retained");
        let bits_on_air = record.bits_on_air;
        let tx_start = record.start;
        let tx_end_at = record.end;
        let airtime_micros = tx_end_at.since(tx_start).as_micros();
        let rx_nj = bits_on_air as f64 * ctx.radio.energy.rx_nj_per_bit;
        for &receiver in &receivers {
            let local = ctx.local(self.index, receiver);
            // Draw before any filtering so the stream is identical
            // across duty-cycle and fault configurations.
            let draw: f64 = self.nodes[local].chan_rng.gen_range(0.0..1.0);
            if ctx.faults.severs(sender, receiver, at) {
                self.stats.partition_losses += 1;
                if let Some(o) = obs {
                    o.drop_for(LossReason::Partitioned);
                }
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
                    if let Some(o) = obs {
                        o.drop_for(LossReason::Asleep);
                    }
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
            let position = self.topo_rx.position(receiver);
            let verdict = air.judge(
                seq,
                receiver,
                position,
                draw,
                ctx.radio.frame_loss,
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
                    if let Some(o) = obs {
                        o.drop_for(reason);
                        if reason != LossReason::HalfDuplex {
                            o.energy_rx_nj.shift(rx_nj);
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
                    if let Some(o) = obs {
                        o.energy_rx_nj.shift(rx_nj);
                    }
                    // The fault channel judges last, from the receiver's
                    // own fault stream: erasure drops the frame, a
                    // positive BER may flip bits on a per-receiver copy.
                    let mut corrupted: Option<(Frame, u64)> = None;
                    if let Some(channel) = ctx.faults.channel() {
                        let state = &mut self.nodes[local];
                        let fault = channel.judge_frame(&mut state.fault_bad, &mut state.fault_rng);
                        if fault.erased {
                            self.stats.fault_erasures += 1;
                            if let Some(o) = obs {
                                o.drop_for(LossReason::FaultErasure);
                            }
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
                            let mut mangled = (*record.frame).clone();
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
                    if let Some(o) = obs {
                        o.deliveries.inc();
                    }
                    match corrupted {
                        Some((mangled, flipped)) => {
                            self.stats.corrupted_deliveries += 1;
                            self.stats.flipped_bits += flipped;
                            if let Some(o) = obs {
                                o.corrupted_deliveries.inc();
                                o.flipped_bits.add(flipped);
                            }
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
        let pending_frames = state.queue.len() + usize::from(state.transmitting);
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
                        let enqueue_at = at + ctx.lookahead;
                        self.push_mac(
                            enqueue_at,
                            LANE_M_ENQ,
                            node,
                            node_local,
                            MacKind::Enqueue { node, payload },
                        );
                    }
                    Command::SetTimer { node, at, timer } => {
                        self.rx_heap.push(RxEvent {
                            at,
                            lane: LANE_R_TIMER,
                            a: u64::from(node.0),
                            b: timer.handle.0,
                            kind: RxKind::Timer { node, timer },
                        });
                    }
                    Command::CancelTimer { handle } => {
                        self.nodes[local].cancelled.insert(handle);
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

/// A policy assigning every node to one of `K` shard cores.
///
/// Placement is pure load balancing: the merged event stream is
/// invariant in it (the shard-count invariance tests pin this), so a
/// strategy is free to optimize for locality or balance without
/// touching correctness. The engine re-runs the strategy at the start
/// of a run whenever nodes were added or dynamics changed the
/// topology.
pub trait ShardStrategy: std::fmt::Debug + Send {
    /// A short stable name (for logs and bench metadata).
    fn name(&self) -> &'static str;

    /// Maps each node (indexed by id) to a shard in `0..shards`.
    /// `cell_size` is the interference-grid pitch (= radio range).
    fn assign(&self, topology: &Topology, cell_size: f64, shards: usize) -> Vec<u32>;
}

/// Hash the node's grid cell with SplitMix64 — the original placement.
/// Stateless and incremental (a node's shard never depends on the other
/// nodes), but adjacent cells usually land on different shards, so most
/// radio neighborhoods straddle a shard boundary and nearly every
/// record must be replicated to several ghosts.
#[derive(Debug, Default, Clone, Copy)]
pub struct GridHash;

fn grid_hash_shard(cell: (i64, i64), shards: usize) -> u32 {
    let mut state = (cell.0 as u64) ^ (cell.1 as u64).rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    state = rand::splitmix64(&mut state);
    u32::try_from(state % shards as u64).expect("shard index fits u32")
}

impl ShardStrategy for GridHash {
    fn name(&self) -> &'static str {
        "grid-hash"
    }

    fn assign(&self, topology: &Topology, cell_size: f64, shards: usize) -> Vec<u32> {
        topology
            .node_ids()
            .map(|id| grid_hash_shard(cell_of(topology.position(id), cell_size), shards))
            .collect()
    }
}

/// Sort nodes by grid cell (column-major, node id as tiebreak) and cut
/// the order into `K` equal contiguous stripes. Neighboring cells share
/// a stripe except at the K − 1 cut lines, so cross-shard deliveries —
/// and ghost replication — concentrate on thin boundaries instead of
/// being scattered everywhere. The default strategy.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpatialStripes;

impl ShardStrategy for SpatialStripes {
    fn name(&self) -> &'static str {
        "spatial-stripes"
    }

    fn assign(&self, topology: &Topology, cell_size: f64, shards: usize) -> Vec<u32> {
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
}

/// Greedy bin packing by radio degree: nodes in descending degree
/// order (id as tiebreak), each to the shard with the smallest degree
/// sum so far. Evens out very uneven densities at the cost of ignoring
/// locality entirely — best when a few hotspot cells dominate the
/// receive-phase work.
#[derive(Debug, Default, Clone, Copy)]
pub struct DegreeBalanced;

impl ShardStrategy for DegreeBalanced {
    fn name(&self) -> &'static str {
        "degree-balanced"
    }

    fn assign(&self, topology: &Topology, _cell_size: f64, shards: usize) -> Vec<u32> {
        let mut order: Vec<(usize, NodeId)> = topology
            .node_ids()
            .map(|id| (topology.neighbors(id).count(), id))
            .collect();
        order.sort_unstable_by_key(|&(degree, id)| (Reverse(degree), id.0));
        let mut load = vec![0usize; shards];
        let mut out = vec![0u32; order.len()];
        for (degree, id) in order {
            let mut best = 0;
            for (shard, &l) in load.iter().enumerate().skip(1) {
                if l < load[best] {
                    best = shard;
                }
            }
            out[id.index()] = u32::try_from(best).expect("shard index fits u32");
            // A degree-0 node still costs its MAC events: weight 1.
            load[best] += degree.max(1);
        }
        out
    }
}

/// Configures and constructs a [`ShardedSim`].
///
/// Besides the radio, MAC, range, and fault model, the builder sets the
/// sharding knobs: [`shards`](Self::shards),
/// [`lookahead`](Self::lookahead) (the MAC turnaround delay that bounds
/// the synchronization window), and [`strategy`](Self::strategy)
/// (node-to-shard placement).
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
    lookahead: SimDuration,
    strategy: Box<dyn ShardStrategy>,
}

impl ShardedSimBuilder {
    /// Starts a builder with the given seed and defaults: the paper's
    /// RPC radio, CSMA, 100 m range, one shard, 500 µs turnaround.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ShardedSimBuilder {
            seed,
            radio: RadioConfig::radiometrix_rpc(),
            mac: MacConfig::csma(),
            range: 100.0,
            faults: FaultModel::none(),
            shards: 1,
            lookahead: SimDuration::from_micros(500),
            strategy: Box::new(SpatialStripes),
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

    /// Sets the node-to-shard placement strategy (default:
    /// [`SpatialStripes`]). Placement only affects load balance and
    /// ghost-replication volume, never output.
    #[must_use]
    pub fn strategy(mut self, strategy: Box<dyn ShardStrategy>) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the MAC turnaround delay (the conservative lookahead `L`).
    /// Larger values mean fewer barrier epochs but more latency between
    /// a protocol send and its MAC enqueue. Part of the model: changing
    /// it changes (deterministically) when frames hit the air.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    #[must_use]
    pub fn lookahead(mut self, lookahead: SimDuration) -> Self {
        assert!(lookahead.as_micros() > 0, "lookahead must be positive");
        self.lookahead = lookahead;
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
            lookahead: self.lookahead,
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
            obs: None,
            trace_main: Vec::new(),
            merge_scratch: Vec::new(),
            force_serial: false,
            force_threads: false,
            strategy: self.strategy,
            placement_dirty: false,
            interest_valid: false,
            ghosts_valid: false,
            windows_executed: 0,
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
    lookahead: SimDuration,
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
    obs: Option<NetsimObs>,
    trace_main: Vec<(TraceKey, TraceEvent)>,
    merge_scratch: Vec<PendingTx>,
    force_serial: bool,
    force_threads: bool,
    strategy: Box<dyn ShardStrategy>,
    /// Whether node placement may be stale (nodes added or dynamics
    /// applied since the last rebalance).
    placement_dirty: bool,
    /// Whether the per-shard interest refcounts match the current
    /// placement and master positions. Scheduled moves keep them valid
    /// incrementally; node adds and ownership rebalances invalidate
    /// them (full rebuild at the next run).
    interest_valid: bool,
    /// Whether the per-shard ghost replicas hold exactly the retained
    /// records their interest sets select. Invalidated together with
    /// the interest sets.
    ghosts_valid: bool,
    /// Windows actually executed (a window runs only when some shard
    /// has an event in it — fully idle stretches are skipped in O(1)).
    windows_executed: u64,
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
    /// joins shard 0; the placement strategy moves it at the start of
    /// the next run (placement only affects load balance, never output).
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

    /// The conservative lookahead (MAC turnaround delay).
    #[must_use]
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
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

    /// Attaches an observability handle. Observability implies serial
    /// window execution (metric recording order must be deterministic);
    /// output is unchanged either way.
    pub fn enable_obs(&mut self, obs: &Obs) {
        self.obs = obs.is_enabled().then(|| NetsimObs::new(obs));
    }

    /// Forces the single-threaded window loop even for `shards > 1`.
    /// The windowed algorithm is identical either way — this is a
    /// validation/debugging knob (and what `enable_obs` implies).
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
    /// worker threads. False for single-shard sims, attached
    /// observability, forced-serial mode, single-core machines, or
    /// topologies too small to amortize the per-window barrier traffic
    /// (< [`MIN_NODES_PER_SHARD`] owned nodes per shard) — the windowed
    /// algorithm then runs inline, with identical output.
    #[must_use]
    pub fn uses_worker_threads(&self) -> bool {
        if self.cores.len() <= 1 || self.obs.is_some() || self.force_serial {
            return false;
        }
        if self.force_threads {
            return true;
        }
        std::thread::available_parallelism().map_or(1, usize::from) > 1
            && self.owner.len() >= self.cores.len() * MIN_NODES_PER_SHARD
    }

    /// Re-buckets node ownership via the placement strategy, moving
    /// node state and node-owned events between shards. Called at the
    /// start of every run (and skipped unless nodes were added or
    /// dynamics ran since the last rebalance) so churn-heavy workloads
    /// keep their balance. Placement never affects output, so this is
    /// purely a load-balance step.
    fn rebalance_ownership(&mut self) {
        if self.cores.len() <= 1 || self.owner.is_empty() || !self.placement_dirty {
            return;
        }
        self.placement_dirty = false;
        let desired: Vec<u32> =
            self.strategy
                .assign(&self.master, self.air.cell_size, self.cores.len());
        debug_assert_eq!(desired.len(), self.owner.len());
        debug_assert!(desired.iter().all(|&s| (s as usize) < self.cores.len()));
        if desired
            .iter()
            .zip(&self.owner)
            .all(|(want, have)| *want == have.0)
        {
            return;
        }
        // Ownership actually moves: interest refcounts and ghost
        // replicas reflect the old placement, so both rebuild at the
        // start of the run.
        self.interest_valid = false;
        let mut slots: Vec<Option<LocalNode<P>>> = (0..self.owner.len()).map(|_| None).collect();
        let mut mac_orphans: Vec<MacEvent> = Vec::new();
        let mut rx_orphans: Vec<RxEvent> = Vec::new();
        // Pending delivery events may exist on only the cores that were
        // interested under the OLD placement; dedup them by sequence
        // number and re-broadcast below so the new owner of every
        // receiver sees them. (The next barrier routes fresh ones by
        // the new interest sets.)
        let mut pending_delivers: HashMap<u64, (SimTime, NodeId)> = HashMap::new();
        for core in &mut self.cores {
            for node in core.nodes.drain(..) {
                let index = node.id.index();
                slots[index] = Some(node);
            }
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
    /// owns (cell size = radio range), so barrier fan-out and ghost
    /// replication are filtered by it. Only placement changes (node
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

    /// Rebuilds every shard's ghost replica from the retained global
    /// records, filtered by the (freshly rebuilt) interest sets. Paid
    /// only when placement changed; steady-state windows maintain the
    /// replicas incrementally at the barrier and prune them by airtime
    /// horizon.
    fn rebuild_ghosts(&mut self) {
        for core in &mut self.cores {
            core.ghost.clear(self.air.cell_size);
        }
        for record in &self.air.records {
            for core in &mut self.cores {
                if core.interest.contains_key(&record.cell) {
                    core.ghost.insert(record);
                }
            }
        }
    }
}

/// The earliest pending event across all shards and both phases.
fn global_min<P: Protocol>(cores: &[&mut ShardCore<P>]) -> Option<SimTime> {
    let mut min: Option<SimTime> = None;
    for core in cores {
        for at in core
            .mac_heap
            .peek()
            .map(|e| e.at)
            .into_iter()
            .chain(core.rx_heap.peek().map(|e| e.at))
        {
            min = Some(min.map_or(at, |m| m.min(at)));
        }
    }
    min
}

/// End of the synchronization window containing `at`: windows tile the
/// timeline at multiples of the lookahead, so the window start (and
/// therefore the whole window sequence) depends only on the global event
/// set — never on the shard count.
fn window_end(at: SimTime, lookahead: SimDuration) -> SimTime {
    let l = lookahead.as_micros().max(1);
    SimTime::from_micros((at.as_micros() / l + 1) * l)
}

/// How epoch-barrier products (delivery events, ghost records) fan out
/// across shard cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FanOut {
    /// Every core gets every delivery event and (when ghosts are on)
    /// every air record. Only used for single-shard runs, where there
    /// is nothing to filter.
    Broadcast,
    /// Only cores whose interest set contains the record's origin grid
    /// cell. The cell size equals the radio range, so every receiver
    /// and every interferable pair sits within one cell ring of its
    /// counterpart, and a delivery event routed to a non-interested
    /// core would be a no-op (it owns no neighbor of the sender).
    /// Scheduled dynamics stay safe because every move patches the
    /// owning shard's interest refcounts as it executes and backfills
    /// the in-flight records of any cell the set gains — see
    /// [`apply_master_dynamics`].
    Interest,
}

/// Applies master-topology dynamics scheduled inside the window
/// (`at < t_end`) at the window's *start*, delta-routing their
/// consequences when interest routing is on:
///
/// - a move patches the owning shard's ±1-ring interest refcounts —
///   the new ring's increments land immediately (cells going 0→1 get a
///   backfill of their in-flight records), while the old ring's
///   decrements are deferred to just after this window's barrier, so
///   the barrier routes this window's publications with the union of
///   pre- and post-move interest (conservative, hence safe for frames
///   that start before and end after the move);
/// - the mover's own in-flight records are routed to every shard
///   interested in the destination cell, because a relocating sender
///   keeps its records indexed under their origin cells.
///
/// Returns the deferred interest decrements, to be applied by
/// [`apply_interest_decrements`] after the window's barrier.
#[allow(clippy::too_many_arguments)]
fn apply_master_dynamics<P: Protocol>(
    master_dyn: &mut BinaryHeap<MasterDyn>,
    master: &mut Topology,
    cores: &mut [&mut ShardCore<P>],
    air: &AirView,
    owner: &[(u32, u32)],
    t_end: SimTime,
    deadline: SimTime,
    interest_routing: bool,
) -> Vec<(usize, (i64, i64))> {
    let mut deferred: Vec<(usize, (i64, i64))> = Vec::new();
    while let Some(next) = master_dyn.peek() {
        if next.at >= t_end || next.at > deadline {
            break;
        }
        let dynamic = master_dyn.pop().expect("peeked above");
        match dynamic.action {
            DynAction::Move { node, to } => {
                let (old_cell, new_cell) = master.set_position_tracked(node, to);
                if !interest_routing || old_cell == new_cell {
                    continue;
                }
                let shard = owner[node.index()].0 as usize;
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
                            backfill_gained_cell(cores[shard], air, master, cell, dynamic.at);
                        }
                    }
                }
                route_mover_records(cores, air, node, new_cell, dynamic.at);
            }
            DynAction::SetAlive { node, alive } => master.set_alive(node, alive),
        }
    }
    deferred
}

/// Routes the retained records a shard newly needs because its
/// interest set gained `cell`: records *originating* in the cell, plus
/// in-flight records of senders *currently located* in it (a sender
/// that relocated mid-flight keeps its record indexed under the origin
/// cell, so the origin scan alone would miss it). Each record arrives
/// with its pending delivery event; records already delivered before
/// the move instant are skipped — they were judged at the pre-move
/// position, which the pre-move interest covered.
fn backfill_gained_cell<P: Protocol>(
    core: &mut ShardCore<P>,
    air: &AirView,
    master: &Topology,
    cell: (i64, i64),
    since: SimTime,
) {
    if let Some(indexed) = air.cells.get(&cell) {
        for &seq in &indexed.seqs {
            ghost_route(core, air, seq, since);
        }
    }
    for node in master.nodes_in(cell) {
        if let Some(seqs) = air.by_node.get(node.index()) {
            for &seq in seqs {
                ghost_route(core, air, seq, since);
            }
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
    let Some(seqs) = air.by_node.get(node.index()) else {
        return;
    };
    if seqs.is_empty() {
        return;
    }
    let seqs: Vec<u64> = seqs.iter().copied().collect();
    for core in cores.iter_mut() {
        if !core.interest.contains_key(&new_cell) {
            continue;
        }
        for &seq in &seqs {
            ghost_route(core, air, seq, since);
        }
    }
}

/// Copies one retained record into a shard's ghost replica together
/// with its pending delivery event, unless the record already ended
/// before `since` or the replica already holds it (ghost membership
/// and the pending event always travel together, so the membership
/// test also dedups the event).
fn ghost_route<P: Protocol>(core: &mut ShardCore<P>, air: &AirView, seq: u64, since: SimTime) {
    let record = air.get(seq).expect("indexed record retained");
    if record.end < since || core.ghost.contains(seq) {
        return;
    }
    core.ghost.insert(record);
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
/// [`apply_master_dynamics`]), dropping cells whose refcount reaches
/// zero. Runs after the window's barrier has routed with the
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
/// The merge keeps one cursor per shard in a min-heap. `dispatch_mac`
/// only ever pushes follow-up events onto the shard it ran on, so after
/// each pop only that one cursor needs refreshing — O(log K) per event
/// instead of an O(K) peek scan.
/// Min-heap entry in the k-way merge: (event sort key, shard index).
type MergeCursor = Reverse<((SimTime, u8, u64, u64), usize)>;

fn run_phase1_csma<P: Protocol>(
    cores: &mut [&mut ShardCore<P>],
    air: &mut AirView,
    next_seq: &mut u64,
    ctx: &EngineCtx<'_>,
    t_end: SimTime,
    obs: Option<&NetsimObs>,
) {
    let in_window = |ev: &MacEvent| ev.at < t_end && ev.at <= ctx.deadline;
    let mut cursors: BinaryHeap<MergeCursor> = BinaryHeap::with_capacity(cores.len());
    for (i, core) in cores.iter_mut().enumerate() {
        core.mac_was_idle = true;
        if let Some(ev) = core.mac_heap.peek() {
            if in_window(ev) {
                core.mac_was_idle = false;
                cursors.push(Reverse((ev.key(), i)));
            }
        }
    }
    while let Some(Reverse((_, i))) = cursors.pop() {
        let ev = cores[i]
            .mac_heap
            .pop()
            .expect("cursor tracks a peeked event");
        cores[i].dispatch_mac(ev, ctx, Some(CsmaAir { air, next_seq }), obs);
        if let Some(ev) = cores[i].mac_heap.peek() {
            if in_window(ev) {
                cursors.push(Reverse((ev.key(), i)));
            }
        }
    }
}

/// The epoch barrier ("barrier A"): merge per-shard outboxes in
/// canonical order, assign global sequence numbers, record stats,
/// traces, and metrics, publish air records, and route delivery events
/// (and, on threaded runs, ghost records) to the shards that can
/// possibly need them.
#[allow(clippy::too_many_arguments)]
fn assign_and_broadcast<P: Protocol>(
    cores: &mut [&mut ShardCore<P>],
    air: &mut AirView,
    next_seq: &mut u64,
    frames_sent: &mut u64,
    trace_main: &mut Vec<(TraceKey, TraceEvent)>,
    merge: &mut Vec<PendingTx>,
    mut obs: Option<&mut NetsimObs>,
    owner: &[(u32, u32)],
    tracing: bool,
    tx_nj_per_bit: f64,
    fan_out: FanOut,
    ghosts: bool,
    dfa: bool,
) {
    merge.clear();
    let mut have_span_ends = false;
    for core in cores.iter_mut() {
        merge.append(&mut core.outbox);
        have_span_ends |= !core.span_ends.is_empty();
    }
    // Quiet windows (no transmissions started, nothing to resolve) skip
    // the whole barrier body.
    if merge.is_empty() && !have_span_ends {
        return;
    }
    merge.sort_unstable_by_key(|p| (p.start, p.node.0, p.tx_idx));
    for p in merge.drain(..) {
        let seq = match p.seq {
            Some(seq) => seq,
            None => {
                let seq = *next_seq;
                *next_seq += 1;
                let (shard, local) = owner[p.node.index()];
                cores[shard as usize].nodes[local as usize]
                    .assigned
                    .push_back((p.tx_idx, seq));
                seq
            }
        };
        *frames_sent += 1;
        if tracing {
            trace_main.push((
                (p.start.as_micros(), LANE_T_TX, seq, 0),
                TraceEvent::TxStart {
                    at: p.start,
                    node: p.node,
                    seq,
                    bits: p.bits_on_air,
                },
            ));
        }
        if let Some(o) = obs.as_deref_mut() {
            o.frames_sent.inc();
            o.tx_bits.add(p.bits_on_air);
            o.airtime_micros.add(p.airtime_micros);
            o.energy_tx_nj.shift(p.bits_on_air as f64 * tx_nj_per_bit);
            o.tx_span_start(seq, p.start.as_micros());
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
        let record = air.get(seq).expect("record published at this barrier");
        for core in cores.iter_mut() {
            if fan_out == FanOut::Interest && !core.interest.contains_key(&record.cell) {
                continue;
            }
            if ghosts {
                core.ghost.insert(record);
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
        if dfa {
            // Sender-side slot feedback, routed only to the sender's
            // owner shard. Its ghost always holds the record: the
            // owner's interest set covers the sender's own cell (the
            // window's conservative pre-move ∪ post-move union when the
            // sender relocated mid-window).
            let (shard, _) = owner[p.node.index()];
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
    // Airtime spans (observability only): resolve ends buffered during
    // the MAC phase, now that every same-window start has its number.
    if let Some(o) = obs {
        let mut pending: Vec<SpanEnd> = Vec::new();
        for core in cores.iter_mut() {
            pending.append(&mut core.span_ends);
        }
        if pending.is_empty() {
            return;
        }
        let mut ends: Vec<(u64, u64)> = Vec::with_capacity(pending.len());
        for end in pending {
            match end {
                SpanEnd::Known { at_micros, seq } => ends.push((at_micros, seq)),
                SpanEnd::Pending {
                    at_micros,
                    node,
                    tx_idx,
                } => {
                    let (shard, local) = owner[node.index()];
                    let seq = cores[shard as usize].nodes[local as usize]
                        .take_assigned(tx_idx)
                        .expect("same-window transmission numbered at this barrier");
                    ends.push((at_micros, seq));
                }
            }
        }
        ends.sort_unstable();
        for (at_micros, seq) in ends {
            o.tx_span_end(seq, at_micros);
        }
    }
}

impl<P: Protocol + Send> ShardedSim<P> {
    /// Runs all events up to and including `deadline`, then advances
    /// the clock to it.
    ///
    /// Multi-shard runs execute windows on scoped worker threads unless
    /// observability is attached (or [`Self::set_force_serial`] was
    /// called); output is identical either way.
    ///
    /// # Panics
    ///
    /// Propagates panics from protocol callbacks (on worker threads,
    /// re-raised on the caller).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.rebalance_ownership();
        // Multi-shard runs always route barrier products by interest:
        // scheduled dynamics patch the refcounted sets incrementally as
        // they execute (see `apply_master_dynamics`), so only placement
        // changes pay a full rebuild. The ghost replicas are likewise
        // maintained across runs — serial multi-shard windows keep them
        // warm so an engine switch (threads toggling on or off between
        // calls) never observes a stale replica.
        let fan_out = if self.cores.len() > 1 {
            if !self.interest_valid {
                self.build_interest();
                self.interest_valid = true;
                self.ghosts_valid = false;
            }
            if !self.ghosts_valid {
                self.rebuild_ghosts();
                self.ghosts_valid = true;
            }
            FanOut::Interest
        } else {
            FanOut::Broadcast
        };
        let dyn_before = self.master_dyn.len();
        if self.uses_worker_threads() {
            self.run_windows_parallel(deadline, fan_out);
        } else {
            self.run_windows_serial(deadline, fan_out);
        }
        if self.master_dyn.len() != dyn_before {
            self.placement_dirty = true;
        }
        self.now = self.now.max(deadline);
        self.flush_traces();
    }

    fn run_windows_serial(&mut self, deadline: SimTime, fan_out: FanOut) {
        let ShardedSim {
            cores,
            air,
            next_seq,
            frames_sent,
            trace_main,
            merge_scratch,
            obs,
            tracer,
            owner,
            radio,
            mac,
            faults,
            lookahead,
            master,
            master_dyn,
            windows_executed,
            ..
        } = self;
        let ctx = EngineCtx {
            radio,
            mac,
            faults,
            lookahead: *lookahead,
            tracing: tracer.is_some(),
            deadline,
            owner,
        };
        let slack = radio.airtime(radio.max_frame_bytes as u32 * 8) * 2;
        let mut refs: Vec<&mut ShardCore<P>> = cores.iter_mut().collect();
        let multi = refs.len() > 1;
        loop {
            let t_end = match global_min(&refs) {
                Some(min) if min <= deadline => window_end(min, *lookahead),
                _ => break,
            };
            *windows_executed += 1;
            // Window start: master dynamics scheduled inside this
            // window execute now, patching interest refcounts and
            // backfilling ghosts as they go. Nothing in the window body
            // reads the master topology, so start-of-window application
            // is equivalent to the phases' own in-order replays.
            let deferred = apply_master_dynamics(
                master_dyn, master, &mut refs, air, owner, t_end, deadline, multi,
            );
            if mac.carrier_sense {
                run_phase1_csma(&mut refs, air, next_seq, &ctx, t_end, obs.as_ref());
            } else {
                for core in refs.iter_mut() {
                    core.mac_was_idle = core.mac_idle(t_end, deadline);
                    if !core.mac_was_idle {
                        core.run_phase1(&ctx, t_end, obs.as_ref());
                    }
                }
            }
            assign_and_broadcast(
                &mut refs,
                air,
                next_seq,
                frames_sent,
                trace_main,
                merge_scratch,
                obs.as_mut(),
                owner,
                ctx.tracing,
                radio.energy.tx_nj_per_bit,
                fan_out,
                multi,
                mac.dfa_config().is_some(),
            );
            apply_interest_decrements(&mut refs, &deferred);
            let horizon = SimTime::from_micros(t_end.as_micros().saturating_sub(slack.as_micros()));
            for core in refs.iter_mut() {
                let rx_was_idle = core.rx_idle(t_end, deadline);
                if !rx_was_idle {
                    core.run_phase2(&ctx, t_end, air, obs.as_ref());
                }
                if core.mac_was_idle && rx_was_idle {
                    core.windows_skipped += 1;
                }
                if multi {
                    core.ghost.prune(horizon);
                }
            }
            // Barrier B: air garbage collection (master dynamics moved
            // to the window start, where their routing is delta-based).
            air.prune(horizon);
        }
    }

    fn run_windows_parallel(&mut self, deadline: SimTime, fan_out: FanOut) {
        let shards = self.cores.len();
        // The ghost replicas are maintained across runs (and across
        // serial/parallel engine switches) — `run_until` rebuilt them
        // already if placement changed, so nothing to do here.
        let ShardedSim {
            cores,
            air,
            next_seq,
            frames_sent,
            trace_main,
            merge_scratch,
            master,
            master_dyn,
            owner,
            radio,
            mac,
            faults,
            lookahead,
            tracer,
            windows_executed,
            ..
        } = self;
        let ctx = EngineCtx {
            radio,
            mac,
            faults,
            lookahead: *lookahead,
            tracing: tracer.is_some(),
            deadline,
            owner,
        };
        let csma = mac.carrier_sense;
        let cells: Vec<Mutex<&mut ShardCore<P>>> = cores.iter_mut().map(Mutex::new).collect();
        // Four rendezvous points per window: release workers into the
        // MAC phase, MAC phase done, merge barrier done (ghosts are
        // up to date), receive phase done. The global air view stays on
        // this thread — workers judge against their ghosts — so no
        // shared lock guards it.
        let b_start = Barrier::new(shards + 1);
        let b_mac_done = Barrier::new(shards + 1);
        let b_merged = Barrier::new(shards + 1);
        let b_rx_done = Barrier::new(shards + 1);
        let t_end_micros = AtomicU64::new(0);
        // Each shard's next-activity time, published by its worker
        // before the window's last barrier. The main thread picks the
        // next window from these without taking a single lock, so fully
        // idle stretches of the timeline fast-forward in O(shards).
        let next_slots: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let done = AtomicBool::new(false);
        let panicked = AtomicBool::new(false);
        let worker_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let slack = radio.airtime(radio.max_frame_bytes as u32 * 8) * 2;
        // A panic on the main thread must not unwind inside the scope:
        // the workers would be parked at a barrier and the scope's
        // implicit join would deadlock. Every main-thread segment runs
        // under catch_unwind, completes the window's rendezvous, and
        // the payload re-raises after the scope ends.
        let mut main_panic: Option<Box<dyn std::any::Any + Send>> = None;

        std::thread::scope(|scope| {
            let ctx = &ctx;
            let cells = &cells;
            let b_start = &b_start;
            let b_mac_done = &b_mac_done;
            let b_merged = &b_merged;
            let b_rx_done = &b_rx_done;
            let t_end_micros = &t_end_micros;
            let next_slots = &next_slots;
            let done = &done;
            let panicked = &panicked;
            let worker_panic = &worker_panic;
            for (index, cell) in cells.iter().enumerate().take(shards) {
                scope.spawn(move || loop {
                    b_start.wait();
                    if done.load(AtomicOrdering::Relaxed) {
                        return;
                    }
                    let t_end = SimTime::from_micros(t_end_micros.load(AtomicOrdering::Relaxed));
                    // Workers always reach every barrier, even after a
                    // panic somewhere — the main thread re-raises once
                    // the window's rendezvous completes.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        if !csma && !panicked.load(AtomicOrdering::Relaxed) {
                            let mut core = cell
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            core.mac_was_idle = core.mac_idle(t_end, ctx.deadline);
                            if !core.mac_was_idle {
                                core.run_phase1(ctx, t_end, None);
                            }
                        }
                    }));
                    if let Err(payload) = result {
                        panicked.store(true, AtomicOrdering::Relaxed);
                        worker_panic
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .get_or_insert(payload);
                    }
                    b_mac_done.wait();
                    b_merged.wait();
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        if !panicked.load(AtomicOrdering::Relaxed) {
                            let mut core = cell
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            let rx_was_idle = core.rx_idle(t_end, ctx.deadline);
                            if !rx_was_idle {
                                core.run_phase2_ghost(ctx, t_end, None);
                            }
                            if core.mac_was_idle && rx_was_idle {
                                core.windows_skipped += 1;
                            }
                            let horizon = SimTime::from_micros(
                                t_end.as_micros().saturating_sub(slack.as_micros()),
                            );
                            core.ghost.prune(horizon);
                            // Publish this shard's next-activity time:
                            // every event the merge or the phases could
                            // push for this window is in by now, so the
                            // main thread can pick the next window from
                            // the slots alone.
                            next_slots[index].store(
                                core.next_at().map_or(u64::MAX, |t| t.as_micros()),
                                AtomicOrdering::Release,
                            );
                        }
                    }));
                    if let Err(payload) = result {
                        panicked.store(true, AtomicOrdering::Relaxed);
                        worker_panic
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .get_or_insert(payload);
                    }
                    b_rx_done.wait();
                });
            }

            let lock_all = || -> Vec<std::sync::MutexGuard<'_, &mut ShardCore<P>>> {
                cells
                    .iter()
                    .map(|c| c.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
                    .collect()
            };
            // Seed the next-activity slots: the workers have not run a
            // window yet, so nothing has been published. The locks are
            // uncontended — everyone is parked at the start barrier.
            {
                let guards = lock_all();
                for (slot, guard) in next_slots.iter().zip(guards.iter()) {
                    slot.store(
                        guard.next_at().map_or(u64::MAX, |t| t.as_micros()),
                        AtomicOrdering::Relaxed,
                    );
                }
            }
            loop {
                // Pick the next window from the published next-activity
                // times: no locks, no heap walks, and fully idle
                // stretches of the timeline are skipped in one step.
                let mut min = u64::MAX;
                for slot in next_slots {
                    min = min.min(slot.load(AtomicOrdering::Acquire));
                }
                if min == u64::MAX || min > deadline.as_micros() {
                    break;
                }
                let t_end = window_end(SimTime::from_micros(min), *lookahead);
                *windows_executed += 1;
                // Window-start master dynamics: the locks are taken only
                // when an entry actually falls inside this window.
                let mut deferred: Vec<(usize, (i64, i64))> = Vec::new();
                if master_dyn
                    .peek()
                    .is_some_and(|d| d.at < t_end && d.at <= deadline)
                {
                    match catch_unwind(AssertUnwindSafe(|| {
                        let mut guards = lock_all();
                        let mut refs: Vec<&mut ShardCore<P>> =
                            guards.iter_mut().map(|g| &mut ***g).collect();
                        apply_master_dynamics(
                            master_dyn, master, &mut refs, air, owner, t_end, deadline, true,
                        )
                    })) {
                        Ok(d) => deferred = d,
                        Err(payload) => {
                            panicked.store(true, AtomicOrdering::Relaxed);
                            main_panic = Some(payload);
                        }
                    }
                }
                t_end_micros.store(t_end.as_micros(), AtomicOrdering::Relaxed);
                b_start.wait();
                if csma && !panicked.load(AtomicOrdering::Relaxed) {
                    // Zero-lookahead MAC: globally ordered, on this
                    // thread, while the workers idle at the barrier.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut guards = lock_all();
                        let mut refs: Vec<&mut ShardCore<P>> =
                            guards.iter_mut().map(|g| &mut ***g).collect();
                        run_phase1_csma(&mut refs, air, next_seq, ctx, t_end, None);
                    }));
                    if let Err(payload) = result {
                        panicked.store(true, AtomicOrdering::Relaxed);
                        main_panic = Some(payload);
                    }
                }
                b_mac_done.wait();
                if !panicked.load(AtomicOrdering::Relaxed) {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut guards = lock_all();
                        let mut refs: Vec<&mut ShardCore<P>> =
                            guards.iter_mut().map(|g| &mut ***g).collect();
                        assign_and_broadcast(
                            &mut refs,
                            air,
                            next_seq,
                            frames_sent,
                            trace_main,
                            merge_scratch,
                            None,
                            owner,
                            ctx.tracing,
                            radio.energy.tx_nj_per_bit,
                            fan_out,
                            true,
                            ctx.mac.dfa_config().is_some(),
                        );
                        // The barrier routed this window's publications
                        // with the conservative pre-move ∪ post-move
                        // interest; the pre-move halves retire now.
                        apply_interest_decrements(&mut refs, &deferred);
                    }));
                    if let Err(payload) = result {
                        panicked.store(true, AtomicOrdering::Relaxed);
                        main_panic = Some(payload);
                    }
                }
                b_merged.wait();
                // The workers run the receive phase against their own
                // ghosts; the global view is exclusively ours here, so
                // barrier B (air garbage collection) overlaps with it.
                if !panicked.load(AtomicOrdering::Relaxed) {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let horizon = SimTime::from_micros(
                            t_end.as_micros().saturating_sub(slack.as_micros()),
                        );
                        air.prune(horizon);
                    }));
                    if let Err(payload) = result {
                        panicked.store(true, AtomicOrdering::Relaxed);
                        main_panic = Some(payload);
                    }
                }
                b_rx_done.wait();
                if panicked.load(AtomicOrdering::Relaxed) {
                    break;
                }
            }
            done.store(true, AtomicOrdering::Relaxed);
            b_start.wait();
        });
        if let Some(payload) = main_panic.or_else(|| {
            worker_panic
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }) {
            std::panic::resume_unwind(payload);
        }
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
                frame: Arc::new(probe(sender.0)),
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
            let position = self.topo.position(receiver);
            match self
                .air
                .judge(seq, receiver, position, loss_draw, frame_loss, &self.topo)
            {
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
                .map(|record| (record.sender, record.frame.as_ref()))
        }
    }
}

#[cfg(test)]
mod tests {
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
    /// (ghost replicas, interest routing once dynamics drain).
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

    /// Every placement strategy yields valid shard indexes and — the
    /// engine's core promise — identical output.
    #[test]
    fn placement_strategies_never_change_output() {
        let reference = grid_digest(17, MacConfig::csma(), 1, true);
        let strategies: Vec<Box<dyn ShardStrategy>> = vec![
            Box::new(GridHash),
            Box::new(SpatialStripes),
            Box::new(DegreeBalanced),
        ];
        for strategy in strategies {
            let name = strategy.name();
            let topo = Topology::grid(4, 4, 30.0, 45.0);
            let assignment = strategy.assign(&topo, 45.0, 3);
            assert_eq!(assignment.len(), 16);
            assert!(assignment.iter().all(|&s| s < 3), "{name} out of range");
            let mut sim = grid_run(17, MacConfig::csma(), 3, true);
            sim.strategy = strategy;
            sim.placement_dirty = true;
            sim.run_until(SimTime::from_millis(500));
            sim.run_until(SimTime::from_millis(1500));
            assert_eq!(digest(&sim), reference, "{name} diverged");
        }
    }

    /// SpatialStripes cuts the cell-sorted order into contiguous
    /// near-equal chunks.
    #[test]
    fn spatial_stripes_are_contiguous_and_balanced() {
        let topo = Topology::grid(8, 8, 30.0, 45.0);
        let assignment = SpatialStripes.assign(&topo, 45.0, 4);
        let mut sizes = [0usize; 4];
        for &s in &assignment {
            sizes[s as usize] += 1;
        }
        assert_eq!(sizes, [16, 16, 16, 16]);
    }

    /// DegreeBalanced spreads a hotspot: with one dense cluster and
    /// isolated outliers, no shard gets the whole cluster plus extras.
    #[test]
    fn degree_balanced_splits_hotspots() {
        let mut topo = Topology::new(50.0);
        // 12 mutually in-range nodes plus 4 isolated ones.
        for i in 0..12 {
            topo.add(Position::new(f64::from(i) * 0.5, 0.0));
        }
        for i in 0..4 {
            topo.add(Position::new(1000.0 + f64::from(i) * 500.0, 0.0));
        }
        let assignment = DegreeBalanced.assign(&topo, 50.0, 4);
        let mut cluster_per_shard = [0usize; 4];
        for node in 0..12 {
            cluster_per_shard[assignment[node] as usize] += 1;
        }
        assert_eq!(cluster_per_shard, [3, 3, 3, 3]);
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
        let mut seen = HashSet::new();
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
        let on_air = |script: &AirScript, node: NodeId| {
            let cell = cell_of(script.topo.position(node), script.air.cell_size);
            script.air.cells.get(&cell).map_or(0, |cell| cell.on_air)
        };
        let sa = script.tx(a, 0, 100);
        let _sb = script.tx(b, 10, 110);
        assert_eq!((on_air(&script, a), on_air(&script, b)), (1, 1));
        script.end(sa);
        assert_eq!((on_air(&script, a), script.air.on_air), (0, 1));
        // a's cell has nothing left on the air; b's still does.
        assert!(!script.busy_for(b, 50));
        assert!(script.busy_for(r, 50));
        // Pruning an un-ended record releases its count too.
        script.prune(500);
        assert!(script.air.cells.is_empty(), "every record pruned");
        assert_eq!((on_air(&script, b), script.air.on_air), (0, 0));
    }
}
