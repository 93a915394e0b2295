//! The shared air medium: every transmission record of a run, and the
//! queries that judge deliveries against it.
//!
//! One air view holds every transmission record: a dense record deque
//! plus per-grid-cell and per-node sequence indexes. The cells are the
//! topology's own ([`Topology::cell`]), pitched at the radio range, so
//! every in-range interferer of a node originates within one cell of
//! it. A delivery gathers the records overlapping its airtime once,
//! from the cells around its receivers, and filters them per receiver
//! by origin cell and range; DFA slot feedback runs the same query with
//! the sender as its one receiver. Carrier sense walks the listener's
//! neighbor list and those neighbors' own records. The engine writes
//! the view only while every shard is parked between phases — by the
//! globally ordered CSMA MAC phase, the epoch barrier and pruning — and
//! reads it during the receive phase, so every shard judges its
//! deliveries against it directly (see [`crate::sim`]).

use std::collections::VecDeque;

use retri::hash::FixedMap;

use crate::frame::Frame;
use crate::node::NodeId;
use crate::time::SimTime;
use crate::topology::{adjacent, Cell, Topology};
use crate::trace::LossReason;

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

/// Per-receiver delivery verdict for one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Delivered,
    /// Lost on the air: [`LossReason::HalfDuplex`],
    /// [`LossReason::RfCollision`] or [`LossReason::RandomLoss`].
    Failed(LossReason),
}

/// One transmission record in the air view.
#[derive(Debug)]
pub(crate) struct AirRecord {
    pub(crate) seq: u64,
    pub(crate) sender: NodeId,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    pub(crate) bits_on_air: u64,
    pub(crate) frame: Frame,
    /// Grid cell of the sender at transmission start (the interference
    /// index bucket; a sender relocating mid-flight keeps its record in
    /// the origin cell).
    pub(crate) cell: Cell,
    /// Whether the transmission's MAC `TxEnd` has run (clears carrier
    /// sense; delivery judgments ignore this flag).
    pub(crate) ended: bool,
}

impl AirRecord {
    fn overlaps(&self, start: SimTime, end: SimTime) -> bool {
        self.start < end && self.end > start
    }
}

/// A retained record that overlaps a judged transmission: what the
/// per-receiver interference test needs of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interferer {
    sender: NodeId,
    /// The record's origin cell.
    cell: Cell,
}

/// Whether any of `interferers` corrupts a frame at `receiver`, which
/// sits in grid cell `cell`: a record of another sender, originating
/// within one cell of the receiver's, whose sender is in range.
pub(crate) fn interferes(
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
/// Indexes records by the sender's grid cell so interference queries
/// scan the cells around the receivers instead of every concurrent
/// transmission — the property that makes the view cheap at 10k nodes.
#[derive(Debug, Default)]
pub(crate) struct AirView {
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
    pub(crate) fn add_node(&mut self) {
        self.by_node.push(VecDeque::new());
    }

    pub(crate) fn insert(&mut self, record: AirRecord) {
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

    pub(crate) fn mark_ended(&mut self, seq: u64) {
        let index = usize::try_from(seq - self.base_seq).expect("record index fits usize");
        let record = &mut self.records[index];
        debug_assert!(!record.ended, "transmission {seq} ended twice");
        record.ended = true;
        self.on_air -= 1;
    }

    pub(crate) fn get(&self, seq: u64) -> Option<&AirRecord> {
        let index = usize::try_from(seq.checked_sub(self.base_seq)?).ok()?;
        self.records.get(index)
    }

    /// Sequence numbers of the retained records originating in `cell`.
    pub(crate) fn started_in(&self, cell: Cell) -> impl Iterator<Item = u64> + '_ {
        self.cells.get(&cell).into_iter().flatten().copied()
    }

    /// Sequence numbers of `node`'s retained records.
    pub(crate) fn sent_by(&self, node: NodeId) -> &VecDeque<u64> {
        &self.by_node[node.index()]
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
    pub(crate) fn gather_interferers(
        &self,
        seq: u64,
        lo: Cell,
        hi: Cell,
        out: &mut Vec<Interferer>,
    ) {
        out.clear();
        let judged = self.get(seq).expect("judging unknown transmission");
        // Saturating: no position maps to a cell past the i64 range.
        for cx in lo.0.saturating_sub(1)..=hi.0.saturating_add(1) {
            for cy in lo.1.saturating_sub(1)..=hi.1.saturating_add(1) {
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
    pub(crate) fn judge(
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

    /// CSMA carrier sense: whether `listener` hears any ongoing foreign
    /// transmission at `now`.
    ///
    /// Walks the listener's neighbors, which are exactly the live nodes
    /// in range of it (adjacency is symmetric), and their own records:
    /// a record is heard if it has not ended, covers `now` and
    /// originates within one cell of the listener's — the same records
    /// a 3×3 scan of the cell index would find. A silent air answers at
    /// once.
    pub(crate) fn busy_for(&self, listener: NodeId, now: SimTime, topology: &Topology) -> bool {
        if self.on_air == 0 {
            return false;
        }
        let cell = topology.cell(listener);
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
    pub(crate) fn prune(&mut self, horizon: SimTime) {
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

/// Verdict, carrier-sense and pruning tests of the air view, driven by
/// hand without an engine.
#[cfg(test)]
mod tests;
