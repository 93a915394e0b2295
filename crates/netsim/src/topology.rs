//! Node placement, radio range, and network dynamics.
//!
//! Connectivity uses the classic unit-disk model: two nodes hear each
//! other iff they are within the radio's range. It is deliberately
//! simple — the paper's arguments depend on *limited range* (locality,
//! spatial reuse, hidden terminals), not on fading detail — and it keeps
//! experiments exactly reproducible.
//!
//! # The adjacency cache
//!
//! Connectivity queries are the simulator's innermost loop (carrier
//! sense and collision judgment call [`Topology::in_range`] for every
//! candidate transmission), so the topology maintains a per-node
//! adjacency cache: each site stores its live in-range neighbors as an
//! id-sorted `Vec<NodeId>`. Queries never touch coordinates —
//! [`Topology::in_range`] is a binary search and
//! [`Topology::neighbors`] walks the cached list. Only the *dynamics*
//! pay for geometry, and even they are local: the topology keeps a
//! spatial cell index with pitch equal to the radio range, so any node
//! within range of a position lies in the 3×3 block of cells around
//! it. [`Topology::add`], [`Topology::set_position`], and
//! [`Topology::set_alive`] patch the affected node's links by scanning
//! only that neighborhood — O(occupancy of 9 cells), not O(n) — which
//! is what lets a million-node sparse mesh absorb churn at cost
//! proportional to local density.
//!
//! Distance tests compare squared distances (`d² ≤ range²`), avoiding
//! the square root on the hot path. The boundary case `d == range` is
//! still in range.
//!
//! # The bulk build
//!
//! A whole layout is built in one pass by [`Topology::from_positions`],
//! which every convenience layout ([`Topology::grid`],
//! [`Topology::full_mesh`], [`Topology::random_disc`],
//! [`Topology::hidden_terminal`]) goes through; [`Topology::add`] is for
//! a single join. The pass computes each node's cell once and
//! counting-sorts the node ids into `n` slots, keyed by the cell's
//! linear index in the layout's bounding box of cells taken modulo `n`,
//! so memory never grows with the box of a sparse layout. A neighbour
//! cell's slot is then the node's own slot plus one of nine fixed
//! offsets, modulo `n`; offsets that coincide name one slot, scanned
//! once. A slot can also hold cells outside the node's 3×3 block (a
//! wrapped index, or the next column past the box's edge). Their nodes
//! are two or more cells away, so the distance test alone would reject
//! them; the scan also keeps only candidates in adjacent cells, which
//! makes it see exactly the block that [`Topology::add`] scans. As `add`
//! does, each node tests only the lower ids, so every pair is tested
//! once: a first pass collects each node's lower neighbours and counts
//! every degree, and a second allocates each neighbour list once at its
//! final length and fills it in id order, so no list is sorted whole.
//! The cell index is filled in the first pass, each bucket in ascending
//! id order. The result — every position, cell, neighbour list and
//! bucket — is exactly what `n` calls of [`Topology::add`] leave.
//!
//! Cells come from `floor(coordinate / range)` cast with saturation, so
//! a non-finite or huge coordinate lands on an edge cell of the `i64`
//! plane. Every 3×3 block is enumerated by one helper that leaves out
//! the cells past that edge, so no position makes the cell arithmetic
//! overflow.

use core::fmt;

use retri::hash::FixedMap;

use crate::node::NodeId;

/// A spatial cell key: `floor(coordinate / range)` per axis. The pitch
/// equals the radio range, so in-range pairs are never more than one
/// cell apart on either axis. This is the same grid the sharded
/// engine's air index and interest sets use.
pub type Cell = (i64, i64);

/// The most nodes one topology holds: node ids are `u32`.
const MAX_NODES: usize = u32::MAX as usize;

/// Offsets of a cell's 3×3 block, `dx` outer and `dy` inner.
const BLOCK: [(i64, i64); 9] = [
    (-1, -1),
    (-1, 0),
    (-1, 1),
    (0, -1),
    (0, 0),
    (0, 1),
    (1, -1),
    (1, 0),
    (1, 1),
];

/// The cells of the 3×3 block around `cell`, `dx` outer and `dy`
/// inner, leaving out every offset past the `i64` range: no position
/// maps to a cell there, so nothing can be indexed under one.
pub(crate) fn block(cell: Cell) -> impl Iterator<Item = Cell> {
    BLOCK
        .into_iter()
        .filter_map(move |(dx, dy)| Some((cell.0.checked_add(dx)?, cell.1.checked_add(dy)?)))
}

/// Whether two cells are at most one apart on either axis: the only
/// cells whose nodes can be in range of each other (cell size = radio
/// range).
pub(crate) fn adjacent(a: Cell, b: Cell) -> bool {
    a.0.abs_diff(b.0) <= 1 && a.1.abs_diff(b.1) <= 1
}

/// A layout's node count, if ids can number it.
///
/// # Panics
///
/// Panics if `count` is `None` (it overflowed `usize`) or above
/// `u32::MAX`.
fn checked_node_count(count: Option<usize>) -> usize {
    match count {
        Some(n) if n <= MAX_NODES => n,
        _ => panic!("a topology holds at most {MAX_NODES} nodes (node ids are u32)"),
    }
}

/// A node position in meters on a 2-D plane.
///
/// # Examples
///
/// ```
/// use retri_netsim::Position;
///
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance_sq_to(b), 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Position {
    /// East-west coordinate, meters.
    pub x: f64,
    /// North-south coordinate, meters.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Squared Euclidean distance, meters² — the radius comparison the
    /// adjacency cache uses, with no square root.
    #[must_use]
    pub fn distance_sq_to(self, other: Position) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

#[derive(Debug, Clone)]
struct NodeSite {
    position: Position,
    alive: bool,
    /// The cell index key for `position`, cached so a move can drop the
    /// node from its old bucket without recomputing the old cell.
    cell: Cell,
    /// Live in-range neighbors, sorted by id. Empty while the node is
    /// dead. The invariant is symmetric: `b ∈ neighbors(a)` iff
    /// `a ∈ neighbors(b)`.
    neighbors: Vec<NodeId>,
}

/// Positions and liveness of every node, plus the shared radio range.
///
/// The topology is *dynamic*: nodes can move, die, and join — the
/// defining churn of sensor networks (paper Section 1). The simulator
/// applies scheduled dynamics through this type.
///
/// # Examples
///
/// ```
/// use retri_netsim::topology::Topology;
/// use retri_netsim::{NodeId, Position};
///
/// let mut topo = Topology::new(100.0);
/// let a = topo.add(Position::new(0.0, 0.0));
/// let b = topo.add(Position::new(60.0, 0.0));
/// let c = topo.add(Position::new(120.0, 0.0));
///
/// // a-b and b-c hear each other; a-c are hidden terminals.
/// assert!(topo.in_range(a, b));
/// assert!(topo.in_range(b, c));
/// assert!(!topo.in_range(a, c));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    range: f64,
    range_sq: f64,
    sites: Vec<NodeSite>,
    /// Every node (alive or dead) bucketed by the cell containing its
    /// position. Bucket order is arbitrary — dynamics sort the scanned
    /// candidates before installing them, so query results never depend
    /// on it.
    cells: FixedMap<Cell, Vec<NodeId>>,
}

impl Topology {
    /// Creates an empty topology with the given radio range in meters.
    ///
    /// # Panics
    ///
    /// Panics unless `range` is positive and finite.
    #[must_use]
    pub fn new(range: f64) -> Self {
        assert!(
            range.is_finite() && range > 0.0,
            "radio range {range} must be positive"
        );
        Topology {
            range,
            range_sq: range * range,
            sites: Vec::new(),
            cells: FixedMap::default(),
        }
    }

    /// The radio range in meters.
    #[must_use]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Number of nodes ever added (including dead ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The cell containing `position` on this topology's range-pitched
    /// grid.
    #[must_use]
    pub(crate) fn cell_of(&self, position: Position) -> Cell {
        (
            (position.x / self.range).floor() as i64,
            (position.y / self.range).floor() as i64,
        )
    }

    /// The cell currently containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn cell(&self, node: NodeId) -> Cell {
        self.site(node).cell
    }

    /// The nodes (alive or dead) currently positioned in `cell`, in
    /// arbitrary bucket order. Callers needing determinism must sort.
    pub(crate) fn nodes_in(&self, cell: Cell) -> impl Iterator<Item = NodeId> + '_ {
        self.cells.get(&cell).into_iter().flatten().copied()
    }

    /// Live in-range candidates for `position`, sorted by id, excluding
    /// `skip`. Scans only the 3×3 cell neighborhood of `position`.
    fn scan_neighborhood(
        &self,
        position: Position,
        cell: Cell,
        skip: Option<NodeId>,
    ) -> Vec<NodeId> {
        let mut found = Vec::new();
        for around in block(cell) {
            let Some(bucket) = self.cells.get(&around) else {
                continue;
            };
            for &other in bucket {
                if Some(other) == skip {
                    continue;
                }
                let site = &self.sites[other.0 as usize];
                if site.alive && site.position.distance_sq_to(position) <= self.range_sq {
                    found.push(other);
                }
            }
        }
        found.sort_unstable();
        found
    }

    /// Adds a node at `position`, returning its id. This is a single
    /// join; a whole layout builds faster through
    /// [`from_positions`](Self::from_positions).
    ///
    /// # Panics
    ///
    /// Panics if the topology already holds `u32::MAX` nodes.
    pub fn add(&mut self, position: Position) -> NodeId {
        checked_node_count(self.sites.len().checked_add(1));
        let id = NodeId(self.sites.len() as u32);
        let cell = self.cell_of(position);
        let neighbors = self.scan_neighborhood(position, cell, None);
        // `id` is larger than every existing id, so pushing keeps each
        // neighbor list sorted.
        for &neighbor in &neighbors {
            self.sites[neighbor.0 as usize].neighbors.push(id);
        }
        self.cells.entry(cell).or_default().push(id);
        self.sites.push(NodeSite {
            position,
            alive: true,
            cell,
            neighbors,
        });
        id
    }

    /// The position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Position {
        self.site(node).position
    }

    /// Moves a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    pub fn set_position(&mut self, node: NodeId, position: Position) {
        let _ = self.set_position_tracked(node, position);
    }

    /// Moves a node and reports `(old_cell, new_cell)` so callers that
    /// maintain cell-keyed state of their own — the sharded engine's
    /// per-shard interest sets — can patch it with the same delta
    /// instead of rebuilding.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    pub(crate) fn set_position_tracked(
        &mut self,
        node: NodeId,
        position: Position,
    ) -> (Cell, Cell) {
        let new_cell = self.cell_of(position);
        let site = self.site_mut(node);
        let old_cell = site.cell;
        site.position = position;
        if new_cell != old_cell {
            site.cell = new_cell;
            let bucket = self
                .cells
                .get_mut(&old_cell)
                .expect("moved node was indexed under its old cell");
            let at = bucket
                .iter()
                .position(|&n| n == node)
                .expect("moved node was present in its old cell bucket");
            bucket.swap_remove(at);
            if bucket.is_empty() {
                self.cells.remove(&old_cell);
            }
            self.cells.entry(new_cell).or_default().push(node);
        }
        self.relink(node);
        (old_cell, new_cell)
    }

    /// Whether a node is alive (participating in the network).
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.site(node).alive
    }

    /// Marks a node dead (failure) or alive again (redeployment).
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        if self.site(node).alive == alive {
            return;
        }
        self.site_mut(node).alive = alive;
        self.relink(node);
    }

    /// Whether `a` and `b` are distinct, both alive, and within range of
    /// each other.
    ///
    /// O(log degree): a binary search in `a`'s cached neighbor list.
    ///
    /// # Panics
    ///
    /// Panics if either node was never added.
    #[must_use]
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let sa = self.site(a);
        let _ = self.site(b);
        sa.neighbors.binary_search(&b).is_ok()
    }

    /// The live neighbors of `node`, in ascending id order.
    ///
    /// O(degree): walks the cached list; no geometry.
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.site(node).neighbors.iter().copied()
    }

    /// The number of live neighbors of `node`, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `node` was never added.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.site(node).neighbors.len()
    }

    /// All node ids, alive or dead.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.sites.len() as u32).map(NodeId)
    }

    fn site(&self, node: NodeId) -> &NodeSite {
        self.sites
            .get(node.0 as usize)
            .unwrap_or_else(|| panic!("unknown node {node}"))
    }

    fn site_mut(&mut self, node: NodeId) -> &mut NodeSite {
        self.sites
            .get_mut(node.0 as usize)
            .unwrap_or_else(|| panic!("unknown node {node}"))
    }

    /// Repairs `node`'s adjacency after a move or liveness change:
    /// detaches it from every current neighbor, then (if alive)
    /// recomputes its neighbor set from the 3×3 cell neighborhood and
    /// reattaches symmetrically. O(old degree + 9-cell occupancy).
    fn relink(&mut self, node: NodeId) {
        let index = node.0 as usize;
        let old = std::mem::take(&mut self.sites[index].neighbors);
        for neighbor in &old {
            let list = &mut self.sites[neighbor.0 as usize].neighbors;
            if let Ok(at) = list.binary_search(&node) {
                list.remove(at);
            }
        }
        drop(old);
        let mut fresh = Vec::new();
        if self.sites[index].alive {
            let position = self.sites[index].position;
            let cell = self.sites[index].cell;
            fresh = self.scan_neighborhood(position, cell, Some(node));
            for neighbor in &fresh {
                let list = &mut self.sites[neighbor.0 as usize].neighbors;
                let at = list
                    .binary_search(&node)
                    .expect_err("node was detached from every list above");
                list.insert(at, node);
            }
        }
        self.sites[index].neighbors = fresh;
    }
}

/// Bulk construction and the convenience layouts used by the
/// experiments.
impl Topology {
    /// Builds the topology of a whole layout in one pass: node `i` sits
    /// alive at the `i`-th position. The result is exactly what as many
    /// calls of [`add`](Self::add) would leave (see the module docs,
    /// "The bulk build").
    ///
    /// # Panics
    ///
    /// Panics unless `range` is positive and finite, and if `positions`
    /// holds more than `u32::MAX` nodes; the count is checked before
    /// anything is allocated.
    ///
    /// # Examples
    ///
    /// ```
    /// use retri_netsim::topology::Topology;
    /// use retri_netsim::{NodeId, Position};
    ///
    /// let positions = [0.0, 60.0, 120.0].map(|x| Position::new(x, 0.0));
    /// let topo = Topology::from_positions(100.0, positions);
    /// let heard: Vec<NodeId> = topo.neighbors(NodeId(1)).collect();
    /// assert_eq!(heard, [NodeId(0), NodeId(2)]);
    /// assert!(!topo.in_range(NodeId(0), NodeId(2)));
    /// ```
    #[must_use]
    pub fn from_positions<I>(range: f64, positions: I) -> Self
    where
        I: IntoIterator<Item = Position>,
        I::IntoIter: ExactSizeIterator,
    {
        let positions = positions.into_iter();
        let n = checked_node_count(Some(positions.len()));
        let mut topo = Topology::new(range);
        topo.sites.reserve_exact(n);
        for position in positions {
            let cell = topo.cell_of(position);
            topo.sites.push(NodeSite {
                position,
                alive: true,
                cell,
                neighbors: Vec::new(),
            });
        }
        topo.link_all();
        topo
    }

    /// Fills every neighbour list and the cell index of sites that are
    /// all alive and not yet linked or indexed: the one pass of
    /// [`from_positions`](Self::from_positions).
    fn link_all(&mut self) {
        let n = self.sites.len();
        let Some(first) = self.sites.first() else {
            return;
        };
        let (mut lo, mut hi) = (first.cell, first.cell);
        for site in &self.sites {
            lo = (lo.0.min(site.cell.0), lo.1.min(site.cell.1));
            hi = (hi.0.max(site.cell.0), hi.1.max(site.cell.1));
        }
        // A cell's slot is its linear index in the box, column by
        // column, modulo `n`. The index fits a u128: at most
        // (2^64 − 1) · 2^64 + 2^64 − 1.
        let height = u128::from(hi.1.abs_diff(lo.1)) + 1;
        let slots = n as u128;
        let node_slot: Vec<u32> = self
            .sites
            .iter()
            .map(|site| {
                let linear = u128::from(site.cell.0.abs_diff(lo.0)) * height
                    + u128::from(site.cell.1.abs_diff(lo.1));
                // In a dense box the index is already below `n`, and
                // the u128 remainder is skipped.
                let slot = if linear < slots {
                    linear
                } else {
                    linear % slots
                };
                slot as u32
            })
            .collect();
        // A block neighbour's slot is the node's own slot plus a fixed
        // offset, modulo `n`. Offsets that coincide modulo `n` name the
        // same slot, which is scanned once. An offset can also land on
        // a slot whose cells lie outside the node's block (past the
        // box's edge, or wrapped); the adjacency test rejects their
        // nodes.
        let mut offsets: Vec<usize> = block((0, 0))
            .map(|(dx, dy)| {
                let offset = i128::from(dx) * height as i128 + i128::from(dy);
                offset.rem_euclid(slots as i128) as usize
            })
            .collect();
        offsets.sort_unstable();
        offsets.dedup();

        // Counting sort: `order[start[s]..start[s + 1]]` holds the ids
        // in slot `s`, ascending.
        let mut start = vec![0u32; n + 1];
        for &slot in &node_slot {
            start[slot as usize + 1] += 1;
        }
        for slot in 0..n {
            start[slot + 1] += start[slot];
        }
        let mut fill = start[..n].to_vec();
        let mut order = vec![0u32; n];
        for (id, &slot) in node_slot.iter().enumerate() {
            let at = &mut fill[slot as usize];
            order[*at as usize] = id as u32;
            *at += 1;
        }
        drop(fill);
        let in_slot = |slot: usize| &order[start[slot] as usize..start[slot + 1] as usize];

        // Pass one, in id order: each node's lower-id neighbours, sorted,
        // into one flat list, and every node's degree. Ids ascend within
        // a slot, so a slot's scan stops at the node's own id. The
        // lowest id of a cell also opens the cell's bucket: every node
        // of the cell shares its slot.
        let mut lower: Vec<NodeId> = Vec::new();
        let mut lower_end: Vec<u32> = Vec::with_capacity(n);
        let mut degree = vec![0u32; n];
        for (id, &own_slot) in node_slot.iter().enumerate() {
            let own_slot = own_slot as usize;
            let NodeSite { position, cell, .. } = self.sites[id];
            let begin = lower.len();
            for &offset in &offsets {
                let slot = own_slot + offset;
                let slot = if slot >= n { slot - n } else { slot };
                for &other in in_slot(slot) {
                    if other as usize >= id {
                        break;
                    }
                    let site = &self.sites[other as usize];
                    if adjacent(site.cell, cell)
                        && site.position.distance_sq_to(position) <= self.range_sq
                    {
                        lower.push(NodeId(other));
                        degree[other as usize] += 1;
                    }
                }
            }
            lower[begin..].sort_unstable();
            degree[id] += (lower.len() - begin) as u32;
            lower_end.push(lower.len() as u32);

            let mut same_cell = in_slot(own_slot)
                .iter()
                .filter(|&&other| self.sites[other as usize].cell == cell);
            if same_cell.next() == Some(&(id as u32)) {
                let bucket = std::iter::once(NodeId(id as u32))
                    .chain(same_cell.map(|&other| NodeId(other)))
                    .collect();
                self.cells.insert(cell, bucket);
            }
        }

        // Pass two, in id order: each list opens at its final length
        // with its lower neighbours, and the node appends itself to
        // theirs, which keeps every list sorted.
        let mut begin = 0;
        for (id, &end) in lower_end.iter().enumerate() {
            let lower = &lower[begin..end as usize];
            let mut list = Vec::with_capacity(degree[id] as usize);
            list.extend_from_slice(lower);
            self.sites[id].neighbors = list;
            for &neighbor in lower {
                self.sites[neighbor.0 as usize]
                    .neighbors
                    .push(NodeId(id as u32));
            }
            begin = end as usize;
        }
    }

    /// A fully connected cluster: `n` nodes evenly spaced on a circle
    /// whose diameter is well inside the radio range.
    ///
    /// This is the paper's testbed geometry ("all of the transmitters
    /// and receivers were arranged so that they were fully connected",
    /// Section 5.1).
    #[must_use]
    pub fn full_mesh(n: usize, range: f64) -> Self {
        let radius = range / 4.0;
        Topology::from_positions(
            range,
            (0..n).map(|i| {
                let angle = 2.0 * std::f64::consts::PI * i as f64 / n.max(1) as f64;
                Position::new(radius * angle.cos(), radius * angle.sin())
            }),
        )
    }

    /// A regular `cols × rows` grid with the given spacing in meters,
    /// row by row: node `row · cols + col` sits at
    /// `(col · spacing, row · spacing)`.
    ///
    /// # Panics
    ///
    /// Panics if `cols · rows` exceeds `u32::MAX`, before anything is
    /// allocated.
    #[must_use]
    pub fn grid(cols: usize, rows: usize, spacing: f64, range: f64) -> Self {
        let n = checked_node_count(cols.checked_mul(rows));
        Topology::from_positions(
            range,
            (0..n).map(|i| Position::new((i % cols) as f64 * spacing, (i / cols) as f64 * spacing)),
        )
    }

    /// The canonical hidden-terminal triple: two senders at `±range`
    /// from a receiver in the middle, mutually out of range.
    ///
    /// Returns the topology and `(sender_a, receiver, sender_b)`.
    #[must_use]
    pub fn hidden_terminal(range: f64) -> (Self, (NodeId, NodeId, NodeId)) {
        let topo = Topology::from_positions(
            range,
            [-range * 0.9, 0.0, range * 0.9].map(|x| Position::new(x, 0.0)),
        );
        (topo, (NodeId(0), NodeId(1), NodeId(2)))
    }

    /// An air-drop deployment: `n` nodes uniformly distributed over a
    /// disc of the given radius centered on the origin — the "dropped
    /// into inhospitable terrain" scenario of the paper's introduction.
    ///
    /// Sampling is area-uniform (radius drawn as `R·sqrt(u)`).
    #[must_use]
    pub fn random_disc<R: rand::RngCore>(
        n: usize,
        disc_radius: f64,
        range: f64,
        rng: &mut R,
    ) -> Self {
        use rand::Rng as _;
        Topology::from_positions(
            range,
            (0..n).map(|_| {
                let r = disc_radius * rng.gen::<f64>().sqrt();
                let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                Position::new(r * theta.cos(), r * theta.sin())
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        assert_eq!(
            Position::new(0.0, 0.0).distance_sq_to(Position::new(3.0, 4.0)),
            25.0
        );
        assert_eq!(
            Position::new(1.0, 1.0).distance_sq_to(Position::new(1.0, 1.0)),
            0.0
        );
    }

    #[test]
    fn in_range_is_symmetric_and_irreflexive() {
        let mut topo = Topology::new(50.0);
        let a = topo.add(Position::new(0.0, 0.0));
        let b = topo.add(Position::new(30.0, 0.0));
        assert!(topo.in_range(a, b));
        assert!(topo.in_range(b, a));
        assert!(!topo.in_range(a, a));
    }

    #[test]
    fn boundary_distance_counts_as_in_range() {
        let mut topo = Topology::new(50.0);
        let a = topo.add(Position::new(0.0, 0.0));
        let b = topo.add(Position::new(50.0, 0.0));
        assert!(topo.in_range(a, b));
    }

    #[test]
    fn dead_nodes_hear_nothing() {
        let mut topo = Topology::new(50.0);
        let a = topo.add(Position::new(0.0, 0.0));
        let b = topo.add(Position::new(10.0, 0.0));
        topo.set_alive(b, false);
        assert!(!topo.in_range(a, b));
        topo.set_alive(b, true);
        assert!(topo.in_range(a, b));
    }

    #[test]
    fn movement_changes_connectivity() {
        let mut topo = Topology::new(50.0);
        let a = topo.add(Position::new(0.0, 0.0));
        let b = topo.add(Position::new(10.0, 0.0));
        assert!(topo.in_range(a, b));
        topo.set_position(b, Position::new(100.0, 0.0));
        assert!(!topo.in_range(a, b));
        assert_eq!(topo.position(b), Position::new(100.0, 0.0));
    }

    #[test]
    fn neighbors_lists_live_in_range_nodes() {
        let mut topo = Topology::new(50.0);
        let a = topo.add(Position::new(0.0, 0.0));
        let b = topo.add(Position::new(10.0, 0.0));
        let c = topo.add(Position::new(200.0, 0.0));
        let d = topo.add(Position::new(20.0, 0.0));
        topo.set_alive(d, false);
        let neighbors: Vec<NodeId> = topo.neighbors(a).collect();
        assert_eq!(neighbors, vec![b]);
        assert_eq!(topo.degree(a), 1);
        let _ = c;
    }

    /// Brute-force connectivity with the same squared-distance predicate
    /// the cache uses — the ground truth the cache must match.
    fn brute_in_range(topo: &Topology, a: NodeId, b: NodeId) -> bool {
        a != b
            && topo.is_alive(a)
            && topo.is_alive(b)
            && topo.position(a).distance_sq_to(topo.position(b)) <= topo.range() * topo.range()
    }

    fn assert_cache_matches_brute_force(topo: &Topology) {
        for a in topo.node_ids() {
            let cached: Vec<NodeId> = topo.neighbors(a).collect();
            let brute: Vec<NodeId> = topo
                .node_ids()
                .filter(|&b| brute_in_range(topo, a, b))
                .collect();
            assert_eq!(cached, brute, "neighbor cache diverged for {a}");
            assert!(cached.windows(2).all(|w| w[0] < w[1]), "unsorted for {a}");
            for b in topo.node_ids() {
                assert_eq!(topo.in_range(a, b), brute_in_range(topo, a, b));
            }
        }
        assert_cell_index_consistent(topo);
    }

    /// The spatial index must hold every node exactly once, in the
    /// bucket matching its current position.
    fn assert_cell_index_consistent(topo: &Topology) {
        let indexed: usize = topo.cells.values().map(Vec::len).sum();
        assert_eq!(indexed, topo.len(), "cell index count drifted");
        for node in topo.node_ids() {
            let cell = topo.cell_of(topo.position(node));
            assert_eq!(topo.cell(node), cell, "stale cached cell for {node}");
            let bucket = topo
                .cells
                .get(&cell)
                .unwrap_or_else(|| panic!("no bucket for {node}'s cell"));
            assert_eq!(
                bucket.iter().filter(|&&n| n == node).count(),
                1,
                "{node} not indexed exactly once"
            );
        }
    }

    #[test]
    fn adjacency_cache_survives_dynamics() {
        let mut topo = Topology::new(50.0);
        let a = topo.add(Position::new(0.0, 0.0));
        let b = topo.add(Position::new(30.0, 0.0));
        let c = topo.add(Position::new(60.0, 0.0));
        assert_cache_matches_brute_force(&topo);
        topo.set_position(c, Position::new(20.0, 0.0));
        assert_cache_matches_brute_force(&topo);
        topo.set_alive(b, false);
        assert_cache_matches_brute_force(&topo);
        topo.set_alive(b, false); // idempotent kill
        assert_cache_matches_brute_force(&topo);
        topo.set_position(b, Position::new(100.0, 0.0)); // move while dead
        assert_cache_matches_brute_force(&topo);
        topo.set_alive(b, true); // revive at the new position
        assert_cache_matches_brute_force(&topo);
        let d = topo.add(Position::new(10.0, 10.0)); // join late
        assert_cache_matches_brute_force(&topo);
        let _ = (a, d);
    }

    /// Randomized move/churn/add sequences (ISSUE 7): the incremental
    /// cell-indexed adjacency must match a brute-force rebuild after
    /// every single mutation, including exact-boundary distances
    /// (3-4-5 triangles scaled to d == range) and cross-cell moves.
    mod incremental_vs_brute_force {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn randomized_dynamics_never_desync_the_cache(
                ops in proptest::collection::vec(
                    (0u8..4, any::<u16>(), 0u64..32, 0u64..32),
                    1..40,
                ),
            ) {
                let mut topo = Topology::new(50.0);
                // Seed row crossing several 50 m cells.
                for i in 0..6 {
                    topo.add(Position::new(i as f64 * 30.0, 0.0));
                }
                for (op, pick, gx, gy) in ops {
                    // 10 m lattice under a 50 m range: boundary-exact
                    // pairs (30-40-50 triangles) arise naturally.
                    let pos = Position::new(gx as f64 * 10.0, gy as f64 * 10.0);
                    let node = NodeId(u32::from(pick) % topo.len() as u32);
                    match op {
                        0 => topo.set_position(node, pos),
                        1 => topo.set_alive(node, false),
                        2 => topo.set_alive(node, true),
                        _ => {
                            topo.add(pos);
                        }
                    }
                    assert_cache_matches_brute_force(&topo);
                }
            }
        }
    }

    /// Every site and every cell bucket of `bulk` equals `incremental`'s,
    /// positions bit for bit.
    fn assert_same_sites_and_buckets(bulk: &Topology, incremental: &Topology) {
        assert_eq!(bulk.range.to_bits(), incremental.range.to_bits());
        assert_eq!(bulk.len(), incremental.len());
        for (id, (b, i)) in bulk.sites.iter().zip(&incremental.sites).enumerate() {
            assert_eq!(b.position.x.to_bits(), i.position.x.to_bits(), "x of {id}");
            assert_eq!(b.position.y.to_bits(), i.position.y.to_bits(), "y of {id}");
            assert_eq!(b.alive, i.alive, "liveness of {id}");
            assert_eq!(b.cell, i.cell, "cell of {id}");
            assert_eq!(b.neighbors, i.neighbors, "neighbours of {id}");
        }
        assert_eq!(bulk.cells, incremental.cells, "cell buckets");
    }

    /// The one bulk pass against `n` single joins, and then against
    /// the same dynamics applied to both.
    mod bulk_vs_incremental {
        use super::*;
        use proptest::prelude::*;

        /// A raw draw: `(kind, a, b, u, v)`.
        type Draw = (u8, i64, i64, f64, f64);

        fn draw() -> impl Strategy<Value = Draw> {
            (0u8..7, -8i64..=8, -8i64..=8, -1.0f64..=1.0, -1.0f64..=1.0)
        }

        /// Coordinates that land on the edge cells of the `i64` plane.
        const EDGES: [f64; 6] = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e300,
            0.0,
        ];

        /// A position for `draw` among `placed`: a lattice point (pairs
        /// exactly `range` apart), a continuous point within a few
        /// ranges, a point of a sparse ±1e12 m spread, a duplicate, a
        /// point near an earlier one, one exactly `range` from it, or
        /// one on an edge cell.
        fn position(draw: Draw, placed: &[Position], range: f64) -> Position {
            let (kind, a, b, u, v) = draw;
            let edge = |i: i64| EDGES[i.unsigned_abs() as usize % EDGES.len()];
            let earlier =
                (!placed.is_empty()).then(|| placed[a.unsigned_abs() as usize % placed.len()]);
            let lattice = Position::new(a as f64 * range / 5.0, b as f64 * range / 5.0);
            match (kind, earlier) {
                (1, _) => Position::new(u * 3.0 * range, v * 3.0 * range),
                (2, _) => Position::new(u * 1e12, v * 1e12),
                (3, Some(p)) => p,
                (4, Some(p)) => Position::new(p.x + u * range, p.y + v * range),
                (5, Some(p)) if b % 2 == 0 => Position::new(p.x + range, p.y),
                (5, Some(p)) => Position::new(p.x, p.y - range),
                (6, _) => Position::new(edge(a), edge(b)),
                _ => lattice,
            }
        }

        proptest! {
            #[test]
            fn bulk_topology_matches_incremental_adds(
                wide in 0u8..2,
                draws in proptest::collection::vec(draw(), 0..80),
                ops in proptest::collection::vec((0u8..3, any::<u16>(), draw()), 0..24),
            ) {
                // 50 m keeps the lattice's 30-40-50 pairs exact; 1 m
                // makes the sparse spread a box of 2e12 × 2e12 cells.
                let range = if wide == 0 { 50.0 } else { 1.0 };
                let mut positions = Vec::new();
                for d in draws {
                    let p = position(d, &positions, range);
                    positions.push(p);
                }
                let mut bulk = Topology::from_positions(range, positions.iter().copied());
                let mut incremental = Topology::new(range);
                for &p in &positions {
                    incremental.add(p);
                }
                assert_same_sites_and_buckets(&bulk, &incremental);
                assert_cache_matches_brute_force(&bulk);
                for (op, pick, d) in ops {
                    if bulk.is_empty() {
                        break;
                    }
                    let node = NodeId(u32::from(pick) % bulk.len() as u32);
                    match op {
                        0 => {
                            let p = position(d, &positions, range);
                            bulk.set_position(node, p);
                            incremental.set_position(node, p);
                        }
                        op => {
                            bulk.set_alive(node, op == 2);
                            incremental.set_alive(node, op == 2);
                        }
                    }
                    assert_same_sites_and_buckets(&bulk, &incremental);
                }
                assert_cache_matches_brute_force(&bulk);
            }
        }
    }

    /// Every node's neighbour list, by id.
    fn lists(topo: &Topology) -> Vec<Vec<NodeId>> {
        topo.node_ids()
            .map(|n| topo.neighbors(n).collect())
            .collect()
    }

    /// Infinite, NaN and 1e300 m coordinates saturate onto cells at the
    /// edge of the `i64` plane. The 3×3 scan around them must skip the
    /// cells past the edge instead of overflowing, and they link to
    /// nobody.
    #[test]
    fn edge_cell_positions_link_to_nobody() {
        let mut topo = Topology::grid(3, 3, 30.0, 45.0);
        let before = lists(&topo);
        let far = topo.add(Position::new(f64::INFINITY, 0.0));
        assert_eq!(topo.cell(far), (i64::MAX, 0));
        assert_eq!(topo.degree(far), 0);
        assert_eq!(lists(&topo)[..9], before[..]);

        let moved = NodeId(4);
        topo.set_position(moved, Position::new(f64::NAN, 1e300));
        assert_eq!(topo.cell(moved), (0, i64::MAX));
        assert_eq!(topo.degree(moved), 0);
        assert_eq!(topo.degree(far), 0);
        for node in topo.node_ids().take(9).filter(|&n| n != moved) {
            let expected: Vec<NodeId> = before[node.index()]
                .iter()
                .copied()
                .filter(|&n| n != moved)
                .collect();
            assert_eq!(topo.neighbors(node).collect::<Vec<_>>(), expected);
        }
        assert_cell_index_consistent(&topo);

        let positions: Vec<Position> = topo.node_ids().map(|n| topo.position(n)).collect();
        let bulk = Topology::from_positions(45.0, positions);
        assert_eq!(lists(&bulk), lists(&topo));
        assert_eq!(bulk.cells, topo.cells);
    }

    #[test]
    #[should_panic(expected = "a topology holds at most 4294967295 nodes")]
    fn a_grid_past_the_id_space_panics_before_allocating() {
        // 2^34 nodes: building them would ask for a terabyte, so the
        // check has to come first.
        let _ = Topology::grid(1 << 17, 1 << 17, 30.0, 45.0);
    }

    #[test]
    fn set_position_tracked_reports_the_cell_delta() {
        let mut topo = Topology::new(50.0);
        let a = topo.add(Position::new(10.0, 10.0));
        assert_eq!(topo.cell(a), (0, 0));
        let (from, to) = topo.set_position_tracked(a, Position::new(120.0, -10.0));
        assert_eq!(from, (0, 0));
        assert_eq!(to, (2, -1));
        assert_eq!(topo.cell(a), (2, -1));
        // A move inside one cell reports an empty delta.
        let (from, to) = topo.set_position_tracked(a, Position::new(130.0, -20.0));
        assert_eq!(from, to);
        assert_cache_matches_brute_force(&topo);
    }

    #[test]
    fn full_mesh_is_fully_connected() {
        let topo = Topology::full_mesh(6, 100.0);
        for a in topo.node_ids() {
            for b in topo.node_ids() {
                if a != b {
                    assert!(topo.in_range(a, b), "{a} cannot hear {b}");
                }
            }
        }
    }

    #[test]
    fn grid_has_expected_size_and_spacing() {
        let topo = Topology::grid(3, 2, 10.0, 15.0);
        assert_eq!(topo.len(), 6);
        // Orthogonal neighbors in range, diagonal (14.1m) also in range,
        // two-step (20m) not.
        assert!(topo.in_range(NodeId(0), NodeId(1)));
        assert!(topo.in_range(NodeId(0), NodeId(4)));
        assert!(!topo.in_range(NodeId(0), NodeId(2)));
    }

    #[test]
    fn hidden_terminal_geometry() {
        let (topo, (a, r, b)) = Topology::hidden_terminal(100.0);
        assert!(topo.in_range(a, r));
        assert!(topo.in_range(b, r));
        assert!(!topo.in_range(a, b), "senders must not hear each other");
    }

    #[test]
    fn random_disc_stays_inside_the_disc() {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let topo = Topology::random_disc(200, 80.0, 30.0, &mut rng);
        assert_eq!(topo.len(), 200);
        let origin = Position::new(0.0, 0.0);
        for id in topo.node_ids() {
            assert!(topo.position(id).distance_sq_to(origin) <= 80.0 * 80.0 + 1e-6);
        }
        // Area-uniform: roughly a quarter of nodes within half radius.
        let inner = topo
            .node_ids()
            .filter(|&id| topo.position(id).distance_sq_to(origin) <= 40.0 * 40.0)
            .count();
        assert!((30..=70).contains(&inner), "inner count {inner}");
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics() {
        let topo = Topology::new(10.0);
        let _ = topo.position(NodeId(3));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_range_rejected() {
        let _ = Topology::new(0.0);
    }

    #[test]
    fn empty_and_len() {
        let mut topo = Topology::new(10.0);
        assert!(topo.is_empty());
        topo.add(Position::default());
        assert!(!topo.is_empty());
        assert_eq!(topo.len(), 1);
    }
}
