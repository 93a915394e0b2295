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

use core::fmt;

use retri::hash::FixedMap;

use crate::node::NodeId;

/// A spatial cell key: `floor(coordinate / range)` per axis. The pitch
/// equals the radio range, so in-range pairs are never more than one
/// cell apart on either axis. This is the same grid the sharded
/// engine's air index and interest sets use.
pub type Cell = (i64, i64);

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
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(bucket) = self.cells.get(&(cell.0 + dx, cell.1 + dy)) else {
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
        }
        found.sort_unstable();
        found
    }

    /// Adds a node at `position`, returning its id.
    pub fn add(&mut self, position: Position) -> NodeId {
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

/// Convenience layouts used by the experiments.
impl Topology {
    /// A fully connected cluster: `n` nodes evenly spaced on a circle
    /// whose diameter is well inside the radio range.
    ///
    /// This is the paper's testbed geometry ("all of the transmitters
    /// and receivers were arranged so that they were fully connected",
    /// Section 5.1).
    #[must_use]
    pub fn full_mesh(n: usize, range: f64) -> Self {
        let mut topo = Topology::new(range);
        let radius = range / 4.0;
        for i in 0..n {
            let angle = 2.0 * std::f64::consts::PI * i as f64 / n.max(1) as f64;
            topo.add(Position::new(radius * angle.cos(), radius * angle.sin()));
        }
        topo
    }

    /// A regular `cols × rows` grid with the given spacing in meters.
    #[must_use]
    pub fn grid(cols: usize, rows: usize, spacing: f64, range: f64) -> Self {
        let mut topo = Topology::new(range);
        for row in 0..rows {
            for col in 0..cols {
                topo.add(Position::new(col as f64 * spacing, row as f64 * spacing));
            }
        }
        topo
    }

    /// The canonical hidden-terminal triple: two senders at `±range`
    /// from a receiver in the middle, mutually out of range.
    ///
    /// Returns the topology and `(sender_a, receiver, sender_b)`.
    #[must_use]
    pub fn hidden_terminal(range: f64) -> (Self, (NodeId, NodeId, NodeId)) {
        let mut topo = Topology::new(range);
        let a = topo.add(Position::new(-range * 0.9, 0.0));
        let r = topo.add(Position::new(0.0, 0.0));
        let b = topo.add(Position::new(range * 0.9, 0.0));
        (topo, (a, r, b))
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
        let mut topo = Topology::new(range);
        for _ in 0..n {
            let r = disc_radius * rng.gen::<f64>().sqrt();
            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
            topo.add(Position::new(r * theta.cos(), r * theta.sin()));
        }
        topo
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
