//! Centralized cluster address allocation (the WINS baseline).
//!
//! Related work the paper positions itself against (Section 7): "In
//! WINS, Kaiser and Pottie have designed a system where short, locally
//! unique addresses are dynamically assigned to nodes in a radio
//! cluster by a central controller. ... AFF's design does not require
//! centralized cluster formation. This makes AFF more scalable,
//! feasible without a centralized controller, and robust in the face of
//! high dynamics."
//!
//! This module implements that baseline: one controller per cluster
//! hands out sequential short addresses on request. The bootstrap has a
//! pleasing twist the paper itself suggests: an unaddressed node cannot
//! be *addressed* by the controller's reply, so each request carries a
//! random ephemeral **request identifier** — RETRI used to bootstrap
//! its own competitor. A request-identifier collision makes two nodes
//! adopt the same assignment; the cluster inherits RETRI's collision
//! probability exactly where it hurts most, which is why the request
//! space must be provisioned by the same Eq. 4 analysis.
//!
//! Wire format (byte-aligned): `REQUEST: 1 | req_id (2B)`,
//! `ASSIGN: 2 | req_id (2B) | addr (2B)`, `DATA: 3 | addr (2B) | payload`.

use rand::Rng;
use retri::select::{IdSelector, UniformSelector};
use retri::{IdentifierSpace, TransactionId};
use retri_netsim::prelude::*;

const MSG_REQUEST: u8 = 1;
const MSG_ASSIGN: u8 = 2;
const MSG_DATA: u8 = 3;

const TIMER_REQUEST: u64 = 1;
const TIMER_DATA: u64 = 2;

/// Configuration shared by a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CentralAllocConfig {
    /// Request-identifier width in bits (1..=16).
    pub request_bits: u8,
    /// How long a client waits for an assignment before retrying with a
    /// fresh request identifier.
    pub request_timeout: SimDuration,
    /// Application payload: `data_bytes` every `data_period` once
    /// addressed (zero disables).
    pub data_bytes: usize,
    /// Application data period.
    pub data_period: SimDuration,
}

impl Default for CentralAllocConfig {
    /// 8-bit request identifiers, 1 s retry, the low-rate sensor
    /// workload of the dynamic-allocation baseline.
    fn default() -> Self {
        CentralAllocConfig {
            request_bits: 8,
            request_timeout: SimDuration::from_secs(1),
            data_bytes: 2,
            data_period: SimDuration::from_secs(30),
        }
    }
}

/// Per-node counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CentralAllocStats {
    /// Requests sent (clients).
    pub requests_sent: u64,
    /// Assignments issued (controller).
    pub assigns_sent: u64,
    /// Retries after a timed-out request (clients).
    pub retries: u64,
    /// Control bits offered to the radio.
    pub control_bits_sent: u64,
    /// Application data bits offered.
    pub data_bits_sent: u64,
}

#[derive(Debug)]
enum NodeKind {
    Controller {
        next_addr: u16,
    },
    Client {
        pending: Option<TransactionId>,
        addr: Option<u16>,
    },
}

/// A member of a centrally allocated cluster: the controller, or a
/// client seeking an address.
#[derive(Debug)]
pub struct CentralAllocNode {
    config: CentralAllocConfig,
    space: IdentifierSpace,
    selector: UniformSelector,
    kind: NodeKind,
    incarnation: u32,
    stats: CentralAllocStats,
}

impl CentralAllocNode {
    /// Creates the cluster controller.
    ///
    /// # Panics
    ///
    /// Panics if `request_bits` is outside `1..=16`.
    #[must_use]
    pub fn controller(config: CentralAllocConfig) -> Self {
        Self::build(config, NodeKind::Controller { next_addr: 0 })
    }

    /// Creates an unaddressed client.
    ///
    /// # Panics
    ///
    /// Panics if `request_bits` is outside `1..=16`.
    #[must_use]
    pub fn client(config: CentralAllocConfig) -> Self {
        Self::build(
            config,
            NodeKind::Client {
                pending: None,
                addr: None,
            },
        )
    }

    fn build(config: CentralAllocConfig, kind: NodeKind) -> Self {
        assert!(
            (1..=16).contains(&config.request_bits),
            "request width {} outside 1..=16",
            config.request_bits
        );
        let space = IdentifierSpace::new(config.request_bits).expect("validated above");
        CentralAllocNode {
            config,
            space,
            selector: UniformSelector::new(space),
            kind,
            incarnation: 0,
            stats: CentralAllocStats::default(),
        }
    }

    /// The assigned address, if this is an addressed client.
    #[must_use]
    pub fn address(&self) -> Option<u16> {
        match &self.kind {
            NodeKind::Client { addr, .. } => *addr,
            NodeKind::Controller { .. } => None,
        }
    }

    /// Per-node counters.
    #[must_use]
    pub fn stats(&self) -> CentralAllocStats {
        self.stats
    }

    fn stamp(&self, kind: u64) -> u64 {
        kind | (u64::from(self.incarnation) << 8)
    }

    fn current(&self, token: u64) -> bool {
        (token >> 8) as u32 == self.incarnation
    }

    fn send_counted(&mut self, ctx: &mut Context<'_>, bytes: Vec<u8>, is_data: bool) {
        let payload = FramePayload::from_bytes(bytes).expect("non-empty");
        let bits = u64::from(payload.bits());
        if ctx.send(payload).is_ok() {
            if is_data {
                self.stats.data_bits_sent += bits;
            } else {
                self.stats.control_bits_sent += bits;
            }
        }
    }

    fn send_request(&mut self, ctx: &mut Context<'_>) {
        let req = self.selector.select(ctx.rng());
        if let NodeKind::Client { pending, .. } = &mut self.kind {
            *pending = Some(req);
        }
        let raw = req.value() as u16;
        self.send_counted(ctx, vec![MSG_REQUEST, (raw >> 8) as u8, raw as u8], false);
        self.stats.requests_sent += 1;
        // Retry jitter spreads synchronized boots apart.
        let jitter = ctx
            .rng()
            .gen_range(0..=self.config.request_timeout.as_micros() / 2);
        let delay = self.config.request_timeout + SimDuration::from_micros(jitter);
        let token = self.stamp(TIMER_REQUEST);
        ctx.set_timer(delay, token);
    }
}

impl Protocol for CentralAllocNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.incarnation = self.incarnation.wrapping_add(1);
        match &mut self.kind {
            NodeKind::Controller { .. } => {}
            NodeKind::Client { pending, addr } => {
                // A (re)booting client starts unaddressed: the churn cost.
                *pending = None;
                *addr = None;
                // Small initial jitter so simultaneous boots don't
                // collide their first requests.
                let jitter = ctx.rng().gen_range(0..100_000);
                let token = self.stamp(TIMER_REQUEST);
                ctx.set_timer(SimDuration::from_micros(jitter), token);
            }
        }
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        let bytes = frame.payload.bytes();
        if bytes.len() < 3 {
            return;
        }
        let raw = (u64::from(bytes[1]) << 8) | u64::from(bytes[2]);
        match (bytes[0], &mut self.kind) {
            (MSG_REQUEST, NodeKind::Controller { next_addr }) => {
                let addr = *next_addr;
                *next_addr = next_addr.wrapping_add(1);
                let reply = vec![
                    MSG_ASSIGN,
                    bytes[1],
                    bytes[2],
                    (addr >> 8) as u8,
                    addr as u8,
                ];
                self.send_counted(ctx, reply, false);
                self.stats.assigns_sent += 1;
            }
            (MSG_ASSIGN, NodeKind::Client { pending, addr }) if bytes.len() >= 5 => {
                let Ok(req) = self.space.id(raw & self.space.mask()) else {
                    return;
                };
                if *pending == Some(req) && addr.is_none() {
                    *addr = Some((u16::from(bytes[3]) << 8) | u16::from(bytes[4]));
                    *pending = None;
                    if self.config.data_bytes > 0 {
                        let token = self.stamp(TIMER_DATA);
                        ctx.set_timer(self.config.data_period, token);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        if !self.current(timer.token) {
            return; // a previous incarnation's timer chain
        }
        match timer.token & 0xFF {
            TIMER_REQUEST => {
                if let NodeKind::Client {
                    addr: None,
                    pending,
                } = &mut self.kind
                {
                    if pending.is_some() {
                        self.stats.retries += 1;
                    }
                    self.send_request(ctx);
                }
            }
            TIMER_DATA => {
                if let NodeKind::Client { addr: Some(a), .. } = self.kind {
                    let mut bytes = vec![MSG_DATA, (a >> 8) as u8, a as u8];
                    bytes.resize(3 + self.config.data_bytes, 0);
                    self.send_counted(ctx, bytes, true);
                    let token = self.stamp(TIMER_DATA);
                    ctx.set_timer(self.config.data_period, token);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_mesh;

    /// A star cluster, not yet run: the controller is node 0, and
    /// `clients` clients surround it.
    fn cluster(
        clients: usize,
        config: CentralAllocConfig,
        seed: u64,
    ) -> ShardedSim<CentralAllocNode> {
        full_mesh(clients + 1, seed, 1, move |id: NodeId| {
            if id.index() == 0 {
                CentralAllocNode::controller(config)
            } else {
                CentralAllocNode::client(config)
            }
        })
    }

    #[test]
    fn clients_obtain_distinct_addresses() {
        let mut sim = cluster(8, CentralAllocConfig::default(), 1);
        sim.run_until(SimTime::from_secs(20));
        let mut addrs: Vec<u16> = (1..=8u32)
            .map(|i| {
                sim.protocol(NodeId(i))
                    .address()
                    .unwrap_or_else(|| panic!("client {i} unaddressed"))
            })
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(
            addrs.len(),
            8,
            "controller must hand out distinct addresses"
        );
    }

    #[test]
    fn controller_death_is_a_single_point_of_failure() {
        // The paper's Section 7 contrast with WINS: no controller, no
        // addresses, no communication.
        let config = CentralAllocConfig::default();
        let mut sim = cluster(4, config, 2);
        sim.schedule_set_alive(SimTime::ZERO, NodeId(0), false);
        sim.run_until(SimTime::from_secs(30));
        for i in 1..=4u32 {
            assert_eq!(sim.protocol(NodeId(i)).address(), None);
            assert!(
                sim.protocol(NodeId(i)).stats().retries > 5,
                "clients burn energy retrying forever"
            );
        }
    }

    #[test]
    fn request_id_collisions_can_duplicate_addresses() {
        // With a 1-bit request space and many simultaneous clients, two
        // clients eventually share a request identifier and both adopt
        // the same assignment — the RETRI failure mode relocated into
        // the bootstrap, as the module docs explain.
        let config = CentralAllocConfig {
            request_bits: 1,
            ..CentralAllocConfig::default()
        };
        let mut duplicate_seen = false;
        for seed in 0..20 {
            let mut sim = cluster(8, config, 100 + seed);
            sim.run_until(SimTime::from_secs(10));
            let mut addrs: Vec<u16> = (1..=8u32)
                .filter_map(|i| sim.protocol(NodeId(i)).address())
                .collect();
            let before = addrs.len();
            addrs.sort_unstable();
            addrs.dedup();
            if addrs.len() < before {
                duplicate_seen = true;
                break;
            }
        }
        assert!(
            duplicate_seen,
            "1-bit request ids among 8 clients must eventually collide"
        );
    }

    #[test]
    fn churned_client_rebinds_at_linear_cost() {
        let config = CentralAllocConfig::default();
        let mut sim = cluster(3, config, 4);
        for round in 0..4u64 {
            sim.schedule_set_alive(SimTime::from_secs(10 + round * 20), NodeId(1), false);
            sim.schedule_set_alive(SimTime::from_secs(15 + round * 20), NodeId(1), true);
        }
        sim.run_until(SimTime::from_secs(95));
        let churned = sim.protocol(NodeId(1)).stats();
        let stable = sim.protocol(NodeId(2)).stats();
        assert!(sim.protocol(NodeId(1)).address().is_some());
        assert!(
            churned.requests_sent >= stable.requests_sent + 4,
            "every rebirth costs a fresh request: {churned:?} vs {stable:?}"
        );
    }

    #[test]
    fn overhead_is_lower_than_decentralized_but_not_free() {
        let mut sim = cluster(6, CentralAllocConfig::default(), 5);
        sim.run_until(SimTime::from_secs(60));
        let mut control = 0u64;
        let mut data = 0u64;
        for id in sim.node_ids() {
            let stats = sim.protocol(id).stats();
            control += stats.control_bits_sent;
            data += stats.data_bits_sent;
        }
        assert!(control > 0);
        assert!(data > 0);
        // One request + one assignment per client: far cheaper than the
        // listen/claim/defend/heartbeat protocol, but still nonzero and
        // paid again per churn event — and it required a controller.
        let per_client_control = control / 6;
        assert!(
            per_client_control < 500,
            "control {per_client_control} bits/client"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let mut a = cluster(5, CentralAllocConfig::default(), 9);
        a.run_until(SimTime::from_secs(15));
        let mut b = cluster(5, CentralAllocConfig::default(), 9);
        b.run_until(SimTime::from_secs(15));
        for id in a.node_ids() {
            assert_eq!(a.protocol(id).address(), b.protocol(id).address());
            assert_eq!(a.protocol(id).stats(), b.protocol(id).stats());
        }
    }
}
