//! Dynamic, locally unique address allocation.
//!
//! The alternative the paper weighs and rejects for sensor networks
//! (Sections 2.2–2.3): keep addresses short by making them only
//! *locally* unique, maintained by a protocol that listens to addresses
//! in use, claims a free one, and defends its claim — the decentralized
//! scheme of SDR/MASC, without a central authority.
//!
//! The protocol here:
//!
//! 1. **Listen** for a configurable period, recording source addresses
//!    heard in claims, defenses, heartbeats, and data.
//! 2. **Claim**: pick a random address not recently heard, broadcast a
//!    `Claim`, and wait. Any node *bound* to that address answers
//!    `Defend`, forcing a re-pick.
//! 3. **Bound**: the address is usable; a periodic `Heartbeat`
//!    advertises it so newcomers avoid it, and the node answers
//!    `Defend` to conflicting claims.
//!
//! Every control message costs transmit energy. In a *static* network
//! that cost is paid once and amortized forever; under *churn* (nodes
//! dying and joining — the expected dynamics of sensor networks) it is
//! paid again and again, against a trickle of useful data. The
//! `ablation_dynamic_addr` experiment sweeps churn to reproduce the
//! paper's argument quantitatively.

use std::collections::HashMap;

use rand::Rng;
use retri_netsim::prelude::*;

/// Configuration of the dynamic allocation protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DynamicAddrConfig {
    /// Local address width in bits (1..=16).
    pub addr_bits: u8,
    /// How long a booting node listens before claiming.
    pub listen: SimDuration,
    /// How long a claim waits for defenses before binding.
    pub claim_wait: SimDuration,
    /// Heartbeat period for bound nodes.
    pub heartbeat: SimDuration,
    /// How long a heard address stays "in use" without being re-heard,
    /// µs.
    pub heard_ttl_micros: u64,
    /// Application payload: `data_bytes` every `data_period`, once
    /// bound. Zero bytes disables data traffic.
    pub data_bytes: usize,
    /// Application data period.
    pub data_period: SimDuration,
}

impl Default for DynamicAddrConfig {
    /// A low-rate sensor workload: 8-bit local addresses, 1 s listen,
    /// 0.5 s claim wait, 10 s heartbeats, 2 bytes of data every 30 s
    /// (the paper's "periodic messages consisting of only a few bits").
    fn default() -> Self {
        DynamicAddrConfig {
            addr_bits: 8,
            listen: SimDuration::from_secs(1),
            claim_wait: SimDuration::from_millis(500),
            heartbeat: SimDuration::from_secs(10),
            heard_ttl_micros: 30_000_000,
            data_bytes: 2,
            data_period: SimDuration::from_secs(30),
        }
    }
}

/// Per-node counters separating protocol overhead from useful data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DynamicAddrStats {
    /// Claim messages sent.
    pub claims_sent: u64,
    /// Defenses sent.
    pub defends_sent: u64,
    /// Heartbeats sent.
    pub heartbeats_sent: u64,
    /// Times a claim was defended against and re-picked.
    pub repicks: u64,
    /// Control bits offered to the radio (claims + defends +
    /// heartbeats).
    pub control_bits_sent: u64,
    /// Application data bits offered.
    pub data_bits_sent: u64,
    /// Data messages received from bound peers.
    pub data_received: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Listening,
    Claiming { addr: u16 },
    Bound { addr: u16 },
}

/// Message kinds on the wire (1 byte) followed by a 2-byte address and,
/// for data, the payload.
const MSG_CLAIM: u8 = 1;
const MSG_DEFEND: u8 = 2;
const MSG_HEARTBEAT: u8 = 3;
const MSG_DATA: u8 = 4;

const TIMER_LISTEN_DONE: u64 = 1;
const TIMER_CLAIM_DONE: u64 = 2;
const TIMER_HEARTBEAT: u64 = 3;
const TIMER_DATA: u64 = 4;

/// A node running the listen/claim/defend protocol.
///
/// Inspect [`DynamicAddrNode::address`] and
/// [`DynamicAddrNode::stats`] after a run; network-wide address
/// conflicts are visible as two in-range nodes bound to the same
/// address.
#[derive(Debug)]
pub struct DynamicAddrNode {
    config: DynamicAddrConfig,
    state: State,
    heard: HashMap<u16, u64>,
    stats: DynamicAddrStats,
    /// Bumped per claim; stale CLAIM_DONE timers carry an old value.
    generation: u32,
    /// Bumped per (re)boot; every timer is stamped with it so the timer
    /// chains of a previous incarnation die with it — otherwise a node
    /// that churns accumulates heartbeat/data chains across rebirths.
    incarnation: u32,
}

impl DynamicAddrNode {
    /// Creates an unbooted node.
    #[must_use]
    pub fn new(config: DynamicAddrConfig) -> Self {
        assert!(
            (1..=16).contains(&config.addr_bits),
            "local address width {} outside 1..=16",
            config.addr_bits
        );
        DynamicAddrNode {
            config,
            state: State::Idle,
            heard: HashMap::new(),
            stats: DynamicAddrStats::default(),
            generation: 0,
            incarnation: 0,
        }
    }

    /// Stamps a timer token with the current incarnation (bits 8..32).
    fn stamp(&self, kind: u64) -> u64 {
        kind | (u64::from(self.incarnation & 0xFF_FFFF) << 8)
    }

    /// Whether a fired timer belongs to the current incarnation.
    fn current_incarnation(&self, token: u64) -> bool {
        ((token >> 8) & 0xFF_FFFF) as u32 == (self.incarnation & 0xFF_FFFF)
    }

    /// The bound local address, if any.
    #[must_use]
    pub fn address(&self) -> Option<u16> {
        match self.state {
            State::Bound { addr } => Some(addr),
            _ => None,
        }
    }

    /// Whether the node has completed allocation.
    #[must_use]
    pub fn is_bound(&self) -> bool {
        matches!(self.state, State::Bound { .. })
    }

    /// Per-node counters.
    #[must_use]
    pub fn stats(&self) -> DynamicAddrStats {
        self.stats
    }

    fn addr_space_len(&self) -> u32 {
        1u32 << self.config.addr_bits
    }

    fn send_msg(&mut self, ctx: &mut Context<'_>, kind: u8, addr: u16, data_len: usize) {
        let mut bytes = vec![kind, (addr >> 8) as u8, addr as u8];
        bytes.resize(3 + data_len, 0);
        let payload = FramePayload::from_bytes(bytes).expect("non-empty");
        let bits = u64::from(payload.bits());
        if ctx.send(payload).is_ok() {
            match kind {
                MSG_DATA => self.stats.data_bits_sent += bits,
                _ => self.stats.control_bits_sent += bits,
            }
        }
    }

    fn pick_address(&mut self, ctx: &mut Context<'_>) -> u16 {
        let now = ctx.now().as_micros();
        let ttl = self.config.heard_ttl_micros;
        self.heard
            .retain(|_, &mut at| now.saturating_sub(at) <= ttl);
        let space = self.addr_space_len();
        // Rejection-sample a free address; if the space is saturated,
        // take a random one and let defense sort it out.
        for _ in 0..(space as usize * 4).max(64) {
            let candidate = ctx.rng().gen_range(0..space) as u16;
            if !self.heard.contains_key(&candidate) {
                return candidate;
            }
        }
        ctx.rng().gen_range(0..space) as u16
    }

    fn start_claim(&mut self, ctx: &mut Context<'_>) {
        let addr = self.pick_address(ctx);
        self.state = State::Claiming { addr };
        self.send_msg(ctx, MSG_CLAIM, addr, 0);
        self.stats.claims_sent += 1;
        self.generation = self.generation.wrapping_add(1);
        let generation = u64::from(self.generation);
        ctx.set_timer(
            self.config.claim_wait,
            self.stamp(TIMER_CLAIM_DONE) | (generation << 32),
        );
    }

    fn note_heard(&mut self, addr: u16, now: u64) {
        self.heard
            .entry(addr)
            .and_modify(|at| *at = (*at).max(now))
            .or_insert(now);
    }
}

impl Protocol for DynamicAddrNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // A (re)booting node starts from scratch — the churn cost. A
        // random jitter on the listen period desynchronizes nodes that
        // boot at the same instant.
        self.state = State::Listening;
        self.heard.clear();
        self.generation = self.generation.wrapping_add(1);
        self.incarnation = self.incarnation.wrapping_add(1);
        let jitter_micros = ctx.rng().gen_range(0..=self.config.claim_wait.as_micros());
        let listen = self.config.listen + SimDuration::from_micros(jitter_micros);
        let token = self.stamp(TIMER_LISTEN_DONE);
        ctx.set_timer(listen, token);
    }

    fn on_frame(&mut self, ctx: &mut Context<'_>, frame: &Frame) {
        let bytes = frame.payload.bytes();
        if bytes.len() < 3 {
            return;
        }
        let kind = bytes[0];
        let addr = (u16::from(bytes[1]) << 8) | u16::from(bytes[2]);
        let now = ctx.now().as_micros();
        self.note_heard(addr, now);
        match kind {
            MSG_CLAIM => {
                if self.state == (State::Bound { addr }) {
                    self.send_msg(ctx, MSG_DEFEND, addr, 0);
                    self.stats.defends_sent += 1;
                } else if self.state == (State::Claiming { addr }) {
                    // Claim/claim conflict: two unbound nodes picked the
                    // same address in the same window. Both re-pick;
                    // randomness breaks the symmetry.
                    self.stats.repicks += 1;
                    self.start_claim(ctx);
                }
            }
            MSG_DEFEND if self.state == (State::Claiming { addr }) => {
                // Our claim lost; re-pick immediately.
                self.stats.repicks += 1;
                self.start_claim(ctx);
            }
            MSG_DATA => {
                self.stats.data_received += 1;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: Timer) {
        // Timer chains of a previous incarnation are void.
        if !self.current_incarnation(timer.token) {
            return;
        }
        match timer.token & 0xFF {
            TIMER_LISTEN_DONE if self.state == State::Listening => {
                self.start_claim(ctx);
            }
            TIMER_CLAIM_DONE => {
                // Stale timers from superseded claims carry an old
                // generation.
                let generation = (timer.token >> 32) as u32;
                if generation != self.generation {
                    return;
                }
                if let State::Claiming { addr } = self.state {
                    self.state = State::Bound { addr };
                    let heartbeat_token = self.stamp(TIMER_HEARTBEAT);
                    ctx.set_timer(self.config.heartbeat, heartbeat_token);
                    if self.config.data_bytes > 0 {
                        let data_token = self.stamp(TIMER_DATA);
                        ctx.set_timer(self.config.data_period, data_token);
                    }
                }
            }
            TIMER_HEARTBEAT => {
                if let State::Bound { addr } = self.state {
                    self.send_msg(ctx, MSG_HEARTBEAT, addr, 0);
                    self.stats.heartbeats_sent += 1;
                    let token = self.stamp(TIMER_HEARTBEAT);
                    ctx.set_timer(self.config.heartbeat, token);
                }
            }
            TIMER_DATA => {
                if let State::Bound { addr } = self.state {
                    let data_len = self.config.data_bytes;
                    self.send_msg(ctx, MSG_DATA, addr, data_len);
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

    /// A full mesh of `n` dynamic-allocation nodes, not yet run.
    fn mesh(n: usize, config: DynamicAddrConfig, seed: u64) -> ShardedSim<DynamicAddrNode> {
        full_mesh(n, seed, 1, move |_| DynamicAddrNode::new(config))
    }

    #[test]
    fn lone_node_binds_after_listen_and_claim() {
        let mut sim = mesh(1, DynamicAddrConfig::default(), 1);
        sim.run_until(SimTime::from_secs(5));
        let node = sim.protocol(NodeId(0));
        assert!(node.is_bound());
        assert_eq!(node.stats().claims_sent, 1);
        assert_eq!(node.stats().repicks, 0);
    }

    #[test]
    fn mesh_converges_to_distinct_addresses() {
        let mut sim = mesh(8, DynamicAddrConfig::default(), 2);
        sim.run_until(SimTime::from_secs(30));
        let mut addrs = Vec::new();
        for id in sim.node_ids() {
            let node = sim.protocol(id);
            assert!(node.is_bound(), "{id} failed to bind");
            addrs.push(node.address().unwrap());
        }
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 8, "addresses must be locally unique");
    }

    #[test]
    fn tiny_space_forces_defenses_and_repicks() {
        let config = DynamicAddrConfig {
            addr_bits: 2, // 4 addresses for 4 nodes: heavy contention
            ..DynamicAddrConfig::default()
        };
        let mut sim = mesh(4, config, 3);
        sim.run_until(SimTime::from_secs(60));
        let total_claims: u64 = sim
            .node_ids()
            .map(|id| sim.protocol(id).stats().claims_sent)
            .sum();
        // With only as many addresses as nodes, some claims must have
        // collided with bound owners and been re-picked, OR listening
        // avoided them; either way everyone still binds uniquely.
        let mut addrs: Vec<u16> = sim
            .node_ids()
            .filter_map(|id| sim.protocol(id).address())
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 4);
        assert!(total_claims >= 4);
    }

    #[test]
    fn churn_costs_control_traffic() {
        // Kill and rebirth one node repeatedly: every rebirth pays
        // listen + claim again.
        let config = DynamicAddrConfig::default();
        let mut sim = mesh(4, config, 4);
        let victim = NodeId(0);
        for round in 0..5u64 {
            sim.schedule_set_alive(SimTime::from_secs(10 + round * 20), victim, false);
            sim.schedule_set_alive(SimTime::from_secs(20 + round * 20), victim, true);
        }
        sim.run_until(SimTime::from_secs(120));
        let churned = sim.protocol(victim).stats();
        let stable = sim.protocol(NodeId(1)).stats();
        assert!(
            churned.claims_sent > stable.claims_sent,
            "churned node {churned:?} vs stable {stable:?}"
        );
        assert!(churned.claims_sent >= 6);
    }

    #[test]
    fn control_overhead_dominates_at_low_data_rates() {
        // The paper's core argument (Section 2.3): with a few bits of
        // data per minute, allocation overhead is a large fraction of
        // all bits sent.
        let mut sim = mesh(6, DynamicAddrConfig::default(), 5);
        sim.run_until(SimTime::from_secs(60));
        let mut control = 0u64;
        let mut data = 0u64;
        for id in sim.node_ids() {
            let stats = sim.protocol(id).stats();
            control += stats.control_bits_sent;
            data += stats.data_bits_sent;
        }
        assert!(control > 0 && data > 0);
        assert!(
            control > data,
            "control {control} bits should exceed data {data} bits at sensor data rates"
        );
    }

    #[test]
    #[should_panic(expected = "outside 1..=16")]
    fn rejects_wide_addresses() {
        let _ = DynamicAddrNode::new(DynamicAddrConfig {
            addr_bits: 17,
            ..DynamicAddrConfig::default()
        });
    }

    #[test]
    fn runs_are_reproducible() {
        let mut a = mesh(5, DynamicAddrConfig::default(), 9);
        a.run_until(SimTime::from_secs(20));
        let mut b = mesh(5, DynamicAddrConfig::default(), 9);
        b.run_until(SimTime::from_secs(20));
        for id in a.node_ids() {
            assert_eq!(a.protocol(id).address(), b.protocol(id).address());
            assert_eq!(a.protocol(id).stats(), b.protocol(id).stats());
        }
    }
}
