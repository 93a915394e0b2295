//! Baseline addressing schemes the RETRI paper compares against.
//!
//! Section 2 of the paper surveys the alternatives to random ephemeral
//! identifiers, and the evaluation measures RETRI against them. This
//! crate implements each one, over the same simulator and fragmentation
//! machinery, so the comparisons are apples-to-apples:
//!
//! - [`static_alloc`] — **static, globally unique allocation**
//!   (Ethernet-style): every node gets a permanent address from a space
//!   sized for every device that *exists*, not just those interconnected
//!   (Section 2.2). Collision-free by construction; pays with header
//!   bits, [`static_alloc::bits_required`] of them.
//! - [`DynamicAddrNode`] — **dynamic locally unique allocation**: a
//!   listen/claim/defend protocol that assigns short addresses unique
//!   within radio range (in the spirit of DHCP/SDR/MASC, Section 2.2).
//!   Its per-node energy overhead under churn is exactly the cost the
//!   paper argues makes such schemes "potentially very inefficient given
//!   the low data rate" of sensor networks (Section 2.3).
//! - [`CentralAllocNode`] — **centralized cluster allocation** (the WINS
//!   system of Section 7): a controller hands out short addresses on
//!   request. Cheap per allocation, but a single point of failure — and
//!   its address-free bootstrap necessarily leans on RETRI-style random
//!   request identifiers.
//!
//! The measured IP-style fragmentation baseline, keyed by `(static
//! address, sequence)`, is not a separate stack: it is a key policy of
//! the AFF testbed (`retri_aff::SelectorPolicy::StaticAddress`), so it
//! runs the very same sender, receiver and reassembly code.
//!
//! The allocation protocols run on one network, [`full_mesh`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod central_alloc;
pub(crate) mod dynamic_alloc;
pub mod static_alloc;

pub use central_alloc::{CentralAllocConfig, CentralAllocNode, CentralAllocStats};
pub use dynamic_alloc::{DynamicAddrConfig, DynamicAddrNode, DynamicAddrStats};

use retri_netsim::prelude::*;

/// The network the allocation protocols run on: `n` nodes in a fully
/// connected 100 m cluster ([`Topology::full_mesh`]) sharing a CSMA
/// channel on the paper's RPC radio, spread over `shards` spatial
/// shards. Node `i` runs `factory(NodeId(i))`; the simulation is built
/// but not yet run.
///
/// # Examples
///
/// ```
/// use retri_baselines::{full_mesh, DynamicAddrConfig, DynamicAddrNode};
/// use retri_netsim::SimTime;
///
/// let mut sim = full_mesh(4, 7, 1, |_| DynamicAddrNode::new(DynamicAddrConfig::default()));
/// sim.run_until(SimTime::from_secs(20));
/// // Every node ends up bound, to mutually distinct addresses.
/// let addrs: Vec<u16> = sim
///     .node_ids()
///     .map(|id| sim.protocol(id).address().expect("bound"))
///     .collect();
/// let mut unique = addrs.clone();
/// unique.sort_unstable();
/// unique.dedup();
/// assert_eq!(unique.len(), addrs.len());
/// ```
#[must_use]
pub fn full_mesh<P, F>(n: usize, seed: u64, shards: usize, factory: F) -> ShardedSim<P>
where
    P: Protocol,
    F: FnMut(NodeId) -> P + 'static,
{
    ShardedSimBuilder::new(seed)
        .radio(RadioConfig::radiometrix_rpc())
        .mac(MacConfig::csma())
        .shards(shards)
        .build_with_topology(&Topology::full_mesh(n, 100.0), factory)
}
