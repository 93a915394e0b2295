//! A deterministic discrete-event wireless sensor-network simulator.
//!
//! This crate is the substrate that stands in for the RETRI paper's
//! physical testbed (Radiometrix RPC 418 MHz packet radios attached to
//! laptops — Section 5). It models the properties the paper's
//! experiments actually depend on:
//!
//! - a **broadcast medium** with limited radio range, so hidden
//!   terminals arise naturally ([`topology`], [`shard`]);
//! - **RF frame collisions**: overlapping transmissions audible at the
//!   same receiver corrupt each other;
//! - **half-duplex radios** with small, fixed maximum frame sizes (the
//!   RPC's 27 bytes) and configurable bitrate ([`radio`]);
//! - a simple **CSMA / ALOHA MAC** with random backoff ([`mac`]);
//! - **per-bit energy metering**, because in sensor networks *every bit
//!   transmitted reduces the lifetime of the network* ([`energy`]);
//! - **network dynamics**: scheduled node movement, death, and birth
//!   ([`topology`], [`shard`]);
//! - **adversarial nodes**: an identifier-predicting eavesdropper that
//!   injects forged frames through a protocol-supplied codec
//!   ([`adversary`]).
//!
//! One engine, [`ShardedSim`], runs every simulation. Every random draw
//! comes from a per-node stream derived from the builder seed and the
//! node id, so a whole experiment is reproducible from
//! `(seed, configuration)` — and identical at any shard count — which
//! is what lets the statistical validation of the paper's Figure 4 run
//! in CI.
//!
//! # Quick start
//!
//! ```
//! use retri_netsim::prelude::*;
//!
//! /// A protocol that broadcasts one frame and counts receptions.
//! struct Beacon {
//!     heard: u32,
//! }
//!
//! impl Protocol for Beacon {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         if ctx.node_id() == NodeId(0) {
//!             ctx.send(FramePayload::from_bytes(b"hello".to_vec()).unwrap()).unwrap();
//!         }
//!     }
//!     fn on_frame(&mut self, _ctx: &mut Context<'_>, _frame: &Frame) {
//!         self.heard += 1;
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: Timer) {}
//! }
//!
//! let mut sim = ShardedSimBuilder::new(42)
//!     .radio(RadioConfig::radiometrix_rpc())
//!     .build(|_| Beacon { heard: 0 });
//! // Two nodes 10 m apart, well within range.
//! sim.add_node_at(Position::new(0.0, 0.0));
//! sim.add_node_at(Position::new(10.0, 0.0));
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.protocol(NodeId(1)).heard, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod energy;
pub mod fault;
pub mod frame;
pub mod mac;
pub mod node;
pub(crate) mod obs;
pub mod radio;
pub mod shard;
pub mod time;
pub mod topology;
pub mod trace;

/// Scenario tests of the whole simulator, run through its public API.
#[cfg(test)]
mod sim {
    mod tests;
}

/// Verdict, carrier-sense and pruning tests of the shared air medium,
/// driven by hand without an engine.
#[cfg(test)]
mod medium {
    mod tests;
}

/// Commonly used simulator types, importable in one line.
pub mod prelude {
    pub use crate::adversary::{AdversaryStats, Eavesdropper, EavesdropperConfig, InjectionCodec};
    pub use crate::energy::EnergyMeter;
    pub use crate::fault::{ChannelState, FaultModel, GilbertElliott, PartitionWindow};
    pub use crate::frame::{Frame, FramePayload};
    pub use crate::mac::{DfaStats, FrameSizing, MacConfig, MacMode};
    pub use crate::node::{Context, NodeId, Protocol, Timer};
    pub use crate::radio::RadioConfig;
    pub use crate::shard::{
        DegreeBalanced, GridHash, MediumStats, ShardStrategy, ShardedSim, ShardedSimBuilder,
        SpatialStripes,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Position, Topology};
}

pub use adversary::{AdversaryStats, Eavesdropper, EavesdropperConfig, InjectionCodec};
pub use fault::{ChannelState, FaultModel, GilbertElliott, PartitionWindow};
pub use frame::{Frame, FramePayload};
pub use mac::{DfaConfig, DfaStats, FrameSizing, MacConfig, MacMode};
pub use node::{Context, NodeId, Protocol, Timer};
pub use radio::RadioConfig;
pub use shard::{
    DegreeBalanced, GridHash, ShardStrategy, ShardedSim, ShardedSimBuilder, SpatialStripes,
    MIN_NODES_PER_SHARD,
};
pub use time::{SimDuration, SimTime};
pub use topology::Position;
