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
//!   bits.
//! - [`dynamic_alloc`] — **dynamic locally unique allocation**: a
//!   listen/claim/defend protocol that assigns short addresses unique
//!   within radio range (in the spirit of DHCP/SDR/MASC, Section 2.2).
//!   Its per-node energy overhead under churn is exactly the cost the
//!   paper argues makes such schemes "potentially very inefficient given
//!   the low data rate" of sensor networks (Section 2.3).
//! - [`central_alloc`] — **centralized cluster allocation** (the WINS
//!   system of Section 7): a controller hands out short addresses on
//!   request. Cheap per allocation, but a single point of failure — and
//!   its address-free bootstrap necessarily leans on RETRI-style random
//!   request identifiers.
//!
//! The measured IP-style fragmentation baseline, keyed by `(static
//! address, sequence)`, is not a separate stack: it is a key policy of
//! the AFF testbed (`retri_aff::SelectorPolicy::StaticAddress`), so it
//! runs the very same sender, receiver and reassembly code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod central_alloc;
pub mod dynamic_alloc;
pub mod static_alloc;

pub use central_alloc::{CentralAllocConfig, CentralAllocNode, CentralAllocStats};
pub use dynamic_alloc::{DynamicAddrConfig, DynamicAddrNode, DynamicAddrStats};
pub use static_alloc::{StaticAllocError, StaticAllocator};
