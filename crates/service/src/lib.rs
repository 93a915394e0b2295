//! `retri-service`: the RETRI allocator and collision-stats service
//! behind the `retrid` daemon.
//!
//! The paper's claim — probabilistically unique transaction identifiers
//! minted with zero coordination, collision odds governed by density
//! (Eq. 4) — is exercised everywhere else in this workspace inside
//! closed simulation runs. This crate turns it into a *long-running
//! service*: a sharded, lock-minimal allocator that mints identifiers
//! behind a [`MintStrategy`] trait, tracks live transaction density and
//! ground-truth collisions per strategy, and reports Eq. 4
//! predicted-vs-observed collision statistics through `retri-obs`
//! metrics and a `STATS` query.
//!
//! Two transports share one request codec ([`proto`]):
//!
//! - [`ServiceHandle`] — in-process, synchronous, deterministic; the
//!   transport tests and benchmark workloads drive.
//! - [`Server`]/[`TcpClient`] — a length-prefixed binary protocol over
//!   `std::net::TcpListener` with a thread-per-shard event loop,
//!   bounded per-shard queues that shed load with `BUSY`, per-connection
//!   timeouts, and graceful shutdown.
//!
//! Both are built from the same [`ServiceConfig`] by the same
//! constructor, so for one seed and request sequence they produce
//! identical allocation streams — the parity property the integration
//! tests and CI pin.
//!
//! See DESIGN.md ("retrid") for the wire-protocol layout, the shard
//! model, and the strategy table with taxonomy scores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod handle;
pub(crate) mod loadgen;
pub mod obs;
pub mod proto;
pub mod shard;
pub mod strategy;
pub mod tcp;

pub use handle::ServiceHandle;
pub use loadgen::{run_load, LoadPlan, LoadReport, Transport};
pub use proto::{Reply, Request, StrategyStats};
pub use shard::ServiceConfig;
pub use strategy::{build_strategy, MintStrategy, StrategyKind};
pub use tcp::{Server, TcpClient};
