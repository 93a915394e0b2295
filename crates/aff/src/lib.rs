//! Address-Free Fragmentation (AFF).
//!
//! The case study of the RETRI paper (Sections 3 and 5): an IP-style
//! packet fragmentation service that carries **no addresses at all**.
//! Each packet receives a fresh, random, probabilistically unique
//! transaction identifier; all of its fragments carry that identifier,
//! which is the only continuity a receiver needs to reassemble. The next
//! packet gets a new identifier, so an unlucky collision can never
//! persist.
//!
//! The crate provides:
//!
//! - [`bitio`] — exact bit-granularity readers/writers, because the
//!   paper's whole argument is counted in header *bits*;
//! - [`crc`] — the CRC-16 packet checksum that rejects collision-mixed
//!   reassemblies;
//! - [`wire`] — the fragment formats: an *introduction* fragment
//!   (identifier, total length, checksum) followed by *data* fragments
//!   (identifier, offset, payload), exactly the layout of Section 5,
//!   plus an optional ground-truth instrumentation trailer (Section 5.1)
//!   and a static-addressing header variant for the baseline;
//! - [`frag`] — the fragmenter, sized to the radio's frame limit (the
//!   paper's 27-byte Radiometrix frames fragment an 80-byte packet into
//!   an introduction plus four data fragments);
//! - [`reassembly`] — the receiver: per-identifier buffers, checksum
//!   verification, timeout eviction;
//! - [`service`] — [`AffService`], the embeddable driver: send under a
//!   fresh identifier, hear the air, reassemble and deliver, with the
//!   Section 3.2 collision notifications on wires that carry them;
//! - [`sender`]/[`receiver`] — the paper's testbed roles as
//!   [`retri_netsim`] protocols: [`AffSender`] is the driver's send half
//!   plus a workload (saturating or periodic streams of fixed-size
//!   packets) under a pluggable [`SelectorPolicy`], [`AffReceiver`] its
//!   receive half plus the Section 5.1 ground-truth pipeline. The driver
//!   and both roles run one crate-private copy of each protocol rule;
//! - [`roles`] — [`Testbed`], the Section 5.1 experiment in a box, which
//!   also runs the static-address baseline
//!   ([`SelectorPolicy::StaticAddress`]);
//! - [`adversary`] — the wire-format codec that arms netsim's
//!   identifier-predicting eavesdropper with conflicting-introduction
//!   forgeries (the security axis of the selector taxonomy).
//!
//! # Quick start: fragment and reassemble in memory
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use retri::select::{IdSelector, UniformSelector};
//! use retri::IdentifierSpace;
//! use retri_aff::frag::Fragmenter;
//! use retri_aff::reassembly::Reassembler;
//! use retri_aff::wire::WireConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let wire = WireConfig::aff(IdentifierSpace::new(8)?);
//! let fragmenter = Fragmenter::new(wire.clone(), 27)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut selector = UniformSelector::new(wire.space());
//!
//! let packet: Vec<u8> = (0..80).collect();
//! let id = selector.select(&mut rng);
//! let fragments = fragmenter.fragment(&packet, id, None)?;
//! assert_eq!(fragments.len(), 5); // introduction + four data fragments
//!
//! let mut reassembler = Reassembler::new(wire, 1_000_000);
//! let mut delivered = None;
//! for fragment in &fragments {
//!     if let Some(packet) = reassembler.accept_payload(fragment, 0)? {
//!         delivered = Some(packet);
//!     }
//! }
//! assert_eq!(delivered.as_deref(), Some(&packet[..]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod bitio;
pub mod crc;
mod endpoint;
pub mod frag;
pub(crate) mod obs;
pub mod reassembly;
pub mod receiver;
pub mod roles;
pub mod sender;
pub mod service;
pub mod wire;

pub use adversary::AffForgeCodec;
pub use frag::Fragmenter;
pub use reassembly::Reassembler;
pub use receiver::AffReceiver;
pub use roles::{AffNode, NodeSpec, ObservedTrialResult, Role, Testbed, TrialResult};
pub use sender::{AffSender, SelectorPolicy, Workload};
pub use service::AffService;
pub use wire::{Fragment, HeaderScheme, WireConfig};
