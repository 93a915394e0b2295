//! Random, Ephemeral Transaction Identifiers (RETRI).
//!
//! This crate implements the primary contribution of *"Random, Ephemeral
//! Transaction Identifiers in Dynamic Sensor Networks"* (Elson & Estrin,
//! ICDCS 2001): whenever a protocol needs a guaranteed-unique identifier
//! only to provide *continuity* among the packets of one transaction, a
//! short, randomly selected, **probabilistically unique** identifier can
//! be used instead. Identifier collisions are not resolved — they are
//! treated like any other loss, and picking a fresh identifier per
//! transaction keeps losses from persisting.
//!
//! # What lives here
//!
//! - [`id`] — [`TransactionId`] values and the [`IdentifierSpace`] they
//!   are drawn from (1–64 bits wide).
//! - [`select`] — identifier-selection policies: the pessimistic
//!   [`select::UniformSelector`] modeled by the paper's Eq. 4, and the
//!   [`select::ListeningSelector`] heuristic of Section 3.2 that avoids
//!   recently heard identifiers (including the paper's adaptive `2T`
//!   window via [`select::AdaptiveListeningSelector`]).
//! - [`permutation`] — structured selector families from the related
//!   work: the PERIDOT-style [`permutation::PermutationSelector`]
//!   (keyed pseudorandom permutation walk — collision-free within a
//!   window of `space` draws) and the deliberately weak
//!   [`permutation::SequentialSelector`] (the IPv4-ID taxonomy's
//!   predictable policy, the attack target of the adversarial harness).
//! - [`density`] — [`density::DensityEstimator`]: a node's running
//!   estimate of the transaction density `T` it observes, used to size
//!   adaptive listening windows.
//! - [`codebook`] — ephemeral identifier-to-value codebooks (the
//!   attribute-based name-compression context of Section 6).
//! - [`hash`] — the workspace's one map hasher, a multiply-rotate hash
//!   under a fixed key ([`hash::FixedMap`]) or a per-process key
//!   ([`hash::KeyedMap`]).
//! - [`seed`] — the workspace's one seed derivation, so one root seed
//!   can drive several independent RNG streams (simulated nodes, fault
//!   injection, adversaries, benchmark trials, service shards) without
//!   cross-talk.
//!
//! # Quick start
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use retri::select::{IdSelector, ListeningSelector, UniformSelector};
//! use retri::IdentifierSpace;
//!
//! # fn main() -> Result<(), retri::ModelError> {
//! let space = IdentifierSpace::new(8)?; // 8-bit ephemeral identifiers
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // The pessimistic policy: pick uniformly, remember nothing.
//! let mut uniform = UniformSelector::new(space);
//! let id = uniform.select(&mut rng);
//! assert!(id.value() < 256);
//!
//! // The listening policy: avoid identifiers recently heard on the air.
//! let mut listener = ListeningSelector::new(space, 10);
//! listener.observe(id);
//! for _ in 0..1000 {
//!     assert_ne!(listener.select(&mut rng), id);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codebook;
pub mod density;
pub mod hash;
pub mod id;
pub mod permutation;
pub mod seed;
pub mod select;

pub use id::{IdentifierSpace, TransactionId};
pub use retri_model::{DataBits, Density, IdBits, ModelError};
pub use select::IdSelector;
