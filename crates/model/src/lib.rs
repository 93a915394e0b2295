//! Analytic model of RETRI / Address-Free Fragmentation efficiency.
//!
//! This crate implements Section 4 of *"Random, Ephemeral Transaction
//! Identifiers in Dynamic Sensor Networks"* (Elson & Estrin, ICDCS 2001):
//! a closed-form model predicting the energy efficiency of transmitting
//! data tagged with **short, random, probabilistically-unique transaction
//! identifiers** compared to transmitting the same data tagged with
//! statically allocated, guaranteed-unique addresses.
//!
//! # The model in one paragraph
//!
//! Every transaction carries `D` data bits and an `H`-bit identifier
//! header. Efficiency is the cost-benefit ratio of radio energy
//! (paper Eq. 1):
//!
//! ```text
//! E = useful bits received / total bits transmitted
//! ```
//!
//! With static, guaranteed-unique addresses no transaction is ever lost to
//! an identifier collision, so `E_static = D / (D + H)` (Eq. 2). With
//! random ephemeral identifiers a transaction succeeds only if its
//! identifier is unique among the `T` concurrent transactions visible at
//! the same point in the network, giving `E_aff = D * P(success) / (D +
//! H)` (Eq. 3) where, for uniform selection from a pool of `2^H`
//! identifiers, `P(success) = (1 - 2^-H)^(2(T-1))` (Eq. 4).
//!
//! # Quick start
//!
//! ```
//! use retri_model::{AffModel, DataBits, Density, IdBits};
//!
//! # fn main() -> Result<(), retri_model::ModelError> {
//! // A sensor periodically reports 16 bits of data; any point of the
//! // network sees ~16 concurrent transactions.
//! let model = AffModel::new(DataBits::new(16)?, Density::new(16)?);
//!
//! // The paper: "AFF works optimally with only 9 identifier bits in a
//! // network where there are an average of 16 simultaneous transactions".
//! let best = model.optimal_id_bits();
//! assert_eq!(best.get(), 9);
//!
//! // ... which beats both 16-bit and 32-bit static allocation.
//! let e_aff = model.efficiency(best);
//! assert!(e_aff > retri_model::static_efficiency(DataBits::new(16)?, IdBits::new(16)?));
//! assert!(e_aff > retri_model::static_efficiency(DataBits::new(16)?, IdBits::new(32)?));
//! # Ok(())
//! # }
//! ```
//!
//! # Crate layout
//!
//! - [`params`] — validated parameter newtypes ([`IdBits`], [`DataBits`],
//!   [`Density`]).
//! - [`efficiency`] — the core equations (Eqs. 1–4) and [`AffModel`];
//!   `retri_bench::figures` sweeps them into the paper's Figures 1–3.
//! - [`optimal`] — optimal identifier sizing, break-even and crossover
//!   analysis ([`optimal::optimal_id_bits`], [`optimal::crossover_density`]).
//! - [`listening`] — extension: a model of the *listening* heuristic
//!   (Section 3.2 / future work in Section 8).
//! - [`lengths`] — extension: non-uniform transaction lengths (relaxes the
//!   equal-length assumption called out in Section 4.1).
//! - [`exact`] — extension: exact snapshot/birthday collision
//!   probabilities that bracket the Eq. 4 approximation.
//! - [`codebook`] — extension: amortized savings and conflict odds for
//!   the Section 6 name-compression codebooks.
//! - [`lifetime`] — extension: converts Eq. 1 efficiency into node
//!   lifetime under the Section 4.4 linear radio-energy model.
//! - [`continuous`] — real-valued identifier widths, used to study the
//!   shape of the efficiency curve analytically.
//! - [`dfa`] — extension: Dynamic-Frame Aloha closed forms (optimal
//!   frame setting `L* = N` and throughput predictions, after Barletta,
//!   Borgonovo & Cesana) backing the netsim adaptive MAC.
//! - [`stats`] — summary statistics shared by the experiment harness
//!   (means, standard deviations, mean-vs-model agreement) and
//!   [`stats::Verdict`], the one check of a closed form against the
//!   Wilson interval of an observed count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codebook;
pub mod continuous;
pub mod dfa;
pub mod efficiency;
pub mod exact;
pub mod lengths;
pub mod lifetime;
pub mod listening;
pub mod optimal;
pub mod params;
pub mod stats;

pub use efficiency::{
    aff_efficiency, p_collision, p_success, static_efficiency, AffModel, Efficiency,
};
pub use optimal::{crossover_density, optimal_id_bits, OptimalPoint};
pub use params::{DataBits, Density, IdBits, ModelError};
