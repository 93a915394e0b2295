//! Extension: the economics of RETRI codebooks (paper Section 6).
//!
//! In the attribute-based name-compression context, a node binds a long
//! attribute list (`full_bits` on the air) to a short random code
//! (`code_bits`), pays for one *definition* message carrying both, and
//! then sends only the code. This module answers the two design
//! questions that setting owns:
//!
//! 1. **How much does compression save?** — [`expected_savings`]: the
//!    amortized bits per message as a function of how often a binding is
//!    reused before it is retired.
//! 2. **How likely are code conflicts?** — [`crate::exact::p_all_distinct`]: with
//!    `S` senders holding live bindings in one broadcast domain, the
//!    chance every binding has a distinct code is the birthday
//!    probability over the code space, applied to bindings instead of
//!    transactions.
//!
//! Together they expose the trade the paper describes: shorter codes
//! save more per message but conflict more often, and the ephemeral
//! rebinding period bounds how long any conflict can last.

/// Expected on-air bits per message when a binding of a `full_bits`
/// attribute list to a `code_bits` code is reused for `uses` messages
/// (the definition included): `(full + (uses-1)·code) / uses` plus the
/// per-message framing the caller already pays either way.
///
/// # Panics
///
/// Panics if `uses` is zero — a binding that is never used has no
/// defined per-message cost.
///
/// # Examples
///
/// ```
/// use retri_model::codebook::expected_bits_per_message;
///
/// // A 160-bit attribute list bound to an 8-bit code, reused 20 times:
/// // (160 + 19*8) / 20 = 15.6 bits per message instead of 160.
/// let amortized = expected_bits_per_message(160, 8, 20);
/// assert!((amortized - 15.6).abs() < 1e-12);
/// ```
#[must_use]
pub fn expected_bits_per_message(full_bits: u32, code_bits: u32, uses: u64) -> f64 {
    assert!(uses > 0, "a binding must be used at least once");
    (f64::from(full_bits) + (uses - 1) as f64 * f64::from(code_bits)) / uses as f64
}

/// Fraction of bits saved versus sending the full list every time.
///
/// # Panics
///
/// Panics if `uses` is zero or `full_bits` is zero.
///
/// # Examples
///
/// ```
/// use retri_model::codebook::expected_savings;
///
/// let savings = expected_savings(160, 8, 20);
/// assert!(savings > 0.90);
/// // One use = just the definition: nothing saved.
/// assert_eq!(expected_savings(160, 8, 1), 0.0);
/// ```
#[must_use]
pub fn expected_savings(full_bits: u32, code_bits: u32, uses: u64) -> f64 {
    assert!(full_bits > 0, "attribute list must be non-empty");
    1.0 - expected_bits_per_message(full_bits, code_bits, uses) / f64::from(full_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::p_all_distinct;
    use crate::params::{Density, IdBits};

    #[test]
    fn amortization_approaches_code_size() {
        // With enough reuse the cost per message approaches the code.
        let few = expected_bits_per_message(160, 8, 2);
        let many = expected_bits_per_message(160, 8, 10_000);
        assert!(few > many);
        assert!((many - 8.0).abs() < 0.1);
    }

    #[test]
    fn savings_monotone_in_reuse() {
        let mut last = -1.0;
        for uses in [1u64, 2, 5, 20, 100] {
            let s = expected_savings(160, 8, uses);
            assert!(s >= last);
            last = s;
        }
        assert!(last > 0.9);
    }

    #[test]
    fn shorter_codes_save_more_but_conflict_more() {
        let save_short = expected_savings(160, 4, 50);
        let save_long = expected_savings(160, 12, 50);
        assert!(save_short > save_long);
        let senders = Density::new(6).unwrap();
        let free_short = p_all_distinct(IdBits::new(4).unwrap(), senders);
        let free_long = p_all_distinct(IdBits::new(12).unwrap(), senders);
        assert!(free_short < free_long);
    }

    #[test]
    fn pigeonhole_for_bindings() {
        // Five senders cannot all hold distinct 2-bit codes; four can, in
        // 4! of the 4^4 equally likely draws.
        let code = IdBits::new(2).unwrap();
        assert_eq!(p_all_distinct(code, Density::new(5).unwrap()), 0.0);
        assert_eq!(p_all_distinct(code, Density::new(4).unwrap()), 24.0 / 256.0);
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn zero_uses_panics() {
        let _ = expected_bits_per_message(160, 8, 0);
    }
}
