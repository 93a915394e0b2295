//! Structured identifier-selection families: permutation codes and
//! predictable sequential selection.
//!
//! The paper's selectors ([`crate::select`]) all draw *randomly*; the
//! related work names two structured alternatives at opposite ends of
//! the IPv4-ID selection taxonomy (correctness / security /
//! performance):
//!
//! - **Permutation codes** (PERIDOT): instead of independent random
//!   draws, walk a keyed pseudorandom permutation of the identifier
//!   space. Within any window of `space.len()` consecutive draws a
//!   single node never repeats an identifier — self-collisions are
//!   impossible *by construction*, and to an eavesdropper without the
//!   key the sequence is indistinguishable from fresh random draws.
//!   [`PermutationSelector`] implements this with a small keyed Feistel
//!   network over the `H`-bit space.
//! - **Sequential selection**: the taxonomy's weak-but-common policy
//!   (the classic IPv4 ID counter) — start at a random offset, then
//!   increment. It also never self-collides within a window (a counter
//!   is a cyclic permutation), but every observed identifier reveals
//!   the next one, so an eavesdropper can *predict* upcoming ids and
//!   force reassembly collisions. [`SequentialSelector`] exists as the
//!   attack target for the adversarial differential harness in
//!   `retri-bench`.
//!
//! Both selectors ignore [`IdSelector::observe`]: their structure, not
//! the air, decides the next identifier.

use rand::RngCore;

use crate::id::{IdentifierSpace, TransactionId};
use crate::select::IdSelector;

/// Feistel rounds for the keyed permutation. Four rounds already make a
/// pseudorandom permutation out of a pseudorandom function (Luby–Rackoff);
/// six adds margin for the unbalanced splits of odd widths at negligible
/// cost.
const FEISTEL_ROUNDS: u32 = 6;

/// Keyed round function: SplitMix64 finalization over the key, round
/// number and half-block value. Any 64-bit mixer works here — the
/// permutation only needs the rounds to be *different, key-dependent*
/// functions.
fn round_mix(key: u64, round: u32, value: u64) -> u64 {
    let mut state = key ^ u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ value;
    rand::splitmix64(&mut state)
}

/// Applies the keyed permutation of the `bits`-wide space to `index`.
///
/// An unbalanced Feistel network: the block is split into a
/// `bits - bits/2` high half and a `bits/2` low half, and rounds
/// alternately XOR a keyed mix of one half into the other. Every round
/// is self-inverse given the other half, so the composition is a
/// bijection on `0..2^bits` for *any* key — the property the
/// no-repeat-within-a-window guarantee rests on.
fn permute(bits: u8, key: u64, index: u64) -> u64 {
    debug_assert!((1..=64).contains(&bits), "width {bits} out of range");
    if bits == 1 {
        // No room to split: the only two permutations of {0, 1} are
        // identity and swap, chosen by one key bit.
        return index ^ (key & 1);
    }
    let right_bits = bits / 2;
    let left_bits = bits - right_bits; // <= 32, so the shifts below are safe
    let right_mask = (1u64 << right_bits) - 1;
    let left_mask = (1u64 << left_bits) - 1;
    let mut left = (index >> right_bits) & left_mask;
    let mut right = index & right_mask;
    for round in 0..FEISTEL_ROUNDS {
        if round % 2 == 0 {
            left ^= round_mix(key, round, right) & left_mask;
        } else {
            right ^= round_mix(key, round, left) & right_mask;
        }
    }
    (left << right_bits) | right
}

/// PERIDOT-style permutation selector: walks a keyed pseudorandom
/// permutation of the identifier space.
///
/// The key is drawn lazily from the caller's RNG on the first
/// [`select`], so in a simulation every node derives a distinct key from
/// its own deterministic stream; [`with_key`] pins it for tests. The
/// walk position wraps modulo `space.len()`, so within **any**
/// `space.len()` consecutive draws no identifier repeats (the sequence
/// is one fixed permutation traversed cyclically).
///
/// [`select`]: IdSelector::select
/// [`with_key`]: PermutationSelector::with_key
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use retri::permutation::PermutationSelector;
/// use retri::select::IdSelector;
/// use retri::IdentifierSpace;
///
/// # fn main() -> Result<(), retri::ModelError> {
/// let space = IdentifierSpace::new(6)?; // 64 identifiers
/// let mut selector = PermutationSelector::new(space);
/// let mut rng = StdRng::seed_from_u64(5);
///
/// // A full window of draws covers the space with no repeats.
/// let mut seen = std::collections::HashSet::new();
/// for _ in 0..64 {
///     assert!(seen.insert(selector.select(&mut rng).value()));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PermutationSelector {
    space: IdentifierSpace,
    key: Option<u64>,
    cursor: u64,
}

impl PermutationSelector {
    /// Creates a permutation selector over `space`; the key is drawn
    /// from the RNG passed to the first [`IdSelector::select`] call.
    #[must_use]
    pub fn new(space: IdentifierSpace) -> Self {
        PermutationSelector {
            space,
            key: None,
            cursor: 0,
        }
    }

    /// Creates a permutation selector with a fixed key (reproducible
    /// sequences for tests and cross-node analysis).
    #[must_use]
    pub fn with_key(space: IdentifierSpace, key: u64) -> Self {
        PermutationSelector {
            space,
            key: Some(key),
            cursor: 0,
        }
    }

    /// The permutation key, once drawn.
    #[must_use]
    pub fn key(&self) -> Option<u64> {
        self.key
    }
}

impl IdSelector for PermutationSelector {
    fn space(&self) -> IdentifierSpace {
        self.space
    }

    fn select(&mut self, rng: &mut dyn RngCore) -> TransactionId {
        let key = *self.key.get_or_insert_with(|| rng.next_u64());
        let value = permute(self.space.bits().get(), key, self.cursor);
        self.cursor = self.cursor.wrapping_add(1) & self.space.mask();
        self.space
            .id(value)
            .expect("permutation output stays inside the space")
    }
}

/// The taxonomy's predictable policy: a counter from a random start.
///
/// The start offset is drawn lazily from the caller's RNG on the first
/// [`select`] (real sequential implementations randomize the initial
/// counter too), after which each draw is the previous value plus one,
/// modulo the space size. Like any cyclic permutation it never
/// self-collides within `space.len()` draws — but one observed
/// identifier lets an eavesdropper predict **all** subsequent ones,
/// which is exactly the weakness the adversarial harness measures.
///
/// [`select`]: IdSelector::select
///
/// # Examples
///
/// ```
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// use retri::permutation::SequentialSelector;
/// use retri::select::IdSelector;
/// use retri::IdentifierSpace;
///
/// # fn main() -> Result<(), retri::ModelError> {
/// let space = IdentifierSpace::new(8)?;
/// let mut selector = SequentialSelector::new(space);
/// let mut rng = StdRng::seed_from_u64(1);
///
/// let first = selector.select(&mut rng).value();
/// let second = selector.select(&mut rng).value();
/// assert_eq!(second, (first + 1) % 256); // entirely predictable
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SequentialSelector {
    space: IdentifierSpace,
    next: Option<u64>,
}

impl SequentialSelector {
    /// Creates a sequential selector; the start offset is drawn from
    /// the RNG passed to the first [`IdSelector::select`] call.
    #[must_use]
    pub fn new(space: IdentifierSpace) -> Self {
        SequentialSelector { space, next: None }
    }
}

impl IdSelector for SequentialSelector {
    fn space(&self) -> IdentifierSpace {
        self.space
    }

    fn select(&mut self, rng: &mut dyn RngCore) -> TransactionId {
        let mask = self.space.mask();
        let current = *self.next.get_or_insert_with(|| rng.next_u64() & mask);
        self.next = Some(current.wrapping_add(1) & mask);
        self.space
            .id(current)
            .expect("counter is masked into the space")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn space(bits: u8) -> IdentifierSpace {
        IdentifierSpace::new(bits).unwrap()
    }

    #[test]
    fn permute_is_bijective_for_every_small_width_and_key() {
        for bits in 1..=10u8 {
            for key in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                let len = 1u64 << bits;
                let outputs: HashSet<u64> = (0..len).map(|i| permute(bits, key, i)).collect();
                assert_eq!(
                    outputs.len() as u64,
                    len,
                    "not a bijection at bits={bits} key={key:#x}"
                );
                assert!(outputs.iter().all(|&v| v < len));
            }
        }
    }

    #[test]
    fn full_window_covers_space_without_repeats() {
        let s = space(8);
        let mut selector = PermutationSelector::new(s);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = HashSet::new();
        for _ in 0..256 {
            assert!(seen.insert(selector.select(&mut rng).value()));
        }
        assert_eq!(seen.len(), 256);
    }

    #[test]
    fn any_window_of_space_draws_is_repeat_free() {
        // The guarantee is not anchored to the first draw: burn an
        // arbitrary prefix, then check a full window.
        let s = space(6);
        let mut selector = PermutationSelector::with_key(s, 99);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..17 {
            let _ = selector.select(&mut rng);
        }
        let mut seen = HashSet::new();
        for _ in 0..64 {
            assert!(seen.insert(selector.select(&mut rng).value()));
        }
    }

    #[test]
    fn walk_is_cyclic_past_the_window() {
        let s = space(4);
        let mut selector = PermutationSelector::with_key(s, 7);
        let mut rng = StdRng::seed_from_u64(5);
        let first: Vec<u64> = (0..16).map(|_| selector.select(&mut rng).value()).collect();
        let second: Vec<u64> = (0..16).map(|_| selector.select(&mut rng).value()).collect();
        assert_eq!(first, second, "the walk repeats the same permutation");
    }

    #[test]
    fn key_is_drawn_lazily_and_deterministically_from_the_rng() {
        let s = space(12);
        let mut a = PermutationSelector::new(s);
        let mut b = PermutationSelector::new(s);
        assert_eq!(a.key(), None);
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let seq_a: Vec<u64> = (0..32).map(|_| a.select(&mut rng_a).value()).collect();
        let seq_b: Vec<u64> = (0..32).map(|_| b.select(&mut rng_b).value()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(a.key().is_some());

        let mut c = PermutationSelector::new(s);
        let mut rng_c = StdRng::seed_from_u64(12);
        let seq_c: Vec<u64> = (0..32).map(|_| c.select(&mut rng_c).value()).collect();
        assert_ne!(seq_a, seq_c, "different streams draw different keys");
    }

    #[test]
    fn distinct_keys_walk_distinct_permutations() {
        let s = space(16);
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = PermutationSelector::with_key(s, 1);
        let mut b = PermutationSelector::with_key(s, 2);
        let seq_a: Vec<u64> = (0..64).map(|_| a.select(&mut rng).value()).collect();
        let seq_b: Vec<u64> = (0..64).map(|_| b.select(&mut rng).value()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn permutation_ignores_observations() {
        let s = space(8);
        let mut with_obs = PermutationSelector::with_key(s, 5);
        let mut without = PermutationSelector::with_key(s, 5);
        let mut rng = StdRng::seed_from_u64(2);
        with_obs.observe(s.id(200).unwrap());
        assert_eq!(
            with_obs.select(&mut rng).value(),
            without.select(&mut rng).value()
        );
    }

    #[test]
    fn permutation_works_at_full_width() {
        let s = space(64);
        let mut selector = PermutationSelector::new(s);
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(selector.select(&mut rng).value()));
        }
    }

    #[test]
    fn one_bit_space_alternates() {
        let s = space(1);
        for key in [0u64, 1] {
            let mut selector = PermutationSelector::with_key(s, key);
            let mut rng = StdRng::seed_from_u64(7);
            let a = selector.select(&mut rng).value();
            let b = selector.select(&mut rng).value();
            assert_ne!(a, b);
            assert!(a <= 1 && b <= 1);
        }
    }

    #[test]
    fn sequential_increments_modulo_space() {
        let s = space(4);
        let mut selector = SequentialSelector {
            space: s,
            next: Some(14),
        };
        let mut rng = StdRng::seed_from_u64(8);
        let values: Vec<u64> = (0..4).map(|_| selector.select(&mut rng).value()).collect();
        assert_eq!(values, vec![14, 15, 0, 1], "wraps at the space boundary");
    }

    #[test]
    fn sequential_start_is_random_but_in_range() {
        let s = space(10);
        let mut starts = HashSet::new();
        for seed in 0..20u64 {
            let mut selector = SequentialSelector::new(s);
            let mut rng = StdRng::seed_from_u64(seed);
            let first = selector.select(&mut rng).value();
            assert!(first < 1024);
            starts.insert(first);
        }
        assert!(starts.len() > 1, "start offsets vary with the stream");
    }

    #[test]
    fn sequential_ignores_observations() {
        let s = space(8);
        let mut selector = SequentialSelector {
            space: s,
            next: Some(10),
        };
        let mut rng = StdRng::seed_from_u64(9);
        selector.observe(s.id(11).unwrap());
        assert_eq!(selector.select(&mut rng).value(), 10);
        assert_eq!(selector.select(&mut rng).value(), 11);
    }

    #[test]
    fn sequential_works_at_full_width() {
        let s = space(64);
        let mut selector = SequentialSelector {
            space: s,
            next: Some(u64::MAX),
        };
        let mut rng = StdRng::seed_from_u64(10);
        assert_eq!(selector.select(&mut rng).value(), u64::MAX);
        assert_eq!(selector.select(&mut rng).value(), 0);
    }

    #[test]
    fn new_selectors_are_object_safe() {
        let s = space(5);
        let mut rng = StdRng::seed_from_u64(11);
        let mut selectors: Vec<Box<dyn IdSelector>> = vec![
            Box::new(PermutationSelector::new(s)),
            Box::new(SequentialSelector::new(s)),
        ];
        for selector in &mut selectors {
            let id = selector.select(&mut rng);
            assert!(s.contains(id));
            selector.observe(id);
        }
    }
}
