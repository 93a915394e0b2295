//! Minting strategies: the service-side abstraction over identifier
//! selection.
//!
//! The simulator's [`retri::select::IdSelector`] family chooses ids for
//! *one node on the air*; the allocator service mints ids for *many
//! client transactions against one shared collision domain*. The
//! [`MintStrategy`] trait is the service's view of that choice: a
//! strategy produces a raw identifier value up to 128 bits wide, and may
//! learn from the ids the shard has recently handed out.
//!
//! Four of the five strategies wrap the paper-faithful selectors from
//! `retri-core` (uniform, listening, sequential, permutation) over an
//! `H ≤ 64`-bit [`IdentifierSpace`]; the fifth is a tribles-style
//! high-entropy 128-bit strategy modeled on the coordination-free
//! UFOID: a monotonic mint-sequence prefix plus 96 random bits. (The
//! real UFOID burns a wall-clock timestamp into the prefix; the service
//! substitutes the shard's mint counter so a seeded run stays
//! byte-deterministic — the uniqueness argument only needs the prefix
//! to never repeat within a shard.)

use rand::RngCore;
use retri::permutation::{PermutationSelector, SequentialSelector};
use retri::select::{IdSelector, ListeningSelector, UniformSelector};
use retri::IdentifierSpace;

/// Strategy discriminant, stable across the wire protocol (`u8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Paper-faithful uniform random draw (the Eq. 4 baseline).
    Uniform,
    /// Window-aware: avoids the shard's recently minted identifiers,
    /// the service analogue of the paper's listening heuristic.
    Listening,
    /// Counter from a random start — the taxonomy's predictable policy.
    Sequential,
    /// Keyed-Feistel permutation walk: collision-free within any
    /// `2^H`-mint window.
    Permutation,
    /// Tribles-style 128-bit high-entropy identifier (monotonic prefix
    /// + 96 random bits); collisions are cryptographically negligible.
    Tribles128,
}

impl StrategyKind {
    /// Every strategy the service exposes, in wire-code order.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::Uniform,
        StrategyKind::Listening,
        StrategyKind::Sequential,
        StrategyKind::Permutation,
        StrategyKind::Tribles128,
    ];

    /// The wire-protocol code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            StrategyKind::Uniform => 0,
            StrategyKind::Listening => 1,
            StrategyKind::Sequential => 2,
            StrategyKind::Permutation => 3,
            StrategyKind::Tribles128 => 4,
        }
    }

    /// Decodes a wire code.
    #[must_use]
    pub(crate) fn from_code(code: u8) -> Option<StrategyKind> {
        StrategyKind::ALL.iter().copied().find(|k| k.code() == code)
    }

    /// Lowercase name used in metrics labels and seed-stream labels.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Uniform => "uniform",
            StrategyKind::Listening => "listening",
            StrategyKind::Sequential => "sequential",
            StrategyKind::Permutation => "permutation",
            StrategyKind::Tribles128 => "tribles128",
        }
    }
}

/// A policy for minting raw identifier values inside one shard.
///
/// Values are at most `bits()` wide (`1..=128`). `observe` reports an
/// identifier the shard just handed out, so window-aware strategies can
/// steer away from it; structured and stateless strategies ignore it.
pub trait MintStrategy: Send {
    /// Which strategy this is.
    fn kind(&self) -> StrategyKind;

    /// Identifier width in bits (`1..=128`).
    fn bits(&self) -> u8;

    /// Mints one identifier value, drawing randomness from `rng`.
    fn mint(&mut self, rng: &mut dyn RngCore) -> u128;

    /// Reports an identifier recently minted in this shard's domain.
    fn observe(&mut self, value: u128) {
        let _ = value;
    }
}

/// Wraps any `retri-core` selector (all are `H ≤ 64` bits).
struct SelectorStrategy<S: IdSelector + Send> {
    kind: StrategyKind,
    selector: S,
}

impl<S: IdSelector + Send> MintStrategy for SelectorStrategy<S> {
    fn kind(&self) -> StrategyKind {
        self.kind
    }

    fn bits(&self) -> u8 {
        self.selector.space().bits().get()
    }

    fn mint(&mut self, rng: &mut dyn RngCore) -> u128 {
        u128::from(self.selector.select(rng).value())
    }

    fn observe(&mut self, value: u128) {
        let space = self.selector.space();
        if let Ok(id) = space.id(value as u64 & space.mask()) {
            self.selector.observe(id);
        }
    }
}

/// The tribles-style 128-bit strategy: a 32-bit monotonic mint-sequence
/// prefix (the deterministic stand-in for UFOID's timestamp) over 96
/// random bits.
struct Tribles128 {
    sequence: u32,
}

impl MintStrategy for Tribles128 {
    fn kind(&self) -> StrategyKind {
        StrategyKind::Tribles128
    }

    fn bits(&self) -> u8 {
        128
    }

    fn mint(&mut self, rng: &mut dyn RngCore) -> u128 {
        let prefix = u128::from(self.sequence) << 96;
        self.sequence = self.sequence.wrapping_add(1);
        let high = u128::from(rng.next_u64() >> 32) << 64; // 32 random bits
        let low = u128::from(rng.next_u64()); // 64 random bits
        prefix | high | low
    }
}

/// Builds a fresh strategy instance of `kind` over `space` (the width
/// used by every `≤ 64`-bit strategy; [`StrategyKind::Tribles128`] is
/// always 128 bits wide and ignores it).
///
/// `listen_window` sizes the listening strategy's avoidance window, in
/// recently minted identifiers.
#[must_use]
pub fn build_strategy(
    kind: StrategyKind,
    space: IdentifierSpace,
    listen_window: usize,
) -> Box<dyn MintStrategy> {
    match kind {
        StrategyKind::Uniform => Box::new(SelectorStrategy {
            kind,
            selector: UniformSelector::new(space),
        }),
        StrategyKind::Listening => Box::new(SelectorStrategy {
            kind,
            selector: ListeningSelector::new(space, listen_window),
        }),
        StrategyKind::Sequential => Box::new(SelectorStrategy {
            kind,
            selector: SequentialSelector::new(space),
        }),
        StrategyKind::Permutation => Box::new(SelectorStrategy {
            kind,
            selector: PermutationSelector::new(space),
        }),
        StrategyKind::Tribles128 => Box::new(Tribles128 { sequence: 0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retri::hash::FixedSet;

    fn space(bits: u8) -> IdentifierSpace {
        IdentifierSpace::new(bits).unwrap()
    }

    #[test]
    fn wire_codes_roundtrip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(StrategyKind::from_code(200), None);
    }

    #[test]
    fn minted_values_respect_declared_width() {
        let mut rng = StdRng::seed_from_u64(1);
        for kind in StrategyKind::ALL {
            let mut strategy = build_strategy(kind, space(12), 16);
            for _ in 0..200 {
                let v = strategy.mint(&mut rng);
                let bits = strategy.bits();
                if bits < 128 {
                    assert!(v < 1u128 << bits, "{kind:?} overflowed {bits} bits");
                }
            }
        }
    }

    #[test]
    fn minting_is_deterministic_per_seed() {
        for kind in StrategyKind::ALL {
            let mut a = build_strategy(kind, space(16), 8);
            let mut b = build_strategy(kind, space(16), 8);
            let mut rng_a = StdRng::seed_from_u64(9);
            let mut rng_b = StdRng::seed_from_u64(9);
            let seq_a: Vec<u128> = (0..64).map(|_| a.mint(&mut rng_a)).collect();
            let seq_b: Vec<u128> = (0..64).map(|_| b.mint(&mut rng_b)).collect();
            assert_eq!(seq_a, seq_b, "{kind:?} must be seed-deterministic");
        }
    }

    #[test]
    fn tribles_prefix_is_monotonic_and_values_never_repeat() {
        let mut strategy = build_strategy(StrategyKind::Tribles128, space(16), 0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut last_prefix = None;
        let mut seen = FixedSet::default();
        for _ in 0..10_000 {
            let v = strategy.mint(&mut rng);
            let prefix = (v >> 96) as u32;
            if let Some(last) = last_prefix {
                assert_eq!(prefix, u32::wrapping_add(last, 1));
            }
            last_prefix = Some(prefix);
            assert!(seen.insert(v), "tribles128 repeated {v:#x}");
        }
    }

    #[test]
    fn listening_strategy_avoids_observed_ids() {
        let mut strategy = build_strategy(StrategyKind::Listening, space(4), 8);
        let mut rng = StdRng::seed_from_u64(5);
        strategy.observe(7);
        for _ in 0..200 {
            assert_ne!(strategy.mint(&mut rng), 7);
        }
    }

    #[test]
    fn permutation_never_self_collides_within_a_window() {
        let mut strategy = build_strategy(StrategyKind::Permutation, space(8), 0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = FixedSet::default();
        for _ in 0..256 {
            assert!(seen.insert(strategy.mint(&mut rng)));
        }
    }
}
