//! Property-based tests of the RETRI core invariants.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use retri::permutation::PermutationSelector;
use retri::select::{AdaptiveListeningSelector, IdSelector, ListeningSelector, UniformSelector};
use retri::IdentifierSpace;

proptest! {
    /// A permutation selector never repeats an identifier within any
    /// window of `space.len()` consecutive draws — not just the first
    /// window: after an arbitrary burn-in prefix, the next full window
    /// is still repeat-free, for every key and width.
    #[test]
    fn permutation_never_repeats_within_a_window(
        bits in 1u8..=10,
        key in any::<u64>(),
        burn in 0usize..100,
    ) {
        let space = IdentifierSpace::new(bits).unwrap();
        let window = space.len() as usize;
        let mut selector = PermutationSelector::with_key(space, key);
        let mut rng = StdRng::seed_from_u64(0); // ignored once keyed
        for _ in 0..burn {
            selector.select(&mut rng);
        }
        let mut seen = HashSet::with_capacity(window);
        for _ in 0..window {
            let id = selector.select(&mut rng);
            prop_assert!(space.contains(id));
            prop_assert!(seen.insert(id.value()), "repeat inside the window");
        }
    }

    /// An adaptive listening selector never returns an identifier it is
    /// currently avoiding while free identifiers remain; once the
    /// avoided set saturates the space it falls back to a plain
    /// uniform draw, which must still land in the space. (The plain
    /// listening selector's version of this invariant is
    /// `listening_never_picks_avoided` below.)
    #[test]
    fn adaptive_never_picks_avoided_until_saturated(
        bits in 2u8..=8,
        seed in any::<u64>(),
        observed in proptest::collection::vec((any::<u64>(), 0u64..1_000_000), 0..300),
    ) {
        let space = IdentifierSpace::new(bits).unwrap();
        let mut selector = AdaptiveListeningSelector::new(space, 2_000_000);
        for (raw, at) in &observed {
            selector.observe_at(space.id(raw & space.mask()).unwrap(), *at);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let free_exists = (selector.avoided_len() as u128) < space.len();
        for _ in 0..50 {
            let picked = selector.select_at(&mut rng, 1_000_000);
            prop_assert!(space.contains(picked));
            if free_exists {
                prop_assert!(!selector.avoids(picked));
            }
        }
    }

    /// Every selected identifier fits its space, for every width and
    /// seed.
    #[test]
    fn selection_stays_in_space(bits in 1u8..=64, seed in any::<u64>()) {
        let space = IdentifierSpace::new(bits).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut uniform = UniformSelector::new(space);
        let mut listening = ListeningSelector::new(space, 8);
        for _ in 0..50 {
            let a = uniform.select(&mut rng);
            let b = listening.select(&mut rng);
            prop_assert!(space.contains(a));
            prop_assert!(space.contains(b));
            listening.observe(a);
        }
    }

    /// A listening selector never picks an identifier inside its window
    /// while free identifiers remain.
    #[test]
    fn listening_never_picks_avoided(
        bits in 2u8..=10,
        seed in any::<u64>(),
        observed in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        let space = IdentifierSpace::new(bits).unwrap();
        let mut selector = ListeningSelector::new(space, observed.len());
        for raw in &observed {
            selector.observe(space.id(raw & space.mask()).unwrap());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let free_exists = (selector.avoided_len() as u128) < space.len();
        for _ in 0..50 {
            let picked = selector.select(&mut rng);
            if free_exists {
                prop_assert!(!selector.avoids(picked));
            } else {
                prop_assert!(space.contains(picked));
            }
        }
    }

    /// The listening window never retains more observations than its
    /// capacity, no matter the observation sequence or resizes.
    #[test]
    fn window_capacity_respected(
        bits in 2u8..=8,
        window in 0usize..20,
        observations in proptest::collection::vec(any::<u64>(), 0..100),
        shrink_to in 0usize..20,
    ) {
        let space = IdentifierSpace::new(bits).unwrap();
        let mut selector = ListeningSelector::new(space, window);
        for raw in &observations {
            selector.observe(space.id(raw & space.mask()).unwrap());
            prop_assert!(selector.avoided_len() <= window);
        }
        selector.set_window(shrink_to);
        prop_assert!(selector.avoided_len() <= shrink_to);
    }

    /// Identifier round trip: any value masked into a space is accepted
    /// by the strict constructor and survives unchanged.
    #[test]
    fn id_round_trip(bits in 1u8..=64, raw in any::<u64>()) {
        let space = IdentifierSpace::new(bits).unwrap();
        let value = raw & space.mask();
        let id = space.id(value).unwrap();
        prop_assert_eq!(id.value(), value);
        prop_assert_eq!(id.bits().get(), bits);
    }
}
