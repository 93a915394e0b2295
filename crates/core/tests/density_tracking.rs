//! Statistical test: `AdaptiveListeningSelector::estimated_density`
//! tracks the true offered transaction density.
//!
//! Section 5.1's adaptive window needs `T̂` to follow the real number
//! of concurrent transmitters. Each regime below simulates a cell of
//! `T` transmitters (the estimating node plus `T - 1` foreign ones,
//! each beaconing a transaction identifier every 10 ms), queries the
//! estimate in steady state, and scores the trial. The per-regime
//! success proportion over many independent seeds then gets a 99%
//! Wilson lower bound that must clear 0.9 — a Wilson-style tolerance
//! rather than a brittle exact assertion, because the estimator counts
//! *distinct identifiers*, and independently drawn identifiers
//! occasionally collide (two transmitters sharing an id look like one
//! transaction on the air — a real property of the protocol, not an
//! estimator bug).
//!
//! The saturated regime pins the documented clamp: once every
//! identifier in a small space is live on the air, the estimate cannot
//! exceed `|space| + 1` no matter how many transmitters pile on — the
//! air simply cannot show more distinct identifiers than exist. That
//! under-report is why the paper's response to density is to grow `H`
//! (Section 4), not to grow the listening window.

use rand::rngs::StdRng;
use rand::SeedableRng;
use retri::select::AdaptiveListeningSelector;
use retri::IdentifierSpace;
use retri_model::stats::{Side, Verdict, Z_99};

/// Concurrency horizon, µs: 10 beacon periods, so every live foreign
/// transaction is comfortably inside it in steady state.
const TTL_MICROS: u64 = 100_000;

/// Beacon period, µs.
const STEP_MICROS: u64 = 10_000;

/// Independent trials per regime.
const TRIALS: u64 = 200;

/// Runs one cell to steady state and returns the density estimate.
///
/// `transmitters` counts the estimating node itself; the `T - 1`
/// foreign transmitters each hold one identifier (drawn uniformly, as
/// the paper's selector does) and beacon it every [`STEP_MICROS`] for
/// two full horizons before the query.
fn steady_state_estimate(seed: u64, bits: u8, transmitters: u64) -> u64 {
    let space = IdentifierSpace::new(bits).expect("valid width");
    let mut selector = AdaptiveListeningSelector::new(space, TTL_MICROS);
    let mut rng = StdRng::seed_from_u64(seed);
    let foreign: Vec<_> = (1..transmitters).map(|_| space.sample(&mut rng)).collect();
    let mut now = 0;
    while now < 2 * TTL_MICROS {
        now += STEP_MICROS;
        for &id in &foreign {
            selector.observe_at(id, now);
        }
    }
    selector.estimated_density(now)
}

/// Asserts that `success` held on enough of [`TRIALS`] independent
/// seeds: the 99% Wilson lower bound on the proportion clears 0.9.
fn assert_mostly(regime: &str, success: impl Fn(u64) -> bool) {
    let successes = (0..TRIALS).filter(|&trial| success(trial)).count() as u64;
    let verdict = Verdict::of(successes, TRIALS, Z_99, 0.9);
    assert!(
        verdict.side() == Side::Below,
        "{regime}: only {successes}/{TRIALS} trials tracked density \
         (99% Wilson lower bound {:.4})",
        verdict.low
    );
}

#[test]
fn low_density_is_tracked_exactly() {
    // T = 3 in a 16-bit space: identifier collisions are ~2^-16, so
    // the estimate should equal the true density essentially always.
    assert_mostly("low (T = 3, H = 16)", |trial| {
        steady_state_estimate(trial, 16, 3) == 3
    });
}

#[test]
fn medium_density_is_tracked_within_one() {
    // T = 9 in an 8-bit space: with eight foreign identifiers in a
    // 256-id pool, a single pairwise collision (≈ 10% of trials) makes
    // two transmitters indistinguishable on the air, so the tolerance
    // is ±1; being off by two needs two simultaneous collisions.
    assert_mostly("medium (T = 9, H = 8)", |trial| {
        let estimate = steady_state_estimate(trial, 8, 9);
        (8..=9).contains(&estimate)
    });
}

#[test]
fn saturated_density_clamps_at_the_space_size() {
    // T = 64 in a 3-bit space: 63 foreign transmitters over 8 possible
    // identifiers occupy the whole space (coupon collector), and the
    // estimate clamps at |space| + 1 = 9 — the documented under-report
    // once the air shows every identifier that exists.
    let space_len = 1u64 << 3;
    assert_mostly("saturated (T = 64, H = 3)", |trial| {
        steady_state_estimate(trial, 3, 64) == space_len + 1
    });
    // And it can never exceed the clamp, whatever the seed.
    for trial in 0..TRIALS {
        assert!(steady_state_estimate(trial, 3, 64) <= space_len + 1);
    }
}

#[test]
fn the_estimate_decays_back_to_one_after_silence() {
    let space = IdentifierSpace::new(16).unwrap();
    let mut selector = AdaptiveListeningSelector::new(space, TTL_MICROS);
    let mut rng = StdRng::seed_from_u64(7);
    let mut now = 0;
    for _ in 0..20 {
        now += STEP_MICROS;
        for _ in 0..5 {
            let id = space.sample(&mut rng);
            selector.observe_at(id, now);
        }
    }
    assert!(selector.estimated_density(now) > 1);
    // One full horizon of silence expires every observation; the
    // estimate returns to the floor of 1 (this node alone).
    now += TTL_MICROS + STEP_MICROS;
    assert_eq!(selector.estimated_density(now), 1);
}
