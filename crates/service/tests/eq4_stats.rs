//! Eq. 4 predicted-vs-observed collision statistics, per strategy.
//!
//! The service accumulates, at every mint, the probability a *uniform*
//! draw would have collided with the live set at that instant
//! (`1 − (1 − 2^−H)^L`). Over a run that sum is the expected collision
//! count of the paper-faithful strategy under the actual density trace,
//! so:
//!
//! - the **uniform** strategy's observed collision rate must fall
//!   inside the Wilson interval of the prediction (two-sided — the
//!   model is supposed to be *right*, not just an upper bound);
//! - every avoiding strategy (listening, sequential, permutation,
//!   tribles-128) must not collide *significantly more* than the
//!   uniform prediction (one-sided — avoidance can only help).
//!
//! Both checks are a [`Verdict`] of the prediction against the 99%
//! ([`Z_99`]) Wilson interval of the observed count: the first must be
//! inside it, the second must not fall below it.

use proptest::prelude::*;
use retri_model::stats::{Side, Verdict, Z_99};
use retri_service::proto::{Reply, Request};
use retri_service::{ServiceConfig, ServiceHandle, StrategyKind, StrategyStats};

/// Mints `total` ids for `kind` on one shard, releasing each batch a
/// fixed lag later so density reaches a steady state, and returns the
/// final stats entry.
fn run_strategy(seed: u64, kind: StrategyKind, total: u64) -> StrategyStats {
    const BATCH: u32 = 64;
    const RELEASE_AFTER: usize = 2;
    let mut config = ServiceConfig::new(seed);
    config.shards = 1;
    config.bits = 12;
    let mut handle = ServiceHandle::new(&config);
    let mut pending: std::collections::VecDeque<Vec<u128>> = std::collections::VecDeque::new();
    let mut minted = 0u64;
    while minted < total {
        let count = BATCH.min((total - minted) as u32);
        let Reply::Ids(ids) = handle.request(&Request::Alloc {
            shard: 0,
            strategy: kind,
            count,
        }) else {
            panic!("expected IDS");
        };
        minted += ids.len() as u64;
        pending.push_back(ids);
        if pending.len() > RELEASE_AFTER {
            let ids = pending.pop_front().expect("non-empty");
            let _ = handle.request(&Request::Release {
                shard: 0,
                strategy: kind,
                ids,
            });
        }
    }
    let Reply::Stats(entries) = handle.request(&Request::Stats { shard: 0 }) else {
        panic!("expected STATS");
    };
    entries
        .into_iter()
        .find(|e| e.strategy == kind)
        .expect("strategy entry present")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Uniform minting: the observed collision count is a binomial
    /// draw whose mean Eq. 4 predicts, so the predicted rate must sit
    /// inside the 99% Wilson interval of the observed proportion.
    /// (The per-mint prediction `1 − (1 − 2^−H)^L` undershoots the
    /// exact uniform hit rate `L·2^−H` by at most ~(L·2^−H)²/2 per
    /// mint; at this density that curvature is well inside the
    /// interval, so no extra tolerance is needed.)
    #[test]
    fn uniform_observed_rate_matches_eq4_prediction(seed in any::<u64>()) {
        const MINTS: u64 = 30_000;
        let stats = run_strategy(seed, StrategyKind::Uniform, MINTS);
        prop_assert!(stats.collisions > 0, "steady density ~190/4096 must collide");
        let predicted_rate = stats.predicted_collisions / stats.minted as f64;
        let verdict = Verdict::of(stats.collisions, stats.minted, Z_99, predicted_rate);
        prop_assert!(
            verdict.inside(),
            "predicted rate {predicted_rate:.5} outside Wilson [{:.5}, {:.5}] \
             ({} collisions / {} mints, seed {seed})",
            verdict.low,
            verdict.high,
            stats.collisions,
            stats.minted,
        );
    }

    /// Every avoiding strategy: the observed rate must not exceed the
    /// uniform Eq. 4 prediction significantly (its Wilson lower bound
    /// stays at or below the predicted rate). The structured
    /// strategies should in fact collide never or almost never at this
    /// density.
    #[test]
    fn avoiding_strategies_do_not_beat_the_uniform_bound_upward(seed in any::<u64>()) {
        const MINTS: u64 = 10_000;
        for kind in [
            StrategyKind::Listening,
            StrategyKind::Sequential,
            StrategyKind::Permutation,
            StrategyKind::Tribles128,
        ] {
            let stats = run_strategy(seed, kind, MINTS);
            let predicted_rate = stats.predicted_collisions / stats.minted as f64;
            let verdict = Verdict::of(stats.collisions, stats.minted, Z_99, predicted_rate);
            prop_assert!(
                verdict.side() != Side::Below,
                "{:?} collides significantly above the uniform prediction: \
                 observed {} / {} (Wilson low {:.5}) vs predicted {predicted_rate:.5}",
                kind,
                stats.collisions,
                stats.minted,
                verdict.low,
            );
        }
    }
}

/// Sequential and permutation walk the space without repeating inside
/// a window, and tribles' 96 random bits make repeats astronomically
/// unlikely — at steady density ≪ space size none of them should
/// collide at all. (Deterministic spot-check, not a property.)
#[test]
fn structured_strategies_collide_never_at_low_density() {
    for kind in [
        StrategyKind::Sequential,
        StrategyKind::Permutation,
        StrategyKind::Tribles128,
    ] {
        let stats = run_strategy(1234, kind, 20_000);
        assert_eq!(
            stats.collisions, 0,
            "{kind:?} collided at density far below its period"
        );
    }
}
