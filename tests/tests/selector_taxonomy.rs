//! The selector-taxonomy scorecard, asserted end to end.
//!
//! These tests run the same quick sweep the `selector_taxonomy` binary
//! runs in CI (`cargo run -p retri-bench --release --bin
//! selector_taxonomy -- --quick`) and assert its verdicts plus the
//! structural property the scorecard's security axis depends on:
//! disabling the adversary leaves trials byte-identical.

use std::sync::OnceLock;

use retri_aff::{SelectorPolicy, Testbed};
use retri_bench::taxonomy::{self, SelectorScore, CORRECTNESS_BITS, SECURITY_BITS};
use retri_bench::EffortLevel;

/// The sweep is deterministic, so every test asserts against one
/// shared run instead of re-simulating the 15-cell grid per test.
fn scorecard() -> &'static [SelectorScore] {
    static SCORECARD: OnceLock<Vec<SelectorScore>> = OnceLock::new();
    SCORECARD.get_or_init(|| {
        taxonomy::taxonomy_sweep(EffortLevel::Quick, 1)
            .points()
            .cloned()
            .collect()
    })
}

#[test]
fn every_scorecard_verdict_holds_at_quick_effort() {
    taxonomy::assert_verdicts(scorecard());
}

#[test]
fn the_scorecard_covers_all_five_families_once() {
    let mut names: Vec<&str> = scorecard().iter().map(|s| s.policy.as_str()).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        [
            "adaptive",
            "listening",
            "permutation",
            "sequential",
            "uniform"
        ]
    );
    for score in scorecard() {
        assert_eq!(score.correctness_bits, CORRECTNESS_BITS);
        assert_eq!(score.security_bits, SECURITY_BITS);
        assert_eq!(score.window_draws, 1u64 << SECURITY_BITS);
        // Wall-clock cost is measured outside the (byte-deterministic)
        // scorecard; it must still be a real, positive timing.
        assert!(taxonomy::select_cost_ns(&score.policy) > 0.0);
    }
}

#[test]
fn the_attack_needs_predictions_to_matter() {
    // Every attacked cell hosts the same eavesdropper; it always
    // engages (hears frames, makes predictions, injects forgeries).
    // Only against the predictable counter do those forgeries land.
    for score in scorecard() {
        assert!(
            score.frames_injected > 0 && score.predictions_made > 0,
            "the eavesdropper never engaged in {score:?}"
        );
    }
    let sequential = scorecard()
        .iter()
        .find(|s| s.policy == "sequential")
        .expect("sequential row");
    for other in scorecard().iter().filter(|s| s.policy != "sequential") {
        assert!(
            sequential.attacked_loss_rate > other.attacked_loss_rate + 0.1,
            "sequential should lose far more than {}: {:.4} vs {:.4}",
            other.policy,
            sequential.attacked_loss_rate,
            other.attacked_loss_rate
        );
    }
}

#[test]
fn disabling_the_adversary_restores_the_clean_trial_exactly() {
    // The security baseline is only meaningful if `adversary: None`
    // reproduces the adversary-unaware testbed bit for bit — the
    // eavesdropper must never touch the simulator's trial RNG streams.
    let clean = Testbed::paper(SECURITY_BITS, SelectorPolicy::Sequential);
    let mut disabled = clean.clone().with_adversary();
    disabled.adversary = None;
    for seed in [3, 17] {
        assert_eq!(clean.run(seed), disabled.run(seed));
    }
}
