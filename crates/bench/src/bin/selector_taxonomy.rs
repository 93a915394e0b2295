//! Selector-taxonomy scorecard: every identifier-selection family
//! scored on correctness, security, and performance.
//!
//! Runs the [`retri_bench::taxonomy`] sweep — five selector families
//! (uniform, listening, adaptive, permutation, sequential), each
//! through a clean Eq. 4 calibration cell, a clean `H = 16` security
//! baseline, and an adversarial cell with an identifier-predicting
//! eavesdropper spraying forged introductions — prints the three-axis
//! scorecard, and asserts every verdict the taxonomy claims
//! ([`retri_bench::taxonomy::assert_verdicts`]), so a failing claim
//! fails the process.
//!
//! Usage: `selector_taxonomy [--quick | --paper] [--json <path>]
//! [--obs] [--shards <n>]`.

use retri_bench::table::{self, f};
use retri_bench::{taxonomy, Cli};

fn main() {
    let cli = Cli::from_env(
        &["--quick", "--paper", "--json", "--obs", "--shards"],
        "usage: selector_taxonomy [--quick | --paper] [--json <path>] [--obs] [--shards <k>]",
    );
    let level = cli.effort;
    println!(
        "Selector taxonomy ({} trials x {} s per cell, 5 policies x 3 cells)\n",
        level.trials(),
        level.trial_secs()
    );
    let scorecard = taxonomy::taxonomy_sweep(level, cli.shards.unwrap_or(1));
    if let Some(path) = &cli.json {
        retri_bench::write_json(path, &scorecard);
    }

    let rows: Vec<Vec<String>> = scorecard
        .points()
        .map(|s| {
            vec![
                s.policy.clone(),
                f(s.observed),
                f(s.predicted),
                if s.policy == "uniform" {
                    if s.eq4_within_interval { "yes" } else { "NO" }.to_string()
                } else {
                    "n/a".to_string()
                },
                f(s.clean_loss_rate),
                f(s.attacked_loss_rate),
                format!(
                    "[{}, {}]",
                    f(s.attacked_wilson_low),
                    f(s.attacked_wilson_high)
                ),
                if s.uplift_significant { "UPLIFT" } else { "no" }.to_string(),
                s.self_collisions_in_window.to_string(),
                // Wall-clock, so measured outside the provenance
                // document (which must stay byte-deterministic).
                format!("{:.0}", taxonomy::select_cost_ns(&s.policy)),
                f(s.efficiency_observed),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(
            &[
                "policy",
                "observed",
                "Eq. 4",
                "in CI",
                "clean loss",
                "atk loss",
                "atk 99% Wilson",
                "uplift",
                "repeats",
                "ns/draw",
                "E",
            ],
            &rows,
        )
    );
    println!(
        "\nCorrectness: uniform must contain Eq. 4 in its Wilson interval.\n\
         Security: only the sequential row should show UPLIFT — the\n\
         eavesdropper predicts counters, not keyed or random draws.\n\
         Structure: repeats counts re-drawn ids over one full window\n\
         (a permutation must show 0; memoryless draws pile up).\n"
    );

    taxonomy::assert_verdicts(scorecard.points());
    println!("All scorecard verdicts hold.");
}
