//! Selector taxonomy: every identifier-selection family scored on
//! correctness, security, and performance by an adversarial
//! differential harness.
//!
//! The RETRI paper argues for *random* ephemeral identifiers; the
//! obvious alternatives are structured draws (sequential counters,
//! keyed permutations) and air-aware heuristics (listening). This
//! sweep puts all five families through the same Section 5.1 testbed
//! and scores each on three axes:
//!
//! - **Correctness** — a clean `H = 8, T = 5, D = 80` cell (the
//!   differential sweep's proven Eq. 4 containment point). The
//!   observed transaction-success proportion gets a 99% Wilson
//!   interval; for the uniform policy Eq. 4 must land inside it (a
//!   [`Verdict`] allowing `SERIALIZATION_BIAS_ALLOWANCE`). Structured
//!   and listening policies legitimately *beat* the uniform model, so
//!   the verdict is recorded but only asserted for uniform.
//! - **Security** — a pair of `H = 16` cells, one clean and one with
//!   an identifier-predicting [`retri_netsim::adversary::Eavesdropper`]
//!   parked in the mesh. The attacker observes identifiers on the air
//!   and sprays conflicting introductions under predicted next-ids
//!   (see [`retri_aff::adversary`]). The score is the attacker-forced
//!   loss uplift: `uplift_significant` holds when the attacked cell's
//!   99% Wilson lower bound on the loss rate clears the clean cell's
//!   rate plus `STRAY_FIRE_ALLOWANCE`. Sequential selection should
//!   be crippled; uniform and permutation draws are unpredictable
//!   without the key, so their uplift must *not* be significant.
//! - **Performance** — the structural self-collision count over one
//!   full identifier-space window of pure draws (a permutation must
//!   show zero; uniform shows the birthday pile-up), the measured
//!   end-to-end efficiency `E` from the correctness cell (Eq. 1), and
//!   the per-draw cost in nanoseconds ([`select_cost_ns`] — printed on
//!   the scorecard but deliberately absent from the provenance
//!   document, which stays byte-deterministic).
//!
//! Why `H = 16` for the security cells: the uplift verdict needs the
//! attack signal to dominate *accidental* collisions. At 16 bits a
//! clean cell's birthday losses are negligible and a spray that merely
//! guesses blindly hits a live transaction with probability `~2^-16`
//! per forgery, so any significant uplift is attributable to
//! *prediction* — which is exactly the property separating sequential
//! from uniform and permutation selection.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use retri::permutation::{PermutationSelector, SequentialSelector};
use retri::select::{AdaptiveListeningSelector, IdSelector, ListeningSelector, UniformSelector};
use retri::IdentifierSpace;
use retri_aff::{SelectorPolicy, Testbed};
use retri_model::stats::{Side, Verdict, Z_99};
use retri_model::{p_success, Density, IdBits};
use retri_netsim::SimTime;

use crate::differential::SERIALIZATION_BIAS_ALLOWANCE;
use crate::harness::{self, Provenance};
use crate::EffortLevel;

/// Identifier width of the correctness cells: the differential sweep's
/// best-calibrated Eq. 4 containment point (`H = 8, T = 5, D = 80`).
pub const CORRECTNESS_BITS: u8 = 8;

/// Identifier width of the security cells. See the module docs: wide
/// enough that accidental (non-predicted) forgery hits are negligible,
/// so significant uplift isolates *predictability*.
pub const SECURITY_BITS: u8 = 16;

/// Slack added to the clean loss rate before an attacked cell's Wilson
/// lower bound counts as significant uplift. Guards the verdict
/// against stray forgery hits (a blind forgery still lands on a live
/// transaction with probability `~2^-H` per injection) and run-length
/// noise in the clean baseline.
pub(crate) const STRAY_FIRE_ALLOWANCE: f64 = 0.02;

/// Listening-policy window used across the taxonomy (matches the
/// figure sweeps' default).
const LISTENING_WINDOW: usize = 10;

/// Adaptive-policy concurrency horizon, µs (matches the differential
/// sweep's listening cells).
const ADAPTIVE_TTL_MICROS: u64 = 400_000;

/// One selector family's full scorecard row.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SelectorScore {
    /// Policy name ("uniform" / "listening" / "adaptive" /
    /// "permutation" / "sequential").
    pub policy: String,

    // --- correctness axis (clean, H = CORRECTNESS_BITS, T = 5) ---
    /// Identifier width of the correctness cell.
    pub correctness_bits: u8,
    /// Ground-truth deliveries across the correctness trials.
    pub attempts: u64,
    /// AFF-pipeline deliveries across the correctness trials.
    pub successes: u64,
    /// `successes / attempts`.
    pub observed: f64,
    /// Eq. 4 at `(CORRECTNESS_BITS, T)` — the *uniform* model; other
    /// policies may legitimately beat it.
    pub predicted: f64,
    /// 99% Wilson lower bound around `observed`.
    pub wilson_low: f64,
    /// 99% Wilson upper bound around `observed`.
    pub wilson_high: f64,
    /// Eq. 4 inside the interval, allowing
    /// `SERIALIZATION_BIAS_ALLOWANCE` below it. Asserted only for the
    /// uniform policy.
    pub eq4_within_interval: bool,

    // --- security axis (H = SECURITY_BITS, clean vs. attacked) ---
    /// Identifier width of the security cells.
    pub security_bits: u8,
    /// Ground-truth deliveries in the clean security cell.
    pub clean_attempts: u64,
    /// Collision losses (truth minus AFF deliveries) in the clean cell.
    pub clean_losses: u64,
    /// `clean_losses / clean_attempts`.
    pub clean_loss_rate: f64,
    /// Ground-truth deliveries in the attacked cell.
    pub attacked_attempts: u64,
    /// Collision losses in the attacked cell.
    pub attacked_losses: u64,
    /// `attacked_losses / attacked_attempts`.
    pub attacked_loss_rate: f64,
    /// 99% Wilson lower bound on the attacked loss rate.
    pub attacked_wilson_low: f64,
    /// 99% Wilson upper bound on the attacked loss rate.
    pub attacked_wilson_high: f64,
    /// The attack verdict: the attacked Wilson lower bound clears the
    /// clean rate plus `STRAY_FIRE_ALLOWANCE`.
    pub uplift_significant: bool,
    /// Forged frames the eavesdropper injected, summed over trials.
    pub frames_injected: u64,
    /// Identifier predictions the eavesdropper made, summed over trials.
    pub predictions_made: u64,

    // --- performance / structure axis ---
    /// Length of the pure-draw window: the full `SECURITY_BITS` space.
    pub window_draws: u64,
    /// Repeated identifiers within that window. Zero for a
    /// permutation (and for a sequential counter, which is the cyclic
    /// permutation); large for memoryless draws (birthday effect).
    pub self_collisions_in_window: u64,
    /// Measured end-to-end efficiency `E` (Eq. 1) from the
    /// correctness cell.
    pub efficiency_observed: f64,
}

/// Which testbed configuration a trial cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    /// Clean channel at [`CORRECTNESS_BITS`].
    Correctness,
    /// Clean channel at [`SECURITY_BITS`] — the attack baseline.
    SecurityClean,
    /// [`SECURITY_BITS`] with the eavesdropper in the mesh.
    SecurityAttacked,
}

const KINDS: [CellKind; 3] = [
    CellKind::Correctness,
    CellKind::SecurityClean,
    CellKind::SecurityAttacked,
];

/// The selector families under test, in scorecard order.
fn policies() -> Vec<(&'static str, SelectorPolicy)> {
    vec![
        ("uniform", SelectorPolicy::Uniform),
        (
            "listening",
            SelectorPolicy::Listening {
                window: LISTENING_WINDOW,
            },
        ),
        (
            "adaptive",
            SelectorPolicy::AdaptiveListening {
                concurrency_ttl_micros: ADAPTIVE_TTL_MICROS,
            },
        ),
        ("permutation", SelectorPolicy::Permutation),
        ("sequential", SelectorPolicy::Sequential),
    ]
}

/// Builds the pure (no-simulator) selector for a policy at
/// [`SECURITY_BITS`], for the structural and timing measurements.
fn pure_selector(name: &str, space: IdentifierSpace) -> Box<dyn IdSelector> {
    match name {
        "uniform" => Box::new(UniformSelector::new(space)),
        "listening" => Box::new(ListeningSelector::new(space, LISTENING_WINDOW)),
        "adaptive" => Box::new(AdaptiveListeningSelector::new(space, ADAPTIVE_TTL_MICROS)),
        "permutation" => Box::new(PermutationSelector::new(space)),
        "sequential" => Box::new(SequentialSelector::new(space)),
        other => panic!("unknown policy {other}"),
    }
}

/// Counts repeated identifiers across one full-space window of draws.
///
/// Deterministic: the RNG is seeded from the harness's seed schedule,
/// so the count is reproducible bit-for-bit.
fn self_collisions(name: &str, policy_index: usize) -> (u64, u64) {
    let space = IdentifierSpace::new(SECURITY_BITS).expect("valid security width");
    let draws = space.len() as usize;
    let mut selector = pure_selector(name, space);
    let mut rng = StdRng::seed_from_u64(harness::trial_seed(
        "selector_taxonomy.window",
        policy_index,
        0,
    ));
    let mut seen = vec![false; draws];
    let mut repeats = 0u64;
    for _ in 0..draws {
        let id = selector.select(&mut rng).value() as usize;
        if seen[id] {
            repeats += 1;
        }
        seen[id] = true;
    }
    (draws as u64, repeats)
}

/// Mean nanoseconds per `select` call over a fresh full-space window
/// at [`SECURITY_BITS`].
///
/// Wall-clock timing is inherently machine- and run-dependent, so it
/// is **not** part of [`SelectorScore`] — the provenance document must
/// stay byte-deterministic from `(seed, configuration)` like every
/// other experiment artifact. The registry's `selector_taxonomy` entry
/// calls this separately for the printed scorecard's `ns/draw` column.
///
/// # Panics
///
/// Panics if `name` is not one of the taxonomy's policies.
#[must_use]
pub fn select_cost_ns(name: &str) -> f64 {
    let space = IdentifierSpace::new(SECURITY_BITS).expect("valid security width");
    let draws = space.len() as u64;
    let mut selector = pure_selector(name, space);
    let mut rng = StdRng::seed_from_u64(harness::trial_seed("selector_taxonomy.timing", 0, 0));
    let start = Instant::now();
    for _ in 0..draws {
        std::hint::black_box(selector.select(&mut rng));
    }
    start.elapsed().as_nanos() as f64 / draws as f64
}

/// Runs the taxonomy sweep and returns its scorecard provenance.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub fn taxonomy_sweep(level: EffortLevel, shards: usize) -> Provenance<SelectorScore> {
    // Cells are policy-major: [p0×3 kinds, p1×3 kinds, ...].
    let policies = policies();
    let cells: Vec<(&'static str, SelectorPolicy, CellKind)> = policies
        .iter()
        .flat_map(|&(name, policy)| KINDS.iter().map(move |&kind| (name, policy, kind)))
        .collect();
    let runs = harness::run_cells(
        "selector_taxonomy",
        level,
        &cells,
        |&(_, policy, kind), trial| {
            let bits = match kind {
                CellKind::Correctness => CORRECTNESS_BITS,
                _ => SECURITY_BITS,
            };
            let mut testbed = Testbed::paper(bits, policy);
            testbed.shards = shards;
            testbed.workload.stop = SimTime::from_secs(level.trial_secs());
            // Same rationale as the differential sweep: the default
            // 300 ms reassembly TTL evicts *live* buffers under load,
            // adding a loss mode neither Eq. 4 nor the attack model
            // accounts for.
            testbed.reassembly_ttl_micros = 1_000_000;
            if kind == CellKind::SecurityAttacked {
                testbed = testbed.with_adversary();
            }
            testbed.run(trial.seed)
        },
    );

    let reference = Testbed::paper(CORRECTNESS_BITS, SelectorPolicy::Uniform);
    let predicted = p_success(
        IdBits::new(CORRECTNESS_BITS).expect("valid width"),
        Density::new(reference.transmitters as u64).expect("positive density"),
    );
    let packet_bits = reference.workload.packet_bytes as f64 * 8.0;

    let mut provenance = Provenance::new("selector_taxonomy", level);
    for (policy_index, &(name, _)) in policies.iter().enumerate() {
        let base = policy_index * KINDS.len();
        let correctness = &runs[base];
        let clean = &runs[base + 1];
        let attacked = &runs[base + 2];

        let attempts: u64 = correctness.values.iter().map(|r| r.truth_delivered).sum();
        let successes: u64 = correctness.values.iter().map(|r| r.aff_delivered).sum();
        let total_bits: u64 = correctness.values.iter().map(|r| r.total_bits_sent).sum();
        let observed = successes as f64 / attempts as f64;
        let eq4 = Verdict::of(successes, attempts, Z_99, predicted)
            .allowing(SERIALIZATION_BIAS_ALLOWANCE);

        let clean_attempts: u64 = clean.values.iter().map(|r| r.truth_delivered).sum();
        let clean_successes: u64 = clean.values.iter().map(|r| r.aff_delivered).sum();
        let clean_losses = clean_attempts - clean_successes;
        let clean_loss_rate = clean_losses as f64 / clean_attempts as f64;

        let attacked_attempts: u64 = attacked.values.iter().map(|r| r.truth_delivered).sum();
        let attacked_successes: u64 = attacked.values.iter().map(|r| r.aff_delivered).sum();
        let attacked_losses = attacked_attempts - attacked_successes;
        // The slack raises the clean rate instead of lowering the
        // bound, so this reads `low > clean + STRAY_FIRE_ALLOWANCE`.
        let floor = clean_loss_rate + STRAY_FIRE_ALLOWANCE;
        let uplift = Verdict::of(attacked_losses, attacked_attempts, Z_99, floor);
        let stats = attacked
            .values
            .iter()
            .filter_map(|r| r.adversary)
            .fold((0u64, 0u64), |(inj, pred), s| {
                (inj + s.frames_injected, pred + s.predictions_made)
            });

        let (window_draws, repeats) = self_collisions(name, policy_index);

        // One seed vector per policy row, in cell order, so the
        // provenance names every trial that fed the row.
        let mut seeds = correctness.seeds.clone();
        seeds.extend_from_slice(&clean.seeds);
        seeds.extend_from_slice(&attacked.seeds);

        provenance.push_cell(
            seeds,
            SelectorScore {
                policy: name.to_string(),
                correctness_bits: CORRECTNESS_BITS,
                attempts,
                successes,
                observed,
                predicted,
                wilson_low: eq4.low,
                wilson_high: eq4.high,
                eq4_within_interval: eq4.inside(),
                security_bits: SECURITY_BITS,
                clean_attempts,
                clean_losses,
                clean_loss_rate,
                attacked_attempts,
                attacked_losses,
                attacked_loss_rate: attacked_losses as f64 / attacked_attempts as f64,
                attacked_wilson_low: uplift.low,
                attacked_wilson_high: uplift.high,
                uplift_significant: uplift.side() == Side::Below,
                frames_injected: stats.0,
                predictions_made: stats.1,
                window_draws,
                self_collisions_in_window: repeats,
                efficiency_observed: successes as f64 * packet_bits / total_bits as f64,
            },
        );
    }
    provenance.with_run_metrics()
}

/// Asserts every scorecard verdict the taxonomy claims. Shared by the
/// registry's `selector_taxonomy` entry and the integration suite so CI
/// and a user-run sweep judge identical rules.
///
/// # Panics
///
/// Panics (with the offending row) if any verdict fails:
///
/// - every policy gathered real data on all three axes;
/// - the permutation selector shows **zero** self-collisions within
///   its full window, while uniform shows the birthday pile-up;
/// - the sequential selector suffers statistically significant
///   attacker-forced loss uplift;
/// - uniform and permutation do **not** — their draws are
///   unpredictable, so the attack must miss;
/// - the uniform correctness cell contains Eq. 4 in its 99% Wilson
///   interval.
pub fn assert_verdicts<'a>(scores: impl IntoIterator<Item = &'a SelectorScore>) {
    let scores: Vec<&SelectorScore> = scores.into_iter().collect();
    let row = |name: &str| -> &SelectorScore {
        scores
            .iter()
            .find(|s| s.policy == name)
            .unwrap_or_else(|| panic!("scorecard is missing the {name} row"))
    };

    for score in &scores {
        assert!(
            score.attempts > 100 && score.clean_attempts > 100 && score.attacked_attempts > 100,
            "cells must gather real data: {score:?}"
        );
    }

    let permutation = row("permutation");
    assert_eq!(
        permutation.self_collisions_in_window, 0,
        "a keyed permutation repeated an identifier inside its window: {permutation:?}"
    );
    let uniform = row("uniform");
    assert!(
        uniform.self_collisions_in_window > 0,
        "memoryless draws must show birthday repeats over a full window: {uniform:?}"
    );

    let sequential = row("sequential");
    assert!(
        sequential.uplift_significant,
        "the attacker failed to force significant loss on sequential ids: {sequential:?}"
    );
    assert!(
        sequential.frames_injected > 0 && sequential.predictions_made > 0,
        "the eavesdropper never engaged: {sequential:?}"
    );
    for name in ["uniform", "permutation"] {
        let score = row(name);
        assert!(
            !score.uplift_significant,
            "the attacker should not predict {name} ids, yet uplift is significant: {score:?}"
        );
    }

    assert!(
        uniform.eq4_within_interval,
        "Eq. 4 = {:.4} escaped the uniform 99% Wilson interval [{:.4}, {:.4}]: {uniform:?}",
        uniform.predicted, uniform.wilson_low, uniform.wilson_high
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_grid_is_policy_major_with_three_kinds_each() {
        let policies = policies();
        assert_eq!(policies.len(), 5);
        assert_eq!(KINDS.len(), 3);
        let names: Vec<&str> = policies.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "uniform",
                "listening",
                "adaptive",
                "permutation",
                "sequential"
            ]
        );
    }

    #[test]
    fn structural_window_separates_permutations_from_memoryless_draws() {
        let (draws, uniform_repeats) = self_collisions("uniform", 0);
        assert_eq!(draws, 1 << SECURITY_BITS);
        // Birthday effect: drawing n ids from an n-pool repeats
        // roughly 1/e of the time; anything near zero means the
        // measurement is broken.
        assert!(
            uniform_repeats > draws / 4,
            "uniform repeats {uniform_repeats} over {draws} draws"
        );
        let (_, permutation_repeats) = self_collisions("permutation", 3);
        assert_eq!(permutation_repeats, 0);
        let (_, sequential_repeats) = self_collisions("sequential", 4);
        assert_eq!(sequential_repeats, 0, "a counter is the cyclic permutation");
    }

    #[test]
    fn self_collision_counts_are_deterministic() {
        assert_eq!(
            self_collisions("listening", 1),
            self_collisions("listening", 1)
        );
    }

    #[test]
    fn every_policy_has_a_measurable_selection_cost() {
        for (name, _) in policies() {
            assert!(select_cost_ns(name) > 0.0, "{name} timed at zero");
        }
    }

    #[test]
    fn every_policy_has_a_pure_selector() {
        let space = IdentifierSpace::new(8).unwrap();
        for (name, _) in policies() {
            let mut selector = pure_selector(name, space);
            let mut rng = StdRng::seed_from_u64(7);
            let id = selector.select(&mut rng);
            assert!(space.contains(id), "{name} drew outside the space");
        }
    }

    #[test]
    #[should_panic(expected = "missing the permutation row")]
    fn assert_verdicts_rejects_incomplete_scorecards() {
        assert_verdicts([]);
    }
}
