//! Statistical differential tests: the full simulator stack against
//! the paper's closed-form model (Eq. 2–4), and the fault-injection
//! matrix's loss accounting.
//!
//! These assert on the same provenance documents the `fault_matrix`
//! binary emits, at quick effort, so CI and the integration suite
//! judge exactly the data a user can regenerate with
//! `cargo run -p retri-bench --release --bin fault_matrix -- --quick`.
//! The trial seeds are fully deterministic, so every number below is
//! reproducible bit-for-bit.

use std::sync::OnceLock;

use retri_bench::differential::{self, DifferentialCell, FaultScenarioCell};
use retri_bench::EffortLevel;

/// The sweep is deterministic, so every test asserts against one shared
/// run instead of re-simulating the grid per test.
fn sweep() -> &'static [DifferentialCell] {
    static SWEEP: OnceLock<Vec<DifferentialCell>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        differential::differential_sweep(EffortLevel::Quick, 1)
            .points()
            .cloned()
            .collect()
    })
}

fn matrix() -> &'static [FaultScenarioCell] {
    static MATRIX: OnceLock<Vec<FaultScenarioCell>> = OnceLock::new();
    MATRIX.get_or_init(|| {
        differential::fault_matrix(EffortLevel::Quick, 1)
            .points()
            .cloned()
            .collect()
    })
}

#[test]
fn eq4_lands_inside_the_wilson_interval_for_every_uniform_cell() {
    for cell in sweep().iter().filter(|c| c.policy == "uniform") {
        assert!(cell.attempts > 100, "cell must gather real data: {cell:?}");
        assert!(
            cell.model_within_interval,
            "Eq. 4 = {:.4} escaped the 99% Wilson interval [{:.4}, {:.4}]: {cell:?}",
            cell.predicted, cell.wilson_low, cell.wilson_high
        );
        // The interval must also cover the raw observed proportion by
        // construction — a broken aggregation would break this first.
        assert!(cell.wilson_low <= cell.observed && cell.observed <= cell.wilson_high);
    }
}

#[test]
fn listening_beats_the_uniform_bound_at_high_density() {
    let cells = sweep();
    let listening: Vec<&DifferentialCell> =
        cells.iter().filter(|c| c.policy == "listening").collect();
    assert!(
        !listening.is_empty(),
        "the sweep must include listening cells"
    );
    for cell in listening {
        if cell.transmitters >= 8 {
            assert!(
                cell.beats_uniform_bound,
                "Section 3.2: listening must beat Eq. 4 at T >= 8: {cell:?}"
            );
        }
    }
}

#[test]
fn framing_matches_the_exact_wire_layout() {
    // Eq. 2 under the real header layout: the measured useful-bits
    // ratio (preamble stripped) must match the Fragmenter's exact bit
    // count — the drain window leaves no partially sent packets.
    for cell in sweep() {
        assert!(
            (cell.framing_observed - cell.framing_predicted).abs() < 1e-3,
            "measured framing drifted from the wire layout: {cell:?}"
        );
    }
}

#[test]
fn efficiency_composes_framing_with_eq4() {
    // Eq. 3: end-to-end efficiency is framing times success
    // probability. For uniform cells the composition holds within the
    // serialization bias; listening cells exceed it (that is the
    // point of the heuristic).
    for cell in sweep() {
        if cell.policy == "uniform" {
            assert!(
                (cell.efficiency_observed - cell.efficiency_predicted).abs() < 0.03,
                "Eq. 3 composition broke: {cell:?}"
            );
        } else {
            assert!(
                cell.efficiency_observed >= cell.efficiency_predicted,
                "listening efficiency must beat the uniform composition: {cell:?}"
            );
        }
    }
}

#[test]
fn fault_matrix_accounts_for_every_injected_fault() {
    let cells = matrix();
    let get = |name: &str| {
        cells
            .iter()
            .find(|c| c.scenario == name)
            .unwrap_or_else(|| panic!("scenario {name} missing"))
    };

    // Clean baseline: no fault counters, healthy delivery; the only
    // losses are genuine identifier collisions.
    let clean = get("clean");
    assert_eq!(clean.decode_errors, 0, "{clean:?}");
    assert_eq!(clean.truth_crc_rejections, 0, "{clean:?}");
    assert_eq!(clean.corrupted_deliveries, 0, "{clean:?}");
    assert_eq!(clean.fault_erasures, 0, "{clean:?}");
    assert_eq!(clean.partition_losses, 0, "{clean:?}");
    assert!(clean.delivery_ratio > 0.9, "{clean:?}");

    // Bit errors flow through real decode: parse failures, CRC
    // rejections, and identifier/bounds conflicts all fire — and the
    // conflicts exceed the clean baseline, so corruption demonstrably
    // reaches the reassembler's conflict accounting.
    for name in ["iid_ber", "burst"] {
        let noisy = get(name);
        assert!(noisy.corrupted_deliveries > 0, "{noisy:?}");
        assert!(
            noisy.decode_errors > 0,
            "some flips break parsing: {noisy:?}"
        );
        assert!(
            noisy.truth_crc_rejections > 0,
            "some flips survive parse and die at the CRC: {noisy:?}"
        );
        assert!(
            noisy.identifier_conflicts > clean.identifier_conflicts,
            "corrupted identifiers must surface as conflicts: {noisy:?}"
        );
        assert!(noisy.delivery_ratio < clean.delivery_ratio, "{noisy:?}");
    }

    // Erasures drop frames whole: no corruption, no parse errors, but
    // stranded assemblies and a visible erasure count.
    let erasure = get("erasure");
    assert!(erasure.fault_erasures > 0, "{erasure:?}");
    assert_eq!(erasure.corrupted_deliveries, 0, "{erasure:?}");
    assert_eq!(erasure.decode_errors, 0, "{erasure:?}");
    assert!(erasure.delivery_ratio < clean.delivery_ratio, "{erasure:?}");

    // Churn leaves the channel itself clean; the dead sender simply
    // stops contributing and recovers on revival.
    let churn = get("churn");
    assert_eq!(churn.corrupted_deliveries, 0, "{churn:?}");
    assert_eq!(churn.fault_erasures, 0, "{churn:?}");
    assert!(churn.delivery_ratio > 0.9, "{churn:?}");

    // Partitions sever deliveries without touching frame contents.
    let partition = get("partition");
    assert!(partition.partition_losses > 0, "{partition:?}");
    assert_eq!(partition.corrupted_deliveries, 0, "{partition:?}");
    assert!(
        partition.delivery_ratio < clean.delivery_ratio,
        "{partition:?}"
    );
}
