//! Byte-identity regression against the golden quick-provenance
//! capture: with observability *disabled* (the default), every entry of
//! the experiment registry must serialize exactly the JSON committed
//! under `tests/golden/quick-provenance/`, on one shard and on four —
//! proving the obs subsystem's disabled path changes nothing, not even
//! serialization, and that the sharded engine perturbs no document.
//!
//! This file deliberately never calls
//! `retri_bench::harness::enable_run_metrics()`; the flag is
//! process-global, and keeping these tests in their own integration
//! binary guarantees no other test can flip it under us.

use retri_aff::{SelectorPolicy, Testbed};
use retri_bench::experiments::{self, EXPERIMENTS};
use retri_bench::EffortLevel;

fn golden(name: &str) -> String {
    let path = format!(
        "{}/golden/quick-provenance/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("cannot read {path}: {err}"))
}

/// Runs the registered experiment `name` at quick effort on `shards`
/// shards and asserts its document matches the golden file.
fn assert_golden(name: &str, shards: usize) {
    let experiment = experiments::find(name).expect("registered experiment");
    let document = (experiment.run)(EffortLevel::Quick, shards).json;
    assert!(
        !document.contains("\"obs\""),
        "run metrics must be off by default"
    );
    assert!(
        document == golden(name),
        "{name} provenance on {shards} shard(s) drifted from the golden capture"
    );
}

#[test]
fn analytic_fig1_is_byte_identical_to_golden() {
    assert_golden("fig1", 1);
}

#[test]
fn simulated_ablation_lengths_is_byte_identical_to_golden() {
    // A full simulated sweep through the parallel harness: seeds,
    // trial results, and serialization must all reproduce the capture
    // with observability off.
    assert_golden("ablation_lengths", 1);
}

#[test]
fn every_document_is_byte_identical_to_golden_on_one_shard() {
    for experiment in &EXPERIMENTS {
        assert_golden(experiment.name, 1);
    }
}

#[test]
fn every_document_is_byte_identical_to_golden_on_four_shards() {
    for experiment in &EXPERIMENTS {
        assert_golden(experiment.name, 4);
    }
}

#[test]
fn golden_sweeps_run_with_the_adversary_disabled() {
    // The golden capture predates the adversary subsystem and the
    // structured selector families. The byte-identity tests in this
    // file re-verify the capture *with the new code compiled in*, so
    // they prove the additions are inert when unused — but only
    // because the defaults keep them unused. Pin those defaults: a
    // paper testbed must come up with no adversary (and the capture's
    // sweeps never select the permutation or sequential policies).
    let testbed = Testbed::paper(8, SelectorPolicy::Uniform);
    assert!(
        testbed.adversary.is_none(),
        "Testbed::paper grew a default adversary; the golden capture \
         is no longer measuring the documented configuration"
    );
}

#[test]
fn the_golden_capture_is_untouched() {
    // The capture holds exactly one document per registered experiment:
    // a new experiment cannot ship without its golden file, and a
    // golden file cannot outlive its experiment.
    let dir = format!("{}/golden/quick-provenance", env!("CARGO_MANIFEST_DIR"));
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|err| panic!("cannot read {dir}: {err}"))
        .map(|entry| {
            let name = entry
                .expect("readable entry")
                .file_name()
                .into_string()
                .expect("utf-8");
            name.strip_suffix(".json")
                .unwrap_or_else(|| panic!("{name} is not a JSON document"))
                .to_string()
        })
        .collect();
    stems.sort();
    let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    names.sort_unstable();
    assert_eq!(stems, names);
}
