//! Experiment harness for the RETRI reproduction.
//!
//! One module per evaluation artifact:
//!
//! - [`figures`] — data generation for the paper's Figures 1–4. Each
//!   `figN_*` function returns plain data; the `src/bin/figN` binaries
//!   print it as the table the figure plots.
//! - [`ablations`] — the design-choice studies listed in DESIGN.md:
//!   listening-window size, hidden terminals, non-uniform transaction
//!   lengths, dynamic-allocation churn overhead, and density scaling.
//! - [`differential`] — the statistical differential tests proving the
//!   simulator against the paper's Eq. 2–4, and the fault-injection
//!   scenario matrix behind the `fault_matrix` binary.
//! - [`harness`] — the deterministic parallel trial executor, the
//!   single seed-derivation function ([`harness::trial_seed`]), and the
//!   `--json` provenance document every binary emits.
//! - [`table`] — plain-text table formatting shared by the binaries.
//! - [`taxonomy`] — the selector-taxonomy scorecard behind the
//!   `selector_taxonomy` binary: every identifier-selection family
//!   scored on correctness (Eq. 4 containment), security
//!   (attacker-forced collision uplift), and performance.
//!
//! Every experiment takes an [`EffortLevel`] so the same code serves
//! quick CI smoke runs, the standard reproduction, and the paper's full
//! parameters (ten 2-minute trials per point).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod audit;
pub mod differential;
pub mod figures;
pub mod harness;
pub mod table;
pub mod taxonomy;

/// How much simulation to spend per experiment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffortLevel {
    /// 2 trials × 15 simulated seconds — smoke test / CI.
    Quick,
    /// 5 trials × 60 simulated seconds — the default reproduction.
    Standard,
    /// 10 trials × 120 simulated seconds — the paper's exact protocol
    /// (Section 5.1).
    Paper,
}

impl EffortLevel {
    /// Trials per experiment point.
    #[must_use]
    pub fn trials(self) -> u64 {
        match self {
            EffortLevel::Quick => 2,
            EffortLevel::Standard => 5,
            EffortLevel::Paper => 10,
        }
    }

    /// Simulated seconds per trial.
    #[must_use]
    pub fn trial_secs(self) -> u64 {
        match self {
            EffortLevel::Quick => 15,
            EffortLevel::Standard => 60,
            EffortLevel::Paper => 120,
        }
    }

    /// Lowercase name, used in provenance documents.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EffortLevel::Quick => "quick",
            EffortLevel::Standard => "standard",
            EffortLevel::Paper => "paper",
        }
    }

    /// Parses `--quick` / `--paper` from argv; anything else is the
    /// standard effort.
    #[must_use]
    pub fn from_args() -> Self {
        let mut level = EffortLevel::Standard;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => level = EffortLevel::Quick,
                "--paper" => level = EffortLevel::Paper,
                _ => {}
            }
        }
        level
    }
}

/// Parses `--obs` from argv and, when present, enables the process-wide
/// run-metrics registry ([`harness::enable_run_metrics`]): every sweep
/// then records per-trial wall-clock and throughput histograms, and
/// each provenance document embeds its own metrics snapshot under an
/// `"obs"` key. Without the flag this is a no-op and the emitted JSON
/// is byte-identical to an un-instrumented build.
pub fn obs_from_args() -> bool {
    let on = std::env::args().skip(1).any(|arg| arg == "--obs");
    if on {
        harness::enable_run_metrics();
    }
    on
}

/// Parses `--shards <n>` from argv (falling back to the
/// `RETRI_BENCH_SHARDS` environment variable, then to 1) and installs
/// it as the process-wide default shard count for every
/// [`retri_aff::Testbed`] built afterwards. Trial output is invariant
/// in the shard count — the sharded engine's event stream is
/// shard-count-independent by construction — so this flag only trades
/// threads for wall-clock.
///
/// # Panics
///
/// Panics if `--shards` is present without a positive integer value.
pub fn shards_from_args() -> usize {
    let mut shards = std::env::var("RETRI_BENCH_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--shards" {
            let value = args.next().expect("--shards needs a value");
            shards = Some(
                value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .expect("--shards must be a positive integer"),
            );
        }
    }
    let shards = shards.unwrap_or(1);
    retri_aff::set_default_shards(shards);
    shards
}

/// Parses `--json <path>` from argv: where to additionally write the
/// experiment's data as JSON for plotting pipelines.
///
/// # Panics
///
/// Panics if `--json` is present without a value.
#[must_use]
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    json_path_from(std::env::args().skip(1))
}

/// Pure resolution of the `--json` path from an argument list. Split
/// from [`json_path_from_args`] so the parsing is unit testable without
/// the process's own argv.
///
/// # Panics
///
/// Panics if `--json` is the last argument: a flag that asks for a file
/// and silently writes none would hide a broken pipeline.
#[must_use]
fn json_path_from<I: IntoIterator<Item = String>>(args: I) -> Option<std::path::PathBuf> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let value = args.next().expect("--json needs a value");
            return Some(std::path::PathBuf::from(value));
        }
    }
    None
}

/// Serializes `data` as pretty JSON to `path`, reporting success on
/// stderr so it does not pollute the table output.
///
/// # Panics
///
/// Panics if the file cannot be written — a misspelled `--json` path
/// should fail loudly, not silently drop the data.
pub fn write_json<T: serde::Serialize>(path: &std::path::Path, data: &T) {
    let file = std::fs::File::create(path)
        .unwrap_or_else(|err| panic!("cannot create {}: {err}", path.display()));
    serde_json::to_writer_pretty(file, data)
        .unwrap_or_else(|err| panic!("cannot serialize to {}: {err}", path.display()));
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_levels_are_ordered() {
        assert!(EffortLevel::Quick.trials() < EffortLevel::Paper.trials());
        assert!(EffortLevel::Quick.trial_secs() < EffortLevel::Paper.trial_secs());
        assert_eq!(EffortLevel::Paper.trials(), 10);
        assert_eq!(EffortLevel::Paper.trial_secs(), 120);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn json_path_reads_the_value_after_the_flag() {
        assert_eq!(
            json_path_from(args(&["--quick", "--json", "out.json"])),
            Some(std::path::PathBuf::from("out.json"))
        );
    }

    #[test]
    fn json_path_is_none_without_the_flag() {
        assert_eq!(json_path_from(args(&["--quick", "--shards", "4"])), None);
    }

    #[test]
    #[should_panic(expected = "--json needs a value")]
    fn json_flag_without_a_value_panics() {
        let _ = json_path_from(args(&["--quick", "--json"]));
    }
}
