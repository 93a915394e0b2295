//! Experiment harness for the RETRI reproduction.
//!
//! One module per evaluation artifact:
//!
//! - [`experiments`] — the registry behind the `experiments` binary
//!   and the golden test: one entry per provenance document, returning
//!   the document's JSON and the table it prints. Every evaluation
//!   document comes from it.
//! - [`figures`] — data generation for the paper's Figures 1–4, which
//!   the registry prints as the tables the figures plot.
//! - [`ablations`] — the design-choice studies listed in DESIGN.md:
//!   listening-window size, hidden terminals, non-uniform transaction
//!   lengths, dynamic-allocation churn overhead, and density scaling.
//! - [`differential`] — the statistical differential tests proving the
//!   simulator against the paper's Eq. 2–4 and the fault-injection
//!   scenario matrix (the registry's `fault_matrix` document), and the
//!   observed fault-matrix trials the `trace_report` binary audits.
//! - [`audit`] — the transaction-lifecycle audit of one observed trial.
//! - [`harness`] — the deterministic parallel trial executor, the
//!   single seed-derivation function (`harness::trial_seed`), and the
//!   provenance document every experiment emits.
//! - [`table`] — plain-text table formatting shared by the binaries.
//! - [`taxonomy`] — the selector-taxonomy scorecard (the registry's
//!   `selector_taxonomy` document): every identifier-selection family
//!   scored on correctness (Eq. 4 containment), security
//!   (attacker-forced collision uplift), and performance.
//!
//! Every experiment takes an [`EffortLevel`] so the same code serves
//! quick CI smoke runs, the standard reproduction, and the paper's full
//! parameters (ten 2-minute trials per point), and a shard count that
//! changes wall-clock only. [`Cli`] parses both for every binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod audit;
pub mod differential;
pub mod experiments;
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
}

/// The command line of a bench binary.
///
/// One parser serves every binary: each passes the flags it accepts,
/// and an argument outside that list — a typo such as `--quik` — fails
/// the run instead of silently selecting the standard effort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// `--quick` / `--paper`; [`EffortLevel::Standard`] without either.
    pub effort: EffortLevel,
    /// `--obs`: embed a run-metrics snapshot in every provenance
    /// document ([`harness::enable_run_metrics`]).
    pub obs: bool,
    /// `--shards <k>`: spatial shards per simulation. Output is
    /// invariant in it; it only trades threads for wall-clock.
    pub shards: Option<usize>,
    /// `--json <path>`: where to write the provenance.
    pub json: Option<std::path::PathBuf>,
    /// `--trace <dir>`: where to write trace recordings.
    pub trace: Option<std::path::PathBuf>,
    /// `--only <name>`: the single experiment to run.
    pub only: Option<String>,
}

impl Cli {
    /// Parses `args` (the arguments after the program name), accepting
    /// only the flags in `accepts`.
    ///
    /// # Panics
    ///
    /// Panics with `usage` appended on an argument outside `accepts`,
    /// with `<flag> needs a value` when a value-taking flag has none
    /// ([`next_value`]), and when `--shards` is not a positive integer.
    #[must_use]
    pub fn parse(args: &[String], accepts: &[&str], usage: &str) -> Self {
        let mut cli = Cli {
            effort: EffortLevel::Standard,
            obs: false,
            shards: None,
            json: None,
            trace: None,
            only: None,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_str();
            assert!(accepts.contains(&arg), "unknown argument `{arg}`\n{usage}");
            match arg {
                "--quick" => cli.effort = EffortLevel::Quick,
                "--paper" => cli.effort = EffortLevel::Paper,
                "--obs" => cli.obs = true,
                "--shards" => {
                    let value = next_value(&mut iter, arg);
                    let shards = value.parse::<usize>().ok().filter(|&n| n >= 1);
                    cli.shards = Some(shards.unwrap_or_else(|| {
                        panic!("--shards must be a positive integer, not `{value}`")
                    }));
                }
                "--json" => cli.json = Some(next_value(&mut iter, arg).into()),
                "--trace" => cli.trace = Some(next_value(&mut iter, arg).into()),
                "--only" => cli.only = Some(next_value(&mut iter, arg).to_string()),
                _ => panic!("unknown argument `{arg}`\n{usage}"),
            }
        }
        cli
    }

    /// [`Cli::parse`] over the process's own arguments. With `--obs` it
    /// also enables the process-wide run-metrics registry
    /// ([`harness::enable_run_metrics`]); without it the emitted JSON is
    /// byte-identical to an un-instrumented build.
    ///
    /// # Panics
    ///
    /// As [`Cli::parse`].
    #[must_use]
    pub fn from_env(accepts: &[&str], usage: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let cli = Cli::parse(&args, accepts, usage);
        if cli.obs {
            harness::enable_run_metrics();
        }
        cli
    }
}

/// The value of `flag`: the next argument from `args`.
///
/// # Panics
///
/// Panics with `<flag> needs a value` if `args` is exhausted or the next
/// argument is itself a flag: a flag that asks for a file and silently
/// writes none would hide a broken pipeline.
pub fn next_value<'a>(args: &mut impl Iterator<Item = &'a String>, flag: &str) -> &'a str {
    match args.next() {
        Some(value) if !value.starts_with("--") => value,
        _ => panic!("{flag} needs a value"),
    }
}

/// Serializes `data` as pretty JSON to `path` ([`write_file`]).
///
/// # Panics
///
/// Panics if `data` cannot be serialized or the file cannot be written.
pub fn write_json<T: serde::Serialize>(path: &std::path::Path, data: &T) {
    let text = serde_json::to_string_pretty(data)
        .unwrap_or_else(|err| panic!("cannot serialize to {}: {err}", path.display()));
    write_file(path, &text);
}

/// Writes `text` to `path`, reporting success on stderr so it does not
/// pollute the table output.
///
/// # Panics
///
/// Panics if the file cannot be written — a misspelled `--json` path
/// should fail loudly, not silently drop the data.
pub fn write_file(path: &std::path::Path, text: &str) {
    std::fs::write(path, text)
        .unwrap_or_else(|err| panic!("cannot write {}: {err}", path.display()));
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

    const ALL: [&str; 7] = [
        "--quick", "--paper", "--obs", "--shards", "--json", "--trace", "--only",
    ];

    fn parse(list: &[&str]) -> Cli {
        Cli::parse(&args(list), &ALL, "usage: test")
    }

    #[test]
    fn no_arguments_is_the_standard_effort_and_nothing_else() {
        assert_eq!(
            parse(&[]),
            Cli {
                effort: EffortLevel::Standard,
                obs: false,
                shards: None,
                json: None,
                trace: None,
                only: None,
            }
        );
    }

    #[test]
    fn every_flag_is_read() {
        let cli = parse(&[
            "--quick", "--obs", "--shards", "4", "--json", "out", "--trace", "t", "--only", "fig1",
        ]);
        assert_eq!(cli.effort, EffortLevel::Quick);
        assert!(cli.obs);
        assert_eq!(cli.shards, Some(4));
        assert_eq!(cli.json, Some(std::path::PathBuf::from("out")));
        assert_eq!(cli.trace, Some(std::path::PathBuf::from("t")));
        assert_eq!(cli.only.as_deref(), Some("fig1"));
        assert_eq!(parse(&["--paper"]).effort, EffortLevel::Paper);
    }

    #[test]
    fn json_path_reads_the_value_after_the_flag() {
        assert_eq!(
            parse(&["--quick", "--json", "out.json"]).json,
            Some(std::path::PathBuf::from("out.json"))
        );
    }

    #[test]
    fn json_path_is_none_without_the_flag() {
        assert_eq!(parse(&["--quick", "--shards", "4"]).json, None);
    }

    #[test]
    #[should_panic(expected = "--json needs a value")]
    fn json_flag_without_a_value_panics() {
        let _ = parse(&["--quick", "--json"]);
    }

    #[test]
    #[should_panic(expected = "--trace needs a value")]
    fn trace_flag_without_a_value_panics() {
        let _ = parse(&["--quick", "--trace"]);
    }

    #[test]
    #[should_panic(expected = "--json needs a value")]
    fn a_flag_in_value_position_is_not_read_as_a_value() {
        let _ = parse(&["--json", "--trace", "t"]);
    }

    #[test]
    #[should_panic(expected = "--shards must be a positive integer, not `0`")]
    fn zero_shards_are_rejected() {
        let _ = parse(&["--shards", "0"]);
    }

    #[test]
    #[should_panic(expected = "unknown argument `--quik`\nusage: test")]
    fn a_misspelt_flag_is_rejected_not_read_as_standard_effort() {
        let _ = parse(&["--quik"]);
    }
}
