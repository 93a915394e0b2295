//! Records the fault matrix's trials and audits every transaction's
//! lifecycle.
//!
//! Trial 0 of every fault-matrix scenario is re-run with tracing and
//! metrics on ([`retri_bench::differential::record_fault_traces`]), and
//! each observed trial goes through the audit ([`retri_bench::audit`]),
//! which reconstructs the ledger at three levels — frames on the
//! medium, frames at the designated receiver, fragments in the
//! reassembler — and cross-validates every total against the native
//! counters and the metrics snapshot. 100% of transmitted fragments
//! must resolve to exactly one fate: delivered, lost with a reason,
//! corrupted and rejected, conflict-discarded, expired, or stranded in
//! an incomplete buffer at the deadline. Any discrepancy fails the
//! process.
//!
//! Usage: `trace_report [--quick | --paper] [--shards <k>] [--trace <dir>]`.
//!
//! `--trace <dir>` also writes each scenario's trial as
//! `<dir>/trace_<scenario>.json` (a `retri-trace-recording/v1`
//! document) and its metrics snapshot through both exporters
//! (`<scenario>.metrics.jsonl` and `<scenario>.prom`) for scrape-side
//! tooling.

use std::path::Path;
use std::process::ExitCode;

use retri_bench::audit::{audit, Recording};
use retri_bench::{differential, table, Cli};
use retri_netsim::trace::LossReason;

fn main() -> ExitCode {
    let cli = Cli::from_env(
        &["--quick", "--paper", "--shards", "--trace"],
        "usage: trace_report [--quick | --paper] [--shards <k>] [--trace <dir>]",
    );
    let mut recordings = differential::record_fault_traces(cli.effort, cli.shards.unwrap_or(1));
    // Scenario-name order, the order of the files `--trace` writes.
    recordings.sort_by_key(|recording| recording.scenario);
    if let Some(dir) = &cli.trace {
        write_recordings(dir, &recordings);
    }
    report(&recordings)
}

/// Writes each recording and both exports of its metrics snapshot.
fn write_recordings(dir: &Path, recordings: &[Recording]) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|err| panic!("cannot create {}: {err}", dir.display()));
    for recording in recordings {
        let scenario = recording.scenario;
        let metrics = &recording.observed.snapshot;
        retri_bench::write_json(
            &dir.join(format!("trace_{scenario}.json")),
            &recording.to_json_value(),
        );
        retri_bench::write_file(
            &dir.join(format!("{scenario}.metrics.jsonl")),
            &metrics.to_jsonl(),
        );
        retri_bench::write_file(
            &dir.join(format!("{scenario}.prom")),
            &metrics.to_prometheus(),
        );
    }
}

/// Audits every recording, prints the fate and loss tables, and fails
/// on any discrepancy.
fn report(recordings: &[Recording]) -> ExitCode {
    let reports: Vec<_> = recordings
        .iter()
        .map(|recording| (recording.scenario, audit(&recording.observed)))
        .collect();

    println!(
        "Transaction lifecycle audit ({} recording(s))\n",
        reports.len()
    );
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(scenario, r)| {
            let lost: u64 = r.frames.lost.iter().sum();
            vec![
                scenario.to_string(),
                r.frames.transmitted.to_string(),
                r.frames.delivered_clean.to_string(),
                r.frames.delivered_corrupted.to_string(),
                lost.to_string(),
                r.fragments.accepted.to_string(),
                r.fragments.delivered.to_string(),
                r.fragments.checksum_rejected.to_string(),
                r.fragments.conflict_discarded.to_string(),
                r.fragments.expired.to_string(),
                r.fragments.stranded.to_string(),
                if r.is_clean() { "clean" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(
            &[
                "scenario", "frames", "clean", "corrupt", "lost", "frags", "deliv", "crc-rej",
                "conflict", "expired", "stranded", "audit",
            ],
            &rows,
        )
    );

    // Per-scenario loss breakdown: which accounting column each lost
    // frame landed in.
    println!("\nLoss reasons (per receiver outcome):");
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(scenario, r)| {
            let mut row = vec![scenario.to_string()];
            row.extend(r.frames.lost.iter().map(u64::to_string));
            row
        })
        .collect();
    let mut header = vec!["scenario"];
    header.extend(LossReason::ALL.iter().map(|reason| reason.label()));
    print!("{}", table::render(&header, &rows));

    let mut failed = false;
    for (scenario, report) in &reports {
        for error in &report.errors {
            failed = true;
            eprintln!("[{scenario}] {error}");
        }
    }
    if failed {
        eprintln!("\naudit FAILED: at least one fragment is unaccounted for");
        return ExitCode::FAILURE;
    }
    println!(
        "\nAll fragments accounted for: every transmitted fragment resolved\n\
         to exactly one fate, consistent with the native counters and the\n\
         metrics snapshot."
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use retri_aff::{SelectorPolicy, Testbed};
    use retri_netsim::SimTime;

    fn recording() -> Recording {
        let mut testbed = Testbed::paper(8, SelectorPolicy::Uniform);
        testbed.workload.stop = SimTime::from_secs(5);
        Recording {
            scenario: "unit",
            seed: 3,
            observed: testbed.run_observed(3, 1 << 18),
        }
    }

    #[test]
    fn a_clean_audit_exits_zero() {
        assert_eq!(report(&[recording()]), ExitCode::SUCCESS);
    }

    #[test]
    fn an_unclean_audit_exits_non_zero() {
        let clean = recording();
        let mut tampered = clean.clone();
        tampered.observed.reassembly.fragments_delivered += 1;
        assert_eq!(report(&[clean, tampered]), ExitCode::FAILURE);
    }
}
