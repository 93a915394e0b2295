//! Differential model check (Eq. 2–4) plus the fault-injection matrix.
//!
//! The first table sweeps `(policy, H, T, D)` cells through the full
//! simulator stack and scores each against the paper's closed-form
//! model: the observed transaction-success proportion gets a 99% Wilson
//! interval and the Eq. 4 prediction must land inside it; framing and
//! end-to-end efficiency are checked against the exact wire layout and
//! the Eq. 2/3 composition.
//!
//! The second table runs the Section 5.1 testbed under each fault
//! scenario (i.i.d. bit errors, Gilbert-Elliott bursts, frame erasure,
//! node churn, partitions) and reports the loss accounting: corrupted
//! frames must surface as parse failures, CRC rejections, or
//! identifier/bounds conflicts — never as silently delivered wrong
//! bytes.
//!
//! Usage: `fault_matrix [--quick | --paper] [--json <path>] [--obs]
//! [--shards <k>] [--trace <dir>]`.
//!
//! `--trace <dir>` additionally re-runs trial 0 of every scenario with
//! full tracing and metrics enabled and writes one
//! `retri-trace-recording/v1` document per scenario to
//! `<dir>/trace_<scenario>.json` — the input format of the
//! `trace_report` lifecycle audit.

use retri_bench::table::{self, f};
use retri_bench::{differential, Cli};

fn main() {
    let cli = Cli::from_env(
        &["--quick", "--paper", "--json", "--obs", "--shards", "--trace"],
        "usage: fault_matrix [--quick | --paper] [--json <path>] [--obs] [--shards <k>] [--trace <dir>]",
    );
    let level = cli.effort;
    let shards = cli.shards.unwrap_or(1);
    println!(
        "Differential model check + fault matrix ({} trials x {} s per cell)\n",
        level.trials(),
        level.trial_secs()
    );
    let report = differential::report(level, shards);
    if let Some(path) = &cli.json {
        retri_bench::write_json(path, &report);
    }
    if let Some(dir) = &cli.trace {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|err| panic!("cannot create {}: {err}", dir.display()));
        for recording in differential::record_fault_traces(level, shards) {
            let path = dir.join(format!("trace_{}.json", recording.scenario));
            retri_bench::write_json(&path, &recording.to_json_value());
        }
    }

    let rows: Vec<Vec<String>> = report
        .differential
        .points()
        .map(|c| {
            vec![
                c.policy.clone(),
                c.id_bits.to_string(),
                c.transmitters.to_string(),
                c.packet_bytes.to_string(),
                f(c.observed),
                f(c.predicted),
                format!("[{}, {}]", f(c.wilson_low), f(c.wilson_high)),
                if c.policy == "listening" {
                    if c.beats_uniform_bound {
                        "beats"
                    } else {
                        "NO"
                    }
                } else if c.model_within_interval {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
                f(c.framing_observed),
                f(c.framing_predicted),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(
            &[
                "policy",
                "H",
                "T",
                "D",
                "observed",
                "Eq. 4",
                "99% Wilson",
                "verdict",
                "framing",
                "exact",
            ],
            &rows,
        )
    );
    println!(
        "\nUniform cells: Eq. 4 must sit inside the Wilson interval.\n\
         Listening cells: the observed rate should instead *beat* the\n\
         uniform bound (Section 3.2).\n"
    );

    let rows: Vec<Vec<String>> = report
        .faults
        .points()
        .map(|c| {
            vec![
                c.scenario.clone(),
                f(c.delivery_ratio),
                c.decode_errors.to_string(),
                c.truth_crc_rejections.to_string(),
                c.checksum_failures.to_string(),
                c.identifier_conflicts.to_string(),
                c.corrupted_deliveries.to_string(),
                c.fault_erasures.to_string(),
                c.partition_losses.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table::render(
            &[
                "scenario",
                "delivered",
                "parse err",
                "truth CRC",
                "aff CRC",
                "conflicts",
                "corrupted",
                "erased",
                "severed",
            ],
            &rows,
        )
    );
    println!(
        "\nPaper check: every injected fault lands in an accounting\n\
         column; the clean scenario shows zeros in all fault counters."
    );
}
