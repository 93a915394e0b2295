//! Records the benchmark trajectory: runs the fixed workload set of
//! [`retri_bench::workloads`] under serial (`RETRI_BENCH_WORKERS=1`)
//! and default-parallel settings, and appends one labelled entry to
//! `BENCH_netsim.json` at the repository root.
//!
//! Usage:
//! `bench_summary [--quick] [--label <name>] [--out <path>] [--reps <n>]
//! [--shards <k>]`
//!
//! - `--quick` shrinks each workload (CI smoke); full size otherwise.
//! - `--label` names the entry (default `run`). Re-recording an
//!   existing label replaces that entry in place, so iterating on a
//!   change does not pollute the trajectory.
//! - `--out` defaults to `BENCH_netsim.json` in the current directory.
//! - `--reps` overrides the repetition count (median is recorded).
//! - `--shards` sets the spatial shard count for testbed-backed
//!   workloads ([`retri_bench::shards_from_args`]); the dedicated
//!   `sim_mesh_10k_sharded` workload picks its own count from
//!   `RETRI_BENCH_SHARDS` or the host parallelism regardless.
//!
//! The schema is documented in EXPERIMENTS.md ("Performance"). Unlike
//! the experiment provenance documents, this file records wall-clock
//! time and is therefore machine-dependent by design: it is a
//! *trajectory*, one entry per recorded optimization point, not a
//! deterministic artifact.

use std::path::PathBuf;

use retri_bench::guard;
use retri_bench::harness::{peak_rss_bytes, worker_count};
use retri_bench::workloads::{self, Measurement, Workload};
use serde_json::Value;

const SCHEMA: &str = "retri-bench-trajectory/v1";
const WORKERS_ENV: &str = "RETRI_BENCH_WORKERS";

struct Args {
    quick: bool,
    label: String,
    out: PathBuf,
    reps: usize,
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut label = "run".to_string();
    let mut out = PathBuf::from("BENCH_netsim.json");
    let mut reps = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--label" => label = argv.next().expect("--label needs a value"),
            "--out" => out = PathBuf::from(argv.next().expect("--out needs a value")),
            "--reps" => {
                reps = Some(
                    argv.next()
                        .expect("--reps needs a value")
                        .parse()
                        .expect("--reps must be a positive integer"),
                );
            }
            // Consumed by retri_bench::shards_from_args() in main.
            "--shards" => {
                argv.next().expect("--shards needs a value");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    Args {
        quick,
        label,
        out,
        reps: reps.unwrap_or(if quick { 3 } else { 5 }),
    }
}

fn measurement_value(m: &Measurement) -> Value {
    Value::Object(vec![
        ("median_ns".to_string(), Value::UInt(m.median_ns)),
        ("reps".to_string(), Value::UInt(m.samples_ns.len() as u64)),
        (
            "samples_ns".to_string(),
            Value::Array(m.samples_ns.iter().map(|&n| Value::UInt(n)).collect()),
        ),
    ])
}

/// Upgrades one retained entry in place to the self-describing field
/// names: the per-workload `"trials"` count (simulator trials folded
/// into each timed batch) becomes `"trials_per_rep"`, and each
/// measurement gains an explicit `"reps"` count matching its
/// `samples_ns` length. Early trajectory entries wrote `"trials": 1`
/// next to five samples, inviting readers to conflate the two; the
/// rewrite keeps the whole file on one vocabulary.
fn migrate_entry(entry: &Value) -> Value {
    let Value::Object(fields) = entry else {
        return entry.clone();
    };
    let fields = fields
        .iter()
        .map(|(key, value)| match (key.as_str(), value) {
            ("workloads", Value::Array(workloads)) => (
                key.clone(),
                Value::Array(workloads.iter().map(migrate_workload).collect()),
            ),
            _ => (key.clone(), value.clone()),
        })
        .collect();
    Value::Object(fields)
}

fn migrate_workload(workload: &Value) -> Value {
    let Value::Object(fields) = workload else {
        return workload.clone();
    };
    let fields = fields
        .iter()
        .map(|(key, value)| match (key.as_str(), value) {
            ("trials", _) => ("trials_per_rep".to_string(), value.clone()),
            ("serial" | "parallel", Value::Object(m)) => {
                let mut m = m.clone();
                if !m.iter().any(|(k, _)| k == "reps") {
                    let reps = value
                        .get("samples_ns")
                        .and_then(Value::as_array)
                        .map_or(0, <[Value]>::len);
                    m.insert(
                        1.min(m.len()),
                        ("reps".to_string(), Value::UInt(reps as u64)),
                    );
                }
                (key.clone(), Value::Object(m))
            }
            _ => (key.clone(), value.clone()),
        })
        .collect();
    Value::Object(fields)
}

/// Runs every workload once per worker mode: serial first, then the
/// machine's default parallelism.
fn run_suite(args: &Args) -> Value {
    let set = workloads::all();
    let previous_workers = std::env::var(WORKERS_ENV).ok();
    let max_trials = set.iter().map(|w| w.trials as usize).max().unwrap_or(1);

    eprintln!("[bench_summary] serial pass ({WORKERS_ENV}=1)");
    std::env::set_var(WORKERS_ENV, "1");
    let mut serial: Vec<Measurement> = Vec::with_capacity(set.len());
    let mut peak_after: Vec<Option<u64>> = Vec::with_capacity(set.len());
    for w in &set {
        serial.push(workloads::measure(w, args.quick, args.reps));
        // Sampled right after the workload finishes: VmHWM is a
        // process-lifetime high-water mark, so this is exact for the
        // scale workloads, whose footprint dwarfs everything that ran
        // before them (see `peak_rss_bytes`).
        peak_after.push(w.nodes.and_then(|_| peak_rss_bytes()));
    }

    eprintln!("[bench_summary] parallel pass (default workers)");
    match &previous_workers {
        Some(value) => std::env::set_var(WORKERS_ENV, value),
        None => std::env::remove_var(WORKERS_ENV),
    }
    let parallel_workers = worker_count(max_trials);
    let parallel: Vec<Measurement> = set
        .iter()
        .map(|w| workloads::measure(w, args.quick, args.reps))
        .collect();

    let host_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1) as u64;
    let workload_values: Vec<Value> = set
        .iter()
        .zip(serial.iter().zip(parallel.iter()))
        .zip(peak_after.iter())
        .map(|((w, (s, p)), peak)| {
            let mut fields = vec![
                ("name".to_string(), Value::String(w.name.to_string())),
                (
                    "description".to_string(),
                    Value::String(w.description.to_string()),
                ),
                // Simulation trials folded into each timed batch — NOT
                // the number of wall-clock samples; that is the
                // measurement's `reps` / `samples_ns` length.
                ("trials_per_rep".to_string(), Value::UInt(w.trials)),
                ("serial".to_string(), measurement_value(s)),
                ("parallel".to_string(), measurement_value(p)),
            ];
            if let Some(nodes) = w.nodes {
                fields.push(("nodes".to_string(), Value::UInt(nodes)));
                if let Some(peak) = *peak {
                    fields.push(("peak_rss_bytes".to_string(), Value::UInt(peak)));
                    fields.push((
                        "bytes_per_node".to_string(),
                        Value::UInt(peak / nodes.max(1)),
                    ));
                }
            }
            // Service workloads carry their throughput/latency detail
            // next to the batch wall-clock: the trajectory is where
            // "allocations per second at what p99" is recorded, and
            // the bench_guard svc rule reads these fields.
            if let Some(detail) = workloads::svc_detail(w.name) {
                fields.push(("svc_allocs".to_string(), Value::UInt(detail.allocs)));
                fields.push(("svc_busy".to_string(), Value::UInt(detail.busy)));
                fields.push((
                    "svc_p50_latency_ns".to_string(),
                    Value::UInt(detail.p50_latency_ns),
                ));
                fields.push((
                    "svc_p99_latency_ns".to_string(),
                    Value::UInt(detail.p99_latency_ns),
                ));
                fields.push((
                    "svc_allocs_per_sec".to_string(),
                    Value::Float(detail.allocs_per_sec),
                ));
            }
            // The adaptive-MAC workload likewise records its detail:
            // known-N vs density-estimated DFA success counts and the
            // Wilson verdict against the closed form, read back by the
            // bench_guard adaptive-MAC rule.
            if w.name == "sim_dfa_saturated" {
                if let Some(detail) = workloads::dfa_detail() {
                    fields.push((
                        "dfa_known_attempts".to_string(),
                        Value::UInt(detail.known_attempts),
                    ));
                    fields.push((
                        "dfa_known_successes".to_string(),
                        Value::UInt(detail.known_successes),
                    ));
                    fields.push((
                        "dfa_estimated_attempts".to_string(),
                        Value::UInt(detail.estimated_attempts),
                    ));
                    fields.push((
                        "dfa_estimated_successes".to_string(),
                        Value::UInt(detail.estimated_successes),
                    ));
                    fields.push((
                        "dfa_wilson_ok".to_string(),
                        Value::UInt(u64::from(detail.wilson_ok)),
                    ));
                    fields.push((
                        "dfa_known_deliveries".to_string(),
                        Value::UInt(detail.known_deliveries),
                    ));
                    fields.push((
                        "dfa_estimated_deliveries".to_string(),
                        Value::UInt(detail.estimated_deliveries),
                    ));
                    fields.push((
                        "dfa_csma_deliveries".to_string(),
                        Value::UInt(detail.csma_deliveries),
                    ));
                    fields.push((
                        "dfa_aloha_deliveries".to_string(),
                        Value::UInt(detail.aloha_deliveries),
                    ));
                }
            }
            // A sharded workload timed on a small host still records
            // its numbers, but the sharded-vs-serial comparison they
            // invite is not meaningful there — mark it so readers (and
            // bench_guard) see the skip instead of a silent pass.
            if w.sharded && host_parallelism < guard::MIN_CORES_FOR_SHARD_CHECK {
                fields.push((
                    "skipped".to_string(),
                    Value::String(format!(
                        "sharded speedup not assessable: host_parallelism \
                         {host_parallelism} < {} cores",
                        guard::MIN_CORES_FOR_SHARD_CHECK
                    )),
                ));
            }
            Value::Object(fields)
        })
        .collect();
    print_table(&set, &serial, &parallel);
    Value::Object(vec![
        ("label".to_string(), Value::String(args.label.clone())),
        (
            "effort".to_string(),
            Value::String(if args.quick { "quick" } else { "full" }.to_string()),
        ),
        ("reps".to_string(), Value::UInt(args.reps as u64)),
        ("serial_workers".to_string(), Value::UInt(1)),
        (
            "parallel_workers".to_string(),
            Value::UInt(parallel_workers as u64),
        ),
        // Recorded so the `bench_guard` rules can tell a real
        // parallel measurement from a small-host one.
        (
            "host_parallelism".to_string(),
            Value::UInt(host_parallelism),
        ),
        ("workloads".to_string(), Value::Array(workload_values)),
    ])
}

fn print_table(set: &[Workload], serial: &[Measurement], parallel: &[Measurement]) {
    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "workload", "serial (ms)", "parallel (ms)", "par/ser"
    );
    for (w, (s, p)) in set.iter().zip(serial.iter().zip(parallel.iter())) {
        println!(
            "{:<22} {:>14.2} {:>14.2} {:>8.2}x",
            w.name,
            s.median_ns as f64 / 1e6,
            p.median_ns as f64 / 1e6,
            s.median_ns as f64 / p.median_ns.max(1) as f64,
        );
    }
}

/// Compares this entry against the one recorded just before it and
/// prints the serial-median speedups.
fn print_speedups(previous: &Value, current: &Value) {
    let prev_label = previous.get("label").and_then(Value::as_str).unwrap_or("?");
    println!("\nserial-median change vs previous entry '{prev_label}':");
    let empty: &[Value] = &[];
    let prev_workloads = previous
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(empty);
    for workload in current
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(empty)
    {
        let Some(name) = workload.get("name").and_then(Value::as_str) else {
            continue;
        };
        let median =
            |entry: &Value| -> Option<f64> { entry.get("serial")?.get("median_ns")?.as_f64() };
        let Some(now) = median(workload) else {
            continue;
        };
        let before = prev_workloads
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            .and_then(median);
        match before {
            Some(before) if now > 0.0 => {
                println!("  {name:<22} {:.2}x", before / now);
            }
            _ => println!("  {name:<22} (no previous measurement)"),
        }
    }
}

fn main() {
    retri_bench::shards_from_args();
    let args = parse_args();
    let entry = run_suite(&args);

    // Append to (or start) the trajectory file, replacing any existing
    // entry with the same label.
    let mut entries: Vec<Value> = match std::fs::read_to_string(&args.out) {
        Ok(text) => {
            let doc = serde_json::from_str(&text).unwrap_or_else(|err| {
                panic!("cannot parse existing {}: {err}", args.out.display())
            });
            assert_eq!(
                doc.get("schema").and_then(Value::as_str),
                Some(SCHEMA),
                "{} is not a {SCHEMA} document",
                args.out.display()
            );
            doc.get("entries")
                .and_then(Value::as_array)
                .unwrap_or_default()
                .to_vec()
        }
        Err(_) => Vec::new(),
    };
    if let Some(previous) = entries
        .iter()
        .rev()
        .find(|e| e.get("label").and_then(Value::as_str) != Some(&args.label))
    {
        print_speedups(previous, &entry);
    }
    entries.retain(|e| e.get("label").and_then(Value::as_str) != Some(&args.label));
    let mut entries: Vec<Value> = entries.iter().map(migrate_entry).collect();
    entries.push(entry);
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::String(SCHEMA.to_string())),
        (
            "unit".to_string(),
            Value::String("median batch wall-clock, nanoseconds".to_string()),
        ),
        (
            "semantics".to_string(),
            Value::String(
                "each samples_ns entry times one rep of the workload's full \
                 trials_per_rep batch; median_ns is the median over reps"
                    .to_string(),
            ),
        ),
        ("entries".to_string(), Value::Array(entries)),
    ]);
    retri_bench::write_json(&args.out, &doc);
}
