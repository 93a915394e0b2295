//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <testbed|mesh|retrid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload with tracing off and prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics
//! and the tracing overhead, and writes its spans to
//! `.bench_trace/<workload>-<seed>.jsonl`. Either way the last line of
//! standard output is one JSON result object, and the exit code is
//! non-zero when an output check failed. See `README.md`.

mod anchor;
mod inputs;
mod mesh;
mod report;
mod retrid;
mod service;
mod stats;
mod testbed;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::{result_json, Checks, Metrics};

/// The parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <testbed|mesh|retrid> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["testbed", "mesh", "retrid"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} on {} core(s)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::nproc()
    );
    let mut metrics = Metrics::default();
    let mut checks = Checks::default();
    let outcome = if args.trace {
        let mut tracer = trace::Tracer::new();
        let outcome = workloads::traced(
            &args.workload,
            args.seed,
            args.seconds,
            &mut metrics,
            &mut checks,
            &mut tracer,
        );
        let path = std::path::PathBuf::from(".bench_trace")
            .join(format!("{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        let spans = trace::self_times(tracer.spans());
        for (name, t) in &spans {
            eprintln!(
                "span {name:<40} calls {:>9} total {:>14} ns self {:>14} ns",
                t.calls, t.total_ns, t.self_ns
            );
        }
        outcome
    } else {
        match args.workload.as_str() {
            "testbed" => workloads::testbed_e2e(args.seed, args.seconds, &mut metrics, &mut checks),
            "mesh" => workloads::mesh_e2e(args.seed, args.seconds, &mut metrics, &mut checks),
            _ => workloads::retrid_e2e(args.seed, args.seconds, &mut metrics, &mut checks),
        }
        metrics.set(
            "peak_rss_mb",
            report::proc_status_kb("VmHWM") as f64 / 1024.0,
            "MB",
        );
        Ok(())
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::from(3);
    }
    for (name, value, unit) in metrics.iter() {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!("{}", result_json(checks, &metrics));
    if checks.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
