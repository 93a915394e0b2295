//! `retrid` — the long-running RETRI allocator daemon.
//!
//! Usage:
//! `retrid [--addr <host:port>] [--seed <n>] [--shards <k>] [--bits <h>]
//! [--queue-depth <n>] [--listen-window <n>] [--obs]`
//!
//! Binds the TCP transport, prints the bound address on stdout (one
//! line, so scripts can capture an ephemeral port), then serves until
//! stdin reaches EOF or a line reading `quit` — the daemon analogue of
//! SIGTERM that works identically under CI, scripts, and a terminal.
//! On shutdown it drains the shard queues, joins every thread, and
//! prints the final per-strategy statistics its shard threads hand
//! back (plus, with `--obs`, the same statistics as a Prometheus
//! metrics dump on stdout).

use std::io::BufRead;

use retri_obs::Obs;
use retri_service::{Server, ServiceConfig};

struct Args {
    addr: String,
    config: ServiceConfig,
    /// Print the final statistics as Prometheus text on stdout.
    obs: bool,
}

fn parse_args() -> Args {
    let mut addr = "127.0.0.1:4173".to_string();
    let mut config = ServiceConfig::new(0);
    let mut obs = false;
    let mut argv = std::env::args().skip(1);
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| {
        argv.next()
            .unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut argv, "--addr"),
            "--seed" => config.seed = value(&mut argv, "--seed").parse().expect("--seed: u64"),
            "--shards" => {
                config.shards = value(&mut argv, "--shards").parse().expect("--shards: u16");
            }
            "--bits" => config.bits = value(&mut argv, "--bits").parse().expect("--bits: u8"),
            "--queue-depth" => {
                config.queue_depth = value(&mut argv, "--queue-depth")
                    .parse()
                    .expect("--queue-depth: usize");
            }
            "--listen-window" => {
                config.listen_window = value(&mut argv, "--listen-window")
                    .parse()
                    .expect("--listen-window: usize");
            }
            "--obs" => obs = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    Args { addr, config, obs }
}

fn main() {
    let args = parse_args();
    let server = Server::start(&args.config, args.addr.as_str())
        .unwrap_or_else(|err| panic!("cannot bind {}: {err}", args.addr));
    let addr = server.addr();
    println!("{addr}");
    eprintln!(
        "[retrid] serving on {addr}: seed={} shards={} bits={} queue_depth={}",
        args.config.seed, args.config.shards, args.config.bits, args.config.queue_depth
    );

    // Serve until stdin closes or says quit.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(line) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    // The table and the metrics both come from the statistics the
    // shard threads return once every queued request is served.
    let entries = server.shutdown();
    eprintln!(
        "[retrid] {:<12} {:>5} {:>6} {:>12} {:>12} {:>12} {:>14}",
        "strategy", "shard", "bits", "live", "minted", "collisions", "eq4_predicted"
    );
    for e in &entries {
        eprintln!(
            "[retrid] {:<12} {:>5} {:>6} {:>12} {:>12} {:>12} {:>14.3}",
            e.strategy.name(),
            e.shard,
            e.bits,
            e.live_total,
            e.minted,
            e.collisions,
            e.predicted_collisions,
        );
    }
    if args.obs {
        let mut obs = Obs::enabled();
        retri_service::obs::record(&mut obs, &entries);
        let snapshot = obs.snapshot().expect("obs was built enabled");
        print!("{}", snapshot.to_prometheus());
    }
}
