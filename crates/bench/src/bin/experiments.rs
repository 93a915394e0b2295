//! Runs the paper's evaluation from the experiment registry
//! ([`retri_bench::experiments`]): every figure, the measured-efficiency
//! comparison and every ablation, in order, at the chosen effort.
//!
//! Usage: `experiments [--only <name>] [--quick | --paper] [--shards <k>]
//! [--json <dir>] [--obs]`.
//!
//! `--only <name>` runs one experiment and prints just its table.
//! `--shards <k>` runs every simulation on `k` spatial shards; output is
//! shard-count-invariant. `--json <dir>` creates the directory and writes
//! one provenance document per experiment as `<dir>/<name>.json`.
//!
//! This is what regenerates the numbers recorded in EXPERIMENTS.md.

use retri_bench::experiments::{self, EXPERIMENTS};
use retri_bench::Cli;

fn main() {
    let usage = format!(
        "usage: experiments [--only <name>] [--quick | --paper] [--shards <k>] [--json <dir>] [--obs]\n\
         experiments: {}",
        experiments::names()
    );
    let cli = Cli::from_env(
        &[
            "--only", "--quick", "--paper", "--shards", "--json", "--obs",
        ],
        &usage,
    );
    let selected = experiments::select(cli.only.as_deref());
    if let Some(dir) = &cli.json {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|err| panic!("cannot create {}: {err}", dir.display()));
    }
    for (index, experiment) in selected.iter().enumerate() {
        if cli.only.is_none() {
            println!(
                "\n======================================================================\n\
                 [{}/{}] {}\n\
                 ======================================================================",
                index + 1,
                EXPERIMENTS.len(),
                experiment.name
            );
        }
        let output = (experiment.run)(cli.effort, cli.shards.unwrap_or(1));
        print!("{}", output.table);
        if let Some(dir) = &cli.json {
            retri_bench::write_file(&dir.join(format!("{}.json", experiment.name)), &output.json);
        }
    }
    if cli.only.is_none() {
        println!("\nAll {} experiments completed.", EXPERIMENTS.len());
        if let Some(dir) = &cli.json {
            println!("Provenance documents collected in {}/", dir.display());
        }
    }
}
