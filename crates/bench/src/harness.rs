//! Deterministic parallel trial execution shared by every experiment.
//!
//! Every figure and ablation binary used to hand-roll two things: a
//! per-trial seed scheme (`0xDE45 + trial`, `(bits << 32) ^ (trial <<
//! 8) ^ name.len()`, ...) and, in one case, a scoped-thread work queue.
//! This module centralizes both:
//!
//! - `trial_seed` derives every simulation seed in the workspace from
//!   the triple `(experiment_id, cell_index, trial)` via a SplitMix64
//!   absorb chain. Seeds are stable across runs and machines, and
//!   distinct across experiments, cells, and trials.
//! - `run_cells` fans the full `cells × trials` grid out across
//!   `std::thread::available_parallelism()` OS threads (override with
//!   the `RETRI_BENCH_WORKERS` environment variable) and hands results
//!   back grouped by cell **in trial order**, so aggregating with
//!   [`Summary::of`] is bit-identical to the serial loops it replaced.
//! - [`Provenance`] is the uniform `--json` document each experiment
//!   emits: experiment name, effort, the seed contract, and one entry
//!   per cell holding its parameters, its seeds, and its observed and
//!   predicted values. Running an experiment twice produces identical
//!   JSON, except for the wall-clock run metrics `--obs` embeds
//!   (`bench_trial_wall_micros`, `bench_trials_per_second`,
//!   `bench_workers`); without it, timing goes to stderr.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use retri::seed;
use retri_model::stats::Summary;
use retri_obs::{Histogram, Obs, Snapshot};

use crate::EffortLevel;

/// The process-wide run-metrics registry: disabled until
/// [`enable_run_metrics`], and folded into once per [`run_trials`]
/// sweep.
static RUN_METRICS: Mutex<Obs> = Mutex::new(Obs::disabled());

/// Per-trial wall-clock bounds, microseconds: 1 ms to 100 s.
const TRIAL_WALL_BOUNDS: [f64; 8] = [1e3, 1e4, 1e5, 3e5, 1e6, 3e6, 1e7, 1e8];

/// Sweep-throughput bounds, trials per second.
const THROUGHPUT_BOUNDS: [f64; 8] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Turns on run metrics for this process: every subsequent
/// `run_trials` sweep records per-trial wall-clock histograms
/// (`bench_trial_wall_micros{experiment,cell}`), trial counters, and a
/// sweep-throughput histogram (`bench_trials_per_second{experiment}`)
/// into a process-wide registry. Off by default — the `--obs` flag of
/// the bench binaries ([`crate::Cli::from_env`]) calls this. Each sweep
/// times its trials either way and folds the timings in once, after
/// the sweep.
pub fn enable_run_metrics() {
    *RUN_METRICS.lock().expect("no poisoned lock") = Obs::enabled();
}

/// Drains the accumulated run metrics: returns a snapshot of
/// everything recorded since [`enable_run_metrics`] (or the previous
/// `take_run_metrics`) and resets the registry, so successive
/// experiments in one process each embed only their own timings.
/// `None` when run metrics were never enabled.
#[must_use]
pub(crate) fn take_run_metrics() -> Option<Snapshot> {
    let mut guard = RUN_METRICS.lock().expect("no poisoned lock");
    if !guard.is_enabled() {
        return None;
    }
    std::mem::replace(&mut *guard, Obs::enabled()).snapshot()
}

/// Folds one finished sweep into the run-metrics registry, under one
/// lock: each cell's trial wall clocks (`flat` is in cell and trial
/// order), the trial count, the throughput and the worker count.
fn record_sweep_metrics<T>(
    experiment_id: &str,
    flat: &[(Trial, T, f64)],
    elapsed_secs: f64,
    workers: usize,
) {
    let mut obs = RUN_METRICS.lock().expect("no poisoned lock");
    if !obs.is_enabled() {
        return;
    }
    for cell in flat.chunk_by(|a, b| a.0.cell_index == b.0.cell_index) {
        let mut walls = Histogram::with_bounds(&TRIAL_WALL_BOUNDS);
        for (_, _, micros) in cell {
            walls.observe(*micros);
        }
        let index = cell[0].0.cell_index.to_string();
        let labels = [("experiment", experiment_id), ("cell", index.as_str())];
        obs.merge_histogram("bench_trial_wall_micros", &labels, &walls);
    }
    let labels = [("experiment", experiment_id)];
    if !flat.is_empty() {
        obs.add_counter("bench_trials_total", &labels, flat.len() as u64);
    }
    let mut throughput = Histogram::with_bounds(&THROUGHPUT_BOUNDS);
    throughput.observe(flat.len() as f64 / elapsed_secs.max(f64::EPSILON));
    obs.merge_histogram("bench_trials_per_second", &labels, &throughput);
    obs.set_gauge("bench_workers", &labels, workers as f64);
}

/// Fixed initial state of the seed chain; an arbitrary constant that
/// pins the whole derivation (change it and every experiment's random
/// stream changes together).
const SEED_DOMAIN: u64 = 0x1CDC_2001_AFF5_EEDD;

/// Derives the RNG seed for one trial of one experiment cell.
///
/// The contract (also documented in EXPERIMENTS.md):
///
/// - `experiment_id` — the binary's stable name (`"fig4"`,
///   `"ablation_density"`, ...). Renaming an experiment re-seeds it;
///   nothing else does.
/// - `cell_index` — the cell's position in the experiment's cell list,
///   counted from 0 in the order the experiment defines its sweep.
/// - `trial` — the zero-based trial number within the cell.
///
/// The derivation is the workspace's one seed chain ([`retri::seed`]):
/// starting from a fixed domain constant, [`seed::stream_seed`] absorbs
/// each byte of `experiment_id`, then [`seed::absorb`] takes
/// `cell_index` and then `trial`. Unlike the ad-hoc schemes this
/// replaced, seeds carry no structure from the parameters (no
/// arithmetic on widths, trial numbers, or — worst of all —
/// policy-name lengths), so cells can never alias and adjacent trials
/// are fully decorrelated.
#[must_use]
pub(crate) fn trial_seed(experiment_id: &str, cell_index: usize, trial: u64) -> u64 {
    let state = seed::stream_seed(SEED_DOMAIN, experiment_id);
    seed::absorb(seed::absorb(state, cell_index as u64), trial)
}

/// Execution context handed to the experiment closure for one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Index of the cell being run.
    pub cell_index: usize,
    /// Zero-based trial number within the cell.
    pub trial: u64,
    /// The seed from `trial_seed`; pass it to the simulator.
    pub seed: u64,
}

/// One cell's completed trials, in trial order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellRuns<T> {
    /// Index of the cell in the experiment's cell list.
    pub cell_index: usize,
    /// The seed of each trial, in trial order.
    pub seeds: Vec<u64>,
    /// The closure's result for each trial, in trial order.
    pub values: Vec<T>,
}

impl<T> CellRuns<T> {
    /// Summarizes one `f64` observable extracted from each trial.
    ///
    /// Trial order is preserved, so the result is bit-identical to a
    /// serial `for trial in 0..n` loop feeding [`Summary::of`].
    ///
    /// # Panics
    ///
    /// Panics if the cell ran zero trials (an empty sample has no
    /// defined mean).
    #[must_use]
    pub(crate) fn summarize(&self, observable: impl Fn(&T) -> f64) -> Summary {
        let series: Vec<f64> = self.values.iter().map(observable).collect();
        Summary::of(&series)
    }
}

/// Worker-thread count: `available_parallelism()`, capped at the job
/// count, overridable with `RETRI_BENCH_WORKERS` (useful for
/// parallel-vs-serial timing and for pinning CI).
#[must_use]
pub(crate) fn worker_count(jobs: usize) -> usize {
    resolve_worker_count(std::env::var("RETRI_BENCH_WORKERS").ok().as_deref(), jobs)
}

/// Pure resolution of the worker count from an override string.
///
/// `RETRI_BENCH_WORKERS=0` and unparseable values both fall back to
/// [`std::thread::available_parallelism`] (never panic, never spawn
/// zero workers); the result is capped at the job count and floored at
/// one. Split from [`worker_count`] so the override handling is unit
/// testable without mutating process-global environment.
#[must_use]
pub(crate) fn resolve_worker_count(requested: Option<&str>, jobs: usize) -> usize {
    let available = requested
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        });
    available.min(jobs).max(1)
}

/// Runs `trials` trials of every cell, fanned out across OS threads,
/// and returns the results grouped by cell in trial order.
///
/// The unit of scheduling is a single `(cell, trial)` pair, so uneven
/// cells cannot serialize the sweep behind one slow worker. Each trial
/// gets its seed from [`trial_seed`]; the closure must derive all of
/// its randomness from that seed for the run to be reproducible.
/// Wall-clock and worker count are reported on stderr. Every sweep
/// runs on [`worker_count`] scoped workers, one worker included.
/// Scheduling never affects results: values are grouped by
/// `(cell, trial)` regardless of execution order.
///
/// # Panics
///
/// Panics if a worker thread panics (the experiment closure itself
/// panicked).
pub(crate) fn run_trials<C, T>(
    experiment_id: &str,
    trials: u64,
    cells: &[C],
    run: impl Fn(&C, Trial) -> T + Sync,
) -> Vec<CellRuns<T>>
where
    C: Sync,
    T: Send,
{
    let mut jobs = Vec::with_capacity(cells.len() * trials as usize);
    for cell_index in 0..cells.len() {
        for trial in 0..trials {
            jobs.push(Trial {
                cell_index,
                trial,
                seed: trial_seed(experiment_id, cell_index, trial),
            });
        }
    }
    let started = Instant::now();
    // Each trial's wall clock, in microseconds, rides back with its
    // result.
    let execute = |trial: Trial| -> (Trial, T, f64) {
        let trial_started = Instant::now();
        let value = run(&cells[trial.cell_index], trial);
        (trial, value, trial_started.elapsed().as_secs_f64() * 1e6)
    };
    let workers = worker_count(jobs.len());
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(Trial, T, f64)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&trial) = jobs.get(index) else {
                    break;
                };
                let done = execute(trial);
                results.lock().expect("no poisoned lock").push(done);
            });
        }
    });
    let mut flat = results.into_inner().expect("threads joined");
    flat.sort_by_key(|(trial, _, _)| (trial.cell_index, trial.trial));
    let elapsed = started.elapsed().as_secs_f64();
    record_sweep_metrics(experiment_id, &flat, elapsed, workers);
    let mut grouped: Vec<CellRuns<T>> = (0..cells.len())
        .map(|cell_index| CellRuns {
            cell_index,
            seeds: Vec::with_capacity(trials as usize),
            values: Vec::with_capacity(trials as usize),
        })
        .collect();
    for (trial, value, _) in flat {
        grouped[trial.cell_index].seeds.push(trial.seed);
        grouped[trial.cell_index].values.push(value);
    }
    eprintln!(
        "[harness] {experiment_id}: {} cells x {trials} trials on {workers} worker(s) in {:.1} ms",
        cells.len(),
        elapsed * 1e3,
    );
    grouped
}

/// [`run_trials`] with the trial count taken from the effort level —
/// the call shape almost every experiment uses.
pub(crate) fn run_cells<C, T>(
    experiment_id: &str,
    level: EffortLevel,
    cells: &[C],
    run: impl Fn(&C, Trial) -> T + Sync,
) -> Vec<CellRuns<T>>
where
    C: Sync,
    T: Send,
{
    run_trials(experiment_id, level.trials(), cells, run)
}

/// One cell of a [`Provenance`] document.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceCell<Cell> {
    /// The cell's index — the `cell_index` its seeds were derived from.
    pub cell_index: usize,
    /// The seed of every trial, in trial order (empty for analytic
    /// experiments that run no simulation).
    pub seeds: Vec<u64>,
    /// The experiment's own point type: cell parameters plus observed
    /// and predicted values.
    pub cell: Cell,
}

/// The `--json` provenance document every experiment emits: what
/// ran, at what effort, with which seeds, and what came out.
///
/// Two runs of the same binary with the same flags serialize
/// byte-identically, except for the wall-clock [`Self::obs`] snapshot
/// that `--obs` adds: the rest is fully determined by the experiment's
/// code, the effort level, and the seed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance<Cell> {
    /// The experiment id the seeds were derived from.
    pub experiment: String,
    /// Effort name: `"quick"`, `"standard"`, `"paper"`, or
    /// `"analytic"` for closed-form experiments.
    pub effort: String,
    /// Trials per cell (0 for analytic experiments).
    pub trials_per_cell: u64,
    /// Simulated seconds per trial (0 for analytic experiments).
    pub trial_secs: u64,
    /// The seed-derivation contract, spelled out so the JSON is
    /// self-describing.
    pub seed_algorithm: String,
    /// One entry per experiment cell, in sweep order.
    pub cells: Vec<ProvenanceCell<Cell>>,
    /// Run-metrics snapshot (`take_run_metrics`) when the binary ran
    /// with `--obs`; `None` — and **absent from the JSON** — otherwise,
    /// so un-instrumented documents stay byte-identical to before the
    /// field existed.
    pub obs: Option<Snapshot>,
}

impl<Cell> Provenance<Cell> {
    /// Starts an empty simulation-backed provenance document.
    #[must_use]
    pub fn new(experiment: &str, level: EffortLevel) -> Self {
        Provenance {
            experiment: experiment.to_string(),
            effort: level.name().to_string(),
            trials_per_cell: level.trials(),
            trial_secs: level.trial_secs(),
            seed_algorithm: SEED_ALGORITHM.to_string(),
            cells: Vec::new(),
            obs: None,
        }
    }

    /// Provenance for a closed-form experiment: no trials, no seeds.
    #[must_use]
    pub fn analytic(experiment: &str, cells: Vec<Cell>) -> Self {
        Provenance {
            experiment: experiment.to_string(),
            effort: "analytic".to_string(),
            trials_per_cell: 0,
            trial_secs: 0,
            seed_algorithm: "none (closed-form)".to_string(),
            cells: cells
                .into_iter()
                .enumerate()
                .map(|(cell_index, cell)| ProvenanceCell {
                    cell_index,
                    seeds: Vec::new(),
                    cell,
                })
                .collect(),
            obs: None,
        }
    }

    /// Appends one cell with the seeds of the runs that produced it.
    pub(crate) fn push_cell(&mut self, seeds: Vec<u64>, cell: Cell) {
        self.cells.push(ProvenanceCell {
            cell_index: self.cells.len(),
            seeds,
            cell,
        });
    }

    /// The cells' point values, in sweep order.
    pub fn points(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter().map(|c| &c.cell)
    }

    /// Embeds the drained run-metrics snapshot ([`take_run_metrics`])
    /// into the document. A no-op (and byte-identical JSON) unless the
    /// process enabled run metrics with `--obs` /
    /// [`enable_run_metrics`]. Every experiment returns through this,
    /// so each document carries only its own sweep's timings.
    #[must_use]
    pub(crate) fn with_run_metrics(mut self) -> Self {
        self.obs = take_run_metrics();
        self
    }
}

/// Human-readable statement of the [`trial_seed`] contract, embedded in
/// every provenance document.
pub(crate) const SEED_ALGORITHM: &str = "trial_seed(experiment_id, cell_index, trial): SplitMix64 \
     absorb chain over the id bytes, then cell_index, then trial";

// The shim serde derive does not support generic types, so the
// provenance wrappers serialize by hand; the experiments' own cell
// types keep using `#[derive(serde::Serialize)]`.
impl<Cell: serde::Serialize> serde::Serialize for ProvenanceCell<Cell> {
    fn to_json_value(&self) -> serde::json::Value {
        serde::json::Value::Object(vec![
            ("cell_index".to_string(), self.cell_index.to_json_value()),
            ("seeds".to_string(), self.seeds.to_json_value()),
            ("cell".to_string(), self.cell.to_json_value()),
        ])
    }
}

impl<Cell: serde::Serialize> serde::Serialize for Provenance<Cell> {
    fn to_json_value(&self) -> serde::json::Value {
        let mut fields = vec![
            ("experiment".to_string(), self.experiment.to_json_value()),
            ("effort".to_string(), self.effort.to_json_value()),
            (
                "trials_per_cell".to_string(),
                self.trials_per_cell.to_json_value(),
            ),
            ("trial_secs".to_string(), self.trial_secs.to_json_value()),
            (
                "seed_algorithm".to_string(),
                self.seed_algorithm.to_json_value(),
            ),
            ("cells".to_string(), self.cells.to_json_value()),
        ];
        // Emitted only when populated: documents from runs without
        // `--obs` must stay byte-identical to the pre-obs format (the
        // golden quick-provenance capture pins this).
        if let Some(obs) = &self.obs {
            fields.push(("obs".to_string(), obs.to_json_value()));
        }
        serde::json::Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seeds_are_stable_across_calls() {
        assert_eq!(trial_seed("fig4", 3, 7), trial_seed("fig4", 3, 7));
        // Provenance: every golden document's trials depend on this
        // derivation, so pin one value as well as its purity.
        assert_eq!(trial_seed("fig4", 3, 7), 0xc19a_5f3b_014d_2ff7);
    }

    #[test]
    fn seeds_distinguish_every_coordinate() {
        let base = trial_seed("fig4", 3, 7);
        assert_ne!(base, trial_seed("fig5", 3, 7));
        assert_ne!(base, trial_seed("fig4", 4, 7));
        assert_ne!(base, trial_seed("fig4", 3, 8));
    }

    #[test]
    fn seeds_pairwise_distinct_across_all_experiments() {
        // Every experiment id in the workspace, crossed with generous
        // cell and trial ranges: no two seeds may collide anywhere.
        let ids = [
            "fig4",
            "efficiency_measured",
            "ablation_listening",
            "ablation_hidden",
            "ablation_lengths",
            "ablation_dynamic_addr",
            "ablation_central_addr",
            "ablation_scaling",
            "ablation_notification",
            "ablation_duty_cycle",
            "ablation_energy",
            "ablation_mac",
            "ablation_density",
        ];
        let mut seen = HashSet::new();
        for id in ids {
            for cell in 0..32 {
                for trial in 0..10 {
                    assert!(
                        seen.insert(trial_seed(id, cell, trial)),
                        "seed collision at ({id}, {cell}, {trial})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_results_arrive_in_cell_and_trial_order() {
        let cells = vec![10u64, 20, 30];
        let runs = run_trials("harness_test", 4, &cells, |&cell, t| {
            // Deliberately uneven work so completion order scrambles.
            std::thread::sleep(std::time::Duration::from_micros(
                (t.seed % 500) + (cell % 7) * 100,
            ));
            cell + t.trial
        });
        assert_eq!(runs.len(), 3);
        for (i, cell) in runs.iter().enumerate() {
            assert_eq!(cell.cell_index, i);
            assert_eq!(cell.seeds.len(), 4);
            let expected: Vec<u64> = (0..4).map(|t| cells[i] + t).collect();
            assert_eq!(cell.values, expected);
            let expected_seeds: Vec<u64> =
                (0..4).map(|t| trial_seed("harness_test", i, t)).collect();
            assert_eq!(cell.seeds, expected_seeds);
        }
    }

    #[test]
    fn parallel_matches_serial_aggregation() {
        // The harness must aggregate exactly like the serial loop it
        // replaced: same values, same order, same Summary.
        let cells = vec![1.0f64, 2.0, 3.0];
        let runs = run_trials("harness_test", 5, &cells, |&cell, t| {
            cell * (t.trial + 1) as f64
        });
        for (i, cell_runs) in runs.iter().enumerate() {
            let serial: Vec<f64> = (0..5).map(|t| cells[i] * (t + 1) as f64).collect();
            assert_eq!(cell_runs.summarize(|&v| v), Summary::of(&serial));
        }
    }

    #[test]
    fn fast_and_slow_trials_group_identically() {
        // Micro-trials, which finish in any order, and slow ones must
        // group results identically.
        let cells = vec![5u64, 6];
        let fast = run_trials("harness_group_test", 4, &cells, |&cell, t| cell + t.trial);
        let slow = run_trials("harness_group_test", 4, &cells, |&cell, t| {
            std::thread::sleep(std::time::Duration::from_micros(1_100));
            cell + t.trial
        });
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert_eq!(f.cell_index, s.cell_index);
            assert_eq!(f.seeds, s.seeds);
            assert_eq!(f.values, s.values);
        }
    }

    #[test]
    fn single_worker_env_is_respected() {
        // worker_count caps at the job count and floors at 1.
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000_000) >= 1);
    }

    #[test]
    fn worker_override_of_zero_clamps_to_at_least_one() {
        // Regression: RETRI_BENCH_WORKERS=0 used to be honored verbatim
        // by an earlier revision, spawning a zero-worker scope that
        // never drained the queue.
        assert!(resolve_worker_count(Some("0"), 8) >= 1);
        assert!(resolve_worker_count(Some("0"), 1) == 1);
    }

    #[test]
    fn worker_override_garbage_falls_back_to_available_parallelism() {
        let fallback = resolve_worker_count(None, usize::MAX);
        for garbage in ["", "lots", "-3", "4.5", "0x10", "  "] {
            assert_eq!(
                resolve_worker_count(Some(garbage), usize::MAX),
                fallback,
                "override {garbage:?} must fall back, not panic or zero out"
            );
        }
    }

    #[test]
    fn worker_override_valid_values_are_capped_at_job_count() {
        assert_eq!(resolve_worker_count(Some("3"), 100), 3);
        assert_eq!(resolve_worker_count(Some(" 3 "), 100), 3);
        assert_eq!(resolve_worker_count(Some("64"), 2), 2);
        // Zero jobs still resolves to one worker (the scope must not
        // divide by or spawn zero).
        assert_eq!(resolve_worker_count(Some("5"), 0), 1);
    }

    #[test]
    fn run_metrics_capture_trial_timings() {
        enable_run_metrics();
        run_trials("harness_obs_test", 3, &[0u8, 1], |_, t| t.seed);
        let snapshot = take_run_metrics().expect("metrics were enabled");
        assert_eq!(
            snapshot.counter_with("bench_trials_total", &[("experiment", "harness_obs_test")]),
            Some(6)
        );
        let hist = snapshot
            .histogram_with(
                "bench_trial_wall_micros",
                &[("experiment", "harness_obs_test"), ("cell", "0")],
            )
            .expect("per-cell wall histogram exists");
        assert_eq!(hist.count(), 3);
        assert!(snapshot
            .histogram_with(
                "bench_trials_per_second",
                &[("experiment", "harness_obs_test")]
            )
            .is_some());
        // Draining resets: a second take has no harness_obs_test data.
        let drained = take_run_metrics().expect("still enabled");
        assert_eq!(
            drained.counter_with("bench_trials_total", &[("experiment", "harness_obs_test")]),
            None
        );
    }

    #[test]
    fn provenance_obs_key_is_absent_unless_populated() {
        let mut prov = Provenance::new("harness_test", EffortLevel::Quick);
        prov.push_cell(vec![1], 0.5f64);
        let plain = serde_json::to_string_pretty(&prov).unwrap();
        assert!(!plain.contains("\"obs\""));
        prov.obs = Some(Snapshot::default());
        let with_obs = serde_json::to_string_pretty(&prov).unwrap();
        assert!(with_obs.contains("\"obs\""));
        assert!(with_obs.starts_with(&plain[..plain.len() - 2]));
    }

    #[test]
    fn provenance_serializes_deterministically() {
        let mut prov = Provenance::new("harness_test", EffortLevel::Quick);
        prov.push_cell(vec![1, 2], 0.25f64);
        prov.push_cell(vec![3, 4], 0.75f64);
        let a = serde_json::to_string_pretty(&prov).unwrap();
        let b = serde_json::to_string_pretty(&prov.clone()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"experiment\": \"harness_test\""));
        assert!(a.contains("\"trials_per_cell\": 2"));
        assert!(a.contains("\"seeds\""));
    }
}
