//! `retri-obs`: deterministic observability for the RETRI workspace.
//!
//! The crate has two layers:
//!
//! - [`Obs`] — a handle to a registry of counters, gauges, and
//!   fixed-bucket histograms keyed by `(name, label set)`, or to
//!   nothing.
//! - [`Snapshot`] — a frozen, plain-data, `Send` view with JSONL and
//!   Prometheus-text exporters, a `serde::Serialize` impl for
//!   embedding in provenance JSON, and a parser for reading
//!   recordings back.
//!
//! # One way to record
//!
//! Nothing records a metric per event. Every instrumented component
//! counts in its own plain fields as it works (the simulator's medium
//! stats, the AFF endpoints' stats, `retrid`'s per-domain stats, the
//! bench harness's trial timings) and folds the totals into an [`Obs`]
//! once, after the work, through four verbs: counter add, gauge set,
//! gauge shift and histogram merge. A disabled handle makes each verb
//! one `Option` branch.
//!
//! Metrics are pure observations: a fold reads counts the run kept
//! anyway, so enabling obs never changes simulation behaviour, which
//! the obs-on-equals-obs-off tests in `retri-netsim` and `retri-aff`
//! check.

#![forbid(unsafe_code)]

mod export;
mod histogram;
mod registry;

use registry::Registry;

pub use export::{MetricKind, MetricValue, Snapshot};
pub use histogram::Histogram;

/// A registry of metrics — or nothing.
///
/// `Obs::disabled()` (also `Default`) records nothing: every verb is
/// one branch. `Obs::enabled()` owns a fresh, empty registry. Each
/// verb takes `(name, labels, value)`; the first call for a key
/// creates it, and later calls must use the same kind.
///
/// # Panics
///
/// Every verb panics when its key already holds another kind of
/// metric, and [`Obs::merge_histogram`] when the key's histogram has
/// other bounds: both are programming errors, not data.
#[derive(Default, Debug)]
pub struct Obs {
    registry: Option<Registry>,
}

impl Obs {
    /// The no-op handle.
    #[must_use]
    pub const fn disabled() -> Self {
        Obs { registry: None }
    }

    /// A handle backed by a fresh, empty registry.
    #[must_use]
    pub fn enabled() -> Self {
        Obs {
            registry: Some(Registry::default()),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Freezes the current registry state. `None` when disabled.
    #[must_use]
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.registry.as_ref().map(Registry::snapshot)
    }

    /// Adds `delta` to a counter.
    pub fn add_counter(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if let Some(registry) = &mut self.registry {
            registry.add_counter(name, labels, delta);
        }
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(registry) = &mut self.registry {
            registry.set_gauge(name, labels, value);
        }
    }

    /// Moves a gauge by `delta` (may be negative).
    pub fn shift_gauge(&mut self, name: &str, labels: &[(&str, &str)], delta: f64) {
        if let Some(registry) = &mut self.registry {
            registry.shift_gauge(name, labels, delta);
        }
    }

    /// Adds every bucket and total of `histogram`, as if each of its
    /// observations had been recorded here.
    pub fn merge_histogram(&mut self, name: &str, labels: &[(&str, &str)], histogram: &Histogram) {
        if let Some(registry) = &mut self.registry {
            registry.merge_histogram(name, labels, histogram);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let mut obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.add_counter("x_total", &[], 10);
        obs.set_gauge("g", &[], 5.0);
        obs.shift_gauge("g", &[], -2.0);
        let mut h = Histogram::with_bounds(&[1.0]);
        h.observe(3.0);
        obs.merge_histogram("h", &[], &h);
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn default_is_disabled() {
        let mut obs = Obs::default();
        assert!(!obs.is_enabled());
        obs.add_counter("x_total", &[], 1);
        assert!(obs.snapshot().is_none());
    }

    #[test]
    fn enabled_handles_record_every_verb() {
        let mut obs = Obs::enabled();
        obs.add_counter("x_total", &[], 1);
        obs.add_counter("x_total", &[], 2);
        obs.shift_gauge("g", &[], 4.0);
        obs.shift_gauge("g", &[], -1.5);
        let mut h = Histogram::with_bounds(&[1.0]);
        h.observe(3.0);
        obs.merge_histogram("h", &[], &h);
        let snapshot = obs.snapshot().expect("enabled");
        assert_eq!(snapshot.counter("x_total"), 3);
        assert_eq!(snapshot.gauge("g"), 2.5);
        assert_eq!(snapshot.histogram_with("h", &[]).unwrap().count(), 1);
    }
}
