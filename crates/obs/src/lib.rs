//! `retri-obs`: deterministic, allocation-light observability for the
//! RETRI workspace.
//!
//! The crate has two layers:
//!
//! - [`Registry`] — counters, gauges, and fixed-bucket histograms
//!   keyed by `(name, label set)`, updated through dense index handles
//!   so the hot path never hashes or allocates.
//! - [`Snapshot`] — a frozen, plain-data, `Send` view with JSONL and
//!   Prometheus-text exporters, a `serde::Serialize` impl for
//!   embedding in provenance JSON, and a parser for reading
//!   recordings back.
//!
//! # The zero-cost disabled path
//!
//! Instrumented code holds an [`Obs`] handle. A disabled handle is
//! `None` all the way down: every recording call is a single
//! `Option` branch — no registry, no `RefCell`, no allocation, and
//! crucially **no RNG draws and no change to any simulation output**.
//! The workspace enforces this contract with a byte-identity test
//! against the golden provenance capture (`tests/golden/`): an
//! obs-off run must serialize to exactly the same bytes as before
//! this crate existed.
//!
//! Metrics are pure observations. Enabling obs must never change
//! simulation behaviour either — the simulator's RNG streams are
//! never consulted by any recording call, which is proven by the
//! obs-on-equals-obs-off stats tests in `retri-netsim` and
//! `retri-aff`.

#![forbid(unsafe_code)]

use std::sync::{Arc, Mutex};

mod export;
mod histogram;
mod registry;

use registry::{CounterCell, GaugeCell, HistogramCell};

pub use export::{MetricKind, MetricValue, Snapshot};
pub use histogram::Histogram;
pub use registry::{CounterId, GaugeId, HistogramId, Registry};

/// A cloneable handle to a shared registry — or to nothing.
///
/// `Obs::disabled()` (also `Default`) is the zero-cost path: handles
/// minted from it are `None` and every operation is one branch.
/// `Obs::enabled()` creates a fresh registry; clones share it. The
/// handle is `Send` so instrumented protocols can live inside the
/// sharded simulation engine. The registry `Mutex` is taken only at
/// registration and snapshot time; pre-resolved [`Counter`]/[`Gauge`]/
/// [`HistogramHandle`]s update shared atomic cells directly, so the
/// recording hot path never locks. Cross-process aggregation happens
/// by moving [`Snapshot`]s, which are plain data.
#[derive(Clone, Default, Debug)]
pub struct Obs {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl Obs {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A handle backed by a fresh, empty registry.
    pub fn enabled() -> Self {
        Obs {
            inner: Some(Arc::new(Mutex::new(Registry::new()))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f` against the registry when enabled.
    ///
    /// # Panics
    ///
    /// Panics if a previous recording call panicked while holding the
    /// registry lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|reg| f(&mut reg.lock().expect("obs registry lock poisoned")))
    }

    /// Freezes the current registry state. `None` when disabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner
            .as_ref()
            .map(|reg| reg.lock().expect("obs registry lock poisoned").snapshot())
    }

    /// Pre-resolves a counter handle (no-op handle when disabled).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|reg| {
                let mut reg = reg.lock().expect("obs registry lock poisoned");
                let id = reg.counter(name, labels);
                reg.counter_cell(id)
            }),
        }
    }

    /// Pre-resolves a gauge handle (no-op handle when disabled).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge {
            cell: self.inner.as_ref().map(|reg| {
                let mut reg = reg.lock().expect("obs registry lock poisoned");
                let id = reg.gauge(name, labels);
                reg.gauge_cell(id)
            }),
        }
    }

    /// Pre-resolves a histogram handle (no-op handle when disabled).
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramHandle {
        HistogramHandle {
            cell: self.inner.as_ref().map(|reg| {
                let mut reg = reg.lock().expect("obs registry lock poisoned");
                let id = reg.histogram(name, labels, bounds);
                reg.histogram_cell(id)
            }),
        }
    }
}

/// Pre-resolved counter: `inc`/`add` are one branch when disabled,
/// one relaxed atomic add when enabled — never a lock.
#[derive(Clone, Default, Debug)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.add(delta);
        }
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| cell.get())
    }
}

/// Pre-resolved gauge. Updates are atomic stores/CAS on the shared
/// cell — never a lock.
#[derive(Clone, Default, Debug)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// Sets the gauge to `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.set(value);
        }
    }

    /// Moves the gauge by `delta` (may be negative).
    #[inline]
    pub fn shift(&self, delta: f64) {
        if let Some(cell) = &self.cell {
            cell.shift(delta);
        }
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> f64 {
        self.cell.as_ref().map_or(0.0, |cell| cell.get())
    }
}

/// Pre-resolved histogram. Observation is a bounded bucket scan plus
/// atomic adds on the shared cell — never a lock.
#[derive(Clone, Default, Debug)]
pub struct HistogramHandle {
    cell: Option<Arc<HistogramCell>>,
}

impl HistogramHandle {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        if let Some(cell) = &self.cell {
            cell.observe(value);
        }
    }

    /// Adds every bucket and total of `histogram`, as if each of its
    /// observations had been recorded here.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&self, histogram: &Histogram) {
        if let Some(cell) = &self.cell {
            cell.merge(histogram);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let c = obs.counter("x_total", &[]);
        let g = obs.gauge("g", &[]);
        let h = obs.histogram("h", &[], &[1.0]);
        c.inc();
        c.add(10);
        g.set(5.0);
        g.shift(-2.0);
        h.observe(3.0);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0.0);
        assert!(obs.snapshot().is_none());
        assert!(obs.with(|_| ()).is_none());
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::enabled();
        let a = obs.counter("shared_total", &[]);
        let b = obs.clone().counter("shared_total", &[]);
        a.inc();
        b.add(2);
        assert_eq!(obs.snapshot().unwrap().counter("shared_total"), 3);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Obs::default().is_enabled());
        Counter::default().inc();
        Gauge::default().set(1.0);
        HistogramHandle::default().observe(1.0);
    }
}
