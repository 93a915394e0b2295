//! The metrics registry: counters, gauges, and histograms keyed by
//! `(name, label set)`.
//!
//! Registration resolves a key to a dense index once, up front; the
//! hot path then updates a metric through a shared atomic cell — no
//! hashing, no allocation, no formatting, and (crucially for the
//! sharded engine) **no lock**. All iteration orders are deterministic
//! (insertion order internally, sorted order in [`Snapshot`]s), so two
//! identical runs export identical bytes.
//!
//! [`Snapshot`]: crate::Snapshot

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::export::{MetricKind, MetricValue, Snapshot};
use crate::histogram::Histogram;

/// Handle to a registered counter. Cheap to copy; only valid for the
/// registry that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(pub(crate) usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(pub(crate) usize);

/// Shared storage for one counter. Updates are relaxed atomic adds:
/// per-cell totals are exact regardless of interleaving, and snapshot
/// consistency across cells is provided by the callers (the engine
/// quiesces worker threads before any snapshot).
#[derive(Debug, Default)]
pub(crate) struct CounterCell(AtomicU64);

impl CounterCell {
    fn with_value(value: u64) -> Self {
        CounterCell(AtomicU64::new(value))
    }

    #[inline]
    pub(crate) fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared storage for one gauge: an `f64` kept as its bit pattern in
/// an `AtomicU64`. `shift` is a CAS loop so concurrent shifts never
/// lose updates.
#[derive(Debug)]
pub(crate) struct GaugeCell(AtomicU64);

impl GaugeCell {
    fn with_value(value: f64) -> Self {
        GaugeCell(AtomicU64::new(value.to_bits()))
    }

    #[inline]
    pub(crate) fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn shift(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    #[inline]
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared storage for one fixed-bucket histogram: per-bucket atomic
/// counts plus a CAS-maintained sum. Bounds are immutable after
/// registration, exactly like [`Histogram`].
#[derive(Debug)]
pub(crate) struct HistogramCell {
    bounds: Vec<f64>,
    /// One slot per bound plus the trailing `+Inf` slot.
    counts: Vec<AtomicU64>,
    sum: GaugeCell,
}

impl HistogramCell {
    fn with_bounds(bounds: &[f64]) -> Self {
        // Reuse Histogram's bound validation (panics on bad bounds).
        let shape = Histogram::with_bounds(bounds);
        HistogramCell {
            counts: (0..=shape.bounds().len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            bounds: shape.bounds().to_vec(),
            sum: GaugeCell::with_value(0.0),
        }
    }

    #[inline]
    pub(crate) fn observe(&self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|bound| value <= *bound)
            .unwrap_or(self.bounds.len());
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.shift(value);
    }

    /// Adds every bucket and the sum of `other`, which must have the
    /// same bounds.
    pub(crate) fn merge(&self, other: &Histogram) {
        assert_eq!(
            self.bounds,
            other.bounds(),
            "cannot merge histograms with different bounds"
        );
        for (mine, theirs) in self.counts.iter().zip(other.counts()) {
            mine.fetch_add(*theirs, Ordering::Relaxed);
        }
        self.sum.shift(other.sum());
    }

    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Materializes the current state as a plain [`Histogram`]. The
    /// total count is derived from the bucket counts, so the result is
    /// always internally consistent.
    pub(crate) fn load(&self) -> Histogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        Histogram::from_parts(self.bounds.clone(), counts, count, self.sum.get())
            .expect("atomic histogram state is shape-consistent by construction")
    }
}

#[derive(Debug)]
pub(crate) enum MetricData {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

impl MetricData {
    fn kind(&self) -> &'static str {
        match self {
            MetricData::Counter(_) => "counter",
            MetricData::Gauge(_) => "gauge",
            MetricData::Histogram(_) => "histogram",
        }
    }
}

impl Clone for MetricData {
    /// Deep copy: a cloned registry owns fresh cells holding the same
    /// values, preserving the value semantics the pre-atomic registry
    /// had.
    fn clone(&self) -> Self {
        match self {
            MetricData::Counter(c) => {
                MetricData::Counter(Arc::new(CounterCell::with_value(c.get())))
            }
            MetricData::Gauge(g) => MetricData::Gauge(Arc::new(GaugeCell::with_value(g.get()))),
            MetricData::Histogram(h) => {
                let loaded = h.load();
                let cell = HistogramCell::with_bounds(loaded.bounds());
                cell.merge(&loaded);
                MetricData::Histogram(Arc::new(cell))
            }
        }
    }
}

#[derive(Clone, Debug)]
struct Metric {
    name: String,
    labels: Vec<(String, String)>,
    data: MetricData,
}

/// A deterministic metrics registry.
///
/// Names are snake_case with a subsystem prefix (`netsim_…`, `aff_…`,
/// `bench_…`) and counters end in `_total`, following the Prometheus
/// conventions documented in EXPERIMENTS.md. Registering the same
/// `(name, labels)` twice returns the original handle, so independent
/// components may share a metric.
#[derive(Default, Clone, Debug)]
pub struct Registry {
    metrics: Vec<Metric>,
    index: HashMap<(String, Vec<(String, String)>), usize>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn register(&mut self, name: &str, labels: &[(&str, &str)], data: MetricData) -> usize {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let key = (name.to_string(), labels.clone());
        if let Some(&slot) = self.index.get(&key) {
            assert_eq!(
                self.metrics[slot].data.kind(),
                data.kind(),
                "metric {name:?} re-registered as a different kind"
            );
            return slot;
        }
        let slot = self.metrics.len();
        self.metrics.push(Metric {
            name: name.to_string(),
            labels,
            data,
        });
        self.index.insert(key, slot);
        slot
    }

    /// Registers (or finds) a monotonically increasing counter.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(self.register(
            name,
            labels,
            MetricData::Counter(Arc::new(CounterCell::default())),
        ))
    }

    /// Registers (or finds) a gauge (a value that can move both ways).
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(self.register(
            name,
            labels,
            MetricData::Gauge(Arc::new(GaugeCell::with_value(0.0))),
        ))
    }

    /// Registers (or finds) a fixed-bucket histogram. Bounds must match
    /// on re-registration.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> HistogramId {
        let slot = self.register(
            name,
            labels,
            MetricData::Histogram(Arc::new(HistogramCell::with_bounds(bounds))),
        );
        if let MetricData::Histogram(h) = &self.metrics[slot].data {
            assert_eq!(
                h.bounds(),
                bounds,
                "histogram {name:?} re-registered with different bounds"
            );
        }
        HistogramId(slot)
    }

    /// The shared cell behind a counter, for pre-resolved handles.
    pub(crate) fn counter_cell(&self, id: CounterId) -> Arc<CounterCell> {
        match &self.metrics[id.0].data {
            MetricData::Counter(c) => Arc::clone(c),
            _ => unreachable!("CounterId always points at a counter"),
        }
    }

    /// The shared cell behind a gauge, for pre-resolved handles.
    pub(crate) fn gauge_cell(&self, id: GaugeId) -> Arc<GaugeCell> {
        match &self.metrics[id.0].data {
            MetricData::Gauge(g) => Arc::clone(g),
            _ => unreachable!("GaugeId always points at a gauge"),
        }
    }

    /// The shared cell behind a histogram, for pre-resolved handles.
    pub(crate) fn histogram_cell(&self, id: HistogramId) -> Arc<HistogramCell> {
        match &self.metrics[id.0].data {
            MetricData::Histogram(h) => Arc::clone(h),
            _ => unreachable!("HistogramId always points at a histogram"),
        }
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        match &self.metrics[id.0].data {
            MetricData::Counter(c) => c.add(delta),
            _ => unreachable!("CounterId always points at a counter"),
        }
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        match &self.metrics[id.0].data {
            MetricData::Counter(c) => c.get(),
            _ => unreachable!("CounterId always points at a counter"),
        }
    }

    /// Sets a gauge to an absolute value.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        match &self.metrics[id.0].data {
            MetricData::Gauge(g) => g.set(value),
            _ => unreachable!("GaugeId always points at a gauge"),
        }
    }

    /// Moves a gauge by `delta` (may be negative).
    #[inline]
    pub fn shift(&mut self, id: GaugeId, delta: f64) {
        match &self.metrics[id.0].data {
            MetricData::Gauge(g) => g.shift(delta),
            _ => unreachable!("GaugeId always points at a gauge"),
        }
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        match &self.metrics[id.0].data {
            MetricData::Gauge(g) => g.get(),
            _ => unreachable!("GaugeId always points at a gauge"),
        }
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        match &self.metrics[id.0].data {
            MetricData::Histogram(h) => h.observe(value),
            _ => unreachable!("HistogramId always points at a histogram"),
        }
    }

    /// Materializes a histogram's current state.
    pub fn histogram_value(&self, id: HistogramId) -> Histogram {
        match &self.metrics[id.0].data {
            MetricData::Histogram(h) => h.load(),
            _ => unreachable!("HistogramId always points at a histogram"),
        }
    }

    /// Freezes the current state into a plain-data [`Snapshot`],
    /// sorted by `(name, labels)` so the export order is independent
    /// of registration order.
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics: Vec<MetricValue> = self
            .metrics
            .iter()
            .map(|m| MetricValue {
                name: m.name.clone(),
                labels: m.labels.clone(),
                value: match &m.data {
                    MetricData::Counter(c) => MetricKind::Counter(c.get()),
                    MetricData::Gauge(g) => MetricKind::Gauge(g.get()),
                    MetricData::Histogram(h) => MetricKind::Histogram(h.load()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut reg = Registry::new();
        let a = reg.counter("x_total", &[("reason", "loss")]);
        let b = reg.counter("x_total", &[("reason", "loss")]);
        let c = reg.counter("x_total", &[("reason", "other")]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        reg.add(a, 2);
        reg.add(b, 3);
        assert_eq!(reg.counter_value(a), 5);
        assert_eq!(reg.counter_value(c), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn gauges_move_both_ways() {
        let mut reg = Registry::new();
        let g = reg.gauge("occupancy", &[]);
        reg.shift(g, 3.0);
        reg.shift(g, -1.0);
        assert_eq!(reg.gauge_value(g), 2.0);
        reg.set(g, 10.0);
        assert_eq!(reg.gauge_value(g), 10.0);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut reg = Registry::new();
        reg.counter("m", &[]);
        reg.gauge("m", &[]);
    }

    #[test]
    fn cloned_registries_do_not_share_cells() {
        let mut reg = Registry::new();
        let c = reg.counter("x_total", &[]);
        reg.add(c, 1);
        let mut other = reg.clone();
        other.add(c, 10);
        assert_eq!(reg.counter_value(c), 1);
        assert_eq!(other.counter_value(c), 11);
    }

    #[test]
    fn histogram_cells_round_trip() {
        let mut reg = Registry::new();
        let h = reg.histogram("airtime", &[], &[1.0, 10.0]);
        reg.observe(h, 0.5);
        reg.observe(h, 5.0);
        reg.observe(h, 50.0);
        let loaded = reg.histogram_value(h);
        assert_eq!(loaded.counts(), &[1, 1, 1]);
        assert_eq!(loaded.count(), 3);
        assert!((loaded.sum() - 55.5).abs() < 1e-9);
    }

    #[test]
    fn merging_a_histogram_adds_its_observations() {
        let mut reg = Registry::new();
        let h = reg.histogram("airtime", &[], &[1.0, 10.0]);
        reg.observe(h, 5.0);
        let mut other = Histogram::with_bounds(&[1.0, 10.0]);
        other.observe(0.5);
        other.observe(50.0);
        reg.histogram_cell(h).merge(&other);
        let loaded = reg.histogram_value(h);
        assert_eq!(loaded.counts(), &[1, 1, 1]);
        assert_eq!(loaded.count(), 3);
        assert_eq!(loaded.sum(), 55.5);
    }

    #[test]
    fn snapshot_order_is_independent_of_registration_order() {
        let mut forward = Registry::new();
        forward.counter("a_total", &[]);
        forward.counter("b_total", &[]);
        let mut backward = Registry::new();
        backward.counter("b_total", &[]);
        backward.counter("a_total", &[]);
        assert_eq!(
            forward
                .snapshot()
                .metrics
                .iter()
                .map(|m| m.name.clone())
                .collect::<Vec<_>>(),
            backward
                .snapshot()
                .metrics
                .iter()
                .map(|m| m.name.clone())
                .collect::<Vec<_>>(),
        );
    }
}
