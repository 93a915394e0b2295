//! The metrics registry: plain counter, gauge and histogram values
//! keyed by `(name, label set)`.
//!
//! Nothing records into it per event. Every instrumented component
//! counts in its own fields and folds the totals in after the work, so
//! the registry is an ordered map of plain values, and a [`Snapshot`]
//! is a copy of it in key order: two identical runs export identical
//! bytes.
//!
//! [`Snapshot`]: crate::Snapshot

use std::collections::BTreeMap;

use crate::export::{MetricKind, MetricValue, Snapshot};
use crate::histogram::Histogram;

type Key = (String, Vec<(String, String)>);

/// A deterministic metrics registry.
///
/// Names are snake_case with a subsystem prefix (`netsim_…`, `aff_…`,
/// `svc_…`, `bench_…`) and counters end in `_total`, following the
/// Prometheus conventions documented in EXPERIMENTS.md. Recording into
/// an existing `(name, labels)` key updates it in place, so independent
/// components may share a metric; each key keeps the kind it was first
/// recorded as.
#[derive(Default, Debug)]
pub(crate) struct Registry {
    metrics: BTreeMap<Key, MetricKind>,
}

impl Registry {
    /// The value under `(name, labels)`, inserted as `fresh()` when the
    /// key is new.
    fn entry(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        fresh: impl FnOnce() -> MetricKind,
    ) -> &mut MetricKind {
        let labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        self.metrics
            .entry((name.to_string(), labels))
            .or_insert_with(fresh)
    }

    /// Adds `delta` to a counter.
    pub(crate) fn add_counter(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        match self.entry(name, labels, || MetricKind::Counter(0)) {
            MetricKind::Counter(value) => *value += delta,
            _ => kind_mismatch(name),
        }
    }

    /// Sets a gauge to `value`.
    pub(crate) fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        match self.entry(name, labels, || MetricKind::Gauge(0.0)) {
            MetricKind::Gauge(gauge) => *gauge = value,
            _ => kind_mismatch(name),
        }
    }

    /// Moves a gauge by `delta` (may be negative).
    pub(crate) fn shift_gauge(&mut self, name: &str, labels: &[(&str, &str)], delta: f64) {
        match self.entry(name, labels, || MetricKind::Gauge(0.0)) {
            MetricKind::Gauge(gauge) => *gauge += delta,
            _ => kind_mismatch(name),
        }
    }

    /// Adds every bucket and total of `histogram`; a new key starts
    /// empty with its bounds.
    ///
    /// # Panics
    ///
    /// Panics if the key already holds a histogram with other bounds.
    pub(crate) fn merge_histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        histogram: &Histogram,
    ) {
        let fresh = || MetricKind::Histogram(Histogram::with_bounds(histogram.bounds()));
        match self.entry(name, labels, fresh) {
            MetricKind::Histogram(mine) => mine.merge(histogram),
            _ => kind_mismatch(name),
        }
    }

    /// Freezes the current state into a plain-data [`Snapshot`],
    /// sorted by `(name, labels)`.
    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .map(|((name, labels), value)| MetricValue {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: value.clone(),
                })
                .collect(),
        }
    }
}

fn kind_mismatch(name: &str) -> ! {
    panic!("metric {name:?} re-registered as a different kind")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut reg = Registry::default();
        reg.add_counter("x_total", &[("reason", "loss")], 2);
        reg.add_counter("x_total", &[("reason", "loss")], 3);
        reg.add_counter("x_total", &[("reason", "other")], 0);
        let snapshot = reg.snapshot();
        assert_eq!(
            snapshot.counter_with("x_total", &[("reason", "loss")]),
            Some(5)
        );
        assert_eq!(
            snapshot.counter_with("x_total", &[("reason", "other")]),
            Some(0)
        );
        assert_eq!(snapshot.metrics.len(), 2);
    }

    #[test]
    fn gauges_move_both_ways() {
        let mut reg = Registry::default();
        reg.shift_gauge("occupancy", &[], 3.0);
        reg.shift_gauge("occupancy", &[], -1.0);
        assert_eq!(reg.snapshot().gauge("occupancy"), 2.0);
        reg.set_gauge("occupancy", &[], 10.0);
        assert_eq!(reg.snapshot().gauge("occupancy"), 10.0);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut reg = Registry::default();
        reg.add_counter("m", &[], 0);
        reg.set_gauge("m", &[], 0.0);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_mismatch_panics() {
        let mut reg = Registry::default();
        reg.merge_histogram("h", &[], &Histogram::with_bounds(&[1.0]));
        reg.merge_histogram("h", &[], &Histogram::with_bounds(&[2.0]));
    }

    #[test]
    fn histogram_cells_round_trip() {
        let mut reg = Registry::default();
        let mut observed = Histogram::with_bounds(&[1.0, 10.0]);
        observed.observe(0.5);
        observed.observe(5.0);
        observed.observe(50.0);
        reg.merge_histogram("airtime", &[], &observed);
        let snapshot = reg.snapshot();
        let loaded = snapshot.histogram_with("airtime", &[]).unwrap();
        assert_eq!(loaded.counts(), &[1, 1, 1]);
        assert_eq!(loaded.count(), 3);
        assert!((loaded.sum() - 55.5).abs() < 1e-9);
    }

    #[test]
    fn merging_a_histogram_adds_its_observations() {
        let mut reg = Registry::default();
        let mut first = Histogram::with_bounds(&[1.0, 10.0]);
        first.observe(5.0);
        reg.merge_histogram("airtime", &[], &first);
        let mut other = Histogram::with_bounds(&[1.0, 10.0]);
        other.observe(0.5);
        other.observe(50.0);
        reg.merge_histogram("airtime", &[], &other);
        let snapshot = reg.snapshot();
        let loaded = snapshot.histogram_with("airtime", &[]).unwrap();
        assert_eq!(loaded.counts(), &[1, 1, 1]);
        assert_eq!(loaded.count(), 3);
        assert_eq!(loaded.sum(), 55.5);
    }

    #[test]
    fn snapshot_order_is_independent_of_registration_order() {
        let mut forward = Registry::default();
        forward.add_counter("a_total", &[], 0);
        forward.add_counter("b_total", &[], 0);
        let mut backward = Registry::default();
        backward.add_counter("b_total", &[], 0);
        backward.add_counter("a_total", &[], 0);
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
