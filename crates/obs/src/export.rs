//! Plain-data snapshots and the two export formats.
//!
//! A [`Snapshot`] is what crosses thread/process boundaries: it owns
//! its strings, implements `serde::Serialize` (for embedding in the
//! bench provenance JSON), and can be re-read from parsed JSON (for
//! `trace_report`). Metrics are sorted by `(name, labels)`, so equal
//! registries export equal bytes.

use serde::json::Value;

use crate::histogram::Histogram;

/// The value half of an exported metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

/// One exported metric: name, label set, value.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    /// Metric name (`netsim_…`, `aff_…`, `bench_…`).
    pub name: String,
    /// Label key/value pairs, sorted as registered.
    pub labels: Vec<(String, String)>,
    /// The recorded value.
    pub value: MetricKind,
}

/// A frozen, order-deterministic view of a registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All metrics, sorted by `(name, labels)`.
    pub metrics: Vec<MetricValue>,
}

/// Formats a float the way the workspace JSON writer does (integral
/// values keep a trailing `.0`), so Prometheus and JSONL exports agree.
fn fmt_f64(value: f64) -> String {
    let mut text = format!("{value}");
    if value.is_finite() && !text.contains('.') && !text.contains('e') {
        text.push_str(".0");
    }
    text
}

fn labels_value(labels: &[(String, String)]) -> Value {
    Value::Object(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Value::String(v.clone())))
            .collect(),
    )
}

fn metric_value(metric: &MetricValue) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::String(metric.name.clone())),
        ("labels".to_string(), labels_value(&metric.labels)),
    ];
    match &metric.value {
        MetricKind::Counter(v) => {
            fields.push(("type".to_string(), Value::String("counter".to_string())));
            fields.push(("value".to_string(), Value::UInt(*v)));
        }
        MetricKind::Gauge(v) => {
            fields.push(("type".to_string(), Value::String("gauge".to_string())));
            fields.push(("value".to_string(), Value::Float(*v)));
        }
        MetricKind::Histogram(h) => {
            fields.push(("type".to_string(), Value::String("histogram".to_string())));
            fields.push((
                "bounds".to_string(),
                Value::Array(h.bounds().iter().map(|b| Value::Float(*b)).collect()),
            ));
            fields.push((
                "counts".to_string(),
                Value::Array(h.counts().iter().map(|c| Value::UInt(*c)).collect()),
            ));
            fields.push(("count".to_string(), Value::UInt(h.count())));
            fields.push(("sum".to_string(), Value::Float(h.sum())));
        }
    }
    Value::Object(fields)
}

impl serde::Serialize for Snapshot {
    fn to_json_value(&self) -> Value {
        Value::Array(self.metrics.iter().map(metric_value).collect())
    }
}

impl Snapshot {
    /// Sum of all counters named `name`, across every label set.
    /// Zero when absent (counters that never fired may be unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match &m.value {
                MetricKind::Counter(v) => *v,
                _ => panic!("metric {name:?} is not a counter"),
            })
            .sum()
    }

    /// The counter with exactly this `(name, labels)` key, if present.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.find(name, labels).map(|m| match &m.value {
            MetricKind::Counter(v) => *v,
            _ => panic!("metric {name:?} is not a counter"),
        })
    }

    /// Sum of all gauges named `name`, across every label set.
    pub fn gauge(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match &m.value {
                MetricKind::Gauge(v) => *v,
                _ => panic!("metric {name:?} is not a gauge"),
            })
            .sum()
    }

    /// The histogram with exactly this `(name, labels)` key.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.find(name, labels).map(|m| match &m.value {
            MetricKind::Histogram(h) => h,
            _ => panic!("metric {name:?} is not a histogram"),
        })
    }

    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// JSON-lines export: one compact object per metric, newline
    /// terminated. Suitable for `jq`/`grep` and CI artifacts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            out.push_str(&metric_value(metric).to_compact_string());
            out.push('\n');
        }
        out
    }

    /// Prometheus text exposition format (classic histograms with
    /// cumulative `_bucket{le=…}` series, `_sum`, `_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for metric in &self.metrics {
            if last_name != Some(metric.name.as_str()) {
                let kind = match &metric.value {
                    MetricKind::Counter(_) => "counter",
                    MetricKind::Gauge(_) => "gauge",
                    MetricKind::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {} {kind}\n", metric.name));
                last_name = Some(metric.name.as_str());
            }
            let labels = |extra: Option<(&str, &str)>| -> String {
                let mut pairs: Vec<String> = metric
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                if let Some((k, v)) = extra {
                    pairs.push(format!("{k}=\"{v}\""));
                }
                if pairs.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", pairs.join(","))
                }
            };
            match &metric.value {
                MetricKind::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", metric.name, labels(None)));
                }
                MetricKind::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        metric.name,
                        labels(None),
                        fmt_f64(*v)
                    ));
                }
                MetricKind::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, count) in h.bounds().iter().zip(h.counts()) {
                        cumulative += count;
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            metric.name,
                            labels(Some(("le", &fmt_f64(*bound))))
                        ));
                    }
                    cumulative += h.counts().last().copied().unwrap_or(0);
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        metric.name,
                        labels(Some(("le", "+Inf")))
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        metric.name,
                        labels(None),
                        fmt_f64(h.sum())
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        metric.name,
                        labels(None),
                        h.count()
                    ));
                }
            }
        }
        out
    }

    /// Rebuilds a snapshot from the JSON produced by the `Serialize`
    /// impl (an array of metric objects). Returns `None` on any shape
    /// mismatch — callers treat that as a corrupt recording.
    pub fn from_json_value(value: &Value) -> Option<Snapshot> {
        let mut metrics = Vec::new();
        for entry in value.as_array()? {
            let name = entry.get("name")?.as_str()?.to_string();
            let labels = entry
                .get("labels")?
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect::<Option<Vec<_>>>()?;
            let value = match entry.get("type")?.as_str()? {
                "counter" => MetricKind::Counter(entry.get("value")?.as_u64()?),
                "gauge" => MetricKind::Gauge(entry.get("value")?.as_f64()?),
                "histogram" => {
                    let bounds = entry
                        .get("bounds")?
                        .as_array()?
                        .iter()
                        .map(Value::as_f64)
                        .collect::<Option<Vec<_>>>()?;
                    let counts = entry
                        .get("counts")?
                        .as_array()?
                        .iter()
                        .map(Value::as_u64)
                        .collect::<Option<Vec<_>>>()?;
                    let mut histogram = Histogram::with_bounds(&bounds);
                    let observed = Histogram::from_parts(
                        bounds,
                        counts,
                        entry.get("count")?.as_u64()?,
                        entry.get("sum")?.as_f64()?,
                    )?;
                    histogram.merge(&observed);
                    MetricKind::Histogram(histogram)
                }
                _ => return None,
            };
            metrics.push(MetricValue {
                name,
                labels,
                value,
            });
        }
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Some(Snapshot { metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let mut reg = Registry::default();
        let mut airtime = Histogram::with_bounds(&[100.0, 1000.0]);
        airtime.observe(50.0);
        airtime.observe(5000.0);
        reg.add_counter("netsim_drops_total", &[("reason", "rf_collision")], 7);
        reg.set_gauge("aff_reassembly_pending_buffers", &[], 3.0);
        reg.merge_histogram("netsim_tx_airtime_micros", &[], &airtime);
        reg.snapshot()
    }

    #[test]
    fn jsonl_is_one_compact_object_per_line() {
        let jsonl = sample().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1],
            "{\"name\":\"netsim_drops_total\",\"labels\":{\"reason\":\"rf_collision\"},\"type\":\"counter\",\"value\":7}"
        );
    }

    #[test]
    fn prometheus_histograms_are_cumulative() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE netsim_drops_total counter"));
        assert!(text.contains("netsim_drops_total{reason=\"rf_collision\"} 7"));
        assert!(text.contains("netsim_tx_airtime_micros_bucket{le=\"100.0\"} 1"));
        assert!(text.contains("netsim_tx_airtime_micros_bucket{le=\"1000.0\"} 1"));
        assert!(text.contains("netsim_tx_airtime_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("netsim_tx_airtime_micros_count 2"));
        assert!(text.contains("aff_reassembly_pending_buffers 3.0"));
    }

    #[test]
    fn serialize_round_trips_through_json() {
        let snapshot = sample();
        let value = serde::Serialize::to_json_value(&snapshot);
        let reparsed =
            serde_json::from_str(&value.to_pretty_string()).expect("snapshot JSON parses");
        assert_eq!(Snapshot::from_json_value(&reparsed), Some(snapshot));
    }
}
