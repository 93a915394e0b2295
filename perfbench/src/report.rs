//! Named metrics, output checks, and the result line.

use std::fmt::Write as _;

/// Metrics in the order they were recorded, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Every metric as `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Output checks counted against attempts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
}

impl Checks {
    /// Counts one check, and reports a failed one on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Adds `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// The result line: one JSON object.
#[must_use]
pub fn result_json(checks: Checks, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push_str("}}");
    out
}

/// `value` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it; non-finite values become `null`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        let s = format!("{value:?}");
        s
    } else {
        "null".to_string()
    }
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`); 0 where the
/// file does not exist.
#[must_use]
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.trim().trim_end_matches("kB").trim().parse().ok()
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.5, "s");
        metrics.set("p50_us", 52.25, "us");
        metrics.set("setup_s", 0.75, "s");
        let mut checks = Checks::default();
        checks.add(10, 0);
        assert_eq!(
            result_json(checks, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_us\": {\"value\": 52.25, \"unit\": \"us\"}, \"setup_s\": {\"value\": 0.75, \"unit\": \"s\"}}}"
        );
        checks.check(false, "deliberate");
        assert!(result_json(checks, &metrics)
            .starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1"));
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(proc_status_kb("VmHWM") > 0);
            assert!(proc_status_kb("VmRSS") > 0);
        }
    }
}
