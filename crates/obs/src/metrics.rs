//! Process-global metrics registry: named counters, gauges, and
//! per-phase wall-clock accumulators, flushed as `METRICS_campaigns.json`.
//!
//! Counters and phase accumulators are recorded at campaign granularity
//! (once per campaign, fan-out, or cache request — never per simulation
//! tick), so the always-on cost is a handful of mutex-protected map
//! operations per campaign. Harness binaries flush the registry as
//! `METRICS_campaigns.json`; tests isolate themselves by asserting on
//! uniquely named keys rather than clearing the shared registry.

use crate::hist::{HistSnapshot, Histogram};
use crate::json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Accumulated wall-clock for one phase label.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PhaseStat {
    /// Total wall-clock seconds recorded under this phase.
    pub wall_secs: f64,
    /// Number of recordings.
    pub count: u64,
}

static COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());
static PHASES: Mutex<BTreeMap<String, PhaseStat>> = Mutex::new(BTreeMap::new());
static HISTS: Mutex<BTreeMap<String, Arc<Histogram>>> = Mutex::new(BTreeMap::new());

/// Add `n` to the named counter (creating it at zero).
pub fn counter_add(name: &str, n: u64) {
    let mut counters = COUNTERS.lock().expect("metrics counters poisoned");
    *counters.entry(name.to_string()).or_insert(0) += n;
}

/// Current value of a counter (0 if never touched).
pub fn counter_get(name: &str) -> u64 {
    COUNTERS.lock().expect("metrics counters poisoned").get(name).copied().unwrap_or(0)
}

/// Set the named gauge to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    GAUGES.lock().expect("metrics gauges poisoned").insert(name.to_string(), value);
}

/// Raise the named gauge to `value` if it exceeds the current value
/// (max-aggregation — order-independent, so worst-case accounting stays
/// deterministic across worker scheduling).
pub fn gauge_max(name: &str, value: f64) {
    let mut gauges = GAUGES.lock().expect("metrics gauges poisoned");
    let entry = gauges.entry(name.to_string()).or_insert(value);
    if value > *entry {
        *entry = value;
    }
}

/// Current value of a gauge, if ever set.
pub fn gauge_get(name: &str) -> Option<f64> {
    GAUGES.lock().expect("metrics gauges poisoned").get(name).copied()
}

/// Accumulate `secs` of wall-clock under the named phase.
pub fn phase_add(name: &str, secs: f64) {
    let mut phases = PHASES.lock().expect("metrics phases poisoned");
    let stat = phases.entry(name.to_string()).or_default();
    stat.wall_secs += secs;
    stat.count += 1;
}

/// Accumulated stats of a phase (zero if never recorded).
pub fn phase_get(name: &str) -> PhaseStat {
    PHASES.lock().expect("metrics phases poisoned").get(name).copied().unwrap_or_default()
}

/// The named shared histogram (created empty on first request).
///
/// Callers on hot paths resolve the `Arc` once (one map lock) and then
/// record lock-free through it; the registry keeps the histogram alive
/// for snapshotting.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut hists = HISTS.lock().expect("metrics histograms poisoned");
    Arc::clone(hists.entry(name.to_string()).or_default())
}

/// Record one value into the named histogram (convenience for cold
/// paths; takes the registry lock on every call).
pub fn hist_record(name: &str, value: u64) {
    histogram(name).record(value);
}

/// Snapshot of the named histogram (empty snapshot if never touched).
pub fn hist_get(name: &str) -> HistSnapshot {
    let hists = HISTS.lock().expect("metrics histograms poisoned");
    hists.get(name).map(|h| h.snapshot()).unwrap_or_else(|| Histogram::new().snapshot())
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// All gauges, sorted by name.
    pub gauges: BTreeMap<String, f64>,
    /// All phase accumulators, sorted by name.
    pub phases: BTreeMap<String, PhaseStat>,
    /// All histograms, sorted by name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

/// Snapshot the registry.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: COUNTERS.lock().expect("metrics counters poisoned").clone(),
        gauges: GAUGES.lock().expect("metrics gauges poisoned").clone(),
        phases: PHASES.lock().expect("metrics phases poisoned").clone(),
        hists: HISTS
            .lock()
            .expect("metrics histograms poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect(),
    }
}

/// Drop every recorded metric (harness binaries isolate measurement
/// sections; tests should prefer unique key names instead).
pub fn clear() {
    COUNTERS.lock().expect("metrics counters poisoned").clear();
    GAUGES.lock().expect("metrics gauges poisoned").clear();
    PHASES.lock().expect("metrics phases poisoned").clear();
    HISTS.lock().expect("metrics histograms poisoned").clear();
}

/// Render a snapshot as the `METRICS_campaigns.json` document.
pub fn render_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"trace_enabled\": {},\n", crate::trace::enabled()));

    out.push_str("  \"counters\": {");
    let mut first = true;
    for (k, v) in &snap.counters {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("    \"{}\": {v}", json::escape(k)));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"gauges\": {");
    first = true;
    for (k, v) in &snap.gauges {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("    \"{}\": {}", json::escape(k), json::num(*v)));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"phases\": {");
    first = true;
    for (k, v) in &snap.phases {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!(
            "    \"{}\": {{\"wall_secs\": {}, \"count\": {}}}",
            json::escape(k),
            json::num(v.wall_secs),
            v.count
        ));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });

    out.push_str("  \"histograms\": {");
    first = true;
    for (k, v) in &snap.hists {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("    \"{}\": {}", json::escape(k), v.render_json()));
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

/// Write the current registry as JSON to `path`.
pub fn flush_json(path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_json(&snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        counter_add("test.metrics.counter_a", 2);
        counter_add("test.metrics.counter_a", 3);
        assert_eq!(counter_get("test.metrics.counter_a"), 5);
        assert_eq!(counter_get("test.metrics.never_touched"), 0);
    }

    #[test]
    fn gauges_take_last_write() {
        gauge_set("test.metrics.gauge_a", 1.0);
        gauge_set("test.metrics.gauge_a", 2.5);
        assert_eq!(gauge_get("test.metrics.gauge_a"), Some(2.5));
        assert_eq!(gauge_get("test.metrics.gauge_none"), None);
    }

    #[test]
    fn phases_accumulate_time_and_count() {
        phase_add("test.metrics.phase_a", 0.5);
        phase_add("test.metrics.phase_a", 1.5);
        let stat = phase_get("test.metrics.phase_a");
        assert!((stat.wall_secs - 2.0).abs() < 1e-12);
        assert_eq!(stat.count, 2);
    }

    #[test]
    fn json_has_all_sections_and_escapes() {
        counter_add("test.metrics.\"quoted\"", 1);
        gauge_set("test.metrics.inf_gauge", f64::INFINITY);
        phase_add("test.metrics.phase_json", 0.25);
        let doc = render_json(&snapshot());
        assert!(doc.contains("\"counters\""));
        assert!(doc.contains("\"gauges\""));
        assert!(doc.contains("\"phases\""));
        assert!(doc.contains("\\\"quoted\\\""));
        assert!(doc.contains("\"test.metrics.inf_gauge\": null"));
        assert!(doc.contains("\"wall_secs\": 0.250000, \"count\": 1"));
        assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let doc = render_json(&MetricsSnapshot::default());
        assert!(doc.contains("\"counters\": {}"));
        assert!(doc.contains("\"phases\": {}"));
        assert!(doc.contains("\"histograms\": {}"));
        assert!(json::parse(&doc).is_ok(), "document parses: {doc}");
    }

    #[test]
    fn gauge_max_keeps_the_maximum() {
        gauge_max("test.metrics.max_gauge", 2.0);
        gauge_max("test.metrics.max_gauge", 5.0);
        gauge_max("test.metrics.max_gauge", 3.0);
        assert_eq!(gauge_get("test.metrics.max_gauge"), Some(5.0));
    }

    #[test]
    fn histograms_register_and_render() {
        let h = histogram("test.metrics.hist_a");
        h.record(12);
        hist_record("test.metrics.hist_a", 12);
        let snap = hist_get("test.metrics.hist_a");
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max, 12);
        let doc = render_json(&snapshot());
        assert!(doc.contains("\"test.metrics.hist_a\": {\"count\": 2"));
        assert!(json::parse(&doc).is_ok(), "document parses: {doc}");
        assert_eq!(hist_get("test.metrics.hist_never").count(), 0);
    }

    #[test]
    fn key_order_is_deterministic() {
        // BTreeMap-backed sections render sorted by name, so re-rendering
        // the same snapshot (or one built in a different insertion order)
        // diffs cleanly.
        counter_add("test.metrics.order_b", 1);
        counter_add("test.metrics.order_a", 1);
        let doc = render_json(&snapshot());
        let ia = doc.find("test.metrics.order_a").expect("a rendered");
        let ib = doc.find("test.metrics.order_b").expect("b rendered");
        assert!(ia < ib, "keys sorted regardless of insertion order");
        assert_eq!(doc, render_json(&snapshot()), "rendering is a pure function");
    }
}
