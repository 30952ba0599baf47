//! Process-global metrics registry: named counters, gauges, per-phase
//! wall-clock accumulators and latency histograms, flushed as
//! `METRICS_campaigns.json`.
//!
//! The registry is one [`MetricsSlice`] behind one mutex. Campaign code
//! records counters and phases at campaign granularity (once per
//! campaign, fan-out, or cache request — never per simulation tick). A
//! simulation run records its ticks into a slice of its own and the
//! runner folds that slice in once, at run end, through [`absorb`]; the
//! shard executor sums the same per-run slices into its artifact, so
//! what a shard reports never depends on what else the process ran.
//! Harness binaries flush the registry as `METRICS_campaigns.json`;
//! tests isolate themselves by asserting on uniquely named keys rather
//! than clearing the shared registry.

use crate::hist::HistSnapshot;
use crate::json;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// Accumulated wall-clock for one phase label.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PhaseStat {
    /// Total wall-clock seconds recorded under this phase.
    pub wall_secs: f64,
    /// Number of recordings.
    pub count: u64,
}

/// A set of named metrics: the registry's contents, one run's
/// contribution, or a shard's sum of its runs'. Every map merges with a
/// commutative, associative operation ([`add`](MetricsSlice::add): sum,
/// max, histogram absorb), so folding slices in any order gives the
/// same result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSlice {
    /// Counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, sorted by name (folded as maxima).
    pub gauges: BTreeMap<String, f64>,
    /// Phase accumulators, sorted by name.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Histograms, sorted by name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl MetricsSlice {
    /// A copy of the whole registry.
    pub fn capture() -> Self {
        registry().clone()
    }

    /// Contribution between `base` (captured earlier) and `self`
    /// (captured later): counters and histogram counts and sums subtract
    /// (zeros and empty histograms dropped, the later histogram max
    /// kept); gauges keep the later value, since a maximum cannot be
    /// subtracted; phases are left out.
    pub fn delta(&self, base: &MetricsSlice) -> MetricsSlice {
        let mut counters = BTreeMap::new();
        for (k, v) in &self.counters {
            let d = v.saturating_sub(base.counters.get(k).copied().unwrap_or(0));
            if d > 0 {
                counters.insert(k.clone(), d);
            }
        }
        let mut hists = BTreeMap::new();
        for (k, snap) in &self.hists {
            let mut out = snap.clone();
            if let Some(b) = base.hists.get(k) {
                for (i, c) in b.sparse() {
                    if i < out.buckets.len() {
                        out.buckets[i] = out.buckets[i].saturating_sub(c);
                    }
                }
                out.sum = out.sum.saturating_sub(b.sum);
            }
            if out.count() > 0 {
                hists.insert(k.clone(), out);
            }
        }
        MetricsSlice { counters, gauges: self.gauges.clone(), phases: BTreeMap::new(), hists }
    }

    /// Fold in another slice: counters and phases add, gauges take the
    /// max, histograms absorb (bucket-wise add, max of maxima).
    ///
    /// # Errors
    ///
    /// A counter or histogram whose fold overflows `u64` — only forged
    /// artifacts get there; `self` is then left partly folded.
    pub fn add(&mut self, other: &MetricsSlice) -> Result<(), String> {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.checked_add(*v).ok_or_else(|| format!("counter {k:?} overflows u64"))?;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(*v);
            if *v > *slot {
                *slot = *v;
            }
        }
        for (k, p) in &other.phases {
            let slot = self.phases.entry(k.clone()).or_default();
            slot.wall_secs += p.wall_secs;
            slot.count += p.count;
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => mine.absorb(h).map_err(|e| format!("histogram {k:?}: {e}"))?,
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
            }
        }
        Ok(())
    }
}

static REGISTRY: Mutex<MetricsSlice> = Mutex::new(MetricsSlice {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    phases: BTreeMap::new(),
    hists: BTreeMap::new(),
});

fn registry() -> MutexGuard<'static, MetricsSlice> {
    REGISTRY.lock().expect("metrics registry poisoned")
}

/// Add `n` to the named counter (creating it at zero).
pub fn counter_add(name: &str, n: u64) {
    *registry().counters.entry(name.to_string()).or_insert(0) += n;
}

/// Current value of a counter (0 if never touched).
pub fn counter_get(name: &str) -> u64 {
    registry().counters.get(name).copied().unwrap_or(0)
}

/// Set the named gauge to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    registry().gauges.insert(name.to_string(), value);
}

/// Current value of a gauge, if ever set.
pub fn gauge_get(name: &str) -> Option<f64> {
    registry().gauges.get(name).copied()
}

/// Accumulate `secs` of wall-clock under the named phase.
pub fn phase_add(name: &str, secs: f64) {
    let mut reg = registry();
    let stat = reg.phases.entry(name.to_string()).or_default();
    stat.wall_secs += secs;
    stat.count += 1;
}

/// Accumulated stats of a phase (zero if never recorded).
pub fn phase_get(name: &str) -> PhaseStat {
    registry().phases.get(name).copied().unwrap_or_default()
}

/// The named histogram (empty if never recorded).
pub fn hist_get(name: &str) -> HistSnapshot {
    registry().hists.get(name).cloned().unwrap_or_default()
}

/// Fold a slice into the registry ([`MetricsSlice::add`]): how a run's
/// metrics reach it, once per run.
///
/// # Panics
///
/// When a fold overflows `u64`, which counts of real runs never reach.
pub fn absorb(slice: &MetricsSlice) {
    registry().add(slice).expect("metrics registry overflows u64");
}

/// Drop every recorded metric (harness binaries isolate measurement
/// sections; tests should prefer unique key names instead).
pub fn clear() {
    *registry() = MetricsSlice::default();
}

/// Render a snapshot as the `METRICS_campaigns.json` document.
pub fn render_json(snap: &MetricsSlice) -> String {
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
        let doc = render_json(&MetricsSlice::capture());
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
        let doc = render_json(&MetricsSlice::default());
        assert!(doc.contains("\"counters\": {}"));
        assert!(doc.contains("\"phases\": {}"));
        assert!(doc.contains("\"histograms\": {}"));
        assert!(json::parse(&doc).is_ok(), "document parses: {doc}");
    }

    #[test]
    fn absorbed_slices_fold_into_the_registry() {
        let mut run = MetricsSlice::default();
        run.counters.insert("test.metrics.absorb_ticks".into(), 40);
        run.gauges.insert("test.metrics.absorb_worst".into(), 5.0);
        let mut h = HistSnapshot::default();
        h.record(12);
        run.hists.insert("test.metrics.hist_a".into(), h);
        absorb(&run);
        run.gauges.insert("test.metrics.absorb_worst".into(), 3.0);
        absorb(&run);
        assert_eq!(counter_get("test.metrics.absorb_ticks"), 80);
        assert_eq!(gauge_get("test.metrics.absorb_worst"), Some(5.0), "gauges fold as maxima");
        let snap = hist_get("test.metrics.hist_a");
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.max, 12);
        let doc = render_json(&MetricsSlice::capture());
        assert!(doc.contains("\"test.metrics.hist_a\": {\"count\": 2"));
        assert!(json::parse(&doc).is_ok(), "document parses: {doc}");
        assert_eq!(hist_get("test.metrics.hist_never").count(), 0);
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let mut base = MetricsSlice::default();
        base.counters.insert("c".into(), 2);
        base.phases.insert("p".into(), PhaseStat { wall_secs: 0.5, count: 1 });
        let mut later = base.clone();
        later.add(&base).expect("no overflow");
        later.counters.insert("z".into(), 0);
        later.gauges.insert("g".into(), 7.0);
        let mut h = HistSnapshot::default();
        h.record(3);
        later.hists.insert("h".into(), h.clone());
        base.hists.insert("h".into(), h.clone());
        h.record(9);
        later.hists.insert("h2".into(), h.clone());
        let d = later.delta(&base);
        assert_eq!(d.counters, BTreeMap::from([("c".to_string(), 2)]), "zero deltas dropped");
        assert!(d.phases.is_empty());
        assert_eq!(d.gauges, later.gauges, "gauges keep the later value");
        assert_eq!(d.hists, BTreeMap::from([("h2".to_string(), h)]), "empty histograms dropped");
    }

    #[test]
    fn key_order_is_deterministic() {
        // BTreeMap-backed sections render sorted by name, so re-rendering
        // the same snapshot (or one built in a different insertion order)
        // diffs cleanly.
        counter_add("test.metrics.order_b", 1);
        counter_add("test.metrics.order_a", 1);
        let doc = render_json(&MetricsSlice::capture());
        let ia = doc.find("test.metrics.order_a").expect("a rendered");
        let ib = doc.find("test.metrics.order_b").expect("b rendered");
        assert!(ia < ib, "keys sorted regardless of insertion order");
        assert_eq!(doc, render_json(&MetricsSlice::capture()), "rendering is a pure function");
    }
}
