//! The per-run JSONL journal: one line per simulation run, buffered in a
//! process-global sink and flushed to the path selected by
//! `DIVERSEAV_TRACE` (see [`crate::trace::trace_path`]).
//!
//! Run lines are rendered by the campaign crate's run record
//! (`diverseav_faultinj::RunRecord`, whose fields need the simulator's
//! trajectory type and so cannot live here); this module owns the sink
//! and the one codec of the injection site they embed, [`FaultSite`].
//! Run lines carry no timestamps — every field is a pure function of the
//! run's inputs — so, for a fixed sequence of campaigns, the journal's
//! run lines are bit-identical for any `DIVERSEAV_THREADS` value
//! (campaign code appends them from the engine's index-ordered results,
//! never from worker completion order). Engine span lines
//! (`"type": "span_events"`) do carry timestamps and worker ids, which
//! vary run to run by design.

use crate::json::{self, Value};
use crate::trace::Event;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The injection site of a faulted run, flattened for the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSite {
    /// Target fabric (`"GPU"` / `"CPU"`).
    pub profile: String,
    /// Processor unit index.
    pub unit: usize,
    /// Fault model label (`"transient"` / `"permanent"`).
    pub model: String,
    /// XOR bit mask applied to the destination register.
    pub mask: u32,
    /// Dynamic-instruction index (cycle) for transient faults.
    pub cycle: Option<u64>,
    /// Targeted opcode for permanent faults.
    pub op: Option<String>,
}

impl FaultSite {
    /// The fault-class label: a sensor site's class (its `op`, e.g.
    /// `"dropout"`), a register site's fault model (`"transient"` /
    /// `"permanent"`).
    pub fn class(&self) -> &str {
        match &self.op {
            Some(class) if self.model == "sensor" => class,
            _ => &self.model,
        }
    }

    /// Render as a JSON object, losslessly: `cycle` (a transient
    /// fault's instruction index, a sensor fault's seed) as a decimal
    /// string, so values above 2^53 survive.
    pub fn render(&self) -> String {
        format!(
            "{{\"profile\": \"{}\", \"unit\": {}, \"model\": \"{}\", \"mask\": {}, \
             \"cycle\": {}, \"op\": {}}}",
            json::escape(&self.profile),
            self.unit,
            json::escape(&self.model),
            self.mask,
            self.cycle.map(json::u64_str).unwrap_or_else(|| "null".to_string()),
            json::opt_str(self.op.as_deref()),
        )
    }

    /// Parse an object written by [`render`](Self::render): exactly its
    /// members, in its order, each in its encoding.
    pub fn parse(v: &Value) -> Result<FaultSite, String> {
        v.req_keys(&["profile", "unit", "model", "mask", "cycle", "op"])?;
        Ok(FaultSite {
            profile: v.req_str("profile")?,
            unit: v.req_usize("unit")?,
            model: v.req_str("model")?,
            mask: v.req_u32("mask")?,
            cycle: v.opt_with("cycle", json::parse_u64_str)?,
            op: v.opt_str_member("op")?,
        })
    }
}

static SINK: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Default in-memory line cap (≈ a million lines; week-long campaigns
/// must not grow the journal without bound).
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Current capacity; 0 means "not yet initialized from the environment".
static CAPACITY: AtomicUsize = AtomicUsize::new(0);

/// The in-memory line cap: `DIVERSEAV_TRACE_CAP` if set to a positive
/// integer, else [`DEFAULT_CAPACITY`]. Resolved once, then cached.
pub fn capacity() -> usize {
    match CAPACITY.load(Ordering::Relaxed) {
        0 => {
            let cap = std::env::var("DIVERSEAV_TRACE_CAP")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_CAPACITY);
            CAPACITY.store(cap, Ordering::Relaxed);
            cap
        }
        cap => cap,
    }
}

/// Override the line cap (tests; clamped to at least 1).
pub fn set_capacity(cap: usize) {
    CAPACITY.store(cap.max(1), Ordering::Relaxed);
}

/// Append one pre-rendered JSONL line to the sink.
///
/// Once the sink holds [`capacity`] lines, further lines are dropped and
/// tallied under the `journal.dropped` metrics counter instead — an
/// unattended week-long campaign degrades to a truncated journal, never
/// to unbounded memory growth.
pub fn append_line(line: String) {
    let cap = capacity();
    {
        let mut sink = SINK.lock().expect("journal sink poisoned");
        if sink.len() < cap {
            sink.push(line);
            return;
        }
    }
    crate::metrics::counter_add("journal.dropped", 1);
}

/// Append one fan-out slot's trace events as a single JSONL line.
pub fn append_slot_events(label: &str, index: usize, events: &[Event]) {
    if events.is_empty() {
        return;
    }
    let body: Vec<String> = events.iter().map(|e| format!("{{{}}}", e.render_fields())).collect();
    append_line(format!(
        "{{\"type\": \"span_events\", \"label\": \"{}\", \"index\": {}, \"events\": [{}]}}",
        json::escape(label),
        index,
        body.join(", "),
    ));
}

/// Copy of all buffered lines, in append order.
pub fn snapshot() -> Vec<String> {
    SINK.lock().expect("journal sink poisoned").clone()
}

/// Number of buffered lines (cheaper than [`snapshot`] for slicing).
pub fn len() -> usize {
    SINK.lock().expect("journal sink poisoned").len()
}

/// Drop all buffered lines.
pub fn clear() {
    SINK.lock().expect("journal sink poisoned").clear();
}

/// Write all buffered lines to `path` as JSONL.
pub fn flush(path: &str) -> std::io::Result<()> {
    let lines = snapshot();
    let mut doc = lines.join("\n");
    if !doc.is_empty() {
        doc.push('\n');
    }
    std::fs::write(path, doc)
}

/// Flush to the `DIVERSEAV_TRACE` path when tracing is enabled; returns
/// the path written, if any.
pub fn flush_if_enabled() -> std::io::Result<Option<String>> {
    match crate::trace::trace_path() {
        Some(path) => {
            flush(&path)?;
            Ok(Some(path))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that append to (or bound) the shared sink,
    /// so capacity experiments cannot drop a sibling test's lines.
    static SINK_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn transient_site() -> FaultSite {
        FaultSite {
            profile: "GPU".into(),
            unit: 0,
            model: "transient".into(),
            mask: 1 << 21,
            cycle: Some(123_456),
            op: None,
        }
    }

    #[test]
    fn fault_sites_round_trip_losslessly() {
        let sensor = FaultSite {
            profile: "SENSOR".into(),
            unit: 0,
            model: "sensor".into(),
            mask: 0,
            cycle: Some((1 << 53) + 1),
            op: Some("bias-drift".into()),
        };
        let permanent = FaultSite {
            profile: "C\"PU\\\n".into(),
            model: "permanent".into(),
            cycle: None,
            op: Some("FFMA".into()),
            ..transient_site()
        };
        for site in [transient_site(), sensor, permanent] {
            let text = site.render();
            let back =
                FaultSite::parse(&json::parse(&text).unwrap()).expect("rendered site parses");
            assert_eq!(back, site);
            assert_eq!(back.render(), text);
        }
        assert!(transient_site().render().contains("\"cycle\": \"123456\", \"op\": null"));
        let bare = transient_site().render().replace("\"123456\"", "123456");
        assert!(FaultSite::parse(&json::parse(&bare).unwrap()).is_err(), "cycle is a string");
    }

    #[test]
    fn fault_class_is_the_sensor_class_or_the_model() {
        let sensor_site =
            FaultSite { model: "sensor".into(), op: Some("dropout".into()), ..transient_site() };
        assert_eq!(sensor_site.class(), "dropout");
        assert_eq!(transient_site().class(), "transient");
    }

    #[test]
    fn capacity_bounds_the_sink_and_counts_drops() {
        let _guard = SINK_TEST_LOCK.lock().expect("sink test lock");
        let base = len();
        set_capacity(base + 2);
        let dropped_before = crate::metrics::counter_get("journal.dropped");
        for i in 0..5 {
            append_line(format!("{{\"type\": \"cap_test\", \"i\": {i}}}"));
        }
        assert_eq!(len(), base + 2, "sink stops growing at the cap");
        assert_eq!(
            crate::metrics::counter_get("journal.dropped") - dropped_before,
            3,
            "every dropped line is tallied"
        );
        // Restore a roomy cap for the other tests in this process.
        set_capacity(DEFAULT_CAPACITY);
        assert_eq!(capacity(), DEFAULT_CAPACITY);
    }

    #[test]
    fn slot_events_render_one_line() {
        let _guard = SINK_TEST_LOCK.lock().expect("sink test lock");
        let before = len();
        append_slot_events(
            "test.journal.slot",
            2,
            &[
                Event::SpanBegin { name: "item", t_ns: 10 },
                Event::Counter { name: "worker", value: 1 },
                Event::SpanEnd { name: "item", t_ns: 20 },
            ],
        );
        append_slot_events("test.journal.slot", 3, &[]);
        let lines = snapshot();
        assert_eq!(lines.len(), before + 1, "empty slots are skipped");
        let line = &lines[before];
        assert!(line.contains("\"label\": \"test.journal.slot\""));
        assert!(line.contains("\"span_begin\""));
        assert!(line.contains("\"value\": 1"));
    }
}
