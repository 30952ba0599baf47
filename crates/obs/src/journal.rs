//! The per-run JSONL journal: one line per simulation run, buffered in a
//! process-global sink and flushed to the path selected by
//! `DIVERSEAV_TRACE` (see [`crate::trace::trace_path`]).
//!
//! Run records carry no timestamps — every field is a pure function of
//! the run's inputs — so, for a fixed sequence of campaigns, the
//! journal's run lines are bit-identical for any `DIVERSEAV_THREADS`
//! value (campaign code appends them from the engine's index-ordered
//! results, never from worker completion order). Engine span lines
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

    fn parse(v: &Value) -> Result<FaultSite, String> {
        v.req_keys(&["profile", "unit", "model", "mask", "cycle", "op"])?;
        Ok(FaultSite {
            profile: v.req_str("profile")?,
            unit: v.req_usize("unit")?,
            model: v.req_str("model")?,
            mask: v.req_u32("mask")?,
            cycle: v.opt_with("cycle", json::parse_uint)?,
            op: v.opt_str_member("op")?,
        })
    }
}

/// Everything the journal records about one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Campaign display label.
    pub campaign: String,
    /// `"golden"` or `"injected"`.
    pub kind: &'static str,
    /// Run index within its campaign phase.
    pub index: usize,
    /// The run seed.
    pub seed: u64,
    /// Scenario name.
    pub scenario: String,
    /// Outcome label: `"completed"`, `"collision"`, `"crash"`, `"hang"`.
    pub outcome: String,
    /// Simulation time reached (s).
    pub end_time: f64,
    /// Collision time, if the ego collided.
    pub collision_time: Option<f64>,
    /// Detector alarm time, if raised.
    pub alarm_time: Option<f64>,
    /// Whether the armed fault corrupted at least one register (fabric
    /// faults) or frame (sensor faults).
    pub fault_activated: bool,
    /// Simulation time of the first corrupted frame for sensor faults
    /// (`None` otherwise) — the detection-latency reference point.
    pub fault_onset_time: Option<f64>,
    /// Minimum CVIP distance over the run (`null` when no NPC was ever
    /// in view — infinity has no JSON encoding).
    pub min_cvip: f64,
    /// Peak rolling divergence per channel `[throttle, brake, steer]`.
    pub div_peak: [f64; 3],
    /// Injection site (`None` for golden runs).
    pub fault: Option<FaultSite>,
}

/// Member names of a run line, in the order [`RunRecord::render`]
/// writes them.
const RUN_KEYS: [&str; 15] = [
    "type",
    "campaign",
    "kind",
    "index",
    "seed",
    "scenario",
    "outcome",
    "end_time",
    "collision_time",
    "alarm_time",
    "fault_activated",
    "fault_onset_time",
    "min_cvip",
    "div_peak",
    "fault",
];

impl RunRecord {
    /// Render the record as one JSONL line (no trailing newline).
    pub fn render(&self) -> String {
        let fault = match &self.fault {
            None => "null".to_string(),
            Some(f) => format!(
                "{{\"profile\": \"{}\", \"unit\": {}, \"model\": \"{}\", \"mask\": {}, \
                 \"cycle\": {}, \"op\": {}}}",
                json::escape(&f.profile),
                f.unit,
                json::escape(&f.model),
                f.mask,
                f.cycle.map(|c| c.to_string()).unwrap_or_else(|| "null".to_string()),
                json::opt_str(f.op.as_deref()),
            ),
        };
        format!(
            "{{\"type\": \"run\", \"campaign\": \"{}\", \"kind\": \"{}\", \"index\": {}, \
             \"seed\": {}, \"scenario\": \"{}\", \"outcome\": \"{}\", \"end_time\": {}, \
             \"collision_time\": {}, \"alarm_time\": {}, \"fault_activated\": {}, \
             \"fault_onset_time\": {}, \"min_cvip\": {}, \"div_peak\": [{}, {}, {}], \
             \"fault\": {}}}",
            json::escape(&self.campaign),
            self.kind,
            self.index,
            self.seed,
            json::escape(&self.scenario),
            json::escape(&self.outcome),
            json::num(self.end_time),
            json::opt_num(self.collision_time),
            json::opt_num(self.alarm_time),
            self.fault_activated,
            json::opt_num(self.fault_onset_time),
            json::num(self.min_cvip),
            json::num(self.div_peak[0]),
            json::num(self.div_peak[1]),
            json::num(self.div_peak[2]),
            fault,
        )
    }

    /// Parse a `"type": "run"` line written by [`render`](Self::render).
    ///
    /// Strict: the line must carry exactly the members `render` writes,
    /// in its order, each in its encoding — `kind` is `"golden"` or
    /// `"injected"`, integers are non-negative and in range, and times
    /// are finite decimals or `null`. A `null` where [`json::num`]
    /// flattened a non-finite value reads back as `+inf` for `min_cvip`
    /// (no NPC ever in view) and NaN for `end_time` and `div_peak`, so
    /// rendering a parsed record reproduces its line byte for byte.
    ///
    /// One exception: a sensor site's `cycle` is the sensor fault's
    /// `u64` seed, written as a bare JSON number and read back as `f64`,
    /// so a seed above 2^53 parses rounded and does not round-trip.
    pub fn parse(v: &Value) -> Result<RunRecord, String> {
        v.req_keys(&RUN_KEYS)?;
        let ty = v.req_str("type")?;
        if ty != "run" {
            return Err(format!("not a run line (type {ty:?})"));
        }
        let kind = match v.req_str("kind")?.as_str() {
            "golden" => "golden",
            "injected" => "injected",
            other => return Err(format!("unknown run kind {other:?}")),
        };
        let peak = |p: &Value| {
            json::parse_num(p)
                .map(|p| p.unwrap_or(f64::NAN))
                .map_err(|e| format!("member \"div_peak\": {e}"))
        };
        let [throttle, brake, steer] = v.req_arr("div_peak")? else {
            return Err("member \"div_peak\" must hold 3 channels".to_string());
        };
        Ok(RunRecord {
            campaign: v.req_str("campaign")?,
            kind,
            index: v.req_usize("index")?,
            seed: v.req_u64("seed")?,
            scenario: v.req_str("scenario")?,
            outcome: v.req_str("outcome")?,
            end_time: v.opt_num_member("end_time")?.unwrap_or(f64::NAN),
            collision_time: v.opt_num_member("collision_time")?,
            alarm_time: v.opt_num_member("alarm_time")?,
            fault_activated: v.req_bool("fault_activated")?,
            fault_onset_time: v.opt_num_member("fault_onset_time")?,
            min_cvip: v.opt_num_member("min_cvip")?.unwrap_or(f64::INFINITY),
            div_peak: [peak(throttle)?, peak(brake)?, peak(steer)?],
            fault: v.opt_with("fault", FaultSite::parse)?,
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

/// Append a run record to the sink.
pub fn append_record(record: &RunRecord) {
    append_line(record.render());
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

    fn record() -> RunRecord {
        RunRecord {
            campaign: "GPU-transient LSD [diverseav]".into(),
            kind: "injected",
            index: 3,
            seed: 2003,
            scenario: "lead_slowdown".into(),
            outcome: "collision".into(),
            end_time: 12.5,
            collision_time: Some(12.5),
            alarm_time: Some(9.25),
            fault_activated: true,
            fault_onset_time: None,
            min_cvip: 0.0,
            div_peak: [0.5, 0.25, 0.125],
            fault: Some(FaultSite {
                profile: "GPU".into(),
                unit: 0,
                model: "transient".into(),
                mask: 1 << 21,
                cycle: Some(123_456),
                op: None,
            }),
        }
    }

    #[test]
    fn run_record_renders_complete_line() {
        let line = record().render();
        assert!(line.starts_with("{\"type\": \"run\""));
        assert!(line.contains("\"cycle\": 123456"));
        assert!(line.contains("\"op\": null"));
        assert!(line.contains("\"alarm_time\": 9.250000"));
        assert!(line.contains("\"fault_onset_time\": null"));
        assert!(line.contains("\"div_peak\": [0.500000, 0.250000, 0.125000]"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn sensor_record_carries_onset_time() {
        let mut r = record();
        r.fault_onset_time = Some(0.75);
        r.fault = Some(FaultSite {
            profile: "SENSOR".into(),
            unit: 0,
            model: "sensor".into(),
            mask: 0,
            cycle: Some(42),
            op: Some("dropout".into()),
        });
        let line = r.render();
        assert!(line.contains("\"fault_onset_time\": 0.750000"));
        assert!(line.contains("\"model\": \"sensor\""));
        assert!(line.contains("\"op\": \"dropout\""));
    }

    #[test]
    fn golden_record_has_null_fault() {
        let mut r = record();
        r.fault = None;
        r.kind = "golden";
        r.min_cvip = f64::INFINITY;
        let line = r.render();
        assert!(line.contains("\"fault\": null"));
        assert!(line.contains("\"min_cvip\": null"));
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

    #[test]
    fn run_lines_parse_back_to_the_same_bytes() {
        let mut golden = record();
        golden.kind = "golden";
        golden.fault = None;
        golden.min_cvip = f64::INFINITY;
        golden.end_time = f64::NAN;
        golden.div_peak = [f64::NAN, -0.0, 1e300];
        let mut sensor = record();
        sensor.fault_onset_time = Some(0.75);
        sensor.fault = Some(FaultSite {
            profile: "SENSOR".into(),
            unit: 0,
            model: "sensor".into(),
            mask: 0,
            cycle: Some(1 << 53),
            op: Some("bias-drift".into()),
        });
        for r in [record(), golden, sensor] {
            let line = r.render();
            let back =
                RunRecord::parse(&json::parse(&line).unwrap()).expect("rendered line parses");
            assert_eq!(back.render(), line);
        }
        let sensor_site = FaultSite {
            model: "sensor".into(),
            op: Some("dropout".into()),
            ..record().fault.unwrap()
        };
        assert_eq!(sensor_site.class(), "dropout");
        assert_eq!(record().fault.unwrap().class(), "transient");
    }

    #[test]
    fn run_line_parse_rejects_anything_render_cannot_write() {
        let line = record().render();
        let onset = "\"fault_onset_time\": null, ";
        for bad in [
            "{\"type\": \"run\"}".to_string(),
            line.replace(onset, ""),
            line.replace("\"alarm_time\": 9.250000", "\"alarm_time\": 1e999"),
            line.replace("\"kind\": \"injected\"", "\"kind\": \"other\""),
            line.replace("\"index\": 3", "\"index\": 3.5"),
            line.replace("\"seed\": 2003", "\"seed\": -1"),
            line.replace("[0.500000, 0.250000, 0.125000]", "[0.5, 0.25]"),
            line.replace("\"mask\": 2097152", "\"mask\": 4294967296"),
            line.replace("\"cycle\": 123456", "\"cycle\": \"123456\""),
            line.replace(onset, "").replace("\"index\"", &format!("{onset}\"index\"")),
            line.replacen('}', ", \"extra\": 1}", 1),
            line.replace("\"type\": \"run\"", "\"type\": \"span_events\""),
        ] {
            assert_ne!(bad, line, "every case must change the line");
            let v = json::parse(&bad).expect("still JSON");
            assert!(RunRecord::parse(&v).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn records_are_deterministic() {
        assert_eq!(record().render(), record().render());
    }
}
