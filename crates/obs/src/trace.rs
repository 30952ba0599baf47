//! Engine span tracing for the deterministic parallel engine.
//!
//! When `DIVERSEAV_TRACE` is on, `exec::par_map` records one [`Span`] per
//! work item — which worker ran it, and when — and keeps it beside the
//! item's result in the index-order slot the engine already owns. After
//! the join the spans are appended to the run journal in index order, so
//! recording adds no cross-worker synchronization and cannot perturb the
//! engine's determinism contract (only times and worker ids vary).
//!
//! Times are nanoseconds since one process-wide epoch ([`now_ns`]), so
//! every fan-out of a process — golden, injected, nested — lies on one
//! timeline.

use crate::json::{self, Value};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (set by the first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One engine work item's execution: its index in the fan-out, the
/// worker that ran it (0 on the sequential path), and its begin/end times
/// in nanoseconds since the trace epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Item index within its fan-out.
    pub index: usize,
    /// Engine worker that ran the item.
    pub worker: usize,
    /// Start, in nanoseconds since the trace epoch.
    pub begin_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Render as one journal line, losslessly: both times as decimal
    /// strings, as run lines carry their u64s.
    pub fn render(&self) -> String {
        format!(
            "{{\"type\": \"span\", \"index\": {}, \"worker\": {}, \"begin_ns\": {}, \"end_ns\": {}}}",
            self.index,
            self.worker,
            json::u64_str(self.begin_ns),
            json::u64_str(self.end_ns),
        )
    }

    /// Parse a line written by [`render`](Self::render): exactly its
    /// members, in its order, each in its encoding, with
    /// `begin_ns <= end_ns`.
    pub fn parse(v: &Value) -> Result<Span, String> {
        v.req_keys(&["type", "index", "worker", "begin_ns", "end_ns"])?;
        let kind = v.req_str("type")?;
        if kind != "span" {
            return Err(format!("span line of type {kind:?}"));
        }
        let span = Span {
            index: v.req_usize("index")?,
            worker: v.req_usize("worker")?,
            begin_ns: v.req_u64_str("begin_ns")?,
            end_ns: v.req_u64_str("end_ns")?,
        };
        if span.end_ns < span.begin_ns {
            return Err(format!("span {} ends before it begins", span.index));
        }
        Ok(span)
    }
}

/// Whether run-journal tracing is enabled (`DIVERSEAV_TRACE` set to
/// anything other than empty or `0`).
///
/// Read from the environment on every call — tracing toggles are
/// consulted once per fan-out or per run, never per tick, and tests
/// flip the variable at runtime.
pub fn enabled() -> bool {
    match std::env::var("DIVERSEAV_TRACE") {
        Ok(v) => !matches!(v.trim(), "" | "0"),
        Err(_) => false,
    }
}

/// The journal output path selected by `DIVERSEAV_TRACE`: `None` when
/// tracing is off; the default `TRACE_runs.jsonl` for bare switch values
/// (`1`, `true`, `on`); otherwise the variable's value verbatim.
pub fn trace_path() -> Option<String> {
    if !enabled() {
        return None;
    }
    match std::env::var("DIVERSEAV_TRACE").ok()?.trim() {
        "1" | "true" | "on" => Some("TRACE_runs.jsonl".to_string()),
        path => Some(path.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> Span {
        Span { index: 7, worker: 2, begin_ns: (1 << 53) + 1, end_ns: u64::MAX }
    }

    #[test]
    fn spans_round_trip_losslessly() {
        for s in [span(), Span { index: 0, worker: 0, begin_ns: 0, end_ns: 0 }] {
            let text = s.render();
            let back = Span::parse(&json::parse(&text).unwrap()).expect("rendered span parses");
            assert_eq!(back, s);
            assert_eq!(back.render(), text);
        }
        assert_eq!(
            span().render(),
            "{\"type\": \"span\", \"index\": 7, \"worker\": 2, \
             \"begin_ns\": \"9007199254740993\", \"end_ns\": \"18446744073709551615\"}"
        );
    }

    #[test]
    fn parse_rejects_anything_render_cannot_write() {
        let line = span().render();
        for bad in [
            line.replace("\"worker\": 2, ", ""),
            line.replacen('}', ", \"extra\": 1}", 1),
            line.replace("\"index\": 7, \"worker\": 2", "\"worker\": 2, \"index\": 7"),
            line.replace("\"type\": \"span\"", "\"type\": \"run\""),
            line.replace("\"begin_ns\": \"9007199254740993\"", "\"begin_ns\": 9007199254740993"),
            Span { end_ns: 4, begin_ns: 5, ..span() }.render(),
        ] {
            assert_ne!(bad, line, "every case must change the line");
            let v = json::parse(&bad).expect("still JSON");
            assert!(Span::parse(&v).is_err(), "{bad} must be rejected");
        }
    }
}
