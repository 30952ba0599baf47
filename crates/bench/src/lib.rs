//! # diverseav-bench
//!
//! Experiment harness for the DiverseAV reproduction: shared pipelines
//! behind the per-table/per-figure bench targets (`benches/`), the
//! detector parameter-sweep machinery, and the report generators.
//!
//! Scale selection: set `DIVERSEAV_SCALE=paper` for paper-scale counts;
//! the default (`quick`) shrinks run counts so a full `cargo bench`
//! completes in minutes rather than the paper's 40 days.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod merge;
pub mod sweep;
pub mod tracecheck;

pub use merge::{journal_doc, metrics_doc, table_text};
pub use sweep::{evaluate_cell, sweep, CellEval, SweepResult};

use diverseav_faultinj::{detected_parallelism, thread_count};
use diverseav_obs::metrics;

/// Render the observability metrics registry (counters, gauges, phase
/// wall-clocks) as the `METRICS_campaigns.json` document.
pub fn metrics_json() -> String {
    metrics::gauge_set("engine.detected_cores", detected_parallelism() as f64);
    metrics::gauge_set("engine.threads", thread_count() as f64);
    metrics::render_json(&metrics::snapshot())
}

/// Write [`metrics_json`] to `path` (the `METRICS_campaigns.json`
/// artifact).
pub fn flush_metrics_json(path: &str) -> std::io::Result<()> {
    std::fs::write(path, metrics_json())
}
