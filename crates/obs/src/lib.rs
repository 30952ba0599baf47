//! # diverseav-obs
//!
//! Zero-dependency observability layer for the DiverseAV campaign
//! engine: the substrate every perf PR is measured against.
//!
//! Its pieces, all `std`-only:
//!
//! * [`trace`] — the engine's span record. With tracing on, each
//!   `par_map` item's [`trace::Span`] (index, worker, begin/end on one
//!   process-wide clock) rides in the item's own result slot and is
//!   journaled in index order after the join, so tracing never adds
//!   cross-worker synchronization and never perturbs the engine.
//! * [`metrics`] — [`MetricsSlice`], a value of named counters, gauges,
//!   per-phase wall-clock accumulators and histograms that merges by
//!   commutative folds, and the process-global registry of one, flushed
//!   as the `METRICS_campaigns.json` artifact. A simulation run returns
//!   its own slice and the runner folds it in once.
//! * [`journal`] — a buffered per-run JSONL journal (injection site,
//!   bit mask, cycle, outcome, alarm time, divergence peaks) behind the
//!   `DIVERSEAV_TRACE` environment switch, bounded by a line cap
//!   (`DIVERSEAV_TRACE_CAP`) with dropped lines tallied in metrics.
//! * [`hist`] — log-bucketed latency histograms (p50/p90/p99/max) as
//!   plain data: each run's tick ledger in `diverseav-runtime` records
//!   into its own, and [`metrics`] folds and renders them into
//!   `METRICS_campaigns.json`.
//! * [`profile`] — the `DIVERSEAV_PROFILE` switch selecting the
//!   profiling time source: a deterministic work-based cost model
//!   (default, bit-identical across thread counts) or host wall clock.
//! * [`flight`] — flight-recorder primitives: a fixed-capacity
//!   overwrite-oldest ring of packed per-tick records (detector score,
//!   trend state, modeled phase latencies, actuator deltas — no
//!   timestamps) plus a lossless bit-hex JSONL codec for incident
//!   artifacts.
//! * [`json`] — the dependency-free JSON reader and the strict member
//!   vocabulary every lossless codec above parses through.
//!
//! Determinism contract: observability is *read-only* with respect to
//! campaign outcomes. Run results are pure functions of their explicit
//! seeds; this crate only records what happened (timestamps and worker
//! ids may vary between runs, recorded outcomes may not). The
//! differential test in `tests/parallel.rs` asserts campaign outputs
//! are bit-identical with tracing on and off at any thread count.

#![forbid(unsafe_code)]

pub mod flight;
pub mod hist;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use flight::{FlightRing, TickRecord};
pub use hist::HistSnapshot;
pub use journal::FaultSite;
pub use metrics::MetricsSlice;
pub use profile::TimeSource;
