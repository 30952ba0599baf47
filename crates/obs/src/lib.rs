//! # diverseav-obs
//!
//! Zero-dependency observability layer for the DiverseAV campaign
//! engine: the substrate every perf PR is measured against.
//!
//! Three cooperating pieces, all `std`-only:
//!
//! * [`trace`] — a lock-free per-worker event journal. A fan-out
//!   allocates one slot per work item *before* spawning workers; each
//!   worker writes span/counter/gauge events into the slot of the index
//!   it claimed. Slots are index-ordered and claimed exactly once, so
//!   enabling tracing never introduces cross-worker synchronization on
//!   the hot path and never perturbs the deterministic engine.
//! * [`metrics`] — a process-global registry of named counters, gauges,
//!   and per-phase wall-clock accumulators, flushed as the
//!   `METRICS_campaigns.json` artifact.
//! * [`journal`] — a buffered per-run JSONL journal (injection site,
//!   bit mask, cycle, outcome, alarm time, divergence peaks) behind the
//!   `DIVERSEAV_TRACE` environment switch, bounded by a line cap
//!   (`DIVERSEAV_TRACE_CAP`) with dropped lines tallied in metrics.
//! * [`hist`] — lock-free log-bucketed latency histograms
//!   (p50/p90/p99/max), registered by name in [`metrics`] and rendered
//!   into `METRICS_campaigns.json`; the substrate of the tick-level
//!   profiling layer in `diverseav-runtime`.
//! * [`profile`] — the `DIVERSEAV_PROFILE` switch selecting the
//!   profiling time source: a deterministic work-based cost model
//!   (default, bit-identical across thread counts), host wall clock, or
//!   off.
//! * [`flight`] — flight-recorder primitives: a fixed-capacity
//!   overwrite-oldest ring of packed per-tick records (detector score,
//!   trend state, modeled phase latencies, actuator deltas — no
//!   timestamps) plus a lossless bit-hex JSONL codec for incident
//!   artifacts.
//!
//! Determinism contract: observability is *read-only* with respect to
//! campaign outcomes. Run results are pure functions of their explicit
//! seeds; this crate only records what happened (timestamps and worker
//! ids may vary between runs, recorded outcomes may not). The
//! differential test in `tests/parallel.rs` asserts campaign outputs
//! are bit-identical with tracing on and off at any thread count.

pub mod flight;
pub mod hist;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use flight::{FlightRing, TickRecord};
pub use hist::{HistSnapshot, Histogram};
pub use journal::FaultSite;
pub use metrics::MetricsSnapshot;
pub use profile::TimeSource;
pub use trace::{Event, SlotJournal, SlotWriter};
