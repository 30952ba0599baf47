//! # diverseav-runtime — the canonical closed-loop runtime
//!
//! The paper's entire evaluation is built on one closed feedback loop:
//! sensor frame → redundant agents → fused actuation → world kinematics
//! → next frame (Fig 2). This crate owns that loop; every layer above
//! the simulator drives a [`SimLoop`] instead of re-implementing
//! `sense → tick → step` by hand.
//!
//! Three coordinated pieces:
//!
//! - **[`SimLoop`]** — the single loop body, generic over a
//!   [`LoopDriver`] (the full [`Ads`](diverseav::Ads) stack, a bare
//!   [`AgentDriver`], or a perfect-knowledge [`PolicyDriver`]), with
//!   [`LoopObserver`] hooks (`on_tick` / `on_alarm` / `on_termination`)
//!   for training collection, perf accounting, telemetry, and tracing.
//! - **Zero-allocation steady state** — the loop owns a reusable
//!   [`SensorFrame`](diverseav_simworld::SensorFrame) and captures via
//!   [`World::capture_into`](diverseav_simworld::World::capture_into), so
//!   a steady-state tick performs no heap allocation (the campaign hot
//!   path the parallel engine fans out).
//! - **Demand-driven sensing** — the capture renders only the cameras
//!   the driver and observers declare they read
//!   ([`LoopDriver::cameras`], [`LoopObserver::cameras`]); the agent
//!   reads the center camera alone, so campaigns skip two of three
//!   rasterizer passes with no change to any result.
//! - **[`inject`]** — sensor-boundary fault injection: a seed-pure
//!   [`FrameInjector`] installed on the loop corrupts the pooled frame
//!   in place between the capture and the driver (the broadened,
//!   component-agnostic fault model of ROADMAP item 5).
//! - **[`registry`]** — the named scenario catalog carrying interned
//!   `&'static str` scenario IDs end to end; a new workload is one
//!   [`registry::register`] call.
//! - **[`profiling`]** — per-phase tick latency histograms and 40 Hz
//!   (25 ms) deadline accounting via [`ProfilingObserver`], deterministic
//!   by default (modeled time source) and wall-clock on request
//!   (`DIVERSEAV_PROFILE=wall`).
//! - **[`flight`]** — the per-run flight recorder: an always-on,
//!   allocation-free [`FlightRecorder`] observer packing detector and
//!   deadline telemetry into a fixed ring, drained into incident
//!   artifacts when a run ends in an [`IncidentKind`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod inject;
pub mod observers;
pub mod profiling;
pub mod registry;
pub mod simloop;

pub use flight::{FlightRecorder, IncidentKind, DEADLINE_BURST_TICKS, SILENT_SCORE_FLOOR};
pub use inject::{FrameInjector, SensorFault, SensorFaultKind};
pub use observers::{PerfObserver, TrainingCollector};
pub use profiling::{DeadlineStats, ProfilingObserver, DEADLINE_NS};
pub use registry::ScenarioEntry;
pub use simloop::{
    AgentDriver, LoopDriver, LoopObserver, LoopPhase, PolicyDriver, SimLoop, Termination,
    TickContext,
};
