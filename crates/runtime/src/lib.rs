//! # diverseav-runtime — the canonical closed-loop runtime
//!
//! The paper's entire evaluation is built on one closed feedback loop:
//! sensor frame → redundant agents → fused actuation → world kinematics
//! → next frame (Fig 2). This crate owns that loop; every layer above
//! the simulator drives a [`SimLoop`] instead of re-implementing
//! `sense → tick → step` by hand.
//!
//! Its pieces:
//!
//! - **[`SimLoop`]** — the single loop body, generic over a
//!   [`LoopDriver`] (the full [`Ads`](diverseav::Ads) stack, a bare
//!   [`AgentDriver`], or a perfect-knowledge [`PolicyDriver`]), with
//!   [`LoopObserver`] hooks (`on_tick` / `on_phase` / `on_termination`)
//!   for training collection, tick accounting, telemetry, and tracing.
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
//! - **[`profiling`]** — the 40 Hz (25 ms) deadline, the per-run
//!   [`DeadlineStats`] tally and the modeled tick cost model.
//! - **[`flight`]** — the per-run tick ledger: one always-on,
//!   allocation-free [`FlightRecorder`] observer that evaluates the cost
//!   model once per tick and from it counts the run's ticks, records its
//!   own `tick.*` latency histograms and deadline tally (deterministic by
//!   default, wall-clock on request with `DIVERSEAV_PROFILE=wall`) for
//!   the run's metric slice, and
//!   packs detector and deadline telemetry into a fixed ring, drained
//!   into incident artifacts when a run ends in an [`IncidentKind`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod inject;
pub mod observers;
pub mod profiling;
pub mod simloop;

pub use flight::{FlightRecorder, IncidentKind, DEADLINE_BURST_TICKS, SILENT_SCORE_FLOOR};
pub use inject::{FrameInjector, SensorFault, SensorFaultKind};
pub use observers::TrainingCollector;
pub use profiling::{DeadlineStats, DEADLINE_NS};
pub use simloop::{
    AgentDriver, LoopDriver, LoopObserver, LoopPhase, PolicyDriver, SimLoop, Termination,
    TickContext,
};
