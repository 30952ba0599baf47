//! # diverseav
//!
//! Reference implementation of **DiverseAV** (Jha et al., *Exploiting
//! Temporal Data Diversity for Detecting Safety-critical Faults in AV
//! Compute Systems*, DSN 2022): a low-cost, software-only redundancy
//! technique that detects safety-critical transient and permanent hardware
//! faults in AV compute elements by exploiting the temporal data diversity
//! of the sensor stream.
//!
//! The crate provides the paper's three new components (Fig 2):
//!
//! * **Sensor data distributor** ([`AgentMode`]) — routes each sensor
//!   frame round-robin between two agent instances that time-multiplex one
//!   processor, keeping per-agent inputs semantically consistent but
//!   bit-diverse.
//! * **Control fusion engine** ([`AgentMode::driver`]) — lockstep
//!   selection: the output of the agent that received the frame actuates
//!   the vehicle (the paper's choice for the Sensorimotor agent).
//! * **Error detection engine** ([`DetectorModel`], [`OnlineDetector`]) —
//!   a rolling-window, vehicle-state-binned LUT detector trained on
//!   fault-free long-route executions.
//!
//! The same machinery instantiates the paper's two baselines: the
//! fully-duplicated FD-ADS (§VI-B, [`AgentMode::Duplicate`]) and the
//! single-agent temporal-outlier detector (§VI-C, [`AgentMode::Single`]).
//!
//! ## Example
//!
//! The closed `sense → tick → step` loop itself is owned by the
//! `diverseav-runtime` crate — an [`Ads`] is a `LoopDriver` there:
//!
//! ```
//! use diverseav::{Ads, AdsConfig, AgentMode};
//! use diverseav_runtime::{SimLoop, Termination};
//! use diverseav_simworld::{lead_slowdown, SensorConfig, World};
//!
//! let mut scenario = lead_slowdown();
//! scenario.duration = 0.25;
//! let world = World::new(scenario, SensorConfig::default(), 7);
//! let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 7));
//! assert_eq!(SimLoop::new(world, ads).run(), Termination::Completed);
//! ```

#![forbid(unsafe_code)]

pub mod actuation;
pub mod ads;
pub mod detector;
pub mod distributor;

pub use actuation::{Divergence, VehState, CHANNELS};
pub use ads::{Ads, AdsConfig, TickOutput, TickWork};
pub use detector::{
    DetectorConfig, DetectorModel, DetectorTelemetry, OnlineDetector, TrainSample, TrendConfig,
};
pub use distributor::AgentMode;
