//! # diverseav-agent
//!
//! A Sensorimotor-style end-to-end autonomous agent whose entire numeric
//! pipeline executes on the [`diverseav_fabric`] compute-fabric simulator,
//! standing in for the pretrained CNN agent (Chen et al., "Learning by
//! Cheating") used by the DiverseAV paper.
//!
//! Structure mirrors the paper's §IV-A: a High-level Route Planner
//! (supplied by the world), a vision-based local planner producing four
//! local waypoints (GPU-profile kernels: vehicle-mask extraction, 3×3
//! convolution, row reductions, lane centroid, planning head), and a
//! Waypoints Tracker + PID Control Unit (CPU-profile scalar program).
//! Because every arithmetic step runs on the fabric, NVBitFI/PinFI-style
//! destination-register faults propagate through genuine data flow into
//! the actuation commands — the property DiverseAV's evaluation depends
//! on.
//!
//! Departure from the paper, documented in DESIGN.md: the vision planner
//! uses deterministic matched filters instead of trained CNN weights (no
//! training data exists in this environment), and consumes the center
//! camera only. The closed loop therefore renders just that camera for
//! the agent; the left/right cameras are rendered only for consumers that
//! declare them, such as the Fig-5b diversity study.
//!
//! ## Example
//!
//! ```
//! use diverseav_agent::{AgentConfig, SensorimotorAgent};
//! use diverseav_fabric::{Fabric, Profile};
//! use diverseav_simworld::{lead_slowdown, SensorConfig, World};
//!
//! # fn main() -> Result<(), diverseav_agent::AgentError> {
//! let mut world = World::new(lead_slowdown(), SensorConfig::default(), 1);
//! let mut agent = SensorimotorAgent::new(AgentConfig::default(), 7);
//! let mut gpu = Fabric::new(Profile::Gpu);
//! let mut cpu = Fabric::new(Profile::Cpu);
//! let frame = world.sense();
//! let hint = world.route_hint();
//! let controls = agent.step(&frame, hint, 0.025, &mut gpu, &mut cpu)?;
//! assert!(controls.throttle >= 0.0);
//! # Ok(())
//! # }
//! ```

pub mod agent;
pub mod kernels;
pub mod layout;

pub use agent::{AgentConfig, AgentError, PerceptionDebug, SensorimotorAgent};
pub use layout::GpuLayout;
