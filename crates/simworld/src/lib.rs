//! # diverseav-simworld
//!
//! A deterministic 2-D driving-world simulator standing in for CARLA in the
//! DiverseAV reproduction (Jha et al., DSN 2022).
//!
//! The simulator provides everything the paper's evaluation needs from its
//! world: a closed control loop (faulty actuation changes the future world
//! and hence future sensor data), the three NHTSA-style safety-critical
//! scenarios and three long training routes of §IV-C, 40 Hz synchronous
//! sensor posting (camera ×3, GPS, IMU, speedometer, optional LiDAR), and
//! safety monitors (collision detection, closest-vehicle-in-path, traffic
//! rules, trajectory recording).
//!
//! ## Example
//!
//! ```
//! use diverseav_simworld::{lead_slowdown, Controls, SensorConfig, World};
//!
//! let mut world = World::new(lead_slowdown(), SensorConfig::default(), 42);
//! let frame = world.sense();
//! assert_eq!(frame.cameras.len(), 3);
//! world.step(Controls::clamped(0.5, 0.0, 0.0));
//! assert!(world.time() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod geometry;
pub mod npc;
pub mod scenario;
pub mod sensors;
pub mod track;
pub mod vehicle;
pub mod world;

pub use geometry::{Obb, Pose, Vec2};
pub use npc::{idm_accel, GapAhead, IdmParams, Npc, NpcBehavior};
pub use scenario::{
    front_accident, ghost_cut_in, lead_slowdown, long_route, Scenario, ScenarioKind,
};
pub use sensors::{
    hash_amp, lidar_scan, lidar_scan_into, render_camera, render_camera_into, splitmix64,
    CameraSet, Image, ImuReading, RenderScene, SensorConfig, SensorFrame,
};
pub use track::{
    generate_lights, generate_long_route, LightPhase, Track, TrafficLight, LANE_WIDTH,
};
pub use vehicle::{Controls, Vehicle, VehicleParams, VehicleState};
pub use world::{RouteHint, TrajPoint, World, WorldStatus, TICK_HZ};
