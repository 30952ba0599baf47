//! The synchronous world stepper: advances actors at the sensor frequency,
//! produces sensor frames, and monitors safety (collisions, CVIP, traffic
//! rules, trajectory recording).

use crate::geometry::Vec2;
use crate::npc::{next_stopping_light, GapAhead, Npc, NpcBehavior};
use crate::scenario::Scenario;
use crate::sensors::{
    lidar_scan_into, render_camera_into, CameraSet, Image, ImuReading, RenderScene, SensorConfig,
    SensorFrame,
};
use crate::vehicle::{Controls, Vehicle, VehicleState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sensor/control frequency (Hz) — the paper's CARLA setup posts all
/// sensor data at 40 Hz in synchronous mode.
pub const TICK_HZ: f64 = 40.0;

/// Result of one world step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WorldStatus {
    /// The scenario is still in progress.
    Running,
    /// The ego vehicle collided this step.
    Collision,
    /// The scenario duration elapsed.
    Finished,
}

/// One recorded trajectory sample.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TrajPoint {
    /// Simulation time (s).
    pub t: f64,
    /// Ego world position.
    pub pos: Vec2,
}

/// High-level route-planner outputs fed to the agent (the paper's
/// "destination-to-go" directive): path curvature ahead and a speed limit
/// that encodes traffic-light and curve handling.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct RouteHint {
    /// Track curvature ~8 m ahead (1/m, signed; positive = left).
    pub curvature: f32,
    /// Planner speed limit (m/s).
    pub speed_limit: f32,
    /// Ego lateral offset from the route centerline (m, positive = left),
    /// from GPS localization against the planned route.
    pub lateral_offset: f32,
    /// Ego heading error relative to the route tangent (rad, positive =
    /// pointing left of the route), from localization.
    pub heading_err: f32,
}

/// The simulated world: ego vehicle, NPCs, lights, and safety monitors.
#[derive(Clone, Debug)]
pub struct World {
    scenario: Scenario,
    ego: Vehicle,
    ego_s: f64,
    npcs: Vec<Npc>,
    t: f64,
    step_idx: u64,
    rng: StdRng,
    sensor_cfg: SensorConfig,
    trajectory: Vec<TrajPoint>,
    collision_t: Option<f64>,
    min_cvip: f64,
    red_light_violations: u32,
    /// Scratch for per-NPC gap lookahead in [`World::step`], reused every
    /// tick so the stepper allocates nothing in steady state.
    gaps_scratch: Vec<Option<GapAhead>>,
}

impl World {
    /// Instantiate a world for `scenario` with per-run noise seed `seed`.
    ///
    /// Different seeds model the run-to-run nondeterminism of the paper's
    /// stack (sensor noise, scheduling); identical seeds reproduce a run
    /// exactly.
    pub fn new(scenario: Scenario, sensor_cfg: SensorConfig, seed: u64) -> Self {
        let pose = scenario.track.pose_at(scenario.ego_start_s, 0.0);
        let ego = Vehicle::new(pose, scenario.ego_start_speed);
        let ego_s = scenario.ego_start_s;
        let npcs = scenario.npcs.clone();
        // One sample per tick plus the spawn point: reserving up front keeps
        // the per-tick trajectory push allocation-free.
        let mut trajectory = Vec::with_capacity((scenario.duration * TICK_HZ) as usize + 2);
        trajectory.push(TrajPoint { t: 0.0, pos: pose.pos });
        let gaps_scratch = Vec::with_capacity(npcs.len());
        World {
            scenario,
            ego,
            ego_s,
            npcs,
            t: 0.0,
            step_idx: 0,
            rng: StdRng::seed_from_u64(seed ^ 0xD1BE_5EAF),
            sensor_cfg,
            trajectory,
            collision_t: None,
            min_cvip: f64::INFINITY,
            red_light_violations: 0,
            gaps_scratch,
        }
    }

    /// Simulation time step (s).
    pub fn dt(&self) -> f64 {
        1.0 / TICK_HZ
    }

    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.t
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Current ego kinematic state.
    pub fn ego_state(&self) -> &VehicleState {
        &self.ego.state
    }

    /// Ego arclength along the route.
    pub fn ego_s(&self) -> f64 {
        self.ego_s
    }

    /// Whether the scenario has ended (duration elapsed or collision).
    pub fn finished(&self) -> bool {
        self.t >= self.scenario.duration || self.collision_t.is_some()
    }

    /// Time of the ego collision, if one occurred.
    pub fn collision_time(&self) -> Option<f64> {
        self.collision_t
    }

    /// Minimum closest-vehicle-in-path distance observed so far (m).
    pub fn min_cvip(&self) -> f64 {
        self.min_cvip
    }

    /// Number of red lights crossed against a stop demand.
    pub fn red_light_violations(&self) -> u32 {
        self.red_light_violations
    }

    /// The recorded ego trajectory.
    pub fn trajectory(&self) -> &[TrajPoint] {
        &self.trajectory
    }

    /// Distance to the closest vehicle in the ego's path (bumper to
    /// bumper), if any NPC is ahead in the ego lane.
    pub fn cvip(&self) -> Option<f64> {
        let (ego_s, ego_lat) = (self.ego_s, self.ego_lateral());
        self.npcs
            .iter()
            .filter(|n| (n.lateral - ego_lat).abs() < 2.2 && n.s > ego_s)
            .map(|n| n.s - ego_s - (n.length + self.ego.params.length) / 2.0)
            .min_by(|a, b| a.partial_cmp(b).expect("finite distances"))
    }

    fn ego_lateral(&self) -> f64 {
        self.scenario.track.project_near(self.ego.state.pose.pos, self.ego_s, 25.0).1
    }

    /// High-level route-planner outputs for the current state.
    pub fn route_hint(&self) -> RouteHint {
        let track = &self.scenario.track;
        let look = self.ego_s + 8.0;
        let curvature = track.curvature_at(look);
        // Curve comfort limit: lateral acceleration ≤ 2 m/s².
        let curve_limit =
            if curvature.abs() > 1e-4 { (2.0 / curvature.abs()).sqrt() } else { f64::MAX };
        // Traffic-light handling: decelerate to stop ~4 m before the line.
        let light_limit = match next_stopping_light(self.ego_s, self.t, &self.scenario.lights, 45.0)
        {
            Some(d) => {
                let d_eff = (d - 4.0).max(0.0);
                (2.0 * 1.5 * d_eff).sqrt()
            }
            None => f64::MAX,
        };
        let limit = self.scenario.cruise_speed.min(curve_limit).min(light_limit);
        let mut heading_err = self.ego.state.pose.heading - track.heading_at(self.ego_s);
        while heading_err > std::f64::consts::PI {
            heading_err -= std::f64::consts::TAU;
        }
        while heading_err < -std::f64::consts::PI {
            heading_err += std::f64::consts::TAU;
        }
        RouteHint {
            curvature: curvature as f32,
            speed_limit: limit as f32,
            lateral_offset: self.ego_lateral() as f32,
            heading_err: heading_err as f32,
        }
    }

    /// Capture the sensor bundle for the current instant.
    ///
    /// Draws fresh per-frame noise from the run RNG, so consecutive frames
    /// are bit-diverse even for a stationary scene.
    pub fn sense(&mut self) -> SensorFrame {
        let mut frame = SensorFrame::empty();
        self.sense_into(&mut frame);
        frame
    }

    /// [`World::sense`] into a caller-owned frame, reusing its buffers:
    /// [`World::capture_into`] with all three cameras.
    pub fn sense_into(&mut self, frame: &mut SensorFrame) {
        self.capture_into(frame, CameraSet::ALL);
    }

    /// Capture the sensor bundle into a caller-owned frame, rendering
    /// only the cameras in `cameras`.
    ///
    /// The frame always holds three camera slots, so `cameras[1]` is the
    /// center camera whatever the set; a slot outside the set is left as
    /// an empty 0×0 [`Image`]. The RNG sequence is the same for every set
    /// (one frame seed, then the GPS, IMU and speed noise), so each
    /// rendered camera, the LiDAR scan and every scalar are bit-identical
    /// to a full capture. After the first capture the steady state
    /// performs no heap allocation, which is what the `SimLoop`
    /// frame-buffer pool relies on for the campaign hot path.
    pub fn capture_into(&mut self, frame: &mut SensorFrame, cameras: CameraSet) {
        let frame_seed: u64 = self.rng.gen();
        let scene = RenderScene {
            track: &self.scenario.track,
            ego: self.ego.state.pose,
            ego_s: self.ego_s,
            npcs: &self.npcs,
            frame_seed,
        };
        frame.cameras.resize_with(3, || Image::new(0, 0));
        for (c, img) in frame.cameras.iter_mut().enumerate() {
            if cameras.contains(c) {
                render_camera_into(&self.sensor_cfg, &scene, c, img);
            } else {
                img.reset(0, 0);
            }
        }
        if self.sensor_cfg.enable_lidar {
            lidar_scan_into(&self.sensor_cfg, &scene, frame.lidar.get_or_insert_with(Vec::new));
        } else {
            frame.lidar = None;
        }
        frame.gps = [
            (self.ego.state.pose.pos.x + self.gauss(self.sensor_cfg.gps_noise)) as f32,
            (self.ego.state.pose.pos.y + self.gauss(self.sensor_cfg.gps_noise)) as f32,
        ];
        frame.imu = ImuReading {
            accel: (self.ego.state.accel + self.gauss(self.sensor_cfg.imu_noise)) as f32,
            yaw_rate: (self.ego.state.yaw_rate + self.gauss(self.sensor_cfg.imu_noise)) as f32,
        };
        frame.speed =
            (self.ego.state.speed + self.gauss(self.sensor_cfg.speed_noise)).max(0.0) as f32;
        frame.t = self.t;
        frame.step = self.step_idx;
    }

    fn gauss(&mut self, sigma: f64) -> f64 {
        // Box–Muller transform.
        let u1: f64 = self.rng.gen_range(1e-12..1.0);
        let u2: f64 = self.rng.gen();
        sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Advance the world by one tick under the ego `controls`.
    pub fn step(&mut self, controls: Controls) -> WorldStatus {
        if self.finished() {
            return if self.collision_t.is_some() {
                WorldStatus::Collision
            } else {
                WorldStatus::Finished
            };
        }
        let dt = self.dt();

        // NPCs first (scripted actors are independent of the ego). Gap
        // lookahead uses pre-step state for every NPC, so it is computed
        // for all of them before any moves; the scratch vector is a World
        // member reused across ticks (zero steady-state allocation).
        let mut gaps = std::mem::take(&mut self.gaps_scratch);
        gaps.clear();
        gaps.extend((0..self.npcs.len()).map(|i| {
            matches!(self.npcs[i].behavior, NpcBehavior::Idm(_)).then(|| self.gap_ahead_of(i))
        }));
        for (npc, gap) in self.npcs.iter_mut().zip(gaps.iter().copied()) {
            npc.step(self.t, dt, gap);
        }
        self.gaps_scratch = gaps;

        // Ego physics.
        let prev_s = self.ego_s;
        self.ego.step(controls, dt);
        self.ego_s = self.scenario.track.project_near(self.ego.state.pose.pos, self.ego_s, 25.0).0;
        self.t += dt;
        self.step_idx += 1;
        self.trajectory.push(TrajPoint { t: self.t, pos: self.ego.state.pose.pos });

        // Safety monitors.
        if let Some(cvip) = self.cvip() {
            if cvip < self.min_cvip {
                self.min_cvip = cvip;
            }
        }
        for light in &self.scenario.lights {
            if prev_s < light.s && self.ego_s >= light.s && light.demands_stop(self.t) {
                self.red_light_violations += 1;
            }
        }
        let ego_fp = self.ego.footprint();
        let track = &self.scenario.track;
        if self.npcs.iter().any(|n| ego_fp.intersects(&n.footprint(track))) {
            self.collision_t = Some(self.t);
            return WorldStatus::Collision;
        }
        if self.t >= self.scenario.duration {
            WorldStatus::Finished
        } else {
            WorldStatus::Running
        }
    }

    /// Nearest obstacle ahead of NPC `i` in its lane: other NPCs, the ego,
    /// or a red light.
    fn gap_ahead_of(&self, i: usize) -> GapAhead {
        let me = &self.npcs[i];
        let mut gap = f64::INFINITY;
        let mut lead_speed = 0.0;
        for (j, other) in self.npcs.iter().enumerate() {
            if j == i || (other.lateral - me.lateral).abs() > 2.0 || other.s <= me.s {
                continue;
            }
            let g = other.s - me.s - (other.length + me.length) / 2.0;
            if g < gap {
                gap = g;
                lead_speed = other.speed;
            }
        }
        // The ego vehicle as an obstacle.
        let ego_lat = self.ego_lateral();
        if (ego_lat - me.lateral).abs() < 2.0 && self.ego_s > me.s {
            let g = self.ego_s - me.s - (self.ego.params.length + me.length) / 2.0;
            if g < gap {
                gap = g;
                lead_speed = self.ego.state.speed;
            }
        }
        // Red lights act as standing obstacles at the stop line.
        if let Some(d) = next_stopping_light(me.s, self.t, &self.scenario.lights, 60.0) {
            let g = d - 2.0;
            if g < gap {
                gap = g;
                lead_speed = 0.0;
            }
        }
        GapAhead { gap, lead_speed }
    }

    /// Positions of all NPCs (for analysis / semantic-consistency studies).
    pub fn npcs(&self) -> &[Npc] {
        &self.npcs
    }

    /// The sensor configuration in use.
    pub fn sensor_config(&self) -> &SensorConfig {
        &self.sensor_cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{front_accident, ghost_cut_in, lead_slowdown, long_route};

    fn cruise_controls(world: &World, target: f64) -> Controls {
        // A simple proportional controller used only by these tests.
        let err = target - world.ego_state().speed;
        Controls::clamped(0.4 * err, -0.8 * err, 0.0)
    }

    #[test]
    fn world_steps_and_records_trajectory() {
        let mut w = World::new(lead_slowdown(), SensorConfig::default(), 1);
        for _ in 0..40 {
            w.step(Controls::default());
        }
        assert_eq!(w.trajectory().len(), 41);
        assert!((w.time() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coasting_into_braking_lead_causes_collision() {
        let mut w = World::new(lead_slowdown(), SensorConfig::default(), 2);
        let mut status = WorldStatus::Running;
        while !w.finished() {
            let c = cruise_controls(&w, 8.0);
            status = w.step(Controls { brake: 0.0, ..c });
            if status == WorldStatus::Collision {
                break;
            }
        }
        assert_eq!(status, WorldStatus::Collision, "blind cruising must rear-end the lead");
        assert!(w.collision_time().is_some());
    }

    #[test]
    fn braking_ego_avoids_lead_slowdown_collision() {
        let mut w = World::new(lead_slowdown(), SensorConfig::default(), 3);
        while !w.finished() {
            // Perfect-knowledge policy: brake when CVIP shrinks.
            let cvip = w.cvip().unwrap_or(f64::INFINITY);
            let c = if cvip < 18.0 { Controls::full_brake() } else { cruise_controls(&w, 8.0) };
            w.step(c);
        }
        assert!(w.collision_time().is_none(), "braking policy should be safe");
        assert!(w.min_cvip() > 0.3, "min CVIP {}", w.min_cvip());
    }

    #[test]
    fn cvip_tracks_lead_vehicle() {
        let w = World::new(lead_slowdown(), SensorConfig::default(), 4);
        let cvip = w.cvip().expect("lead is in path");
        // 25 m center-to-center minus half-lengths (4.6 and 4.4 m).
        assert!((cvip - (25.0 - 4.5)).abs() < 0.5, "cvip {cvip}");
    }

    #[test]
    fn ghost_cut_in_reduces_cvip_suddenly() {
        let mut w = World::new(ghost_cut_in(), SensorConfig::default(), 5);
        // Before the cut-in, no vehicle is in path.
        assert!(w.cvip().is_none());
        while w.time() < 10.0 {
            let c = cruise_controls(&w, 8.0);
            w.step(c);
        }
        let cvip = w.cvip().expect("cut-in vehicle now in path");
        assert!(cvip < 15.0, "cut-in is close: {cvip}");
    }

    #[test]
    fn front_accident_leaves_stopped_vehicles_in_path() {
        let mut w = World::new(front_accident(), SensorConfig::default(), 6);
        while w.time() < 14.0 && !w.finished() {
            // Follow at a safe distance using ground truth.
            let cvip = w.cvip().unwrap_or(f64::INFINITY);
            let c = if cvip < 15.0 { Controls::full_brake() } else { cruise_controls(&w, 8.0) };
            w.step(c);
        }
        // Both NPCs should be (nearly) stopped after the scripted crash.
        assert!(w.npcs().iter().all(|n| n.speed < 0.5), "npcs stopped after crash");
    }

    #[test]
    fn sense_produces_three_cameras_and_noisy_signals() {
        let mut w = World::new(lead_slowdown(), SensorConfig::default(), 7);
        let f1 = w.sense();
        let f2 = w.sense();
        assert_eq!(f1.cameras.len(), 3);
        assert_eq!(f1.cameras[1].width(), 64);
        // Same world state, different noise draw → different frames.
        assert_ne!(f1.cameras[1], f2.cameras[1]);
        assert_ne!(f1.gps, f2.gps);
        assert!(f1.speed > 6.0 && f1.speed < 10.0);
        assert!(f1.lidar.is_none());
    }

    #[test]
    fn camera_sets_union_and_contain_their_slots() {
        // Capture behaviour per set is pinned against `sense` by the
        // runtime crate's `sense_differential` test.
        assert_eq!(CameraSet::NONE.union(CameraSet::CENTER), CameraSet::CENTER);
        assert_eq!(CameraSet::CENTER.union(CameraSet::ALL), CameraSet::ALL);
        assert!((0..3).all(|c| CameraSet::ALL.contains(c) && !CameraSet::NONE.contains(c)));
        assert_eq!((0..3).filter(|&c| CameraSet::CENTER.contains(c)).collect::<Vec<_>>(), [1]);
        assert!(!CameraSet::ALL.contains(3));
    }

    #[test]
    fn sense_with_lidar_enabled() {
        let cfg = SensorConfig { enable_lidar: true, ..Default::default() };
        let mut w = World::new(lead_slowdown(), cfg, 8);
        let f = w.sense();
        assert_eq!(f.lidar.expect("lidar enabled").len(), cfg.lidar_rays);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = |seed| {
            let mut w = World::new(lead_slowdown(), SensorConfig::default(), seed);
            let mut frames = Vec::new();
            for _ in 0..10 {
                frames.push(w.sense());
                w.step(Controls { throttle: 0.4, ..Default::default() });
            }
            (frames, *w.ego_state())
        };
        let (fa, sa) = run(42);
        let (fb, sb) = run(42);
        let (fc, _) = run(43);
        assert_eq!(fa, fb);
        assert_eq!(sa, sb);
        assert_ne!(fa, fc, "different seeds produce different sensor noise");
    }

    #[test]
    fn route_hint_slows_for_red_lights() {
        let mut sc = long_route(0, 120.0);
        // Force a light right ahead that is always red.
        sc.lights = vec![crate::track::TrafficLight {
            s: sc.ego_start_s + 20.0,
            green: 0.0,
            yellow: 0.0,
            red: 1000.0,
            offset: 0.0,
        }];
        let w = World::new(sc, SensorConfig::default(), 9);
        let hint = w.route_hint();
        assert!(
            hint.speed_limit < w.scenario().cruise_speed as f32,
            "limit {} should drop below cruise",
            hint.speed_limit
        );
    }

    #[test]
    fn red_light_crossing_is_flagged() {
        let mut sc = long_route(0, 60.0);
        sc.lights = vec![crate::track::TrafficLight {
            s: sc.ego_start_s + 8.0,
            green: 0.0,
            yellow: 0.0,
            red: 1000.0,
            offset: 0.0,
        }];
        let mut w = World::new(sc, SensorConfig::default(), 10);
        for _ in 0..200 {
            w.step(Controls { throttle: 0.6, ..Default::default() });
        }
        assert_eq!(w.red_light_violations(), 1);
    }

    #[test]
    fn finished_world_refuses_to_advance() {
        let mut sc = lead_slowdown();
        sc.duration = 0.05;
        let mut w = World::new(sc, SensorConfig::default(), 11);
        w.step(Controls::default());
        w.step(Controls::default());
        assert!(w.finished());
        let t = w.time();
        assert_eq!(w.step(Controls::default()), WorldStatus::Finished);
        assert_eq!(w.time(), t, "time frozen after finish");
    }
}
