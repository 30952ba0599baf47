//! Closed-loop tests: the agent drives the simulated world fault-free.
//!
//! These are the substrate-level sanity checks the whole evaluation rests
//! on: the agent must lane-keep, car-follow, stop for braking leads, and
//! handle the cut-in and front-accident scenarios without collisions.
//!
//! All tests drive the canonical [`SimLoop`] from `diverseav-runtime`
//! (via [`AgentDriver`] or a purpose-built [`LoopDriver`]) rather than
//! hand-rolling the `sense → step` loop.

use diverseav::{TickOutput, VehState};
use diverseav_agent::{AgentConfig, AgentError, GpuLayout, SensorimotorAgent};
use diverseav_fabric::{Fabric, FaultModel, LockstepCounters, Op, Profile, KERNEL_TILE};
use diverseav_runtime::{AgentDriver, LoopDriver, LoopObserver, SimLoop, Termination, TickContext};
use diverseav_simworld::{
    front_accident, ghost_cut_in, lead_slowdown, long_route, RouteHint, Scenario, SensorConfig,
    SensorFrame, World,
};

fn sim(scenario: Scenario, seed: u64) -> SimLoop<AgentDriver> {
    let world = World::new(scenario, SensorConfig::default(), seed);
    let agent = SensorimotorAgent::new(AgentConfig::default(), seed ^ 0x5A);
    SimLoop::new(world, AgentDriver::new(agent))
}

/// Drive a scenario with a single agent at the full 40 Hz rate.
/// Returns the world after the run; a fault-free run must not trap.
fn drive(scenario: Scenario, seed: u64) -> World {
    let mut sim = sim(scenario, seed);
    let term = sim.run();
    assert!(!term.is_hang_or_crash(), "fault-free run must not trap: {term:?}");
    sim.into_parts().0
}

#[test]
fn agent_survives_lead_slowdown() {
    let world = drive(lead_slowdown(), 11);
    assert!(
        world.collision_time().is_none(),
        "collision at t={:?}, min CVIP {:.2}",
        world.collision_time(),
        world.min_cvip()
    );
    assert!(world.min_cvip() < 30.0, "the agent actually followed the lead");
}

#[test]
fn agent_survives_ghost_cut_in() {
    let world = drive(ghost_cut_in(), 12);
    assert!(
        world.collision_time().is_none(),
        "collision at t={:?}, min CVIP {:.2}",
        world.collision_time(),
        world.min_cvip()
    );
}

#[test]
fn agent_survives_front_accident() {
    let world = drive(front_accident(), 13);
    assert!(
        world.collision_time().is_none(),
        "collision at t={:?}, min CVIP {:.2}",
        world.collision_time(),
        world.min_cvip()
    );
}

#[test]
fn agent_lane_keeps_on_long_route() {
    let world = drive(long_route(0, 45.0), 14);
    assert!(world.collision_time().is_none(), "no collision on the training route");
    // Lane discipline: final lateral offset within the ego lane.
    let track = &world.scenario().track;
    let (_, lat) = track.project_near(world.ego_state().pose.pos, world.ego_s(), 30.0);
    assert!(lat.abs() < 1.5, "ended {lat:.2} m off lane center");
    assert!(world.ego_s() > 100.0, "made progress: s = {:.1}", world.ego_s());
}

#[test]
fn agent_reaches_cruise_speed_on_empty_road() {
    struct Speeds(Vec<f64>);
    impl LoopObserver for Speeds {
        fn on_tick(&mut self, ctx: &TickContext<'_>) {
            self.0.push(ctx.world.ego_state().speed);
        }
    }
    let mut scenario = lead_slowdown();
    scenario.npcs.clear();
    let world = World::new(scenario, SensorConfig::default(), 15);
    let agent = SensorimotorAgent::new(AgentConfig::default(), 99);
    let mut sim = SimLoop::new(world, AgentDriver::new(agent));
    let mut speeds = Speeds(Vec::new());
    assert_eq!(sim.run_observed(&mut [&mut speeds]), Termination::Completed);
    let speeds = speeds.0;
    let late_avg = speeds[speeds.len() - 200..].iter().sum::<f64>() / 200.0;
    assert!((late_avg - 8.0).abs() < 1.0, "cruise speed settled at {late_avg:.2}");
}

#[test]
fn perception_estimates_lead_distance() {
    // Three frames so the temporal median filter confirms the detection.
    let mut sim = sim(lead_slowdown(), 16);
    assert!(sim.run_for(3, &mut []).is_none(), "run is still live after 3 ticks");
    let dbg = sim.driver().agent.perception_debug();
    // True bumper gap is ~20.5 m (25 m center-to-center); row quantization
    // near the horizon makes the estimate coarse.
    assert!(
        dbg.distance > 8.0 && dbg.distance < 60.0,
        "distance estimate {:.1} m for a lead 25 m ahead",
        dbg.distance
    );
}

#[test]
fn golden_step_commits_every_lockstep_tile() {
    // The agent's kernels are written so the lockstep engine never falls
    // back on a fault-free step: each multi-thread launch commits all of
    // its tiles, with no abort and no scalar replay.
    let mut world = World::new(lead_slowdown(), SensorConfig::default(), 21);
    let frame = world.sense();
    let cfg = AgentConfig::default();
    let mut agent = SensorimotorAgent::new(cfg, 8);
    let (mut gpu, mut cpu) = (Fabric::new(Profile::Gpu), Fabric::new(Profile::Cpu));
    agent.step(&frame, world.route_hint(), 0.025, &mut gpu, &mut cpu).expect("fault-free step");

    let l = GpuLayout::new(cfg.img_w, cfg.img_h);
    let tiles = |n: usize| n.div_ceil(KERNEL_TILE) as u64;
    let expected = tiles(l.w * l.h) + tiles(l.w2 * l.h2) + tiles(l.h2) + tiles(l.w);
    let c = gpu.lockstep_counters();
    assert_eq!(
        c,
        LockstepCounters { tiles_committed: expected, ..LockstepCounters::default() },
        "a golden step must commit every tile in lockstep"
    );
    assert_eq!(cpu.lockstep_counters(), LockstepCounters::default(), "the CPU runs scalar only");
}

#[test]
fn perception_reports_no_vehicle_on_empty_road() {
    let mut scenario = lead_slowdown();
    scenario.npcs.clear();
    let mut sim = sim(scenario, 17);
    assert!(sim.run_for(1, &mut []).is_none());
    assert!(sim.driver().agent.perception_debug().distance > 100.0, "no vehicle → huge distance");
}

#[test]
fn agent_memory_accounting_is_plausible() {
    let agent = SensorimotorAgent::new(AgentConfig::default(), 3);
    let (vram, ram) = agent.memory_bytes();
    assert!(vram > 50_000, "GPU context holds image planes: {vram}");
    assert!(ram < 4_096, "CPU context is small: {ram}");
}

/// Two agents fed the same frames: the clean one drives the world, the
/// faulty one runs shadow inference on its own fabric pair. A faulty-side
/// trap terminates the loop through the driver's error path.
struct ShadowPair {
    clean: AgentDriver,
    faulty: AgentDriver,
}

impl LoopDriver for ShadowPair {
    fn tick(
        &mut self,
        frame: &SensorFrame,
        hint: RouteHint,
        state: VehState,
        t: f64,
        world: &World,
    ) -> Result<TickOutput, AgentError> {
        let clean = self.clean.tick(frame, hint, state, t, world).expect("clean run");
        self.faulty.tick(frame, hint, state, t, world)?;
        Ok(clean)
    }
}

#[test]
fn permanent_fmul_gpu_fault_perturbs_actuation() {
    let world = World::new(lead_slowdown(), SensorConfig::default(), 18);
    let mut driver = ShadowPair {
        clean: AgentDriver::new(SensorimotorAgent::new(AgentConfig::default(), 4)),
        faulty: AgentDriver::new(SensorimotorAgent::new(AgentConfig::default(), 4)),
    };
    driver.faulty.gpu.inject(FaultModel::Permanent { op: Op::FFma, mask: 1 << 30 });
    let mut sim = SimLoop::new(world, driver);
    // Several frames so corruption passes the temporal median filter.
    match sim.run_for(3, &mut []) {
        None | Some(Termination::Completed) | Some(Termination::Collision) => {
            // Actuation may saturate identically; the perception state must
            // differ under an always-on FMA corruption.
            let d = sim.driver();
            assert_ne!(
                d.clean.agent.perception_debug(),
                d.faulty.agent.perception_debug(),
                "a permanent FFma fault must perturb perception"
            );
        }
        Some(Termination::Trap(_)) => {} // crash/hang is also acceptable
    }
}

#[test]
fn corrupted_cpu_loop_counter_hangs_or_crashes() {
    let world = World::new(lead_slowdown(), SensorConfig::default(), 19);
    let mut driver = AgentDriver::new(SensorimotorAgent::new(AgentConfig::default(), 5));
    driver.cpu.inject(FaultModel::Permanent { op: Op::IAdd, mask: 1 });
    let mut sim = SimLoop::new(world, driver);
    match sim.run_for(1, &mut []) {
        Some(Termination::Trap(err)) => assert_eq!(err.fabric, Profile::Cpu),
        other => panic!("permanent IAdd corruption must trap, got {other:?}"),
    }
}

/// Two agents time-sharing one fabric pair (the DiverseAV deployment
/// shape): agent `a` drives; agent `b` shadows on the same fabrics.
struct SharedFabricPair {
    a: SensorimotorAgent,
    b: SensorimotorAgent,
    gpu: Fabric,
    cpu: Fabric,
}

impl LoopDriver for SharedFabricPair {
    fn tick(
        &mut self,
        frame: &SensorFrame,
        hint: RouteHint,
        _state: VehState,
        _t: f64,
        _world: &World,
    ) -> Result<TickOutput, AgentError> {
        let ca = self.a.step(frame, hint, 0.025, &mut self.gpu, &mut self.cpu)?;
        let cb = self.b.step(frame, hint, 0.025, &mut self.gpu, &mut self.cpu)?;
        // Outputs are close (same inputs) but jitter keeps them distinct
        // over several steps; state must not leak between contexts.
        let _ = cb;
        Ok(TickOutput {
            controls: ca,
            pair: None,
            divergence: None,
            alarm_raised: false,
            detector: None,
            fault_active: false,
        })
    }
}

#[test]
fn agent_state_is_private_between_instances() {
    let world = World::new(lead_slowdown(), SensorConfig::default(), 20);
    let driver = SharedFabricPair {
        a: SensorimotorAgent::new(AgentConfig::default(), 6),
        b: SensorimotorAgent::new(AgentConfig::default(), 7),
        gpu: Fabric::new(Profile::Gpu),
        cpu: Fabric::new(Profile::Cpu),
    };
    let mut sim = SimLoop::new(world, driver);
    assert!(sim.run_for(5, &mut []).is_none(), "both agents stay trap-free");
    assert_eq!(sim.driver().a.steps(), 5);
    assert_eq!(sim.driver().b.steps(), 5);
}

#[test]
#[ignore = "diagnostic trace for gain tuning"]
fn debug_lane_trace() {
    /// Wraps the bare agent driver to print a 1 Hz diagnostic line.
    struct Traced {
        inner: AgentDriver,
        i: u64,
    }
    impl LoopDriver for Traced {
        fn tick(
            &mut self,
            frame: &SensorFrame,
            hint: RouteHint,
            state: VehState,
            t: f64,
            world: &World,
        ) -> Result<TickOutput, AgentError> {
            let out = self.inner.tick(frame, hint, state, t, world)?;
            if self.i.is_multiple_of(40) {
                let d = self.inner.agent.perception_debug();
                let c = out.controls;
                println!(
                    "t={:5.1} s={:6.1} lat={:+5.2} curv={:+.4} limit={:4.1} v={:4.1} steer={:+.3} latpx={:+6.1} dist={:6.1} thr={:.2} brk={:.2}",
                    world.time(), world.ego_s(), hint.lateral_offset, hint.curvature,
                    hint.speed_limit, world.ego_state().speed, c.steer, d.lat_err_px, d.distance,
                    c.throttle, c.brake
                );
            }
            self.i += 1;
            Ok(out)
        }
    }
    let world = World::new(long_route(0, 45.0), SensorConfig::default(), 14);
    let driver = Traced {
        inner: AgentDriver::new(SensorimotorAgent::new(AgentConfig::default(), 14 ^ 0x5A)),
        i: 0,
    };
    let term = SimLoop::new(world, driver).run();
    assert!(!term.is_hang_or_crash(), "no trap on the diagnostic route: {term:?}");
}
