//! The canonical closed-loop driver.
//!
//! The paper's mechanism is a single feedback loop — sensor frame →
//! redundant agents → fused actuation → world kinematics → next frame
//! (Fig 2) — and this module is the **only** place in the workspace that
//! implements it. Every consumer (experiment runner, campaign fan-out,
//! bench reports, examples, agent tests) drives a [`SimLoop`] and hangs
//! its bookkeeping off [`LoopObserver`] hooks instead of copy-pasting
//! the loop body.
//!
//! The loop owns a reusable [`SensorFrame`] buffer and captures frames
//! with [`World::capture_into`], so the steady-state tick performs no heap
//! allocation (verified by the `zero_alloc` integration test). Sensing is
//! demand-driven: the loop renders only the cameras its driver and
//! observers declare they read ([`LoopDriver::cameras`],
//! [`LoopObserver::cameras`]); every other camera slot stays empty.

use diverseav::{Ads, TickOutput, TickWork, VehState};
use diverseav_agent::{AgentError, SensorimotorAgent};
use diverseav_fabric::{Fabric, Profile, Trap};
use diverseav_simworld::{
    CameraSet, Controls, RouteHint, SensorFrame, World, WorldStatus, TICK_HZ,
};
use std::time::Instant;

/// The phases of one loop iteration, in execution order. Phase labels
/// name the tick-latency histograms (`tick.<label>`) in
/// `METRICS_campaigns.json`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LoopPhase {
    /// Sensor capture: render of the demanded cameras + lidar sweep into
    /// the frame buffer.
    Sense,
    /// The driver's control computation, excluding the detector check.
    Driver,
    /// The error detector's divergence check (zero-length for drivers
    /// without a detector).
    Detect,
    /// World kinematics under the tick's controls.
    Step,
}

impl LoopPhase {
    /// Stable lowercase label (histogram key suffix).
    pub fn label(&self) -> &'static str {
        match self {
            LoopPhase::Sense => "sense",
            LoopPhase::Driver => "driver",
            LoopPhase::Detect => "detect",
            LoopPhase::Step => "step",
        }
    }
}

/// How a closed-loop run ended.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Termination {
    /// Scenario duration elapsed.
    Completed,
    /// The ego vehicle collided.
    Collision,
    /// A fabric trapped (crash) or exhausted its watchdog (hang) — the
    /// platform-detected failure path.
    Trap(AgentError),
}

impl Termination {
    /// Whether the platform detected this run as a hang or crash.
    pub fn is_hang_or_crash(&self) -> bool {
        matches!(self, Termination::Trap(_))
    }

    /// Whether the trap specifically was a watchdog hang.
    pub fn is_hang(&self) -> bool {
        matches!(self, Termination::Trap(AgentError { trap: Trap::Watchdog, .. }))
    }

    /// Stable journal label: `completed`, `collision`, `hang`, or `crash`.
    pub fn label(&self) -> &'static str {
        match self {
            Termination::Completed => "completed",
            Termination::Collision => "collision",
            _ if self.is_hang() => "hang",
            _ => "crash",
        }
    }
}

/// The control-side half of one tick: consume a sensor frame (plus route
/// hint and vehicle state) and produce actuation, with the tick's work
/// accounting beside it in the one [`TickOutput`].
///
/// `world` grants read access to ground truth for perfect-knowledge
/// policies ([`PolicyDriver`]); sensor-driven systems ([`Ads`],
/// [`AgentDriver`]) must ignore it.
pub trait LoopDriver {
    /// Process one sensor frame into a [`TickOutput`]. Its
    /// [`work`](TickOutput::work) feeds the modeled profiling time
    /// source; a driver that doesn't meter itself leaves it zero.
    ///
    /// # Errors
    ///
    /// Returns an [`AgentError`] when a fabric traps — the platform-level
    /// hang/crash failure path, which terminates the run.
    fn tick(
        &mut self,
        frame: &SensorFrame,
        hint: RouteHint,
        state: VehState,
        t: f64,
        world: &World,
    ) -> Result<TickOutput, AgentError>;

    /// The cameras [`LoopDriver::tick`] reads from the frame; the loop
    /// leaves every other camera slot empty. Defaults to all three, which
    /// is always correct; a driver that reads fewer declares them here.
    fn cameras(&self) -> CameraSet {
        CameraSet::ALL
    }

    /// Called once at the start of every [`SimLoop::run_for`] with
    /// whether this run reports wall-clock [`LoopPhase`] timings to its
    /// observers. A driver that times part of its own tick (and reports
    /// it through [`TickWork::detect_ns`]) does so only when `on`.
    /// Defaults to a no-op.
    fn set_phase_timing(&mut self, _on: bool) {}
}

impl<D: LoopDriver + ?Sized> LoopDriver for &mut D {
    fn tick(
        &mut self,
        frame: &SensorFrame,
        hint: RouteHint,
        state: VehState,
        t: f64,
        world: &World,
    ) -> Result<TickOutput, AgentError> {
        (**self).tick(frame, hint, state, t, world)
    }

    fn cameras(&self) -> CameraSet {
        (**self).cameras()
    }

    fn set_phase_timing(&mut self, on: bool) {
        (**self).set_phase_timing(on);
    }
}

impl LoopDriver for Ads {
    fn tick(
        &mut self,
        frame: &SensorFrame,
        hint: RouteHint,
        state: VehState,
        t: f64,
        _world: &World,
    ) -> Result<TickOutput, AgentError> {
        Ads::tick(self, frame, hint, state, t)
    }

    /// Every agent's perception uploads the center camera only.
    fn cameras(&self) -> CameraSet {
        CameraSet::CENTER
    }

    /// The detector check runs inside [`Ads::tick`]; it is timed there.
    fn set_phase_timing(&mut self, on: bool) {
        self.set_detect_timing(on);
    }
}

/// A perfect-knowledge policy driver: actuation from ground-truth world
/// state (violation baselines, ground-truth comparison studies).
pub struct PolicyDriver<F: FnMut(&World) -> Controls>(pub F);

impl<F: FnMut(&World) -> Controls> LoopDriver for PolicyDriver<F> {
    fn tick(
        &mut self,
        _frame: &SensorFrame,
        _hint: RouteHint,
        _state: VehState,
        _t: f64,
        world: &World,
    ) -> Result<TickOutput, AgentError> {
        Ok(TickOutput {
            controls: (self.0)(world),
            divergence: None,
            alarm_raised: false,
            detector: None,
            fault_active: false,
            work: TickWork::default(),
        })
    }

    /// Actuation comes from ground truth, never from pixels.
    fn cameras(&self) -> CameraSet {
        CameraSet::NONE
    }
}

/// A single bare [`SensorimotorAgent`] on its own GPU/CPU fabric pair —
/// the substrate-level driver used by agent closed-loop tests.
pub struct AgentDriver {
    /// The agent under test.
    pub agent: SensorimotorAgent,
    /// Its GPU fabric.
    pub gpu: Fabric,
    /// Its CPU fabric.
    pub cpu: Fabric,
    /// Control period handed to the agent (s).
    pub dt: f64,
    prev_instr: (u64, u64),
}

impl AgentDriver {
    /// Wrap `agent` with fresh fault-free fabrics at the full tick rate.
    pub fn new(agent: SensorimotorAgent) -> Self {
        AgentDriver {
            agent,
            gpu: Fabric::new(Profile::Gpu),
            cpu: Fabric::new(Profile::Cpu),
            dt: 1.0 / TICK_HZ,
            prev_instr: (0, 0),
        }
    }
}

impl LoopDriver for AgentDriver {
    fn tick(
        &mut self,
        frame: &SensorFrame,
        hint: RouteHint,
        _state: VehState,
        _t: f64,
        _world: &World,
    ) -> Result<TickOutput, AgentError> {
        let controls = self.agent.step(frame, hint, self.dt, &mut self.gpu, &mut self.cpu)?;
        let totals = (self.gpu.dyn_instr_count(), self.cpu.dyn_instr_count());
        let work = TickWork {
            gpu_instr: totals.0 - self.prev_instr.0,
            cpu_instr: totals.1 - self.prev_instr.1,
            detect_ns: 0,
        };
        self.prev_instr = totals;
        Ok(TickOutput {
            controls,
            divergence: None,
            alarm_raised: false,
            detector: None,
            fault_active: false,
            work,
        })
    }

    fn cameras(&self) -> CameraSet {
        CameraSet::CENTER
    }
}

/// Everything an observer can see about one completed tick, before the
/// world advances under the tick's controls.
pub struct TickContext<'a> {
    /// Simulation time at the start of the tick (s).
    pub t: f64,
    /// Vehicle state fed to the driver.
    pub state: VehState,
    /// The sensor frame the driver consumed. Only the cameras declared by
    /// the driver or some observer are rendered; the other slots are
    /// empty.
    pub frame: &'a SensorFrame,
    /// The route hint fed to the driver.
    pub hint: RouteHint,
    /// The driver's output for this frame, its work accounting
    /// ([`TickOutput::work`]) included.
    pub out: &'a TickOutput,
    /// Whether *any* injected fault — fabric-level
    /// ([`TickOutput::fault_active`]) or sensor-boundary (the loop's
    /// [`FrameInjector`](crate::FrameInjector)) — had corrupted state by
    /// this tick.
    pub fault_active: bool,
    /// The world *before* stepping (ground truth for CVIP etc.).
    pub world: &'a World,
}

/// Hook trait for per-run bookkeeping: training collection, perf
/// accounting, telemetry printing, trace journaling. All methods default
/// to no-ops so observers implement only what they need.
pub trait LoopObserver {
    /// Called after the driver produced `out`, before the world steps.
    fn on_tick(&mut self, _ctx: &TickContext<'_>) {}

    /// Called once when the loop ends, with the final world state.
    fn on_termination(&mut self, _world: &World, _termination: &Termination) {}

    /// Whether this observer needs wall-clock [`LoopPhase`] timings. The
    /// loop only reads the host clock when at least one observer asks
    /// (four `Instant` reads per tick otherwise avoided).
    fn wants_phase_timing(&self) -> bool {
        false
    }

    /// Called once per [`LoopPhase`] per tick with its wall-clock
    /// duration — only when [`LoopObserver::wants_phase_timing`] returned
    /// true for *some* observer in the run.
    fn on_phase(&mut self, _phase: LoopPhase, _dur_ns: u64) {}

    /// The cameras this observer reads from [`TickContext::frame`]. The
    /// loop renders the union of the driver's and every observer's set;
    /// an observer that reads pixels must declare them, since an
    /// undeclared camera slot is an empty 0×0 image.
    fn cameras(&self) -> CameraSet {
        CameraSet::NONE
    }
}

/// The canonical `sense → tick → step` loop: one [`World`], one
/// [`LoopDriver`], one reusable frame buffer.
pub struct SimLoop<D: LoopDriver> {
    world: World,
    driver: D,
    frame: SensorFrame,
    injector: Option<crate::FrameInjector>,
}

impl<D: LoopDriver> SimLoop<D> {
    /// Couple `driver` to `world`.
    pub fn new(world: World, driver: D) -> Self {
        SimLoop { world, driver, frame: SensorFrame::empty(), injector: None }
    }

    /// Install a sensor-boundary fault injector: from now on every
    /// captured frame is passed through
    /// [`FrameInjector::apply`](crate::FrameInjector::apply) before the
    /// driver sees it.
    pub fn set_injector(&mut self, injector: crate::FrameInjector) {
        self.injector = Some(injector);
    }

    /// The installed sensor-fault injector, if any (end-of-run
    /// activation/onset accounting).
    pub fn injector(&self) -> Option<&crate::FrameInjector> {
        self.injector.as_ref()
    }

    /// Drive the loop to termination with no observers.
    pub fn run(&mut self) -> Termination {
        self.run_observed(&mut [])
    }

    /// Drive the loop to termination, reporting each tick (and the final
    /// state) to `observers` in order.
    pub fn run_observed(&mut self, observers: &mut [&mut dyn LoopObserver]) -> Termination {
        self.run_for(usize::MAX, observers).expect("usize::MAX ticks outlasts any finite scenario")
    }

    /// Advance the loop by at most `max_ticks` ticks. Returns `Some`
    /// termination if the run ended within the budget, `None` if it is
    /// still live (partial-run probes in substrate tests). Observers get
    /// `on_termination` only when the run actually ends.
    pub fn run_for(
        &mut self,
        max_ticks: usize,
        observers: &mut [&mut dyn LoopObserver],
    ) -> Option<Termination> {
        let mut termination = None;
        let timing = observers.iter().any(|o| o.wants_phase_timing());
        self.driver.set_phase_timing(timing);
        let cameras = observers.iter().fold(self.driver.cameras(), |set, o| set.union(o.cameras()));
        for _ in 0..max_ticks {
            if self.world.finished() {
                termination = Some(Termination::Completed);
                break;
            }
            let t0 = timing.then(Instant::now);
            self.world.capture_into(&mut self.frame, cameras);
            if let Some(inj) = &mut self.injector {
                // The one sanctioned sensor-fault mutation point: between
                // capture and the driver (see crate::inject).
                inj.apply(&mut self.frame);
            }
            let hint = self.world.route_hint();
            let state = VehState::from(self.world.ego_state());
            let t_now = self.world.time();
            if let Some(t0) = t0 {
                let ns = t0.elapsed().as_nanos() as u64;
                for obs in observers.iter_mut() {
                    obs.on_phase(LoopPhase::Sense, ns);
                }
            }
            let t0 = timing.then(Instant::now);
            match self.driver.tick(&self.frame, hint, state, t_now, &self.world) {
                Ok(out) => {
                    if let Some(t0) = t0 {
                        // The detector check runs inside the driver tick;
                        // the driver reports its share so the two phases
                        // partition the measured interval.
                        let ns = t0.elapsed().as_nanos() as u64;
                        for obs in observers.iter_mut() {
                            obs.on_phase(LoopPhase::Driver, ns.saturating_sub(out.work.detect_ns));
                            obs.on_phase(LoopPhase::Detect, out.work.detect_ns);
                        }
                    }
                    let fault_active =
                        out.fault_active || self.injector.as_ref().is_some_and(|i| i.activated());
                    for obs in observers.iter_mut() {
                        obs.on_tick(&TickContext {
                            t: t_now,
                            state,
                            frame: &self.frame,
                            hint,
                            out: &out,
                            fault_active,
                            world: &self.world,
                        });
                    }
                    let t0 = timing.then(Instant::now);
                    let status = self.world.step(out.controls);
                    if let Some(t0) = t0 {
                        let ns = t0.elapsed().as_nanos() as u64;
                        for obs in observers.iter_mut() {
                            obs.on_phase(LoopPhase::Step, ns);
                        }
                    }
                    if status == WorldStatus::Collision {
                        termination = Some(Termination::Collision);
                        break;
                    }
                }
                Err(e) => {
                    termination = Some(Termination::Trap(e));
                    break;
                }
            }
        }
        if termination.is_none() && self.world.finished() {
            termination = Some(Termination::Completed);
        }
        if let Some(t) = &termination {
            for obs in observers.iter_mut() {
                obs.on_termination(&self.world, t);
            }
        }
        termination
    }

    /// The world being driven.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The driver.
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Decompose into the world and driver for end-of-run accounting.
    pub fn into_parts(self) -> (World, D) {
        (self.world, self.driver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diverseav::{AdsConfig, AgentMode};
    use diverseav_agent::AgentConfig;
    use diverseav_simworld::{lead_slowdown, SensorConfig};

    fn short_world(seed: u64) -> World {
        let mut scenario = lead_slowdown();
        scenario.duration = 1.0;
        World::new(scenario, SensorConfig::default(), seed)
    }

    #[test]
    fn ads_driver_completes_a_short_run() {
        let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 21));
        let mut sim = SimLoop::new(short_world(21), ads);
        assert_eq!(sim.run(), Termination::Completed);
        assert!((sim.world().time() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn policy_driver_sees_ground_truth() {
        let mut cvip_seen = f64::INFINITY;
        let driver = PolicyDriver(|world: &World| {
            cvip_seen = cvip_seen.min(world.cvip().unwrap_or(f64::INFINITY));
            Controls::default()
        });
        let mut sim = SimLoop::new(short_world(22), driver);
        assert_eq!(sim.run(), Termination::Completed);
        drop(sim);
        assert!(cvip_seen < 30.0, "policy read CVIP from the world: {cvip_seen}");
    }

    #[test]
    fn agent_driver_runs_a_bare_agent() {
        let driver = AgentDriver::new(SensorimotorAgent::new(AgentConfig::default(), 7));
        let mut sim = SimLoop::new(short_world(23), driver);
        assert_eq!(sim.run(), Termination::Completed);
        assert_eq!(sim.driver().agent.steps(), 40);
    }

    #[test]
    fn observers_see_every_tick_and_the_termination() {
        struct Counting {
            ticks: usize,
            terminated: Option<Termination>,
        }
        impl LoopObserver for Counting {
            fn on_tick(&mut self, ctx: &TickContext<'_>) {
                assert!(ctx.out.controls.throttle.is_finite());
                self.ticks += 1;
            }
            fn on_termination(&mut self, world: &World, termination: &Termination) {
                assert!(world.finished());
                self.terminated = Some(*termination);
            }
        }
        let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 24));
        let mut sim = SimLoop::new(short_world(24), ads);
        let mut counting = Counting { ticks: 0, terminated: None };
        sim.run_observed(&mut [&mut counting]);
        assert_eq!(counting.ticks, 40, "one on_tick per 40 Hz frame over 1 s");
        assert_eq!(counting.terminated, Some(Termination::Completed));
    }

    #[test]
    fn loop_renders_the_union_of_declared_cameras() {
        /// Records which camera slots held pixels, and the actuation.
        struct Rendered {
            declared: CameraSet,
            seen: Vec<[bool; 3]>,
            controls: Vec<Controls>,
        }
        impl LoopObserver for Rendered {
            fn on_tick(&mut self, ctx: &TickContext<'_>) {
                let cams = &ctx.frame.cameras;
                self.seen.push([0, 1, 2].map(|c| !cams[c].data().is_empty()));
                self.controls.push(ctx.out.controls);
            }
            fn cameras(&self) -> CameraSet {
                self.declared
            }
        }
        let run = |declared| {
            let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 25));
            let mut rendered = Rendered { declared, seen: Vec::new(), controls: Vec::new() };
            SimLoop::new(short_world(25), ads).run_observed(&mut [&mut rendered]);
            rendered
        };
        let center = run(CameraSet::NONE);
        assert_eq!(center.seen.len(), 40);
        assert!(center.seen.iter().all(|s| *s == [false, true, false]), "Ads reads the center");
        let all = run(CameraSet::ALL);
        assert!(all.seen.iter().all(|s| *s == [true; 3]), "an observer may demand every camera");
        assert_eq!(center.controls, all.controls, "the camera set never changes a run");
    }

    #[test]
    fn termination_labels_are_stable() {
        assert_eq!(Termination::Completed.label(), "completed");
        assert_eq!(Termination::Collision.label(), "collision");
        let hang = Termination::Trap(AgentError { fabric: Profile::Cpu, trap: Trap::Watchdog });
        assert_eq!(hang.label(), "hang");
        assert!(hang.is_hang());
        assert!(hang.is_hang_or_crash());
        let crash = Termination::Trap(AgentError {
            fabric: Profile::Cpu,
            trap: Trap::OutOfBounds { addr: 7 },
        });
        assert_eq!(crash.label(), "crash");
        assert!(!crash.is_hang());
    }
}
