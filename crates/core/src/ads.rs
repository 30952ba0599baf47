//! The DiverseAV-enabled autonomous driving system: sensor data
//! distributor ([`AgentMode`]) + redundant agents + control fusion +
//! error detection, wired as a drop-in ADS (Fig 2 of the paper). FD-ADS
//! and the single-agent baseline are the same tick ([`Ads::tick`]) under
//! another distributor.

use crate::actuation::{Divergence, VehState};
use crate::detector::{DetectorConfig, DetectorModel, DetectorTelemetry, OnlineDetector};
use crate::distributor::AgentMode;
use diverseav_agent::{AgentConfig, AgentError, SensorimotorAgent};
use diverseav_fabric::{ExecStats, Fabric, FaultModel, Profile};
use diverseav_simworld::{Controls, RouteHint, SensorFrame};

/// A processor unit: one GPU fabric (perception kernels) and one CPU
/// fabric (tracker + PID).
#[derive(Clone, Debug)]
struct ProcessorUnit {
    gpu: Fabric,
    cpu: Fabric,
}

impl ProcessorUnit {
    fn new() -> Self {
        ProcessorUnit { gpu: Fabric::new(Profile::Gpu), cpu: Fabric::new(Profile::Cpu) }
    }
}

/// Configuration of an ADS instance.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AdsConfig {
    /// Deployment mode (single / DiverseAV round-robin, optionally with
    /// footnote-5 overlap / FD duplicate).
    pub mode: AgentMode,
    /// Seed for the agents' private jitter RNGs.
    pub seed: u64,
}

impl AdsConfig {
    /// Default configuration for a mode.
    pub fn for_mode(mode: AgentMode, seed: u64) -> Self {
        AdsConfig { mode, seed }
    }
}

/// Per-tick work accounting for the profiling layer: how much the ADS
/// did on one tick, in units that are pure functions of the run seed
/// (dynamic fabric instructions). The modeled profiling time source
/// turns these into deterministic latencies; `detect_ns` is only nonzero
/// after [`Ads::set_detect_timing`] switched timing on; the detector
/// check is then timed in place (it runs inside [`Ads::tick`], so the
/// loop cannot bracket it from outside).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TickWork {
    /// Dynamic GPU-fabric instructions executed this tick (all units).
    pub gpu_instr: u64,
    /// Dynamic CPU-fabric instructions executed this tick (all units).
    pub cpu_instr: u64,
    /// Wall-clock nanoseconds spent in the detector check (0 unless
    /// detector timing is on).
    pub detect_ns: u64,
}

/// Output of one ADS tick.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TickOutput {
    /// The actuation command sent to the vehicle.
    pub controls: Controls,
    /// Divergence of the actuated output from its reference output,
    /// once a reference exists.
    pub divergence: Option<Divergence>,
    /// Whether the error detector raised its alarm on this tick.
    pub alarm_raised: bool,
    /// Detector internals for this tick (`None` when no detector is
    /// attached or it had nothing to observe).
    pub detector: Option<DetectorTelemetry>,
    /// Whether an armed fabric fault had corrupted state by this tick.
    pub fault_active: bool,
    /// The tick's work accounting (zero for unmetered drivers).
    pub work: TickWork,
}

/// A DiverseAV-enabled (or baseline) autonomous driving system.
///
/// [`Ads::tick`] consumes one sensor frame and produces one actuation;
/// closing the loop (stepping the world under the returned controls) is
/// owned by `diverseav-runtime`'s `SimLoop`.
///
/// # Example
///
/// ```
/// use diverseav::{AdsConfig, AgentMode, Ads, VehState};
/// use diverseav_simworld::{lead_slowdown, SensorConfig, World};
///
/// # fn main() -> Result<(), diverseav_agent::AgentError> {
/// let mut world = World::new(lead_slowdown(), SensorConfig::default(), 1);
/// let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 42));
/// let frame = world.sense();
/// let hint = world.route_hint();
/// let state = VehState::from(world.ego_state());
/// let out = ads.tick(&frame, hint, state, world.time())?;
/// assert!(out.divergence.is_none(), "no reference output before the peer runs");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Ads {
    cfg: AdsConfig,
    agents: Vec<SensorimotorAgent>,
    units: Vec<ProcessorUnit>,
    detector: Option<OnlineDetector>,
    step: u64,
    /// Step of each agent's previous frame (`None` before its first).
    last_frame: [Option<u64>; 2],
    /// Control period each agent ran its latest frame with (seconds).
    agent_dt: [f64; 2],
    last_output: [Option<Controls>; 2],
    prev_instr: (u64, u64),
    time_detect: bool,
}

impl Ads {
    /// Build an ADS in the configured mode.
    pub fn new(cfg: AdsConfig) -> Self {
        let agent = AgentConfig::default();
        let agents = (0..cfg.mode.n_agents())
            .map(|i| SensorimotorAgent::new(agent, cfg.seed.wrapping_add(i as u64 * 101)))
            .collect();
        let units = (0..cfg.mode.n_units()).map(|_| ProcessorUnit::new()).collect();
        Ads {
            cfg,
            agents,
            units,
            detector: None,
            step: 0,
            last_frame: [None, None],
            agent_dt: [0.0; 2],
            last_output: [None, None],
            prev_instr: (0, 0),
            time_detect: false,
        }
    }

    /// Attach a trained error detector.
    pub fn attach_detector(&mut self, model: DetectorModel, det_cfg: DetectorConfig) {
        self.detector = Some(OnlineDetector::new(model, det_cfg));
    }

    /// Time the detector check of every following tick on the wall
    /// clock and report it as [`TickWork::detect_ns`] (off by default).
    /// The canonical loop switches it on exactly when some observer
    /// wants phase timings.
    pub fn set_detect_timing(&mut self, on: bool) {
        self.time_detect = on;
    }

    /// Time the detector alarm was raised, if it was.
    pub fn alarm_time(&self) -> Option<f64> {
        self.detector.as_ref().and_then(|d| d.alarm_time())
    }

    /// Arm a fault on one processor unit's fabric.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range for the mode.
    pub fn inject_fault(&mut self, unit: usize, profile: Profile, model: FaultModel) {
        let u = &mut self.units[unit];
        match profile {
            Profile::Gpu => u.gpu.inject(model),
            Profile::Cpu => u.cpu.inject(model),
        }
    }

    /// Whether any armed fault has corrupted at least one register.
    pub fn fault_activated(&self) -> bool {
        self.units.iter().any(|u| {
            u.gpu.fault_state().map(|f| f.is_active()).unwrap_or(false)
                || u.cpu.fault_state().map(|f| f.is_active()).unwrap_or(false)
        })
    }

    /// Borrow the execution statistics of one fabric of one processor
    /// unit, without cloning the per-opcode histogram.
    pub fn unit_stats(&self, profile: Profile, unit: usize) -> Option<&ExecStats> {
        let u = self.units.get(unit)?;
        Some(match profile {
            Profile::Gpu => u.gpu.stats(),
            Profile::Cpu => u.cpu.stats(),
        })
    }

    /// Total dynamic GPU instructions across units (profiling pass for the
    /// transient fault-site space).
    pub fn dyn_instr(&self, profile: Profile) -> u64 {
        self.units
            .iter()
            .map(|u| match profile {
                Profile::Gpu => u.gpu.dyn_instr_count(),
                Profile::Cpu => u.cpu.dyn_instr_count(),
            })
            .sum()
    }

    /// Memory footprint `(vram_bytes, ram_bytes)` across all agents
    /// (Table II accounting).
    pub fn memory_bytes(&self) -> (usize, usize) {
        self.agents
            .iter()
            .map(|a| a.memory_bytes())
            .fold((0, 0), |acc, m| (acc.0 + m.0, acc.1 + m.1))
    }

    /// Number of frames processed so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Per-agent processed-frame counts (distribution accounting: round
    /// robin splits frames evenly, overlap frames run both agents).
    pub fn agent_steps(&self) -> Vec<u64> {
        self.agents.iter().map(|a| a.steps()).collect()
    }

    /// Process one sensor frame: distribute, execute, fuse, and detect.
    ///
    /// Each agent the distributor names as a recipient steps, in index
    /// order: on its own processor unit under FD, on the shared unit 0
    /// otherwise. The driver's output actuates; the detector compares it
    /// with the peer's latest output, or a lone agent's previous one.
    ///
    /// # Errors
    ///
    /// Propagates an [`AgentError`] if a fabric traps — the platform-level
    /// failure path (hang/crash), which triggers the fail-back system.
    pub fn tick(
        &mut self,
        frame: &SensorFrame,
        hint: RouteHint,
        state: VehState,
        t: f64,
    ) -> Result<TickOutput, AgentError> {
        let mode = self.cfg.mode;
        let recipients = mode.recipients(self.step);
        let driver = mode.driver(self.step);
        let peer = (driver + 1) % self.agents.len();
        let (previous, n_units) = (self.last_output, self.units.len());
        for i in (0..self.agents.len()).filter(|&i| recipients[i]) {
            // Per-agent control period: the ticks since the agent's own
            // previous frame, the nominal period on its first. An overlap
            // frame shortens the period of the agent it was not
            // scheduled for.
            let ticks = self.last_frame[i].map_or(mode.frame_period(), |prev| self.step - prev);
            self.agent_dt[i] = ticks as f64 / diverseav_simworld::TICK_HZ;
            self.last_frame[i] = Some(self.step);
            // FD gives each agent its own unit; the other modes share one.
            let unit = &mut self.units[i % n_units];
            let u =
                self.agents[i].step(frame, hint, self.agent_dt[i], &mut unit.gpu, &mut unit.cpu)?;
            self.last_output[i] = Some(u);
        }
        self.step += 1;
        let controls = self.last_output[driver].expect("the driver received the frame");
        // A lone agent is its own peer: its reference is its previous output.
        let reference = if peer == driver { previous[driver] } else { self.last_output[peer] };

        let gpu_total = self.dyn_instr(Profile::Gpu);
        let cpu_total = self.dyn_instr(Profile::Cpu);
        let (gpu_instr, cpu_instr) = (gpu_total - self.prev_instr.0, cpu_total - self.prev_instr.1);
        self.prev_instr = (gpu_total, cpu_total);

        let divergence = reference.map(|r| Divergence::between(&controls, &r));
        let (alarm_raised, detector, detect_ns) = match (&mut self.detector, divergence) {
            (Some(det), Some(div)) => {
                let t0 = self.time_detect.then(std::time::Instant::now);
                let alarm = det.observe(&state, div, t);
                let ns = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
                (alarm, Some(det.telemetry()), ns)
            }
            _ => (false, None, 0),
        };
        Ok(TickOutput {
            controls,
            divergence,
            alarm_raised,
            detector,
            fault_active: self.fault_activated(),
            work: TickWork { gpu_instr, cpu_instr, detect_ns },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Closed-loop behavior of the distributor / fusion / detector plumbing
    // (references, overlap, alarms, fault activation) is tested in
    // `crates/runtime/tests/ads_behavior.rs` on the canonical `SimLoop`;
    // only loop-free accounting checks live here.

    #[test]
    fn processor_provisioning_matches_mode() {
        let units = |mode| {
            let ads = Ads::new(AdsConfig::for_mode(mode, 4));
            (0..3).take_while(|&u| ads.unit_stats(Profile::Gpu, u).is_some()).count()
        };
        assert_eq!(units(AgentMode::RoundRobin), 1, "one GPU + one CPU");
        assert_eq!(units(AgentMode::Duplicate), 2, "two GPUs + two CPUs");
    }

    /// In `Overlap(4)` every overlap frame is an even step, so agent 1
    /// also runs steps 0, 4, 8, … beside its odd ones: each agent's
    /// control period must be the spacing of its own frames, not the
    /// nominal 2 ticks.
    #[test]
    fn each_round_robin_agent_runs_with_its_own_frame_spacing() {
        use diverseav_simworld::{lead_slowdown, SensorConfig, World, TICK_HZ};
        let mut world = World::new(lead_slowdown(), SensorConfig::default(), 1);
        let (frame, hint) = (world.sense(), world.route_hint());
        let state = VehState::from(world.ego_state());
        let mode = AgentMode::Overlap(std::num::NonZeroU32::new(4).expect("nonzero"));
        let mut ads = Ads::new(AdsConfig::for_mode(mode, 7));
        let mut prev: [Option<u64>; 2] = [None, None];
        let mut shortened = 0;
        for step in 0..13u64 {
            let before = ads.agent_steps();
            ads.tick(&frame, hint, state, step as f64 / TICK_HZ).expect("fault-free tick");
            let after = ads.agent_steps();
            for agent in (0..2).filter(|&a| after[a] > before[a]) {
                let spacing = prev[agent].map_or(2, |p| step - p);
                shortened += usize::from(spacing != 2);
                assert_eq!(
                    ads.agent_dt[agent],
                    spacing as f64 / TICK_HZ,
                    "agent {agent} at step {step}: {spacing} ticks since its previous frame"
                );
                prev[agent] = Some(step);
            }
        }
        assert!(shortened > 0, "no overlap frame shortened a period — the check would be vacuous");
    }

    #[test]
    fn memory_doubles_with_two_agents() {
        let single = Ads::new(AdsConfig::for_mode(AgentMode::Single, 5)).memory_bytes();
        let rr = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 5)).memory_bytes();
        assert_eq!(rr.0, 2 * single.0, "VRAM doubles");
        assert_eq!(rr.1, 2 * single.1, "RAM doubles");
    }
}
