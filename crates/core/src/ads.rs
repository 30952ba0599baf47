//! The DiverseAV-enabled autonomous driving system: sensor data
//! distributor + redundant agents + control fusion + error detection,
//! wired as a drop-in ADS (Fig 2 of the paper).

use crate::actuation::{Divergence, VehState};
use crate::detector::{DetectorConfig, DetectorModel, DetectorTelemetry, OnlineDetector};
use crate::distributor::AgentMode;
use crate::fusion::FusionPolicy;
use diverseav_agent::{AgentConfig, AgentError, SensorimotorAgent};
use diverseav_fabric::{ExecStats, Fabric, FaultModel, Profile};
use diverseav_simworld::{Controls, RouteHint, SensorFrame};

/// A processor unit: one GPU fabric and one CPU fabric.
#[derive(Clone, Debug)]
pub struct ProcessorUnit {
    /// The data-parallel fabric (perception kernels).
    pub gpu: Fabric,
    /// The scalar fabric (tracker + PID).
    pub cpu: Fabric,
}

impl ProcessorUnit {
    fn new() -> Self {
        ProcessorUnit { gpu: Fabric::new(Profile::Gpu), cpu: Fabric::new(Profile::Cpu) }
    }
}

/// Configuration of an ADS instance.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AdsConfig {
    /// Deployment mode (single / DiverseAV round-robin / FD duplicate).
    pub mode: AgentMode,
    /// Agent parameters (shared by both agent instances).
    pub agent: AgentConfig,
    /// Control fusion policy.
    pub fusion: FusionPolicy,
    /// Seed for the agents' private jitter RNGs.
    pub seed: u64,
    /// Round-robin partial overlap: every Nth frame goes to both agents
    /// (paper footnote 5). `None` = pure round-robin.
    pub overlap_period: Option<u32>,
}

impl AdsConfig {
    /// Default configuration for a mode.
    pub fn for_mode(mode: AgentMode, seed: u64) -> Self {
        AdsConfig {
            mode,
            agent: AgentConfig::default(),
            fusion: FusionPolicy::ActiveAgent,
            seed,
            overlap_period: None,
        }
    }
}

/// Per-tick work accounting for the profiling layer: how much the ADS
/// *did* on its last tick, in units that are pure functions of the run
/// seed (dynamic fabric instructions, detector activity). The modeled
/// profiling time source turns these into deterministic latencies;
/// `detect_ns` is only nonzero after [`Ads::set_detect_timing`] switched
/// timing on; the detector check is then timed in place (it runs inside
/// [`Ads::tick`], so the loop cannot bracket it from outside).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TickWork {
    /// Dynamic GPU-fabric instructions executed this tick (all units).
    pub gpu_instr: u64,
    /// Dynamic CPU-fabric instructions executed this tick (all units).
    pub cpu_instr: u64,
    /// Whether the error detector observed a divergence sample.
    pub detector_observed: bool,
    /// Wall-clock nanoseconds spent in the detector check (0 unless
    /// detector timing is on).
    pub detect_ns: u64,
}

/// Output of one ADS tick.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TickOutput {
    /// The actuation command sent to the vehicle.
    pub controls: Controls,
    /// The compared pair `(fresh output, reference output)` feeding the
    /// error detector, once a reference exists.
    pub pair: Option<(Controls, Controls)>,
    /// Divergence of the pair.
    pub divergence: Option<Divergence>,
    /// Whether the error detector raised its alarm on this tick.
    pub alarm_raised: bool,
    /// Detector internals for this tick (`None` when no detector is
    /// attached or it had nothing to observe).
    pub detector: Option<DetectorTelemetry>,
    /// Whether an armed fabric fault had corrupted state by this tick.
    pub fault_active: bool,
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
/// assert!(out.pair.is_none(), "no reference output before the peer runs");
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
    last_output: [Option<Controls>; 2],
    prev_selected: Option<Controls>,
    prev_instr: (u64, u64),
    last_work: TickWork,
    time_detect: bool,
}

impl Ads {
    /// Build an ADS in the configured mode.
    pub fn new(cfg: AdsConfig) -> Self {
        let agents = (0..cfg.mode.n_agents())
            .map(|i| SensorimotorAgent::new(cfg.agent, cfg.seed.wrapping_add(i as u64 * 101)))
            .collect();
        let units = (0..cfg.mode.n_units()).map(|_| ProcessorUnit::new()).collect();
        Ads {
            cfg,
            agents,
            units,
            detector: None,
            step: 0,
            last_output: [None, None],
            prev_selected: None,
            prev_instr: (0, 0),
            last_work: TickWork::default(),
            time_detect: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AdsConfig {
        &self.cfg
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

    /// The attached detector, if any.
    pub fn detector(&self) -> Option<&OnlineDetector> {
        self.detector.as_ref()
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

    /// Dynamic-instruction totals per fabric: `(profile, unit, stats)`.
    pub fn exec_stats(&self) -> Vec<(Profile, usize, ExecStats)> {
        self.units
            .iter()
            .enumerate()
            .flat_map(|(i, u)| {
                [(Profile::Gpu, i, u.gpu.stats().clone()), (Profile::Cpu, i, u.cpu.stats().clone())]
            })
            .collect()
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
        let recipients = self.cfg.mode.recipients_with_overlap(self.step, self.cfg.overlap_period);
        // Per-agent control period: round-robin agents see every other
        // frame.
        let dt = match self.cfg.mode {
            AgentMode::RoundRobin => 2.0 / diverseav_simworld::TICK_HZ,
            _ => 1.0 / diverseav_simworld::TICK_HZ,
        };
        let (controls, pair) = match self.cfg.mode {
            AgentMode::Single => {
                let unit = &mut self.units[0];
                let u = self.agents[0].step(frame, hint, dt, &mut unit.gpu, &mut unit.cpu)?;
                let pair = self.prev_selected.map(|prev| (u, prev));
                (u, pair)
            }
            AgentMode::RoundRobin => {
                let unit = &mut self.units[0];
                if recipients[0] && recipients[1] {
                    // Overlap frame: both agents process it; the regularly
                    // scheduled agent drives, the peer's same-frame output
                    // is the (stronger, FD-like) detection reference.
                    let scheduled = (self.step % 2) as usize;
                    let u0 = self.agents[0].step(frame, hint, dt, &mut unit.gpu, &mut unit.cpu)?;
                    let u1 = self.agents[1].step(frame, hint, dt, &mut unit.gpu, &mut unit.cpu)?;
                    self.last_output = [Some(u0), Some(u1)];
                    let (active_u, peer_u) = if scheduled == 0 { (u0, u1) } else { (u1, u0) };
                    let fused = self.cfg.fusion.fuse(active_u, Some(peer_u));
                    (fused, Some((active_u, peer_u)))
                } else {
                    let active = if recipients[0] { 0 } else { 1 };
                    let u =
                        self.agents[active].step(frame, hint, dt, &mut unit.gpu, &mut unit.cpu)?;
                    self.last_output[active] = Some(u);
                    let peer = self.last_output[1 - active];
                    let fused = self.cfg.fusion.fuse(u, peer);
                    (fused, peer.map(|p| (u, p)))
                }
            }
            AgentMode::Duplicate => {
                let (a0, a_rest) = self.agents.split_at_mut(1);
                let (u_first, u_rest) = self.units.split_at_mut(1);
                let u0 = a0[0].step(frame, hint, dt, &mut u_first[0].gpu, &mut u_first[0].cpu)?;
                let u1 = a_rest[0].step(frame, hint, dt, &mut u_rest[0].gpu, &mut u_rest[0].cpu)?;
                self.last_output = [Some(u0), Some(u1)];
                (u0, Some((u0, u1)))
            }
        };
        self.prev_selected = Some(controls);
        self.step += 1;

        let gpu_total = self.dyn_instr(Profile::Gpu);
        let cpu_total = self.dyn_instr(Profile::Cpu);
        let (gpu_instr, cpu_instr) = (gpu_total - self.prev_instr.0, cpu_total - self.prev_instr.1);
        self.prev_instr = (gpu_total, cpu_total);

        let divergence = pair.map(|(a, b)| Divergence::between(&a, &b));
        let (alarm_raised, detector_observed, detect_ns) = match (&mut self.detector, divergence) {
            (Some(det), Some(div)) => {
                if self.time_detect {
                    let t0 = std::time::Instant::now();
                    let alarm = det.observe(&state, div, t);
                    (alarm, true, t0.elapsed().as_nanos() as u64)
                } else {
                    (det.observe(&state, div, t), true, 0)
                }
            }
            _ => (false, false, 0),
        };
        self.last_work = TickWork { gpu_instr, cpu_instr, detector_observed, detect_ns };
        let detector =
            if detector_observed { self.detector.as_ref().map(|d| d.telemetry()) } else { None };
        Ok(TickOutput {
            controls,
            pair,
            divergence,
            alarm_raised,
            detector,
            fault_active: self.fault_activated(),
        })
    }

    /// Work accounting for the most recent [`Ads::tick`] (zeroed before
    /// the first tick).
    pub fn last_tick_work(&self) -> TickWork {
        self.last_work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Closed-loop behavior of the distributor / fusion / detector plumbing
    // (pairs, overlap, alarms, fault activation) is tested in
    // `crates/runtime/tests/ads_behavior.rs` on the canonical `SimLoop`;
    // only loop-free accounting checks live here.

    #[test]
    fn processor_provisioning_matches_mode() {
        let rr = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 4));
        assert_eq!(rr.exec_stats().len(), 2, "one GPU + one CPU");
        let fd = Ads::new(AdsConfig::for_mode(AgentMode::Duplicate, 4));
        assert_eq!(fd.exec_stats().len(), 4, "two GPUs + two CPUs");
    }

    #[test]
    fn memory_doubles_with_two_agents() {
        let single = Ads::new(AdsConfig::for_mode(AgentMode::Single, 5)).memory_bytes();
        let rr = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 5)).memory_bytes();
        assert_eq!(rr.0, 2 * single.0, "VRAM doubles");
        assert_eq!(rr.1, 2 * single.1, "RAM doubles");
    }
}
