//! The Driver (Fig 3): executes one experiment — scenario + agent mode +
//! optional fault — and records everything the evaluation needs.

use diverseav::{Ads, AdsConfig, AgentMode, DetectorConfig, DetectorModel, TrainSample};
use diverseav_fabric::{FaultModel, Op, Profile};
use diverseav_obs::flight::TickRecord;
use diverseav_obs::{metrics, profile, FaultSite, MetricsSlice};
use diverseav_runtime::{
    FlightRecorder, FrameInjector, IncidentKind, LoopObserver, SensorFault, SimLoop,
    TrainingCollector,
};
use diverseav_simworld::{Scenario, SensorConfig, TrajPoint, World, TICK_HZ};
use std::fmt;

pub use diverseav_runtime::Termination;

/// A fault to inject into one experiment: a register flip inside the
/// compute fabric (the paper's §II-B model) or a sensor-boundary fault
/// applied to the frame before the driver sees it (ROADMAP item 5).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// An architectural fault in the compute fabric.
    Fabric {
        /// Processor unit index (0 except for FD's second processor).
        unit: usize,
        /// Target fabric (the paper's CPU-vs-GPU injection axis).
        profile: Profile,
        /// The architectural fault model.
        model: FaultModel,
    },
    /// A sensor-boundary fault injected between `World::capture_into` and
    /// the driver.
    Sensor(SensorFault),
}

impl FaultSpec {
    /// The injection site as the journal, shard artifacts and incident
    /// sidecars record it. Sensor faults ride the same site schema: the
    /// realization seed in `cycle`, the class label in `op` (onset time
    /// is a pure function of the seed, so the site need not carry it).
    pub(crate) fn site(&self) -> FaultSite {
        match *self {
            FaultSpec::Fabric { unit, profile, model } => {
                let (model, cycle, op, mask) = match model {
                    FaultModel::Transient { instr_index, mask } => {
                        ("transient", Some(instr_index), None, mask)
                    }
                    FaultModel::Permanent { op, mask } => {
                        ("permanent", None, Some(op.to_string()), mask)
                    }
                };
                FaultSite {
                    profile: profile.to_string(),
                    unit,
                    model: model.to_string(),
                    mask,
                    cycle,
                    op,
                }
            }
            FaultSpec::Sensor(sf) => FaultSite {
                profile: "SENSOR".to_string(),
                unit: 0,
                model: "sensor".to_string(),
                mask: 0,
                cycle: Some(sf.seed),
                op: Some(sf.kind.label().to_string()),
            },
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::Fabric { unit, profile, model } => {
                write!(f, "{profile}[unit{unit}] {model}")
            }
            FaultSpec::Sensor(sf) => write!(f, "{sf}"),
        }
    }
}

/// Configuration of one experimental run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The scenario to drive.
    pub scenario: Scenario,
    /// Agent deployment mode.
    pub mode: AgentMode,
    /// Fault to inject, if any (golden runs pass `None`).
    pub fault: Option<FaultSpec>,
    /// Per-run nondeterminism seed (world noise + agent jitter).
    pub seed: u64,
    /// Sensor configuration (must match the agent's camera geometry).
    pub sensor: SensorConfig,
    /// Trained detector to run online, if any.
    pub detector: Option<(DetectorModel, DetectorConfig)>,
    /// Whether to record the divergence stream (for detector training and
    /// offline parameter sweeps) and the actuation/CVIP trace (Fig 2).
    pub collect_training: bool,
    /// Guided-campaign stratum code this run was drawn from (`None` for
    /// uniform enumeration and golden runs; see [`crate::guided`]).
    pub stratum: Option<u64>,
    /// Horvitz–Thompson importance weight of this run (`None` for
    /// uniform enumeration and golden runs).
    pub weight: Option<f64>,
}

impl RunConfig {
    /// A run with default sensor parameters.
    pub fn new(scenario: Scenario, mode: AgentMode, seed: u64) -> Self {
        RunConfig {
            scenario,
            mode,
            fault: None,
            seed,
            sensor: SensorConfig::default(),
            detector: None,
            collect_training: false,
            stratum: None,
            weight: None,
        }
    }
}

/// Everything recorded from one experimental run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Scenario name (interned; scenario names come from the `'static`
    /// scenario constructors, never per-run strings).
    pub scenario: &'static str,
    /// Agent mode.
    pub mode: AgentMode,
    /// The injected fault, if any.
    pub fault: Option<FaultSpec>,
    /// The run seed.
    pub seed: u64,
    /// How the run ended.
    pub termination: Termination,
    /// Simulation time reached.
    pub end_time: f64,
    /// Collision time, if the ego collided.
    pub collision_time: Option<f64>,
    /// Detector alarm time, if raised.
    pub alarm_time: Option<f64>,
    /// Whether the armed fault corrupted at least one register (fabric
    /// faults) or frame (sensor faults).
    pub fault_activated: bool,
    /// Simulation time of the first corrupted frame for sensor faults
    /// (`None` for golden runs and fabric faults) — the reference point
    /// for detection-latency accounting.
    pub fault_onset_time: Option<f64>,
    /// Minimum CVIP distance over the run.
    pub min_cvip: f64,
    /// Red lights crossed against a stop demand.
    pub red_light_violations: u32,
    /// Simulation ticks executed — this run's `runtime.ticks`.
    pub ticks: u64,
    /// Ticks whose latency exceeded the 25 ms control budget: modeled
    /// latency by default, measured phases under
    /// `DIVERSEAV_PROFILE=wall`.
    pub deadline_misses: u64,
    /// Why this run's flight recording was flushed (`None` for
    /// unremarkable runs; see
    /// [`IncidentKind`]).
    pub incident: Option<IncidentKind>,
    /// The drained flight recording — the last
    /// [`DEFAULT_RING_CAPACITY`](diverseav_obs::flight::DEFAULT_RING_CAPACITY)
    /// ticks, oldest first. Empty unless `incident` is set.
    pub flight: Vec<TickRecord>,
    /// Recorded ego trajectory.
    pub trajectory: Vec<TrajPoint>,
    /// Recorded divergence stream (if requested): training data for golden
    /// runs, replay data for parameter sweeps on injected runs.
    pub training: Vec<TrainSample>,
    /// Actuation + CVIP trace (if requested): `(t, controls, cvip)`.
    pub actuation: Vec<(f64, diverseav_simworld::Controls, f64)>,
    /// Dynamic GPU instructions executed (unit 0).
    pub gpu_dyn_instr: u64,
    /// Dynamic CPU instructions executed (unit 0).
    pub cpu_dyn_instr: u64,
    /// GPU opcodes observed with counts (unit 0) — the permanent-fault
    /// campaign space.
    pub gpu_ops: Vec<(Op, u64)>,
    /// CPU opcodes observed with counts (unit 0).
    pub cpu_ops: Vec<(Op, u64)>,
    /// Guided-campaign stratum code, copied from the [`RunConfig`]
    /// (`None` outside guided campaigns).
    pub stratum: Option<u64>,
    /// Horvitz–Thompson importance weight, copied from the
    /// [`RunConfig`] (`None` outside guided campaigns).
    pub weight: Option<f64>,
}

impl RunResult {
    /// Whether the run ended in an accident.
    pub fn has_accident(&self) -> bool {
        self.collision_time.is_some()
    }

    /// Peak raw divergence per channel `[throttle, brake, steer]` over
    /// the recorded stream (zeros when no stream was collected).
    pub fn divergence_peak(&self) -> [f64; 3] {
        self.training.iter().fold([0.0; 3], |acc, s| {
            [acc[0].max(s.div.throttle), acc[1].max(s.div.brake), acc[2].max(s.div.steer)]
        })
    }
}

/// Execute one experiment.
///
/// The detector alarm does *not* interrupt the run: as in the paper, the
/// run continues so that lead detection time (alarm → collision) can be
/// measured; the fail-back system is assumed, not simulated.
pub fn run_experiment(cfg: &RunConfig) -> RunResult {
    run_experiment_observed(cfg, &mut [])
}

/// [`run_experiment`] with caller-supplied [`LoopObserver`]s (allocation
/// probes, extra telemetry, ...) attached to the [`SimLoop`] after the
/// built-in training collector and tick ledger ([`FlightRecorder`]).
/// Observers see every tick but cannot change the run, so results stay
/// bit-identical to [`run_experiment`].
pub fn run_experiment_observed(cfg: &RunConfig, extra: &mut [&mut dyn LoopObserver]) -> RunResult {
    run_metered(cfg, extra).0
}

/// [`run_experiment_observed`], also returning the run's metric
/// contribution: the tick ledger's slice plus `runner.experiments`. The
/// slice is folded into the registry here, once, and returned so the
/// shard executor can sum its own runs' slices.
pub(crate) fn run_metered(
    cfg: &RunConfig,
    extra: &mut [&mut dyn LoopObserver],
) -> (RunResult, MetricsSlice) {
    let world = World::new(cfg.scenario.clone(), cfg.sensor, cfg.seed);
    let mut ads = Ads::new(AdsConfig::for_mode(cfg.mode, cfg.seed ^ 0x5EED));
    if let Some((model, det_cfg)) = &cfg.detector {
        ads.attach_detector(model.clone(), *det_cfg);
    }
    let mut sensor_fault: Option<SensorFault> = None;
    match cfg.fault {
        Some(FaultSpec::Fabric { unit, profile, model }) => {
            ads.inject_fault(unit, profile, model);
        }
        Some(FaultSpec::Sensor(sf)) => sensor_fault = Some(sf),
        None => {}
    }

    let capacity = (cfg.scenario.duration * TICK_HZ) as usize + 2;
    let mut collector = TrainingCollector::new(cfg.collect_training, capacity);
    let mut flight = FlightRecorder::new(cfg.scenario.name, profile::source());
    let mut sim = SimLoop::new(world, ads);
    if let Some(sf) = sensor_fault {
        sim.set_injector(FrameInjector::new(sf));
    }
    let termination = {
        let mut observers: Vec<&mut dyn LoopObserver> = Vec::with_capacity(2 + extra.len());
        observers.push(&mut collector);
        observers.push(&mut flight);
        for obs in extra.iter_mut() {
            observers.push(&mut **obs);
        }
        sim.run_observed(&mut observers)
    };
    let (injector_activated, fault_onset_time) =
        sim.injector().map_or((false, None), |inj| (inj.activated(), inj.onset_time()));
    let (world, ads) = sim.into_parts();

    let stats = |p: Profile| ads.unit_stats(p, 0).expect("unit 0 exists in every mode");
    let gpu_stats = stats(Profile::Gpu);
    let cpu_stats = stats(Profile::Cpu);
    let fault_activated = ads.fault_activated() || injector_activated;
    // The black-box rule: unremarkable runs drop their recording, runs
    // that ended badly keep the drained window for the incident artifact.
    let incident = flight.classify(&termination, fault_activated);
    let (ticks, deadline_misses) = (flight.ticks(), flight.stats().misses);
    let mut slice = flight.metrics();
    slice.counters.insert("runner.experiments".to_string(), 1);
    metrics::absorb(&slice);
    let flight = if incident.is_some() { flight.drain() } else { Vec::new() };
    let result = RunResult {
        scenario: cfg.scenario.name,
        mode: cfg.mode,
        fault: cfg.fault,
        seed: cfg.seed,
        termination,
        end_time: world.time(),
        collision_time: world.collision_time(),
        alarm_time: ads.alarm_time(),
        fault_activated,
        fault_onset_time,
        min_cvip: world.min_cvip(),
        red_light_violations: world.red_light_violations(),
        ticks,
        deadline_misses,
        incident,
        flight,
        trajectory: world.trajectory().to_vec(),
        training: collector.training,
        actuation: collector.actuation,
        gpu_dyn_instr: gpu_stats.total(),
        cpu_dyn_instr: cpu_stats.total(),
        gpu_ops: gpu_stats.used_ops(),
        cpu_ops: cpu_stats.used_ops(),
        stratum: cfg.stratum,
        weight: cfg.weight,
    };
    (result, slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::run_record;
    use diverseav_agent::AgentError;
    use diverseav_fabric::Trap;
    use diverseav_simworld::lead_slowdown;

    fn short_scenario() -> Scenario {
        let mut s = lead_slowdown();
        s.duration = 2.0;
        s
    }

    #[test]
    fn golden_run_completes_cleanly() {
        let cfg = RunConfig::new(short_scenario(), AgentMode::RoundRobin, 1);
        let r = run_experiment(&cfg);
        assert_eq!(r.termination, Termination::Completed);
        assert!(!r.fault_activated);
        assert!(r.alarm_time.is_none());
        assert!(r.trajectory.len() > 70);
        assert!(r.ticks > 70, "per-run tick count recorded ({})", r.ticks);
        assert_eq!(r.deadline_misses, 0, "round-robin ticks hold the 25 ms budget");
        assert!(r.gpu_dyn_instr > 100_000);
        assert!(!r.gpu_ops.is_empty());
        assert!(!r.cpu_ops.is_empty());
    }

    #[test]
    fn training_collection_gathers_samples() {
        let mut cfg = RunConfig::new(short_scenario(), AgentMode::RoundRobin, 2);
        cfg.collect_training = true;
        let r = run_experiment(&cfg);
        // One divergence pair per tick after the first.
        assert!(r.training.len() >= 70, "{} samples", r.training.len());
    }

    #[test]
    fn cpu_hang_fault_is_platform_detected() {
        let mut cfg = RunConfig::new(short_scenario(), AgentMode::RoundRobin, 3);
        cfg.fault = Some(FaultSpec::Fabric {
            unit: 0,
            profile: Profile::Cpu,
            model: FaultModel::Permanent { op: Op::IAdd, mask: 1 },
        });
        let r = run_experiment(&cfg);
        assert!(r.termination.is_hang_or_crash());
        assert!(r.fault_activated);
        assert!(r.end_time < 1.0, "trap happens on the first control step");
    }

    #[test]
    fn inert_transient_fault_is_masked() {
        // Target an index far beyond the run's instruction count.
        let mut cfg = RunConfig::new(short_scenario(), AgentMode::RoundRobin, 4);
        cfg.fault = Some(FaultSpec::Fabric {
            unit: 0,
            profile: Profile::Gpu,
            model: FaultModel::Transient { instr_index: u64::MAX, mask: 1 },
        });
        let r = run_experiment(&cfg);
        assert_eq!(r.termination, Termination::Completed);
        assert!(!r.fault_activated);
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let cfg = RunConfig::new(short_scenario(), AgentMode::RoundRobin, 5);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.gpu_dyn_instr, b.gpu_dyn_instr);
    }

    #[test]
    fn termination_labels_are_stable() {
        assert_eq!(Termination::Completed.label(), "completed");
        assert_eq!(Termination::Collision.label(), "collision");
        let hang = Termination::Trap(AgentError { fabric: Profile::Cpu, trap: Trap::Watchdog });
        assert_eq!(hang.label(), "hang");
        let crash = Termination::Trap(AgentError {
            fabric: Profile::Cpu,
            trap: Trap::OutOfBounds { addr: 7 },
        });
        assert_eq!(crash.label(), "crash");
    }

    #[test]
    fn run_record_flattens_fault_site() {
        let mut cfg = RunConfig::new(short_scenario(), AgentMode::RoundRobin, 8);
        cfg.fault = Some(FaultSpec::Fabric {
            unit: 0,
            profile: Profile::Gpu,
            model: FaultModel::Transient { instr_index: 42, mask: 7 },
        });
        cfg.collect_training = true;
        let r = run_experiment(&cfg);
        let rec = run_record("GPU-transient LSD [diverseav]", "injected", 3, &r);
        assert_eq!((rec.kind, rec.index, rec.seed), ("injected", 3, 8));
        assert_eq!(rec.outcome, r.termination.label());
        assert!(rec.render_journal_line().contains("\"type\": \"run\""));
        let site = rec.fault.expect("fault site recorded");
        assert_eq!((site.cycle, site.mask, site.op), (Some(42), 7, None));
        assert!(r.divergence_peak().iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn different_seeds_vary_trajectories() {
        let a = run_experiment(&RunConfig::new(short_scenario(), AgentMode::RoundRobin, 6));
        let b = run_experiment(&RunConfig::new(short_scenario(), AgentMode::RoundRobin, 7));
        assert_ne!(a.trajectory, b.trajectory, "nondeterminism model active");
    }

    #[test]
    fn sensor_fault_activates_and_records_onset() {
        use diverseav_runtime::SensorFaultKind;
        let mut cfg = RunConfig::new(short_scenario(), AgentMode::RoundRobin, 9);
        let sf = SensorFault { kind: SensorFaultKind::Dropout, seed: 0xD50 };
        cfg.fault = Some(FaultSpec::Sensor(sf));
        cfg.collect_training = true;
        let r = run_experiment(&cfg);
        assert!(r.fault_activated, "dropout must corrupt frames");
        let onset = r.fault_onset_time.expect("onset time recorded");
        assert!((onset - sf.onset_step() as f64 / TICK_HZ).abs() < 1e-9, "onset {onset}");
        // The corrupted stream must diverge from the same seed's golden run.
        let golden = run_experiment(&RunConfig::new(short_scenario(), AgentMode::RoundRobin, 9));
        assert_ne!(r.trajectory, golden.trajectory, "sensor fault reached the control loop");
    }

    #[test]
    fn sensor_fault_run_record_carries_class_and_onset() {
        use diverseav_runtime::SensorFaultKind;
        let mut cfg = RunConfig::new(short_scenario(), AgentMode::RoundRobin, 10);
        cfg.fault =
            Some(FaultSpec::Sensor(SensorFault { kind: SensorFaultKind::Oscillation, seed: 3 }));
        let r = run_experiment(&cfg);
        let rec = run_record("SENSOR-oscillation LSD [diverseav]", "injected", 0, &r);
        let site = rec.fault.as_ref().expect("fault site recorded");
        assert_eq!(site.profile, "SENSOR");
        assert_eq!(site.model, "sensor");
        assert_eq!(site.op.as_deref(), Some("oscillation"));
        assert_eq!(site.cycle, Some(3));
        assert_eq!(rec.fault_onset_time, r.fault_onset_time);
        assert!(rec.render_journal_line().contains("\"fault_onset_time\""));
    }

    #[test]
    fn golden_runs_leave_onset_unset() {
        let r = run_experiment(&RunConfig::new(short_scenario(), AgentMode::RoundRobin, 11));
        assert_eq!(r.fault_onset_time, None);
    }
}
