//! The 40 Hz deadline and the modeled tick cost.
//!
//! The paper's real-time constraint is the control period's 25 ms budget
//! ([`DEADLINE_NS`]): an AV compute system that misses its 40 Hz
//! actuation deadline is late even when its outputs are correct. The
//! per-run tick ledger ([`FlightRecorder`](crate::FlightRecorder))
//! accounts every tick against it; this module holds the budget, the
//! per-run tally ([`DeadlineStats`]) and the cost model.
//!
//! The modeled per-phase latency (`modeled_phases`) is a linear cost
//! model over the tick's work: pixels of the configured three-camera
//! suite, lidar rays cast, dynamic fabric instructions executed
//! ([`TickOutput::work`](diverseav::TickOutput::work)), detector
//! checks, NPCs stepped. Every input is a pure function of the
//! run seed, so the histograms and deadline tallies are bit-identical
//! for any `DIVERSEAV_THREADS`. The constants are calibrated against the
//! interpreted fabric's per-tick instruction counts such that a
//! single-agent control tick (Single / RoundRobin: ≈ 16 ms) holds the
//! budget while the fully-duplicated FD baseline (two agent steps per
//! tick: ≈ 26 ms) misses it — the modeled analogue of the paper's
//! Table II resource argument. Under `DIVERSEAV_PROFILE=wall` the ledger
//! tallies real phase durations instead (see [`diverseav_obs::profile`]).

use crate::simloop::TickContext;
use diverseav::TickWork;

/// The 40 Hz control-period budget: 25 ms per tick, in nanoseconds.
pub const DEADLINE_NS: u64 = 25_000_000;

/// Modeled cost constants (ns). Linear in the tick's work; calibrated
/// against ≈ 98.8 k dynamic GPU instructions per agent step and 9216
/// camera pixels per frame (3 × 64 × 48) so that one agent step per
/// tick totals ≈ 16 ms and two (FD duplicate) ≈ 26 ms.
mod cost {
    /// Per camera pixel of the configured suite.
    pub const PIXEL: u64 = 540;
    /// Per lidar ray cast.
    pub const RAY: u64 = 1_500;
    /// Fixed sensor-capture overhead per tick.
    pub const SENSE_BASE: u64 = 200_000;
    /// Per dynamic GPU-fabric instruction.
    pub const GPU_INSTR: u64 = 100;
    /// Per dynamic CPU-fabric instruction.
    pub const CPU_INSTR: u64 = 200;
    /// Fixed distribution/fusion overhead per tick.
    pub const DRIVER_BASE: u64 = 500_000;
    /// One error-detector divergence check.
    pub const DETECT: u64 = 350_000;
    /// Per NPC stepped by the world.
    pub const NPC: u64 = 150_000;
    /// Fixed world-kinematics overhead per tick.
    pub const STEP_BASE: u64 = 300_000;
}

/// Per-run deadline tally, part of the run's metric slice.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DeadlineStats {
    /// Ticks profiled.
    pub ticks: u64,
    /// Ticks whose total latency exceeded [`DEADLINE_NS`].
    pub misses: u64,
    /// Worst total tick latency seen (ns).
    pub worst_ns: u64,
}

/// The modeled per-phase costs of one tick: `[sense, driver, detect,
/// step]` in ns, a pure function of the tick's work.
///
/// The sense cost counts the pixels of the configured three-camera
/// suite, not the cameras the loop happened to render: the model stands
/// for the paper's platform, which captures every camera each tick
/// whatever the agent reads.
pub(crate) fn modeled_phases(ctx: &TickContext<'_>) -> [u64; 4] {
    let cfg = ctx.world.sensor_config();
    let pixels = cfg.cam_yaws.len() * cfg.width * cfg.height;
    let rays = ctx.frame.lidar.as_ref().map_or(0, |r| r.len());
    let TickWork { gpu_instr, cpu_instr, .. } = ctx.out.work;
    let sense = cost::SENSE_BASE + pixels as u64 * cost::PIXEL + rays as u64 * cost::RAY;
    let driver = cost::DRIVER_BASE + gpu_instr * cost::GPU_INSTR + cpu_instr * cost::CPU_INSTR;
    let detect = if ctx.out.detector.is_some() { cost::DETECT } else { 0 };
    let step = cost::STEP_BASE + ctx.world.npcs().len() as u64 * cost::NPC;
    [sense, driver, detect, step]
}
