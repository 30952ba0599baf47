//! Tick-level latency profiling and 40 Hz deadline accounting.
//!
//! [`ProfilingObserver`] times every [`LoopPhase`] of every tick into the
//! shared latency histograms of [`diverseav_obs::metrics`]
//! (`tick.sense`, `tick.driver`, `tick.detect`, `tick.step`,
//! `tick.total`) and tallies ticks whose total exceeds the control
//! period's 25 ms budget ([`DEADLINE_NS`]) — the paper's real-time
//! constraint: an AV compute system that misses its 40 Hz actuation
//! deadline is late even when its outputs are correct.
//!
//! Two time sources (see [`diverseav_obs::profile`]):
//!
//! * **Modeled** (default) — per-phase latency is a linear cost model
//!   over the tick's work: pixels of the configured three-camera suite,
//!   lidar rays cast, dynamic fabric instructions executed
//!   ([`TickWork`]), NPCs stepped. Every
//!   input is a pure function of the run seed, so the histograms and
//!   deadline tallies are bit-identical for any `DIVERSEAV_THREADS`.
//!   The constants are calibrated against the interpreted fabric's
//!   per-tick instruction counts such that a single-agent control tick
//!   (Single / RoundRobin: ≈ 16 ms) holds the budget while the
//!   fully-duplicated FD baseline (two agent steps per tick: ≈ 26 ms)
//!   misses it — the modeled analogue of the paper's Table II resource
//!   argument.
//! * **Wall** — real phase durations from the loop's `Instant` brackets
//!   (the observer answers [`LoopObserver::wants_phase_timing`]); values
//!   vary run to run and are excluded from the determinism contract.
//!
//! Per-tick recording is allocation-free: the observer resolves its
//! histogram `Arc`s at construction and `on_tick` performs only
//! arithmetic and relaxed atomic increments (the `zero_alloc`
//! integration test covers the profiled loop). Scenario-keyed counters
//! are flushed once at `on_termination`, through commutative operations
//! only (`counter_add`, `gauge_max`), so merged campaign metrics stay
//! independent of worker scheduling.

use crate::simloop::{LoopObserver, LoopPhase, Termination, TickContext};
use diverseav::TickWork;
use diverseav_obs::hist::Histogram;
use diverseav_obs::{metrics, profile, TimeSource};
use diverseav_simworld::World;
use std::sync::Arc;

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

/// Per-run deadline tally, flushed into metrics at termination.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DeadlineStats {
    /// Ticks profiled.
    pub ticks: u64,
    /// Ticks whose total latency exceeded [`DEADLINE_NS`].
    pub misses: u64,
    /// Worst total tick latency seen (ns).
    pub worst_ns: u64,
}

impl DeadlineStats {
    /// Fold another tally into this one (sum ticks and misses, max of
    /// worst latencies). Commutative and associative, so totals merged
    /// from per-run or per-shard tallies are independent of the order
    /// the pieces arrive in.
    pub fn absorb(&mut self, other: &DeadlineStats) {
        self.ticks += other.ticks;
        self.misses += other.misses;
        self.worst_ns = self.worst_ns.max(other.worst_ns);
    }
}

/// A [`LoopObserver`] recording per-phase tick latencies and 25 ms
/// deadline misses for one run. Attach one per run (the fault-injection
/// runner does this automatically unless `DIVERSEAV_PROFILE=off`).
pub struct ProfilingObserver {
    source: TimeSource,
    scenario: &'static str,
    hists: [Arc<Histogram>; 5], // sense, driver, detect, step, total
    stats: DeadlineStats,
    /// Wall mode: phase durations of the in-flight tick, finalized when
    /// the `Step` phase (always last) arrives.
    pending: [u64; 4],
    pending_any: bool,
}

impl ProfilingObserver {
    /// An observer for one run of `scenario`, using the process-wide
    /// time source from `DIVERSEAV_PROFILE`.
    pub fn new(scenario: &'static str) -> Self {
        Self::with_source(scenario, profile::source())
    }

    /// An observer with an explicit time source (tests).
    pub fn with_source(scenario: &'static str, source: TimeSource) -> Self {
        ProfilingObserver {
            source,
            scenario,
            hists: [
                metrics::histogram("tick.sense"),
                metrics::histogram("tick.driver"),
                metrics::histogram("tick.detect"),
                metrics::histogram("tick.step"),
                metrics::histogram("tick.total"),
            ],
            stats: DeadlineStats::default(),
            pending: [0; 4],
            pending_any: false,
        }
    }

    /// Whether profiling is enabled at all for this observer.
    pub fn enabled(&self) -> bool {
        self.source != TimeSource::Off
    }

    /// The deadline tally so far.
    pub fn stats(&self) -> DeadlineStats {
        self.stats
    }

    /// Record one complete tick's phase latencies and account its total
    /// against the deadline.
    fn record_tick(&mut self, phases: [u64; 4]) {
        let mut total = 0u64;
        for (hist, ns) in self.hists.iter().zip(phases) {
            hist.record(ns);
            total += ns;
        }
        self.hists[4].record(total);
        self.stats.ticks += 1;
        if total > DEADLINE_NS {
            self.stats.misses += 1;
        }
        if total > self.stats.worst_ns {
            self.stats.worst_ns = total;
        }
    }

    /// The modeled per-phase costs of one tick: `[sense, driver, detect,
    /// step]` in ns, a pure function of the tick's work. Public because
    /// the flight recorder ([`crate::FlightRecorder`]) records modeled
    /// latencies unconditionally — even under `DIVERSEAV_PROFILE=wall` —
    /// so incident artifacts never carry wall-clock values.
    ///
    /// The sense cost counts the pixels of the configured three-camera
    /// suite, not the cameras the loop happened to render: the model
    /// stands for the paper's platform, which captures every camera
    /// each tick whatever the agent reads.
    pub fn modeled_phases(ctx: &TickContext<'_>) -> [u64; 4] {
        let cfg = ctx.world.sensor_config();
        let pixels = cfg.cam_yaws.len() * cfg.width * cfg.height;
        let rays = ctx.frame.lidar.as_ref().map_or(0, |r| r.len());
        let TickWork { gpu_instr, cpu_instr, detector_observed, .. } = ctx.work;
        let sense = cost::SENSE_BASE + pixels as u64 * cost::PIXEL + rays as u64 * cost::RAY;
        let driver = cost::DRIVER_BASE + gpu_instr * cost::GPU_INSTR + cpu_instr * cost::CPU_INSTR;
        let detect = if detector_observed { cost::DETECT } else { 0 };
        let step = cost::STEP_BASE + ctx.world.npcs().len() as u64 * cost::NPC;
        [sense, driver, detect, step]
    }
}

impl LoopObserver for ProfilingObserver {
    fn on_tick(&mut self, ctx: &TickContext<'_>) {
        if self.source == TimeSource::Modeled {
            let phases = Self::modeled_phases(ctx);
            self.record_tick(phases);
        }
    }

    fn wants_phase_timing(&self) -> bool {
        self.source == TimeSource::Wall
    }

    fn on_phase(&mut self, phase: LoopPhase, dur_ns: u64) {
        if self.source != TimeSource::Wall {
            return;
        }
        let slot = match phase {
            LoopPhase::Sense => 0,
            LoopPhase::Driver => 1,
            LoopPhase::Detect => 2,
            LoopPhase::Step => 3,
        };
        self.pending[slot] = dur_ns;
        self.pending_any = true;
        if phase == LoopPhase::Step {
            let phases = self.pending;
            self.record_tick(phases);
            self.pending = [0; 4];
            self.pending_any = false;
        }
    }

    fn on_termination(&mut self, _world: &World, _termination: &Termination) {
        if self.source == TimeSource::Wall && self.pending_any {
            // A trapped tick never reaches its Step phase; account the
            // partial measurement rather than dropping it.
            let phases = self.pending;
            self.record_tick(phases);
            self.pending = [0; 4];
            self.pending_any = false;
        }
        if !self.enabled() || self.stats.ticks == 0 {
            return;
        }
        metrics::counter_add("deadline.ticks", self.stats.ticks);
        metrics::counter_add("deadline.misses", self.stats.misses);
        metrics::counter_add(&format!("deadline.{}.ticks", self.scenario), self.stats.ticks);
        metrics::counter_add(&format!("deadline.{}.misses", self.scenario), self.stats.misses);
        metrics::gauge_max("deadline.worst_ns", self.stats.worst_ns as f64);
        metrics::gauge_max(
            &format!("deadline.{}.worst_ns", self.scenario),
            self.stats.worst_ns as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simloop::SimLoop;
    use diverseav::{Ads, AdsConfig, AgentMode};
    use diverseav_simworld::{lead_slowdown, SensorConfig};

    fn run_profiled(mode: AgentMode, seed: u64) -> DeadlineStats {
        let mut scenario = lead_slowdown();
        scenario.duration = 1.0;
        let world = World::new(scenario, SensorConfig::default(), seed);
        let ads = Ads::new(AdsConfig::for_mode(mode, seed));
        let mut prof = ProfilingObserver::with_source("lead_slowdown", TimeSource::Modeled);
        let mut sim = SimLoop::new(world, ads);
        sim.run_observed(&mut [&mut prof]);
        prof.stats()
    }

    #[test]
    fn single_agent_ticks_hold_the_40hz_budget() {
        let stats = run_profiled(AgentMode::RoundRobin, 31);
        assert_eq!(stats.ticks, 40, "one profiled tick per 40 Hz frame over 1 s");
        assert_eq!(stats.misses, 0, "round-robin holds 25 ms (worst {})", stats.worst_ns);
        assert!(stats.worst_ns > 0 && stats.worst_ns < DEADLINE_NS);
    }

    #[test]
    fn duplicate_mode_blows_the_budget_every_tick() {
        let stats = run_profiled(AgentMode::Duplicate, 31);
        assert_eq!(stats.ticks, 40);
        assert_eq!(
            stats.misses, stats.ticks,
            "two agent steps per tick exceed 25 ms (worst {})",
            stats.worst_ns
        );
        assert!(stats.worst_ns > DEADLINE_NS);
    }

    #[test]
    fn deadline_stats_absorb_is_order_independent() {
        let a = DeadlineStats { ticks: 40, misses: 3, worst_ns: 26_000_000 };
        let b = DeadlineStats { ticks: 80, misses: 0, worst_ns: 24_000_000 };
        let c = DeadlineStats { ticks: 10, misses: 10, worst_ns: 30_000_000 };
        let mut fwd = DeadlineStats::default();
        for s in [a, b, c] {
            fwd.absorb(&s);
        }
        let mut rev = DeadlineStats::default();
        for s in [c, b, a] {
            rev.absorb(&s);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd, DeadlineStats { ticks: 130, misses: 13, worst_ns: 30_000_000 });
    }

    #[test]
    fn modeled_stats_are_reproducible() {
        assert_eq!(run_profiled(AgentMode::RoundRobin, 7), run_profiled(AgentMode::RoundRobin, 7));
    }

    #[test]
    fn off_source_records_nothing() {
        let mut scenario = lead_slowdown();
        scenario.duration = 0.5;
        let world = World::new(scenario, SensorConfig::default(), 5);
        let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 5));
        let mut prof = ProfilingObserver::with_source("lead_slowdown", TimeSource::Off);
        assert!(!prof.enabled());
        SimLoop::new(world, ads).run_observed(&mut [&mut prof]);
        assert_eq!(prof.stats(), DeadlineStats::default());
    }

    #[test]
    fn wall_source_times_real_phases() {
        let mut scenario = lead_slowdown();
        scenario.duration = 0.5;
        let world = World::new(scenario, SensorConfig::default(), 9);
        let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 9));
        let mut prof = ProfilingObserver::with_source("lead_slowdown", TimeSource::Wall);
        assert!(prof.wants_phase_timing());
        SimLoop::new(world, ads).run_observed(&mut [&mut prof]);
        let stats = prof.stats();
        assert_eq!(stats.ticks, 20, "every tick finalized on its Step phase");
        assert!(stats.worst_ns > 0, "wall phases measured something");
    }
}
