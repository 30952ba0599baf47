//! The per-run tick ledger: one allocation-free [`LoopObserver`] per run
//! that counts the run's ticks, accounts them against the 40 Hz
//! deadline, and feeds a [`FlightRing`] of packed [`TickRecord`]s, plus
//! the incident classifier that decides when the ring is worth
//! draining.
//!
//! Every tick the recorder evaluates the modeled cost model once
//! ([`crate::profiling`]). That one result feeds the flight record, the
//! deadline-miss streak and, under the default modeled time source, the
//! `tick.*` latency histograms and the [`DeadlineStats`] tally. Under
//! `DIVERSEAV_PROFILE=wall` the histograms and tally take the loop's
//! wall-clock phase timings instead (the recorder answers
//! [`LoopObserver::wants_phase_timing`]), and a trapped tick, which
//! never reaches its `Step` phase, is accounted with the phases it did
//! measure.
//!
//! The flight record packs the detector's normalized score, trend slope
//! and armed state, the threshold margin, the fault-activation flag, the
//! **modeled** per-phase latencies and deadline margin, and the fused
//! actuator deltas. Records carry modeled latencies whatever the time
//! source, and no timestamps, so a recording is a pure function of the
//! run's seeds: bit-identical across `DIVERSEAV_THREADS` and sharded vs.
//! monolithic execution (`ci/lint.sh` Gate 4 greps this module for
//! wall-clock calls).
//!
//! Per-tick work is arithmetic and plain stores: the ring and the
//! recorder's own five histograms are allocated at construction (the
//! `zero_alloc` integration test covers the recorded loop). The recorder
//! touches no shared state. At run end [`FlightRecorder::metrics`]
//! yields the run's [`MetricsSlice`] — `runtime.ticks`, the global and
//! scenario-keyed `deadline.*` counters and gauges, and the histograms —
//! which the runner folds into the registry and the shard executor sums
//! per batch, through commutative operations only, so merged campaign
//! metrics stay independent of worker scheduling and of whatever else
//! the process ran.
//!
//! Most runs end quietly and their ring is simply dropped. A run that
//! ends badly — see [`IncidentKind`] — has its ring drained into a
//! schema-versioned incident artifact by the faultinj runner, giving
//! every alarm, hang, crash, deadline burst, and silent-divergence
//! verdict a per-tick narrative.

use crate::profiling::{modeled_phases, DeadlineStats, DEADLINE_NS};
use crate::simloop::{LoopObserver, LoopPhase, Termination, TickContext};
use diverseav_obs::flight::{
    FlightRing, TickRecord, DEFAULT_RING_CAPACITY, FLAG_ALARM, FLAG_DEADLINE_MISS,
    FLAG_DETECTOR_OBSERVED, FLAG_FAULT_ACTIVE, FLAG_TREND_ARMED,
};
use diverseav_obs::{HistSnapshot, MetricsSlice, TimeSource};
use diverseav_simworld::{Controls, World};

/// Consecutive modeled deadline misses that qualify a run as a
/// [`IncidentKind::DeadlineBurst`] incident. Eight ticks ≡ 200 ms of
/// sustained lateness at 40 Hz — well past transient jitter, short
/// enough to catch bursts that recover before the run ends.
pub const DEADLINE_BURST_TICKS: u64 = 8;

/// Peak normalized score an un-alarmed faulty run must have reached for
/// a [`IncidentKind::SilentDivergence`] verdict: halfway to the alarm
/// line. The floor selects on the score alone; the run's safety outcome
/// is not consulted, so a hazardous run whose score peaked lower is not
/// flushed (at paper scale most hazardous un-alarmed GPU-permanent runs
/// peak below it).
pub const SILENT_SCORE_FLOOR: f64 = 0.5;

/// Names of the recorder's histograms, in its phase order.
const TICK_HISTS: [&str; 5] =
    ["tick.sense", "tick.driver", "tick.detect", "tick.step", "tick.total"];

/// Why a run's flight recording was flushed into an incident artifact.
///
/// Classification is deterministic and mutually exclusive, in this
/// precedence order (a hanged run that also alarmed is a `Hang`: the
/// platform-level verdict subsumes the detector-level one).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// A fabric exhausted its watchdog (platform-detected hang).
    Hang,
    /// A fabric trapped (platform-detected crash).
    Crash,
    /// The error detector raised its alarm.
    Alarm,
    /// ≥ [`DEADLINE_BURST_TICKS`] consecutive modeled deadline misses.
    DeadlineBurst,
    /// A fault activated, no alarm fired, and the peak normalized score
    /// reached [`SILENT_SCORE_FLOOR`], whatever the run's safety outcome
    /// — the near-miss the `no_silent_divergence` gate exists to catch.
    SilentDivergence,
}

impl IncidentKind {
    /// Every kind, in classification precedence order.
    pub const ALL: [IncidentKind; 5] = [
        IncidentKind::Hang,
        IncidentKind::Crash,
        IncidentKind::Alarm,
        IncidentKind::DeadlineBurst,
        IncidentKind::SilentDivergence,
    ];

    /// Stable kebab-case artifact label.
    pub fn label(&self) -> &'static str {
        match self {
            IncidentKind::Hang => "hang",
            IncidentKind::Crash => "crash",
            IncidentKind::Alarm => "alarm",
            IncidentKind::DeadlineBurst => "deadline-burst",
            IncidentKind::SilentDivergence => "silent-divergence",
        }
    }

    /// Inverse of [`label`](IncidentKind::label).
    pub fn from_label(label: &str) -> Option<IncidentKind> {
        IncidentKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl std::fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-run tick ledger and flight recorder: one per run, attached
/// automatically by the faultinj runner.
pub struct FlightRecorder {
    source: TimeSource,
    scenario: &'static str,
    ring: FlightRing,
    prev_controls: Option<Controls>,
    miss_streak: u64,
    max_miss_streak: u64,
    peak_score: f64,
    alarmed: bool,
    hists: [HistSnapshot; 5], // named by `TICK_HISTS`
    stats: DeadlineStats,
    /// Wall source: phase durations of the in-flight tick, accounted
    /// when its `Step` phase (always last) arrives.
    pending: Option<[u64; 4]>,
}

impl FlightRecorder {
    /// A recorder for one run of `scenario` retaining the last
    /// [`DEFAULT_RING_CAPACITY`] ticks, its `tick.*` histograms and
    /// deadline tally fed from `source` (the runner passes
    /// [`diverseav_obs::profile::source`]).
    pub fn new(scenario: &'static str, source: TimeSource) -> Self {
        FlightRecorder {
            source,
            scenario,
            ring: FlightRing::new(DEFAULT_RING_CAPACITY),
            prev_controls: None,
            miss_streak: 0,
            max_miss_streak: 0,
            peak_score: 0.0,
            alarmed: false,
            hists: Default::default(),
            stats: DeadlineStats::default(),
            pending: None,
        }
    }

    /// Ticks recorded so far: the run's `runtime.ticks`.
    pub fn ticks(&self) -> u64 {
        self.ring.pushed()
    }

    /// The deadline tally so far, under the recorder's time source.
    pub fn stats(&self) -> DeadlineStats {
        self.stats
    }

    /// The ring of retained records.
    pub fn ring(&self) -> &FlightRing {
        &self.ring
    }

    /// The run's metric contribution: `runtime.ticks`, the global and
    /// per-scenario `deadline.{ticks,misses}` counters and
    /// `deadline.worst_ns` gauges (none for a run with no accounted
    /// tick), and the five `tick.*` histograms, zero counts included.
    /// Allocates, so call only after the run ended.
    pub fn metrics(&self) -> MetricsSlice {
        let mut slice = MetricsSlice::default();
        slice.counters.insert("runtime.ticks".to_string(), self.ring.pushed());
        let DeadlineStats { ticks, misses, worst_ns } = self.stats;
        if ticks > 0 {
            for scope in ["deadline".to_string(), format!("deadline.{}", self.scenario)] {
                slice.counters.insert(format!("{scope}.ticks"), ticks);
                slice.counters.insert(format!("{scope}.misses"), misses);
                slice.gauges.insert(format!("{scope}.worst_ns"), worst_ns as f64);
            }
        }
        slice.hists = TICK_HISTS.iter().map(|n| n.to_string()).zip(self.hists.clone()).collect();
        slice
    }

    /// Drain the retained window oldest-first (the incident-flush path;
    /// allocates, so call only after the run ended).
    pub fn drain(&self) -> Vec<TickRecord> {
        self.ring.drain_ordered()
    }

    /// Classify the finished run against the incident triggers, in
    /// precedence order: hang, crash, alarm, deadline burst, silent
    /// divergence. `None` means the run was unremarkable and its
    /// recording can be dropped.
    ///
    /// `fault_activated` covers both fault boundaries (fabric faults via
    /// [`TickOutput::fault_active`](diverseav::TickOutput::fault_active),
    /// sensor faults via the runner's injector accounting).
    pub fn classify(
        &self,
        termination: &Termination,
        fault_activated: bool,
    ) -> Option<IncidentKind> {
        if termination.is_hang() {
            return Some(IncidentKind::Hang);
        }
        if termination.is_hang_or_crash() {
            return Some(IncidentKind::Crash);
        }
        if self.alarmed {
            return Some(IncidentKind::Alarm);
        }
        if self.max_miss_streak >= DEADLINE_BURST_TICKS {
            return Some(IncidentKind::DeadlineBurst);
        }
        if fault_activated && self.peak_score >= SILENT_SCORE_FLOOR {
            return Some(IncidentKind::SilentDivergence);
        }
        None
    }

    /// Record one tick's phase latencies into the `tick.*` histograms
    /// and account its total against the deadline.
    fn account(&mut self, phases: [u64; 4]) {
        let mut total = 0u64;
        for (hist, ns) in self.hists.iter_mut().zip(phases) {
            hist.record(ns);
            total += ns;
        }
        self.hists[4].record(total);
        self.stats.ticks += 1;
        self.stats.misses += u64::from(total > DEADLINE_NS);
        self.stats.worst_ns = self.stats.worst_ns.max(total);
    }
}

impl LoopObserver for FlightRecorder {
    fn on_tick(&mut self, ctx: &TickContext<'_>) {
        let phase_ns = modeled_phases(ctx);
        if self.source == TimeSource::Modeled {
            self.account(phase_ns);
        }
        let total: u64 = phase_ns.iter().sum();
        let miss = total > DEADLINE_NS;
        if miss {
            self.miss_streak += 1;
            self.max_miss_streak = self.max_miss_streak.max(self.miss_streak);
        } else {
            self.miss_streak = 0;
        }

        let (score, slope, armed) = match ctx.out.detector {
            Some(tel) => (tel.score, tel.slope, tel.armed),
            None => (0.0, 0.0, false),
        };
        self.peak_score = self.peak_score.max(score);
        self.alarmed |= ctx.out.alarm_raised;

        let mut flags = 0u8;
        if ctx.out.detector.is_some() {
            flags |= FLAG_DETECTOR_OBSERVED;
        }
        if armed {
            flags |= FLAG_TREND_ARMED;
        }
        if ctx.out.alarm_raised {
            flags |= FLAG_ALARM;
        }
        if ctx.fault_active {
            flags |= FLAG_FAULT_ACTIVE;
        }
        if miss {
            flags |= FLAG_DEADLINE_MISS;
        }

        let prev = self.prev_controls.unwrap_or(ctx.out.controls);
        let c = ctx.out.controls;
        self.ring.push(TickRecord {
            tick: self.ring.pushed(),
            flags,
            score,
            slope,
            margin: 1.0 - score,
            phase_ns,
            deadline_margin_ns: DEADLINE_NS as i64 - total as i64,
            d_throttle: c.throttle - prev.throttle,
            d_brake: c.brake - prev.brake,
            d_steer: c.steer - prev.steer,
        });
        self.prev_controls = Some(c);
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
        self.pending.get_or_insert([0; 4])[slot] = dur_ns;
        if phase == LoopPhase::Step {
            if let Some(phases) = self.pending.take() {
                self.account(phases);
            }
        }
    }

    fn on_termination(&mut self, _world: &World, _termination: &Termination) {
        // A trapped tick never reaches its Step phase; account the
        // partial wall measurement rather than dropping it.
        if let Some(phases) = self.pending.take() {
            self.account(phases);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simloop::SimLoop;
    use diverseav::{Ads, AdsConfig, AgentMode};
    use diverseav_fabric::{FaultModel, Op, Profile};
    use diverseav_obs::flight::render_record;
    use diverseav_simworld::{lead_slowdown, SensorConfig};

    /// Record one run of a short lead-slowdown scenario; returns the
    /// recorder, how the run ended and its slice's `runtime.ticks`.
    fn record(
        mode: AgentMode,
        seed: u64,
        duration: f64,
        source: TimeSource,
        fault: Option<FaultModel>,
    ) -> (FlightRecorder, Termination, u64) {
        let mut scenario = lead_slowdown();
        scenario.duration = duration;
        let world = World::new(scenario, SensorConfig::default(), seed);
        let mut ads = Ads::new(AdsConfig::for_mode(mode, seed));
        if let Some(model) = fault {
            ads.inject_fault(0, Profile::Cpu, model);
        }
        let mut rec = FlightRecorder::new("lead-slowdown", source);
        let term = SimLoop::new(world, ads).run_observed(&mut [&mut rec]);
        let ticks = rec.metrics().counters.get("runtime.ticks").copied().unwrap_or(0);
        (rec, term, ticks)
    }

    fn record_modeled(mode: AgentMode, seed: u64) -> (FlightRecorder, Termination) {
        let (rec, term, _) = record(mode, seed, 1.0, TimeSource::Modeled, None);
        (rec, term)
    }

    #[test]
    fn single_agent_ticks_hold_the_40hz_budget() {
        let (rec, term, counted) =
            record(AgentMode::RoundRobin, 51, 1.0, TimeSource::Modeled, None);
        assert_eq!(term, Termination::Completed);
        assert_eq!(rec.ticks(), 40, "one record per 40 Hz frame over 1 s");
        assert_eq!(counted, 40, "runtime.ticks counts every recorded tick");
        for (i, r) in rec.ring().iter().enumerate() {
            assert_eq!(r.tick, i as u64, "ticks are consecutive from 0");
            assert!(r.phase_ns.iter().sum::<u64>() > 0, "modeled phases populated");
            assert!(!r.deadline_miss(), "round-robin holds the budget");
            assert!(r.deadline_margin_ns > 0);
            assert!(!r.fault_active() && !r.alarm(), "clean run");
        }
        let stats = rec.stats();
        assert_eq!((stats.ticks, stats.misses), (40, 0), "worst {}", stats.worst_ns);
        assert!(stats.worst_ns > 0 && stats.worst_ns < DEADLINE_NS);
        assert_eq!(rec.classify(&term, false), None, "clean run is no incident");
    }

    #[test]
    fn the_run_slice_holds_its_ticks() {
        let (rec, _) = record_modeled(AgentMode::RoundRobin, 51);
        let slice = rec.metrics();
        let counters: Vec<(&str, u64)> =
            slice.counters.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        let expect = [
            ("deadline.lead-slowdown.misses", 0),
            ("deadline.lead-slowdown.ticks", 40),
            ("deadline.misses", 0),
            ("deadline.ticks", 40),
            ("runtime.ticks", 40),
        ];
        assert_eq!(counters, expect);
        let worst = rec.stats().worst_ns as f64;
        assert_eq!(slice.gauges["deadline.worst_ns"], worst);
        assert_eq!(slice.gauges["deadline.lead-slowdown.worst_ns"], worst);
        assert_eq!(slice.hists.len(), TICK_HISTS.len());
        assert!(slice.hists.values().all(|h| h.count() == 40));
        assert_eq!(slice.hists["tick.total"].max, rec.stats().worst_ns);
        let idle = FlightRecorder::new("lead-slowdown", TimeSource::Modeled).metrics();
        assert_eq!(idle.counters.values().collect::<Vec<_>>(), [&0], "runtime.ticks only");
        assert!(idle.gauges.is_empty() && idle.hists.values().all(|h| h.count() == 0));
    }

    #[test]
    fn duplicate_mode_misses_every_tick_and_is_a_deadline_burst() {
        let (rec, term) = record_modeled(AgentMode::Duplicate, 51);
        let stats = rec.stats();
        assert_eq!((stats.ticks, stats.misses), (40, 40), "worst {}", stats.worst_ns);
        assert!(stats.worst_ns > DEADLINE_NS);
        assert!(rec.max_miss_streak >= DEADLINE_BURST_TICKS, "FD misses every tick");
        assert!(rec.ring().iter().all(|r| r.deadline_miss() && r.deadline_margin_ns < 0));
        assert_eq!(rec.classify(&term, false), Some(IncidentKind::DeadlineBurst));
    }

    #[test]
    fn recordings_and_tallies_are_bit_identical_for_equal_seeds() {
        let (a, _) = record_modeled(AgentMode::RoundRobin, 77);
        let (b, _) = record_modeled(AgentMode::RoundRobin, 77);
        let av: Vec<String> = a.ring().iter().map(render_record).collect();
        let bv: Vec<String> = b.ring().iter().map(render_record).collect();
        assert_eq!(av, bv, "flight recording is a pure function of the seed");
        assert_eq!(a.stats(), b.stats(), "modeled tally is a pure function of the seed");
    }

    #[test]
    fn wall_source_times_real_phases_and_keeps_the_modeled_recording() {
        let (wall, _, counted) = record(AgentMode::RoundRobin, 9, 0.5, TimeSource::Wall, None);
        assert!(wall.wants_phase_timing());
        let stats = wall.stats();
        assert_eq!((stats.ticks, counted), (20, 20), "every tick finalized on its Step phase");
        assert!(stats.worst_ns > 0, "wall phases measured something");
        let (modeled, _, _) = record(AgentMode::RoundRobin, 9, 0.5, TimeSource::Modeled, None);
        let render = |r: &FlightRecorder| r.ring().iter().map(render_record).collect::<Vec<_>>();
        assert_eq!(render(&wall), render(&modeled), "records carry modeled latencies");
    }

    #[test]
    fn wall_source_accounts_the_partial_trapped_tick() {
        let stuck_add = FaultModel::Permanent { op: Op::IAdd, mask: 1 };
        let (rec, term, _) =
            record(AgentMode::RoundRobin, 3, 1.0, TimeSource::Wall, Some(stuck_add));
        assert!(term.is_hang_or_crash());
        assert_eq!(rec.stats().ticks, rec.ticks() + 1, "the trapped tick's sense phase counts");
    }

    #[test]
    fn classification_precedence_is_stable() {
        use diverseav_agent::AgentError;
        use diverseav_fabric::Trap;
        let mut rec = FlightRecorder::new("lead-slowdown", TimeSource::Modeled);
        rec.alarmed = true;
        rec.max_miss_streak = DEADLINE_BURST_TICKS + 1;
        rec.peak_score = 1.0;
        let hang = Termination::Trap(AgentError { fabric: Profile::Cpu, trap: Trap::Watchdog });
        let crash = Termination::Trap(AgentError {
            fabric: Profile::Gpu,
            trap: Trap::OutOfBounds { addr: 3 },
        });
        assert_eq!(rec.classify(&hang, true), Some(IncidentKind::Hang));
        assert_eq!(rec.classify(&crash, true), Some(IncidentKind::Crash));
        assert_eq!(rec.classify(&Termination::Completed, true), Some(IncidentKind::Alarm));
        rec.alarmed = false;
        assert_eq!(rec.classify(&Termination::Completed, true), Some(IncidentKind::DeadlineBurst));
        rec.max_miss_streak = 0;
        assert_eq!(
            rec.classify(&Termination::Completed, true),
            Some(IncidentKind::SilentDivergence)
        );
        assert_eq!(rec.classify(&Termination::Completed, false), None, "no fault, no verdict");
        rec.peak_score = SILENT_SCORE_FLOOR / 2.0;
        assert_eq!(rec.classify(&Termination::Completed, true), None, "benign fault");
    }

    #[test]
    fn incident_labels_round_trip() {
        for kind in IncidentKind::ALL {
            assert_eq!(IncidentKind::from_label(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(IncidentKind::from_label("nonsense"), None);
    }
}
