//! Closed-loop behavior of the ADS plumbing — frame distribution,
//! reference outputs, overlap, detector alarms, fault activation —
//! driven on the canonical [`SimLoop`] (these checks used to hand-roll
//! the `sense → tick → step` loop inside `diverseav`'s unit tests).

use diverseav::{Ads, AdsConfig, AgentMode, DetectorConfig, DetectorModel, TickOutput};
use diverseav_fabric::{FaultModel, Op, Profile};
use diverseav_runtime::{
    LoopObserver, LoopPhase, SimLoop, Termination, TickContext, TrainingCollector,
};
use diverseav_simworld::{lead_slowdown, SensorConfig, World};
use std::num::NonZeroU32;

fn world() -> World {
    World::new(lead_slowdown(), SensorConfig::default(), 5)
}

/// Drive `ads` for `n` ticks of `world` on the canonical loop, collecting
/// each tick's output through an observer.
fn run_ticks(ads: &mut Ads, world: World, n: usize) -> Vec<TickOutput> {
    struct Collect(Vec<TickOutput>);
    impl LoopObserver for Collect {
        fn on_tick(&mut self, ctx: &TickContext<'_>) {
            self.0.push(*ctx.out);
        }
    }
    let mut collect = Collect(Vec::with_capacity(n));
    let term = SimLoop::new(world, ads).run_for(n, &mut [&mut collect]);
    assert!(
        matches!(term, None | Some(Termination::Completed) | Some(Termination::Collision)),
        "fault-free ticks must not trap: {term:?}"
    );
    collect.0
}

#[test]
fn round_robin_produces_pairs_from_second_tick() {
    let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 1));
    let outs = run_ticks(&mut ads, world(), 4);
    assert!(outs[0].divergence.is_none(), "no reference before the peer ran");
    assert!(outs[1].divergence.is_some());
    assert!(outs[2].divergence.is_some());
}

#[test]
fn duplicate_mode_pairs_every_tick() {
    let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::Duplicate, 2));
    let outs = run_ticks(&mut ads, world(), 3);
    assert!(outs.iter().all(|o| o.divergence.is_some()));
    // Compute jitter keeps the two agents from being bit-identical
    // forever; divergence is nonetheless small in fault-free runs.
    let max_div = outs
        .iter()
        .filter_map(|o| o.divergence)
        .map(|d| d.throttle.max(d.brake).max(d.steer))
        .fold(0.0f64, f64::max);
    assert!(max_div < 0.5, "fault-free FD divergence is bounded: {max_div}");
}

#[test]
fn single_mode_compares_with_previous_output() {
    let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::Single, 3));
    let outs = run_ticks(&mut ads, world(), 3);
    assert!(outs[0].divergence.is_none());
    assert!(outs[1].divergence.is_some());
}

#[test]
fn round_robin_agents_each_process_half_the_frames() {
    let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 6));
    run_ticks(&mut ads, world(), 10);
    assert_eq!(ads.agent_steps(), vec![5, 5]);
}

#[test]
fn fault_injection_reaches_the_shared_fabric() {
    let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 7));
    ads.inject_fault(0, Profile::Gpu, FaultModel::Permanent { op: Op::FAdd, mask: 1 });
    assert!(!ads.fault_activated());
    run_ticks(&mut ads, world(), 2);
    assert!(ads.fault_activated(), "FAdd executes every inference");
}

#[test]
fn detector_alarm_passthrough() {
    let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, 8));
    // An untrained (empty) model has floor thresholds → tiny natural
    // divergence may alarm; attach and ensure the plumbing works.
    ads.attach_detector(
        DetectorModel::train(&[], &DetectorConfig::default()),
        DetectorConfig::default(),
    );
    let outs = run_ticks(&mut ads, world(), 30);
    let alarmed = outs.iter().any(|o| o.alarm_raised);
    assert_eq!(alarmed, ads.alarm_time().is_some());
}

/// A round-robin ADS whose detector was trained on 40 fault-free ticks
/// of [`world`].
fn trained_ads(seed: u64) -> Ads {
    let mut collector = TrainingCollector::new(true, 64);
    let ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, seed));
    SimLoop::new(world(), ads).run_for(40, &mut [&mut collector]);
    let cfg = DetectorConfig::default();
    let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::RoundRobin, seed));
    ads.attach_detector(DetectorModel::train(&[collector.training], &cfg), cfg);
    ads
}

#[test]
fn detect_timing_follows_the_loops_phase_observers() {
    /// Records each tick's `Detect` phase and the driver's own
    /// `out.work.detect_ns`.
    struct Phases {
        timing: bool,
        detect: Vec<u64>,
        work: Vec<u64>,
    }
    impl LoopObserver for Phases {
        fn wants_phase_timing(&self) -> bool {
            self.timing
        }
        fn on_phase(&mut self, phase: LoopPhase, dur_ns: u64) {
            if phase == LoopPhase::Detect {
                self.detect.push(dur_ns);
            }
        }
        fn on_tick(&mut self, ctx: &TickContext<'_>) {
            assert!(ctx.out.detector.is_some() || ctx.t == 0.0, "the detector checks every tick");
            self.work.push(ctx.out.work.detect_ns);
        }
    }
    let run = |timing: bool| {
        let mut ads = trained_ads(12);
        let mut phases = Phases { timing, detect: Vec::new(), work: Vec::new() };
        SimLoop::new(world(), &mut ads).run_for(20, &mut [&mut phases]);
        assert_eq!(phases.work.len(), 20);
        phases
    };
    // Under the default modeled source, a phase observer alone switches
    // the in-tick detector timing on.
    let timed = run(true);
    assert_eq!(timed.detect.len(), 20);
    assert!(timed.detect.iter().any(|&ns| ns > 0), "detect phases: {:?}", timed.detect);
    assert_eq!(timed.detect, timed.work, "the Detect phase is the driver's own measurement");
    // Without one, the detector check reads no clock.
    let untimed = run(false);
    assert!(untimed.detect.is_empty());
    assert!(untimed.work.iter().all(|&ns| ns == 0), "detect_ns: {:?}", untimed.work);
}

#[test]
fn overlap_frames_run_both_agents() {
    let overlap = |p| AgentMode::Overlap(NonZeroU32::new(p).expect("nonzero period"));
    let mut ads = Ads::new(AdsConfig::for_mode(overlap(4), 10));
    run_ticks(&mut ads, world(), 8);
    // Steps 0 and 4 are overlap frames (both agents), so each agent
    // processes its half plus the overlap extras.
    let total: u64 = ads.agent_steps().iter().sum();
    assert_eq!(total, 8 + 2, "two overlap frames add two extra inferences");
    // Overlap frames produce same-frame references immediately.
    let mut ads2 = Ads::new(AdsConfig::for_mode(overlap(1), 10));
    let outs = run_ticks(&mut ads2, world(), 2);
    assert!(outs[0].divergence.is_some(), "overlap gives a reference on the first tick");
}

#[test]
fn dyn_instr_counts_accumulate() {
    let mut ads = Ads::new(AdsConfig::for_mode(AgentMode::Single, 9));
    run_ticks(&mut ads, world(), 2);
    assert!(ads.dyn_instr(Profile::Gpu) > 10_000);
    assert!(ads.dyn_instr(Profile::Cpu) > 100);
}
