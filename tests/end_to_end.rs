//! Cross-crate integration tests: the full train → inject → detect
//! pipeline over short scenarios.

use diverseav::{AgentMode, DetectorConfig, DetectorModel, OnlineDetector};
use diverseav_bench::{evaluate_cell, sweep};
use diverseav_fabric::{FaultModel, Op, Profile};
use diverseav_faultinj::{
    classify, collect_training_runs, evaluate_detector, first_violation_time, generate_plan,
    mean_trajectory, run_campaign_cached, run_experiment, Campaign, CampaignScale, FaultModelKind,
    FaultSpec, OutcomeClass, PlanConfig, RunConfig, RunResult, Termination,
};
use diverseav_simworld::{lead_slowdown, Scenario, ScenarioKind, SensorConfig, TrajPoint};

fn short(kind: ScenarioKind, duration: f64) -> Scenario {
    let mut s = Scenario::of_kind(kind);
    s.duration = duration;
    s
}

fn tiny_scale() -> CampaignScale {
    CampaignScale {
        n_transient: 3,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 30.0,
        training_runs: 1,
    }
}

#[test]
fn detector_trains_and_stays_silent_on_golden_run() {
    let training =
        collect_training_runs(AgentMode::RoundRobin, &tiny_scale(), SensorConfig::default());
    assert_eq!(training.len(), 3, "one run per long route");
    let cfg = DetectorConfig::default();
    let model = DetectorModel::train(&training, &cfg);
    assert!(model.entries() > 20, "model learned state bins");

    let mut rc = RunConfig::new(lead_slowdown(), AgentMode::RoundRobin, 11);
    rc.detector = Some((model, cfg));
    let result = run_experiment(&rc);
    assert_eq!(result.termination, Termination::Completed);
    assert!(result.alarm_time.is_none(), "golden run must not alarm");
    assert!(result.collision_time.is_none());
}

#[test]
fn severe_permanent_gpu_fault_is_detected_or_platform_caught() {
    let training =
        collect_training_runs(AgentMode::RoundRobin, &tiny_scale(), SensorConfig::default());
    let cfg = DetectorConfig::default();
    let model = DetectorModel::train(&training, &cfg);
    // An exponent-bit corruption of every FMax destroys perception.
    let mut rc = RunConfig::new(lead_slowdown(), AgentMode::RoundRobin, 13);
    rc.detector = Some((model, cfg));
    rc.fault = Some(FaultSpec::Fabric {
        unit: 0,
        profile: Profile::Gpu,
        model: FaultModel::Permanent { op: Op::FMax, mask: 1 << 23 },
    });
    let result = run_experiment(&rc);
    assert!(result.fault_activated);
    let caught = result.alarm_time.is_some() || result.termination.is_hang_or_crash();
    assert!(caught, "a severe fault must be caught: {result:?}");
}

#[test]
fn cpu_faults_hang_crash_or_mask_without_safety_impact() {
    // §V-C/§V-D: CPU faults are either platform-detected or masked.
    let scenario = short(ScenarioKind::LeadSlowdown, 12.0);
    let golden = run_experiment(&RunConfig::new(scenario.clone(), AgentMode::RoundRobin, 21));
    let baseline = golden.trajectory.clone();
    let mut hang_crash = 0;
    let mut unsafe_runs = 0;
    for (i, op) in [Op::IAdd, Op::FMul, Op::FAdd, Op::F2I, Op::ILt].iter().enumerate() {
        let mut rc = RunConfig::new(scenario.clone(), AgentMode::RoundRobin, 21);
        rc.fault = Some(FaultSpec::Fabric {
            unit: 0,
            profile: Profile::Cpu,
            model: FaultModel::Permanent { op: *op, mask: 1 << (7 + i) },
        });
        let r = run_experiment(&rc);
        match classify(&r, &baseline, 2.0) {
            OutcomeClass::HangCrash => hang_crash += 1,
            OutcomeClass::Accident | OutcomeClass::TrajViolation => unsafe_runs += 1,
            OutcomeClass::Benign => {}
        }
    }
    assert!(hang_crash >= 1, "some permanent CPU faults must crash or hang");
    assert_eq!(unsafe_runs, 0, "CPU faults must not silently break safety (paper §V-C)");
}

#[test]
fn plan_generation_covers_profiled_opcodes() {
    let scenario = short(ScenarioKind::GhostCutIn, 3.0);
    let profile = run_experiment(&RunConfig::new(scenario, AgentMode::RoundRobin, 31));
    let plan = generate_plan(
        &profile,
        &PlanConfig {
            kind: FaultModelKind::Permanent,
            target: Profile::Gpu,
            n_transient: 0,
            repeats: 2,
            seed: 5,
        },
    );
    assert_eq!(plan.len(), profile.gpu_ops.len() * 2);
    // Sanity: the GPU profile includes the numeric ops of the pipeline.
    let ops: Vec<Op> = profile.gpu_ops.iter().map(|&(op, _)| op).collect();
    for expected in [Op::FAdd, Op::FMul, Op::FFma, Op::FMax, Op::Ld, Op::FLt] {
        assert!(ops.contains(&expected), "GPU profile misses {expected}");
    }
}

#[test]
fn fd_mode_detects_single_unit_fault() {
    // FD baseline: fault on one processor, the clean duplicate disagrees.
    let training =
        collect_training_runs(AgentMode::Duplicate, &tiny_scale(), SensorConfig::default());
    let cfg = DetectorConfig::default();
    let model = DetectorModel::train(&training, &cfg);
    let mut rc = RunConfig::new(short(ScenarioKind::LeadSlowdown, 15.0), AgentMode::Duplicate, 41);
    rc.detector = Some((model, cfg));
    rc.fault = Some(FaultSpec::Fabric {
        unit: 0,
        profile: Profile::Gpu,
        model: FaultModel::Permanent { op: Op::FMax, mask: 1 << 23 },
    });
    let r = run_experiment(&rc);
    assert!(
        r.alarm_time.is_some() || r.termination.is_hang_or_crash(),
        "FD must catch a severe unit-0 fault: {:?}",
        r.termination
    );
}

#[test]
fn replay_matches_online_detection() {
    // The offline sweep path must agree with the online detector.
    let training =
        collect_training_runs(AgentMode::RoundRobin, &tiny_scale(), SensorConfig::default());
    let cfg = DetectorConfig::default();
    let model = DetectorModel::train(&training, &cfg);

    let mut rc =
        RunConfig::new(short(ScenarioKind::FrontAccident, 15.0), AgentMode::RoundRobin, 51);
    rc.detector = Some((model.clone(), cfg));
    rc.collect_training = true;
    rc.fault = Some(FaultSpec::Fabric {
        unit: 0,
        profile: Profile::Gpu,
        model: FaultModel::Permanent { op: Op::FFma, mask: 1 << 30 },
    });
    let r = run_experiment(&rc);
    if !r.termination.is_hang_or_crash() {
        let replayed = OnlineDetector::replay(&model, cfg, &r.training);
        assert_eq!(replayed, r.alarm_time, "offline replay must equal online alarm");
    }
}

#[test]
fn one_scorer_serves_online_and_replayed_alarms() {
    // A tiny detector-attached campaign with its divergence streams kept:
    // the online alarms (`evaluate_detector`) and the replayed ones
    // (`evaluate_cell`) must score identically, and a cell's lead times
    // and missed hazards must equal a hand tally from `classify` and
    // `first_violation_time`.
    let training =
        collect_training_runs(AgentMode::RoundRobin, &tiny_scale(), SensorConfig::default());
    let cfg = DetectorConfig::default();
    let model = DetectorModel::train(&training, &cfg);
    let campaign = Campaign {
        scenario: ScenarioKind::FrontAccident,
        target: Profile::Gpu,
        kind: FaultModelKind::Permanent,
        mode: AgentMode::RoundRobin,
    };
    let detector = Some((model.clone(), cfg));
    let c =
        run_campaign_cached(campaign, &tiny_scale(), detector, SensorConfig::default(), true, None);
    let td = 2.0;
    let hand_tally = |alarm: &dyn Fn(&RunResult) -> Option<f64>| {
        let (mut leads, mut missed) = (Vec::new(), 0);
        for r in &c.injected {
            let hazard = matches!(
                classify(r, &c.baseline, td),
                OutcomeClass::Accident | OutcomeClass::TrajViolation
            );
            match (hazard, alarm(r)) {
                (true, Some(alarm)) => {
                    let violation = r
                        .collision_time
                        .or_else(|| first_violation_time(&r.trajectory, &c.baseline, td));
                    leads.extend(violation.filter(|&v| v > alarm).map(|v| v - alarm));
                }
                (true, None) => missed += 1,
                _ => {}
            }
        }
        (leads, missed)
    };

    let online = evaluate_detector(&c.injected, &c.baseline, td);
    let cell = evaluate_cell(&model, cfg, std::slice::from_ref(&c), td);
    assert_eq!(cell.eval, online, "replayed alarms must score like the online ones");
    assert_eq!(cell.total_injected, c.injected.len());
    let (leads, missed) = hand_tally(&|r| r.alarm_time);
    assert!(!leads.is_empty(), "the campaign must exercise lead times");
    assert_eq!((&cell.lead_times, cell.missed_hazards), (&leads, missed));

    // A slower detector (a wider rolling window) misses hazards.
    let slow = cfg.with_rw(40);
    let slow_model = DetectorModel::train(&training, &slow);
    let cell = evaluate_cell(&slow_model, slow, std::slice::from_ref(&c), td);
    let (leads, missed) = hand_tally(&|r| OnlineDetector::replay(&slow_model, slow, &r.training));
    assert!(missed > 0, "the slow detector must exercise missed hazards");
    assert_eq!((&cell.lead_times, cell.missed_hazards), (&leads, missed));
}

#[test]
fn sweep_cells_equal_evaluate_cell() {
    // The sweep replays each stream once per rolling window and scores
    // every threshold from those alarms; each cell must equal a fresh
    // `evaluate_cell` (which replays per cell) at its (rw, td). Small
    // thresholds make td matter on this accident-heavy campaign.
    let training =
        collect_training_runs(AgentMode::RoundRobin, &tiny_scale(), SensorConfig::default());
    let campaign = Campaign {
        scenario: ScenarioKind::FrontAccident,
        target: Profile::Gpu,
        kind: FaultModelKind::Permanent,
        mode: AgentMode::RoundRobin,
    };
    let campaigns =
        [run_campaign_cached(campaign, &tiny_scale(), None, SensorConfig::default(), true, None)];
    let (rws, tds) = ([3, 12, 40], [0.1, 0.3, 5.0]);
    let base = DetectorConfig::default();
    let result = sweep(&training, &campaigns, &rws, &tds, base);
    for (i, &rw) in rws.iter().enumerate() {
        let cfg = base.with_rw(rw);
        let model = DetectorModel::train(&training, &cfg);
        for (j, &td) in tds.iter().enumerate() {
            let cell = evaluate_cell(&model, cfg, &campaigns, td);
            let want =
                [cell.eval.precision(), cell.eval.recall(), cell.eval.f1()].map(f64::to_bits);
            let got = [result.precision[i][j], result.recall[i][j], result.f1[i][j]];
            assert_eq!(got.map(f64::to_bits), want, "cell (rw {rw}, td {td})");
        }
    }
    // The cells must differ along both axes, or a sweep that scored the
    // wrong window or threshold could still pass.
    assert_ne!(result.recall[0][0], result.recall[0][2], "td must matter");
    assert_ne!(result.recall[0][2], result.recall[2][2], "rw must matter");
}

#[test]
fn mean_trajectory_baseline_is_stable_across_golden_runs() {
    let scenario = short(ScenarioKind::LeadSlowdown, 10.0);
    let runs: Vec<_> = (0..3)
        .map(|i| run_experiment(&RunConfig::new(scenario.clone(), AgentMode::RoundRobin, 60 + i)))
        .collect();
    let trajs: Vec<&[TrajPoint]> = runs.iter().map(|r| r.trajectory.as_slice()).collect();
    let baseline = mean_trajectory(&trajs);
    for r in &runs {
        let d = diverseav_faultinj::max_traj_divergence(&r.trajectory, &baseline);
        assert!(d < 0.6, "golden runs stay near their mean: {d:.3} m");
    }
}

#[test]
fn transient_faults_are_mostly_masked() {
    // §V-C: the vast majority of single-bit transients have no safety
    // impact. Sample a handful of sites across the dynamic stream.
    let scenario = short(ScenarioKind::LeadSlowdown, 12.0);
    let profile = run_experiment(&RunConfig::new(scenario.clone(), AgentMode::RoundRobin, 71));
    let space = profile.gpu_dyn_instr;
    let golden = profile.trajectory.clone();
    let mut safe = 0;
    let total = 5;
    for k in 0..total {
        let mut rc = RunConfig::new(scenario.clone(), AgentMode::RoundRobin, 71);
        rc.fault = Some(FaultSpec::Fabric {
            unit: 0,
            profile: Profile::Gpu,
            model: FaultModel::Transient {
                instr_index: space / total as u64 * k as u64 + 17,
                mask: 1 << 5,
            },
        });
        let r = run_experiment(&rc);
        if !matches!(classify(&r, &golden, 2.0), OutcomeClass::Accident) {
            safe += 1;
        }
    }
    assert!(safe >= total - 1, "low-bit transients rarely cause accidents: {safe}/{total}");
}
