//! Run classification and the one scorer: trajectory violations,
//! Table-I outcome classes, and the per-run `Verdict` whose [`Tally`]
//! every Table-I row, weighted row, precision/recall, lead time and
//! missed-hazard count is read from.

use crate::campaign::TableRow;
use crate::record::RunRecord;
use crate::runner::RunResult;
use diverseav_simworld::TrajPoint;

/// Outcome class of one fault-injected run (Table I categories).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Platform-detected hang or crash.
    HangCrash,
    /// The ego vehicle collided.
    Accident,
    /// No accident, but the trajectory diverged ≥ `td` from the baseline.
    TrajViolation,
    /// No observable safety impact.
    Benign,
}

/// Mean trajectory of a set of golden runs (per-index mean over the runs
/// that reached that index) — the paper's baseline trajectory.
pub fn mean_trajectory(runs: &[&[TrajPoint]]) -> Vec<TrajPoint> {
    let max_len = runs.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(max_len);
    for i in 0..max_len {
        let pts: Vec<&TrajPoint> = runs.iter().filter_map(|r| r.get(i)).collect();
        if pts.is_empty() {
            break;
        }
        let n = pts.len() as f64;
        let (sx, sy, st) = pts
            .iter()
            .fold((0.0, 0.0, 0.0), |acc, p| (acc.0 + p.pos.x, acc.1 + p.pos.y, acc.2 + p.t));
        out.push(TrajPoint { t: st / n, pos: diverseav_simworld::Vec2::new(sx / n, sy / n) });
    }
    out
}

/// Maximum positional divergence `δ_pos^{E,B}` between a run's trajectory
/// and the baseline, compared index-aligned over their overlap (§V-B).
pub fn max_traj_divergence(traj: &[TrajPoint], baseline: &[TrajPoint]) -> f64 {
    traj.iter().zip(baseline.iter()).map(|(a, b)| a.pos.dist(b.pos)).fold(0.0, f64::max)
}

/// Time at which the trajectory first diverges ≥ `td` from the baseline.
pub fn first_violation_time(traj: &[TrajPoint], baseline: &[TrajPoint], td: f64) -> Option<f64> {
    traj.iter().zip(baseline.iter()).find(|(a, b)| a.pos.dist(b.pos) >= td).map(|(a, _)| a.t)
}

/// Classify one run against a baseline trajectory with threshold `td`.
pub fn classify(result: &RunResult, baseline: &[TrajPoint], td: f64) -> OutcomeClass {
    classify_parts(
        result.termination.label(),
        result.has_accident(),
        &result.trajectory,
        baseline,
        td,
    )
}

/// [`classify`] from a run's serialized parts — outcome label
/// (`"completed"` / `"collision"` / `"hang"` / `"crash"`), collision
/// flag, and trajectory — for callers reading runs back from a shard
/// artifact instead of holding a live [`RunResult`]. The label set is
/// exactly `Termination::label()`, so this classifies identically to
/// [`classify`] on the original run.
pub fn classify_parts(
    outcome: &str,
    collision: bool,
    traj: &[TrajPoint],
    baseline: &[TrajPoint],
    td: f64,
) -> OutcomeClass {
    if matches!(outcome, "hang" | "crash") {
        OutcomeClass::HangCrash
    } else if collision {
        OutcomeClass::Accident
    } else if max_traj_divergence(traj, baseline) >= td {
        OutcomeClass::TrajViolation
    } else {
        OutcomeClass::Benign
    }
}

/// Confusion counts of the error detector over a set of runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct DetectionEval {
    /// Safety violation, alarm raised.
    pub tp: usize,
    /// No safety violation, alarm raised.
    pub fp: usize,
    /// Safety violation, no alarm.
    pub fn_: usize,
    /// No safety violation, no alarm.
    pub tn: usize,
}

/// `n / d`, 1.0 when `d` is 0.
fn ratio(n: usize, d: usize) -> f64 {
    if d == 0 {
        1.0
    } else {
        n as f64 / d as f64
    }
}

impl DetectionEval {
    /// Precision = TP / (TP + FP); 1.0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Recall = TP / (TP + FN); 1.0 when nothing was positive.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// F1 = harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// One run's verdict: the one decision that every Table-I row, weighted
/// row, precision/recall, lead time and missed-hazard count tallies.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Verdict {
    /// Table-I class ([`classify_parts`]' rule).
    pub class: OutcomeClass,
    /// Whether the fault corrupted at least one register or frame.
    pub active: bool,
    /// Whether the detector alarmed.
    pub alarmed: bool,
    /// Fig 8 lead time of a hazardous run: violation (the collision, or
    /// the first crossing of `td`) minus alarm, when strictly positive.
    pub lead_time: Option<f64>,
}

/// Score one run from its borrowed parts (outcome label, collision time,
/// trajectory, fault activation), so live [`RunResult`]s and merged
/// [`RunRecord`]s score alike, under the alarm of the detector scored.
pub(crate) fn verdict(
    outcome: &str,
    collision_time: Option<f64>,
    traj: &[TrajPoint],
    fault_activated: bool,
    alarm: Option<f64>,
    baseline: &[TrajPoint],
    td: f64,
) -> Verdict {
    let class = classify_parts(outcome, collision_time.is_some(), traj, baseline, td);
    let hazard = matches!(class, OutcomeClass::Accident | OutcomeClass::TrajViolation);
    let lead_time = alarm.filter(|_| hazard).and_then(|alarm| {
        let violation = collision_time.or_else(|| first_violation_time(traj, baseline, td))?;
        (violation > alarm).then_some(violation - alarm)
    });
    Verdict { class, active: fault_activated, alarmed: alarm.is_some(), lead_time }
}

/// The accumulator of `Verdict`s. Table-I members sum each run's weight
/// (1.0, or its Horvitz–Thompson weight) in run order.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Runs scored (§VI-A denominator).
    pub runs: usize,
    /// Runs with an activated fault.
    pub active: f64,
    /// Platform-detected hangs and crashes.
    pub hang_crash: f64,
    /// Accident runs.
    pub accidents: f64,
    /// Trajectory-violation runs.
    pub traj_violations: f64,
    /// Runs with no observable safety impact.
    pub benign: f64,
    /// Detector confusion counts (§V-D). Hang/crash runs are left out:
    /// the platform detects those itself. Positive = accident or
    /// trajectory violation, so `fn_` counts missed hazards (§VI-A).
    pub eval: DetectionEval,
    /// Lead times of the true positives that have one.
    pub lead_times: Vec<f64>,
}

impl Tally {
    /// Add one verdict weighing `weight`.
    pub(crate) fn add(&mut self, v: Verdict, weight: f64) {
        self.runs += 1;
        if v.active {
            self.active += weight;
        }
        *match v.class {
            OutcomeClass::HangCrash => &mut self.hang_crash,
            OutcomeClass::Accident => &mut self.accidents,
            OutcomeClass::TrajViolation => &mut self.traj_violations,
            OutcomeClass::Benign => &mut self.benign,
        } += weight;
        let e = &mut self.eval;
        match (v.class, v.alarmed) {
            (OutcomeClass::HangCrash, _) => {}
            (OutcomeClass::Benign, true) => e.fp += 1,
            (OutcomeClass::Benign, false) => e.tn += 1,
            (_, true) => e.tp += 1,
            (_, false) => e.fn_ += 1,
        }
        self.lead_times.extend(v.lead_time);
    }

    /// Add live runs, each weighing 1.0, under index-aligned `alarms`.
    pub fn add_results(
        &mut self,
        runs: &[RunResult],
        alarms: impl IntoIterator<Item = Option<f64>>,
        baseline: &[TrajPoint],
        td: f64,
    ) {
        for (r, alarm) in runs.iter().zip(alarms) {
            let v = verdict(
                r.termination.label(),
                r.collision_time,
                &r.trajectory,
                r.fault_activated,
                alarm,
                baseline,
                td,
            );
            self.add(v, 1.0);
        }
    }

    /// Add merged records under their own alarms, each weighing `weight(r)`.
    pub(crate) fn add_records(
        &mut self,
        runs: &[RunRecord],
        weight: impl Fn(&RunRecord) -> f64,
        baseline: &[TrajPoint],
        td: f64,
    ) {
        for r in runs {
            let v = verdict(
                &r.outcome,
                r.collision_time,
                &r.trajectory,
                r.fault_activated,
                r.alarm_time,
                baseline,
                td,
            );
            self.add(v, weight(r));
        }
    }

    /// The Table-I row of a tally of 1.0 weights (exact far past any
    /// run count).
    pub fn row(&self) -> TableRow {
        TableRow {
            active: self.active as usize,
            hang_crash: self.hang_crash as usize,
            total: self.runs,
            accidents: self.accidents as usize,
            traj_violations: self.traj_violations as usize,
        }
    }
}

/// Evaluate the detector over fault-injected runs under their online
/// alarms (§V-D): the confusion counts of their [`Tally`].
pub fn evaluate_detector(results: &[RunResult], baseline: &[TrajPoint], td: f64) -> DetectionEval {
    let mut tally = Tally::default();
    tally.add_results(results, results.iter().map(|r| r.alarm_time), baseline, td);
    tally.eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Termination;
    use diverseav::AgentMode;
    use diverseav_simworld::Vec2;

    fn traj(points: &[(f64, f64, f64)]) -> Vec<TrajPoint> {
        points.iter().map(|&(t, x, y)| TrajPoint { t, pos: Vec2::new(x, y) }).collect()
    }

    fn result(traj_pts: Vec<TrajPoint>, collision: Option<f64>, alarm: Option<f64>) -> RunResult {
        RunResult {
            scenario: "t",
            mode: AgentMode::RoundRobin,
            fault: None,
            seed: 0,
            termination: if collision.is_some() {
                Termination::Collision
            } else {
                Termination::Completed
            },
            end_time: traj_pts.last().map(|p| p.t).unwrap_or(0.0),
            collision_time: collision,
            alarm_time: alarm,
            fault_activated: true,
            fault_onset_time: None,
            min_cvip: 5.0,
            red_light_violations: 0,
            ticks: 0,
            deadline_misses: 0,
            incident: None,
            flight: Vec::new(),
            trajectory: traj_pts,
            training: Vec::new(),
            actuation: Vec::new(),
            gpu_dyn_instr: 0,
            cpu_dyn_instr: 0,
            gpu_ops: Vec::new(),
            cpu_ops: Vec::new(),
            stratum: None,
            weight: None,
        }
    }

    #[test]
    fn mean_trajectory_averages() {
        let a = traj(&[(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)]);
        let b = traj(&[(0.0, 0.0, 2.0), (1.0, 4.0, 2.0)]);
        let m = mean_trajectory(&[&a, &b]);
        assert_eq!(m.len(), 2);
        assert!((m[1].pos.x - 3.0).abs() < 1e-12);
        assert!((m[1].pos.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_trajectory_handles_uneven_lengths() {
        let a = traj(&[(0.0, 0.0, 0.0), (1.0, 2.0, 0.0), (2.0, 4.0, 0.0)]);
        let b = traj(&[(0.0, 0.0, 2.0)]);
        let m = mean_trajectory(&[&a, &b]);
        assert_eq!(m.len(), 3);
        assert_eq!(m[2].pos.x, 4.0, "tail averages the surviving run only");
    }

    #[test]
    fn divergence_and_violation_time() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 2.0, 0.0)]);
        let run = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 1.5), (2.0, 2.0, 3.0)]);
        assert!((max_traj_divergence(&run, &base) - 3.0).abs() < 1e-12);
        assert_eq!(first_violation_time(&run, &base, 1.0), Some(1.0));
        assert_eq!(first_violation_time(&run, &base, 10.0), None);
    }

    #[test]
    fn classification_priorities() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let benign = result(base.clone(), None, None);
        assert_eq!(classify(&benign, &base, 2.0), OutcomeClass::Benign);
        let crash = RunResult {
            termination: Termination::Trap(diverseav_agent::AgentError {
                fabric: diverseav_fabric::Profile::Cpu,
                trap: diverseav_fabric::Trap::Watchdog,
            }),
            ..result(base.clone(), None, None)
        };
        assert_eq!(classify(&crash, &base, 2.0), OutcomeClass::HangCrash);
        let accident = result(base.clone(), Some(0.5), None);
        assert_eq!(classify(&accident, &base, 2.0), OutcomeClass::Accident);
        let viol = result(traj(&[(0.0, 0.0, 5.0), (1.0, 1.0, 5.0)]), None, None);
        assert_eq!(classify(&viol, &base, 2.0), OutcomeClass::TrajViolation);
    }

    #[test]
    fn classify_parts_agrees_with_classify() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let cases = [
            result(base.clone(), None, None),
            result(base.clone(), Some(0.5), None),
            result(traj(&[(0.0, 0.0, 5.0), (1.0, 1.0, 5.0)]), None, None),
            RunResult {
                termination: Termination::Trap(diverseav_agent::AgentError {
                    fabric: diverseav_fabric::Profile::Gpu,
                    trap: diverseav_fabric::Trap::Watchdog,
                }),
                ..result(base.clone(), None, None)
            },
        ];
        for r in &cases {
            assert_eq!(
                classify_parts(r.termination.label(), r.has_accident(), &r.trajectory, &base, 2.0),
                classify(r, &base, 2.0),
                "parts-based classification must match, outcome {}",
                r.termination.label()
            );
        }
    }

    #[test]
    fn detector_eval_counts_and_scores() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let results = vec![
            result(traj(&[(0.0, 0.0, 9.0)]), Some(0.5), Some(0.2)), // TP
            result(base.clone(), None, Some(0.2)),                  // FP
            result(traj(&[(0.0, 0.0, 9.0)]), Some(0.5), None),      // FN
            result(base.clone(), None, None),                       // TN
        ];
        let eval = evaluate_detector(&results, &base, 2.0);
        assert_eq!((eval.tp, eval.fp, eval.fn_, eval.tn), (1, 1, 1, 1));
        assert!((eval.precision() - 0.5).abs() < 1e-12);
        assert!((eval.recall() - 0.5).abs() < 1e-12);
        assert!((eval.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_eval_is_perfect() {
        let e = DetectionEval::default();
        assert_eq!(e.precision(), 1.0);
        assert_eq!(e.recall(), 1.0);
        assert_eq!(e.f1(), 1.0);
    }

    #[test]
    fn lead_time_requires_alarm_before_violation() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let lead = |r: &RunResult| {
            let label = r.termination.label();
            verdict(label, r.collision_time, &r.trajectory, true, r.alarm_time, &base, 2.0)
                .lead_time
        };
        let r = result(base.clone(), Some(3.0), Some(1.2));
        assert!((lead(&r).expect("lead") - 1.8).abs() < 1e-12);
        let late = result(base.clone(), Some(1.0), Some(2.0));
        assert_eq!(lead(&late), None);
        let no_alarm = result(base.clone(), Some(1.0), None);
        assert_eq!(lead(&no_alarm), None);
        // Without a collision the violation is the first crossing of td.
        let drift = result(traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 5.0)]), None, Some(0.25));
        assert_eq!(lead(&drift), Some(0.75));
        // A false alarm on a benign run has no lead time.
        let benign = result(base.clone(), None, Some(0.5));
        assert_eq!(lead(&benign), None);
    }

    #[test]
    fn missed_hazard_probability_counts_undetected_hazards() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let results = vec![
            result(base.clone(), Some(0.5), None), // missed hazard
            result(base.clone(), Some(0.5), Some(0.25)),
            result(base.clone(), None, None),
            result(base.clone(), None, None),
        ];
        let mut tally = Tally::default();
        tally.add_results(&results, results.iter().map(|r| r.alarm_time), &base, 2.0);
        assert_eq!((tally.eval.fn_, tally.runs), (1, 4), "1 missed hazard in 4 injections");
        assert_eq!(tally.lead_times, vec![0.25]);
        assert_eq!(tally.row().accidents, 2);
        assert_eq!(Tally::default().eval.fn_, 0);
    }

    #[test]
    fn hang_crash_runs_count_in_table1_but_not_in_detection() {
        let base = traj(&[(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)]);
        let mut tally = Tally::default();
        tally.add(
            verdict("hang", None, &traj(&[(0.0, 0.0, 9.0)]), true, Some(0.1), &base, 2.0),
            2.5,
        );
        assert_eq!(tally.hang_crash, 2.5);
        assert_eq!(tally.active, 2.5);
        assert_eq!(tally.eval, DetectionEval::default(), "left out of detection");
        assert!(tally.lead_times.is_empty());
    }
}
