//! Offline detector parameter sweeps (Fig 7): train one model per
//! rolling-window size, replay every recorded divergence stream, and
//! score each (td, rw) cell.
//!
//! Replaying recorded streams (rather than re-running campaigns per
//! parameter point) is what makes the 13×5 sweep of the paper tractable;
//! the online detector is deterministic given the stream, so replay is
//! exact. Replay only produces alarms: a cell's precision/recall (Fig 7,
//! §VI-B, §VI-C), lead times (Fig 8) and missed hazards (§VI-A) are read
//! from `faultinj::outcome`'s one scorer, the same [`Tally`] that scores
//! Table I and online alarms.

use diverseav::{DetectorConfig, DetectorModel, OnlineDetector, TrainSample};
use diverseav_faultinj::{CampaignResult, DetectionEval, RunResult, Tally};

/// Scored evaluation of a (td, rw) cell over a set of campaigns.
#[derive(Clone, Debug, Default)]
pub struct CellEval {
    /// Detector confusion counts (hang/crash runs excluded).
    pub eval: DetectionEval,
    /// Golden runs that alarmed (should be 0).
    pub golden_alarms: usize,
    /// Lead detection times of true positives (violation − alarm, s).
    pub lead_times: Vec<f64>,
    /// Hazardous runs missed by the detector (§VI-A numerator).
    pub missed_hazards: usize,
    /// Total injected runs considered (§VI-A denominator).
    pub total_injected: usize,
}

impl CellEval {
    /// §VI-A missed-hazard probability.
    pub fn missed_hazard_probability(&self) -> f64 {
        if self.total_injected == 0 {
            0.0
        } else {
            self.missed_hazards as f64 / self.total_injected as f64
        }
    }
}

/// Evaluate one (model, cfg, td) combination over campaigns with recorded
/// divergence streams: replay each campaign's streams, then score its
/// injected runs under the replayed alarms with the one scorer
/// ([`Tally`]) that `evaluate_detector` applies to online alarms.
pub fn evaluate_cell(
    model: &DetectorModel,
    cfg: DetectorConfig,
    campaigns: &[CampaignResult],
    td: f64,
) -> CellEval {
    score(campaigns, &replay(model, cfg, campaigns), td)
}

/// The alarms a detector raises on a campaign set's recorded streams.
/// They depend on the model and `cfg` (hence `rw`) but not on `td`, so a
/// sweep replays each stream once per window.
struct Replayed {
    /// Golden runs that alarmed.
    golden_alarms: usize,
    /// Per campaign, the alarm time of each injected run.
    injected: Vec<Vec<Option<f64>>>,
}

fn replay(model: &DetectorModel, cfg: DetectorConfig, campaigns: &[CampaignResult]) -> Replayed {
    let replay = |r: &RunResult| OnlineDetector::replay(model, cfg, &r.training);
    Replayed {
        golden_alarms: campaigns
            .iter()
            .flat_map(|c| &c.golden)
            .filter(|g| replay(g).is_some())
            .count(),
        injected: campaigns.iter().map(|c| c.injected.iter().map(replay).collect()).collect(),
    }
}

/// Score `campaigns` at threshold `td` under their replayed alarms.
fn score(campaigns: &[CampaignResult], alarms: &Replayed, td: f64) -> CellEval {
    let mut tally = Tally::default();
    for (c, injected) in campaigns.iter().zip(&alarms.injected) {
        tally.add_results(&c.injected, injected.iter().copied(), &c.baseline, td);
    }
    CellEval {
        eval: tally.eval,
        golden_alarms: alarms.golden_alarms,
        missed_hazards: tally.eval.fn_,
        total_injected: tally.runs,
        lead_times: tally.lead_times,
    }
}

/// Full Fig-7 sweep result.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Rolling-window sizes (rows).
    pub rws: Vec<usize>,
    /// Trajectory thresholds in meters (columns).
    pub tds: Vec<f64>,
    /// Precision per (rw, td).
    pub precision: Vec<Vec<f64>>,
    /// Recall per (rw, td).
    pub recall: Vec<Vec<f64>>,
    /// F1 per (rw, td).
    pub f1: Vec<Vec<f64>>,
    /// Best cell (rw, td) by F1.
    pub best: (usize, f64),
}

/// Sweep detector parameters over recorded campaigns.
///
/// One model is trained per `rw` from the fault-free training streams,
/// and every recorded run is replayed once under it; each `td` of the
/// row then scores those alarms. Rows fan out on the
/// deterministic parallel engine (`DIVERSEAV_THREADS`); best-cell
/// selection stays a sequential fold in (rw, td) iteration order, so the
/// tie-breaking is identical to the original nested loop for any thread
/// count.
pub fn sweep(
    training: &[Vec<TrainSample>],
    campaigns: &[CampaignResult],
    rws: &[usize],
    tds: &[f64],
    base_cfg: DetectorConfig,
) -> SweepResult {
    struct SweepRow {
        precision: Vec<f64>,
        recall: Vec<f64>,
        f1: Vec<f64>,
        scores: Vec<f64>,
    }
    let rows = diverseav_faultinj::par_map(rws, |&rw| {
        let cfg = base_cfg.with_rw(rw);
        let model = DetectorModel::train(training, &cfg);
        let alarms = replay(&model, cfg, campaigns);
        let mut row = SweepRow {
            precision: Vec::new(),
            recall: Vec::new(),
            f1: Vec::new(),
            scores: Vec::new(),
        };
        for &td in tds {
            let cell = score(campaigns, &alarms, td);
            row.precision.push(cell.eval.precision());
            row.recall.push(cell.eval.recall());
            row.f1.push(cell.eval.f1());
            // Prefer cells with no golden-run false alarms, as the paper
            // requires; break F1 ties toward smaller windows (faster
            // detection → longer lead time).
            row.scores.push(if cell.golden_alarms == 0 {
                cell.eval.f1()
            } else {
                cell.eval.f1() - 1.0
            });
        }
        row
    });

    let mut precision = Vec::new();
    let mut recall = Vec::new();
    let mut f1 = Vec::new();
    let mut best = (rws[0], tds[0]);
    let mut best_f1 = -1.0;
    for (&rw, row) in rws.iter().zip(rows) {
        for (&td, &score) in tds.iter().zip(&row.scores) {
            if score > best_f1 + 1e-12 {
                best_f1 = score;
                best = (rw, td);
            }
        }
        precision.push(row.precision);
        recall.push(row.recall);
        f1.push(row.f1);
    }
    SweepResult { rws: rws.to_vec(), tds: tds.to_vec(), precision, recall, f1, best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diverseav::{Divergence, VehState};

    fn stream(levels: &[f64]) -> Vec<TrainSample> {
        levels
            .iter()
            .enumerate()
            .map(|(i, &d)| TrainSample {
                t: i as f64 * 0.025,
                state: VehState { v: 5.0, a: 0.0, w: 0.0, alpha: 0.0 },
                div: Divergence { throttle: d, brake: 0.0, steer: 0.0 },
            })
            .collect()
    }

    #[test]
    fn replay_detects_recorded_spike() {
        let cfg = DetectorConfig::default().with_rw(2);
        let model = DetectorModel::train(&[stream(&[0.01, 0.02, 0.015, 0.01])], &cfg);
        let quiet = OnlineDetector::replay(&model, cfg, &stream(&[0.01, 0.015, 0.01]));
        assert_eq!(quiet, None);
        let spiky = OnlineDetector::replay(&model, cfg, &stream(&[0.01, 0.5, 0.6, 0.7]));
        assert!(spiky.is_some());
    }

    #[test]
    fn cell_eval_missed_hazard_probability_empty() {
        let cell = CellEval::default();
        assert_eq!(cell.missed_hazard_probability(), 0.0);
    }
}
