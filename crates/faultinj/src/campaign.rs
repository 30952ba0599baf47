//! The Campaign Manager (Fig 3): orchestrates golden runs, profiling, plan
//! generation, injection runs, and Table-I summarization. It also owns the
//! run-set law: each [`RunUnit`]'s seed and kind, and the one `Cut`
//! engine that decides which units a campaign cut runs — the uniform plan
//! or a guided epoch's — and each unit's [`RunConfig`]. The in-memory
//! executor and the shard executor are its two sinks.

use crate::cache::{GoldenCache, GoldenKey, GoldenSet};
use crate::exec::{par_map, par_map_indices};
use crate::guided::{GuidedConfig, GuidedPlanner, GuidedSpec};
use crate::outcome::{mean_trajectory, Tally};
use crate::plan::{generate_plan, FaultModelKind, PlanConfig};
use crate::record::run_record;
use crate::runner::{run_experiment, FaultSpec, RunConfig, RunResult};
use crate::shard::{unit_shard, GuidedShardSpec, ShardError, ShardSpec};
use diverseav::{AgentMode, DetectorConfig, DetectorModel, TrainSample};
use diverseav_fabric::Profile;
use diverseav_obs::{journal, metrics, trace};
use diverseav_simworld::{long_route, splitmix64, Scenario, ScenarioKind, SensorConfig, TrajPoint};
use std::fmt;
use std::time::Instant;

/// Seed of golden run `i`: `GOLDEN_SEED_BASE + i` (see `RunUnit::seed`).
pub const GOLDEN_SEED_BASE: u64 = 1_000;

/// Seed of injected run `i`: `INJECTED_SEED_BASE + i` (see `RunUnit::seed`).
pub const INJECTED_SEED_BASE: u64 = 2_000;

/// One schedulable run of a campaign. Units order golden before
/// injected, each by index: engine order.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RunUnit {
    /// Golden (fault-free) run `i`. Golden run 0 doubles as the
    /// profiling pass that sizes the injection plan.
    Golden(usize),
    /// Injected run `i` (plan entry `i`; guided epochs own contiguous
    /// ranges of the global index).
    Injected(usize),
}

impl RunUnit {
    /// The engine's seed law: golden `GOLDEN_SEED_BASE + i`, injected
    /// `INJECTED_SEED_BASE + i`, whatever the thread count or shard cut.
    pub(crate) fn seed(self) -> u64 {
        match self {
            RunUnit::Golden(i) => GOLDEN_SEED_BASE + i as u64,
            RunUnit::Injected(i) => INJECTED_SEED_BASE + i as u64,
        }
    }

    /// Kind label used by the journal, shard artifacts and sidecars.
    pub(crate) fn kind(self) -> &'static str {
        match self {
            RunUnit::Golden(_) => "golden",
            RunUnit::Injected(_) => "injected",
        }
    }

    /// Engine index within its kind.
    pub(crate) fn index(self) -> usize {
        match self {
            RunUnit::Golden(i) | RunUnit::Injected(i) => i,
        }
    }

    /// Inverse of [`kind`](Self::kind): the unit a serialized
    /// `(kind, index)` pair names, `None` for an unknown kind.
    pub(crate) fn from_kind(kind: &str, index: usize) -> Option<RunUnit> {
        match kind {
            "golden" => Some(RunUnit::Golden(index)),
            "injected" => Some(RunUnit::Injected(index)),
            _ => None,
        }
    }
}

/// The full run set of a campaign, in engine order (golden-major).
pub fn campaign_units(golden_runs: usize, injected_runs: usize) -> Vec<RunUnit> {
    (0..golden_runs).map(RunUnit::Golden).chain((0..injected_runs).map(RunUnit::Injected)).collect()
}

/// One planned injected run: the fault, plus its stratum and
/// Horvitz–Thompson weight when a guided planner drew it.
pub(crate) struct PlannedRun {
    spec: FaultSpec,
    stratum: Option<u64>,
    weight: Option<f64>,
}

/// The run configuration of a unit before its plan entry: the campaign's
/// scenario, agent mode and sensor, and the unit's seed.
pub(crate) fn unit_config(
    scenario: &Scenario,
    mode: AgentMode,
    sensor: SensorConfig,
    unit: RunUnit,
) -> RunConfig {
    let mut cfg = RunConfig::new(scenario.clone(), mode, unit.seed());
    cfg.sensor = sensor;
    cfg
}

/// One cut of a campaign — which units it runs, with which
/// [`RunConfig`] — decided for both executors: [`run_campaign_cached`]
/// runs the uniform 1-of-1 cut, [`execute_shard`](crate::shard::execute_shard)
/// shard `k` of `n` of the uniform plan or of one guided epoch.
pub(crate) struct Cut {
    scenario: Scenario,
    mode: AgentMode,
    sensor: SensorConfig,
    /// The plan of this cut's campaign or guided epoch.
    pub(crate) plan: Vec<PlannedRun>,
    /// Global injected index of `plan[0]` (a guided epoch's start).
    pub(crate) injected_base: usize,
    /// Injected runs in the whole campaign (a guided campaign's budget).
    pub(crate) campaign_injected: usize,
    /// The units this cut runs, in engine order.
    pub(crate) units: Vec<RunUnit>,
}

impl Cut {
    /// Plan cut `spec` of `campaign` from its profiling run (golden run
    /// 0): the uniform plan, or epoch `guided.epoch` of a guided campaign.
    /// Fails when the guided planner refuses the campaign, epoch or prior.
    pub(crate) fn new(
        campaign: &Campaign,
        scale: &CampaignScale,
        sensor: SensorConfig,
        spec: ShardSpec,
        guided: Option<&GuidedShardSpec>,
        profile_run: &RunResult,
    ) -> Result<Cut, ShardError> {
        let seed = plan_seed(campaign);
        let golden_runs = scale.golden_runs.max(1);
        let (campaign_injected, plan, injected_base, epoch_golden) = match guided {
            None => {
                let cfg = PlanConfig {
                    kind: campaign.kind,
                    target: campaign.target,
                    n_transient: scale.n_transient,
                    repeats: scale.permanent_repeats,
                    seed,
                };
                let plan: Vec<PlannedRun> = generate_plan(profile_run, &cfg)
                    .into_iter()
                    .map(|spec| PlannedRun { spec, stratum: None, weight: None })
                    .collect();
                (plan.len(), plan, 0, golden_runs)
            }
            Some(g) => {
                let planner = GuidedPlanner::new(
                    profile_run,
                    campaign,
                    scale,
                    GuidedConfig { epochs: g.epochs },
                )
                .map_err(ShardError::Mismatch)?;
                // The planner rejects an out-of-range epoch and a missing
                // or superfluous prior.
                let plan = planner
                    .epoch_plan(g.epoch, g.prior.as_ref())
                    .map_err(ShardError::Mismatch)?
                    .into_iter()
                    .map(|GuidedSpec { spec, stratum, weight }| PlannedRun {
                        spec,
                        stratum: Some(stratum),
                        weight: Some(weight),
                    })
                    .collect();
                // Golden runs belong to the pilot epoch only: later epochs
                // reuse the merged epoch-0 baseline, so scheduling them
                // again would double-count golden coverage in the merge.
                let epoch_golden = if g.epoch == 0 { golden_runs } else { 0 };
                (planner.budget, plan, planner.epoch_start(g.epoch), epoch_golden)
            }
        };
        let units = (0..epoch_golden)
            .map(RunUnit::Golden)
            .chain((injected_base..injected_base + plan.len()).map(RunUnit::Injected))
            .filter(|u| unit_shard(seed, *u, spec.count) == spec.index)
            .collect();
        let (scenario, mode) = (scenario_for(campaign.scenario, scale), campaign.mode);
        Ok(Cut { scenario, mode, sensor, plan, injected_base, campaign_injected, units })
    }

    /// The run configuration of `unit`: [`unit_config`] plus, for an
    /// injected unit, the fault, stratum and weight of its plan entry.
    pub(crate) fn config(&self, unit: RunUnit) -> RunConfig {
        let mut cfg = unit_config(&self.scenario, self.mode, self.sensor, unit);
        if let RunUnit::Injected(i) = unit {
            let p = &self.plan[i - self.injected_base];
            (cfg.fault, cfg.stratum, cfg.weight) = (Some(p.spec), p.stratum, p.weight);
        }
        cfg
    }
}

/// Experiment scale: quick (CI-friendly) vs paper-scale counts.
///
/// The paper's campaigns ran for 21 (GPU) + 18.6 (CPU) days; the quick
/// scale reproduces the same campaigns with reduced run counts. Select
/// with `DIVERSEAV_SCALE=paper` in the environment.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CampaignScale {
    /// Transient injections per campaign (paper: 500).
    pub n_transient: usize,
    /// Repeats per opcode in permanent campaigns (paper: 3).
    pub permanent_repeats: usize,
    /// Golden runs per campaign (paper: 50).
    pub golden_runs: usize,
    /// Long-route training-scenario duration in seconds (paper: 600–900).
    pub long_route_duration: f64,
    /// Training runs per long route.
    pub training_runs: usize,
}

impl CampaignScale {
    /// Quick scale for tests and default bench runs.
    pub fn quick() -> Self {
        CampaignScale {
            n_transient: 16,
            permanent_repeats: 1,
            golden_runs: 6,
            long_route_duration: 100.0,
            training_runs: 2,
        }
    }

    /// Paper-scale counts (§IV-D).
    pub fn paper() -> Self {
        CampaignScale {
            n_transient: 500,
            permanent_repeats: 3,
            golden_runs: 50,
            long_route_duration: 600.0,
            training_runs: 3,
        }
    }

    /// Scale selected by the `DIVERSEAV_SCALE` environment variable
    /// (`paper` → paper scale, anything else/absent → quick).
    pub fn from_env() -> Self {
        match std::env::var("DIVERSEAV_SCALE").as_deref() {
            Ok("paper") => Self::paper(),
            _ => Self::quick(),
        }
    }
}

/// One fault-injection campaign: a (target, fault model, scenario, agent
/// mode) cell of Table I.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Campaign {
    /// Driving scenario.
    pub scenario: ScenarioKind,
    /// Injection target.
    pub target: Profile,
    /// Fault model.
    pub kind: FaultModelKind,
    /// Agent deployment mode.
    pub mode: AgentMode,
}

impl fmt::Display for Campaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{} {} [{}]",
            self.target,
            self.kind.label(),
            self.scenario.abbrev(),
            self.mode
        )
    }
}

/// All results of one campaign.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// The campaign definition.
    pub campaign: Campaign,
    /// Golden (fault-free) runs.
    pub golden: Vec<RunResult>,
    /// Fault-injected runs.
    pub injected: Vec<RunResult>,
    /// Mean golden trajectory (the violation baseline).
    pub baseline: Vec<TrajPoint>,
}

/// A row of Table I.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub struct TableRow {
    /// Runs in which the fault corrupted at least one register.
    pub active: usize,
    /// Platform-detected hangs and crashes.
    pub hang_crash: usize,
    /// Total fault-injected runs.
    pub total: usize,
    /// Runs ending in an ego collision.
    pub accidents: usize,
    /// Runs with a trajectory violation but no accident.
    pub traj_violations: usize,
}

/// Run one campaign end-to-end in memory: the uniform 1-of-1 cut of the
/// engine the shard executor also runs.
///
/// `detector` (with its config) is attached to every run so alarm times
/// are recorded; pass `None` to run without detection (fault-propagation
/// characterization only). `collect_traces` records every run's
/// divergence stream, enabling offline (td, rw) detector sweeps over the
/// results.
///
/// An optional [`GoldenCache`] is shared across campaigns: the four
/// campaigns of a (scenario, mode) Table-I cell — {GPU, CPU} ×
/// {transient, permanent} — request identical golden sets; the cache
/// computes each distinct set once. Runs fan out on the deterministic
/// [`par_map`] engine: every run is seeded
/// explicitly (golden `GOLDEN_SEED_BASE + i`, injected
/// `INJECTED_SEED_BASE + i`), so results are bit-identical to sequential
/// execution for any `DIVERSEAV_THREADS`.
///
/// Detector-attached golden runs carry per-campaign alarm annotations
/// and therefore always bypass the cache.
pub fn run_campaign_cached(
    campaign: Campaign,
    scale: &CampaignScale,
    detector: Option<(DetectorModel, DetectorConfig)>,
    sensor: SensorConfig,
    collect_traces: bool,
    cache: Option<&GoldenCache>,
) -> CampaignResult {
    let scenario = scenario_for(campaign.scenario, scale);
    let run = |mut cfg: RunConfig| {
        cfg.detector = detector.clone();
        cfg.collect_training = collect_traces;
        run_experiment(&cfg)
    };

    // Golden runs (also the NVBitFI-style profiling pass).
    let run_golden_set = || {
        let golden = par_map_indices(scale.golden_runs.max(1), |i| {
            run(unit_config(&scenario, campaign.mode, sensor, RunUnit::Golden(i)))
        });
        let trajectories: Vec<&[TrajPoint]> =
            golden.iter().map(|g| g.trajectory.as_slice()).collect();
        let baseline = mean_trajectory(&trajectories);
        GoldenSet { golden, baseline }
    };
    let phase_start = Instant::now();
    let golden_set = match (&detector, cache) {
        // Detector runs are annotated per campaign — never share them.
        (None, Some(cache)) => {
            let key = GoldenKey::new(
                campaign.scenario,
                scenario.duration,
                campaign.mode,
                &sensor,
                scale.golden_runs.max(1),
                collect_traces,
            );
            (*cache.get_or_compute(key, run_golden_set)).clone()
        }
        _ => run_golden_set(),
    };
    let GoldenSet { golden, baseline } = golden_set;
    metrics::phase_add("campaign.golden", phase_start.elapsed().as_secs_f64());
    metrics::counter_add("campaign.golden_runs", golden.len() as u64);

    // Injection plan from the first golden run's profile.
    let phase_start = Instant::now();
    let cut =
        Cut::new(&campaign, scale, sensor, ShardSpec { index: 0, count: 1 }, None, &golden[0])
            .expect("a uniform cut has no refusal path");
    metrics::phase_add("campaign.plan", phase_start.elapsed().as_secs_f64());

    let phase_start = Instant::now();
    // The 1-of-1 cut holds every unit, the golden set first.
    let injected: Vec<RunResult> =
        par_map(&cut.units[golden.len()..], |&unit| run(cut.config(unit)));
    metrics::phase_add("campaign.injected", phase_start.elapsed().as_secs_f64());
    metrics::counter_add("campaign.injected_runs", injected.len() as u64);
    metrics::counter_add("campaign.cells", 1);
    metrics::counter_add(
        "campaign.alarms",
        injected.iter().chain(golden.iter()).filter(|r| r.alarm_time.is_some()).count() as u64,
    );

    // Journal every run, index-ordered (the engine's slot order), so the
    // JSONL lines for a fixed campaign sequence are bit-identical for
    // any thread count.
    if trace::enabled() {
        let label = campaign.to_string();
        for (unit, r) in cut.units.iter().zip(golden.iter().chain(&injected)) {
            journal::append_line(
                run_record(&label, unit.kind(), unit.index(), r).render_journal_line(),
            );
        }
    }

    CampaignResult { campaign, golden, injected, baseline }
}

/// Injection-plan seed derived from every campaign discriminant.
///
/// The original expression (`0xC0FE ^ abbrev().len()`) collapsed to the
/// same seed for any two scenarios whose abbreviations share a length —
/// GhostCutIn ("GC") and FrontAccident ("FA") collided, and the target,
/// fault model, and agent mode never entered at all. Folding explicit
/// discriminant codes through SplitMix64 gives every campaign cell a
/// well-separated seed.
pub fn plan_seed(campaign: &Campaign) -> u64 {
    let scenario_code: u64 = match campaign.scenario {
        ScenarioKind::LeadSlowdown => 1,
        ScenarioKind::GhostCutIn => 2,
        ScenarioKind::FrontAccident => 3,
        ScenarioKind::LongRoute(i) => 0x100 + i as u64,
    };
    let target_code: u64 = match campaign.target {
        Profile::Cpu => 1,
        Profile::Gpu => 2,
    };
    let kind_code: u64 = match campaign.kind {
        FaultModelKind::Transient => 1,
        FaultModelKind::Permanent => 2,
        // Sensor classes occupy a disjoint code block above the register
        // models so every fault-model axis value stays well separated.
        FaultModelKind::Sensor(class) => 0x10 + class.class_code(),
    };
    let mode_code: u64 = match campaign.mode {
        AgentMode::Single => 1,
        AgentMode::RoundRobin => 2,
        AgentMode::Duplicate => 3,
    };
    let mut seed = 0xC0FE;
    for code in [scenario_code, target_code, kind_code, mode_code] {
        seed = splitmix64(seed ^ code);
    }
    seed
}

/// Build the scenario for a campaign at the given scale.
pub fn scenario_for(kind: ScenarioKind, scale: &CampaignScale) -> Scenario {
    match kind {
        ScenarioKind::LongRoute(i) => long_route(i, scale.long_route_duration),
        other => Scenario::of_kind(other),
    }
}

/// Summarize a campaign into a Table-I row with trajectory threshold `td`.
///
/// Outcome tallies also feed the process-global `outcome.*` counters in
/// [`diverseav_obs::metrics`]: hang vs crash (split by trap type),
/// accidents, trajectory violations, benign runs, and `outcome.sdc`
/// (silent safety-critical corruptions = accidents + violations).
pub fn summarize(result: &CampaignResult, td: f64) -> TableRow {
    let mut tally = Tally::default();
    let alarms = result.injected.iter().map(|r| r.alarm_time);
    tally.add_results(&result.injected, alarms, &result.baseline, td);
    let row = tally.row();
    let hangs = result.injected.iter().filter(|r| r.termination.is_hang()).count();
    metrics::counter_add("outcome.hang", hangs as u64);
    metrics::counter_add("outcome.crash", (row.hang_crash - hangs) as u64);
    metrics::counter_add("outcome.accident", row.accidents as u64);
    metrics::counter_add("outcome.traj_violation", row.traj_violations as u64);
    metrics::counter_add("outcome.benign", tally.benign as u64);
    metrics::counter_add("outcome.sdc", (row.accidents + row.traj_violations) as u64);
    row
}

/// Collect detector training data: fault-free executions of the long
/// training routes in the given agent mode (§III-D "training error
/// detection engine").
pub fn collect_training_runs(
    mode: AgentMode,
    scale: &CampaignScale,
    sensor: SensorConfig,
) -> Vec<Vec<TrainSample>> {
    // Route-major job list, fanned out on the deterministic engine: the
    // output order (and every seed) matches the original nested loop.
    let jobs: Vec<(u8, usize)> =
        (0..3u8).flat_map(|route| (0..scale.training_runs).map(move |rep| (route, rep))).collect();
    metrics::counter_add("campaign.training_runs", jobs.len() as u64);
    let phase_start = Instant::now();
    let runs = par_map(&jobs, |&(route, rep)| {
        let scenario = long_route(route, scale.long_route_duration);
        let mut cfg = RunConfig::new(scenario, mode, 7_000 + route as u64 * 31 + rep as u64);
        cfg.sensor = sensor;
        cfg.collect_training = true;
        run_experiment(&cfg).training
    });
    metrics::phase_add("campaign.training", phase_start.elapsed().as_secs_f64());
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> CampaignScale {
        CampaignScale {
            n_transient: 3,
            permanent_repeats: 1,
            golden_runs: 2,
            long_route_duration: 8.0,
            training_runs: 1,
        }
    }

    fn tiny_campaign(kind: FaultModelKind, target: Profile) -> Campaign {
        Campaign { scenario: ScenarioKind::LeadSlowdown, target, kind, mode: AgentMode::RoundRobin }
    }

    fn shorten(mut s: Scenario) -> Scenario {
        s.duration = 2.0;
        s
    }

    #[test]
    fn campaign_produces_expected_run_counts() {
        // Use a shortened scenario via a custom path: run the pieces
        // directly to keep the test fast.
        let scale = tiny_scale();
        let scenario = shorten(Scenario::of_kind(ScenarioKind::LeadSlowdown));
        let golden: Vec<RunResult> = (0..2)
            .map(|i| {
                run_experiment(&RunConfig::new(scenario.clone(), AgentMode::RoundRobin, i as u64))
            })
            .collect();
        let plan = generate_plan(
            &golden[0],
            &PlanConfig {
                kind: FaultModelKind::Transient,
                target: Profile::Gpu,
                n_transient: scale.n_transient,
                repeats: 1,
                seed: 1,
            },
        );
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn summarize_counts_outcomes() {
        let scenario = shorten(Scenario::of_kind(ScenarioKind::LeadSlowdown));
        let golden: Vec<RunResult> = (0..2)
            .map(|i| {
                run_experiment(&RunConfig::new(scenario.clone(), AgentMode::RoundRobin, 50 + i))
            })
            .collect();
        let trajs: Vec<&[TrajPoint]> = golden.iter().map(|g| g.trajectory.as_slice()).collect();
        let baseline = mean_trajectory(&trajs);
        let result = CampaignResult {
            campaign: tiny_campaign(FaultModelKind::Transient, Profile::Gpu),
            injected: golden.clone(),
            golden,
            baseline,
        };
        let row = summarize(&result, 2.0);
        assert_eq!(row.total, 2);
        assert_eq!(row.active, 0, "golden runs have no active fault");
        assert_eq!(row.hang_crash + row.accidents + row.traj_violations, 0);
    }

    #[test]
    fn scales_have_sane_ordering() {
        let q = CampaignScale::quick();
        let p = CampaignScale::paper();
        assert!(q.n_transient < p.n_transient);
        assert!(q.golden_runs < p.golden_runs);
        assert_eq!(p.n_transient, 500, "paper's §IV-D transient count");
        assert_eq!(p.permanent_repeats, 3);
        assert_eq!(p.golden_runs, 50);
    }

    #[test]
    fn campaign_display_matches_table_style() {
        let c = tiny_campaign(FaultModelKind::Permanent, Profile::Gpu);
        assert_eq!(c.to_string(), "GPU-permanent LSD [diverseav]");
    }

    #[test]
    fn plan_seeds_separate_all_campaign_discriminants() {
        let base = tiny_campaign(FaultModelKind::Transient, Profile::Gpu);
        // The historical collision: GC and FA abbreviations share a length.
        let gc = Campaign { scenario: ScenarioKind::GhostCutIn, ..base };
        let fa = Campaign { scenario: ScenarioKind::FrontAccident, ..base };
        assert_ne!(plan_seed(&gc), plan_seed(&fa));
        // Every discriminant must reach the seed.
        let variants = [
            Campaign { target: Profile::Cpu, ..base },
            Campaign { kind: FaultModelKind::Permanent, ..base },
            Campaign { mode: AgentMode::Single, ..base },
            Campaign { scenario: ScenarioKind::LongRoute(0), ..base },
        ];
        let mut seeds: Vec<u64> = variants.iter().map(plan_seed).collect();
        seeds.push(plan_seed(&base));
        // The five sensor-fault classes each get their own plan seed too.
        for kind in FaultModelKind::SENSOR_KINDS {
            seeds.push(plan_seed(&Campaign { kind, ..base }));
        }
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10, "all campaign variants must get distinct seeds");
    }

    #[test]
    fn scenario_for_scales_long_routes() {
        let scale = tiny_scale();
        let s = scenario_for(ScenarioKind::LongRoute(1), &scale);
        assert!(s.duration <= 8.0 + 1e-9);
        let lsd = scenario_for(ScenarioKind::LeadSlowdown, &scale);
        assert_eq!(lsd.kind, ScenarioKind::LeadSlowdown);
    }
}
