//! The three workloads: their inputs, set-up, untraced rounds and traced
//! rounds.
//!
//! Every round calls the library the way a user of the campaign tooling
//! does and returns the [`Digests`] of all its outputs plus the work it
//! completed. The traced round re-orchestrates the monolithic campaign
//! path from public pieces so it can attach the `SimLoop` phase hook to
//! every run; the benchmark's tests prove it equals
//! `run_campaign_cached`.

use crate::digest::{run_result_hash, shard_run_hash, text_hash, Digests};
use crate::trace::{Captured, PhaseRecorder, RunTrace, Spans};
use diverseav::{AgentMode, DetectorConfig, DetectorModel, TrainSample};
use diverseav_bench::experiments::{BEST_RW, BEST_TD};
use diverseav_bench::{evaluate_cell, merge, CellEval};
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    campaign_units, collect_incidents, collect_training_runs, evaluate_detector, execute_shard,
    execute_shard_limited, generate_plan, guided_epoch_summary, incident_sidecar_path,
    mean_trajectory, merge_artifacts, par_map_indices, parse_artifact, parse_incident_artifact,
    plan_seed, run_campaign_cached, run_experiment, run_experiment_observed, scenario_for,
    summarize, summarize_weighted, unit_shard, Campaign, CampaignResult, CampaignScale,
    EpochSummary, FaultModelKind, GoldenCache, GoldenKey, GoldenSet, GuidedConfig, GuidedPlanner,
    GuidedShardSpec, IncidentArtifact, MergedCampaign, PlanConfig, RunConfig, RunResult,
    SensorFaultKind, ShardArtifact, ShardConfig, ShardSpec, TableRow, GOLDEN_SEED_BASE,
    INJECTED_SEED_BASE,
};
use diverseav_obs::json;
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    TransientLsd,
    PermanentFaOnline,
    GuidedShardsGc,
}

pub const ALL: [Workload; 3] =
    [Workload::TransientLsd, Workload::PermanentFaOnline, Workload::GuidedShardsGc];

/// Number of input variants; `--seed` picks one. Every variant has a
/// committed reference.
pub const VARIANTS: usize = 4;

/// Set-ups per untraced run, spread over its rounds; `setup_s` is their
/// median.
pub const SETUPS: usize = 5;

/// Guided campaign shape: 2 shards × 2 epochs.
const SHARDS: usize = 2;
const EPOCHS: usize = 2;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TransientLsd => "transient-lsd",
            Workload::PermanentFaOnline => "permanent-fa-online",
            Workload::GuidedShardsGc => "guided-shards-gc",
        }
    }

    /// Engine threads (`DIVERSEAV_THREADS`): one for the monolithic
    /// workloads, every core for the sharded one.
    pub fn threads(self) -> usize {
        match self {
            Workload::GuidedShardsGc => diverseav_faultinj::detected_parallelism(),
            _ => 1,
        }
    }

    pub fn scale(self) -> CampaignScale {
        match self {
            Workload::TransientLsd => CampaignScale {
                n_transient: 3,
                permanent_repeats: 1,
                golden_runs: 1,
                long_route_duration: 40.0,
                training_runs: 1,
            },
            Workload::PermanentFaOnline => CampaignScale {
                n_transient: 0,
                permanent_repeats: 1,
                golden_runs: 2,
                long_route_duration: 40.0,
                training_runs: 1,
            },
            Workload::GuidedShardsGc => CampaignScale {
                n_transient: 8,
                permanent_repeats: 1,
                golden_runs: 2,
                long_route_duration: 40.0,
                training_runs: 1,
            },
        }
    }

    pub fn campaigns(self) -> Vec<Campaign> {
        let mode = AgentMode::RoundRobin;
        let cell = |scenario, target, kind| Campaign { scenario, target, kind, mode };
        match self {
            Workload::TransientLsd => [Profile::Gpu, Profile::Cpu]
                .map(|t| cell(ScenarioKind::LeadSlowdown, t, FaultModelKind::Transient))
                .to_vec(),
            Workload::PermanentFaOnline => [Profile::Gpu, Profile::Cpu]
                .map(|t| cell(ScenarioKind::FrontAccident, t, FaultModelKind::Permanent))
                .to_vec(),
            // Sensor faults never touch the fabric; the target only keys
            // the campaign.
            Workload::GuidedShardsGc => vec![cell(
                ScenarioKind::GhostCutIn,
                Profile::Gpu,
                FaultModelKind::Sensor(SensorFaultKind::BiasDrift),
            )],
        }
    }

    pub fn uses_detector(self) -> bool {
        !matches!(self, Workload::GuidedShardsGc)
    }
}

/// Variant picked by a seed.
pub fn variant(seed: u64) -> usize {
    (seed % VARIANTS as u64) as usize
}

/// Everything a workload hands the library: derived from the seed alone
/// (the scale is fixed per workload; tests shrink it).
#[derive(Copy, Clone, Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub variant: usize,
    pub sensor: SensorConfig,
    pub scale: CampaignScale,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let variant = variant(seed);
        Inputs { workload, variant, sensor: sensor(variant), scale: workload.scale() }
    }
}

/// The sensor model of a variant. Variant 0 is the default model; the
/// others change the pixel-noise and texture amplitudes, which changes
/// every frame's content (and so every run) but not the work per frame.
pub fn sensor(variant: usize) -> SensorConfig {
    let (pixel_noise, texture_amp) = [(1.3, 9.0), (1.1, 8.0), (1.5, 10.0), (1.2, 9.5)][variant];
    SensorConfig { pixel_noise, texture_amp, ..SensorConfig::default() }
}

/// What set-up produced for the timed part.
pub struct Prepared {
    pub detector: Option<(DetectorModel, DetectorConfig)>,
    pub training: Vec<Vec<TrainSample>>,
    /// Guided workload: the epoch-0 shard stopped after one batch.
    pub kill_shard: usize,
    pub batch_size: usize,
    /// Guided workload: ticks of the profiling pass every shard call
    /// re-runs.
    pub profile_ticks: u64,
}

/// Set-up: detector training for the detector workloads; for the guided
/// workload, the planner pre-flight that sizes batches so the stopped
/// shard holds at least two of them.
pub fn setup(inp: &Inputs, spans: &mut Spans) -> Prepared {
    let (w, sensor, scale) = (inp.workload, inp.sensor, inp.scale);
    if w.uses_detector() {
        let cfg = DetectorConfig::default().with_rw(BEST_RW);
        let t = Instant::now();
        let training = collect_training_runs(AgentMode::RoundRobin, &scale, sensor);
        let model = DetectorModel::train(&training, &cfg);
        spans.add("core.train", t.elapsed().as_secs_f64());
        return Prepared {
            detector: Some((model, cfg)),
            training,
            kill_shard: 0,
            batch_size: 1,
            profile_ticks: 0,
        };
    }
    let campaign = w.campaigns()[0];
    let scenario = scenario_for(campaign.scenario, &scale);
    let mut rc = RunConfig::new(scenario, campaign.mode, GOLDEN_SEED_BASE);
    rc.sensor = sensor;
    let profile_run = run_experiment(&rc);
    let planner =
        GuidedPlanner::new(&profile_run, &campaign, &scale, GuidedConfig { epochs: EPOCHS })
            .expect("guided planner accepts the workload campaign");
    let pilot = planner.epoch_budgets()[0];
    let seed = plan_seed(&campaign);
    let per_shard: Vec<usize> = (0..SHARDS)
        .map(|s| {
            campaign_units(scale.golden_runs, pilot)
                .into_iter()
                .filter(|u| unit_shard(seed, *u, SHARDS) == s)
                .count()
        })
        .collect();
    let (kill_shard, &most) =
        per_shard.iter().enumerate().max_by_key(|(_, n)| **n).expect("two shards");
    let batch_size = most.div_ceil(2);
    Prepared {
        detector: None,
        training: Vec::new(),
        kill_shard,
        batch_size,
        profile_ticks: profile_run.ticks,
    }
}

/// Work and outputs of one round.
#[derive(Default)]
pub struct Round {
    pub digests: Digests,
    /// Runs executed (golden-cache hits and profiling re-runs excluded).
    pub runs: usize,
    pub ticks: u64,
    /// Seconds spent in library calls (digesting excluded).
    pub secs: f64,
    pub golden_alarms: usize,
}

/// One untraced round.
pub fn round(inp: &Inputs, prep: &Prepared, tmp: &Path) -> Round {
    let (w, sensor, scale) = (inp.workload, inp.sensor, inp.scale);
    match w {
        Workload::GuidedShardsGc => guided_round(inp, prep, tmp, &mut Spans::default()).0,
        _ => {
            let cache = GoldenCache::new();
            let t = Instant::now();
            let results: Vec<CampaignResult> = w
                .campaigns()
                .into_iter()
                .map(|c| {
                    let det =
                        if w == Workload::PermanentFaOnline { prep.detector.clone() } else { None };
                    let traces = w == Workload::TransientLsd;
                    run_campaign_cached(c, &scale, det, sensor, traces, Some(&cache))
                })
                .collect();
            let cell = (w == Workload::TransientLsd).then(|| {
                let (model, cfg) = prep.detector.as_ref().expect("trained in set-up");
                evaluate_cell(model, *cfg, &results, BEST_TD)
            });
            let secs = t.elapsed().as_secs_f64();
            let executed_golden = if w == Workload::TransientLsd { 1 } else { results.len() };
            mono_digests(w, &results, cell.as_ref(), executed_golden, secs)
        }
    }
}

/// Digest the results of a monolithic round; `executed_golden` is how
/// many of the campaigns actually ran their golden set.
fn mono_digests(
    w: Workload,
    results: &[CampaignResult],
    cell: Option<&CellEval>,
    executed_golden: usize,
    secs: f64,
) -> Round {
    let mut out = Round { secs, ..Round::default() };
    for (i, res) in results.iter().enumerate() {
        let label = res.campaign.to_string();
        for (kind, runs) in [("golden", &res.golden), ("injected", &res.injected)] {
            for (j, r) in runs.iter().enumerate() {
                out.digests.run(&label, kind, j, run_result_hash(kind, j, r), r.deadline_misses);
            }
        }
        let executed: Vec<&RunResult> = if i < executed_golden {
            res.golden.iter().chain(res.injected.iter()).collect()
        } else {
            res.injected.iter().collect()
        };
        out.runs += executed.len();
        out.ticks += executed.iter().map(|r| r.ticks).sum::<u64>();
        out.digests.summary(&label, "table1", table_text(&summarize(res, BEST_TD)));
        if w == Workload::PermanentFaOnline {
            let e = evaluate_detector(&res.injected, &res.baseline, BEST_TD);
            let golden_alarms = res.golden.iter().filter(|g| g.alarm_time.is_some()).count();
            out.golden_alarms += golden_alarms;
            out.digests.summary(
                &label,
                "detector",
                format!(
                    "tp={} fp={} fn={} tn={} golden_alarms={golden_alarms}",
                    e.tp, e.fp, e.fn_, e.tn
                ),
            );
        }
    }
    if let Some(c) = cell {
        out.golden_alarms += c.golden_alarms;
        let leads: Vec<String> =
            c.lead_times.iter().map(|l| format!("{:016x}", l.to_bits())).collect();
        out.digests.summary(
            "cell",
            "detector",
            format!(
                "tp={} fp={} fn={} tn={} golden_alarms={} missed={} total={} leads={}",
                c.eval.tp,
                c.eval.fp,
                c.eval.fn_,
                c.eval.tn,
                c.golden_alarms,
                c.missed_hazards,
                c.total_injected,
                text_hash(&leads.join(","))
            ),
        );
    }
    out
}

fn table_text(r: &TableRow) -> String {
    format!(
        "active={} hang_crash={} total={} accidents={} traj_violations={}",
        r.active, r.hang_crash, r.total, r.accidents, r.traj_violations
    )
}

/// Per-layer record of a traced monolithic round.
#[derive(Default)]
pub struct MonoTrace {
    pub runs: Vec<RunTrace>,
    pub captured: Vec<Captured>,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub gpu_instr: u64,
    pub cpu_instr: u64,
    pub golden_ticks: u64,
}

/// One traced round of a monolithic workload (`DIVERSEAV_PROFILE=wall`
/// is set by the caller).
pub fn traced_mono_round(inp: &Inputs, prep: &Prepared, spans: &mut Spans) -> (Round, MonoTrace) {
    let (w, sensor, scale) = (inp.workload, inp.sensor, inp.scale);
    let cache = GoldenCache::new();
    let mut tr = MonoTrace::default();
    let t = Instant::now();
    let mut results = Vec::new();
    for c in w.campaigns() {
        let det = if w == Workload::PermanentFaOnline { prep.detector.clone() } else { None };
        let traces = w == Workload::TransientLsd;
        results.push(traced_campaign(c, &scale, det, sensor, traces, &cache, spans, &mut tr));
    }
    let cell = (w == Workload::TransientLsd).then(|| {
        let (model, cfg) = prep.detector.as_ref().expect("trained in set-up");
        spans.time("core.replay", || evaluate_cell(model, *cfg, &results, BEST_TD))
    });
    let secs = t.elapsed().as_secs_f64();
    tr.cache_hits = cache.hits();
    tr.cache_misses = cache.misses();
    let executed_golden = if w == Workload::TransientLsd { 1 } else { results.len() };
    (mono_digests(w, &results, cell.as_ref(), executed_golden, secs), tr)
}

/// `run_campaign_cached`, re-orchestrated from its public pieces with a
/// phase recorder on every run.
#[allow(clippy::too_many_arguments)]
pub fn traced_campaign(
    campaign: Campaign,
    scale: &CampaignScale,
    detector: Option<(DetectorModel, DetectorConfig)>,
    sensor: SensorConfig,
    collect_traces: bool,
    cache: &GoldenCache,
    spans: &mut Spans,
    tr: &mut MonoTrace,
) -> CampaignResult {
    let scenario = scenario_for(campaign.scenario, scale);
    let capture = tr.captured.is_empty();
    let observed = |cfg: &RunConfig, golden: bool, capture: bool| {
        let mut rec = PhaseRecorder::new(capture.then_some(60));
        let t = Instant::now();
        let r = run_experiment_observed(cfg, &mut [&mut rec]);
        let run_s = t.elapsed().as_secs_f64();
        let in_loop_ns = rec.in_loop_ns;
        let trace = RunTrace { golden, run_s, ticks: rec.ticks, in_loop_ns };
        (r, trace, rec.captured)
    };
    let golden_traces: Mutex<Vec<(RunTrace, Vec<Captured>)>> = Mutex::new(Vec::new());
    let run_golden_set = || {
        let runs = par_map_indices(scale.golden_runs.max(1), |i| {
            let mut cfg =
                RunConfig::new(scenario.clone(), campaign.mode, GOLDEN_SEED_BASE + i as u64);
            cfg.sensor = sensor;
            cfg.detector = detector.clone();
            cfg.collect_training = collect_traces;
            observed(&cfg, true, capture && i == 0)
        });
        let mut golden = Vec::with_capacity(runs.len());
        let mut traces = golden_traces.lock().expect("trace buffer");
        for (r, t, c) in runs {
            golden.push(r);
            traces.push((t, c));
        }
        let trajectories: Vec<_> = golden.iter().map(|g| g.trajectory.as_slice()).collect();
        let baseline = mean_trajectory(&trajectories);
        GoldenSet { golden, baseline }
    };
    let t = Instant::now();
    let GoldenSet { golden, baseline } = match &detector {
        // Detector runs are annotated per campaign and never shared.
        Some(_) => run_golden_set(),
        None => {
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
    };
    spans.add("faultinj.golden", t.elapsed().as_secs_f64());
    for (t, c) in golden_traces.into_inner().expect("trace buffer") {
        tr.runs.push(t);
        tr.captured.extend(c);
    }
    let plan = spans.time("faultinj.plan", || {
        generate_plan(
            &golden[0],
            &PlanConfig {
                kind: campaign.kind,
                target: campaign.target,
                n_transient: scale.n_transient,
                repeats: scale.permanent_repeats,
                seed: plan_seed(&campaign),
            },
        )
    });
    let t = Instant::now();
    let runs = par_map_indices(plan.len(), |i| {
        let mut cfg =
            RunConfig::new(scenario.clone(), campaign.mode, INJECTED_SEED_BASE + i as u64);
        cfg.sensor = sensor;
        cfg.fault = Some(plan[i]);
        cfg.detector = detector.clone();
        cfg.collect_training = collect_traces;
        observed(&cfg, false, false)
    });
    spans.add("faultinj.injected", t.elapsed().as_secs_f64());
    let mut injected = Vec::with_capacity(runs.len());
    for (r, t, _) in runs {
        injected.push(r);
        tr.runs.push(t);
    }
    if tr.golden_ticks == 0 {
        tr.golden_ticks = golden.iter().map(|g| g.ticks).sum();
        tr.gpu_instr = golden.iter().map(|g| g.gpu_dyn_instr).sum();
        tr.cpu_instr = golden.iter().map(|g| g.cpu_dyn_instr).sum();
    }
    CampaignResult { campaign, golden, injected, baseline }
}

/// Per-layer record of a traced guided round.
#[derive(Default)]
pub struct ShardTrace {
    pub artifact_bytes: usize,
    pub sidecar_bytes: usize,
    pub parsed_bytes: usize,
    pub batches: usize,
    pub resumed_batches: usize,
    pub shard_calls: usize,
    pub zero_tick_runs: usize,
    pub ess: f64,
}

/// One round of the guided workload, with spans recorded into `spans`
/// (the untraced caller discards them).
pub fn guided_round(
    inp: &Inputs,
    prep: &Prepared,
    tmp: &Path,
    spans: &mut Spans,
) -> (Round, ShardTrace) {
    let (campaign, sensor, scale) = (inp.workload.campaigns()[0], inp.sensor, inp.scale);
    let mut tr = ShardTrace::default();
    fs::create_dir_all(tmp).expect("benchmark scratch directory");
    let t = Instant::now();
    let mut artifacts: Vec<ShardArtifact> = Vec::new();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut prior: Option<EpochSummary> = None;
    let mut inc_doc = String::new();
    let mut fingerprint = String::new();
    for epoch in 0..EPOCHS {
        let mut epoch_arts = Vec::new();
        for index in 0..SHARDS {
            let cfg = ShardConfig {
                campaign,
                scale,
                sensor,
                spec: ShardSpec { index, count: SHARDS },
                batch_size: prep.batch_size,
                guided: Some(GuidedShardSpec { epochs: EPOCHS, epoch, prior: prior.clone() }),
            };
            let path = tmp.join(format!("e{epoch}s{index}.jsonl"));
            let status = if epoch == 0 && index == prep.kill_shard {
                let first = spans.time("shard.execute", || {
                    execute_shard_limited(&cfg, &path, Some(1)).expect("stopped shard executes")
                });
                assert!(!first.complete, "the stopped shard holds more than one batch");
                tr.shard_calls += 1;
                spans.time("shard.resume", || execute_shard(&cfg, &path).expect("shard resumes"))
            } else {
                spans.time("shard.execute", || execute_shard(&cfg, &path).expect("shard executes"))
            };
            tr.shard_calls += 1;
            tr.batches += status.total_batches;
            tr.resumed_batches += status.resumed_batches;
            let text = fs::read_to_string(&path).expect("artifact readable");
            tr.artifact_bytes += text.len();
            tr.parsed_bytes += text.len();
            let art = spans.time("shard.parse", || parse_artifact(&text).expect("artifact parses"));
            epoch_arts.push(art);
            paths.push(path);
        }
        if epoch == 0 {
            let pilot =
                spans.time("shard.merge", || merge_artifacts(&epoch_arts).expect("pilot merges"));
            let summary = spans.time("guided.epoch_summary", || {
                guided_epoch_summary(&pilot[0]).expect("epoch summary")
            });
            // The prior crosses processes as a rendered line.
            prior = Some(EpochSummary::parse(&summary.render()).expect("summary round-trips"));
            // `collect_incidents` takes one sidecar per shard index, so a
            // multi-epoch guided set is collected on its pilot epoch.
            let sidecars: Vec<IncidentArtifact> = paths
                .iter()
                .map(|p| {
                    let text =
                        fs::read_to_string(incident_sidecar_path(p)).expect("sidecar readable");
                    tr.sidecar_bytes += text.len();
                    tr.parsed_bytes += text.len();
                    spans.time("shard.parse", || {
                        parse_incident_artifact(&text).expect("sidecar parses")
                    })
                })
                .collect();
            let incidents = spans.time("shard.incidents", || {
                collect_incidents(&pilot[0], &sidecars).expect("pilot incidents")
            });
            inc_doc = spans.time("bench.render", || merge::incidents_doc(&pilot[0], &incidents));
            fingerprint = format!("{:016x}", pilot[0].manifest.fingerprint);
        }
        artifacts.extend(epoch_arts);
    }
    let merged: Vec<MergedCampaign> =
        spans.time("shard.merge", || merge_artifacts(&artifacts).expect("campaign merges"));
    let m = &merged[0];
    let row = spans
        .time("guided.weighted_summary", || summarize_weighted(m, BEST_TD).expect("weighted row"));
    let (table, report) = spans.time("bench.render", || {
        (
            merge::weighted_table_text(&merged, BEST_TD).expect("weighted table"),
            merge::guided_report_doc(&merged, BEST_TD).expect("guided report"),
        )
    });
    let secs = t.elapsed().as_secs_f64();
    for p in &paths {
        let _ = fs::remove_file(incident_sidecar_path(p));
        let _ = fs::remove_file(p);
    }
    tr.ess = row.ess;

    let mut out = Round { secs, ..Round::default() };
    let label = campaign.to_string();
    for r in m.golden.iter().chain(m.injected.iter()) {
        out.digests.run(&label, &r.kind, r.index, shard_run_hash(r), r.deadline_misses);
        out.runs += 1;
        out.ticks += r.ticks;
        tr.zero_tick_runs += usize::from(r.ticks == 0);
    }
    // Every shard call re-runs golden run 0 as its profiling pass; the
    // merged Golden(0) is one of those passes, the others are extra
    // simulated ticks that are not counted as runs.
    let merged_golden0 = m.golden.iter().filter(|r| r.index == 0).count();
    out.ticks += (tr.shard_calls - merged_golden0) as u64 * prep.profile_ticks;
    let prior_line = prior.as_ref().map_or(String::new(), EpochSummary::render);
    out.digests.summary(&label, "epoch0_summary", format!("{:016x}", text_hash(&prior_line)));
    out.digests.summary(
        &label,
        "weighted_row",
        format!(
            "budget={} runs={} active={} hang_crash={} accidents={} traj_violations={} ess={}",
            row.budget,
            row.runs,
            json::f64_bits(row.active),
            json::f64_bits(row.hang_crash),
            json::f64_bits(row.accidents),
            json::f64_bits(row.traj_violations),
            json::f64_bits(row.ess)
        ),
    );
    out.digests.summary(&label, "weighted_table", format!("{:016x}", text_hash(&table)));
    // The campaign fingerprint folds in the profiling time source, which
    // the traced round switches; the documents are compared without it.
    let unkeyed = |doc: &str| format!("{:016x}", text_hash(&doc.replace(&fingerprint, "-")));
    out.digests.summary(&label, "guided_report", unkeyed(&report));
    out.digests.summary(&label, "pilot_incidents", unkeyed(&inc_doc));
    (out, tr)
}

/// The golden profiling run of the guided campaign with a phase recorder
/// attached, for the component probes and the instruction counts.
pub fn guided_probe_run(inp: &Inputs) -> (RunResult, Vec<Captured>) {
    let campaign = inp.workload.campaigns()[0];
    let scenario = scenario_for(campaign.scenario, &inp.scale);
    let mut rc = RunConfig::new(scenario, campaign.mode, GOLDEN_SEED_BASE);
    rc.sensor = inp.sensor;
    let mut rec = PhaseRecorder::new(Some(60));
    let r = run_experiment_observed(&rc, &mut [&mut rec]);
    (r, rec.captured)
}
