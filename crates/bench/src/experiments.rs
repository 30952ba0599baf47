//! Experiment pipelines: one entry point per table/figure of the paper.
//!
//! Every function returns a rendered plain-text report whose rows mirror
//! the corresponding artifact in the paper. DESIGN.md maps each
//! experiment id (E1..E12) to these functions; EXPERIMENTS.md records
//! paper-vs-measured values.

use crate::sweep::{evaluate_cell, sweep};
use diverseav::{AgentMode, DetectorConfig, DetectorModel, TrainSample};
use diverseav_analysis::{
    ascii_cdf, cdf_points, estimate_fit, float_bit_diffs, generate_sequence, ground_truth_controls,
    heatmap, matched_shifts, percentile, pixel_bit_diffs, Boxplot, DiversityStats,
    FaultOutcomeRates, SynthConfig, Table,
};
use diverseav_fabric::{FaultModel, Op, Profile};
use diverseav_faultinj::{
    collect_training_runs, max_traj_divergence, mean_trajectory, par_map, run_campaign_cached,
    run_experiment, scenario_for, summarize, Campaign, CampaignResult, CampaignScale,
    FaultModelKind, FaultSpec, GoldenCache, RunConfig,
};
use diverseav_runtime::{LoopObserver, PolicyDriver, SimLoop, TickContext};
use diverseav_simworld::{CameraSet, Scenario, ScenarioKind, SensorConfig, TrajPoint, World};
use std::fmt::Write as _;

/// Rolling-window sizes swept in Fig 7 (paper: 3..40).
pub const SWEEP_RWS: [usize; 7] = [3, 5, 8, 12, 20, 30, 40];
/// Trajectory thresholds swept in Fig 7 (paper: 1..5 m).
pub const SWEEP_TDS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
/// The paper's best-performing operating point (td = 2 m, rw = 3).
pub const BEST_TD: f64 = 2.0;
/// The paper's best-performing rolling window.
pub const BEST_RW: usize = 3;

/// GPU-fabric capacity (dynamic instructions per second) of the modeled
/// processor. Calibrated so the single-agent baseline lands at the paper's
/// Table-II utilization (~14% GPU); see DESIGN.md.
pub const GPU_CAPACITY: f64 = 27.5e6;
/// CPU-fabric capacity, calibrated to the paper's ~4% single-agent load.
pub const CPU_CAPACITY: f64 = 150.0e3;

/// The experiment scale selected by `DIVERSEAV_SCALE`.
pub fn scale() -> CampaignScale {
    CampaignScale::from_env()
}

/// The six GPU campaigns ({transient, permanent} × 3 scenarios) in a mode,
/// with divergence streams recorded for offline sweeps.
pub fn gpu_campaigns(mode: AgentMode, scale: &CampaignScale) -> Vec<CampaignResult> {
    let cache = GoldenCache::new();
    campaigns_for(Profile::Gpu, mode, scale, Some(&cache))
}

/// The six CPU campaigns in a mode.
pub fn cpu_campaigns(mode: AgentMode, scale: &CampaignScale) -> Vec<CampaignResult> {
    let cache = GoldenCache::new();
    campaigns_for(Profile::Cpu, mode, scale, Some(&cache))
}

/// The six campaigns ({transient, permanent} × 3 scenarios) of one
/// injection target in a mode, with divergence streams recorded.
///
/// Campaign cells fan out on the deterministic parallel engine
/// (`DIVERSEAV_THREADS`); a shared [`GoldenCache`] collapses the golden
/// sets the cells have in common (per scenario: transient + permanent —
/// and across targets when the caller shares one cache over the GPU and
/// CPU calls, the full 4× of a Table-I (scenario, mode) cell).
pub fn campaigns_for(
    target: Profile,
    mode: AgentMode,
    scale: &CampaignScale,
    cache: Option<&GoldenCache>,
) -> Vec<CampaignResult> {
    let cells: Vec<Campaign> = [FaultModelKind::Transient, FaultModelKind::Permanent]
        .into_iter()
        .flat_map(|kind| {
            ScenarioKind::safety_critical().into_iter().map(move |scenario| Campaign {
                scenario,
                target,
                kind,
                mode,
            })
        })
        .collect();
    par_map(&cells, |&campaign| {
        eprintln!("  running campaign {campaign} ...");
        run_campaign_cached(campaign, scale, None, SensorConfig::default(), true, cache)
    })
}

/// The fifteen sensor-boundary campaigns (5 fault classes × 3 safety-
/// critical scenarios) in a mode, with divergence streams recorded.
///
/// Sensor faults corrupt frames between `World::capture_into` and the
/// driver, so the fabric-target axis is vacuous; the cells are pinned to
/// `Profile::Gpu` purely to satisfy the campaign key (the injector never
/// touches the fabric). Sharing `cache` with the register campaigns
/// collapses the golden sets they have in common.
pub fn sensor_campaigns(
    mode: AgentMode,
    scale: &CampaignScale,
    cache: Option<&GoldenCache>,
) -> Vec<CampaignResult> {
    let cells: Vec<Campaign> = FaultModelKind::SENSOR_KINDS
        .into_iter()
        .flat_map(|kind| {
            ScenarioKind::safety_critical().into_iter().map(move |scenario| Campaign {
                scenario,
                target: Profile::Gpu,
                kind,
                mode,
            })
        })
        .collect();
    par_map(&cells, |&campaign| {
        eprintln!("  running campaign {campaign} ...");
        run_campaign_cached(campaign, scale, None, SensorConfig::default(), true, cache)
    })
}

/// Fault-free training streams for a mode (long routes, §III-D).
pub fn training(mode: AgentMode, scale: &CampaignScale) -> Vec<Vec<TrainSample>> {
    eprintln!("  collecting {mode} training runs ...");
    collect_training_runs(mode, scale, SensorConfig::default())
}

// ---------------------------------------------------------------------
// E1–E3: Fig 5 + §V-A — sensor data diversity and semantic consistency
// ---------------------------------------------------------------------

/// Fig 5b: per-pixel bit diversity between consecutive 40 Hz frames of
/// all three simulator cameras, over 121 ticks of each test scenario
/// driven by the ground-truth policy (EXPERIMENTS.md E1–E3 records p50 6
/// and p90 10 bits of 24; the paper measures 5 / 9). This is the property
/// the rasterizer's world texture and per-frame noise exist to provide.
pub fn sim_camera_diversity() -> DiversityStats {
    /// Accumulates bit diffs between consecutive frames of all 3 cameras.
    #[derive(Default)]
    struct CameraDiffs {
        prev: Option<Vec<diverseav_simworld::Image>>,
        diffs: Vec<u32>,
    }
    impl LoopObserver for CameraDiffs {
        fn on_tick(&mut self, ctx: &TickContext<'_>) {
            if let Some(prev) = &self.prev {
                for (p, cur) in prev.iter().zip(&ctx.frame.cameras) {
                    self.diffs.extend(pixel_bit_diffs(p, cur));
                }
            }
            self.prev = Some(ctx.frame.cameras.clone());
        }
        fn cameras(&self) -> CameraSet {
            CameraSet::ALL
        }
    }
    let mut camera_diffs = CameraDiffs::default();
    for kind in ScenarioKind::safety_critical() {
        let scenario = Scenario::of_kind(kind);
        let world = World::new(scenario, SensorConfig::default(), 0xF16);
        let mut sim = SimLoop::new(world, PolicyDriver(ground_truth_controls));
        camera_diffs.prev = None;
        sim.run_for(121, &mut [&mut camera_diffs]);
    }
    DiversityStats::of(&camera_diffs.diffs)
}

/// Fig 5a: per-value bit diversity between consecutive frames of each
/// stream of the real-world-like (synthetic KITTI) 10 Hz sequence.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct StreamDiversity {
    /// Camera, per 24-bit pixel.
    pub camera: DiversityStats,
    /// IMU+GPS, per 32-bit float.
    pub imu_gps: DiversityStats,
    /// LiDAR, per 32-bit float.
    pub lidar: DiversityStats,
}

/// Fig 5a: the bit diversity of the default synthetic-KITTI sequence's
/// camera, IMU+GPS and LiDAR streams (EXPERIMENTS.md E1–E3 records p50 /
/// p90 of 7 / 11, 12 / 16 and 10 / 17 bits; the paper measures 8 / 13,
/// 11 / 15 and 14 / 18 on KITTI).
pub fn synth_stream_diversity() -> StreamDiversity {
    let synth = generate_sequence(&SynthConfig::default());
    let (mut camera, mut imu_gps, mut lidar) = (Vec::new(), Vec::new(), Vec::new());
    for w in synth.windows(2) {
        camera.extend(pixel_bit_diffs(&w[0].camera, &w[1].camera));
        imu_gps.extend(float_bit_diffs(&w[0].imu_gps, &w[1].imu_gps));
        lidar.extend(float_bit_diffs(&w[0].lidar, &w[1].lidar));
    }
    StreamDiversity {
        camera: DiversityStats::of(&camera),
        imu_gps: DiversityStats::of(&imu_gps),
        lidar: DiversityStats::of(&lidar),
    }
}

/// Fig 5 + §V-A: bit diversity of real-world-like (synthetic KITTI) and
/// simulator sensor streams, plus semantic-consistency statistics.
pub fn fig5_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 5 / §V-A: sensor data diversity & semantic consistency ==\n");

    // --- Fig 5a: real-world-like 10 Hz sequence (KITTI substitute) ---
    let StreamDiversity { camera: cam, imu_gps: imu, lidar } = synth_stream_diversity();
    let mut t = Table::new(vec!["stream (10 Hz, real-world-like)", "bits", "p50", "p90"]);
    t.row(vec![
        "camera (per 24-bit pixel)".to_string(),
        "24".to_string(),
        format!("{:.1}", cam.p50),
        format!("{:.1}", cam.p90),
    ]);
    t.row(vec![
        "IMU+GPS (per 32-bit float)".to_string(),
        "32".to_string(),
        format!("{:.1}", imu.p50),
        format!("{:.1}", imu.p90),
    ]);
    t.row(vec![
        "LiDAR (per 32-bit float)".to_string(),
        "32".to_string(),
        format!("{:.1}", lidar.p50),
        format!("{:.1}", lidar.p90),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(out, "paper (KITTI): camera 8 / 13 bits; IMU+GPS 11 / 15; LiDAR 14 / 18\n");

    let synth = generate_sequence(&SynthConfig::default());
    let mut px_shifts = Vec::new();
    let mut world_shifts = Vec::new();
    for w in synth.windows(2) {
        px_shifts.extend(matched_shifts(&w[0].objects_px, &w[1].objects_px));
        world_shifts.extend(matched_shifts(&w[0].objects_ego, &w[1].objects_ego));
    }
    if !px_shifts.is_empty() {
        let diag = ((synth[0].camera.width() as f64).powi(2)
            + (synth[0].camera.height() as f64).powi(2))
        .sqrt();
        let _ = writeln!(
            out,
            "semantic consistency: object-center pixel shift p50 = {:.1} px, p90 = {:.1} px \
             (frame diagonal {diag:.0} px; paper: 5 / 22 px of 1296)",
            percentile(&px_shifts, 50.0),
            percentile(&px_shifts, 90.0),
        );
    }
    if !world_shifts.is_empty() {
        let _ = writeln!(
            out,
            "semantic consistency: object position shift p50 = {:.2} m, p90 = {:.2} m \
             (paper LiDAR: 0.48 / 1.26 m)\n",
            percentile(&world_shifts, 50.0),
            percentile(&world_shifts, 90.0),
        );
    }

    // --- Fig 5b: simulator cameras at 40 Hz on the test scenarios ---
    let sim = sim_camera_diversity();
    let _ = writeln!(
        out,
        "Fig 5b — simulator camera (40 Hz, 3 cameras, test scenarios): \
         p50 = {:.1} bits, p90 = {:.1} bits of 24 (paper: 5 / 9)",
        sim.p50, sim.p90
    );

    // --- Fig 2(2) example: the paper's 95 → 96 illustration ---
    let _ = writeln!(
        out,
        "\nFig 2(2) example: RGB (95,95,95) → (96,96,96) flips {} of 24 bits (paper: 18)",
        (95u8 ^ 96u8).count_ones() * 3
    );
    out
}

// ---------------------------------------------------------------------
// E4: Fig 6 — impact of DiverseAV on safety (trajectory divergence)
// ---------------------------------------------------------------------

/// Fig 6 + §V-B: trajectory divergence of the original single-agent ADS
/// and the DiverseAV-enabled ADS across golden runs.
pub fn fig6_report() -> String {
    let scale = scale();
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 6 / §V-B: trajectory divergence of golden runs ==\n");
    let mut t = Table::new(vec!["scenario", "system", "min", "q1", "median", "q3", "max (m)"]);
    let mut overall_max: f64 = 0.0;
    let mut any_collision = false;
    for kind in ScenarioKind::safety_critical() {
        let scenario = Scenario::of_kind(kind);
        let golden = |mode: AgentMode, seed0: u64| -> Vec<diverseav_faultinj::RunResult> {
            (0..scale.golden_runs)
                .map(|i| run_experiment(&RunConfig::new(scenario.clone(), mode, seed0 + i as u64)))
                .collect()
        };
        eprintln!("  fig6: golden runs for {} ...", kind.abbrev());
        let orig = golden(AgentMode::Single, 100);
        let ours = golden(AgentMode::RoundRobin, 300);
        any_collision |= orig.iter().chain(ours.iter()).any(|r| r.has_accident());
        let orig_trajs: Vec<&[TrajPoint]> = orig.iter().map(|r| r.trajectory.as_slice()).collect();
        let baseline = mean_trajectory(&orig_trajs);
        for (label, runs) in [("orig", &orig), ("ours", &ours)] {
            let divs: Vec<f64> =
                runs.iter().map(|r| max_traj_divergence(&r.trajectory, &baseline)).collect();
            let b = Boxplot::of(&divs);
            overall_max = overall_max.max(b.max);
            t.row(vec![
                kind.abbrev().to_string(),
                label.to_string(),
                format!("{:.3}", b.min),
                format!("{:.3}", b.q1),
                format!("{:.3}", b.median),
                format!("{:.3}", b.q3),
                format!("{:.3}", b.max),
            ]);
        }
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nmax divergence across all scenarios: {overall_max:.3} m (paper: < 0.5 m); \
         collisions in golden runs: {any_collision} (paper: none)"
    );
    out
}

// ---------------------------------------------------------------------
// E5 + E9: Table I — fault-propagation summary + missed-hazard rate
// ---------------------------------------------------------------------

/// Table I + §VI-A: the twelve fault-injection campaigns in DUAL
/// (DiverseAV) agent mode, with the missed-hazard probability.
pub fn table1_report() -> String {
    let scale = scale();
    let mut out = String::new();
    let _ = writeln!(out, "== Table I / §V-C: fault-injection campaign summary (DUAL mode) ==\n");
    // One golden cache across all twelve campaigns: the four campaigns of
    // each (scenario, mode) cell — {GPU, CPU} × {transient, permanent} —
    // share a single golden set (~4× cut in golden work).
    let cache = GoldenCache::new();
    let gpu = campaigns_for(Profile::Gpu, AgentMode::RoundRobin, &scale, Some(&cache));
    let cpu = campaigns_for(Profile::Cpu, AgentMode::RoundRobin, &scale, Some(&cache));
    let sensor = sensor_campaigns(AgentMode::RoundRobin, &scale, Some(&cache));
    eprintln!("  golden cache: {} misses, {} hits", cache.misses(), cache.hits());
    diverseav_obs::metrics::gauge_set("cache.entries", cache.len() as f64);
    let mut t = Table::new(vec![
        "FI target",
        "DS",
        "#Active",
        "Hang/Crash",
        "Total FI",
        "#Acc",
        "#TrajViol",
    ]);
    for c in gpu.iter().chain(cpu.iter()).chain(sensor.iter()) {
        let row = summarize(c, BEST_TD);
        // Sensor-fault rows are target-agnostic (the fault lands on the
        // frame, not a fabric): label them by the class alone.
        let fi_target = match c.campaign.kind {
            FaultModelKind::Sensor(_) => c.campaign.kind.label().to_string(),
            _ => format!("{}-{}", c.campaign.target, c.campaign.kind.label()),
        };
        t.row(vec![
            fi_target,
            c.campaign.scenario.abbrev().to_string(),
            row.active.to_string(),
            row.hang_crash.to_string(),
            row.total.to_string(),
            row.accidents.to_string(),
            row.traj_violations.to_string(),
        ]);
    }
    out.push_str(&t.render());

    // §VI-A: missed-hazard probability under the best detector params.
    let training = training(AgentMode::RoundRobin, &scale);
    let cfg = DetectorConfig::default().with_rw(BEST_RW);
    let model = DetectorModel::train(&training, &cfg);
    let all: Vec<CampaignResult> = gpu.into_iter().chain(cpu).collect();
    let cell = evaluate_cell(&model, cfg, &all, BEST_TD);
    let _ = writeln!(
        out,
        "\n§VI-A missed-hazard probability (undetected fault AND safety hazard): \
         {:.4} = {}/{} (paper: ~0.001 = 4/3189)",
        cell.missed_hazard_probability(),
        cell.missed_hazards,
        cell.total_injected
    );

    // ISO 26262 framing (paper intro): residual SDC FIT of the GPU
    // element under DiverseAV, assuming a nominal 1000-FIT raw rate.
    let mut total = 0usize;
    let mut hc = 0usize;
    let mut safety = 0usize;
    for c in &all {
        if c.campaign.target != Profile::Gpu {
            continue;
        }
        let row = summarize(c, BEST_TD);
        total += row.total;
        hc += row.hang_crash;
        safety += row.accidents + row.traj_violations;
    }
    if total > 0 {
        let rates = FaultOutcomeRates::from_counts(total, hc, safety);
        let est = estimate_fit(1000.0, &rates, cell.eval.recall());
        let _ = writeln!(
            out,
            "ISO 26262 framing: a 1000-FIT GPU element → {:.1} FIT of safety-critical \
             SDCs unprotected, {:.1} FIT residual under DiverseAV (recall {:.2}); \
             ASIL-D target: < 10 FIT.",
            est.unprotected_sdc_fit,
            est.residual_sdc_fit,
            cell.eval.recall()
        );
    }
    out
}

// ---------------------------------------------------------------------
// E6: Fig 7 — precision/recall heat maps over (td, rw)
// ---------------------------------------------------------------------

/// Shared pipeline for Fig 7/Fig 8: DiverseAV GPU campaigns + training.
pub fn detector_pipeline(scale: &CampaignScale) -> (Vec<Vec<TrainSample>>, Vec<CampaignResult>) {
    let training = training(AgentMode::RoundRobin, scale);
    let campaigns = gpu_campaigns(AgentMode::RoundRobin, scale);
    (training, campaigns)
}

/// Fig 7a/7b: precision and recall heat maps of the DiverseAV detector
/// across trajectory thresholds (td) and rolling-window sizes (rw).
pub fn fig7_report() -> String {
    let scale = scale();
    let (training, campaigns) = detector_pipeline(&scale);
    let result = sweep(&training, &campaigns, &SWEEP_RWS, &SWEEP_TDS, DetectorConfig::default());
    let row_keys: Vec<String> = result.rws.iter().map(|r| r.to_string()).collect();
    let col_keys: Vec<String> = result.tds.iter().map(|t| format!("{t:.0}m")).collect();
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 7 / §V-D: detector precision & recall over (td, rw) ==\n");
    out.push_str(&heatmap(
        "Fig 7a — precision",
        "rw",
        &row_keys,
        "td",
        &col_keys,
        &result.precision,
    ));
    out.push('\n');
    out.push_str(&heatmap("Fig 7b — recall", "rw", &row_keys, "td", &col_keys, &result.recall));
    out.push('\n');
    out.push_str(&heatmap("F1 (selection metric)", "rw", &row_keys, "td", &col_keys, &result.f1));
    let (brw, btd) = result.best;
    let cfg = DetectorConfig::default().with_rw(brw);
    let model = DetectorModel::train(&training, &cfg);
    let cell = evaluate_cell(&model, cfg, &campaigns, btd);
    let _ = writeln!(
        out,
        "\nbest cell: td = {btd:.0} m, rw = {brw} → precision {:.2}, recall {:.2} \
         (paper: td = 2, rw = 3 → 0.87 / 0.87); golden-run false alarms: {}",
        cell.eval.precision(),
        cell.eval.recall(),
        cell.golden_alarms
    );
    out
}

// ---------------------------------------------------------------------
// E7: Fig 8 — lead detection time CDF
// ---------------------------------------------------------------------

/// Fig 8: CDF of lead detection time at the best operating point.
pub fn fig8_report() -> String {
    let scale = scale();
    let (training, campaigns) = detector_pipeline(&scale);
    let cfg = DetectorConfig::default().with_rw(BEST_RW);
    let model = DetectorModel::train(&training, &cfg);
    let cell = evaluate_cell(&model, cfg, &campaigns, BEST_TD);
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 8 / §V-D: lead detection time (td = 2 m, rw = 3) ==\n");
    if cell.lead_times.is_empty() {
        let _ = writeln!(out, "(no true positives at this scale)");
        return out;
    }
    let pts = cdf_points(&cell.lead_times);
    out.push_str(&ascii_cdf("lead detection time CDF (seconds)", &pts, 56, 12));
    let below_1s = cell.lead_times.iter().filter(|&&l| l < 1.0).count();
    let _ = writeln!(
        out,
        "\n{} detected safety-critical runs; min lead {:.2} s, median {:.2} s; \
         {} below 1.0 s (paper: lead times significantly above 1.0 s, human/AV \
         braking reaction ≈ 0.82–0.85 s)",
        cell.lead_times.len(),
        percentile(&cell.lead_times, 0.0),
        percentile(&cell.lead_times, 50.0),
        below_1s
    );
    out
}

// ---------------------------------------------------------------------
// E8: Table II — resource overhead
// ---------------------------------------------------------------------

/// Table II: compute utilization and memory of single-agent, DiverseAV,
/// and fully-duplicated deployments.
pub fn table2_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table II / §V-E: average system resources ==\n");
    let scenario = Scenario::of_kind(ScenarioKind::LeadSlowdown);
    let mut t = Table::new(vec!["system", "CPU", "GPU", "RAM", "VRAM", "processors"]);
    let mut single_mem = (0usize, 0usize);
    for (label, mode) in [
        ("Single Agent", AgentMode::Single),
        ("DiverseAV", AgentMode::RoundRobin),
        ("FD*", AgentMode::Duplicate),
    ] {
        eprintln!("  table2: measuring {label} ...");
        let mut cfg = RunConfig::new(scenario.clone(), mode, 0x7AB2);
        cfg.scenario.duration = 10.0;
        let r = run_experiment(&cfg);
        let sim_secs = r.end_time.max(1e-9);
        // Per-processor utilization (unit 0; FD's unit 1 is symmetric).
        let gpu_util = r.gpu_dyn_instr as f64 / sim_secs / GPU_CAPACITY * 100.0;
        let cpu_util = r.cpu_dyn_instr as f64 / sim_secs / CPU_CAPACITY * 100.0;
        // Memory across *all* agent instances.
        let ads = diverseav::Ads::new(diverseav::AdsConfig::for_mode(mode, 1));
        let (vram, ram) = ads.memory_bytes();
        if mode == AgentMode::Single {
            single_mem = (vram, ram);
        }
        t.row(vec![
            label.to_string(),
            format!("{cpu_util:.0}%"),
            format!("{gpu_util:.0}%"),
            format!("{} B ({}x)", ram, ram / single_mem.1.max(1)),
            format!("{} KB ({}x)", vram / 1024, vram / single_mem.0.max(1)),
            mode.n_units().to_string(),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\n*: FD utilization is per processor; FD needs double the processors.\n\
         paper: Single 4%/14%/431MB/198MB; DiverseAV 5%/15%/862MB/396MB; FD 4%/14%/862MB/396MB.\n\
         Shape to reproduce: DiverseAV ≈ single-agent compute on ONE processor with 2x memory;\n\
         FD matches per-processor compute but doubles processors and memory."
    );
    out
}

// ---------------------------------------------------------------------
// E10 + E11: §VI-B / §VI-C — baseline comparison
// ---------------------------------------------------------------------

/// §VI-B/§VI-C: DiverseAV vs fully-duplicated ADS vs single-agent
/// temporal-outlier detection, on GPU fault campaigns.
pub fn compare_report() -> String {
    let scale = scale();
    // Full quick scale per system (the paper used 500 runs per scenario
    // per system).
    let cmp_scale = scale;
    let mut out = String::new();
    let _ = writeln!(out, "== §VI-B/§VI-C: detector comparison on GPU faults ==\n");
    let mut t = Table::new(vec!["system", "precision", "recall", "F1", "golden false alarms"]);
    for (label, mode, paper) in [
        ("DiverseAV", AgentMode::RoundRobin, "0.87 / 0.87"),
        ("FD-ADS", AgentMode::Duplicate, "0.18 / 0.84"),
        ("Single-agent", AgentMode::Single, "0.17 / 0.52"),
    ] {
        let training = training(mode, &cmp_scale);
        let campaigns = gpu_campaigns(mode, &cmp_scale);
        let cfg = DetectorConfig::default().with_rw(BEST_RW);
        let model = DetectorModel::train(&training, &cfg);
        let cell = evaluate_cell(&model, cfg, &campaigns, BEST_TD);
        t.row(vec![
            format!("{label} (paper {paper})"),
            format!("{:.2}", cell.eval.precision()),
            format!("{:.2}", cell.eval.recall()),
            format!("{:.2}", cell.eval.f1()),
            cell.golden_alarms.to_string(),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nPaper shape: DiverseAV dominates on precision (0.87 vs 0.18/0.17) with recall\n\
         comparable to FD. Known deviation at quick scale (EXPERIMENTS.md, DESIGN.md §7):\n\
         our discretized pipeline masks most benign corruptions completely, so FD's\n\
         false-positive *count* stays low even though its FP *rate* on benign runs\n\
         matches the paper's; the ordering tightens at DIVERSEAV_SCALE=paper where\n\
         benign transients dominate the run mix."
    );
    out
}

// ---------------------------------------------------------------------
// E12: Fig 2(3)(4) — actuation & CVIP traces
// ---------------------------------------------------------------------

/// Fig 2(3)(4): throttle and CVIP traces for the lead-slowdown scenario,
/// fault-free and under a permanent GPU fault, original vs DiverseAV.
pub fn fig2_report() -> String {
    let scenario = Scenario::of_kind(ScenarioKind::LeadSlowdown);
    let run = |mode: AgentMode, fault: Option<FaultSpec>, seed: u64| {
        let mut cfg = RunConfig::new(scenario.clone(), mode, seed);
        cfg.fault = fault;
        cfg.collect_training = true;
        run_experiment(&cfg)
    };
    let fault = Some(FaultSpec::Fabric {
        unit: 0,
        profile: Profile::Gpu,
        model: FaultModel::Permanent { op: Op::FMax, mask: 1 << 21 },
    });
    eprintln!("  fig2: tracing fault-free and faulty runs ...");
    let orig_ok = run(AgentMode::Single, None, 0xF260);
    let ours_ok = run(AgentMode::RoundRobin, None, 0xF260);
    let orig_bad = run(AgentMode::Single, fault, 0xF261);
    let ours_bad = run(AgentMode::RoundRobin, fault, 0xF261);

    let mut out = String::new();
    let _ = writeln!(out, "== Fig 2(3)(4): lead-slowdown traces, orig vs DiverseAV ==\n");
    for (title, orig, ours) in [
        ("fault-free (Fig 2(3))", &orig_ok, &ours_ok),
        ("permanent GPU fault (Fig 2(4))", &orig_bad, &ours_bad),
    ] {
        let _ = writeln!(out, "--- {title} ---");
        let mut t = Table::new(vec![
            "t (s)",
            "thr orig",
            "cvip orig",
            "thr ours",
            "cvip ours",
            "|div| ours (rw=3)",
        ]);
        let sample_every = 40; // 1 Hz rows from the 40 Hz trace
        let mut window = [0.0f64; 3];
        for (i, (ti, c, cvip)) in ours.actuation.iter().enumerate() {
            let div = ours
                .training
                .get(i.saturating_sub(1))
                .map(|s| s.div.throttle.max(s.div.brake).max(s.div.steer))
                .unwrap_or(0.0);
            window[i % 3] = div;
            if i % sample_every == 0 {
                let o = orig.actuation.get(i);
                t.row(vec![
                    format!("{ti:.1}"),
                    o.map(|(_, oc, _)| format!("{:.2}", oc.throttle)).unwrap_or_else(|| "-".into()),
                    o.map(|(_, _, ocv)| fmt_cvip(*ocv)).unwrap_or_else(|| "-".into()),
                    format!("{:.2}", c.throttle),
                    fmt_cvip(*cvip),
                    format!("{:.3}", window.iter().sum::<f64>() / 3.0),
                ]);
            }
        }
        out.push_str(&t.render());
        let _ = writeln!(
            out,
            "orig ended: {:?} (collision: {:?}); ours ended: {:?} (collision: {:?})\n",
            orig.termination, orig.collision_time, ours.termination, ours.collision_time
        );
    }
    out.push_str(
        "Shape to reproduce: fault-free traces of orig and ours nearly coincide; under the\n\
         permanent fault, the single-agent throttle stays plausible-looking while the\n\
         DiverseAV inter-agent divergence becomes large and detectable.\n",
    );
    out
}

fn fmt_cvip(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "-".to_string()
    }
}

/// Run a scenario with the ground-truth driver to a finished world (used
/// by diversity studies and tests).
pub fn drive_ground_truth(kind: ScenarioKind, seed: u64) -> World {
    let scale = scale();
    let scenario = scenario_for(kind, &scale);
    let world = World::new(scenario, SensorConfig::default(), seed);
    let mut sim = SimLoop::new(world, PolicyDriver(ground_truth_controls));
    sim.run();
    sim.into_parts().0
}
