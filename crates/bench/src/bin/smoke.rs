//! End-to-end smoke run: a miniature version of the detector evaluation
//! pipeline, for fast sanity checks during development — plus a
//! sequential-vs-parallel timing comparison of one quick campaign and a
//! guided-vs-uniform yield comparison at a matched run budget.
//!
//! ```text
//! cargo run --release -p diverseav-bench --bin smoke
//! ```

use diverseav::{AgentMode, DetectorConfig, DetectorModel};
use diverseav_bench::evaluate_cell;
use diverseav_bench::experiments::{gpu_campaigns, training, BEST_RW, BEST_TD};
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    detected_parallelism, execute_shard, guided_epoch_summary, is_safety_critical, merge_artifacts,
    par_map_indices, parse_artifact, run_campaign_cached, summarize, summarize_weighted,
    thread_count, Campaign, CampaignScale, FaultModelKind, GuidedShardSpec, MergedCampaign,
    ShardArtifact, ShardConfig, ShardSpec,
};
use diverseav_obs::{journal, metrics};
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::fs;
use std::time::Instant;

/// Run a guided campaign as the single shard 0/1, one epoch at a time
/// (each epoch planned against the merged summary of the ones before
/// it), with its artifacts in a temporary directory. Returns the merged
/// campaign.
fn guided_campaign(campaign: Campaign, scale: CampaignScale, epochs: usize) -> MergedCampaign {
    let dir = std::env::temp_dir().join(format!("diverseav-smoke-guided-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create guided scratch directory");
    let merge = |artifacts: &[ShardArtifact]| {
        merge_artifacts(artifacts).expect("guided epochs merge").remove(0)
    };
    let mut artifacts = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let prior = match epoch {
            0 => None,
            _ => Some(guided_epoch_summary(&merge(&artifacts)).expect("epoch summary")),
        };
        let cfg = ShardConfig {
            campaign,
            scale,
            sensor: SensorConfig::default(),
            spec: ShardSpec { index: 0, count: 1 },
            batch_size: 64,
            guided: Some(GuidedShardSpec { epochs, epoch, prior }),
        };
        let path = dir.join(format!("epoch{epoch}.jsonl"));
        execute_shard(&cfg, &path).expect("guided epoch executes");
        let text = fs::read_to_string(&path).expect("guided artifact readable");
        artifacts.push(parse_artifact(&text).expect("guided artifact parses"));
    }
    fs::remove_dir_all(&dir).expect("remove guided scratch directory");
    merge(&artifacts)
}

fn main() {
    let scale = CampaignScale {
        n_transient: 10,
        permanent_repeats: 1,
        golden_runs: 4,
        long_route_duration: 100.0,
        training_runs: 2,
    };

    let cores = detected_parallelism();
    let threads = thread_count();
    println!("detected cores: {cores}; engine threads (DIVERSEAV_THREADS): {threads}\n");

    let tr = training(AgentMode::RoundRobin, &scale);
    let campaigns = gpu_campaigns(AgentMode::RoundRobin, &scale);
    for c in &campaigns {
        let row = summarize(c, BEST_TD);
        println!(
            "{}: active={} hang/crash={} accidents={} traj-violations={} total={}",
            c.campaign, row.active, row.hang_crash, row.accidents, row.traj_violations, row.total
        );
    }
    let cfg = DetectorConfig::default().with_rw(BEST_RW);
    let model = DetectorModel::train(&tr, &cfg);
    let cell = evaluate_cell(&model, cfg, &campaigns, BEST_TD);
    println!(
        "\ndetector @ td={BEST_TD} rw={BEST_RW}: precision={:.2} recall={:.2} \
         golden-false-alarms={} missed-hazard-p={:.4}",
        cell.eval.precision(),
        cell.eval.recall(),
        cell.golden_alarms,
        cell.missed_hazard_probability()
    );
    assert_eq!(cell.golden_alarms, 0, "golden runs must not alarm");

    // Sequential-vs-parallel wall clock on one quick campaign. The
    // engine honors an explicit thread count through par_map_with, but
    // campaign fan-out reads DIVERSEAV_THREADS at call time, so drive
    // the comparison by timing the same campaign under both settings
    // via explicit thread counts on a run batch plus the full campaign
    // at the ambient setting.
    let campaign = Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Transient,
        mode: AgentMode::RoundRobin,
    };
    println!("\ntiming one quick campaign ({campaign}) sequential vs parallel ...");
    let time_with = |label: &str, threads: usize| -> f64 {
        std::env::set_var("DIVERSEAV_THREADS", threads.to_string());
        let ticks_before = metrics::counter_get("runtime.ticks");
        let start = Instant::now();
        let result =
            run_campaign_cached(campaign, &scale, None, SensorConfig::default(), true, None);
        let secs = start.elapsed().as_secs_f64();
        let ticks = metrics::counter_get("runtime.ticks") - ticks_before;
        let runs = result.golden.len() + result.injected.len();
        println!(
            "  {label:<28} {secs:>8.3} s  ({runs} runs, {:.1} runs/s, {:.0} ticks/s)",
            runs as f64 / secs,
            ticks as f64 / secs
        );
        secs
    };
    let plural = |n: usize| if n == 1 { "thread" } else { "threads" };
    let seq = time_with(&format!("sequential (1 {})", plural(1)), 1);
    let par = time_with(&format!("parallel ({cores} {})", plural(cores)), cores);
    std::env::remove_var("DIVERSEAV_THREADS");
    println!("  speedup: {:.2}x on {cores} core(s)", seq / par);

    // Determinism spot check alongside the timing: identical slot order
    // from the engine regardless of thread count.
    let a = par_map_indices(32, |i| i * 7 + 1);
    let b: Vec<usize> = (0..32).map(|i| i * 7 + 1).collect();
    assert_eq!(a, b, "engine must be order-identical to sequential");

    // Guided-vs-uniform yield at a matched run budget. The budget is big
    // enough for the pilot epoch to find signal, but a few dozen runs is
    // still a high-variance estimate — treat the lines as a diagnostic,
    // not a benchmark (the stable guided win is variance, not raw yield;
    // see the budget-vs-variance table in EXPERIMENTS.md).
    let yscale = CampaignScale { n_transient: 24, ..scale };
    println!("\nguided-vs-uniform yield ({campaign}, matched budget) ...");
    let yield_line = |label: &str, secs: f64, runs: usize, crit: u64| {
        println!("  {label:<28} {crit:>3} safety-critical / {runs} runs ({secs:.3} s)");
    };
    let start = Instant::now();
    let uniform =
        run_campaign_cached(campaign, &yscale, None, SensorConfig::default(), false, None);
    let ucrit = uniform
        .injected
        .iter()
        .filter(|r| is_safety_critical(r.incident.map(|k| k.label())))
        .count() as u64;
    yield_line("uniform yield", start.elapsed().as_secs_f64(), uniform.injected.len(), ucrit);
    let start = Instant::now();
    let guided = guided_campaign(campaign, yscale, 2);
    let gcrit =
        guided.injected.iter().filter(|r| is_safety_critical(r.incident.as_deref())).count() as u64;
    let gsecs = start.elapsed().as_secs_f64();
    yield_line("guided yield (2 epochs)", gsecs, guided.injected.len(), gcrit);
    let wrow = summarize_weighted(&guided, BEST_TD).expect("all epochs merged");
    println!(
        "  weighted Table-I estimates: active {:.2}, hang/crash {:.2}, accidents {:.2}, \
         traj-violations {:.2} (ESS {:.1} of {} runs)",
        wrow.active, wrow.hang_crash, wrow.accidents, wrow.traj_violations, wrow.ess, wrow.runs,
    );

    let deadline_ticks = metrics::counter_get("deadline.ticks");
    if deadline_ticks > 0 {
        let total = metrics::hist_get("tick.total");
        println!(
            "\n40 Hz deadline: {} / {deadline_ticks} ticks over 25 ms \
             (tick total p50 {:.2} ms, p99 {:.2} ms, worst {:.2} ms)",
            metrics::counter_get("deadline.misses"),
            total.p50() as f64 / 1e6,
            total.p99() as f64 / 1e6,
            metrics::gauge_get("deadline.worst_ns").unwrap_or(0.0) / 1e6,
        );
    }

    diverseav_bench::flush_metrics_json("METRICS_campaigns.json")
        .expect("write METRICS_campaigns.json");
    println!(
        "\nwrote METRICS_campaigns.json (cache {} hits / {} misses; {} alarms; {} sdc outcomes)",
        metrics::counter_get("cache.hits"),
        metrics::counter_get("cache.misses"),
        metrics::counter_get("campaign.alarms"),
        metrics::counter_get("outcome.sdc"),
    );
    if let Some(path) = journal::flush_if_enabled().expect("write trace journal") {
        println!("wrote {path} ({} journal lines)", journal::len());
    }
}
