//! Determinism gate for the flight recorder: incident payloads (the
//! drained per-run flight rings) must be pure functions of the campaign
//! seeds — bit-identical across `DIVERSEAV_THREADS` settings and across
//! shard/monolithic execution — so incident artifacts can ride the shard
//! partitioner and the exactly-once merge unchanged, across every epoch
//! of a guided campaign too. Raw shard artifacts and their sidecars are
//! byte-identical across thread counts as a whole. The recorder
//! carries no wall-clock state (lint Gate 4 enforces the absence of time
//! sources at the source level; this test enforces it at the bit level).

use diverseav::{AgentMode, DetectorConfig, DetectorModel};
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    collect_incidents, collect_training_runs, execute_shard, guided_epoch_summary,
    incident_sidecar_path, merge_artifacts, parse_artifact, parse_incident_artifact,
    run_campaign_cached, run_record, Campaign, CampaignScale, FaultModelKind, GuidedShardSpec,
    IncidentArtifact, IncidentRecord, MergedCampaign, SensorFaultKind, ShardConfig, ShardError,
    ShardSpec,
};
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::path::Path;
use std::sync::Mutex;

/// Serializes the tests that mutate `DIVERSEAV_THREADS` (process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn tiny_scale() -> CampaignScale {
    CampaignScale {
        n_transient: 4,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 20.0,
        training_runs: 1,
    }
}

fn sensor_campaign(class: SensorFaultKind) -> Campaign {
    Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Sensor(class),
        mode: AgentMode::RoundRobin,
    }
}

/// A GPU-permanent fabric cell on a short route. Its hangs and crashes
/// flush incidents even in shards, which run without a detector.
fn gpu_permanent() -> (Campaign, CampaignScale) {
    let campaign = Campaign {
        scenario: ScenarioKind::LongRoute(0),
        target: Profile::Gpu,
        kind: FaultModelKind::Permanent,
        mode: AgentMode::RoundRobin,
    };
    (campaign, CampaignScale { long_route_duration: 0.25, ..tiny_scale() })
}

/// Train the paper's detector on the fault-free runs — detector
/// telemetry is what the recorder packs into every tick, so the
/// incident-payload comparison must exercise it.
fn detector() -> (DetectorModel, DetectorConfig) {
    let tr = collect_training_runs(AgentMode::RoundRobin, &tiny_scale(), SensorConfig::default());
    let cfg = DetectorConfig::default().with_rw(3);
    (DetectorModel::train(&tr, &cfg), cfg)
}

/// Run a detector-equipped campaign and render every incident in the
/// lossless bit-hex line encoding, so comparisons are bit-exact
/// (including NaN payloads, which `PartialEq` would mishandle).
fn render_incident_lines(campaign: Campaign) -> Vec<String> {
    let r = run_campaign_cached(
        campaign,
        &tiny_scale(),
        Some(detector()),
        SensorConfig::default(),
        false,
        None,
    );
    let label = campaign.to_string();
    let mut out = Vec::new();
    for (kind, runs) in [("golden", &r.golden), ("injected", &r.injected)] {
        for (i, run) in runs.iter().enumerate() {
            let record = run_record(&label, kind, i, run);
            if let Some(rec) = IncidentRecord::new(&record, run.flight.clone()) {
                out.push(rec.render_merged());
            }
        }
    }
    out
}

#[test]
fn incident_payloads_are_bit_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let campaign = sensor_campaign(SensorFaultKind::Dropout);
    std::env::set_var("DIVERSEAV_THREADS", "1");
    let single = render_incident_lines(campaign);
    std::env::set_var("DIVERSEAV_THREADS", "4");
    let multi = render_incident_lines(campaign);
    std::env::remove_var("DIVERSEAV_THREADS");
    assert!(!single.is_empty(), "campaign produced no incidents — the comparison would be vacuous");
    assert_eq!(single, multi, "flight recordings vary with DIVERSEAV_THREADS");
}

/// A raw shard artifact and its sidecar hold only what the seeds
/// determine: the GPU-permanent cell writes the same bytes at 1 and at 4
/// threads.
#[test]
fn raw_shard_artifacts_are_byte_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    let dir = std::env::temp_dir().join(format!("flight_threads_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (campaign, scale) = gpu_permanent();
    let cfg = ShardConfig {
        campaign,
        scale,
        sensor: SensorConfig::default(),
        spec: ShardSpec { index: 0, count: 1 },
        batch_size: 2,
        guided: None,
    };
    let run = |threads: &str| {
        std::env::set_var("DIVERSEAV_THREADS", threads);
        let path = dir.join(format!("threads{threads}.jsonl"));
        execute_shard(&cfg, &path).expect("shard executes");
        let read = |p: &Path| std::fs::read_to_string(p).expect("shard output readable");
        (read(&path), read(&incident_sidecar_path(&path)))
    };
    let (artifact, sidecar) = run("1");
    let multi = run("4");
    std::env::remove_var("DIVERSEAV_THREADS");
    assert!(
        sidecar.lines().any(|l| l.starts_with("{\"type\": \"incident\"")),
        "no incident payload — the sidecar comparison would be vacuous"
    );
    assert!(artifact == multi.0, "shard artifact varies with DIVERSEAV_THREADS");
    assert!(sidecar == multi.1, "incident sidecar varies with DIVERSEAV_THREADS");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_and_monolithic_incident_sets_agree_bit_for_bit() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    std::env::remove_var("DIVERSEAV_THREADS");
    let dir = std::env::temp_dir().join(format!("flight_determinism_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Shards run without a detector, so the sensor cell flushes no
    // incident; the GPU-permanent cell's hangs and crashes do.
    let cells = [(sensor_campaign(SensorFaultKind::OutlierBurst), tiny_scale()), gpu_permanent()];

    // Collect every cell's incidents from an n-shard split, for both
    // n=1 (the monolithic layout) and n=3.
    let collect = |count: usize, tag: &str| {
        let mut lines = Vec::new();
        for (cell, &(campaign, scale)) in cells.iter().enumerate() {
            lines.extend(collect_cell(campaign, scale, count, &dir, &format!("{tag}{cell}")));
        }
        lines
    };
    let monolithic = collect(1, "mono");
    assert!(!monolithic.is_empty(), "no incident collected — the comparison would be vacuous");
    let sharded = collect(3, "split");
    assert_eq!(monolithic, sharded, "shard/monolithic incident payloads diverge");
    std::fs::remove_dir_all(&dir).ok();
}

/// Run one campaign cell in `count` shards and render its collected
/// incidents.
fn collect_cell(
    campaign: Campaign,
    scale: CampaignScale,
    count: usize,
    dir: &Path,
    tag: &str,
) -> Vec<String> {
    let mut artifacts = Vec::new();
    let mut sidecars = Vec::new();
    for index in 0..count {
        let cfg = ShardConfig {
            campaign,
            scale,
            sensor: SensorConfig::default(),
            spec: ShardSpec { index, count },
            batch_size: 2,
            guided: None,
        };
        let path = dir.join(format!("{tag}_shard{index}.jsonl"));
        execute_shard(&cfg, &path).expect("shard executes");
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        artifacts.push(parse_artifact(&text).expect("artifact parses"));
        let side = std::fs::read_to_string(incident_sidecar_path(&path))
            .expect("every shard writes an incident sidecar");
        sidecars.push(parse_incident_artifact(&side).expect("sidecar parses"));
    }
    let merged = merge_artifacts(&artifacts).expect("shards merge");
    assert_eq!(merged.len(), 1);
    let collected = collect_incidents(&merged[0], &sidecars).expect("incident sets collect");
    collected.iter().map(IncidentRecord::render_merged).collect()
}

/// Run a two-epoch guided campaign of permanent GPU faults on a short
/// route in `count` shards, each epoch steered by the merged summary of
/// the epochs before it, and return the merge of both epochs with every
/// sidecar in (epoch, shard) order. Permanent faults crash and hang in
/// both epochs.
fn guided_set(count: usize, dir: &Path, tag: &str) -> (MergedCampaign, Vec<IncidentArtifact>) {
    let (campaign, scale) = gpu_permanent();
    let (mut artifacts, mut sidecars, mut prior, mut merged) = (Vec::new(), Vec::new(), None, None);
    for epoch in 0..2 {
        for index in 0..count {
            let cfg = ShardConfig {
                campaign,
                scale,
                sensor: SensorConfig::default(),
                spec: ShardSpec { index, count },
                batch_size: 2,
                guided: Some(GuidedShardSpec { epochs: 2, epoch, prior: prior.clone() }),
            };
            let path = dir.join(format!("{tag}_e{epoch}s{index}.jsonl"));
            execute_shard(&cfg, &path).expect("guided shard executes");
            let text = std::fs::read_to_string(&path).expect("artifact readable");
            artifacts.push(parse_artifact(&text).expect("artifact parses"));
            let side = std::fs::read_to_string(incident_sidecar_path(&path)).expect("sidecar");
            sidecars.push(parse_incident_artifact(&side).expect("sidecar parses"));
        }
        let m = merge_artifacts(&artifacts).expect("epoch prefix merges").remove(0);
        prior = Some(guided_epoch_summary(&m).expect("epoch summary"));
        merged = Some(m);
    }
    (merged.expect("two epochs merged"), sidecars)
}

#[test]
fn guided_incident_sets_collect_across_epochs() {
    let _guard = ENV_LOCK.lock().expect("env lock");
    std::env::remove_var("DIVERSEAV_THREADS");
    let dir = std::env::temp_dir().join(format!("flight_guided_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let render = |incidents: Vec<IncidentRecord>| {
        incidents.iter().map(IncidentRecord::render_merged).collect::<Vec<String>>()
    };
    let (mono, mono_sidecars) = guided_set(1, &dir, "mono");
    let (split, sidecars) = guided_set(3, &dir, "split");
    let collected = collect_incidents(&split, &sidecars).expect("both epochs collect");
    let epoch1 = split.guided.as_ref().expect("guided merge").epoch_starts[1];
    assert!(
        collected.iter().any(|r| r.kind == "injected" && r.index >= epoch1),
        "no epoch-1 incident — the comparison would not cover epoch 1"
    );
    let mono_collected = collect_incidents(&mono, &mono_sidecars).expect("both epochs collect");
    assert_eq!(render(mono_collected), render(collected), "guided incident sets diverge");

    // Refusals. Sidecars come in (epoch, shard) order.
    let refused =
        |m: &MergedCampaign, set: Vec<IncidentArtifact>, what: &str| match collect_incidents(
            m, &set,
        ) {
            Err(ShardError::Mismatch(msg)) => msg,
            other => panic!("{what}: expected a mismatch, got {other:?}"),
        };
    let msg = refused(&split, sidecars[..5].to_vec(), "missing epoch-1 sidecar");
    assert!(msg.contains("epoch 1 shard 2/3 is missing"), "{msg}");
    let mut swapped = mono_sidecars.clone();
    swapped[1] = mono_sidecars[0].clone();
    refused(&mono, swapped, "epoch-0 sidecar in place of epoch 1's");
    let mut swapped = sidecars.clone();
    swapped[3] = sidecars[0].clone();
    refused(&split, swapped, "epoch-0 sidecar in place of epoch 1's (3 shards)");
    let mut twice = sidecars.clone();
    twice.push(sidecars[4].clone());
    let msg = refused(&split, twice, "duplicated sidecar");
    assert!(msg.contains("epoch 1 shard 1/3 supplied more than once"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard artifact owes nothing to what its process ran before: the
/// same shard written before and after a Duplicate-mode campaign (whose
/// every tick misses the deadline, far past this shard's worst) is the
/// same bytes.
#[test]
fn shard_artifacts_are_independent_of_process_history() {
    let dir = std::env::temp_dir().join(format!("flight_history_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let campaign = Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Transient,
        mode: AgentMode::RoundRobin,
    };
    let cfg = ShardConfig {
        campaign,
        scale: tiny_scale(),
        sensor: SensorConfig::default(),
        spec: ShardSpec { index: 0, count: 1 },
        batch_size: 2,
        guided: None,
    };
    let run = |name: &str| {
        let path = dir.join(name);
        execute_shard(&cfg, &path).expect("shard executes");
        std::fs::read_to_string(&path).expect("shard output readable")
    };
    let before = run("before.jsonl");
    let duplicate = Campaign { mode: AgentMode::Duplicate, ..campaign };
    run_campaign_cached(duplicate, &tiny_scale(), None, SensorConfig::default(), false, None);
    let after = run("after.jsonl");
    assert!(before == after, "shard artifact depends on what the process ran before");
    std::fs::remove_dir_all(&dir).ok();
}
