//! End-to-end guided-campaign equivalence: a 2-epoch adaptive campaign
//! cut into 3 shards — one of them killed at a checkpoint and resumed,
//! the pilot summary handed to epoch 1 through the rendered
//! epoch-summary line — must merge byte-identically to the monolithic
//! (1-shard) guided path, and the weighted Table-I cells must satisfy
//! the `guided_expected` fixture machinery that the `guided-verify` CI
//! job runs against `tests/fixtures/guided_expected_lsd.json`.

use diverseav::AgentMode;
use diverseav_bench::{merge, tracecheck};
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    execute_shard, execute_shard_limited, guided_epoch_summary, merge_artifacts, parse_artifact,
    summarize_weighted, Campaign, CampaignScale, EpochSummary, FaultModelKind, GuidedShardSpec,
    ShardArtifact, ShardConfig, ShardSpec,
};
use diverseav_obs::json;
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::fs;
use std::path::PathBuf;

const TD: f64 = 2.0;
const EPOCHS: usize = 2;

fn tiny_scale() -> CampaignScale {
    CampaignScale {
        n_transient: 6,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 8.0,
        training_runs: 1,
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("diverseav-guided-verify-{}-{name}", std::process::id()))
}

/// Execute every shard of one guided epoch, killing each at its first
/// checkpoint and resuming — the CI job does this to one shard; doing
/// it to all of them is a strict superset. Returns the parsed
/// artifacts and how many shards actually stopped short.
fn run_epoch(
    campaign: Campaign,
    scale: CampaignScale,
    shards: usize,
    epoch: usize,
    prior: Option<&EpochSummary>,
) -> (Vec<ShardArtifact>, usize) {
    let mut artifacts = Vec::new();
    let mut interrupted = 0;
    for index in 0..shards {
        let cfg = ShardConfig {
            campaign,
            scale,
            sensor: SensorConfig::default(),
            spec: ShardSpec { index, count: shards },
            batch_size: 1,
            guided: Some(GuidedShardSpec { epochs: EPOCHS, epoch, prior: prior.cloned() }),
        };
        let path = scratch(&format!("e{epoch}s{index}of{shards}.jsonl"));
        let _ = fs::remove_file(&path);
        let first = execute_shard_limited(&cfg, &path, Some(1)).expect("capped shard executes");
        if !first.complete {
            interrupted += 1;
            let resumed = execute_shard(&cfg, &path).expect("killed shard resumes");
            assert!(resumed.complete, "resume must finish the shard");
            assert!(resumed.resumed_batches >= 1, "resume must adopt the checkpointed batch");
        }
        let art = parse_artifact(&fs::read_to_string(&path).expect("artifact readable"))
            .expect("artifact parses");
        let _ = fs::remove_file(&path);
        artifacts.push(art);
    }
    (artifacts, interrupted)
}

#[test]
fn guided_shards_merge_bit_identical_to_monolithic_and_satisfy_fixture_gate() {
    let campaign = Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Transient,
        mode: AgentMode::RoundRobin,
    };
    let scale = tiny_scale();

    // Sharded path: pilot epoch across 3 shards, kill-and-resume, then
    // the adaptive epoch steered by the merged pilot summary.
    let (pilot_arts, interrupted) = run_epoch(campaign, scale, 3, 0, None);
    assert!(interrupted >= 1, "some shard must hold >= 2 batches and get interrupted");
    let pilot_merge = merge_artifacts(&pilot_arts).expect("pilot epoch merges as a prefix");
    assert_eq!(pilot_merge.len(), 1);
    let summary = guided_epoch_summary(&pilot_merge[0]).expect("pilot summary renders");

    // The prior crosses processes as a rendered line in CI; prove the
    // round-trip is lossless (digest included) before reusing it.
    let prior = EpochSummary::parse(&summary.render()).expect("summary line round-trips");
    assert_eq!(prior.render(), summary.render());

    let (adaptive_arts, _) = run_epoch(campaign, scale, 3, 1, Some(&prior));
    let mut all = pilot_arts.clone();
    all.extend(adaptive_arts);
    // Shard order on the merge command line must not matter.
    all.reverse();
    let sharded = merge_artifacts(&all).expect("full guided set merges");
    assert_eq!(sharded.len(), 1);

    // Monolithic path: the same two epochs as single-shard executions,
    // its own pilot summary driving its own adaptive epoch.
    let (mono_pilot, _) = run_epoch(campaign, scale, 1, 0, None);
    let mono_pilot_merge = merge_artifacts(&mono_pilot).expect("mono pilot merges");
    let mono_summary = guided_epoch_summary(&mono_pilot_merge[0]).expect("mono summary renders");
    assert_eq!(
        mono_summary.render(),
        summary.render(),
        "pilot tallies must not depend on the shard cut"
    );
    let (mono_adaptive, _) = run_epoch(campaign, scale, 1, 1, Some(&mono_summary));
    let mut mono_all = mono_pilot;
    mono_all.extend(mono_adaptive);
    let mono = merge_artifacts(&mono_all).expect("monolithic guided set merges");
    assert_eq!(mono.len(), 1);

    // Gate 1: merged payloads are bit-identical (ShardRun equality
    // compares every f64 — weights included — by exact bits).
    assert_eq!(sharded[0].golden, mono[0].golden);
    assert_eq!(sharded[0].injected, mono[0].injected);
    assert_eq!(sharded[0].guided, mono[0].guided);
    assert_eq!(sharded[0].baseline, mono[0].baseline);

    // Gate 2: every guided report byte-diffs clean between the cuts.
    let weighted = merge::weighted_table_text(&sharded, TD).expect("weighted table renders");
    assert_eq!(weighted, merge::weighted_table_text(&mono, TD).expect("mono table renders"));
    let report_doc = merge::guided_report_doc(&sharded, TD).expect("guided report renders");
    assert_eq!(report_doc, merge::guided_report_doc(&mono, TD).expect("mono report renders"));

    // Gate 3: the weighted row is sane — the full budget executed, and
    // per-epoch weight normalization (validated inside merge) makes the
    // ESS land in (0, runs].
    let row = summarize_weighted(&sharded[0], TD).expect("weighted summary");
    assert_eq!(row.budget, scale.n_transient);
    assert_eq!(row.runs, scale.n_transient);
    assert!(row.ess > 0.0 && row.ess <= row.runs as f64 + 1e-9, "ESS {} of {}", row.ess, row.runs);

    // Gate 4: the fixture machinery the CI job relies on. A fixture
    // centered on the enumerated cells passes; nudging one cell past
    // the tolerance is caught and names the cell.
    let report = json::parse(&report_doc).expect("report parses");
    let fixture_for = |accidents: f64| {
        let text = format!(
            r#"{{"type": "guided_expected", "campaigns": [{{"campaign": "{campaign}",
                "tolerance": 0.25, "active": {:.3}, "hang_crash": {:.3},
                "accidents": {:.3}, "traj_violations": {:.3}}}]}}"#,
            row.active, row.hang_crash, accidents, row.traj_violations,
        );
        json::parse(&text).expect("fixture literal parses")
    };
    let clean = tracecheck::guided_expect_check(&report, &fixture_for(row.accidents))
        .expect("expect check runs");
    assert!(clean.is_empty(), "centered fixture must pass: {clean:?}");
    let violations = tracecheck::guided_expect_check(&report, &fixture_for(row.accidents + 1.0))
        .expect("expect check runs");
    assert_eq!(violations.len(), 1, "one nudged cell, one violation: {violations:?}");
    assert!(violations[0].contains("accidents"), "violation names the cell: {}", violations[0]);

    // Gate 5: prefix merges work (epoch summaries between epochs) but
    // refuse to produce weighted estimates before the campaign is done.
    let err = summarize_weighted(&pilot_merge[0], TD)
        .expect_err("prefix merge must refuse weighted estimates")
        .to_string();
    assert!(err.contains("1"), "refusal should mention the epoch progress: {err}");
}
