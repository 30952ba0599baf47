//! End-to-end shard equivalence: a campaign cut into shards — one of
//! them killed mid-flight and resumed — must merge bit-identically to
//! the monolithic `run_campaign_cached` path, and the traced monolithic
//! run's journal lines must equal the merged journal.
//!
//! This is deliberately the ONLY test in this binary: shard execution
//! reads deltas out of the process-global metrics registry, and a
//! concurrently running campaign in the same process would land its
//! counters inside those deltas. (Per-batch deltas make the *committed*
//! payload immune, but keeping the binary single-test removes the
//! hazard entirely.)

use diverseav::AgentMode;
use diverseav_bench::merge;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    execute_shard, execute_shard_limited, merge_artifacts, parse_artifact, run_campaign_cached,
    run_record, summarize, summarize_merged, unit_shard, Campaign, CampaignScale, FaultModelKind,
    RunResult, ShardConfig, ShardRun, ShardSpec, SHARD_SCHEMA_VERSION,
};
use diverseav_obs::journal;
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::fs;
use std::path::PathBuf;

const TD: f64 = 2.0;

fn tiny_scale() -> CampaignScale {
    CampaignScale {
        n_transient: 4,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 8.0,
        training_runs: 1,
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("diverseav-shard-merge-{}-{name}", std::process::id()))
}

#[test]
fn killed_and_resumed_shards_merge_bit_identical_to_monolithic() {
    let campaign = Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Transient,
        mode: AgentMode::RoundRobin,
    };
    let scale = tiny_scale();
    let sensor = SensorConfig::default();
    let cfg = |spec: ShardSpec| ShardConfig {
        campaign,
        scale,
        sensor,
        spec,
        batch_size: 1,
        guided: None,
    };

    // Pick the kill victim: with 6 units over 2 shards, at least one
    // shard holds >= 2 batches (batch_size 1), so interrupting after the
    // first batch leaves real work for the resume to prove itself on.
    let seed = diverseav_faultinj::plan_seed(&campaign);
    let units = diverseav_faultinj::campaign_units(scale.golden_runs, scale.n_transient);
    let per_shard = |s: usize| units.iter().filter(|u| unit_shard(seed, **u, 2) == s).count();
    let victim = if per_shard(0) >= 2 { 0 } else { 1 };
    let other = 1 - victim;
    assert!(per_shard(victim) >= 2, "pigeonhole: some shard holds >= 2 of 6 units");

    let victim_path = scratch("victim.jsonl");
    let other_path = scratch("other.jsonl");
    let mono_path = scratch("mono.jsonl");
    for p in [&victim_path, &other_path, &mono_path] {
        let _ = fs::remove_file(p);
    }

    // Kill the victim shard at its first checkpoint, then resume it.
    let interrupted =
        execute_shard_limited(&cfg(ShardSpec { index: victim, count: 2 }), &victim_path, Some(1))
            .expect("interrupted shard executes");
    assert!(!interrupted.complete, "--max-batches 1 must stop short");
    assert_eq!(interrupted.executed_batches, 1);
    let resumed = execute_shard(&cfg(ShardSpec { index: victim, count: 2 }), &victim_path)
        .expect("victim shard resumes");
    assert!(resumed.complete);
    assert!(resumed.resumed_batches >= 1, "resume must adopt the checkpointed batch");

    let _ = execute_shard(&cfg(ShardSpec { index: other, count: 2 }), &other_path)
        .expect("other shard executes");
    let mono_status = execute_shard(&cfg(ShardSpec { index: 0, count: 1 }), &mono_path)
        .expect("monolithic single-shard executes");
    assert!(mono_status.complete);

    let load = |p: &PathBuf| {
        parse_artifact(&fs::read_to_string(p).expect("artifact readable")).expect("artifact parses")
    };
    let (victim_art, other_art, mono_art) =
        (load(&victim_path), load(&other_path), load(&mono_path));

    // Merge both ways; shard order on the command line must not matter.
    let sharded =
        merge_artifacts(&[other_art.clone(), victim_art.clone()]).expect("sharded set merges");
    let mono = merge_artifacts(&[mono_art]).expect("monolithic set merges");
    assert_eq!(sharded.len(), 1);
    assert_eq!(mono.len(), 1);

    // Gate 1: the merged run payloads are bit-identical (ShardRun
    // equality covers every f64 via its exact bits).
    assert_eq!(sharded[0].golden, mono[0].golden);
    assert_eq!(sharded[0].injected, mono[0].injected);
    assert_eq!(sharded[0].baseline, mono[0].baseline);
    assert_eq!(sharded[0].metrics.counters, mono[0].metrics.counters);
    assert_eq!(sharded[0].metrics.hists, mono[0].metrics.hists);

    // Gate 2: both merges agree with the in-process monolithic path,
    // traced: its journal's run lines are the 1-of-1 shard's merged
    // journal, byte for byte.
    std::env::set_var("DIVERSEAV_TRACE", "1");
    let before = journal::len();
    let live = run_campaign_cached(campaign, &scale, None, sensor, false, None);
    std::env::remove_var("DIVERSEAV_TRACE");
    let traced: String = journal::snapshot()[before..]
        .iter()
        .filter(|l| l.starts_with("{\"type\": \"run\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(traced, merge::journal_doc(&mono), "traced journal == 1-shard merged journal");
    let label = campaign.to_string();
    let records = |kind, runs: &[RunResult]| -> Vec<ShardRun> {
        runs.iter().enumerate().map(|(i, r)| run_record(&label, kind, i, r)).collect()
    };
    let (live_golden, live_injected) =
        (records("golden", &live.golden), records("injected", &live.injected));
    assert_eq!(sharded[0].golden, live_golden);
    assert_eq!(sharded[0].injected, live_injected);
    assert_eq!(summarize_merged(&sharded[0], TD), summarize(&live, TD));

    // Gate 3: every rendered report diffs clean between the two merges.
    assert_eq!(merge::table_text(&sharded, TD), merge::table_text(&mono, TD));
    assert_eq!(
        merge::metrics_doc(&sharded).expect("metrics fold"),
        merge::metrics_doc(&mono).expect("metrics fold")
    );
    assert_eq!(merge::journal_doc(&sharded), merge::journal_doc(&mono));

    // Gate 4: the validator refuses bad shard sets loudly.
    let dup = merge_artifacts(&[victim_art.clone(), victim_art.clone(), other_art.clone()]);
    let msg = dup.expect_err("duplicate shard must not merge").to_string();
    assert!(msg.contains("overlap"), "duplicate error should name the overlap: {msg}");
    let partial = merge_artifacts(std::slice::from_ref(&victim_art));
    let msg = partial.expect_err("missing shard must not merge").to_string();
    assert!(msg.contains("missing"), "gap error should name the missing shard: {msg}");
    let mut tampered = fs::read_to_string(&victim_path).expect("artifact readable");
    tampered = tampered.replacen(
        &format!("\"schema_version\": {SHARD_SCHEMA_VERSION}"),
        &format!("\"schema_version\": {}", SHARD_SCHEMA_VERSION + 1),
        1,
    );
    assert!(
        parse_artifact(&tampered).is_err(),
        "future schema versions must be rejected, not misread"
    );

    for p in [&victim_path, &other_path, &mono_path] {
        let _ = fs::remove_file(p);
    }
}
