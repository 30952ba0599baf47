//! The traced round re-orchestrates the campaign path to attach the
//! phase hook; it must produce exactly what `run_campaign_cached` and
//! the shard executor + merge produce for the same cell, and the record
//! hash must read the same off either record type.
//!
//! One test per binary: shard execution reads deltas out of the
//! process-global metrics registry.

use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    execute_shard, merge_artifacts, parse_artifact, run_campaign_cached, summarize,
    summarize_merged, Campaign, CampaignScale, FaultModelKind, GoldenCache, ShardConfig, ShardSpec,
};
use diverseav_simworld::{ScenarioKind, SensorConfig};
use perfbench::digest::{run_result_hash, shard_run_hash};
use perfbench::workload::{traced_campaign, MonoTrace};
use perfbench::Spans;
use std::path::PathBuf;

#[test]
fn traced_campaign_equals_the_cached_and_the_sharded_paths() {
    let scale = CampaignScale {
        n_transient: 2,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 8.0,
        training_runs: 1,
    };
    let campaign = Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Cpu,
        kind: FaultModelKind::Transient,
        mode: AgentMode::RoundRobin,
    };
    let sensor = SensorConfig { pixel_noise: 1.1, ..SensorConfig::default() };

    let cache = GoldenCache::new();
    let (mut spans, mut tr) = (Spans::default(), MonoTrace::default());
    let traced =
        traced_campaign(campaign, &scale, None, sensor, false, &cache, &mut spans, &mut tr);
    let cached =
        run_campaign_cached(campaign, &scale, None, sensor, false, Some(&GoldenCache::new()));
    assert_eq!(traced.golden, cached.golden);
    assert_eq!(traced.injected, cached.injected);
    assert_eq!(traced.baseline, cached.baseline);
    assert_eq!(tr.runs.len(), 4, "every run was traced");
    assert!(tr.runs.iter().all(|r| r.ticks.len() <= 1201));
    assert!(!tr.captured.is_empty(), "golden run 0 feeds the probes");

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-equivalence");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("shard.jsonl");
    let _ = std::fs::remove_file(&path);
    let cfg = ShardConfig {
        campaign,
        scale,
        sensor,
        spec: ShardSpec { index: 0, count: 1 },
        batch_size: 2,
        guided: None,
    };
    execute_shard(&cfg, &path).expect("shard executes");
    let art = parse_artifact(&std::fs::read_to_string(&path).expect("artifact")).expect("parses");
    let merged = merge_artifacts(&[art]).expect("merges");
    let m = &merged[0];
    assert_eq!(summarize_merged(m, 2.0), summarize(&cached, 2.0));
    for (kind, mono, sharded) in
        [("golden", &cached.golden, &m.golden), ("injected", &cached.injected, &m.injected)]
    {
        assert_eq!(mono.len(), sharded.len());
        for (i, (a, b)) in mono.iter().zip(sharded.iter()).enumerate() {
            assert_eq!(run_result_hash(kind, i, a), shard_run_hash(b), "{kind} {i}");
            assert_eq!(a.deadline_misses, b.deadline_misses, "{kind} {i}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
