//! The shard executor's profiling memo: a process simulates golden run 0
//! once per campaign configuration, and a shard call that reuses it
//! writes the same bytes as one that simulated it.
//!
//! The memo and the metrics registry are process-global, and one check
//! switches `DIVERSEAV_PROFILE`, so this binary holds a single test: its
//! counter deltas see no other shard call.

use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    execute_shard, incident_sidecar_path, plan_seed, unit_shard, Campaign, CampaignScale,
    FaultModelKind, GuidedShardSpec, RunUnit, ShardConfig, ShardSpec,
};
use diverseav_obs::metrics;
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::fs;
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};

/// Epoch 0 of a guided GPU-permanent campaign on a short route, cut in
/// two shards.
fn cfg(index: usize) -> ShardConfig {
    ShardConfig {
        campaign: Campaign {
            scenario: ScenarioKind::LongRoute(0),
            target: Profile::Gpu,
            kind: FaultModelKind::Permanent,
            mode: AgentMode::RoundRobin,
        },
        scale: CampaignScale {
            n_transient: 3,
            permanent_repeats: 1,
            golden_runs: 2,
            long_route_duration: 0.25,
            training_runs: 1,
        },
        sensor: SensorConfig::default(),
        spec: ShardSpec { index, count: 2 },
        batch_size: 2,
        guided: Some(GuidedShardSpec { epochs: 2, epoch: 0, prior: None }),
    }
}

/// What one shard call did: its memo hits and misses, the simulation
/// runs it started, and the runs it was assigned minus the one it took
/// from the profiling pass (`Golden(0)`, when it owns that unit).
#[derive(Debug, PartialEq, Eq)]
struct Call {
    hits: u64,
    misses: u64,
    runs_started: u64,
    runs_to_simulate: u64,
}

fn execute(cfg: &ShardConfig, path: &Path) -> Call {
    let counters = || {
        ["shard.profile_hits", "shard.profile_misses", "runner.experiments"]
            .map(metrics::counter_get)
    };
    let before = counters();
    let status = execute_shard(cfg, path).expect("shard executes");
    let after = counters();
    assert!(status.complete, "{status:?}");
    let owns_golden0 =
        unit_shard(plan_seed(&cfg.campaign), RunUnit::Golden(0), cfg.spec.count) == cfg.spec.index;
    Call {
        hits: after[0] - before[0],
        misses: after[1] - before[1],
        runs_started: after[2] - before[2],
        runs_to_simulate: (status.assigned_runs - usize::from(owns_golden0)) as u64,
    }
}

fn read_pair(path: &Path) -> (String, String) {
    let read = |p: &Path| fs::read_to_string(p).expect("shard output readable");
    (read(path), read(&incident_sidecar_path(path)))
}

fn hit(runs: u64) -> Call {
    Call { hits: 1, misses: 0, runs_started: runs, runs_to_simulate: runs }
}

fn miss(runs: u64) -> Call {
    Call { hits: 0, misses: 1, runs_started: runs + 1, runs_to_simulate: runs }
}

#[test]
fn a_memo_hit_writes_the_bytes_of_a_miss_and_only_equal_configs_hit() {
    let dir = std::env::temp_dir().join(format!("diverseav-profile-memo-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch directory");
    let path = |name: &str| -> PathBuf { dir.join(format!("{name}.jsonl")) };

    // Miss, then hit: the second call simulates every assigned run but
    // the profiled one, and writes the same artifact and sidecar.
    let first = execute(&cfg(0), &path("miss"));
    assert_eq!(first, miss(first.runs_to_simulate), "the first call profiles");
    let second = execute(&cfg(0), &path("hit"));
    assert_eq!(second, hit(first.runs_to_simulate), "the second call reuses the profile");
    let (artifact, sidecar) = read_pair(&path("miss"));
    assert!(
        sidecar.lines().any(|l| l.starts_with("{\"type\": \"incident\"")),
        "no incident payload — the sidecar comparison would be vacuous"
    );
    assert!(artifact == read_pair(&path("hit")).0, "a memo hit changed the artifact");
    assert!(sidecar == read_pair(&path("hit")).1, "a memo hit changed the sidecar");

    // The other shard of the same campaign shares the pass too.
    let other = execute(&cfg(1), &path("other"));
    assert_eq!(other, hit(other.runs_to_simulate), "shard 1 reuses shard 0's profile");

    // A config that differs in one input of golden run 0 misses, even
    // right after the base config was profiled.
    let noisy =
        SensorConfig { pixel_noise: SensorConfig::default().pixel_noise + 0.5, ..cfg(0).sensor };
    let single = Campaign { mode: AgentMode::Single, ..cfg(0).campaign };
    let overlap = Campaign { mode: AgentMode::Overlap(NonZeroU32::new(4).unwrap()), ..single };
    let longer = CampaignScale { long_route_duration: 0.5, ..cfg(0).scale };
    let variants = [
        ("a sensor float", ShardConfig { sensor: noisy, ..cfg(0) }, false),
        ("the agent mode", ShardConfig { campaign: single, ..cfg(0) }, false),
        ("a footnote-5 overlap period", ShardConfig { campaign: overlap, ..cfg(0) }, false),
        ("the long-route duration", ShardConfig { scale: longer, ..cfg(0) }, false),
        ("the profiling time source", cfg(0), true),
    ];
    for (i, (what, variant, wall)) in variants.into_iter().enumerate() {
        execute(&cfg(0), &path(&format!("base{i}")));
        if wall {
            std::env::set_var("DIVERSEAV_PROFILE", "wall");
        }
        let call = execute(&variant, &path(&format!("variant{i}")));
        std::env::remove_var("DIVERSEAV_PROFILE");
        assert_eq!(call, miss(call.runs_to_simulate), "a config differing in {what} must miss");
    }
    fs::remove_dir_all(&dir).ok();
}
