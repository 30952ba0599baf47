//! Execute one shard of a fault-injection campaign, writing (or
//! resuming) a checkpointable shard artifact.
//!
//! ```text
//! diverseav-shard --scenario LSD --target GPU --kind transient \
//!                 --mode diverseav --shard 2/4 --out shard2.jsonl \
//!                 [--batch 8] [--scale quick|paper] [--max-batches N] \
//!                 [--guided EPOCHS --epoch E [--prior SUMMARY.json]]
//! ```
//!
//! `--kind` accepts `transient`, `permanent`, or any sensor-boundary
//! class label (`sensor-dropout`, `sensor-bias-drift`,
//! `sensor-outlier-burst`, `sensor-noise-inflation`,
//! `sensor-oscillation`).
//!
//! `--mode` accepts `single`, `diverseav` (the default), `fd`, or
//! `diverseav-overlap<P>` (round-robin with every P-th frame sent to both
//! agents, paper footnote 5; `P ≥ 1`).
//!
//! `--guided EPOCHS` switches the shard to the adaptive
//! importance-sampled planner (see `diverseav_faultinj::guided`): the
//! campaign budget is split across `EPOCHS` epochs and this invocation
//! executes epoch `--epoch E` only. Epochs after the pilot (`E > 0`)
//! require `--prior`, the epoch-summary line that `diverseav-merge
//! --epoch-summary` emits from the merged epochs `0..E`. Run lines gain
//! `stratum` and Horvitz–Thompson `weight` fields; merge the artifacts
//! with `diverseav-merge --weighted`.
//!
//! `DIVERSEAV_THREADS` controls intra-shard parallelism exactly like the
//! monolithic path; the artifact's run payload is bit-identical for any
//! setting. `--max-batches` caps how many *new* batches this invocation
//! commits — CI uses it to simulate a kill at a checkpoint boundary,
//! then re-invokes without the cap to resume.
//!
//! Exit codes: 0 shard complete, 3 shard checkpointed but incomplete
//! (`--max-batches` hit), 1 usage or execution error.

use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    Campaign, CampaignScale, EpochSummary, FaultModelKind, GuidedShardSpec, ShardConfig, ShardSpec,
};
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::path::Path;
use std::process::ExitCode;

fn parse_shard(s: &str) -> Result<ShardSpec, String> {
    let (idx, count) = s.split_once('/').ok_or_else(|| format!("--shard wants K/N, got {s:?}"))?;
    let index = idx.trim().parse::<usize>().map_err(|e| format!("--shard index: {e}"))?;
    let count = count.trim().parse::<usize>().map_err(|e| format!("--shard count: {e}"))?;
    Ok(ShardSpec { index, count })
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario = None;
    let mut target = None;
    let mut kind = None;
    let mut mode = AgentMode::RoundRobin;
    let mut spec = None;
    let mut out = None;
    let mut batch_size = 8usize;
    let mut scale = CampaignScale::from_env();
    let mut max_batches = None;
    let mut guided_epochs = None;
    let mut epoch = None;
    let mut prior_path = None;
    let mut i = 0;
    let next = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs an argument"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => {
                scenario = Some(match next(&mut i, "--scenario")?.as_str() {
                    "LSD" | "lsd" => ScenarioKind::LeadSlowdown,
                    "GC" | "gc" => ScenarioKind::GhostCutIn,
                    "FA" | "fa" => ScenarioKind::FrontAccident,
                    other => return Err(format!("--scenario: want LSD|GC|FA, got {other:?}")),
                });
            }
            "--target" => {
                target = Some(match next(&mut i, "--target")?.as_str() {
                    "GPU" | "gpu" => Profile::Gpu,
                    "CPU" | "cpu" => Profile::Cpu,
                    other => return Err(format!("--target: want GPU|CPU, got {other:?}")),
                });
            }
            "--kind" => {
                let raw = next(&mut i, "--kind")?;
                kind = Some(FaultModelKind::from_label(&raw).ok_or_else(|| {
                    format!("--kind: want transient|permanent|sensor-<class>, got {raw:?}")
                })?);
            }
            "--mode" => {
                let raw = next(&mut i, "--mode")?;
                mode = AgentMode::from_label(&raw).ok_or_else(|| {
                    format!("--mode: want single|diverseav|fd|diverseav-overlap<P>, got {raw:?}")
                })?;
            }
            "--shard" => spec = Some(parse_shard(&next(&mut i, "--shard")?)?),
            "--out" => out = Some(next(&mut i, "--out")?),
            "--batch" => {
                batch_size = next(&mut i, "--batch")?
                    .parse::<usize>()
                    .map_err(|e| format!("--batch: {e}"))?;
            }
            "--scale" => {
                scale = match next(&mut i, "--scale")?.as_str() {
                    "quick" => CampaignScale::quick(),
                    "paper" => CampaignScale::paper(),
                    other => return Err(format!("--scale: want quick|paper, got {other:?}")),
                };
            }
            "--max-batches" => {
                max_batches = Some(
                    next(&mut i, "--max-batches")?
                        .parse::<usize>()
                        .map_err(|e| format!("--max-batches: {e}"))?,
                );
            }
            "--guided" => {
                guided_epochs = Some(
                    next(&mut i, "--guided")?
                        .parse::<usize>()
                        .map_err(|e| format!("--guided: {e}"))?,
                );
            }
            "--epoch" => {
                epoch = Some(
                    next(&mut i, "--epoch")?
                        .parse::<usize>()
                        .map_err(|e| format!("--epoch: {e}"))?,
                );
            }
            "--prior" => prior_path = Some(next(&mut i, "--prior")?),
            other => return Err(format!("unknown argument: {other} (see the crate docs)")),
        }
        i += 1;
    }

    let scenario = scenario.ok_or("--scenario is required (LSD|GC|FA)")?;
    let target = target.ok_or("--target is required (GPU|CPU)")?;
    let kind = kind.ok_or("--kind is required (transient|permanent|sensor-<class>)")?;
    let spec = spec.ok_or("--shard K/N is required")?;
    let out = out.ok_or("--out PATH is required")?;
    let guided = match guided_epochs {
        None => {
            if epoch.is_some() || prior_path.is_some() {
                return Err("--epoch/--prior only make sense with --guided EPOCHS".into());
            }
            None
        }
        Some(epochs) => {
            let epoch = epoch.ok_or("--guided needs --epoch E")?;
            let prior = match &prior_path {
                None => None,
                Some(p) => {
                    let text = std::fs::read_to_string(p)
                        .map_err(|e| format!("cannot read --prior {p}: {e}"))?;
                    Some(
                        EpochSummary::parse(text.trim())
                            .map_err(|e| format!("--prior {p}: {e}"))?,
                    )
                }
            };
            Some(GuidedShardSpec { epochs, epoch, prior })
        }
    };

    let cfg = ShardConfig {
        campaign: Campaign { scenario, target, kind, mode },
        scale,
        sensor: SensorConfig::default(),
        spec,
        batch_size,
        guided,
    };
    let status = diverseav_faultinj::execute_shard_limited(&cfg, Path::new(&out), max_batches)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "shard {}/{}: {} assigned run(s), {} batch(es) ({} resumed, {} executed){}",
        spec.index,
        spec.count,
        status.assigned_runs,
        status.total_batches,
        status.resumed_batches,
        status.executed_batches,
        if status.complete { ", complete" } else { ", INCOMPLETE (checkpointed)" },
    );
    Ok(if status.complete { ExitCode::SUCCESS } else { ExitCode::from(3) })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("diverseav-shard: {e}");
            ExitCode::FAILURE
        }
    }
}
