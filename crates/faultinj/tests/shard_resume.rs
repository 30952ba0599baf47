//! Kill-anywhere resume: a shard artifact cut at any byte offset, beside
//! its incident sidecar cut at any batch boundary, must resume to the
//! exact bytes of an uninterrupted run. Both files hold only members the
//! seeds determine, so the comparison strips nothing.
//!
//! The reference is a tiny uniform shard (short permanent-fault route,
//! `batch_size` 2) whose sidecar carries incident payloads in several
//! batches. Every artifact offset is parsed; resumes run once per
//! committed-prefix class plus the cuts a kill most likely leaves: one
//! byte before each newline, a torn manifest, and every sidecar line
//! boundary beside the artifact batch it can pair with. The proptest
//! draws further (artifact, sidecar) cut pairs; `PROPTEST_CASES` sets how
//! many (default 32, more in the release CI step).
//!
//! Shard execution reads metric deltas out of the process-global
//! registry, so the tests of this binary hold one lock and never run
//! concurrently.

use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    execute_shard, execute_shard_limited, guided_epoch_summary, incident_sidecar_path,
    merge_artifacts, parse_artifact, Campaign, CampaignScale, FaultModelKind, GuidedShardSpec,
    ShardConfig, ShardError, ShardSpec,
};
use diverseav_obs::metrics;
use diverseav_simworld::{ScenarioKind, SensorConfig};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cfg() -> ShardConfig {
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
            golden_runs: 1,
            long_route_duration: 0.25,
            training_runs: 1,
        },
        sensor: SensorConfig::default(),
        spec: ShardSpec { index: 0, count: 3 },
        batch_size: 2,
        guided: None,
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("diverseav-shard-resume-{}-{name}", std::process::id()))
}

/// Byte offsets of every `'\n'` in `text`.
fn newlines(text: &str) -> Vec<usize> {
    text.bytes().enumerate().filter(|&(_, b)| b == b'\n').map(|(i, _)| i).collect()
}

/// The uninterrupted shard, and where its lines end.
struct Reference {
    artifact: String,
    sidecar: String,
    /// Newline offset of the manifest line (the end of line 1).
    manifest_nl: usize,
    /// Newline offset of each `shard_batch` line, in batch order.
    batch_nl: Vec<usize>,
    /// Runs committed by each batch.
    batch_runs: Vec<usize>,
    /// Newline offset of the `shard_done` footer.
    done_nl: usize,
    /// Newline offset of each sidecar line after the manifest, with the
    /// batch its incident record belongs to (`None` for the footer).
    sidecar_lines: Vec<(usize, Option<usize>)>,
}

impl Reference {
    /// Committed batches of an artifact cut at `x` (`None` inside line 1),
    /// and whether the cut keeps the footer.
    fn class(&self, x: usize) -> Option<(usize, bool)> {
        (x >= self.manifest_nl)
            .then(|| (self.batch_nl.iter().filter(|&&nl| nl <= x).count(), x >= self.done_nl))
    }

    /// The sidecar a kill leaves beside an artifact holding `k` committed
    /// batches: every payload up to and including batch `k`'s (whose
    /// payloads land before its marker), and the footer once every batch
    /// is committed.
    fn sidecar_beside(&self, k: usize) -> &str {
        let end = self
            .sidecar_lines
            .iter()
            .take_while(|(_, b)| b.map_or(k >= self.batch_nl.len(), |b| b <= k))
            .last()
            .map_or(self.sidecar_manifest_end(), |&(nl, _)| nl + 1);
        &self.sidecar[..end]
    }

    fn sidecar_manifest_end(&self) -> usize {
        self.sidecar.find('\n').expect("sidecar manifest line") + 1
    }
}

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let path = scratch("reference.jsonl");
        let side = incident_sidecar_path(&path);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&side);
        let status = execute_shard(&cfg(), &path).expect("reference shard executes");
        assert!(status.complete && status.executed_batches == status.total_batches);
        let artifact = fs::read_to_string(&path).expect("reference artifact");
        let sidecar = fs::read_to_string(&side).expect("reference sidecar");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&side);
        assert_eq!(sidecar.lines().next(), artifact.lines().next(), "one manifest line");

        let nl = newlines(&artifact);
        let lines: Vec<&str> = artifact.lines().collect();
        let (mut batch_nl, mut batch_runs, mut runs) = (Vec::new(), Vec::new(), 0);
        for (line, &at) in lines.iter().zip(&nl).skip(1) {
            if line.starts_with("{\"type\": \"shard_run\"") {
                runs += 1;
            } else if line.starts_with("{\"type\": \"shard_batch\"") {
                batch_nl.push(at);
                batch_runs.push(std::mem::take(&mut runs));
            }
        }
        let sidecar_lines: Vec<(usize, Option<usize>)> = sidecar
            .lines()
            .zip(newlines(&sidecar))
            .skip(1)
            .map(|(line, at)| {
                let batch = line.strip_prefix("{\"type\": \"incident\", \"batch\": ").map(|rest| {
                    rest[..rest.find(',').expect("batch member")].parse().expect("batch index")
                });
                (at, batch)
            })
            .collect();
        let r = Reference {
            manifest_nl: nl[0],
            done_nl: *nl.last().expect("footer"),
            batch_nl,
            batch_runs,
            sidecar_lines,
            artifact,
            sidecar,
        };
        // The cuts below mean something only if the shard spans several
        // batches and its payloads several of them, one holding two.
        let payload_batches: Vec<usize> = r.sidecar_lines.iter().filter_map(|l| l.1).collect();
        assert!(r.batch_nl.len() >= 3, "{} batches", r.batch_nl.len());
        assert!(payload_batches.len() >= 3, "payloads in batches {payload_batches:?}");
        assert!(payload_batches.windows(2).any(|w| w[0] == w[1]), "{payload_batches:?}");
        assert!(payload_batches[0] > 0, "a committed batch before the first payload");
        r
    })
}

/// Leave `artifact` and `sidecar` (absent when `None`) where a kill would,
/// resume, and require the uninterrupted bytes.
fn resume_to_reference(r: &Reference, artifact: &str, sidecar: Option<&str>, what: &str) {
    let path = scratch("cut.jsonl");
    let side = incident_sidecar_path(&path);
    fs::write(&path, artifact).expect("write cut artifact");
    match sidecar {
        Some(text) => fs::write(&side, text).expect("write cut sidecar"),
        None => {
            let _ = fs::remove_file(&side);
        }
    }
    let status = execute_shard(&cfg(), &path).unwrap_or_else(|e| panic!("{what}: resume: {e}"));
    assert!(status.complete, "{what}: resume finishes the shard");
    let got = fs::read_to_string(&path).expect("resumed artifact");
    assert!(
        got == r.artifact,
        "{what}: resumed artifact differs\n--- got\n{got}\n--- want\n{}",
        r.artifact
    );
    let got = fs::read_to_string(&side).expect("resumed sidecar");
    assert!(
        got == r.sidecar,
        "{what}: resumed sidecar differs\n--- got\n{got}\n--- want\n{}",
        r.sidecar
    );
}

/// Resume an artifact cut at `x` beside the sidecar a kill there leaves.
fn resume_artifact_cut(r: &Reference, x: usize) {
    let sidecar = r.class(x).map(|(k, _)| r.sidecar_beside(k));
    resume_to_reference(r, &r.artifact[..x], sidecar, &format!("artifact cut at {x}"));
}

#[test]
fn every_artifact_offset_commits_exactly_the_finished_batches() {
    let _serial = serial();
    let r = reference();
    let manifest_line = &r.artifact[..=r.manifest_nl];
    for x in 0..=r.artifact.len() {
        let cut = &r.artifact[..x];
        match (r.class(x), parse_artifact(cut)) {
            (None, Err(_)) => assert!(manifest_line.starts_with(cut), "cut {x}: a fresh start"),
            (None, Ok(_)) => panic!("cut {x} inside the manifest line parses"),
            (Some(_), Err(e)) => panic!("cut {x} after the manifest line: {e}"),
            (Some((k, complete)), Ok(art)) => {
                assert_eq!(art.batches, k, "cut {x}: committed batches");
                assert_eq!(art.runs.len(), r.batch_runs[..k].iter().sum::<usize>(), "cut {x}");
                assert_eq!(art.complete, complete, "cut {x}: footer");
            }
        }
    }
}

#[test]
fn kills_at_every_class_and_line_boundary_resume_to_the_same_bytes() {
    let _serial = serial();
    let r = reference();
    let len = r.artifact.len();

    // One cut inside each class: a torn manifest, then a torn tail after
    // each committed prefix (manifest only, each batch, the whole file).
    let mut cuts = vec![0, r.manifest_nl / 2];
    let mut class_ends: Vec<usize> = vec![r.manifest_nl];
    class_ends.extend(&r.batch_nl);
    class_ends.push(r.done_nl);
    for w in class_ends.windows(2) {
        cuts.push((w[0] + 1 + w[1]) / 2);
    }
    cuts.push(len);
    // One byte before each newline: the line is whole, its newline is not.
    cuts.extend(newlines(&r.artifact));
    for x in cuts {
        resume_artifact_cut(r, x);
    }

    // The sidecar at every line boundary (and one byte short of it) beside
    // each artifact batch it can pair with: all payloads of the committed
    // batches, and any prefix of the next batch's.
    for (k, &nl) in r.batch_nl.iter().enumerate() {
        let artifact = &r.artifact[..=nl];
        let committed = k + 1;
        let keep = r.sidecar_beside(k).len();
        let most = r.sidecar_beside(committed).len();
        let mut ends: Vec<usize> = vec![keep];
        ends.extend(
            r.sidecar_lines.iter().map(|&(nl, _)| nl + 1).filter(|&e| e > keep && e <= most),
        );
        for end in ends {
            for cut in [end, end - 1] {
                let what = format!("artifact at batch {committed}, sidecar cut at {cut}");
                resume_to_reference(r, artifact, Some(&r.sidecar[..cut]), &what);
            }
        }
    }
}

/// How often the shard executor has asked for the profiling pass. The
/// reference shard leaves that pass memoized under `cfg()`'s key, which
/// the foreign configurations below share, so `runner.experiments` alone
/// cannot show whether a checkpoint was refused or adopted before it.
fn profile_memo_asks() -> u64 {
    metrics::counter_get("shard.profile_hits") + metrics::counter_get("shard.profile_misses")
}

/// A checkpoint from another configuration whose manifest differs in a
/// member the profiling pass does not determine is refused before that
/// pass: no simulation run starts, and the checkpoint is left untouched.
#[test]
fn foreign_checkpoints_are_refused_before_the_profiling_run() {
    let _serial = serial();
    let r = reference();
    let path = scratch("foreign.jsonl");
    let side = incident_sidecar_path(&path);
    fs::write(&path, &r.artifact).expect("write checkpoint");
    fs::write(&side, &r.sidecar).expect("write sidecar");
    let experiments = || metrics::counter_get("runner.experiments");
    let base = cfg();
    let campaign = Campaign { target: Profile::Cpu, ..base.campaign };
    let mut foreign = vec![("target", ShardConfig { campaign, ..cfg() })];
    let scale = CampaignScale { golden_runs: 2, ..base.scale };
    foreign.push(("scale (fingerprint)", ShardConfig { scale, ..cfg() }));
    foreign.push(("shard index", ShardConfig { spec: ShardSpec { index: 1, count: 3 }, ..cfg() }));
    foreign.push(("shard count", ShardConfig { spec: ShardSpec { index: 0, count: 4 }, ..cfg() }));
    foreign.push(("batch size", ShardConfig { batch_size: 3, ..cfg() }));
    let guided = GuidedShardSpec { epochs: 2, epoch: 0, prior: None };
    foreign.push(("guided epochs", ShardConfig { guided: Some(guided), ..cfg() }));
    for (what, foreign) in foreign {
        let before = experiments();
        let asked = profile_memo_asks();
        match execute_shard(&foreign, &path) {
            Err(ShardError::Mismatch(msg)) => assert!(msg.contains("refusing"), "{what}: {msg}"),
            other => panic!("{what}: expected a refusal, got {other:?}"),
        }
        assert_eq!(experiments(), before, "{what}: refused without a simulation run");
        assert_eq!(profile_memo_asks(), asked, "{what}: refused before the profiling pass");
        assert_eq!(fs::read_to_string(&path).expect("checkpoint"), r.artifact, "{what}");
    }
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&side);
}

/// A complete checkpoint of this configuration is adopted before the
/// profiling pass: no simulation run starts, and only a lost final
/// newline is restored.
#[test]
fn complete_checkpoints_are_adopted_without_the_profiling_run() {
    let _serial = serial();
    let r = reference();
    let path = scratch("complete.jsonl");
    let side = incident_sidecar_path(&path);
    fs::write(&side, &r.sidecar).expect("write sidecar");
    for cut in [r.artifact.len(), r.done_nl] {
        fs::write(&path, &r.artifact[..cut]).expect("write checkpoint");
        let before = metrics::counter_get("runner.experiments");
        let asked = profile_memo_asks();
        let status = execute_shard(&cfg(), &path).expect("complete checkpoint");
        assert!(status.complete && status.executed_batches == 0, "cut {cut}: {status:?}");
        assert_eq!(status.resumed_batches, r.batch_nl.len(), "cut {cut}: {status:?}");
        assert_eq!(status.assigned_runs, r.batch_runs.iter().sum::<usize>(), "cut {cut}");
        assert_eq!(metrics::counter_get("runner.experiments"), before, "cut {cut}: a run started");
        assert_eq!(profile_memo_asks(), asked, "cut {cut}: adopted after the profiling pass");
        assert_eq!(fs::read_to_string(&path).expect("checkpoint"), r.artifact, "cut {cut}");
    }
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&side);
}

/// A guided shard interrupted after one batch resumes only beside its own
/// sidecar: the same shard's sidecar from the other epoch carries the
/// same fingerprint, plan seed and shard index, and is refused all the
/// same, because its manifest names another epoch.
#[test]
fn a_sidecar_from_another_epoch_is_refused_on_resume() {
    let _serial = serial();
    let epoch = |epoch, prior| ShardConfig {
        spec: ShardSpec { index: 0, count: 1 },
        guided: Some(GuidedShardSpec { epochs: 2, epoch, prior }),
        ..cfg()
    };
    let pilot = scratch("epoch0.jsonl");
    assert!(execute_shard(&epoch(0, None), &pilot).expect("pilot epoch").complete);
    let art = parse_artifact(&fs::read_to_string(&pilot).expect("pilot")).expect("pilot parses");
    let merged = merge_artifacts(&[art]).expect("pilot merges");
    let prior = guided_epoch_summary(&merged[0]).expect("pilot summary");

    let path = scratch("epoch1.jsonl");
    let side = incident_sidecar_path(&path);
    let cfg = epoch(1, Some(prior));
    let first = execute_shard_limited(&cfg, &path, Some(1)).expect("first batch of epoch 1");
    assert!(!first.complete && first.executed_batches == 1, "{first:?}");
    let checkpoint = fs::read_to_string(&path).expect("checkpoint");
    fs::copy(incident_sidecar_path(&pilot), &side).expect("swap in the pilot's sidecar");
    match execute_shard(&cfg, &path) {
        Err(ShardError::Mismatch(msg)) => assert!(msg.contains("refusing"), "{msg}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
    assert_eq!(fs::read_to_string(&path).expect("checkpoint"), checkpoint, "left as it was");
    for p in [&pilot, &incident_sidecar_path(&pilot), &path, &side] {
        let _ = fs::remove_file(p);
    }
}

proptest! {
    #[test]
    fn random_kill_points_resume_to_the_same_bytes(at in 0usize..1 << 30, torn in 0usize..1 << 20) {
        let _serial = serial();
        let r = reference();
        let x = at % (r.artifact.len() + 1);
        match r.class(x) {
            // Payload lines of the batch in flight may be torn anywhere.
            Some((k, _)) if k < r.batch_nl.len() => {
                let keep = match k {
                    0 => r.sidecar_manifest_end(),
                    k => r.sidecar_beside(k - 1).len(),
                };
                let most = r.sidecar_beside(k).len();
                let cut = keep + torn % (most - keep + 1);
                let what = format!("artifact cut at {x}, sidecar cut at {cut}");
                resume_to_reference(r, &r.artifact[..x], Some(&r.sidecar[..cut]), &what);
            }
            _ => resume_artifact_cut(r, x),
        }
    }
}
