//! Merge shard artifacts into the monolithic campaign reports.
//!
//! ```text
//! # validate + merge shards into the Table-I / metrics / journal outputs
//! diverseav-merge [--td 2.0] [--table PATH] [--metrics PATH] \
//!                 [--journal PATH] [--incidents PATH] \
//!                 [--weighted] [--epoch-summary PATH] \
//!                 [--guided-report PATH] SHARD.jsonl...
//! ```
//!
//! The merge refuses to produce output from an inconsistent shard set:
//! duplicate or missing shard indices, incomplete shards, coverage gaps,
//! or artifacts whose campaign fingerprints disagree all fail hard.
//! With no output flags, the Table-I text goes to stdout.
//! `--td` (the trajectory-violation distance in metres) must be finite
//! and positive: at or below 0 every completed run would count as a
//! violation, and at NaN or infinity none would.
//!
//! `--incidents PATH` additionally collects the per-shard flight-recorder
//! sidecars (`SHARD.incidents.jsonl`, written next to each shard
//! artifact) into one exactly-once merged incident document — the input
//! of `diverseav-tracecheck --forensics`. A sidecar opens with its
//! artifact's own manifest line, so every artifact given — every shard
//! of every guided epoch — must present one complete sidecar with that
//! manifest; every incident label on a run line must have exactly one
//! payload (the run's key plus its flight ring) in the artifact that
//! owns the run, and any violation is the same exit-2 validation failure
//! as a bad shard set. Each document line joins a run line with its
//! payload's ring.
//!
//! Guided campaigns (artifacts cut by `diverseav-shard --guided`) must
//! be merged with a guided-aware flag: `--weighted` renders the
//! Horvitz–Thompson-weighted Table-I (requires every epoch present) and
//! `--epoch-summary PATH` writes the cumulative per-stratum summary the
//! *next* epoch's shards consume as `--prior` (works on any contiguous
//! epoch prefix). Passing guided artifacts with neither flag — or
//! `--weighted` with uniform artifacts — is an exit-2 validation
//! failure: the plain table would silently misreport a biased sample as
//! uniform counts. `--guided-report PATH` additionally writes the
//! allocation/ESS report `diverseav-tracecheck --guided` consumes.
//!
//! Exit codes: 0 merged clean, 1 bad arguments, unreadable/unparsable
//! inputs or I/O failure, 2 shard-set validation failure (overlap / gap /
//! fingerprint mismatch / incomplete shard / guided-uniform flag
//! mismatch).

use diverseav_bench::merge;
use diverseav_faultinj::{
    collect_incidents, guided_epoch_summary, incident_sidecar_path, merge_artifacts,
    parse_artifact, parse_incident_artifact, IncidentArtifact, ShardArtifact, ShardError,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Why a merge stopped: exit 2 for a shard-set validation failure
/// ([`ShardError::Mismatch`]), exit 1 for everything else.
enum Failure {
    Invalid(String),
    Hard(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Hard(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Self {
        Failure::Hard(e.to_string())
    }
}

impl From<ShardError> for Failure {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::Mismatch(_) => Failure::Invalid(e.to_string()),
            _ => Failure::Hard(e.to_string()),
        }
    }
}

fn run() -> Result<(), Failure> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut td = 2.0f64;
    let mut table_path = None;
    let mut metrics_path = None;
    let mut journal_path = None;
    let mut incidents_path = None;
    let mut weighted = false;
    let mut epoch_summary_path = None;
    let mut guided_report_path = None;
    let mut shards: Vec<String> = Vec::new();
    let mut i = 0;
    let next = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs an argument"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--td" => {
                td = next(&mut i, "--td")?.parse::<f64>().map_err(|e| format!("--td: {e}"))?;
                if !(td.is_finite() && td > 0.0) {
                    return Err(format!("--td must be finite and positive, got {td}").into());
                }
            }
            "--table" => table_path = Some(next(&mut i, "--table")?),
            "--metrics" => metrics_path = Some(next(&mut i, "--metrics")?),
            "--journal" => journal_path = Some(next(&mut i, "--journal")?),
            "--incidents" => incidents_path = Some(next(&mut i, "--incidents")?),
            "--weighted" => weighted = true,
            "--epoch-summary" => epoch_summary_path = Some(next(&mut i, "--epoch-summary")?),
            "--guided-report" => guided_report_path = Some(next(&mut i, "--guided-report")?),
            other if other.starts_with("--") => {
                return Err(format!("unknown argument: {other} (see the crate docs)").into());
            }
            path => shards.push(path.to_string()),
        }
        i += 1;
    }

    if shards.is_empty() {
        return Err("no shard artifacts given (pass one or more SHARD.jsonl paths)".into());
    }
    let mut artifacts: Vec<ShardArtifact> = Vec::with_capacity(shards.len());
    // Sidecars grouped by campaign fingerprint, in shard-argument order.
    let mut sidecars: BTreeMap<u64, Vec<IncidentArtifact>> = BTreeMap::new();
    for path in &shards {
        let text = read(path)?;
        artifacts.push(parse_artifact(&text).map_err(|e| format!("{path}: {e}"))?);
        if incidents_path.is_some() {
            let side = incident_sidecar_path(Path::new(path));
            let side_str = side.display().to_string();
            let side_text = read(&side_str)?;
            let parsed =
                parse_incident_artifact(&side_text).map_err(|e| format!("{side_str}: {e}"))?;
            sidecars.entry(parsed.manifest.fingerprint).or_default().push(parsed);
        }
    }
    let merged = merge_artifacts(&artifacts)?;

    for m in &merged {
        eprintln!(
            "merged {}: {} shard(s), {} golden + {} injected run(s){}",
            m.manifest.campaign,
            m.manifest.shard_count,
            m.golden.len(),
            m.injected.len(),
            match &m.guided {
                Some(g) => format!(" [guided, epoch {}/{}]", g.epochs_done, g.epochs),
                None => String::new(),
            },
        );
    }

    // A guided merge without a guided-aware flag would misreport a
    // deliberately biased sample as uniform counts; refuse it the same
    // way an inconsistent shard set is refused.
    let any_guided = merged.iter().any(|m| m.guided.is_some());
    if any_guided && !weighted && epoch_summary_path.is_none() {
        return Err(Failure::Invalid(
            "guided shard artifacts need --weighted (full campaign) or --epoch-summary PATH \
             (epoch prefix); the unweighted table would be biased"
                .into(),
        ));
    }

    let table = if weighted {
        merge::weighted_table_text(&merged, td)?
    } else if any_guided {
        // Epoch-prefix invocation (--epoch-summary without --weighted):
        // the unweighted table over a deliberately biased sample would
        // be the exact misreport the flag gate above refuses.
        if table_path.is_some() {
            return Err(Failure::Invalid("--table on guided artifacts needs --weighted".into()));
        }
        String::new()
    } else {
        merge::table_text(&merged, td)
    };
    match &table_path {
        Some(path) => write(path, &table)?,
        None if table.is_empty() => {}
        None => print!("{table}"),
    }
    if let Some(path) = &epoch_summary_path {
        let mut doc = String::new();
        for m in &merged {
            doc.push_str(&guided_epoch_summary(m)?.render());
            doc.push('\n');
        }
        write(path, &doc)?;
    }
    if let Some(path) = &guided_report_path {
        write(path, &merge::guided_report_doc(&merged, td)?)?;
    }
    if let Some(path) = &metrics_path {
        write(path, &merge::metrics_doc(&merged)?)?;
    }
    if let Some(path) = &journal_path {
        write(path, &merge::journal_doc(&merged))?;
    }
    if let Some(path) = &incidents_path {
        let mut doc = String::new();
        let mut total = 0usize;
        for m in &merged {
            let empty = Vec::new();
            let side = sidecars.get(&m.manifest.fingerprint).unwrap_or(&empty);
            let collected = collect_incidents(m, side)?;
            total += collected.len();
            doc.push_str(&merge::incidents_doc(m, &collected));
        }
        write(path, &doc)?;
        eprintln!("collected {total} incident(s) into {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let (e, code) = match run() {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Invalid(e)) => (e, ExitCode::from(2)),
        Err(Failure::Hard(e)) => (e, ExitCode::FAILURE),
    };
    eprintln!("diverseav-merge: {e}");
    code
}
