//! No-panic gate for every on-disk reader: each artifact this repository
//! writes and reads back — the committed `guided_expected` fixture, plus
//! the shard artifacts, incident sidecars, journals, merged documents,
//! guided documents and `METRICS_campaigns.json` a tiny real campaign
//! writes inside this test — is mutated
//! (byte flips, truncation, duplicated lines, reordered lines) and fed to
//! every reader. Each reader must return `Ok` or `Err`; whatever parses
//! is pushed on through the merge, the incident collector and the
//! tracecheck reports, which must not panic either.
//!
//! `PROPTEST_CASES` sets the number of drawn mutations per document
//! (default 32; CI runs 512 in release).

use diverseav::AgentMode;
use diverseav_bench::merge;
use diverseav_bench::tracecheck::{
    cell_summary, chrome_trace, forensics_report, guided_expect_check, guided_report_summary,
    latency_report, metrics_summary, parse_incidents, parse_trace, sensor_latency_report,
};
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    collect_incidents, execute_shard, guided_epoch_summary, incident_sidecar_path, merge_artifacts,
    parse_artifact, parse_incident_artifact, run_campaign_cached, summarize_merged, Campaign,
    CampaignScale, EpochSummary, FaultModelKind, GuidedShardSpec, MergedCampaign, RunRecord,
    ShardConfig, ShardError, ShardSpec,
};
use diverseav_obs::journal;
use diverseav_obs::json::{self, Value};
use diverseav_simworld::{ScenarioKind, SensorConfig};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const TD: f64 = 2.0;

/// Documents under this size are truncated at every byte offset.
const EXHAUSTIVE_BYTES: usize = 4096;

fn tiny_scale() -> CampaignScale {
    CampaignScale {
        n_transient: 6,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 4.0,
        training_runs: 1,
    }
}

fn campaign() -> Campaign {
    Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Transient,
        mode: AgentMode::RoundRobin,
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("diverseav-artifact-fuzz-{}-{name}", std::process::id()))
}

/// Run one shard into `path` and return its artifact and sidecar text.
fn shard_texts(cfg: &ShardConfig, path: &Path) -> (String, String) {
    let sidecar = incident_sidecar_path(path);
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(&sidecar);
    execute_shard(cfg, path).expect("shard executes");
    let texts = (fs::read_to_string(path).unwrap(), fs::read_to_string(&sidecar).unwrap());
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(&sidecar);
    texts
}

/// What the mutated documents are checked against.
struct Corpus {
    /// `(name, text)` of every document the mutations start from.
    docs: Vec<(String, String)>,
    /// The merged uniform campaign (for sidecar mutations).
    merged: MergedCampaign,
    /// The committed guided expectation fixture and a real guided report.
    fixture: Value,
    report: Value,
}

impl Corpus {
    fn doc(&self, name: &str) -> &str {
        &self.docs.iter().find(|d| d.0 == name).expect("a corpus document").1
    }
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut docs: Vec<(String, String)> = Vec::new();
        let name = "tests/fixtures/guided_expected_lsd.json";
        docs.push((name.to_string(), fs::read_to_string(root.join(name)).expect(name)));

        // A uniform campaign in two shards, merged.
        let cfg = |index, guided: Option<GuidedShardSpec>| ShardConfig {
            campaign: campaign(),
            scale: tiny_scale(),
            sensor: SensorConfig::default(),
            spec: ShardSpec { index, count: if guided.is_some() { 1 } else { 2 } },
            batch_size: 2,
            guided,
        };
        let mut arts = Vec::new();
        let mut sidecars = Vec::new();
        for index in 0..2 {
            let (art, side) = shard_texts(&cfg(index, None), &scratch(&format!("u{index}.jsonl")));
            arts.push(parse_artifact(&art).expect("real artifact parses"));
            sidecars.push(parse_incident_artifact(&side).expect("real sidecar parses"));
            docs.push((format!("shard {index}/2"), art));
            docs.push((format!("sidecar {index}/2"), side));
        }
        let merged = merge_artifacts(&arts).expect("real shards merge").remove(0);
        let incidents = collect_incidents(&merged, &sidecars).expect("real sidecars collect");
        let all = std::slice::from_ref(&merged);
        docs.push(("merged journal".into(), merge::journal_doc(all)));
        docs.push(("merged metrics".into(), merge::metrics_doc(all).expect("metrics fold")));
        docs.push(("merged incidents".into(), merge::incidents_doc(&merged, &incidents)));

        // A one-epoch guided campaign in one shard.
        let guided = GuidedShardSpec { epochs: 1, epoch: 0, prior: None };
        let (art, side) = shard_texts(&cfg(0, Some(guided)), &scratch("g0.jsonl"));
        let guided_merged = merge_artifacts(&[parse_artifact(&art).expect("guided artifact")])
            .expect("guided shard merges");
        let summary = guided_epoch_summary(&guided_merged[0]).expect("epoch summary");
        let report = merge::guided_report_doc(&guided_merged, TD).expect("guided report");
        docs.push(("guided shard".into(), art));
        docs.push(("guided sidecar".into(), side));
        docs.push(("epoch summary".into(), summary.render()));
        docs.push(("guided report".into(), report.clone()));

        // A traced monolithic campaign: run lines with real divergence
        // peaks plus the engine's span lines.
        std::env::set_var("DIVERSEAV_TRACE", "1");
        let before = journal::len();
        let _ = run_campaign_cached(
            campaign(),
            &tiny_scale(),
            None,
            SensorConfig::default(),
            false,
            None,
        );
        std::env::remove_var("DIVERSEAV_TRACE");
        docs.push(("traced journal".into(), journal::snapshot()[before..].join("\n") + "\n"));
        // The metrics document those campaigns leave, rendered as the
        // `smoke` binary writes it.
        docs.push(("METRICS_campaigns.json".into(), diverseav_bench::metrics_json()));

        let fixture = json::parse(&docs[0].1).expect("fixture parses");
        let report = json::parse(&report).expect("report parses");
        Corpus { docs, merged, fixture, report }
    })
}

/// Feed `text` to every reader; push whatever parses on through the
/// merge, the incident collector and the reports. Nothing may panic.
fn read_everything(c: &Corpus, text: &str) {
    if let Ok(art) = parse_artifact(text) {
        for run in text.lines().filter_map(|l| json::parse(l).ok()) {
            let _ = RunRecord::parse_shard_line(&run, "", "");
        }
        if let Ok(merged) = merge_artifacts(&[art]) {
            let _ = summarize_merged(&merged[0], TD);
            let _ = merge::table_text(&merged, TD);
            let _ = merge::deterministic_doc(&merged, TD);
            let _ = merge::journal_doc(&merged);
            let _ = merge::metrics_doc(&merged);
            let _ = merge::weighted_table_text(&merged, TD);
            let _ = merge::guided_report_doc(&merged, TD);
            let _ = guided_epoch_summary(&merged[0]);
        }
    }
    if let Ok(side) = parse_incident_artifact(text) {
        let _ = collect_incidents(&c.merged, &[side.clone(), side]);
    }
    if let Ok(trace) = parse_trace(text) {
        let _ = cell_summary(&trace.runs);
        let _ = latency_report(&trace.runs);
        let _ = sensor_latency_report(&trace.runs);
        let _ = chrome_trace(&trace);
    }
    if let Ok(incidents) = parse_incidents(text) {
        let _ = forensics_report(&incidents);
    }
    let _ = EpochSummary::parse(text);
    if let Ok(v) = json::parse(text) {
        let _ = metrics_summary(&v);
        let _ = guided_report_summary(&v);
        let _ = guided_expect_check(&v, &c.fixture);
        let _ = guided_expect_check(&c.report, &v);
    }
}

/// [`read_everything`] with the document and mutation named on a panic.
fn check(c: &Corpus, name: &str, mutation: &str, bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read_everything(c, &text)));
    assert!(ok.is_ok(), "a reader panicked on {name} after {mutation}:\n{text}");
}

#[test]
fn every_reader_accepts_the_unmutated_corpus() {
    let c = corpus();
    for (name, text) in &c.docs {
        check(c, name, "no mutation", text.as_bytes());
    }
    let journal = parse_trace(c.doc("traced journal")).expect("the real journal parses");
    assert!(!journal.runs.is_empty() && !journal.spans.is_empty());
}

#[test]
fn small_documents_survive_truncation_at_every_offset() {
    let c = corpus();
    let small: Vec<_> = c.docs.iter().filter(|(_, t)| t.len() < EXHAUSTIVE_BYTES).collect();
    assert!(small.len() >= 4, "the fixture, epoch summary and guided report are small");
    for (name, text) in small {
        for cut in 0..text.len() {
            check(c, name, &format!("truncation at byte {cut}"), &text.as_bytes()[..cut]);
        }
    }
}

proptest! {
    #[test]
    fn mutated_documents_never_panic_a_reader(
        pos in 0usize..1 << 30,
        mask in 1u8..=255,
        a in 0usize..1 << 20,
        b in 0usize..1 << 20,
    ) {
        let c = corpus();
        for (name, text) in &c.docs {
            let bytes = text.as_bytes();
            let at = pos % bytes.len();
            let mut flipped = bytes.to_vec();
            flipped[at] ^= mask;
            check(c, name, &format!("byte {at} ^= {mask:#04x}"), &flipped);
            if bytes.len() >= EXHAUSTIVE_BYTES {
                check(c, name, &format!("truncation at byte {at}"), &bytes[..at]);
            }
            let ls: Vec<&str> = text.lines().collect();
            let (i, j) = (a % ls.len(), b % ls.len());
            let mut dup = ls.clone();
            dup.insert(i, ls[i]);
            check(c, name, &format!("line {i} duplicated"), dup.join("\n").as_bytes());
            let mut swapped = ls.clone();
            swapped.swap(i, j);
            check(c, name, &format!("lines {i} and {j} swapped"), swapped.join("\n").as_bytes());
        }
    }
}

/// Every run line of the real traced and merged journals re-renders to
/// itself.
#[test]
fn real_journal_run_lines_re_render_byte_for_byte() {
    let c = corpus();
    let mut runs = 0;
    for line in c.doc("traced journal").lines().chain(c.doc("merged journal").lines()) {
        let v = json::parse(line).expect("journal line is JSON");
        if v.req_str("type").as_deref() != Ok("run") {
            continue;
        }
        let rec = RunRecord::parse_journal_line(&v).expect("real run line parses");
        assert_eq!(rec.render_journal_line(), line);
        runs += 1;
    }
    assert!(runs >= 16, "golden + injected lines of both journals: {runs}");
}

// -- named regression cases -------------------------------------------------

/// Two run lines whose times only parse as infinite used to parse
/// cleanly and then panic the latency report's sort.
#[test]
fn journal_with_infinite_times_is_rejected() {
    let line = "{\"type\": \"run\", \"collision_time\": 1e999, \"alarm_time\": 1e999}\n";
    let doc = line.repeat(2);
    match parse_trace(&doc) {
        Ok(trace) => panic!("parsed, then: {}", latency_report(&trace.runs)),
        Err(errs) => assert_eq!(errs.len(), 2, "{errs:?}"),
    }
}

/// A real shard artifact whose first batch marker's `tick.total`
/// histogram carries a repeated bucket with counts summing past
/// `u64::MAX`: the marker is malformed, so the artifact ends before it.
#[test]
fn repeated_bucket_overflow_truncates_the_artifact() {
    let c = corpus();
    let mut lines: Vec<String> = c.doc("shard 0/2").lines().map(str::to_string).collect();
    let i = lines.iter().position(|l| l.contains("\"type\": \"shard_batch\"")).expect("a batch");
    let (head, tail) = lines[i].split_once("\"tick.total\": {").expect("a profiled batch");
    let forged = format!(
        "{head}\"tick.total\": {{{}",
        tail.replacen(
            "\"buckets\": [",
            "\"buckets\": [[3, \"18446744073709551615\"], [3, \"1\"], ",
            1
        )
    );
    lines[i] = forged;
    let art = parse_artifact(&(lines.join("\n") + "\n")).expect("the manifest still parses");
    assert!(art.batches.is_empty() && art.runs.is_empty() && !art.complete, "{art:?}");
}

/// Two real shards whose metric slices each claim `u64::MAX` ticks, and
/// two whose runs' tick totals overflow: both merges are mismatches.
#[test]
fn overflowing_merges_are_mismatches() {
    let c = corpus();
    let shard = |i: usize| c.doc(&format!("shard {i}/2"));
    let forge = |text: &str, from: &str, to: &str| {
        let forged = text.lines().map(|l| {
            let mut out = String::new();
            let mut rest = l;
            while let Some((head, tail)) = rest.split_once(from) {
                let digits = tail.find('"').expect("quoted u64");
                out.push_str(head);
                out.push_str(to);
                rest = &tail[digits..];
            }
            out + rest
        });
        parse_artifact(&(forged.collect::<Vec<_>>().join("\n") + "\n")).expect("parses")
    };
    for (from, to) in [
        ("\"runtime.ticks\": \"", "\"runtime.ticks\": \"18446744073709551615"),
        ("\"ticks\": \"", "\"ticks\": \"9223372036854775808"),
    ] {
        let arts = [forge(shard(0), from, to), forge(shard(1), from, to)];
        assert!(arts.iter().all(|a| a.complete), "{from}: forged shards stay complete");
        match merge_artifacts(&arts) {
            Err(ShardError::Mismatch(msg)) => assert!(msg.contains("overflow"), "{msg}"),
            other => panic!("{from}: expected an overflow mismatch, got {other:?}"),
        }
    }
}
