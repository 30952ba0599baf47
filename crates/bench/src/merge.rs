//! Report generation for merged shard artifacts — the library half of
//! the `diverseav-merge` binary.
//!
//! A merged campaign must produce the *same* Table-I text, metrics
//! document, and journal lines the monolithic path produces, regardless
//! of how many shards it was cut into or on how many machines they ran.
//! Everything here therefore consumes only campaign-invariant manifest
//! fields plus the merged run set — never shard counts, batch sizes, or
//! wall-clocks.

use diverseav_analysis::Table;
use diverseav_faultinj::shard::{IncidentRecord, MergedCampaign, MetricsSlice, ShardError};
use diverseav_faultinj::{stratum_label, summarize_merged, summarize_weighted};
use diverseav_obs::json;
use diverseav_obs::{metrics, MetricsSnapshot};
use std::collections::BTreeMap;

/// Render merged campaigns as the Table-I summary text.
///
/// Same columns, row format and counts as the monolithic `table1_report`
/// table, with one difference in labels: every row's FI target is
/// `<target>-<kind>`, so a sensor row reads `GPU-sensor-dropout` where
/// `table1_report` prints the target-agnostic `sensor-dropout`.
/// Deliberately free of any shard-count or timing information so a
/// 4-shard merge and a 1-shard merge diff clean.
pub fn table_text(merged: &[MergedCampaign], td: f64) -> String {
    let mut out = String::from("== Table I (merged): fault-injection campaign summary ==\n\n");
    let mut t = Table::new(vec![
        "FI target",
        "DS",
        "#Active",
        "Hang/Crash",
        "Total FI",
        "#Acc",
        "#TrajViol",
    ]);
    for m in merged {
        let row = summarize_merged(m, td);
        t.row(vec![
            format!("{}-{}", m.manifest.target, m.manifest.kind),
            m.manifest.scenario.clone(),
            row.active.to_string(),
            row.hang_crash.to_string(),
            row.total.to_string(),
            row.accidents.to_string(),
            row.traj_violations.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Render merged *guided* campaigns as the Horvitz–Thompson-weighted
/// Table-I text: every cell is the importance-weighted estimate of the
/// uniform-enumeration tally, plus the executed run count and effective
/// sample size a reader needs to judge the estimates.
///
/// Like [`table_text`], this is a pure function of the campaign seeds —
/// a 3-shard guided merge and a 1-shard guided merge diff byte-for-byte.
/// Fails if any campaign is uniform or has unmerged epochs.
pub fn weighted_table_text(merged: &[MergedCampaign], td: f64) -> Result<String, ShardError> {
    let mut out = String::from("== Table I (guided, weighted): Horvitz-Thompson estimates ==\n\n");
    let mut t = Table::new(vec![
        "FI target",
        "DS",
        "~#Active",
        "~Hang/Crash",
        "Total FI",
        "Runs",
        "~#Acc",
        "~#TrajViol",
        "ESS",
    ]);
    for m in merged {
        let row = summarize_weighted(m, td)?;
        t.row(vec![
            format!("{}-{}", m.manifest.target, m.manifest.kind),
            m.manifest.scenario.clone(),
            format!("{:.3}", row.active),
            format!("{:.3}", row.hang_crash),
            row.budget.to_string(),
            row.runs.to_string(),
            format!("{:.3}", row.accidents),
            format!("{:.3}", row.traj_violations),
            format!("{:.1}", row.ess),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Render the guided campaign report: per-campaign epoch/allocation
/// tables (how the adaptive planner spread the budget over strata, per
/// epoch, with per-stratum weights and safety-critical counts), the
/// weighted Table-I estimates, and the effective sample size.
/// `diverseav-tracecheck --guided` consumes this document.
///
/// Everything here is recomputed from the merged run lines — the same
/// evidence the merge validated — so the report is a pure function of
/// the campaign seeds and diffs byte-for-byte across shard shapes.
pub fn guided_report_doc(merged: &[MergedCampaign], td: f64) -> Result<String, ShardError> {
    let mut out = String::from("{\n  \"type\": \"guided_report\",\n  \"campaigns\": [\n");
    for (ci, m) in merged.iter().enumerate() {
        let g = m.guided.as_ref().ok_or_else(|| {
            ShardError::Mismatch(format!(
                "campaign {:?}: guided report requested for a uniform merge",
                m.manifest.campaign
            ))
        })?;
        let row = summarize_weighted(m, td)?;
        // Per-epoch, per-stratum (runs, critical, weight) from the run lines.
        let mut epochs_json = Vec::with_capacity(g.epochs_done);
        for e in 0..g.epochs_done {
            let (lo, hi) = (g.epoch_starts[e], g.epoch_starts[e] + g.epoch_runs[e]);
            let mut strata: BTreeMap<u64, (u64, u64, f64)> = BTreeMap::new();
            for r in &m.injected[lo..hi] {
                let code = r.stratum.expect("guided merges validate strata");
                let slot = strata.entry(code).or_insert((0, 0, 0.0));
                slot.0 += 1;
                slot.1 += u64::from(diverseav_faultinj::is_safety_critical(r.incident.as_deref()));
                slot.2 = r.weight.expect("guided merges validate weights");
            }
            let cells: Vec<String> = strata
                .iter()
                .map(|(code, (runs, critical, weight))| {
                    format!(
                        "{{\"stratum\": \"{code:04x}\", \"label\": \"{}\", \"runs\": {runs}, \
                         \"critical\": {critical}, \"weight\": {weight}}}",
                        json::escape(&stratum_label(*code)),
                    )
                })
                .collect();
            epochs_json.push(format!(
                "        {{\"epoch\": {e}, \"runs\": {}, \"allocation\": [{}]}}",
                g.epoch_runs[e],
                cells.join(", "),
            ));
        }
        let sep = if ci + 1 == merged.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"campaign\": \"{}\", \"fingerprint\": \"{:016x}\", \
             \"epochs\": {}, \"epochs_done\": {}, \"budget\": {}, \"runs\": {}, \
             \"ess\": {}, \"active\": {}, \"hang_crash\": {}, \"accidents\": {}, \
             \"traj_violations\": {},\n      \"epoch_table\": [\n{}\n      ]}}{sep}\n",
            json::escape(&m.manifest.campaign),
            m.manifest.fingerprint,
            g.epochs,
            g.epochs_done,
            m.manifest.injected_runs,
            row.runs,
            row.ess,
            row.active,
            row.hang_crash,
            row.accidents,
            row.traj_violations,
            epochs_json.join(",\n"),
        ));
    }
    out.push_str("  ]\n}\n");
    Ok(out)
}

/// Render the merged `METRICS_campaigns.json`: the per-campaign metric
/// slices folded into one registry snapshot (phases are wall-clock and
/// therefore per-machine — a merge has none).
///
/// # Errors
///
/// [`ShardError::Mismatch`] when the fold overflows a counter or
/// histogram (forged artifacts only).
pub fn metrics_doc(merged: &[MergedCampaign]) -> Result<String, ShardError> {
    let mut folded = MetricsSlice::default();
    for m in merged {
        folded.add(&m.metrics).map_err(ShardError::Mismatch)?;
    }
    let MetricsSlice { counters, gauges, hists } = folded;
    let snap = MetricsSnapshot { counters, gauges, phases: BTreeMap::new(), hists };
    Ok(metrics::render_json(&snap))
}

/// Render a merged incident document for one campaign: a
/// `merged_incidents` header carrying the campaign identity and count,
/// then one [`IncidentRecord`] line per incident in engine order
/// (golden before injected, index-ascending — the order
/// [`diverseav_faultinj::collect_incidents`] returns). Batch numbers are
/// a shard-resume detail and are not re-rendered here; the document is a
/// pure function of the campaign seeds.
pub fn incidents_doc(m: &MergedCampaign, incidents: &[IncidentRecord]) -> String {
    let mut out = format!(
        concat!(
            "{{\"type\": \"merged_incidents\", \"flight_schema_version\": {}, ",
            "\"campaign\": \"{}\", \"fingerprint\": \"{:016x}\", \"incidents\": {}}}\n",
        ),
        diverseav_obs::flight::FLIGHT_SCHEMA_VERSION,
        diverseav_obs::json::escape(&m.manifest.campaign),
        m.manifest.fingerprint,
        incidents.len(),
    );
    for rec in incidents {
        out.push_str(&rec.render_merged());
        out.push('\n');
    }
    out
}

/// Render the merged run journal (`DIVERSEAV_TRACE`-format JSONL):
/// golden then injected runs per campaign, index-ordered — the same
/// canonical order and the same [`RunRecord`] lines the traced
/// monolithic path writes.
///
/// [`RunRecord`]: diverseav_faultinj::RunRecord
pub fn journal_doc(merged: &[MergedCampaign]) -> String {
    let mut out = String::new();
    for r in merged.iter().flat_map(|m| m.golden.iter().chain(&m.injected)) {
        out.push_str(&r.render_journal_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use diverseav_faultinj::shard::{MetricsSlice, ShardManifest, ShardRun};
    use diverseav_faultinj::{GOLDEN_SEED_BASE, INJECTED_SEED_BASE, SHARD_SCHEMA_VERSION};
    use diverseav_obs::hist::bucket_index;
    use diverseav_obs::json::Value;
    use diverseav_obs::HistSnapshot;
    use diverseav_simworld::{TrajPoint, Vec2};

    fn merged_fixture() -> MergedCampaign {
        let manifest = ShardManifest {
            schema_version: SHARD_SCHEMA_VERSION,
            fingerprint: 0xBEEF,
            plan_seed: 7,
            campaign: "GPU-transient LSD [diverseav]".to_string(),
            scenario: "LSD".to_string(),
            scenario_name: "lead_slowdown".to_string(),
            target: "GPU".to_string(),
            kind: "transient".to_string(),
            mode: "diverseav".to_string(),
            shard_index: 0,
            shard_count: 2,
            batch_size: 4,
            golden_runs: 1,
            injected_runs: 1,
            guided: None,
        };
        let run = |kind: &'static str, index: usize, base: u64, collision: Option<f64>| ShardRun {
            campaign: "GPU-transient LSD [diverseav]".to_string(),
            scenario: "lead_slowdown".to_string(),
            kind,
            index,
            seed: base + index as u64,
            outcome: if collision.is_some() { "collision" } else { "completed" }.to_string(),
            end_time: 2.0,
            collision_time: collision,
            alarm_time: None,
            fault_activated: collision.is_some(),
            fault_onset_time: None,
            min_cvip: 4.0,
            red_light_violations: 0,
            ticks: 80,
            deadline_misses: 1,
            incident: None,
            stratum: None,
            weight: None,
            div_peak: [0.0; 3],
            fault: None,
            trajectory: vec![TrajPoint { t: 0.0, pos: Vec2 { x: 0.0, y: 0.0 } }],
        };
        let golden = vec![run("golden", 0, GOLDEN_SEED_BASE, None)];
        let baseline = golden[0].trajectory.clone();
        MergedCampaign {
            manifests: vec![manifest.clone()],
            manifest,
            injected: vec![run("injected", 0, INJECTED_SEED_BASE, Some(1.5))],
            golden,
            baseline,
            metrics: MetricsSlice::default(),
            guided: None,
        }
    }

    /// The merged_fixture reshaped into a 1-epoch guided campaign: the
    /// single injected run carries weight 1 for its whole stratum.
    fn guided_fixture() -> MergedCampaign {
        use diverseav_faultinj::shard::{GuidedManifest, MergedGuided};
        let mut m = merged_fixture();
        m.manifest.guided = Some(GuidedManifest {
            epochs: 1,
            epoch: 0,
            epoch_start: 0,
            epoch_runs: 1,
            prior_digest: 0,
        });
        m.injected[0].stratum = Some(0x7100);
        m.injected[0].weight = Some(1.0);
        m.guided = Some(MergedGuided {
            epochs: 1,
            epochs_done: 1,
            epoch_starts: vec![0],
            epoch_runs: vec![1],
        });
        m
    }

    #[test]
    fn weighted_table_reports_estimates_and_refuses_uniform() {
        let text = weighted_table_text(&[guided_fixture()], 2.0).expect("guided merge");
        assert!(text.contains("Horvitz-Thompson"), "{text}");
        assert!(text.contains("GPU-transient"), "{text}");
        assert!(text.contains("1.000"), "weighted accident estimate: {text}");
        assert!(weighted_table_text(&[merged_fixture()], 2.0).is_err(), "uniform must refuse");
    }

    #[test]
    fn guided_report_doc_is_valid_json_with_allocation_table() {
        let doc = guided_report_doc(&[guided_fixture()], 2.0).expect("guided merge");
        let v = json::parse(&doc).expect("report parses as JSON");
        assert_eq!(v.get("type").and_then(Value::as_str), Some("guided_report"));
        assert!(doc.contains("\"stratum\": \"7100\""), "{doc}");
        assert!(doc.contains("\"label\": \"T:phase0/pos0\""), "{doc}");
        assert!(doc.contains("\"epoch_table\""), "{doc}");
        assert!(guided_report_doc(&[merged_fixture()], 2.0).is_err(), "uniform must refuse");
    }

    #[test]
    fn table_text_matches_monolithic_row_format() {
        let text = table_text(&[merged_fixture()], 2.0);
        assert!(text.contains("FI target"), "{text}");
        assert!(text.contains("GPU-transient"), "{text}");
        assert!(text.contains("LSD"), "{text}");
        assert!(!text.contains("shard"), "table must carry no shard info: {text}");
    }

    /// A metric slice holding a campaign's deadline tally and a
    /// `tick.total` histogram of `ticks` ticks of `tick_ns` each.
    fn deadline_slice(ticks: u64, misses: u64, worst_ns: u64, tick_ns: u64) -> MetricsSlice {
        let mut s = MetricsSlice::default();
        s.counters.insert("deadline.ticks".to_string(), ticks);
        s.counters.insert("deadline.misses".to_string(), misses);
        s.gauges.insert("deadline.worst_ns".to_string(), worst_ns as f64);
        let total =
            HistSnapshot::from_sparse(&[(bucket_index(tick_ns), ticks)], ticks * tick_ns, tick_ns)
                .expect("fixture histogram");
        s.hists.insert("tick.total".to_string(), total);
        s
    }

    #[test]
    fn metrics_doc_renders_and_folds_deadline_facts() {
        let num = |doc: &str, path: &[&str]| -> Option<f64> {
            let v = json::parse(doc).expect("valid JSON");
            path.iter().try_fold(&v, |v, k| v.get(k)).and_then(Value::as_f64)
        };
        let mut a = merged_fixture();
        a.metrics = deadline_slice(160, 2, 26_000_000, 12_000_000);
        let doc = metrics_doc(std::slice::from_ref(&a)).expect("metrics fold");
        assert_eq!(num(&doc, &["counters", "deadline.ticks"]), Some(160.0));
        assert_eq!(num(&doc, &["counters", "deadline.misses"]), Some(2.0));
        assert_eq!(num(&doc, &["gauges", "deadline.worst_ns"]), Some(26e6));
        assert_eq!(num(&doc, &["histograms", "tick.total", "count"]), Some(160.0));
        assert_eq!(num(&doc, &["histograms", "tick.total", "sum"]), Some(160.0 * 12e6));
        let v = json::parse(&doc).expect("valid JSON");
        let phases = v.get("phases").and_then(Value::as_obj).expect("phases object");
        assert!(phases.is_empty(), "a merge has no wall-clock phases: {doc}");

        // Two campaigns fold to the sums of their counters and histograms
        // and the maximum of their worst ticks.
        let mut b = merged_fixture();
        b.metrics = deadline_slice(40, 1, 31_000_000, 31_000_000);
        let doc = metrics_doc(&[a, b]).expect("metrics fold");
        assert_eq!(num(&doc, &["counters", "deadline.ticks"]), Some(200.0));
        assert_eq!(num(&doc, &["counters", "deadline.misses"]), Some(3.0));
        assert_eq!(num(&doc, &["gauges", "deadline.worst_ns"]), Some(31e6));
        assert_eq!(num(&doc, &["histograms", "tick.total", "count"]), Some(200.0));
        let sum = 160.0 * 12e6 + 40.0 * 31e6;
        assert_eq!(num(&doc, &["histograms", "tick.total", "sum"]), Some(sum));
        assert_eq!(num(&doc, &["histograms", "tick.total", "max"]), Some(31e6));
    }

    #[test]
    fn journal_doc_writes_canonical_run_lines() {
        let doc = journal_doc(&[merged_fixture()]);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\": \"golden\""), "{}", lines[0]);
        assert!(lines[1].contains("\"kind\": \"injected\""), "{}", lines[1]);
        assert!(lines[1].contains("\"outcome\": \"collision\""), "{}", lines[1]);
    }

    #[test]
    fn incidents_doc_frames_records_in_engine_order() {
        let m = merged_fixture();
        let rec = |kind: &str, index: usize, seed: u64| IncidentRecord {
            kind: kind.to_string(),
            index,
            seed,
            incident: "crash".to_string(),
            fault_class: None,
            fault_onset_time: None,
            alarm_time: None,
            flight: Vec::new(),
        };
        let incidents =
            vec![rec("golden", 0, GOLDEN_SEED_BASE), rec("injected", 0, INJECTED_SEED_BASE)];
        let doc = incidents_doc(&m, &incidents);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\": \"merged_incidents\""), "{}", lines[0]);
        assert!(lines[0].contains("\"fingerprint\": \"000000000000beef\""), "{}", lines[0]);
        assert!(lines[0].contains("\"incidents\": 2"), "{}", lines[0]);
        assert!(lines[1].contains("\"kind\": \"golden\""), "{}", lines[1]);
        assert!(lines[2].contains("\"kind\": \"injected\""), "{}", lines[2]);
        assert!(!doc.contains("\"batch\""), "merged docs carry no shard-resume state: {doc}");
        for line in &lines {
            json::parse(line).expect("every incident-doc line is valid JSON");
        }
    }
}
