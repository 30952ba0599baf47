//! End-to-end gate: `tracecheck` must consume the journal a *real*
//! traced campaign writes — not just the synthetic fixtures of the unit
//! tests — and produce the per-cell summary, the latency distributions,
//! a valid Chrome trace export, and the profiling summary.

use diverseav::AgentMode;
use diverseav_bench::tracecheck::{
    cell_summary, chrome_trace, latency_report, metrics_summary, parse_trace,
};
use diverseav_fabric::Profile;
use diverseav_faultinj::{run_campaign_cached, Campaign, CampaignScale, FaultModelKind};
use diverseav_obs::json::{self, Value};
use diverseav_obs::{journal, metrics};
use diverseav_simworld::{ScenarioKind, SensorConfig};

#[test]
fn tracecheck_consumes_a_real_traced_campaign() {
    // Enable journaling (`trace::enabled` reads the environment on
    // every call) before the campaign fans out.
    std::env::set_var("DIVERSEAV_TRACE", "1");
    journal::clear();
    metrics::clear();

    let scale = CampaignScale {
        n_transient: 6,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 10.0,
        training_runs: 1,
    };
    let campaign = Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Transient,
        mode: AgentMode::RoundRobin,
    };
    let result = run_campaign_cached(campaign, &scale, None, SensorConfig::default(), true, None);
    std::env::remove_var("DIVERSEAV_TRACE");
    assert_eq!(result.golden.len(), 2);
    assert_eq!(result.injected.len(), 6);

    // The journal the pipeline actually wrote parses cleanly.
    let text = journal::snapshot().join("\n");
    let trace = parse_trace(&text).expect("the real journal parses without errors");
    assert_eq!(trace.runs.len(), 8, "2 golden + 6 injected run lines");
    assert!(!trace.spans.is_empty(), "engine spans were journaled");

    // Per-cell summary: one [golden] row and one injected row for the
    // campaign label.
    let label = campaign.to_string();
    let summary = cell_summary(&trace.runs);
    assert!(summary.contains(&label), "summary lists the campaign cell:\n{summary}");
    assert!(summary.contains("[golden]"), "golden runs get their own row:\n{summary}");

    // Distribution report renders (whether or not any injected run both
    // alarmed and collided at this tiny scale).
    let report = latency_report(&trace.runs);
    assert!(report.contains("peak divergence"), "divergence block present:\n{report}");

    // Chrome export: valid JSON, one complete ("X") event per real
    // engine span, one metadata record per worker.
    let chrome = chrome_trace(&trace);
    let doc = json::parse(&chrome).expect("chrome export is valid JSON");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
    assert_eq!(
        events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).count(),
        trace.spans.len(),
        "one complete event per span"
    );
    assert!(
        events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("M")),
        "worker thread_name metadata"
    );

    // Profiling summary over the metrics the same campaign recorded.
    let snap = json::parse(&metrics::render_json(&metrics::MetricsSlice::capture()))
        .expect("metrics JSON");
    let prof = metrics_summary(&snap).expect("the registry snapshot is complete");
    assert!(prof.contains("tick.total"), "per-phase histograms surfaced:\n{prof}");
    assert!(prof.contains("deadline"), "deadline tallies surfaced:\n{prof}");
}
