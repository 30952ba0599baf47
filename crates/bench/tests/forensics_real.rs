//! End-to-end gate for the flight-recorder forensics: a *real* traced
//! campaign per sensor fault class must produce incident payloads whose
//! merged JSONL document round-trips through [`parse_incidents`] and
//! whose [`forensics_report`] decomposes every class into the
//! onset → detectable → alarm timeline. The incident document this test
//! writes (under `CARGO_TARGET_TMPDIR`) doubles as the CI input for the
//! `diverseav-tracecheck --forensics` command-line run.

use diverseav::{AgentMode, DetectorConfig, DetectorModel};
use diverseav_bench::experiments::BEST_RW;
use diverseav_bench::tracecheck::{forensics_report, parse_incidents};
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    collect_training_runs, run_campaign_cached, Campaign, CampaignScale, FaultModelKind,
    IncidentRecord, SensorFaultKind,
};
use diverseav_obs::flight::FLIGHT_SCHEMA_VERSION;
use diverseav_simworld::{ScenarioKind, SensorConfig};
use std::path::Path;
use std::sync::OnceLock;

fn tiny_scale() -> CampaignScale {
    CampaignScale {
        n_transient: 4,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 20.0,
        training_runs: 1,
    }
}

/// The detector is trained once (fault-free runs only) and shared by
/// every per-class campaign — the paper's workflow.
fn detector() -> &'static (DetectorModel, DetectorConfig) {
    static DET: OnceLock<(DetectorModel, DetectorConfig)> = OnceLock::new();
    DET.get_or_init(|| {
        let tr =
            collect_training_runs(AgentMode::RoundRobin, &tiny_scale(), SensorConfig::default());
        let cfg = DetectorConfig::default().with_rw(BEST_RW);
        (DetectorModel::train(&tr, &cfg), cfg)
    })
}

#[test]
fn forensics_decomposes_every_sensor_fault_class_on_a_real_campaign() {
    let mut incidents: Vec<IncidentRecord> = Vec::new();
    for class in SensorFaultKind::ALL {
        let campaign = Campaign {
            scenario: ScenarioKind::LeadSlowdown,
            target: Profile::Gpu,
            kind: FaultModelKind::Sensor(class),
            mode: AgentMode::RoundRobin,
        };
        let r = run_campaign_cached(
            campaign,
            &tiny_scale(),
            Some(detector().clone()),
            SensorConfig::default(),
            false,
            None,
        );
        let before = incidents.len();
        for (kind, runs) in [("golden", &r.golden), ("injected", &r.injected)] {
            for (i, run) in runs.iter().enumerate() {
                incidents.extend(IncidentRecord::from_result(kind, i, run));
            }
        }
        assert!(
            incidents.len() > before,
            "{} campaign produced no incidents — its class row would be missing",
            class.label()
        );
    }

    // Write the merged-incident document the way `diverseav-merge
    // --incidents` frames it, then round-trip it through the forensics
    // parser — this file is also the CI input for the CLI run.
    let mut doc = format!(
        concat!(
            "{{\"type\": \"merged_incidents\", \"flight_schema_version\": {}, ",
            "\"campaign\": \"sensor suite [forensics gate]\", ",
            "\"fingerprint\": \"0000000000000000\", \"incidents\": {}}}\n",
        ),
        FLIGHT_SCHEMA_VERSION,
        incidents.len(),
    );
    for rec in &incidents {
        doc.push_str(&rec.render_merged());
        doc.push('\n');
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("INCIDENTS_forensics.jsonl");
    std::fs::write(&path, &doc).expect("incident document writes");

    let parsed = parse_incidents(&doc).expect("the real incident document parses");
    assert_eq!(parsed.len(), incidents.len());

    let report = forensics_report(&parsed);
    assert!(
        report.contains("time-to-detectability vs time-to-alarm"),
        "decomposition table present:\n{report}"
    );
    for class in SensorFaultKind::ALL {
        assert!(
            report.contains(class.label()),
            "class {} missing from the forensics report:\n{report}",
            class.label()
        );
    }
    // Every incident renders a sparkline (flight rings are never empty
    // on the incident path) and the timeline markers are explained.
    assert!(report.contains("o onset, ! alarm"), "sparkline marker legend:\n{report}");
    // At least one alarmed incident decomposes into the full
    // onset -> detectable -> alarm chain at this scale.
    assert!(
        report.contains("-> alarm +"),
        "no alarmed incident decomposed on a detector-equipped campaign:\n{report}"
    );
}
