//! A miniature fault-injection campaign: golden runs, plan generation,
//! injections, and a Table-I style summary — the full Fig-3 assessment
//! platform in one binary.
//!
//! ```text
//! cargo run --release --example mini_campaign
//! ```

use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{
    run_campaign_cached, summarize, Campaign, CampaignScale, FaultModelKind, OutcomeClass,
};
use diverseav_simworld::{ScenarioKind, SensorConfig};

fn main() {
    let scale = CampaignScale {
        n_transient: 8,
        permanent_repeats: 1,
        golden_runs: 3,
        ..CampaignScale::quick()
    };
    let campaign = Campaign {
        scenario: ScenarioKind::LeadSlowdown,
        target: Profile::Gpu,
        kind: FaultModelKind::Permanent,
        mode: AgentMode::RoundRobin,
    };
    println!("running campaign: {campaign} (miniature scale)\n");
    let result = run_campaign_cached(campaign, &scale, None, SensorConfig::default(), true, None);

    println!("per-run outcomes:");
    for run in &result.injected {
        let class = diverseav_faultinj::classify(run, &result.baseline, 2.0);
        let label = match class {
            OutcomeClass::HangCrash => "hang/crash",
            OutcomeClass::Accident => "ACCIDENT",
            OutcomeClass::TrajViolation => "trajectory violation",
            OutcomeClass::Benign => "benign",
        };
        println!(
            "  {:<44} active={:<5} → {label}",
            run.fault.expect("injected run").to_string(),
            run.fault_activated,
        );
    }

    let row = summarize(&result, 2.0);
    println!(
        "\nTable-I row: #Active={} Hang/Crash={} Total={} #Acc={} #TrajViol={}",
        row.active, row.hang_crash, row.total, row.accidents, row.traj_violations
    );
    println!(
        "(the paper's GPU-permanent LSD row: 513 active, 83 hang/crash, 513 total, 3 acc, 9 viol)"
    );
}
