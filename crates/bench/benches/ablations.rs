//! Ablation studies of the DiverseAV design choices DESIGN.md calls out:
//! state-binned thresholds, neighborhood smoothing, the rolling window,
//! the safety margin — and the footnote-5 partial-overlap distribution
//! (detection quality vs compute cost).

use diverseav::{AgentMode, DetectorConfig, DetectorModel};
use diverseav_bench::evaluate_cell;
use diverseav_bench::experiments::{gpu_campaigns, training, BEST_RW, BEST_TD};
use diverseav_faultinj::{CampaignResult, CampaignScale};
use std::num::NonZeroU32;

fn ablation_scale() -> CampaignScale {
    CampaignScale {
        n_transient: 8,
        permanent_repeats: 1,
        golden_runs: 3,
        long_route_duration: 60.0,
        training_runs: 1,
    }
}

/// Mean GPU instructions per golden run: the compute a mode costs.
fn golden_gpu_instr(campaigns: &[CampaignResult]) -> f64 {
    let instr: Vec<f64> =
        campaigns.iter().flat_map(|c| &c.golden).map(|g| g.gpu_dyn_instr as f64).collect();
    instr.iter().sum::<f64>() / instr.len() as f64
}

fn main() {
    let scale = ablation_scale();
    let training_rr = training(AgentMode::RoundRobin, &scale);
    eprintln!("running baseline campaigns ...");
    let campaigns = gpu_campaigns(AgentMode::RoundRobin, &scale);
    let base_instr = golden_gpu_instr(&campaigns);

    // ---------------- detector design ablations ----------------
    println!("== Ablation A: error-detector design choices (td = {BEST_TD} m) ==\n");
    println!(
        "{:<34} {:>9} {:>7} {:>7} {:>14}",
        "variant", "precision", "recall", "F1", "golden alarms"
    );
    let variants: Vec<(&str, DetectorConfig)> = vec![
        ("full detector (paper design)", DetectorConfig::default().with_rw(BEST_RW)),
        ("no rolling window (rw = 1)", DetectorConfig::default().with_rw(1)),
        ("large window (rw = 12)", DetectorConfig::default().with_rw(12)),
        ("no state binning (global max)", {
            let mut c = DetectorConfig::default().with_rw(BEST_RW);
            c.v_bin = 1e6;
            c.a_bin = 1e6;
            c.w_bin = 1e6;
            c.alpha_bin = 1e6;
            c
        }),
        ("no neighborhood smoothing", {
            let mut c = DetectorConfig::default().with_rw(BEST_RW);
            c.neighborhood = false;
            c
        }),
        ("no safety margin (margin = 1.0)", {
            let mut c = DetectorConfig::default().with_rw(BEST_RW);
            c.margin = 1.0;
            c
        }),
    ];
    for (name, cfg) in variants {
        let model = DetectorModel::train(&training_rr, &cfg);
        let cell = evaluate_cell(&model, cfg, &campaigns, BEST_TD);
        println!(
            "{:<34} {:>9.2} {:>7.2} {:>7.2} {:>14}",
            name,
            cell.eval.precision(),
            cell.eval.recall(),
            cell.eval.f1(),
            cell.golden_alarms
        );
    }

    // ---------------- partial-overlap distribution ----------------
    println!("\n== Ablation B: partial-overlap distribution (paper footnote 5) ==\n");
    println!(
        "{:<22} {:>9} {:>7} {:>14} {:>16}",
        "overlap", "precision", "recall", "golden alarms", "GPU compute"
    );
    let overlap = |p| AgentMode::Overlap(NonZeroU32::new(p).expect("nonzero period"));
    for (label, mode) in [
        ("none (pure RR)", AgentMode::RoundRobin),
        ("every 4th frame", overlap(4)),
        ("every 2nd frame", overlap(2)),
    ] {
        // Train in the SAME mode the deployment uses: overlap frames
        // contribute same-frame (near-zero) divergence samples that the
        // thresholds must reflect.
        let owned;
        let (c, t) = if mode == AgentMode::RoundRobin {
            (&campaigns, &training_rr)
        } else {
            eprintln!("running {mode} campaigns ...");
            owned = (gpu_campaigns(mode, &scale), training(mode, &scale));
            (&owned.0, &owned.1)
        };
        let cfg = DetectorConfig::default().with_rw(BEST_RW);
        let model = DetectorModel::train(t, &cfg);
        let cell = evaluate_cell(&model, cfg, c, BEST_TD);
        println!(
            "{:<22} {:>9.2} {:>7.2} {:>14} {:>15.0}%",
            label,
            cell.eval.precision(),
            cell.eval.recall(),
            cell.golden_alarms,
            golden_gpu_instr(c) / base_instr * 100.0
        );
    }
    println!(
        "\nShape: overlap trades extra compute for a same-frame (FD-like) reference on\n\
         overlap frames; pure round-robin keeps compute at the single-agent budget."
    );
}
