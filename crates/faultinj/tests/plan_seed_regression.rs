//! Regression pin for the `plan_seed` collision fixed in the parallel
//! engine PR: the original seed derivation (`0xC0FE ^ abbrev().len()`)
//! collapsed GhostCutIn ("GC") and FrontAccident ("FA") onto one seed —
//! their abbreviations share a length — so both scenarios drew the same
//! fault sites, and the target, fault model, and agent mode never
//! entered the seed at all. These tests pin the fix across the whole
//! campaign cross product so the collision cannot quietly return.

use diverseav::AgentMode;
use diverseav_fabric::Profile;
use diverseav_faultinj::{plan_seed, Campaign, FaultModelKind};
use diverseav_simworld::ScenarioKind;
use std::collections::HashMap;
use std::num::NonZeroU32;

const MODES: [AgentMode; 5] = [
    AgentMode::Single,
    AgentMode::RoundRobin,
    AgentMode::Duplicate,
    AgentMode::Overlap(NonZeroU32::new(2).unwrap()),
    AgentMode::Overlap(NonZeroU32::new(4).unwrap()),
];
const TARGETS: [Profile; 2] = [Profile::Gpu, Profile::Cpu];
/// Every campaign kind: register flips plus the five sensor-boundary
/// classes added with the sensor-fault extension.
fn kinds() -> Vec<FaultModelKind> {
    let mut kinds = vec![FaultModelKind::Transient, FaultModelKind::Permanent];
    kinds.extend(FaultModelKind::SENSOR_KINDS);
    kinds
}

#[test]
fn ghost_cut_in_never_shares_a_seed_with_front_accident() {
    for target in TARGETS {
        for kind in kinds() {
            for mode in MODES {
                let gc = Campaign { scenario: ScenarioKind::GhostCutIn, target, kind, mode };
                let fa = Campaign { scenario: ScenarioKind::FrontAccident, ..gc };
                assert_ne!(
                    plan_seed(&gc),
                    plan_seed(&fa),
                    "GC/FA seed collision regressed for {gc} vs {fa}"
                );
            }
        }
    }
}

#[test]
fn every_campaign_cell_has_a_distinct_seed() {
    // 3 scenarios × 2 targets × 7 kinds (transient, permanent, and the
    // five sensor classes) × 5 modes (single, round-robin, FD, and two
    // footnote-5 overlap periods) = 210 cells; every one must draw from
    // its own fault-site distribution.
    let mut seen: HashMap<u64, Campaign> = HashMap::new();
    for scenario in ScenarioKind::safety_critical() {
        for target in TARGETS {
            for kind in kinds() {
                for mode in MODES {
                    let c = Campaign { scenario, target, kind, mode };
                    if let Some(prev) = seen.insert(plan_seed(&c), c) {
                        panic!("seed collision between {prev} and {c}");
                    }
                }
            }
        }
    }
    assert_eq!(seen.len(), 210);
}
