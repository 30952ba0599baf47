//! # diverseav-faultinj
//!
//! Fault-injection campaign tooling for the DiverseAV reproduction: the
//! assessment platform of the paper's Fig 3 — Campaign Manager, Injection
//! Plan Generator, Driver, and run classification.
//!
//! A campaign targets one cell of Table I: `{GPU, CPU} × {transient,
//! permanent} × {LeadSlowdown, GhostCutIn, FrontAccident}`, plus the
//! sensor-boundary extension `sensor-<class>` campaigns (five
//! [`diverseav_runtime::SensorFaultKind`] classes injected between
//! `World::capture_into` and the driver). Golden runs double as the
//! NVBitFI-style profiling pass that sizes the transient fault-site
//! space and enumerates the opcodes for permanent campaigns.
//!
//! ## Example
//!
//! ```no_run
//! use diverseav::AgentMode;
//! use diverseav_fabric::Profile;
//! use diverseav_faultinj::{
//!     run_campaign_cached, summarize, Campaign, CampaignScale, FaultModelKind,
//! };
//! use diverseav_simworld::{ScenarioKind, SensorConfig};
//!
//! let campaign = Campaign {
//!     scenario: ScenarioKind::LeadSlowdown,
//!     target: Profile::Gpu,
//!     kind: FaultModelKind::Transient,
//!     mode: AgentMode::RoundRobin,
//! };
//! let scale = CampaignScale::quick();
//! let result = run_campaign_cached(campaign, &scale, None, SensorConfig::default(), false, None);
//! let row = summarize(&result, 2.0);
//! println!("{campaign}: {} active, {} hang/crash", row.active, row.hang_crash);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod campaign;
pub mod exec;
pub mod guided;
pub mod outcome;
pub mod plan;
pub mod record;
pub mod runner;
pub mod shard;

pub use cache::{sensor_fingerprint, GoldenCache, GoldenKey, GoldenSet};
pub use campaign::{
    campaign_units, collect_training_runs, plan_seed, run_campaign_cached, scenario_for, summarize,
    Campaign, CampaignResult, CampaignScale, RunUnit, TableRow, GOLDEN_SEED_BASE,
    INJECTED_SEED_BASE,
};
pub use exec::{detected_parallelism, par_map, par_map_indices, par_map_with, thread_count};
pub use guided::{
    adaptive_allocation, ess, is_safety_critical, pilot_allocation, run_weight, stratum_label,
    uniform_budget, EpochSummary, GuidedConfig, GuidedPlanner, GuidedSpec, Stratum, StratumTally,
    WeightedRow, CRITICAL_INCIDENTS,
};
pub use outcome::{
    classify, classify_parts, evaluate_detector, first_violation_time, max_traj_divergence,
    mean_trajectory, DetectionEval, OutcomeClass, Tally,
};
pub use plan::{
    generate_plan, op_class, stratum_seed, FaultModelKind, PlanConfig, OP_CLASSES, OP_CLASS_LABELS,
};
// Sensor-fault realizations live in the runtime crate (the injector is a
// `SimLoop` hook); re-exported here so campaign code has one import root.
pub use diverseav_runtime::{IncidentKind, SensorFault, SensorFaultKind};
pub use record::{run_record, RunRecord};
pub use runner::{
    run_experiment, run_experiment_observed, FaultSpec, RunConfig, RunResult, Termination,
};
pub use shard::{
    campaign_fingerprint, collect_incidents, execute_shard, execute_shard_limited,
    guided_epoch_summary, guided_fingerprint, incident_sidecar_path, merge_artifacts,
    parse_artifact, parse_incident_artifact, summarize_merged, summarize_weighted, unit_shard,
    GuidedManifest, GuidedShardSpec, IncidentArtifact, IncidentPayload, IncidentRecord,
    MergedCampaign, MergedGuided, MetricsSlice, ShardArtifact, ShardConfig, ShardError,
    ShardManifest, ShardRun, ShardSpec, ShardStatus, SHARD_SCHEMA_VERSION,
};
