//! Sharded, checkpointable campaign execution with a deterministic merge.
//!
//! A campaign's run set — golden runs plus the injection plan — is a pure
//! function of its seeds, so it can be partitioned across machines and
//! reassembled without changing a single bit of the result. This module
//! provides the three pieces:
//!
//! * **Partitioner** — [`unit_shard`] hashes every [`RunUnit`] with the
//!   campaign's [`plan_seed`] through the same SplitMix64 mix the plan
//!   generator uses. The assignment depends only on (plan seed, unit,
//!   shard count): every shard of a campaign computes the identical
//!   partition independently, with no coordination.
//! * **Shard executor** — [`execute_shard`] is the checkpointed sink of
//!   the one cut engine, `campaign::Cut`, which plans the campaign (the
//!   uniform plan or one guided epoch), keeps this shard's units and
//!   configures each run; [`run_campaign_cached`] is its other sink, the
//!   1-of-1 cut in memory. The executor adds only what is specific to a
//!   shard: it runs the units in deterministic batches and appends them
//!   to a versioned JSONL artifact and its incident sidecar. Each batch
//!   commits atomically (runs first, then a batch marker with cumulative
//!   metrics, of which resume and merge read only the last); an
//!   interrupted shard resumes at its last committed batch, and the
//!   finished artifact is byte-identical to an uninterrupted run:
//!   both files hold only what the seeds determine, so their bytes do not
//!   depend on the thread count or the wall clock either. A checkpoint
//!   from another configuration is refused, and a finished one adopted,
//!   before the profiling run when the difference does not depend on it.
//!   The profiling run — golden run 0, which sizes the plan — is
//!   simulated once per configuration per process: shard calls of the
//!   same campaign configuration (every shard, every guided epoch) share
//!   its result through a one-entry memo.
//! * **Merger** — [`merge_artifacts`] validates a set of shard artifacts
//!   (schema version, campaign fingerprint, exactly-once coverage, no
//!   gaps, no overlap) and reassembles the campaign: run results in
//!   engine order, the golden baseline, and metrics folded with the same
//!   commutative operations the monolithic path uses.
//!
//! Every value that reaches an artifact is encoded losslessly (`f64`s as
//! IEEE-754 bit patterns, `u64`s as decimal strings), so a merged
//! campaign is bit-identical to [`run_campaign_cached`] output for any
//! shard count, batch size, thread count, or kill/resume schedule.
//!
//! Runs that end in an *incident* (see
//! [`IncidentKind`](diverseav_runtime::IncidentKind)) additionally flush
//! their flight recording into an **incident sidecar** next to the shard
//! artifact ([`incident_sidecar_path`]): the artifact's own
//! [`ShardManifest`] line, byte for byte, then one [`IncidentPayload`]
//! line per incident — the run's key and its drained ring, nothing the
//! run line already says — committed at the same batch cadence as the
//! main artifact (sidecar lines land *before* the batch marker, so a
//! kill never commits a batch whose incident payloads are missing). The
//! run line carries the incident label; [`collect_incidents`] pairs each
//! merged artifact with the one sidecar whose manifest equals its own —
//! exactly once over (epoch, shard) — and joins each labelled run with
//! exactly one payload into an [`IncidentRecord`].
//!
//! [`run_campaign_cached`]: crate::campaign::run_campaign_cached

use crate::cache::{sensor_fingerprint, GoldenKey};
use crate::campaign::{
    plan_seed, scenario_for, unit_config, Campaign, CampaignScale, Cut, RunUnit, TableRow,
};
use crate::exec::par_map;
use crate::guided::{ess, is_safety_critical, EpochSummary, WeightedRow};
use crate::outcome::{mean_trajectory, Tally};
use crate::record::{run_record, RunRecord};
use crate::runner::{run_metered, RunResult};
use diverseav_obs::flight::{self, TickRecord};
use diverseav_obs::json::{self, Value};
use diverseav_obs::{metrics, profile, HistSnapshot, MetricsSlice, TimeSource};
use diverseav_simworld::{splitmix64, Scenario, SensorConfig, TrajPoint};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version stamped into every shard artifact; bumped whenever the line
/// format changes incompatibly. The merger refuses other versions.
/// v2 added `fault_onset_time` to run lines (sensor-boundary faults).
/// v3 added `incident` to run lines and the incident sidecar.
/// v4 added guided-campaign fields: `stratum`/`weight` on run lines and
/// the `guided` manifest member (epoch protocol, see [`crate::guided`]).
/// v5 made run lines the shard framing of [`RunRecord`]: `div_peak`
/// added, `seed` and a fault site's `cycle` written as decimal strings.
/// v6: the incident sidecar opens with the shard manifest.
/// v7: only seed-determined members — `shard_batch` lost `wall_secs` and
/// `threads`, the manifest `profile_source`, `assigned_runs` and the
/// guided `budget`, the footers their counts — and a sidecar payload is
/// its run's key plus its flight ring ([`IncidentPayload`]).
pub const SHARD_SCHEMA_VERSION: u32 = 7;

// Sidecar payloads are flight records, so the flight encoding is part of
// the shard schema: a flight-codec change must bump the shard schema too.
const _: () = assert!(
    flight::FLIGHT_SCHEMA_VERSION == 1,
    "the flight codec changed: bump SHARD_SCHEMA_VERSION, then re-pin this assertion"
);

/// Everything that can go wrong sharding or merging.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem failure reading or writing an artifact.
    Io(std::io::Error),
    /// An artifact that is not a shard artifact (bad manifest, wrong
    /// schema version).
    Parse(String),
    /// Valid artifacts that cannot be combined: overlapping or missing
    /// shards, coverage gaps, or mismatched campaign fingerprints.
    Mismatch(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard artifact I/O error: {e}"),
            ShardError::Parse(msg) => write!(f, "shard artifact parse error: {msg}"),
            ShardError::Mismatch(msg) => write!(f, "shard validation error: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Unique 64-bit code of a unit, fed into the partition hash. The tag
/// byte keeps the golden and injected spaces disjoint.
fn unit_code(unit: RunUnit) -> u64 {
    match unit {
        RunUnit::Golden(i) => (0x47 << 56) | i as u64,
        RunUnit::Injected(i) => (0x49 << 56) | i as u64,
    }
}

/// The shard (`0..shard_count`) that owns `unit` in a campaign with the
/// given plan seed. A pure function — every participant computes the
/// same partition — and statistically balanced via SplitMix64.
pub fn unit_shard(plan_seed: u64, unit: RunUnit, shard_count: usize) -> usize {
    (splitmix64(plan_seed ^ unit_code(unit)) % shard_count.max(1) as u64) as usize
}

/// Fingerprint of everything that determines a campaign's run set:
/// the plan seed (all campaign discriminants), the scale, the profiling
/// time source, and every sensor-config bit. Shards may only merge when
/// their fingerprints agree — otherwise they were cut from different
/// campaigns and their union is meaningless.
pub fn campaign_fingerprint(
    campaign: &Campaign,
    scale: &CampaignScale,
    sensor: &SensorConfig,
) -> u64 {
    let source_code: u64 = match profile::source() {
        TimeSource::Modeled => 1,
        TimeSource::Wall => 2,
    };
    let words = [
        plan_seed(campaign),
        scale.n_transient as u64,
        scale.permanent_repeats as u64,
        scale.golden_runs as u64,
        scale.long_route_duration.to_bits(),
        scale.training_runs as u64,
        source_code,
    ];
    let mut fp = 0xD1CE ^ SHARD_SCHEMA_VERSION as u64;
    for w in words.into_iter().chain(sensor_fingerprint(sensor)) {
        fp = splitmix64(fp ^ w);
    }
    fp
}

/// Fingerprint of a *guided* campaign: the uniform fingerprint folded
/// with the epoch count. Deliberately epoch-independent — every epoch's
/// artifacts carry the same fingerprint, so the merge groups a guided
/// campaign's full epoch sequence together, and guided artifacts can
/// never merge with uniform ones of the same campaign.
pub fn guided_fingerprint(
    campaign: &Campaign,
    scale: &CampaignScale,
    sensor: &SensorConfig,
    epochs: usize,
) -> u64 {
    splitmix64(campaign_fingerprint(campaign, scale, sensor) ^ (0x6D1D + epochs as u64))
}

/// Which shard of how many.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index (`0..count`).
    pub index: usize,
    /// Total shard count.
    pub count: usize,
}

impl ShardSpec {
    /// Reject impossible specs (`count == 0`, `index >= count`).
    pub fn validate(&self) -> Result<(), ShardError> {
        if self.count == 0 {
            Err(ShardError::Mismatch("shard count must be at least 1".to_string()))
        } else if self.index >= self.count {
            Err(ShardError::Mismatch(format!(
                "shard index {} out of range for {} shards",
                self.index, self.count
            )))
        } else {
            Ok(())
        }
    }
}

/// One epoch of a guided campaign, as seen by one shard. All shards of
/// one epoch must carry the identical spec (the prior included) — the
/// epoch plan is a pure function of it, so every shard draws the same
/// plan independently, exactly like the uniform path.
#[derive(Clone, Debug, PartialEq)]
pub struct GuidedShardSpec {
    /// Total epochs of the guided campaign.
    pub epochs: usize,
    /// Which epoch this shard invocation executes.
    pub epoch: usize,
    /// Cumulative summary of epochs `0..epoch` (required iff
    /// `epoch > 0`; produced by the merge of the prior epochs).
    pub prior: Option<EpochSummary>,
}

/// One shard of one campaign: everything [`execute_shard`] needs.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// The campaign being sharded.
    pub campaign: Campaign,
    /// Experiment scale (must match across all shards).
    pub scale: CampaignScale,
    /// Sensor configuration (must match across all shards).
    pub sensor: SensorConfig,
    /// Which shard this is.
    pub spec: ShardSpec,
    /// Runs per checkpoint batch (clamped to ≥ 1). The checkpoint
    /// granularity only — results are independent of it.
    pub batch_size: usize,
    /// Guided-campaign epoch to execute (`None` = uniform enumeration).
    pub guided: Option<GuidedShardSpec>,
}

/// The shard artifact's name for a [`RunRecord`]: one `shard_run` line
/// ([`RunRecord::render_shard_line`]) per run.
pub type ShardRun = RunRecord;

/// Render a batch marker's metric slice as JSON object members: its
/// counters, gauges and histograms, losslessly (u64s as decimal strings,
/// f64s as bit patterns, histograms sparse), leaving out zero counters
/// and empty histograms. A shard's runs record no phases.
fn render_metrics(m: &MetricsSlice) -> String {
    let counters: Vec<String> = m
        .counters
        .iter()
        .filter(|&(_, &v)| v > 0)
        .map(|(k, v)| format!("\"{}\": {}", json::escape(k), json::u64_str(*v)))
        .collect();
    let gauges: Vec<String> = m
        .gauges
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", json::escape(k), json::f64_bits(*v)))
        .collect();
    let hists: Vec<String> = m
        .hists
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(k, h)| {
            let pairs: Vec<String> =
                h.sparse().iter().map(|(i, c)| format!("[{}, {}]", i, json::u64_str(*c))).collect();
            format!(
                "\"{}\": {{\"sum\": {}, \"max\": {}, \"buckets\": [{}]}}",
                json::escape(k),
                json::u64_str(h.sum),
                json::u64_str(h.max),
                pairs.join(", ")
            )
        })
        .collect();
    format!(
        "\"counters\": {{{}}}, \"gauges\": {{{}}}, \"hists\": {{{}}}",
        counters.join(", "),
        gauges.join(", "),
        hists.join(", ")
    )
}

/// Parse the members rendered by [`render_metrics`].
fn parse_metrics(v: &Value) -> Result<MetricsSlice, String> {
    let mut out = MetricsSlice::default();
    for (k, val) in v.req_obj("counters")? {
        out.counters.insert(k.clone(), json::parse_u64_str(val)?);
    }
    for (k, val) in v.req_obj("gauges")? {
        out.gauges.insert(k.clone(), json::parse_f64_bits(val)?);
    }
    for (k, val) in v.req_obj("hists")? {
        let mut pairs = Vec::new();
        for p in val.req_arr("buckets")? {
            let [i, c] = p.as_arr().unwrap_or_default() else {
                return Err("bucket entries must be [index, count] pairs".to_string());
            };
            let i = usize::try_from(json::parse_uint(i)?)
                .map_err(|_| "bucket index out of range".to_string())?;
            pairs.push((i, json::parse_u64_str(c)?));
        }
        let (sum, max) = (val.req_u64_str("sum")?, val.req_u64_str("max")?);
        out.hists.insert(k.clone(), HistSnapshot::from_sparse(&pairs, sum, max)?);
    }
    Ok(out)
}

/// First line of every shard artifact: identity and shape.
///
/// On resume, the executor recomputes this manifest and requires exact
/// equality with the one on disk — a checkpoint can only be continued by
/// the identical configuration that started it.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// Artifact format version ([`SHARD_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// [`campaign_fingerprint`] of the campaign.
    pub fingerprint: u64,
    /// The campaign's injection-plan seed.
    pub plan_seed: u64,
    /// Campaign display label (e.g. `"GPU-transient LSD [diverseav]"`).
    pub campaign: String,
    /// Scenario abbreviation (the Table-I "DS" column).
    pub scenario: String,
    /// Full scenario name (the journal's scenario field).
    pub scenario_name: String,
    /// Injection target (`"GPU"` / `"CPU"`).
    pub target: String,
    /// Fault-model kind (`"transient"` / `"permanent"`).
    pub kind: String,
    /// Agent mode label.
    pub mode: String,
    /// This shard's index.
    pub shard_index: usize,
    /// Total shard count.
    pub shard_count: usize,
    /// Checkpoint batch size.
    pub batch_size: usize,
    /// Golden runs in the whole campaign.
    pub golden_runs: usize,
    /// Injected runs in the whole campaign (the plan length; for guided
    /// campaigns the full multi-epoch budget).
    pub injected_runs: usize,
    /// Guided-campaign epoch identity (`None` for uniform enumeration).
    pub guided: Option<GuidedManifest>,
}

/// The guided-campaign members of a [`ShardManifest`]: which epoch of
/// how many this artifact holds, and the digest of the prior summary its
/// allocation was derived from — the merge re-derives that digest from
/// the merged earlier epochs, proving the allocation used the true
/// prior.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GuidedManifest {
    /// Total epochs of the campaign.
    pub epochs: usize,
    /// This artifact's epoch (`0..epochs`).
    pub epoch: usize,
    /// Global injected index at which this epoch starts.
    pub epoch_start: usize,
    /// Injected runs in this epoch.
    pub epoch_runs: usize,
    /// [`EpochSummary::digest`] of the prior this epoch's allocation
    /// consumed (0 for the pilot epoch, which takes no prior).
    pub prior_digest: u64,
}

impl GuidedManifest {
    fn render(&self) -> String {
        format!(
            "{{\"epochs\": {}, \"epoch\": {}, \"epoch_start\": {}, \"epoch_runs\": {}, \
             \"prior_digest\": \"{:016x}\"}}",
            self.epochs, self.epoch, self.epoch_start, self.epoch_runs, self.prior_digest,
        )
    }

    fn parse(v: &Value) -> Result<GuidedManifest, String> {
        Ok(GuidedManifest {
            epochs: v.req_usize("epochs")?,
            epoch: v.req_usize("epoch")?,
            epoch_start: v.req_usize("epoch_start")?,
            epoch_runs: v.req_usize("epoch_runs")?,
            prior_digest: v.req_hex64("prior_digest")?,
        })
    }
}

impl ShardManifest {
    /// The manifest with the members the profiling pass determines
    /// zeroed: `injected_runs` and the guided epoch plan (`epoch_start`,
    /// `epoch_runs`).
    fn config_part(&self) -> ShardManifest {
        let plan = |g: GuidedManifest| GuidedManifest { epoch_start: 0, epoch_runs: 0, ..g };
        ShardManifest { injected_runs: 0, guided: self.guided.map(plan), ..self.clone() }
    }

    /// The manifest with the members that tell one artifact of a
    /// campaign from another zeroed: `shard_index`, `batch_size` and the
    /// guided epoch's own members (`epoch`, `epoch_start`, `epoch_runs`,
    /// `prior_digest`). Every artifact of one campaign has the same
    /// campaign part.
    fn campaign_part(&self) -> ShardManifest {
        let epoch = |g: GuidedManifest| GuidedManifest {
            epoch: 0,
            epoch_start: 0,
            epoch_runs: 0,
            prior_digest: 0,
            ..g
        };
        let guided = self.guided.map(epoch);
        ShardManifest { shard_index: 0, batch_size: 0, guided, ..self.clone() }
    }

    /// Whether the artifact with this manifest may hold `unit`: the one
    /// ownership rule for run lines (the merge) and incident payloads
    /// ([`collect_incidents`]). The owner is the partition shard
    /// ([`unit_shard`]); golden runs belong to the pilot epoch only, and
    /// an injected run to the artifact whose epoch range holds it.
    fn owns(&self, unit: RunUnit) -> Result<(), String> {
        let (kind, i) = (unit.kind(), unit.index());
        let home = unit_shard(self.plan_seed, unit, self.shard_count);
        if home != self.shard_index {
            let at = self.shard_index;
            return Err(format!(
                "{kind} run {i} belongs to shard {home} but appears in shard {at}"
            ));
        }
        let Some(g) = self.guided else { return Ok(()) };
        let (lo, hi) = (g.epoch_start, g.epoch_start.saturating_add(g.epoch_runs));
        match unit {
            RunUnit::Golden(_) if g.epoch > 0 => {
                Err(format!("golden run {i} scheduled outside the pilot epoch (epoch {})", g.epoch))
            }
            RunUnit::Injected(_) if i < lo || i >= hi => Err(format!(
                "injected run {i} lies outside its artifact's epoch range [{lo}, {hi})"
            )),
            _ => Ok(()),
        }
    }

    /// Render as the artifact's first line.
    pub fn render(&self) -> String {
        format!(
            "{{\"type\": \"shard_manifest\", \"schema_version\": {}, \
             \"fingerprint\": \"{:016x}\", \"plan_seed\": \"{:016x}\", \
             \"campaign\": \"{}\", \"scenario\": \"{}\", \"scenario_name\": \"{}\", \
             \"target\": \"{}\", \"kind\": \"{}\", \"mode\": \"{}\", \
             \"shard_index\": {}, \"shard_count\": {}, \"batch_size\": {}, \
             \"golden_runs\": {}, \"injected_runs\": {}, \"guided\": {}}}",
            self.schema_version,
            self.fingerprint,
            self.plan_seed,
            json::escape(&self.campaign),
            json::escape(&self.scenario),
            json::escape(&self.scenario_name),
            json::escape(&self.target),
            json::escape(&self.kind),
            json::escape(&self.mode),
            self.shard_index,
            self.shard_count,
            self.batch_size,
            self.golden_runs,
            self.injected_runs,
            self.guided.as_ref().map(GuidedManifest::render).unwrap_or_else(|| "null".to_string()),
        )
    }

    /// Parse a manifest line; rejects wrong types and schema versions.
    pub fn parse(v: &Value) -> Result<ShardManifest, String> {
        let ty = v.req_str("type")?;
        if ty != "shard_manifest" {
            return Err(format!("not a shard manifest (type {ty:?})"));
        }
        let schema_version = v.req_u32("schema_version")?;
        if schema_version != SHARD_SCHEMA_VERSION {
            return Err(format!(
                "unsupported shard schema version {schema_version} \
                 (this build reads version {SHARD_SCHEMA_VERSION})"
            ));
        }
        Ok(ShardManifest {
            schema_version,
            fingerprint: v.req_hex64("fingerprint")?,
            plan_seed: v.req_hex64("plan_seed")?,
            campaign: v.req_str("campaign")?,
            scenario: v.req_str("scenario")?,
            scenario_name: v.req_str("scenario_name")?,
            target: v.req_str("target")?,
            kind: v.req_str("kind")?,
            mode: v.req_str("mode")?,
            shard_index: v.req_usize("shard_index")?,
            shard_count: v.req_usize("shard_count")?,
            batch_size: v.req_usize("batch_size")?,
            golden_runs: v.req_usize("golden_runs")?,
            injected_runs: v.req_usize("injected_runs")?,
            guided: v.opt_with("guided", GuidedManifest::parse)?,
        })
    }
}

/// A parsed shard artifact: the committed prefix of the file.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardArtifact {
    /// The manifest line.
    pub manifest: ShardManifest,
    /// Runs of committed batches, in file (= engine) order.
    pub runs: Vec<ShardRun>,
    /// Committed batches (each sealed by its `shard_batch` marker).
    pub batches: usize,
    /// Cumulative [`MetricsSlice`] of the last committed batch (empty
    /// before the first): what resume continues and merge folds.
    pub metrics: MetricsSlice,
    /// Whether the `shard_done` footer was present.
    pub complete: bool,
    /// Lines in the committed prefix (manifest + committed batches),
    /// used by the resume path to truncate a torn tail.
    pub committed_lines: usize,
}

/// Parse a shard artifact.
///
/// The manifest line must parse and carry the supported schema version;
/// after that, parsing is *lenient at the tail*: the first malformed or
/// out-of-sequence line — a torn write from a killed shard — truncates
/// the artifact at the last committed batch. Run lines not yet sealed by
/// their batch marker are discarded (their batch will re-run on resume).
pub fn parse_artifact(text: &str) -> Result<ShardArtifact, ShardError> {
    let mut lines = text.lines();
    let first = lines.next().ok_or_else(|| ShardError::Parse("empty artifact".to_string()))?;
    let mv = json::parse(first).map_err(|e| ShardError::Parse(format!("manifest line: {e}")))?;
    let manifest = ShardManifest::parse(&mv).map_err(ShardError::Parse)?;
    let (campaign, scenario) = (&manifest.campaign, &manifest.scenario_name);
    let mut runs = Vec::new();
    let mut pending: Vec<ShardRun> = Vec::new();
    let mut batches = 0usize;
    let mut metrics = MetricsSlice::default();
    let mut complete = false;
    let mut committed_lines = 1usize;
    let mut line_no = 1usize;
    for line in lines {
        line_no += 1;
        let Ok(v) = json::parse(line) else { break };
        let Ok(ty) = v.req_str("type") else { break };
        match ty.as_str() {
            "shard_run" => {
                let parsed = RunRecord::parse_shard_line(&v, campaign, scenario);
                let Ok((batch, run)) = parsed else { break };
                if batch != batches {
                    break;
                }
                pending.push(run);
            }
            "shard_batch" => {
                let Ok(batch) = v.req_usize("batch") else { break };
                let Ok(slice) = parse_metrics(&v) else { break };
                if batch != batches {
                    break;
                }
                runs.append(&mut pending);
                batches += 1;
                metrics = slice;
                committed_lines = line_no;
            }
            "shard_done" => {
                if pending.is_empty() {
                    complete = true;
                    committed_lines = line_no;
                }
                break;
            }
            _ => break,
        }
    }
    Ok(ShardArtifact { manifest, runs, batches, metrics, complete, committed_lines })
}

// -- incident sidecar -------------------------------------------------------

/// Where a shard keeps its incident payloads: `<artifact>.incidents.jsonl`
/// next to the shard artifact (`runs.jsonl` -> `runs.incidents.jsonl`).
pub fn incident_sidecar_path(artifact: &Path) -> PathBuf {
    artifact.with_extension("incidents.jsonl")
}

/// The `"flight"` member of an incident line: a drained ring, oldest
/// record first.
fn render_flight(ring: &[TickRecord]) -> String {
    ring.iter().map(flight::render_record).collect::<Vec<_>>().join(", ")
}

/// Parse the `"flight"` member [`render_flight`] wrote.
fn parse_flight(v: &Value) -> Result<Vec<TickRecord>, String> {
    v.req_arr("flight")?.iter().map(flight::parse_record).collect()
}

/// One incident as a sidecar line carries it: the run's key and its
/// drained flight ring. Everything else about the run is on its run line.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentPayload {
    /// The run the ring was drained from.
    pub unit: RunUnit,
    /// The drained flight ring, oldest record first.
    pub flight: Vec<TickRecord>,
}

impl IncidentPayload {
    /// Render as one sidecar line within batch `batch`.
    pub fn render_line(&self, batch: usize) -> String {
        format!(
            "{{\"type\": \"incident\", \"batch\": {batch}, \"kind\": \"{}\", \"index\": {}, \
             \"flight\": [{}]}}",
            self.unit.kind(),
            self.unit.index(),
            render_flight(&self.flight),
        )
    }

    /// Parse a line rendered by [`Self::render_line`]; returns
    /// `(batch, payload)`.
    pub fn parse(v: &Value) -> Result<(usize, IncidentPayload), String> {
        let kind = v.req_str("kind")?;
        let index = v.req_usize("index")?;
        let unit = RunUnit::from_kind(&kind, index)
            .ok_or_else(|| format!("unknown incident run kind {kind:?}"))?;
        Ok((v.req_usize("batch")?, IncidentPayload { unit, flight: parse_flight(v)? }))
    }
}

/// One incident of a merged campaign: its run's identity and detection
/// timeline — what forensics reads — plus the drained flight ring.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentRecord {
    /// `"golden"` or `"injected"`.
    pub kind: String,
    /// Engine index within its kind.
    pub index: usize,
    /// The run seed.
    pub seed: u64,
    /// [`IncidentKind`](diverseav_runtime::IncidentKind) label.
    pub incident: String,
    /// Fault-class label (sensor class, `"transient"` / `"permanent"`
    /// for fabric faults, `None` for golden runs).
    pub fault_class: Option<String>,
    /// First corrupted-frame/register time, if the fault activated.
    pub fault_onset_time: Option<f64>,
    /// Detector alarm time, if raised.
    pub alarm_time: Option<f64>,
    /// The drained flight ring, oldest record first.
    pub flight: Vec<TickRecord>,
}

impl IncidentRecord {
    /// The incident of `run`, whose drained flight ring is `flight`;
    /// `None` when the run names no incident.
    pub fn new(run: &RunRecord, flight: Vec<TickRecord>) -> Option<IncidentRecord> {
        Some(IncidentRecord {
            kind: run.kind.to_string(),
            index: run.index,
            seed: run.seed,
            incident: run.incident.clone()?,
            fault_class: run.fault.as_ref().map(|f| f.class().to_string()),
            fault_onset_time: run.fault_onset_time,
            alarm_time: run.alarm_time,
            flight,
        })
    }

    /// Render as one line of a merged incident document.
    pub fn render_merged(&self) -> String {
        format!(
            "{{\"type\": \"incident\", \"kind\": \"{}\", \"index\": {}, \"seed\": {}, \
             \"incident\": \"{}\", \"fault_class\": {}, \"fault_onset_time\": {}, \
             \"alarm_time\": {}, \"flight\": [{}]}}",
            json::escape(&self.kind),
            self.index,
            self.seed,
            json::escape(&self.incident),
            json::opt_str(self.fault_class.as_deref()),
            json::opt_f64_bits(self.fault_onset_time),
            json::opt_f64_bits(self.alarm_time),
            render_flight(&self.flight),
        )
    }

    /// Parse a line rendered by [`Self::render_merged`].
    pub fn parse(v: &Value) -> Result<IncidentRecord, String> {
        Ok(IncidentRecord {
            kind: v.req_str("kind")?,
            index: v.req_usize("index")?,
            seed: v.req_u64("seed")?,
            incident: v.req_str("incident")?,
            fault_class: v.opt_str_member("fault_class")?,
            fault_onset_time: v.opt_f64_bits_member("fault_onset_time")?,
            alarm_time: v.opt_f64_bits_member("alarm_time")?,
            flight: parse_flight(v)?,
        })
    }
}

/// A parsed incident sidecar.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentArtifact {
    /// The manifest line: its shard artifact's own manifest, which
    /// [`collect_incidents`] and the resume path match in full.
    pub manifest: ShardManifest,
    /// `(batch, payload)` pairs in file order.
    pub records: Vec<(usize, IncidentPayload)>,
    /// Whether the `incidents_done` footer was present.
    pub complete: bool,
}

/// Parse an incident sidecar. Like [`parse_artifact`], the shard
/// manifest line must parse; after that the first malformed line — a
/// torn write — truncates the file (the resume path drops records of
/// uncommitted batches).
pub fn parse_incident_artifact(text: &str) -> Result<IncidentArtifact, ShardError> {
    let mut lines = text.lines();
    let first =
        lines.next().ok_or_else(|| ShardError::Parse("empty incident sidecar".to_string()))?;
    let mv =
        json::parse(first).map_err(|e| ShardError::Parse(format!("sidecar manifest line: {e}")))?;
    let manifest = ShardManifest::parse(&mv).map_err(ShardError::Parse)?;
    let mut records = Vec::new();
    let mut complete = false;
    for line in lines {
        let Ok(v) = json::parse(line) else { break };
        match v.req_str("type").as_deref() {
            Ok("incident") => {
                let Ok(pair) = IncidentPayload::parse(&v) else { break };
                records.push(pair);
            }
            Ok("incidents_done") => {
                complete = true;
                break;
            }
            _ => break,
        }
    }
    Ok(IncidentArtifact { manifest, records, complete })
}

/// What [`execute_shard`] did.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardStatus {
    /// Total checkpoint batches in this shard.
    pub total_batches: usize,
    /// Batches adopted from an existing checkpoint.
    pub resumed_batches: usize,
    /// Batches executed by this invocation.
    pub executed_batches: usize,
    /// Units the partitioner assigned to this shard.
    pub assigned_runs: usize,
    /// Whether the shard is finished (footer written).
    pub complete: bool,
}

/// The manifest of shard `cfg` cutting `cut`; without the cut, its
/// [`config_part`](ShardManifest::config_part).
fn shard_manifest(cfg: &ShardConfig, scenario: &Scenario, cut: Option<&Cut>) -> ShardManifest {
    let guided = cfg.guided.as_ref().map(|g| GuidedManifest {
        epochs: g.epochs.max(1),
        epoch: g.epoch,
        epoch_start: cut.map_or(0, |c| c.injected_base),
        epoch_runs: cut.map_or(0, |c| c.plan.len()),
        prior_digest: g.prior.as_ref().map_or(0, EpochSummary::digest),
    });
    let fingerprint = match &guided {
        Some(g) => guided_fingerprint(&cfg.campaign, &cfg.scale, &cfg.sensor, g.epochs),
        None => campaign_fingerprint(&cfg.campaign, &cfg.scale, &cfg.sensor),
    };
    ShardManifest {
        schema_version: SHARD_SCHEMA_VERSION,
        fingerprint,
        plan_seed: plan_seed(&cfg.campaign),
        campaign: cfg.campaign.to_string(),
        scenario: cfg.campaign.scenario.abbrev().to_string(),
        scenario_name: scenario.name.to_string(),
        target: cfg.campaign.target.to_string(),
        kind: cfg.campaign.kind.label().to_string(),
        mode: cfg.campaign.mode.to_string(),
        shard_index: cfg.spec.index,
        shard_count: cfg.spec.count,
        batch_size: cfg.batch_size.max(1),
        golden_runs: cfg.scale.golden_runs.max(1),
        injected_runs: cut.map_or(0, |c| c.campaign_injected),
        guided,
    }
}

/// Byte length of the first `n` lines of `text`, counted as
/// [`str::lines`] counts them.
fn line_prefix_len(text: &str, n: usize) -> usize {
    text.split_inclusive('\n').take(n).map(str::len).sum()
}

/// Cut the checkpoint file at `path` (whose content is `text`) in place to
/// its committed first `keep` bytes and open it for appending. If the cut
/// fell just before the prefix's last newline, that newline is restored.
fn reopen_committed(path: &Path, text: &str, keep: usize) -> Result<fs::File, ShardError> {
    let mut file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep as u64)?;
    file.seek(SeekFrom::End(0))?;
    if !text[..keep].ends_with('\n') {
        file.write_all(b"\n")?;
        file.flush()?;
    }
    Ok(file)
}

/// Golden run 0 and its metric slice, as the profiling pass produced it.
type Profiled = Arc<(RunResult, MetricsSlice)>;

/// The last profiling pass of this process, under its key: the golden-run
/// key of the profiling config plus the profiling time source, which
/// selects what the slice holds (a modeled slice must never be charged
/// into a wall-clock artifact, or the reverse). One entry keeps memory
/// bounded whatever a process runs; callers with different keys evict
/// each other, which costs a re-run, never a wrong result.
static PROFILED: Mutex<Option<((GoldenKey, TimeSource), Profiled)>> = Mutex::new(None);

/// Golden run 0 of the shard's campaign: from the memo when the last
/// pass had the same key, else simulated (outside the lock, so callers
/// with other keys never wait on it) and memoized.
fn profiling_pass(cfg: &ShardConfig, scenario: &Scenario) -> Profiled {
    // The profiling config is one golden run without divergence traces.
    let key = (
        GoldenKey::new(
            cfg.campaign.scenario,
            scenario.duration,
            cfg.campaign.mode,
            &cfg.sensor,
            1,
            false,
        ),
        profile::source(),
    );
    let memo = || PROFILED.lock().expect("profiling memo poisoned");
    if let Some((_, profiled)) = memo().as_ref().filter(|(k, _)| *k == key) {
        metrics::counter_add("shard.profile_hits", 1);
        return Arc::clone(profiled);
    }
    metrics::counter_add("shard.profile_misses", 1);
    let unit = unit_config(scenario, cfg.campaign.mode, cfg.sensor, RunUnit::Golden(0));
    let profiled = Arc::new(run_metered(&unit, &mut []));
    *memo() = Some((key, Arc::clone(&profiled)));
    profiled
}

/// Execute one shard of a campaign, writing (or resuming) the artifact
/// at `path`. See [`execute_shard_limited`] for the mechanics.
pub fn execute_shard(cfg: &ShardConfig, path: &Path) -> Result<ShardStatus, ShardError> {
    execute_shard_limited(cfg, path, None)
}

/// [`execute_shard`] with an optional cap on newly executed batches —
/// the test hook for interrupting a shard at a checkpoint boundary
/// (`Some(1)` behaves like a kill after the first commit).
///
/// If `path` holds a compatible checkpoint, committed batches are
/// adopted verbatim and execution continues at the first uncommitted
/// batch; a torn tail (killed mid-batch) is cut off in place, and the
/// committed bytes of the artifact and its incident sidecar are never
/// rewritten, so a kill at any byte offset resumes to the same bytes. A
/// torn manifest line (killed inside the very first write) restarts the
/// shard. An artifact from a *different* configuration (any manifest
/// field differs) is refused, never overwritten. A complete checkpoint
/// of this configuration is adopted without the profiling run: the
/// members that run determines are the merge's to validate.
///
/// The profiling run is golden run 0. A process simulates it once per
/// configuration: consecutive calls for the same scenario, duration,
/// agent mode, sensor config and profiling time source — any shard, any
/// guided epoch — reuse its result and metric slice from a one-entry
/// memo, so only the call that simulates it folds it into the registry
/// (`shard.profile_misses`; a reuse counts `shard.profile_hits`). The
/// artifact bytes are the same either way.
pub fn execute_shard_limited(
    cfg: &ShardConfig,
    path: &Path,
    max_new_batches: Option<usize>,
) -> Result<ShardStatus, ShardError> {
    cfg.spec.validate()?;
    let scenario = scenario_for(cfg.campaign.scenario, &cfg.scale);
    let refuse = || {
        ShardError::Mismatch(format!(
            "checkpoint at {} was written by a different shard configuration; \
             refusing to resume over it",
            path.display()
        ))
    };

    // Read the checkpoint before profiling: one whose manifest differs in
    // a member the profiling pass does not determine is refused, and a
    // complete one adopted, without paying for that simulation run.
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e.into()),
    };
    let checkpoint = parse_artifact(&text);
    if let Ok(art) = &checkpoint {
        if art.manifest.config_part() != shard_manifest(cfg, &scenario, None) {
            return Err(refuse());
        }
        if art.complete {
            let committed = line_prefix_len(&text, art.committed_lines);
            if committed != text.len() || !text.ends_with('\n') {
                reopen_committed(path, &text, committed)?;
            }
            return Ok(ShardStatus {
                total_batches: art.batches,
                resumed_batches: art.batches,
                executed_batches: 0,
                assigned_runs: art.runs.len(),
                complete: true,
            });
        }
    }

    // The profiling pass is golden run 0: every shard needs it to size
    // the injection plan, and a process simulates it once per
    // configuration (see `profiling_pass`). It stands for the unit
    // Golden(0), so its metric slice is charged only by the shard that
    // owns that unit, in the batch that commits it.
    let profiled = profiling_pass(cfg, &scenario);

    let cut = Cut::new(
        &cfg.campaign,
        &cfg.scale,
        cfg.sensor,
        cfg.spec,
        cfg.guided.as_ref(),
        &profiled.0,
    )?;
    let units = &cut.units;
    let batch_size = cfg.batch_size.max(1);
    let total_batches = units.len().div_ceil(batch_size);
    let status = |resumed_batches, executed_batches, complete| ShardStatus {
        total_batches,
        resumed_batches,
        executed_batches,
        assigned_runs: units.len(),
        complete,
    };
    let manifest = shard_manifest(cfg, &scenario, Some(&cut));

    // Resume from an existing checkpoint when one is present. Committed
    // bytes are never rewritten: each file is cut in place to its
    // committed prefix and appended to, so a kill at any byte offset —
    // including inside the resume itself — leaves a resumable pair.
    let manifest_line = format!("{}\n", manifest.render());
    let mut done_batches = 0usize;
    let mut cumulative = MetricsSlice::default();
    // A torn first write — any strict prefix of this shard's own manifest
    // line — is a fresh start; any other unparsable text is refused.
    let fresh = text.trim().is_empty()
        || (text.len() < manifest_line.len() && manifest_line.starts_with(&text));
    let mut file = if fresh {
        let mut file = fs::File::create(path)?;
        file.write_all(manifest_line.as_bytes())?;
        file.flush()?;
        file
    } else {
        let art = checkpoint?;
        if art.manifest != manifest {
            return Err(refuse());
        }
        done_batches = art.batches;
        cumulative = art.metrics;
        reopen_committed(path, &text, line_prefix_len(&text, art.committed_lines))?
    };

    // The incident sidecar resumes in lockstep with the main artifact:
    // its payload lines are batch-ordered and each batch's land before
    // the batch's marker, so the records of committed batches form a
    // byte prefix to keep; anything later (a torn write, or lines from a
    // batch that will re-run) is cut. A shard with committed batches but
    // no readable sidecar whose manifest equals the artifact's in full
    // (the guided epoch and its plan included) cannot be resumed — its
    // incident payloads are gone.
    let inc_path = incident_sidecar_path(path);
    let mut inc_file = if done_batches == 0 {
        let mut inc_file = fs::File::create(&inc_path)?;
        inc_file.write_all(manifest_line.as_bytes())?;
        inc_file.flush()?;
        inc_file
    } else {
        let text = fs::read_to_string(&inc_path).map_err(|e| {
            ShardError::Mismatch(format!(
                "checkpoint at {} has committed batches but its incident sidecar {} is \
                 unreadable ({e}); delete both to restart the shard",
                path.display(),
                inc_path.display()
            ))
        })?;
        let art = parse_incident_artifact(&text)?;
        if art.manifest != manifest {
            return Err(ShardError::Mismatch(format!(
                "incident sidecar at {} was written by a different shard configuration; \
                 refusing to resume over it",
                inc_path.display()
            )));
        }
        let kept = art.records.iter().take_while(|(b, _)| *b < done_batches).count();
        reopen_committed(&inc_path, &text, line_prefix_len(&text, 1 + kept))?
    };

    let mut executed = 0usize;
    for (b, chunk) in units.chunks(batch_size).enumerate().skip(done_batches) {
        if let Some(cap) = max_new_batches {
            if executed >= cap {
                return Ok(status(done_batches, executed, false));
            }
        }
        let flatten = |unit: RunUnit, (r, slice): &(RunResult, MetricsSlice)| {
            let payload = r.incident.map(|_| IncidentPayload { unit, flight: r.flight.clone() });
            (run_record(&manifest.campaign, unit.kind(), unit.index(), r), payload, slice.clone())
        };
        let results: Vec<(RunRecord, Option<IncidentPayload>, MetricsSlice)> =
            par_map(chunk, |&unit| match unit {
                RunUnit::Golden(0) => flatten(unit, &profiled),
                _ => flatten(unit, &run_metered(&cut.config(unit), &mut [])),
            });
        for (_, _, slice) in &results {
            cumulative.add(slice).map_err(ShardError::Mismatch)?;
        }

        // Sidecar payloads land before the batch marker: a kill between
        // the two re-runs the batch and truncates the orphaned payloads,
        // never the reverse (a committed batch missing its payloads).
        let mut inc_out = String::new();
        for payload in results.iter().filter_map(|(_, p, _)| p.as_ref()) {
            inc_out.push_str(&payload.render_line(b));
            inc_out.push('\n');
        }
        if !inc_out.is_empty() {
            inc_file.write_all(inc_out.as_bytes())?;
            inc_file.flush()?;
        }
        let mut out = String::new();
        for (r, _, _) in &results {
            out.push_str(&r.render_shard_line(b));
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"type\": \"shard_batch\", \"batch\": {b}, {}}}\n",
            render_metrics(&cumulative)
        ));
        file.write_all(out.as_bytes())?;
        file.flush()?;
        executed += 1;
    }
    inc_file.write_all(b"{\"type\": \"incidents_done\"}\n")?;
    inc_file.flush()?;
    file.write_all(b"{\"type\": \"shard_done\"}\n")?;
    file.flush()?;
    Ok(status(done_batches, executed, true))
}

/// Guided-campaign shape of a merged artifact set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergedGuided {
    /// Total epochs of the campaign.
    pub epochs: usize,
    /// Contiguous epochs actually merged (`epochs` for a full merge; a
    /// prefix while the campaign is still being driven epoch by epoch).
    pub epochs_done: usize,
    /// Global injected index at which each merged epoch starts.
    pub epoch_starts: Vec<usize>,
    /// Injected runs of each merged epoch.
    pub epoch_runs: Vec<usize>,
}

/// One campaign reassembled from its shards.
#[derive(Clone, Debug)]
pub struct MergedCampaign {
    /// Shard 0's manifest (epoch 0's for guided campaigns). Only
    /// campaign-invariant fields are meaningful here; renderers must not
    /// consume `shard_index` / `batch_size` from it.
    pub manifest: ShardManifest,
    /// Every merged artifact's manifest, ordered by (epoch, shard): the
    /// identities [`collect_incidents`] pairs the sidecars with.
    pub manifests: Vec<ShardManifest>,
    /// Golden runs in engine order.
    pub golden: Vec<ShardRun>,
    /// Injected runs in engine order (for guided campaigns: global index
    /// order, epochs contiguous).
    pub injected: Vec<ShardRun>,
    /// Mean golden trajectory (the violation baseline), recomputed from
    /// the merged golden set — identical to the monolithic baseline.
    pub baseline: Vec<TrajPoint>,
    /// Shard metric slices folded together.
    pub metrics: MetricsSlice,
    /// Guided-campaign shape (`None` for uniform enumeration).
    pub guided: Option<MergedGuided>,
}

/// Validate and merge shard artifacts into campaigns.
///
/// Artifacts are grouped by campaign fingerprint; each group must hold
/// exactly shards `0..n-1` of its campaign, each complete, each exactly
/// once. Every run is checked against the partitioner (it must sit in
/// the shard that owns it) and the engine's seed law, and the union must
/// cover every golden and injected index exactly once. Any violation —
/// overlap, gap, missing shard, foreign fingerprint in a group,
/// incomplete shard — is a [`ShardError::Mismatch`].
///
/// Campaigns are returned ordered by display label (then fingerprint),
/// so merged reports are independent of argument order.
pub fn merge_artifacts(artifacts: &[ShardArtifact]) -> Result<Vec<MergedCampaign>, ShardError> {
    let mut groups: BTreeMap<u64, Vec<&ShardArtifact>> = BTreeMap::new();
    for a in artifacts {
        groups.entry(a.manifest.fingerprint).or_default().push(a);
    }
    let mut merged: Vec<MergedCampaign> = Vec::with_capacity(groups.len());
    for group in groups.values() {
        merged.push(merge_group(group)?);
    }
    merged.sort_by(|a, b| {
        (a.manifest.campaign.as_str(), a.manifest.fingerprint)
            .cmp(&(b.manifest.campaign.as_str(), b.manifest.fingerprint))
    });
    Ok(merged)
}

/// Cumulative per-stratum (runs, safety-critical) tallies of merged
/// injected runs: the prior the next epoch's planner consumes, and what
/// the merge re-derives to check each epoch's recorded prior digest.
/// Requires every run's stratum to be set (validated upstream).
fn guided_tallies(injected: &[ShardRun]) -> BTreeMap<u64, (u64, u64)> {
    let mut counts: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in injected {
        let code = r.stratum.expect("guided runs carry their stratum");
        let slot = counts.entry(code).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += u64::from(is_safety_critical(r.incident.as_deref()));
    }
    counts
}

fn merge_group(group: &[&ShardArtifact]) -> Result<MergedCampaign, ShardError> {
    let first = &group[0].manifest;
    let mismatch =
        |msg: String| ShardError::Mismatch(format!("campaign {:?}: {msg}", first.campaign));
    let campaign = first.campaign_part();
    if group.iter().any(|a| a.manifest.campaign_part() != campaign) {
        return Err(mismatch(
            "shard manifests share a fingerprint but disagree on campaign fields".to_string(),
        ));
    }
    // The planner gives every epoch at least one run.
    if let Some(g) = first.guided.filter(|g| g.epochs > first.injected_runs) {
        let budget = first.injected_runs;
        return Err(mismatch(format!("{} guided epochs exceed the {budget}-run budget", g.epochs)));
    }
    // Declared counts (`shard_count`, `epochs`, run counts) are trusted
    // only as far as the artifacts back them: coverage lives in ordered
    // sets and maps filled from what is supplied, never in storage sized
    // by a manifest field.
    let n = first.shard_count;
    let epochs_total = first.guided.as_ref().map(|g| g.epochs).unwrap_or(1);
    let epoch_tag =
        |e: usize| if first.guided.is_some() { format!("epoch {e}: ") } else { String::new() };
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut per_epoch: BTreeMap<usize, GuidedManifest> = BTreeMap::new();
    for a in group {
        let m = &a.manifest;
        let e = m.guided.as_ref().map(|g| g.epoch).unwrap_or(0);
        if e >= epochs_total {
            return Err(mismatch(format!("epoch {e} out of range ({epochs_total} epochs)")));
        }
        let i = m.shard_index;
        if i >= n {
            return Err(mismatch(format!("shard index {i} out of range for {n} shards")));
        }
        if !seen.insert((e, i)) {
            return Err(mismatch(format!(
                "{}shard {i}/{n} supplied more than once (overlap)",
                epoch_tag(e)
            )));
        }
        if !a.complete {
            return Err(mismatch(format!(
                "{}shard {i}/{n} is incomplete (no shard_done footer); resume it before \
                 merging",
                epoch_tag(e)
            )));
        }
        if let Some(g) = &m.guided {
            match per_epoch.get(&e) {
                None => {
                    per_epoch.insert(e, *g);
                }
                Some(p) if p == g => {}
                Some(_) => {
                    return Err(mismatch(format!(
                        "epoch {e} shard manifests disagree on the epoch plan \
                         (epoch_start / epoch_runs / prior_digest)"
                    )))
                }
            }
        }
    }
    // The first shard of epoch `e` not supplied. The search stops at the
    // first gap, so it never walks past the artifacts in hand.
    let missing = |e: usize| (0..n).find(|&i| !seen.contains(&(e, i)));
    // Guided campaigns may merge a *contiguous prefix* of their epochs
    // (the driving loop merges after every epoch to produce the next
    // prior); any covered epoch must be fully covered, and no epoch may
    // be covered beyond a gap.
    let mut done = 0usize;
    while done < epochs_total && missing(done).is_none() {
        done += 1;
    }
    if let Some(&(e, _)) = seen.range((done, 0)..).next() {
        return Err(match missing(e) {
            Some(i) if e == done => mismatch(format!("{}shard {i}/{n} is missing", epoch_tag(e))),
            _ => mismatch(format!(
                "epoch {e} artifacts present but epoch {done} is missing (guided epochs merge \
                 as a contiguous prefix)"
            )),
        });
    }

    // Validate the epoch chain and derive the merged injected length.
    let mut merged_guided: Option<MergedGuided> = None;
    let mut injected_len = first.injected_runs;
    if first.guided.is_some() {
        // Exactly the covered epochs `0..done`: any later one was refused.
        let pe: Vec<GuidedManifest> = per_epoch.values().copied().collect();
        let mut start = 0usize;
        for (e, g) in pe.iter().enumerate() {
            if g.epoch_start != start {
                return Err(mismatch(format!(
                    "epoch {e} starts at injected index {} but prior epochs account \
                     for {start} runs",
                    g.epoch_start
                )));
            }
            start = start.saturating_add(g.epoch_runs);
        }
        if start > first.injected_runs || (done == epochs_total && start != first.injected_runs) {
            return Err(mismatch(format!(
                "epochs sum to {start} injected runs but the campaign budget is {}",
                first.injected_runs
            )));
        }
        injected_len = start;
        merged_guided = Some(MergedGuided {
            epochs: epochs_total,
            epochs_done: done,
            epoch_starts: pe.iter().map(|g| g.epoch_start).collect(),
            epoch_runs: pe.iter().map(|g| g.epoch_runs).collect(),
        });
    }

    let mut golden: BTreeMap<usize, ShardRun> = BTreeMap::new();
    let mut injected: BTreeMap<usize, ShardRun> = BTreeMap::new();
    for a in group {
        for r in &a.runs {
            let unit = RunUnit::from_kind(r.kind, r.index)
                .ok_or_else(|| mismatch(format!("unknown run kind {:?}", r.kind)))?;
            a.manifest.owns(unit).map_err(mismatch)?;
            // Guided injected runs must carry a positive finite weight
            // and a stratum; everything else must carry neither — a
            // weight on a uniform or golden run means the artifact was
            // cut from a different planner than its manifest claims.
            match (&first.guided, unit) {
                (Some(_), RunUnit::Injected(_)) => {
                    if r.stratum.is_none() {
                        return Err(mismatch(format!(
                            "guided injected run {} carries no stratum",
                            r.index
                        )));
                    }
                    if !r.weight.is_some_and(|w| w.is_finite() && w > 0.0) {
                        return Err(mismatch(format!(
                            "guided injected run {} carries no positive finite weight",
                            r.index
                        )));
                    }
                }
                _ => {
                    if r.stratum.is_some() || r.weight.is_some() {
                        return Err(mismatch(format!(
                            "{} run {} carries guided fields outside a guided campaign",
                            r.kind, r.index
                        )));
                    }
                }
            }
            let (slots, declared) = match unit {
                RunUnit::Golden(_) => (&mut golden, first.golden_runs),
                RunUnit::Injected(_) => (&mut injected, injected_len),
            };
            if r.index >= declared {
                return Err(mismatch(format!(
                    "{} run {} exceeds the campaign's declared run count",
                    r.kind, r.index
                )));
            }
            if r.seed != unit.seed() {
                return Err(mismatch(format!(
                    "{} run {} carries seed {} (engine law says {})",
                    r.kind,
                    r.index,
                    r.seed,
                    unit.seed()
                )));
            }
            if slots.insert(r.index, r.clone()).is_some() {
                return Err(mismatch(format!(
                    "{} run {} appears twice (overlapping shards)",
                    r.kind, r.index
                )));
            }
        }
    }
    // Indices are unique and below the declared count, so a map holding
    // `declared` runs covers it exactly; otherwise name the first gap.
    let fill = |runs: BTreeMap<usize, ShardRun>,
                declared: usize,
                kind: &str|
     -> Result<Vec<ShardRun>, ShardError> {
        if runs.len() != declared {
            let gap = runs.keys().zip(0..).find(|(k, i)| *k != i).map_or(runs.len(), |(_, i)| i);
            return Err(mismatch(format!("{kind} run {gap} is missing (coverage gap)")));
        }
        Ok(runs.into_values().collect())
    };
    let golden = fill(golden, first.golden_runs, "golden")?;
    let injected = fill(injected, injected_len, "injected")?;

    // Close the guided epoch protocol against the merged evidence: each
    // epoch's recorded prior digest must equal the digest of the merged
    // earlier epochs (the allocation provably consumed the true prior),
    // and each epoch's weights must sum to its run count (the weight law
    // `Σ_s n_s · (N_e p_s / n_s) = N_e` holds exactly up to rounding).
    if let Some(mg) = &merged_guided {
        for (&e, g) in &per_epoch {
            let expect = if e == 0 {
                0
            } else {
                let counts = guided_tallies(&injected[..mg.epoch_starts[e]]);
                EpochSummary::from_counts(e, &counts).digest()
            };
            if g.prior_digest != expect {
                return Err(mismatch(format!(
                    "epoch {e} was planned against prior digest {:016x} but the merged \
                     epochs 0..{e} hash to {expect:016x}",
                    g.prior_digest
                )));
            }
            let (lo, hi) = (mg.epoch_starts[e], mg.epoch_starts[e] + mg.epoch_runs[e]);
            let sum: f64 = injected[lo..hi].iter().map(|r| r.weight.unwrap_or(0.0)).sum();
            let n_e = mg.epoch_runs[e] as f64;
            if (sum - n_e).abs() > 1e-6 * n_e.max(1.0) {
                return Err(mismatch(format!(
                    "epoch {e} weights sum to {sum} (the weight law says {n_e})"
                )));
            }
        }
    }

    let trajs: Vec<&[TrajPoint]> = golden.iter().map(|g| g.trajectory.as_slice()).collect();
    let baseline = mean_trajectory(&trajs);

    let mut ordered: Vec<&&ShardArtifact> = group.iter().collect();
    ordered.sort_by_key(|a| {
        (a.manifest.guided.as_ref().map(|g| g.epoch).unwrap_or(0), a.manifest.shard_index)
    });
    let manifests: Vec<ShardManifest> = ordered.iter().map(|a| a.manifest.clone()).collect();
    let mut metrics = MetricsSlice::default();
    // Campaign-wide run totals must fit in u64: a forged tick or miss
    // count is a mismatch, never a wrapped sum.
    let (mut ticks, mut misses) = (0u64, 0u64);
    for a in ordered {
        metrics.add(&a.metrics).map_err(mismatch)?;
        for r in &a.runs {
            ticks =
                ticks.checked_add(r.ticks).ok_or_else(|| mismatch("ticks overflow u64".into()))?;
            misses = misses
                .checked_add(r.deadline_misses)
                .ok_or_else(|| mismatch("deadline misses overflow u64".into()))?;
        }
    }
    Ok(MergedCampaign {
        // Epoch 0 is always covered, so the first manifest is (0, 0)'s.
        manifest: manifests[0].clone(),
        manifests,
        golden,
        injected,
        baseline,
        metrics,
        guided: merged_guided,
    })
}

/// Summarize a merged campaign into a Table-I row: the shard-side view
/// of the one scorer ([`Tally`]) that
/// [`summarize`](crate::campaign::summarize) reads, each record weighing
/// 1.0. Unlike `summarize` it has *no* metric side effects: merged
/// outcome counters come from the shard slices, not from re-tallying.
pub fn summarize_merged(m: &MergedCampaign, td: f64) -> TableRow {
    let mut tally = Tally::default();
    tally.add_records(&m.injected, |_| 1.0, &m.baseline, td);
    tally.row()
}

/// Horvitz–Thompson-weighted Table-I row for a merged *guided*
/// campaign: each run contributes its importance weight instead of 1,
/// so every cell is an unbiased estimate of what uniform enumeration
/// over the full fault space would have tallied.
///
/// Requires all epochs merged (`epochs_done == epochs`) — a weighted
/// table over a prefix would silently estimate a different population.
pub fn summarize_weighted(m: &MergedCampaign, td: f64) -> Result<WeightedRow, ShardError> {
    let Some(g) = &m.guided else {
        return Err(ShardError::Mismatch(format!(
            "campaign {:?}: weighted summary requested for a uniform (non-guided) merge",
            m.manifest.campaign
        )));
    };
    if g.epochs_done != g.epochs {
        return Err(ShardError::Mismatch(format!(
            "campaign {:?}: weighted summary needs all {} epochs merged ({} done)",
            m.manifest.campaign, g.epochs, g.epochs_done
        )));
    }
    let weight = |r: &RunRecord| r.weight.expect("guided merges validate weights");
    let mut tally = Tally::default();
    tally.add_records(&m.injected, weight, &m.baseline, td);
    Ok(WeightedRow {
        budget: tally.runs,
        runs: tally.runs,
        active: tally.active,
        hang_crash: tally.hang_crash,
        accidents: tally.accidents,
        traj_violations: tally.traj_violations,
        ess: ess(m.injected.iter().map(weight)),
    })
}

/// Cumulative per-stratum epoch summary of a merged guided prefix —
/// the artifact the next epoch's shards consume as `--prior`. Works on
/// any contiguous prefix (that is the point: merge epochs `0..e`, feed
/// the summary to epoch `e`'s planner).
pub fn guided_epoch_summary(m: &MergedCampaign) -> Result<EpochSummary, ShardError> {
    let Some(g) = &m.guided else {
        return Err(ShardError::Mismatch(format!(
            "campaign {:?}: epoch summary requested for a uniform (non-guided) merge",
            m.manifest.campaign
        )));
    };
    Ok(EpochSummary::from_counts(g.epochs_done, &guided_tallies(&m.injected)))
}

/// Validate a merged campaign's incident sidecars and assemble its
/// incident set, in engine order (golden runs by index, then injected).
///
/// Each merged artifact needs exactly one complete sidecar whose
/// manifest equals its own — shard, guided epoch and epoch plan
/// included — so the sidecars of a guided campaign collect across all
/// its epochs. The run lines are the source of truth: every merged run
/// whose `incident` label is set must have exactly one sidecar payload,
/// in a sidecar that owns the run (the merge's ownership rule), and
/// nothing else may have one. Each record is built from its merged run
/// line plus the payload's ring ([`IncidentRecord::new`]). Any violation
/// (missing, duplicated or foreign sidecar, incomplete sidecar, missing
/// payload, duplicate, payload for an unremarkable run) is a
/// [`ShardError::Mismatch`], so a merged incident set is exactly-once by
/// construction.
pub fn collect_incidents(
    merged: &MergedCampaign,
    sidecars: &[IncidentArtifact],
) -> Result<Vec<IncidentRecord>, ShardError> {
    let m = &merged.manifest;
    let mismatch = |msg: String| ShardError::Mismatch(format!("campaign {:?}: {msg}", m.campaign));
    let mut paired: Vec<&IncidentArtifact> = Vec::with_capacity(merged.manifests.len());
    for sm in &merged.manifests {
        let who = match &sm.guided {
            Some(g) => format!("epoch {} shard {}/{}", g.epoch, sm.shard_index, sm.shard_count),
            None => format!("shard {}/{}", sm.shard_index, sm.shard_count),
        };
        let mut own = sidecars.iter().filter(|a| a.manifest == *sm);
        let a =
            own.next().ok_or_else(|| mismatch(format!("incident sidecar for {who} is missing")))?;
        if own.next().is_some() {
            return Err(mismatch(format!("incident sidecar for {who} supplied more than once")));
        }
        if !a.complete {
            return Err(mismatch(format!(
                "incident sidecar for {who} is incomplete (no incidents_done footer)"
            )));
        }
        paired.push(a);
    }
    if paired.len() != sidecars.len() {
        return Err(mismatch(
            "an incident sidecar's manifest matches no merged shard artifact".to_string(),
        ));
    }

    // The merged runs that name an incident (their kinds the merge
    // validated). Units order golden before injected, so the BTreeMap
    // key order is engine order.
    let mut expected: BTreeMap<RunUnit, &RunRecord> = BTreeMap::new();
    for r in merged.golden.iter().chain(&merged.injected) {
        if let (Some(_), Some(unit)) = (&r.incident, RunUnit::from_kind(r.kind, r.index)) {
            expected.insert(unit, r);
        }
    }
    let mut out: BTreeMap<RunUnit, IncidentRecord> = BTreeMap::new();
    for a in paired {
        for (_, p) in &a.records {
            let (kind, i) = (p.unit.kind(), p.unit.index());
            a.manifest.owns(p.unit).map_err(|e| mismatch(format!("incident of {e}")))?;
            let rec =
                expected.remove(&p.unit).and_then(|r| IncidentRecord::new(r, p.flight.clone()));
            let rec = rec.ok_or_else(|| {
                mismatch(format!(
                    "sidecar payload for {kind} run {i} has no matching incident on its run \
                     line (duplicate or spurious)"
                ))
            })?;
            out.insert(p.unit, rec);
        }
    }
    if let Some((unit, r)) = expected.into_iter().next() {
        let label = r.incident.as_deref().unwrap_or_default();
        return Err(mismatch(format!(
            "{} run {} is a {label:?} incident but no sidecar carries its payload",
            unit.kind(),
            unit.index()
        )));
    }
    Ok(out.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{campaign_units, GOLDEN_SEED_BASE, INJECTED_SEED_BASE};
    use diverseav::AgentMode;
    use diverseav_fabric::Profile;
    use diverseav_obs::FaultSite;
    use diverseav_simworld::{ScenarioKind, Vec2};

    fn campaign() -> Campaign {
        Campaign {
            scenario: ScenarioKind::LeadSlowdown,
            target: Profile::Gpu,
            kind: crate::plan::FaultModelKind::Transient,
            mode: AgentMode::RoundRobin,
        }
    }

    #[test]
    fn unit_partition_is_deterministic_and_total() {
        let units = campaign_units(4, 10);
        assert_eq!(units.len(), 14);
        for u in &units {
            let s = unit_shard(42, *u, 3);
            assert!(s < 3);
            assert_eq!(s, unit_shard(42, *u, 3), "assignment must be stable");
        }
        let total: usize =
            (0..3).map(|k| units.iter().filter(|u| unit_shard(42, **u, 3) == k).count()).sum();
        assert_eq!(total, units.len(), "shards partition the unit set");
        assert_eq!(unit_shard(42, RunUnit::Golden(1), 1), 0, "1-shard runs own everything");
    }

    #[test]
    fn unit_codes_keep_kinds_disjoint() {
        assert_ne!(unit_code(RunUnit::Golden(5)), unit_code(RunUnit::Injected(5)));
    }

    #[test]
    fn fingerprint_separates_campaign_scale_and_sensor() {
        let scale = CampaignScale::quick();
        let sensor = SensorConfig::default();
        let base = campaign_fingerprint(&campaign(), &scale, &sensor);
        let other_campaign = Campaign { target: Profile::Cpu, ..campaign() };
        assert_ne!(base, campaign_fingerprint(&other_campaign, &scale, &sensor));
        let other_scale = CampaignScale { golden_runs: scale.golden_runs + 1, ..scale };
        assert_ne!(base, campaign_fingerprint(&campaign(), &other_scale, &sensor));
        let noisy = SensorConfig { pixel_noise: sensor.pixel_noise + 0.25, ..sensor };
        assert_ne!(base, campaign_fingerprint(&campaign(), &scale, &noisy));
        assert_eq!(base, campaign_fingerprint(&campaign(), &scale, &sensor), "stable");
    }

    fn sample_run() -> ShardRun {
        ShardRun {
            campaign: "GPU-transient LSD [diverseav]".to_string(),
            scenario: "lead_slowdown".to_string(),
            kind: "injected",
            index: 3,
            seed: INJECTED_SEED_BASE + 3,
            outcome: "crash".to_string(),
            end_time: 1.25,
            collision_time: None,
            alarm_time: Some(0.875),
            fault_activated: true,
            fault_onset_time: None,
            min_cvip: f64::INFINITY,
            red_light_violations: 1,
            ticks: 51,
            deadline_misses: 2,
            incident: Some("crash".to_string()),
            stratum: Some(0x7100 | 0x23),
            weight: Some(3.75),
            div_peak: [0.0; 3],
            fault: Some(FaultSite {
                profile: "GPU".to_string(),
                unit: 0,
                model: "transient".to_string(),
                mask: 1 << 7,
                cycle: Some(123_456),
                op: None,
            }),
            trajectory: vec![TrajPoint { t: 0.0, pos: Vec2 { x: -0.0, y: 1.5 } }],
        }
    }

    #[test]
    fn manifest_round_trips_and_rejects_other_versions() {
        let m = ShardManifest {
            schema_version: SHARD_SCHEMA_VERSION,
            fingerprint: 0x0123_4567_89ab_cdef,
            plan_seed: 0xfedc_ba98_7654_3210,
            campaign: "GPU-transient LSD [diverseav]".to_string(),
            scenario: "LSD".to_string(),
            scenario_name: "lead_slowdown".to_string(),
            target: "GPU".to_string(),
            kind: "transient".to_string(),
            mode: "diverseav".to_string(),
            shard_index: 1,
            shard_count: 4,
            batch_size: 8,
            golden_runs: 6,
            injected_runs: 16,
            guided: Some(GuidedManifest {
                epochs: 2,
                epoch: 1,
                epoch_start: 8,
                epoch_runs: 8,
                prior_digest: 0xdead_beef_0bad_f00d,
            }),
        };
        let v = json::parse(&m.render()).expect("manifest renders as JSON");
        assert_eq!(ShardManifest::parse(&v).expect("manifest reconstructs"), m);
        let m = ShardManifest { guided: None, ..m };
        let v = json::parse(&m.render()).expect("uniform manifest renders as JSON");
        assert_eq!(ShardManifest::parse(&v).expect("manifest reconstructs"), m);
        let bumped = m.render().replace(
            &format!("\"schema_version\": {SHARD_SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", SHARD_SCHEMA_VERSION + 1),
        );
        let v = json::parse(&bumped).expect("still JSON");
        assert!(ShardManifest::parse(&v).is_err(), "future versions must be refused");
        let v = with_u32_overflow(&m.render(), "schema_version", SHARD_SCHEMA_VERSION);
        let err = ShardManifest::parse(&v).expect_err("2^32 + 4 is not version 4");
        assert!(err.contains("out of u32 range"), "{err}");
    }

    #[test]
    fn metrics_slice_encoding_round_trips_and_leaves_out_zeros() {
        let mut d = MetricsSlice::default();
        d.counters.insert("runtime.ticks".to_string(), 51);
        d.counters.insert("runner.experiments".to_string(), 2);
        d.gauges.insert("deadline.worst_ns".to_string(), 1.5e6);
        let mut h =
            HistSnapshot { buckets: vec![0; diverseav_obs::hist::N_BUCKETS], sum: 40, max: 12 };
        h.buckets[3] = 4;
        d.hists.insert("tick.total".to_string(), h);
        let mut with_zeros = d.clone();
        with_zeros.counters.insert("deadline.misses".to_string(), 0);
        with_zeros.hists.insert("tick.sense".to_string(), HistSnapshot::default());

        let line = format!("{{{}}}", render_metrics(&with_zeros));
        let v = json::parse(&line).expect("fields parse");
        let back = parse_metrics(&v).expect("fields reconstruct");
        assert_eq!(back, d, "zero counters and empty histograms are left out");
    }

    /// A shard artifact whose one batch marker carries `metrics`, with
    /// every run's `ticks` set to `ticks`.
    fn artifact_text(metrics: &str, ticks: u64) -> String {
        let mut art = synthetic_artifacts(1).remove(0);
        let mut text = format!("{}\n", art.manifest.render());
        for r in &mut art.runs {
            r.ticks = ticks;
            text.push_str(&r.render_shard_line(0));
            text.push('\n');
        }
        text.push_str(&format!("{{\"type\": \"shard_batch\", \"batch\": 0, {metrics}}}\n"));
        text + SHARD_DONE
    }

    #[test]
    fn repeated_bucket_overflow_truncates_the_artifact() {
        let ok = r#""counters": {}, "gauges": {}, "hists": {"tick.total": {"sum": "0", "max": "0", "buckets": [[3, "1"]]}}"#;
        let art = parse_artifact(&artifact_text(ok, 10)).expect("artifact parses");
        assert!(art.complete && art.batches == 1);
        // The same bucket twice, summing past u64::MAX: the marker is
        // malformed, so the artifact ends before its batch.
        let forged = ok.replace(r#"[[3, "1"]]"#, r#"[[3, "18446744073709551615"], [3, "1"]]"#);
        let art = parse_artifact(&artifact_text(&forged, 10)).expect("manifest still parses");
        assert!(art.batches == 0 && art.runs.is_empty() && !art.complete, "{art:?}");
    }

    #[test]
    fn overflowing_folds_are_mismatches_not_panics() {
        let mut huge = MetricsSlice::default();
        huge.counters.insert("runtime.ticks".to_string(), u64::MAX);
        let mut folded = huge.clone();
        assert!(folded.add(&huge).is_err(), "counter fold overflows");

        // Two shards whose metric slices each carry u64::MAX ticks.
        let metrics = format!("{{{}}}", render_metrics(&huge));
        let metrics = &metrics[1..metrics.len() - 1];
        let mut arts = synthetic_artifacts(2);
        for a in &mut arts {
            a.metrics = huge.clone();
        }
        let err = merge_artifacts(&arts).expect_err("metric fold overflows");
        assert!(matches!(err, ShardError::Mismatch(_)), "{err}");
        // The same through the artifact text, and through per-run ticks.
        let one = parse_artifact(&artifact_text(metrics, 10)).expect("parses");
        assert!(one.complete);
        let mut arts = synthetic_artifacts(2);
        for a in &mut arts {
            for r in &mut a.runs {
                r.ticks = u64::MAX / 2;
            }
        }
        let err = merge_artifacts(&arts).expect_err("run ticks overflow");
        assert!(matches!(err, ShardError::Mismatch(_)), "{err}");
    }

    fn synthetic_artifacts(n: usize) -> Vec<ShardArtifact> {
        let plan_seed = 0x1234_5678;
        let (golden_runs, injected_runs) = (2, 2);
        let manifest = |i: usize| ShardManifest {
            schema_version: SHARD_SCHEMA_VERSION,
            fingerprint: 0xFACE,
            plan_seed,
            campaign: "GPU-transient LSD [diverseav]".to_string(),
            scenario: "LSD".to_string(),
            scenario_name: "lead_slowdown".to_string(),
            target: "GPU".to_string(),
            kind: "transient".to_string(),
            mode: "diverseav".to_string(),
            shard_index: i,
            shard_count: n,
            batch_size: 4,
            golden_runs,
            injected_runs,
            guided: None,
        };
        let run = |unit: RunUnit| ShardRun {
            campaign: "GPU-transient LSD [diverseav]".to_string(),
            scenario: "lead_slowdown".to_string(),
            kind: unit.kind(),
            index: unit.index(),
            seed: unit.seed(),
            outcome: "completed".to_string(),
            end_time: 2.0,
            collision_time: None,
            alarm_time: None,
            fault_activated: false,
            fault_onset_time: None,
            min_cvip: 5.0,
            red_light_violations: 0,
            ticks: 10,
            deadline_misses: 0,
            incident: None,
            stratum: None,
            weight: None,
            div_peak: [0.0; 3],
            fault: None,
            trajectory: vec![TrajPoint { t: 0.0, pos: Vec2 { x: 0.0, y: 0.0 } }],
        };
        let mut shards: Vec<Vec<ShardRun>> = vec![Vec::new(); n];
        for u in campaign_units(golden_runs, injected_runs) {
            shards[unit_shard(plan_seed, u, n)].push(run(u));
        }
        shards
            .into_iter()
            .enumerate()
            .map(|(i, runs)| ShardArtifact {
                manifest: manifest(i),
                batches: 1,
                metrics: MetricsSlice::default(),
                complete: true,
                committed_lines: 2 + runs.len(),
                runs,
            })
            .collect()
    }

    fn sample_flight() -> Vec<TickRecord> {
        vec![TickRecord {
            tick: 17,
            flags: flight::FLAG_FAULT_ACTIVE | flight::FLAG_DETECTOR_OBSERVED,
            score: 0.75,
            slope: -0.0,
            margin: 0.25,
            phase_ns: [1, 2, 3, 4],
            deadline_margin_ns: -1_024,
            d_throttle: f64::INFINITY,
            d_brake: 0.0,
            d_steer: f64::from_bits(0x7FF8_0000_0000_0001),
        }]
    }

    #[test]
    fn incident_lines_round_trip_bit_exactly() {
        let payload = IncidentPayload { unit: RunUnit::Injected(3), flight: sample_flight() };
        let line = payload.render_line(5);
        let v = json::parse(&line).expect("payload line parses");
        let (batch, back) = IncidentPayload::parse(&v).expect("payload reconstructs");
        assert_eq!(batch, 5);
        assert_eq!(back.render_line(5), line, "NaN-safe: compare rendered bytes");
        assert!(line.contains("\"kind\": \"injected\", \"index\": 3, \"flight\""), "{line}");
        let unknown = line.replace("\"injected\"", "\"bogus\"");
        let err = IncidentPayload::parse(&json::parse(&unknown).expect("still JSON"));
        assert!(err.expect_err("unknown kind").contains("unknown incident run kind"));

        // The merged record takes everything else from the run line.
        let run = sample_run();
        let rec = IncidentRecord::new(&run, back.flight).expect("the run names an incident");
        assert_eq!((rec.kind.as_str(), rec.index, rec.seed), ("injected", 3, run.seed));
        assert_eq!(
            (rec.incident.as_str(), rec.fault_class.as_deref()),
            ("crash", Some("transient"))
        );
        assert_eq!((rec.fault_onset_time, rec.alarm_time), (None, Some(0.875)));
        // NaN in d_steer: compare bit images, then the PartialEq-safe rest.
        assert_eq!(rec.flight[0].d_steer.to_bits(), sample_flight()[0].d_steer.to_bits());
        assert_eq!(rec.flight[0].slope.to_bits(), (-0.0f64).to_bits());
        assert_eq!(rec.flight[0].deadline_margin_ns, -1_024);
        let v = json::parse(&rec.render_merged()).expect("merged line parses");
        let back = IncidentRecord::parse(&v).expect("merged line reconstructs");
        assert_eq!(back.render_merged(), rec.render_merged());
        assert!(IncidentRecord::new(&ShardRun { incident: None, ..run }, Vec::new()).is_none());
    }

    #[test]
    fn incident_sidecar_parses_and_rejects_other_versions() {
        let m = synthetic_artifacts(2).remove(1).manifest;
        let rec = IncidentPayload { unit: RunUnit::Golden(0), flight: sample_flight() };
        let text =
            format!("{}\n{}\n{{\"type\": \"incidents_done\"}}\n", m.render(), rec.render_line(0));
        let art = parse_incident_artifact(&text).expect("sidecar parses");
        assert_eq!(art.manifest, m);
        assert_eq!(art.records.len(), 1);
        assert!(art.complete);

        // A torn tail truncates, the committed prefix survives.
        let torn = format!("{}\n{}\n{{\"type\": \"inci", m.render(), rec.render_line(0));
        let art = parse_incident_artifact(&torn).expect("torn sidecar parses");
        assert_eq!(art.records.len(), 1);
        assert!(!art.complete);

        // The header is a shard manifest, so the shard schema gates it.
        let bumped = text.replace(
            &format!("\"schema_version\": {SHARD_SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", SHARD_SCHEMA_VERSION + 1),
        );
        assert!(parse_incident_artifact(&bumped).is_err(), "future versions must be refused");
    }

    #[test]
    fn collect_incidents_is_exactly_once() {
        let mut arts = synthetic_artifacts(2);
        // Declare one incident on a run line and find who owns the run.
        let plan_seed = arts[0].manifest.plan_seed;
        let home = unit_shard(plan_seed, RunUnit::Injected(1), 2);
        let victim = arts
            .iter_mut()
            .flat_map(|a| a.runs.iter_mut())
            .find(|r| r.kind == "injected" && r.index == 1)
            .expect("injected run 1 exists");
        victim.incident = Some("deadline-burst".to_string());
        let merged = merge_artifacts(&arts).expect("clean shards merge");
        let payload = IncidentPayload { unit: RunUnit::Injected(1), flight: sample_flight() };
        let sidecar = |i: usize, records: Vec<(usize, IncidentPayload)>| IncidentArtifact {
            manifest: arts[i].manifest.clone(),
            records,
            complete: true,
        };
        let sidecars = vec![
            sidecar(0, if home == 0 { vec![(0, payload.clone())] } else { Vec::new() }),
            sidecar(1, if home == 1 { vec![(0, payload.clone())] } else { Vec::new() }),
        ];

        let got = collect_incidents(&merged[0], &sidecars).expect("valid incident set");
        assert_eq!(got.len(), 1);
        // NaN payload: compare rendered bytes, not PartialEq.
        let run = &merged[0].injected[1];
        let want = IncidentRecord::new(run, sample_flight()).expect("run names an incident");
        assert_eq!(got[0].render_merged(), want.render_merged());
        assert_eq!(
            (got[0].seed, got[0].incident.as_str()),
            (INJECTED_SEED_BASE + 1, "deadline-burst")
        );

        // Missing payload.
        let empty = vec![sidecar(0, Vec::new()), sidecar(1, Vec::new())];
        let err = collect_incidents(&merged[0], &empty).expect_err("missing payload");
        assert!(err.to_string().contains("no sidecar"), "{err}");

        // Payload without a matching run-line label, and one twice.
        let spurious_rec = IncidentPayload { unit: RunUnit::Golden(0), flight: Vec::new() };
        let g_home = unit_shard(plan_seed, RunUnit::Golden(0), 2);
        let mut spurious = sidecars.clone();
        spurious[g_home].records.push((0, spurious_rec));
        let err = collect_incidents(&merged[0], &spurious).expect_err("spurious payload");
        assert!(err.to_string().contains("no matching"), "{err}");
        let mut twice = sidecars.clone();
        twice[home].records.push((1, payload.clone()));
        let err = collect_incidents(&merged[0], &twice).expect_err("duplicate payload");
        assert!(err.to_string().contains("no matching"), "{err}");

        // Payload in the wrong shard.
        let mut misplaced = sidecars.clone();
        let rec = misplaced[home].records.remove(0);
        misplaced[1 - home].records.push(rec);
        let err = collect_incidents(&merged[0], &misplaced).expect_err("wrong shard");
        assert!(err.to_string().contains("belongs to shard"), "{err}");

        // Incomplete sidecar.
        let mut torn = sidecars.clone();
        torn[0].complete = false;
        let err = collect_incidents(&merged[0], &torn).expect_err("incomplete sidecar");
        assert!(err.to_string().contains("incomplete"), "{err}");

        // Missing sidecar entirely.
        let err = collect_incidents(&merged[0], &sidecars[..1]).expect_err("missing sidecar");
        assert!(err.to_string().contains("missing"), "{err}");

        // A sidecar twice, and one from another shard layout.
        let mut twice = sidecars.clone();
        twice.push(sidecars[0].clone());
        let err = collect_incidents(&merged[0], &twice).expect_err("duplicated sidecar");
        assert!(err.to_string().contains("more than once"), "{err}");
        let mut foreign = sidecars.clone();
        foreign.push(sidecar(0, Vec::new()));
        foreign[2].manifest.batch_size += 1;
        let err = collect_incidents(&merged[0], &foreign).expect_err("foreign sidecar");
        assert!(err.to_string().contains("matches no merged"), "{err}");
    }

    #[test]
    fn weighted_row_at_unit_weights_is_the_unweighted_row() {
        let mut m = merge_artifacts(&synthetic_artifacts(1)).expect("merge").remove(0);
        let base = m.injected[0].clone();
        let far = vec![TrajPoint { t: 0.0, pos: Vec2 { x: 0.0, y: 9.0 } }];
        let outcomes = ["completed", "collision", "hang", "crash", "completed", "completed"];
        m.injected = outcomes
            .iter()
            .enumerate()
            .map(|(i, &outcome)| RunRecord {
                index: i,
                outcome: outcome.to_string(),
                collision_time: (outcome == "collision").then_some(1.0),
                fault_activated: i % 2 == 0,
                trajectory: if i == 4 { far.clone() } else { base.trajectory.clone() },
                weight: Some(1.0),
                ..base.clone()
            })
            .collect();
        m.guided = Some(MergedGuided {
            epochs: 1,
            epochs_done: 1,
            epoch_starts: vec![0],
            epoch_runs: vec![outcomes.len()],
        });
        let row = summarize_merged(&m, 2.0);
        assert_eq!((row.active, row.hang_crash, row.accidents, row.traj_violations), (3, 2, 1, 1));
        let w = summarize_weighted(&m, 2.0).expect("all epochs merged");
        assert_eq!((w.budget, w.runs), (row.total, row.total));
        for (weighted, count) in [
            (w.active, row.active),
            (w.hang_crash, row.hang_crash),
            (w.accidents, row.accidents),
            (w.traj_violations, row.traj_violations),
        ] {
            assert_eq!(weighted.to_bits(), (count as f64).to_bits());
        }
    }

    #[test]
    fn merge_validates_overlap_gaps_and_order_independence() {
        let arts = synthetic_artifacts(2);
        let merged = merge_artifacts(&arts).expect("clean shards merge");
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].golden.len(), 2);
        assert_eq!(merged[0].injected.len(), 2);
        assert_eq!(merged[0].golden[0].seed, GOLDEN_SEED_BASE);
        assert_eq!(merged[0].injected[1].seed, INJECTED_SEED_BASE + 1);

        let reversed: Vec<ShardArtifact> = arts.iter().rev().cloned().collect();
        let remerged = merge_artifacts(&reversed).expect("order must not matter");
        assert_eq!(remerged[0].golden, merged[0].golden);
        assert_eq!(remerged[0].injected, merged[0].injected);

        let mut dup = arts.clone();
        dup.push(arts[0].clone());
        let err = merge_artifacts(&dup).expect_err("duplicated shard must fail");
        assert!(err.to_string().contains("overlap"), "{err}");

        let err = merge_artifacts(&arts[..1]).expect_err("missing shard must fail");
        assert!(err.to_string().contains("missing"), "{err}");

        let mut torn = arts.clone();
        torn[1].complete = false;
        let err = merge_artifacts(&torn).expect_err("incomplete shard must fail");
        assert!(err.to_string().contains("incomplete"), "{err}");

        let mut wrong_seed = arts.clone();
        let victim =
            wrong_seed.iter_mut().find(|a| !a.runs.is_empty()).expect("some shard has runs");
        victim.runs[0].seed += 1;
        let err = merge_artifacts(&wrong_seed).expect_err("seed-law violation must fail");
        assert!(err.to_string().contains("seed"), "{err}");
    }

    /// Render an artifact's manifest and its runs as one committed batch.
    fn render_committed(a: &ShardArtifact) -> String {
        let mut text = format!("{}\n", a.manifest.render());
        for r in &a.runs {
            text.push_str(&r.render_shard_line(0));
            text.push('\n');
        }
        let metrics = render_metrics(&MetricsSlice::default());
        text.push_str(&format!("{{\"type\": \"shard_batch\", \"batch\": 0, {metrics}}}\n"));
        text
    }

    const SHARD_DONE: &str = "{\"type\": \"shard_done\"}\n";

    /// Replace manifest member `from` with `to` in every rendered
    /// artifact, then parse and merge the forged set.
    fn merge_forged(arts: &[ShardArtifact], from: &str, to: &str) -> ShardError {
        let forged: Vec<ShardArtifact> = arts
            .iter()
            .map(|a| {
                let text = render_committed(a) + SHARD_DONE;
                assert!(text.contains(from), "{from:?} not in the manifest");
                parse_artifact(&text.replacen(from, to, 1)).expect("forged artifact parses")
            })
            .collect();
        assert!(merge_artifacts(arts).is_ok(), "the honest set must merge");
        merge_artifacts(&forged).expect_err("forged run counts must be refused")
    }

    #[test]
    fn merge_refuses_forged_golden_runs() {
        let err =
            merge_forged(&synthetic_artifacts(2), "\"golden_runs\": 2", "\"golden_runs\": 1e18");
        assert!(matches!(err, ShardError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("golden run 2 is missing"), "{err}");
    }

    #[test]
    fn merge_refuses_forged_shard_count() {
        let err =
            merge_forged(&synthetic_artifacts(1), "\"shard_count\": 1", "\"shard_count\": 1e18");
        assert!(matches!(err, ShardError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("shard 1/1000000000000000000 is missing"), "{err}");
    }

    #[test]
    fn merge_refuses_forged_guided_epochs() {
        // An honest pilot-epoch prefix of a 2-epoch guided campaign.
        let mut arts = synthetic_artifacts(1);
        arts[0].manifest.guided = Some(GuidedManifest {
            epochs: 2,
            epoch: 0,
            epoch_start: 0,
            epoch_runs: 2,
            prior_digest: 0,
        });
        for r in arts[0].runs.iter_mut().filter(|r| r.kind == "injected") {
            r.stratum = Some(0x7100);
            r.weight = Some(1.0);
        }
        let err = merge_forged(&arts, "\"epochs\": 2", "\"epochs\": 1e18");
        assert!(matches!(err, ShardError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("epochs exceed"), "{err}");
    }

    /// Parse `line` with member `key` set to 2^32 + 4, which `as u32`
    /// would have read as 4.
    fn with_u32_overflow(line: &str, key: &str, value: u32) -> Value {
        let from = format!("\"{key}\": {value}");
        assert!(line.contains(&from), "{from:?} not in {line}");
        let forged = line.replacen(&from, &format!("\"{key}\": 4294967300"), 1);
        json::parse(&forged).expect("forged line is JSON")
    }

    #[test]
    fn run_line_refuses_out_of_range_u32_members() {
        let line = sample_run().render_shard_line(0);
        for (key, value) in [("mask", 1 << 7), ("red_light_violations", 1)] {
            let v = with_u32_overflow(&line, key, value);
            let err =
                ShardRun::parse_shard_line(&v, "c", "s").expect_err("value beyond u32 refused");
            assert!(err.contains(&format!("\"{key}\" out of u32 range")), "{err}");
        }
    }

    #[test]
    fn parse_artifact_truncates_torn_tails() {
        let arts = synthetic_artifacts(1);
        let a = &arts[0];
        let text = render_committed(a);
        let committed = parse_artifact(&text).expect("committed prefix parses");
        assert_eq!(committed.runs.len(), a.runs.len());
        assert_eq!(committed.batches, 1);
        assert!(!committed.complete, "no footer yet");

        // A torn tail: one uncommitted run line, then a half-written line.
        let mut torn = text.clone();
        torn.push_str(&a.runs[0].render_shard_line(1));
        torn.push('\n');
        torn.push_str("{\"type\": \"shard_ru");
        let parsed = parse_artifact(&torn).expect("torn artifact still parses");
        assert_eq!(parsed.runs.len(), a.runs.len(), "uncommitted run discarded");
        assert_eq!(parsed.batches, 1);
        assert_eq!(
            torn.lines().take(parsed.committed_lines).count(),
            parsed.committed_lines,
            "committed prefix stays within the file"
        );

        // Completed artifact round-trips.
        let parsed = parse_artifact(&(text + SHARD_DONE)).expect("completed artifact parses");
        assert!(parsed.complete);
    }
}
