//! Guided fault-injection campaigns: deterministic adaptive planning
//! with unbiased (Horvitz–Thompson) Table-I estimators.
//!
//! The uniform planner ([`generate_plan`](crate::plan::generate_plan))
//! spends its run budget evenly over the injection space, so most runs
//! land in benign strata. This module stratifies the space by
//! (fault-model kind, opcode/kernel class, tick-phase), seeds every
//! stratum with a pilot allocation in epoch 0, then reallocates the
//! remaining budget across epochs toward strata whose completed runs
//! produced *safety-critical* outcomes (hang / crash / silent-divergence
//! / deadline-burst, per the incident classifier). Every run records an
//! importance weight
//!
//! ```text
//! w = (N_e · p_s) / n_{s,e}
//! ```
//!
//! where `N_e` is the epoch's run budget, `p_s` the stratum's exact
//! population probability, and `n_{s,e}` the runs allocated to the
//! stratum in that epoch — so per-epoch weights sum to `N_e`, the total
//! weight equals the campaign budget, and weighted Table-I tallies are
//! unbiased estimates of the uniform-enumeration statistics (the epoch
//! allocation depends only on *prior* epochs' outcomes, so the tower
//! property applies).
//!
//! Everything here is a pure function of the profiling run, the campaign
//! discriminants, and the merged prior-epoch artifact: no wall clock, no
//! hash-iteration order (ordered containers only — `ci/lint.sh` Gate 5
//! enforces this), no thread-count dependence. Guided shard artifacts
//! are therefore bit-identical for any `DIVERSEAV_THREADS` and any
//! shard/kill/resume mix, exactly like uniform ones.

use crate::campaign::{plan_seed, Campaign, CampaignScale};
use crate::plan::{op_class, stratum_seed, FaultModelKind, OP_CLASS_LABELS};
use crate::runner::{FaultSpec, RunResult};
use diverseav_fabric::{FaultModel, Op, Profile};
use diverseav_obs::json;
use diverseav_runtime::{SensorFault, SensorFaultKind};
use diverseav_simworld::splitmix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Incident labels that count as safety-critical for budget reallocation
/// (alarms are the *detected* case and deliberately excluded).
pub const CRITICAL_INCIDENTS: [&str; 4] = ["hang", "crash", "silent-divergence", "deadline-burst"];

/// Whether a run-line incident label counts as safety-critical.
pub fn is_safety_critical(incident: Option<&str>) -> bool {
    incident.is_some_and(|label| CRITICAL_INCIDENTS.contains(&label))
}

/// Guided-campaign parameters. The run budget itself is derived from the
/// campaign ([`uniform_budget`]) so weighted estimates are directly
/// comparable to the uniform enumeration of the same campaign.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GuidedConfig {
    /// Number of epochs (≥ 1). Epoch 0 is the pilot.
    pub epochs: usize,
}

/// One stratum of the injection space: a code (stable, self-describing,
/// sortable), a human label, and its exact population probability
/// `num/den`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stratum {
    /// Stable stratum code: `0x71PK` transient (phase `P`, position
    /// class `K`), `0x720C` permanent (opcode class `C`), `0x730B`
    /// sensor (onset bucket `B`).
    pub code: u64,
    /// Human-readable label for allocation reports.
    pub label: String,
    /// Population-probability numerator (exact member count where the
    /// population is finite).
    pub num: u64,
    /// Population-probability denominator (total population size, or the
    /// bucket count for seed-space strata).
    pub den: u64,
}

impl Stratum {
    /// The stratum's exact population probability as `f64`.
    pub fn prob(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

/// Label of a stratum code (pure function of the code, shared with
/// report renderers that only see artifact lines).
pub fn stratum_label(code: u64) -> String {
    match code & 0xFF00 {
        0x7100 => format!("T:phase{}/pos{}", (code >> 4) & 0xF, code & 0xF),
        0x7200 => {
            let class = (code & 0xFF) as usize;
            match OP_CLASS_LABELS.get(class) {
                Some(l) => format!("P:ops-{l}"),
                None => "P:ops-all".to_string(),
            }
        }
        0x7300 => format!("S:onset-q{}", code & 0xFF),
        _ => format!("?:{code:04x}"),
    }
}

/// Per-stratum outcome tally, cumulative over completed epochs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StratumTally {
    /// Stratum code.
    pub code: u64,
    /// Injected runs completed in the stratum.
    pub runs: u64,
    /// Of those, runs with a safety-critical incident.
    pub critical: u64,
}

/// Cumulative per-stratum outcome summary of epochs `0..epochs_done`,
/// the sole input to the next epoch's reallocation. Rendered as one
/// JSON line (the `diverseav-merge --epoch-summary` output, fed back via
/// `diverseav-shard --prior`); the digest pins the exact tallies so the
/// merge can prove every epoch's allocation used the true prior.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSummary {
    /// How many epochs the tallies cover.
    pub epochs_done: usize,
    /// Tallies sorted by stratum code.
    pub tallies: Vec<StratumTally>,
}

impl EpochSummary {
    /// Build from a code → (runs, critical) map (sorted by construction).
    pub fn from_counts(epochs_done: usize, counts: &BTreeMap<u64, (u64, u64)>) -> EpochSummary {
        EpochSummary {
            epochs_done,
            tallies: counts
                .iter()
                .map(|(&code, &(runs, critical))| StratumTally { code, runs, critical })
                .collect(),
        }
    }

    /// SplitMix64 fold over the epoch count and every tally.
    pub fn digest(&self) -> u64 {
        let mut d = splitmix64(0x5E55 ^ self.epochs_done as u64);
        for t in &self.tallies {
            for w in [t.code, t.runs, t.critical] {
                d = splitmix64(d ^ w);
            }
        }
        d
    }

    /// Render as one JSON line.
    pub fn render(&self) -> String {
        let tallies: Vec<String> = self
            .tallies
            .iter()
            .map(|t| {
                format!(
                    "{{\"stratum\": \"{:04x}\", \"runs\": {}, \"critical\": {}}}",
                    t.code,
                    json::u64_str(t.runs),
                    json::u64_str(t.critical),
                )
            })
            .collect();
        format!(
            "{{\"type\": \"guided_epoch_summary\", \"epochs_done\": {}, \
             \"digest\": \"{:016x}\", \"tallies\": [{}]}}",
            self.epochs_done,
            self.digest(),
            tallies.join(", "),
        )
    }

    /// Parse a line rendered by [`render`](Self::render); validates the
    /// digest so a hand-edited prior cannot silently steer allocation.
    pub fn parse(text: &str) -> Result<EpochSummary, String> {
        let v = json::parse(text.trim()).map_err(|e| format!("epoch summary: {e}"))?;
        let ty = v.req_str("type")?;
        if ty != "guided_epoch_summary" {
            return Err(format!("not a guided epoch summary (type {ty:?})"));
        }
        let epochs_done = v.req_usize("epochs_done")?;
        let digest = v.req_hex64("digest")?;
        let mut tallies = Vec::new();
        for t in v.req_arr("tallies")? {
            let code = t.req_with("stratum", |s| {
                let s = s.as_str().filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()));
                u64::from_str_radix(s.ok_or("must be a hex string")?, 16).map_err(|e| e.to_string())
            })?;
            tallies.push(StratumTally {
                code,
                runs: t.req_u64_str("runs")?,
                critical: t.req_u64_str("critical")?,
            });
        }
        let out = EpochSummary { epochs_done, tallies };
        if out.digest() != digest {
            return Err(format!(
                "epoch summary digest mismatch: line says {digest:016x}, tallies hash to \
                 {:016x}",
                out.digest()
            ));
        }
        Ok(out)
    }
}

/// One planned guided run: the fault to inject, the stratum it was drawn
/// from, and its Horvitz–Thompson weight.
#[derive(Clone, Debug, PartialEq)]
pub struct GuidedSpec {
    /// The fault to inject.
    pub spec: FaultSpec,
    /// Stratum code.
    pub stratum: u64,
    /// Importance weight `(N_e · p_s) / n_{s,e}`.
    pub weight: f64,
}

/// The uniform-enumeration run count of a campaign — the budget a guided
/// campaign spends and the total its weights sum to, so weighted cells
/// estimate exactly what the uniform campaign would count.
pub fn uniform_budget(
    profile_run: &RunResult,
    campaign: &Campaign,
    scale: &CampaignScale,
) -> usize {
    match campaign.kind {
        FaultModelKind::Transient | FaultModelKind::Sensor(_) => scale.n_transient,
        FaultModelKind::Permanent => {
            let ops = match campaign.target {
                Profile::Gpu => profile_run.gpu_ops.len(),
                Profile::Cpu => profile_run.cpu_ops.len(),
            };
            ops * scale.permanent_repeats.max(1)
        }
    }
}

/// Private stratum geometry: how to map a within-stratum member index to
/// a concrete fault realization.
#[derive(Clone, Debug)]
enum Geometry {
    /// Dynamic-instruction space of `space` instructions, modeled as
    /// `n_ticks` ticks of `period` instructions each (last tick partial),
    /// cut into `phase_div` temporal phases × `kdiv` within-tick position
    /// classes (the kernel-class proxy: early offsets are the first
    /// kernels dispatched each tick).
    Transient { space: u64, period: u64, n_ticks: u64, phase_div: u64, kdiv: u64 },
    /// Used-opcode enumeration grouped by [`op_class`]; `class_ops[c]`
    /// lists the ops of class `c` in profile order, each × `repeats`.
    Permanent { class_ops: Vec<Vec<Op>>, repeats: usize },
    /// Sensor realization-seed space bucketed by fault onset quartile
    /// (`buckets` equal onset ranges over the 40-step onset window).
    Sensor { class: SensorFaultKind, buckets: u64 },
}

/// Cell bounds of transient cell (`p`, `k`): member count plus the
/// mapping data for member → dynamic-instruction index.
struct TransientCell {
    tick_lo: u64,
    off_lo: u64,
    len: u64,
    full_ticks: u64,
    partial: u64,
}

impl TransientCell {
    fn members(&self) -> u64 {
        self.full_ticks * self.len + self.partial
    }
}

fn transient_cell(
    space: u64,
    period: u64,
    n_ticks: u64,
    phase_div: u64,
    kdiv: u64,
    p: u64,
    k: u64,
) -> TransientCell {
    let tick_lo = p * n_ticks / phase_div;
    let tick_hi = (p + 1) * n_ticks / phase_div;
    let off_lo = k * period / kdiv;
    let off_hi = (k + 1) * period / kdiv;
    let len = off_hi - off_lo;
    let last_len = space - (n_ticks - 1) * period;
    let has_partial = tick_hi == n_ticks && last_len < period;
    let span = tick_hi - tick_lo;
    let full_ticks = span - has_partial as u64;
    let partial = if has_partial { off_hi.min(last_len).saturating_sub(off_lo) } else { 0 };
    TransientCell { tick_lo, off_lo, len, full_ticks, partial }
}

/// The deterministic adaptive planner of one guided campaign: strata,
/// budget split, per-epoch allocation, and fault draws.
#[derive(Clone, Debug)]
pub struct GuidedPlanner {
    /// The campaign's plan seed (stratum draw streams fold it in).
    pub plan_seed: u64,
    /// Epoch count.
    pub epochs: usize,
    /// Total injected-run budget (= [`uniform_budget`]).
    pub budget: usize,
    /// Strata sorted by code, empty cells dropped.
    pub strata: Vec<Stratum>,
    geometry: Geometry,
    target: Profile,
}

/// Granularity ladder for transient stratification, coarsened until the
/// per-epoch budget can give every stratum its floor-1 pilot run.
const TRANSIENT_LADDER: [(u64, u64); 5] = [(4, 4), (4, 2), (2, 2), (2, 1), (1, 1)];

impl GuidedPlanner {
    /// Build the planner from the profiling run. Fails when the campaign
    /// is too small to stratify (budget < epochs) or the profile ran no
    /// work on the target fabric.
    pub fn new(
        profile_run: &RunResult,
        campaign: &Campaign,
        scale: &CampaignScale,
        cfg: GuidedConfig,
    ) -> Result<GuidedPlanner, String> {
        let epochs = cfg.epochs.max(1);
        let budget = uniform_budget(profile_run, campaign, scale);
        if budget < epochs {
            return Err(format!(
                "guided campaign needs budget >= epochs (budget {budget}, epochs {epochs})"
            ));
        }
        // Largest per-stratum floor any epoch must honor.
        let cap = (budget / epochs).max(1);
        let (strata, geometry) = match campaign.kind {
            FaultModelKind::Transient => {
                let space = match campaign.target {
                    Profile::Gpu => profile_run.gpu_dyn_instr,
                    Profile::Cpu => profile_run.cpu_dyn_instr,
                };
                if space == 0 {
                    return Err(format!(
                        "profiling run executed no instructions on {}",
                        campaign.target
                    ));
                }
                let ticks = profile_run.ticks.max(1);
                let period = (space / ticks).max(1);
                let n_ticks = space.div_ceil(period);
                let mut chosen = None;
                for (phase_div, kdiv) in TRANSIENT_LADDER {
                    if phase_div > n_ticks || kdiv > period {
                        continue;
                    }
                    let mut cells = Vec::new();
                    for p in 0..phase_div {
                        for k in 0..kdiv {
                            let cell =
                                transient_cell(space, period, n_ticks, phase_div, kdiv, p, k);
                            if cell.members() > 0 {
                                cells.push((p, k, cell.members()));
                            }
                        }
                    }
                    if !cells.is_empty() && cells.len() <= cap {
                        chosen = Some((phase_div, kdiv, cells));
                        break;
                    }
                }
                let (phase_div, kdiv, cells) = chosen.ok_or_else(|| {
                    format!("no transient stratification fits budget {budget} / epochs {epochs}")
                })?;
                let strata = cells
                    .into_iter()
                    .map(|(p, k, members)| {
                        let code = 0x7100 | (p << 4) | k;
                        Stratum { code, label: stratum_label(code), num: members, den: space }
                    })
                    .collect();
                (strata, Geometry::Transient { space, period, n_ticks, phase_div, kdiv })
            }
            FaultModelKind::Permanent => {
                let ops: Vec<Op> = match campaign.target {
                    Profile::Gpu => profile_run.gpu_ops.iter().map(|&(op, _)| op).collect(),
                    Profile::Cpu => profile_run.cpu_ops.iter().map(|&(op, _)| op).collect(),
                };
                if ops.is_empty() {
                    return Err(format!("profiling run used no opcodes on {}", campaign.target));
                }
                let repeats = scale.permanent_repeats.max(1);
                let mut class_ops: Vec<Vec<Op>> = vec![Vec::new(); OP_CLASS_LABELS.len()];
                for op in &ops {
                    class_ops[op_class(*op)].push(*op);
                }
                let inhabited = class_ops.iter().filter(|c| !c.is_empty()).count();
                if inhabited > cap {
                    // Too small to stratify by class: one stratum holds all.
                    let code = 0x72FF;
                    let total = ops.len() as u64 * repeats as u64;
                    let strata =
                        vec![Stratum { code, label: stratum_label(code), num: total, den: total }];
                    (strata, Geometry::Permanent { class_ops: vec![ops], repeats })
                } else {
                    let total = ops.len() as u64 * repeats as u64;
                    let strata = class_ops
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| !c.is_empty())
                        .map(|(i, c)| {
                            let code = 0x7200 | i as u64;
                            Stratum {
                                code,
                                label: stratum_label(code),
                                num: c.len() as u64 * repeats as u64,
                                den: total,
                            }
                        })
                        .collect();
                    (strata, Geometry::Permanent { class_ops, repeats })
                }
            }
            FaultModelKind::Sensor(class) => {
                // Onset steps span [8, 48): 40 values, divisible by 4/2/1,
                // so bucket probabilities are exact.
                let buckets = if cap >= 4 {
                    4
                } else if cap >= 2 {
                    2
                } else {
                    1
                };
                let strata = (0..buckets)
                    .map(|b| {
                        let code = 0x7300 | b;
                        Stratum { code, label: stratum_label(code), num: 1, den: buckets }
                    })
                    .collect();
                (strata, Geometry::Sensor { class, buckets })
            }
        };
        Ok(GuidedPlanner {
            plan_seed: plan_seed(campaign),
            epochs,
            budget,
            strata,
            geometry,
            target: campaign.target,
        })
    }

    /// Per-epoch run budgets: the pilot (epoch 0) takes
    /// `ceil(budget/epochs)`, the remainder splits as evenly as possible,
    /// earlier epochs first.
    pub fn epoch_budgets(&self) -> Vec<usize> {
        epoch_budgets(self.budget, self.epochs, self.budget.div_ceil(self.epochs))
    }

    /// Global injected index at which `epoch` starts (epochs own
    /// contiguous index ranges, so the seed law `INJECTED_SEED_BASE + i`
    /// is unchanged from uniform campaigns).
    pub fn epoch_start(&self, epoch: usize) -> usize {
        self.epoch_budgets().iter().take(epoch).sum()
    }

    /// The per-stratum run allocation of `epoch`. Epoch 0 allocates
    /// proportional to population probability; later epochs require the
    /// cumulative prior summary and steer by observed criticality.
    pub fn allocation(
        &self,
        epoch: usize,
        prior: Option<&EpochSummary>,
    ) -> Result<BTreeMap<u64, usize>, String> {
        if epoch >= self.epochs {
            return Err(format!("epoch {epoch} out of range ({} epochs)", self.epochs));
        }
        let n = self.epoch_budgets()[epoch];
        match (epoch, prior) {
            (0, None) => pilot_allocation(&self.strata, n),
            (0, Some(_)) => Err("epoch 0 takes no prior summary".to_string()),
            (_, None) => Err(format!("epoch {epoch} needs the prior epoch summary")),
            (e, Some(p)) => {
                if p.epochs_done != e {
                    return Err(format!(
                        "epoch {e} needs a summary of epochs 0..{e} (prior covers {})",
                        p.epochs_done
                    ));
                }
                adaptive_allocation(&self.strata, p, n)
            }
        }
    }

    /// The full plan of `epoch`: draws per stratum in code order, each
    /// tagged with its stratum and weight. Entry `j` is global injected
    /// run `epoch_start(epoch) + j`.
    pub fn epoch_plan(
        &self,
        epoch: usize,
        prior: Option<&EpochSummary>,
    ) -> Result<Vec<GuidedSpec>, String> {
        let alloc = self.allocation(epoch, prior)?;
        let n_e = self.epoch_budgets()[epoch];
        let mut out = Vec::with_capacity(n_e);
        for s in &self.strata {
            let n_se = *alloc.get(&s.code).unwrap_or(&0);
            if n_se == 0 {
                return Err(format!("stratum {} allocated zero runs", s.label));
            }
            let weight = run_weight(n_e, s, n_se);
            let mut rng = StdRng::seed_from_u64(stratum_seed(self.plan_seed, s.code, epoch));
            for _ in 0..n_se {
                let spec = self.draw(s, &mut rng)?;
                out.push(GuidedSpec { spec, stratum: s.code, weight });
            }
        }
        Ok(out)
    }

    /// Draw one fault realization uniformly within `stratum`.
    fn draw(&self, stratum: &Stratum, rng: &mut StdRng) -> Result<FaultSpec, String> {
        match &self.geometry {
            Geometry::Transient { space, period, n_ticks, phase_div, kdiv } => {
                let (p, k) = ((stratum.code >> 4) & 0xF, stratum.code & 0xF);
                let cell = transient_cell(*space, *period, *n_ticks, *phase_div, *kdiv, p, k);
                let m = rng.gen_range(0..cell.members());
                let full = cell.full_ticks * cell.len;
                let instr_index = if m < full {
                    (cell.tick_lo + m / cell.len) * period + cell.off_lo + m % cell.len
                } else {
                    (n_ticks - 1) * period + cell.off_lo + (m - full)
                };
                let mask = 1u32 << rng.gen_range(0..32);
                Ok(FaultSpec::Fabric {
                    unit: 0,
                    profile: self.target,
                    model: FaultModel::Transient { instr_index, mask },
                })
            }
            Geometry::Permanent { class_ops, repeats } => {
                let class = (stratum.code & 0xFF) as usize;
                let ops = if stratum.code == 0x72FF { &class_ops[0] } else { &class_ops[class] };
                let m = rng.gen_range(0..stratum.num) as usize;
                let op = ops[m / repeats];
                let mask = 1u32 << rng.gen_range(0..32);
                Ok(FaultSpec::Fabric {
                    unit: 0,
                    profile: self.target,
                    model: FaultModel::Permanent { op, mask },
                })
            }
            Geometry::Sensor { class, buckets } => {
                let want = stratum.code & 0xFF;
                for _ in 0..4096 {
                    let seed: u64 = rng.gen();
                    if sensor_bucket(*class, seed, *buckets) == want {
                        return Ok(FaultSpec::Sensor(SensorFault { kind: *class, seed }));
                    }
                }
                Err(format!(
                    "sensor stratum {} rejected 4096 consecutive draws (expected ~{buckets})",
                    stratum.label
                ))
            }
        }
    }

    /// The stratum code a sensor realization seed belongs to, for tests
    /// and tally recomputation.
    pub fn sensor_stratum(&self, seed: u64) -> Option<u64> {
        match &self.geometry {
            Geometry::Sensor { class, buckets } => {
                Some(0x7300 | sensor_bucket(*class, seed, *buckets))
            }
            _ => None,
        }
    }
}

/// Onset-quartile bucket of a sensor realization seed: the 40-step onset
/// window [8, 48) cut into `buckets` equal ranges.
fn sensor_bucket(class: SensorFaultKind, seed: u64, buckets: u64) -> u64 {
    let onset = SensorFault { kind: class, seed }.onset_step();
    (onset - 8) * buckets / 40
}

/// Split `budget` runs over `epochs` epochs with `pilot` runs in epoch 0
/// and the remainder as even as possible, earlier epochs first. `pilot`
/// is clamped so every epoch gets at least one run when possible.
pub fn epoch_budgets(budget: usize, epochs: usize, pilot: usize) -> Vec<usize> {
    let e = epochs.max(1);
    if e == 1 {
        return vec![budget];
    }
    let pilot = pilot.clamp(1, budget.saturating_sub(e - 1).max(1));
    let rest = budget - pilot;
    let (base, rem) = (rest / (e - 1), rest % (e - 1));
    let mut out = Vec::with_capacity(e);
    out.push(pilot);
    for i in 0..e - 1 {
        out.push(base + usize::from(i < rem));
    }
    out
}

/// Pilot allocation: `n` runs proportional to population probability,
/// floor 1 per stratum, largest-remainder rounding (ties to the lower
/// stratum code). Errors when `n` cannot cover the floor.
pub fn pilot_allocation(strata: &[Stratum], n: usize) -> Result<BTreeMap<u64, usize>, String> {
    largest_remainder(strata, &strata.iter().map(Stratum::prob).collect::<Vec<_>>(), n)
}

/// Adaptive allocation for epochs ≥ 1: rare-event Neyman shares
/// `p_s · sqrt(score_s)` with the Laplace-smoothed criticality score
/// `score_s = (critical_s + 1) / (runs_s + 2)` from the cumulative prior
/// tallies. For small rates the exact Neyman standard deviation
/// `sqrt(score(1 − score))` is ≈ `sqrt(score)`, and the simplified form
/// is *monotone* in observed criticality, so budget always flows toward
/// strata that produced safety-critical outcomes — with floor 1
/// everywhere so every stratum keeps a positive, finite weight.
pub fn adaptive_allocation(
    strata: &[Stratum],
    prior: &EpochSummary,
    n: usize,
) -> Result<BTreeMap<u64, usize>, String> {
    let codes: Vec<u64> = prior.tallies.iter().map(|t| t.code).collect();
    let expect: Vec<u64> = strata.iter().map(|s| s.code).collect();
    if codes != expect {
        return Err(format!(
            "prior summary strata {codes:04x?} do not match the campaign's {expect:04x?}"
        ));
    }
    let shares: Vec<f64> = strata
        .iter()
        .zip(&prior.tallies)
        .map(|(s, t)| {
            let score = (t.critical as f64 + 1.0) / (t.runs as f64 + 2.0);
            s.prob() * score.sqrt()
        })
        .collect();
    largest_remainder(strata, &shares, n)
}

/// Floor-1 largest-remainder apportionment of `n` runs over `strata`
/// proportional to `shares`. Deterministic: quotas are pure `f64`
/// arithmetic, ties break to the lower stratum code.
fn largest_remainder(
    strata: &[Stratum],
    shares: &[f64],
    n: usize,
) -> Result<BTreeMap<u64, usize>, String> {
    let k = strata.len();
    if k == 0 {
        return Err("no strata to allocate over".to_string());
    }
    if n < k {
        return Err(format!("epoch budget {n} cannot give {k} strata one run each"));
    }
    let total: f64 = shares.iter().sum();
    let uniform = 1.0 / k as f64;
    let extra = (n - k) as f64;
    let mut alloc: Vec<usize> = Vec::with_capacity(k);
    let mut rems: Vec<(f64, u64, usize)> = Vec::with_capacity(k);
    let mut used = 0usize;
    for (i, s) in strata.iter().enumerate() {
        let share = if total > 0.0 { shares[i] / total } else { uniform };
        let quota = extra * share;
        let base = quota.floor() as usize;
        alloc.push(1 + base);
        used += 1 + base;
        rems.push((quota - quota.floor(), s.code, i));
    }
    // Ties to the lower code: sort by (remainder desc, code asc).
    rems.sort_by(|a, b| {
        b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
    });
    for &(_, _, i) in rems.iter().take(n - used) {
        alloc[i] += 1;
    }
    Ok(strata.iter().zip(alloc).map(|(s, a)| (s.code, a)).collect())
}

/// The Horvitz–Thompson weight of every run in `stratum` during an epoch
/// of `epoch_budget` runs where the stratum received `allocated` runs:
/// `(N_e · p_s) / n_{s,e}`.
pub fn run_weight(epoch_budget: usize, stratum: &Stratum, allocated: usize) -> f64 {
    (epoch_budget as f64 * stratum.num as f64) / (stratum.den as f64 * allocated as f64)
}

/// Effective sample size `(Σw)² / Σw²` of a weight set (equals the run
/// count for uniform weights; collapses toward 1 when a few heavy
/// weights dominate the estimate).
pub fn ess(weights: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut sq) = (0.0f64, 0.0f64);
    for w in weights {
        sum += w;
        sq += w * w;
    }
    if sq > 0.0 {
        sum * sum / sq
    } else {
        0.0
    }
}

/// A weighted Table-I row: Horvitz–Thompson estimates of the uniform
/// campaign's counts, plus the diagnostics a reader needs to judge them.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct WeightedRow {
    /// The estimated uniform-enumeration run count (= Σ weights = the
    /// campaign budget).
    pub budget: usize,
    /// Guided runs actually executed.
    pub runs: usize,
    /// Weighted estimate of runs with an activated fault.
    pub active: f64,
    /// Weighted estimate of platform-detected hangs and crashes.
    pub hang_crash: f64,
    /// Weighted estimate of accident runs.
    pub accidents: f64,
    /// Weighted estimate of trajectory-violation runs.
    pub traj_violations: f64,
    /// Effective sample size of the weight set.
    pub ess: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::OP_CLASSES;
    use crate::runner::Termination;
    use diverseav::AgentMode;
    use diverseav_simworld::ScenarioKind;

    fn fake_profile(gpu_instr: u64, ticks: u64) -> RunResult {
        RunResult {
            scenario: "test",
            mode: AgentMode::RoundRobin,
            fault: None,
            seed: 0,
            termination: Termination::Completed,
            end_time: 1.0,
            collision_time: None,
            alarm_time: None,
            fault_activated: false,
            fault_onset_time: None,
            min_cvip: 10.0,
            red_light_violations: 0,
            ticks,
            deadline_misses: 0,
            incident: None,
            flight: Vec::new(),
            trajectory: Vec::new(),
            training: Vec::new(),
            actuation: Vec::new(),
            gpu_dyn_instr: gpu_instr,
            cpu_dyn_instr: 10_000,
            gpu_ops: vec![
                (Op::FAdd, 500),
                (Op::FMul, 300),
                (Op::IAdd, 200),
                (Op::Ld, 100),
                (Op::Jz, 50),
            ],
            cpu_ops: vec![(Op::IAdd, 100), (Op::FSub, 50)],
            stratum: None,
            weight: None,
        }
    }

    fn campaign(kind: FaultModelKind) -> Campaign {
        Campaign {
            scenario: ScenarioKind::LeadSlowdown,
            target: Profile::Gpu,
            kind,
            mode: AgentMode::RoundRobin,
        }
    }

    fn planner(kind: FaultModelKind, epochs: usize) -> GuidedPlanner {
        GuidedPlanner::new(
            &fake_profile(1_000_000, 80),
            &campaign(kind),
            &CampaignScale::quick(),
            GuidedConfig { epochs },
        )
        .expect("planner builds")
    }

    #[test]
    fn transient_strata_partition_the_space_exactly() {
        // Brute-force the partition property over awkward shapes:
        // non-divisible spaces, partial last ticks, tiny periods.
        for (space, ticks) in [(1_000u64, 80u64), (997, 13), (64, 64), (39, 7), (16, 1)] {
            let profile = fake_profile(space, ticks);
            let scale = CampaignScale { n_transient: 16, ..CampaignScale::quick() };
            let p = GuidedPlanner::new(
                &profile,
                &campaign(FaultModelKind::Transient),
                &scale,
                GuidedConfig { epochs: 2 },
            )
            .expect("planner builds");
            let total: u64 = p.strata.iter().map(|s| s.num).sum();
            assert_eq!(total, space, "members sum to the space for S={space} T={ticks}");
            assert!(p.strata.iter().all(|s| s.den == space));
            assert!(p.strata.iter().all(|s| s.num > 0), "no empty strata");
            // Every member index maps into [0, space) and is unique.
            let Geometry::Transient { space: s2, period, n_ticks, phase_div, kdiv } = p.geometry
            else {
                panic!("transient geometry")
            };
            assert_eq!(s2, space);
            let mut seen = vec![false; space as usize];
            for st in &p.strata {
                let (ph, k) = ((st.code >> 4) & 0xF, st.code & 0xF);
                let cell = transient_cell(space, period, n_ticks, phase_div, kdiv, ph, k);
                for m in 0..cell.members() {
                    let full = cell.full_ticks * cell.len;
                    let idx = if m < full {
                        (cell.tick_lo + m / cell.len) * period + cell.off_lo + m % cell.len
                    } else {
                        (n_ticks - 1) * period + cell.off_lo + (m - full)
                    };
                    assert!(idx < space, "index {idx} within space {space}");
                    assert!(!seen[idx as usize], "index {idx} drawn by one stratum only");
                    seen[idx as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "every index reachable");
        }
    }

    #[test]
    fn permanent_strata_group_ops_by_class() {
        // 5 used GPU ops x 2 repeats = budget 10, cap 5: room for the 4
        // inhabited classes.
        let scale = CampaignScale { permanent_repeats: 2, ..CampaignScale::quick() };
        let p = GuidedPlanner::new(
            &fake_profile(1_000_000, 80),
            &campaign(FaultModelKind::Permanent),
            &scale,
            GuidedConfig { epochs: 2 },
        )
        .expect("planner builds");
        assert_eq!(p.strata.len(), 4);
        assert!(p.strata.len() <= OP_CLASSES);
        let total: u64 = p.strata.iter().map(|s| s.num).sum();
        assert_eq!(total, 10, "5 used GPU ops x 2 repeats");
        assert!(p.strata.iter().any(|s| s.label == "P:ops-float"));
        // With x1 repeats the cap (5/2 = 2) cannot hold 4 classes: the
        // planner falls back to a single ops-all stratum.
        let p = planner(FaultModelKind::Permanent, 2);
        assert_eq!(p.strata.len(), 1);
        assert_eq!(p.strata[0].label, "P:ops-all");
        assert_eq!((p.strata[0].num, p.strata[0].den), (5, 5));
    }

    #[test]
    fn sensor_strata_have_exact_quarter_probabilities() {
        let p = planner(FaultModelKind::Sensor(SensorFaultKind::Dropout), 2);
        assert_eq!(p.strata.len(), 4);
        for s in &p.strata {
            assert_eq!((s.num, s.den), (1, 4));
        }
        // Drawn seeds really land in their bucket.
        let plan = p.epoch_plan(0, None).expect("pilot plan");
        for spec in &plan {
            let FaultSpec::Sensor(sf) = spec.spec else { panic!("sensor spec") };
            assert_eq!(p.sensor_stratum(sf.seed), Some(spec.stratum));
        }
    }

    #[test]
    fn epoch_budgets_split_exactly() {
        assert_eq!(epoch_budgets(16, 2, 8), vec![8, 8]);
        assert_eq!(epoch_budgets(17, 2, 9), vec![9, 8]);
        assert_eq!(epoch_budgets(10, 3, 4), vec![4, 3, 3]);
        assert_eq!(epoch_budgets(5, 1, 5), vec![5]);
        assert_eq!(epoch_budgets(5, 4, 2), vec![2, 1, 1, 1]);
        for (b, e, p) in [(16, 2, 8), (100, 7, 30), (9, 9, 1)] {
            assert_eq!(epoch_budgets(b, e, p).iter().sum::<usize>(), b);
        }
    }

    #[test]
    fn pilot_allocation_has_floor_and_exact_total() {
        let p = planner(FaultModelKind::Transient, 2);
        let alloc = p.allocation(0, None).expect("pilot allocation");
        assert_eq!(alloc.values().sum::<usize>(), p.epoch_budgets()[0]);
        assert!(alloc.values().all(|&n| n >= 1));
        assert!(p.allocation(0, Some(&EpochSummary::from_counts(0, &BTreeMap::new()))).is_err());
    }

    #[test]
    fn adaptive_allocation_steers_toward_critical_strata() {
        let p = planner(FaultModelKind::Transient, 2);
        let pilot = p.allocation(0, None).expect("pilot");
        // A prior where exactly one stratum produced incidents.
        let hot = *pilot.keys().next().expect("some stratum");
        let counts: BTreeMap<u64, (u64, u64)> = pilot
            .iter()
            .map(|(&code, &n)| (code, (n as u64, if code == hot { n as u64 } else { 0 })))
            .collect();
        let prior = EpochSummary::from_counts(1, &counts);
        let alloc = p.allocation(1, Some(&prior)).expect("adaptive allocation");
        assert_eq!(alloc.values().sum::<usize>(), p.epoch_budgets()[1]);
        assert!(alloc.values().all(|&n| n >= 1), "floor 1 everywhere");
        let cold = *pilot.keys().last().expect("some other stratum");
        assert!(
            alloc[&hot] >= alloc[&cold],
            "critical stratum {hot:04x} must not lose budget to quiet {cold:04x}"
        );
        // Purity: the same prior yields the identical allocation.
        assert_eq!(alloc, p.allocation(1, Some(&prior)).expect("same"));
        // A stale prior is refused.
        assert!(p.allocation(1, None).is_err());
        let stale = EpochSummary { epochs_done: 2, ..prior.clone() };
        assert!(p.allocation(1, Some(&stale)).is_err());
    }

    #[test]
    fn weights_are_per_epoch_normalized() {
        for kind in [
            FaultModelKind::Transient,
            FaultModelKind::Permanent,
            FaultModelKind::Sensor(SensorFaultKind::BiasDrift),
        ] {
            let p = planner(kind, 2);
            let pilot_plan = p.epoch_plan(0, None).expect("pilot plan");
            let n0 = p.epoch_budgets()[0];
            assert_eq!(pilot_plan.len(), n0);
            let sum: f64 = pilot_plan.iter().map(|s| s.weight).sum();
            assert!((sum - n0 as f64).abs() < 1e-9 * n0 as f64, "{kind:?}: sum {sum} != {n0}");
            assert!(pilot_plan.iter().all(|s| s.weight > 0.0 && s.weight.is_finite()));
        }
    }

    #[test]
    fn epoch_plans_are_pure_functions() {
        let p = planner(FaultModelKind::Transient, 2);
        let a = p.epoch_plan(0, None).expect("plan");
        let b = p.epoch_plan(0, None).expect("plan again");
        assert_eq!(a, b, "same inputs, bit-identical plan");
        let counts: BTreeMap<u64, (u64, u64)> = p
            .allocation(0, None)
            .expect("pilot")
            .iter()
            .map(|(&c, &n)| (c, (n as u64, 0)))
            .collect();
        let prior = EpochSummary::from_counts(1, &counts);
        assert_eq!(
            p.epoch_plan(1, Some(&prior)).expect("epoch 1"),
            p.epoch_plan(1, Some(&prior)).expect("epoch 1 again"),
        );
    }

    #[test]
    fn epoch_summary_round_trips_and_rejects_tampering() {
        let counts: BTreeMap<u64, (u64, u64)> =
            [(0x7100u64, (5u64, 1u64)), (0x7101, (3, 0))].into_iter().collect();
        let s = EpochSummary::from_counts(1, &counts);
        let line = s.render();
        let back = EpochSummary::parse(&line).expect("summary parses");
        assert_eq!(back, s);
        let tampered = line.replace("\"critical\": \"1\"", "\"critical\": \"2\"");
        let err = EpochSummary::parse(&tampered).expect_err("tampered tallies refused");
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn ess_matches_run_count_for_uniform_weights() {
        assert!((ess([2.0, 2.0, 2.0, 2.0].into_iter()) - 4.0).abs() < 1e-12);
        // One dominant weight collapses the ESS toward 1.
        let collapsed = ess([100.0, 1.0, 1.0, 1.0].into_iter());
        assert!(collapsed < 1.1, "{collapsed}");
        assert_eq!(ess(std::iter::empty()), 0.0);
    }

    #[test]
    fn critical_labels_match_incident_classifier() {
        use diverseav_runtime::IncidentKind;
        for kind in IncidentKind::ALL {
            let expect = kind.label() != "alarm";
            assert_eq!(is_safety_critical(Some(kind.label())), expect, "{}", kind.label());
        }
        assert!(!is_safety_critical(None));
    }

    #[test]
    fn stratum_labels_are_self_describing() {
        assert_eq!(stratum_label(0x7123), "T:phase2/pos3");
        assert_eq!(stratum_label(0x7200), "P:ops-float");
        assert_eq!(stratum_label(0x72FF), "P:ops-all");
        assert_eq!(stratum_label(0x7301), "S:onset-q1");
    }

    #[test]
    fn budget_too_small_for_epochs_is_refused() {
        let scale = CampaignScale { n_transient: 1, ..CampaignScale::quick() };
        let err = GuidedPlanner::new(
            &fake_profile(1_000, 10),
            &campaign(FaultModelKind::Transient),
            &scale,
            GuidedConfig { epochs: 2 },
        )
        .expect_err("budget 1 cannot fill 2 epochs");
        assert!(err.contains("budget"), "{err}");
    }
}
