//! Output check: a stable per-run record hash plus summary rows, compared
//! against the committed reference in `reference/<workload>.txt`.
//!
//! The hash covers a projection of the fields every campaign path
//! records (monolithic [`RunResult`] and sharded [`ShardRun`] alike), so
//! it survives refactors of the record types as long as the recorded
//! values stay the same. `deadline_misses` is kept beside the hash: it
//! is part of the determinism contract under the default modeled
//! profiling, and outside it under `DIVERSEAV_PROFILE=wall`.

use diverseav_faultinj::{run_record, RunResult, ShardRun};
use diverseav_obs::FaultSite;
use diverseav_simworld::TrajPoint;
use std::collections::BTreeMap;

/// FNV-1a, 64 bit, over explicitly little-endian encoded fields.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
            None => self.u64(0),
        }
    }
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of a rendered document.
pub fn text_hash(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.str(s);
    h.finish()
}

/// The fields of one run that the check compares, borrowed from either
/// record type.
pub struct RunView<'a> {
    pub kind: &'a str,
    pub index: usize,
    pub seed: u64,
    pub outcome: &'a str,
    pub end_time: f64,
    pub collision_time: Option<f64>,
    pub alarm_time: Option<f64>,
    pub fault_activated: bool,
    pub fault_onset_time: Option<f64>,
    pub min_cvip: f64,
    pub red_light_violations: u32,
    pub ticks: u64,
    pub incident: Option<&'a str>,
    pub stratum: Option<u64>,
    pub weight: Option<f64>,
    pub fault: Option<FaultSite>,
    pub trajectory: &'a [TrajPoint],
    /// Hash of the recorded divergence stream (0 when none was recorded
    /// or the record type does not carry it).
    pub stream: u64,
}

impl RunView<'_> {
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.str(self.kind);
        h.u64(self.index as u64);
        h.u64(self.seed);
        h.str(self.outcome);
        h.f64(self.end_time);
        h.opt_f64(self.collision_time);
        h.opt_f64(self.alarm_time);
        h.u64(self.fault_activated as u64);
        h.opt_f64(self.fault_onset_time);
        h.f64(self.min_cvip);
        h.u64(self.red_light_violations as u64);
        h.u64(self.ticks);
        h.str(self.incident.unwrap_or("-"));
        h.u64(self.stratum.map_or(u64::MAX, |s| s));
        h.opt_f64(self.weight);
        match &self.fault {
            Some(f) => {
                h.str(&f.profile);
                h.u64(f.unit as u64);
                h.str(&f.model);
                h.u64(f.mask as u64);
                h.u64(f.cycle.map_or(u64::MAX, |c| c));
                h.str(f.op.as_deref().unwrap_or("-"));
            }
            None => h.str("no-fault"),
        }
        h.u64(self.trajectory.len() as u64);
        for p in self.trajectory {
            h.f64(p.t);
            h.f64(p.pos.x);
            h.f64(p.pos.y);
        }
        h.u64(self.stream);
        h.finish()
    }
}

/// Record hash of a monolithic run.
pub fn run_result_hash(kind: &'static str, index: usize, r: &RunResult) -> u64 {
    let rec = run_record("", kind, index, r);
    let mut stream = Fnv::default();
    for s in &r.training {
        for v in [s.t, s.state.v, s.state.a, s.state.w, s.state.alpha] {
            stream.f64(v);
        }
        for v in [s.div.throttle, s.div.brake, s.div.steer] {
            stream.f64(v);
        }
    }
    RunView {
        kind,
        index,
        seed: r.seed,
        outcome: r.termination.label(),
        end_time: r.end_time,
        collision_time: r.collision_time,
        alarm_time: r.alarm_time,
        fault_activated: r.fault_activated,
        fault_onset_time: r.fault_onset_time,
        min_cvip: r.min_cvip,
        red_light_violations: r.red_light_violations,
        ticks: r.ticks,
        incident: r.incident.map(|i| i.label()),
        stratum: r.stratum,
        weight: r.weight,
        fault: rec.fault,
        trajectory: &r.trajectory,
        stream: if r.training.is_empty() { 0 } else { stream.finish() },
    }
    .hash()
}

/// Record hash of a sharded run.
pub fn shard_run_hash(r: &ShardRun) -> u64 {
    RunView {
        kind: &r.kind,
        index: r.index,
        seed: r.seed,
        outcome: &r.outcome,
        end_time: r.end_time,
        collision_time: r.collision_time,
        alarm_time: r.alarm_time,
        fault_activated: r.fault_activated,
        fault_onset_time: r.fault_onset_time,
        min_cvip: r.min_cvip,
        red_light_violations: r.red_light_violations,
        ticks: r.ticks,
        incident: r.incident.as_deref(),
        stratum: r.stratum,
        weight: r.weight,
        fault: r.fault.clone(),
        trajectory: &r.trajectory,
        stream: 0,
    }
    .hash()
}

/// One checked output: a run record (hash + modeled deadline misses) or
/// a summary line (rendered text).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entry {
    Run { hash: u64, deadline_misses: u64 },
    Summary(String),
}

/// Every checked output of one round, keyed `<campaign>/<kind>/<index>`
/// for runs and `<campaign>/<summary name>` for summaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digests(pub BTreeMap<String, Entry>);

impl Digests {
    pub fn run(&mut self, campaign: &str, kind: &str, index: usize, hash: u64, misses: u64) {
        let key = format!("{campaign}/{kind}/{index}");
        self.0.insert(key, Entry::Run { hash, deadline_misses: misses });
    }

    pub fn summary(&mut self, campaign: &str, name: &str, text: String) {
        self.0.insert(format!("{campaign}/{name}"), Entry::Summary(text));
    }

    pub fn runs(&self) -> usize {
        self.0.values().filter(|e| matches!(e, Entry::Run { .. })).count()
    }

    /// Render as reference lines for `variant`.
    pub fn render(&self, variant: usize) -> String {
        let mut out = String::new();
        for (k, e) in &self.0 {
            match e {
                Entry::Run { hash, deadline_misses } => {
                    out.push_str(&format!("v{variant}\t{k}\trun\t{hash:016x}\t{deadline_misses}\n"))
                }
                Entry::Summary(t) => out.push_str(&format!("v{variant}\t{k}\tsum\t{t}\n")),
            }
        }
        out
    }

    /// Runs that differ from `reference`, and the keys of every
    /// differing entry. A missing or extra run counts as failed; a
    /// differing summary fails every run of the round, since the round's
    /// result is then wrong as a whole. With `ignore_misses` the
    /// deadline-miss field is not compared (wall-clock profiling).
    pub fn failed_against(&self, reference: &Digests, ignore_misses: bool) -> (usize, Vec<String>) {
        let same = |a: &Entry, b: &Entry| match (a, b) {
            (Entry::Run { hash, deadline_misses }, Entry::Run { hash: h, deadline_misses: d }) => {
                hash == h && (ignore_misses || deadline_misses == d)
            }
            (a, b) => a == b,
        };
        let mut bad: Vec<String> = Vec::new();
        let (mut failed, mut summary_bad) = (0, false);
        let mut mark = |k: &String, e: &Entry| {
            bad.push(k.clone());
            match e {
                Entry::Run { .. } => failed += 1,
                Entry::Summary(_) => summary_bad = true,
            }
        };
        for (k, e) in &self.0 {
            if !reference.0.get(k).is_some_and(|r| same(e, r)) {
                mark(k, e);
            }
        }
        for (k, e) in &reference.0 {
            if !self.0.contains_key(k) {
                mark(k, e);
            }
        }
        if summary_bad {
            failed = self.runs().max(reference.runs());
        }
        (failed, bad)
    }
}

/// Parse the reference lines of one variant out of a reference file.
pub fn parse_reference(text: &str, variant: usize) -> Result<Digests, String> {
    let tag = format!("v{variant}");
    let mut d = Digests::default();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() < 4 {
            return Err(format!("reference line {}: too few fields", n + 1));
        }
        if f[0] != tag {
            continue;
        }
        let entry = match f[2] {
            "run" if f.len() == 5 => Entry::Run {
                hash: u64::from_str_radix(f[3], 16)
                    .map_err(|e| format!("reference line {}: {e}", n + 1))?,
                deadline_misses: f[4]
                    .parse()
                    .map_err(|e| format!("reference line {}: {e}", n + 1))?,
            },
            "sum" => Entry::Summary(f[3..].join("\t")),
            other => return Err(format!("reference line {}: bad kind {other:?}", n + 1)),
        };
        d.0.insert(f[1].to_string(), entry);
    }
    if d.0.is_empty() {
        return Err(format!("reference has no entries for variant {variant}"));
    }
    Ok(d)
}
