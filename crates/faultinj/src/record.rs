//! The per-run outcome record: what the Campaign Manager and the Driver
//! (Fig 3) write down about every run, and what Table I, the guided
//! estimates and the trace analysis tally.
//!
//! One type, one lossless member codec (an `f64` as its IEEE-754 bit
//! pattern, a `u64` as a decimal string) and two line framings: a parsed
//! record equals the written one bit for bit and renders back to the
//! same bytes.
//!
//! * **Shard line** ([`RunRecord::render_shard_line`]):
//!   `{"type": "shard_run", "batch": b, <members>, "trajectory": [..]}`.
//!   The campaign label and scenario name are the artifact manifest's;
//!   [`RunRecord::parse_shard_line`] takes them from the caller.
//! * **Journal line** ([`RunRecord::render_journal_line`]):
//!   `{"type": "run", "campaign": .., "scenario": .., <members>}`. The
//!   trajectory, the bulk of a shard line, is left out: the journal sink
//!   is capped in lines, not bytes. [`RunRecord::parse_journal_line`]
//!   returns an empty `trajectory`.
//!
//! `<members>` are `MEMBERS`, `kind` through `fault`. Both parsers
//! require exactly the members their framing writes, in order, each in
//! its encoding.

use crate::runner::RunResult;
use diverseav_obs::json::{self, Value};
use diverseav_obs::FaultSite;
use diverseav_simworld::{TrajPoint, Vec2};
use std::fmt::Write;

/// Everything recorded about one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Campaign display label (e.g. `"GPU-transient LSD [diverseav]"`).
    pub campaign: String,
    /// Scenario name.
    pub scenario: String,
    /// `"golden"` or `"injected"`.
    pub kind: &'static str,
    /// Engine index within its kind.
    pub index: usize,
    /// The run seed (validated against the engine's seed law on merge).
    pub seed: u64,
    /// `Termination::label()`: completed, collision, crash or hang.
    pub outcome: String,
    /// Simulation time reached (s).
    pub end_time: f64,
    /// Collision time, if the ego collided.
    pub collision_time: Option<f64>,
    /// Detector alarm time, if raised.
    pub alarm_time: Option<f64>,
    /// Whether the fault corrupted at least one register or frame.
    pub fault_activated: bool,
    /// First corrupted-frame time of a sensor fault (latency reference).
    pub fault_onset_time: Option<f64>,
    /// Minimum CVIP distance (`+inf` when no NPC was ever in view).
    pub min_cvip: f64,
    /// Red lights crossed against a stop demand.
    pub red_light_violations: u32,
    /// Simulation ticks executed.
    pub ticks: u64,
    /// Ticks over the 25 ms control budget.
    pub deadline_misses: u64,
    /// [`IncidentKind`](diverseav_runtime::IncidentKind) label of a run
    /// that kept its flight recording (the payload goes to a sidecar).
    pub incident: Option<String>,
    /// Guided stratum code (`None` outside guided injected runs).
    pub stratum: Option<u64>,
    /// Horvitz–Thompson weight (`None` outside guided injected runs).
    pub weight: Option<f64>,
    /// Peak divergence `[throttle, brake, steer]` (zeros without a stream).
    pub div_peak: [f64; 3],
    /// Injection site (`None` for golden runs).
    pub fault: Option<FaultSite>,
    /// Recorded ego trajectory (empty when read from a journal line).
    pub trajectory: Vec<TrajPoint>,
}

/// Member names shared by both framings, in render order.
const MEMBERS: [&str; 18] = [
    "kind",
    "index",
    "seed",
    "outcome",
    "end_time",
    "collision_time",
    "alarm_time",
    "fault_activated",
    "fault_onset_time",
    "min_cvip",
    "red_light_violations",
    "ticks",
    "deadline_misses",
    "incident",
    "stratum",
    "weight",
    "div_peak",
    "fault",
];

/// Flatten one run of campaign `campaign` into its record.
pub fn run_record(campaign: &str, kind: &'static str, index: usize, r: &RunResult) -> RunRecord {
    RunRecord {
        campaign: campaign.to_string(),
        scenario: r.scenario.to_string(),
        kind,
        index,
        seed: r.seed,
        outcome: r.termination.label().to_string(),
        end_time: r.end_time,
        collision_time: r.collision_time,
        alarm_time: r.alarm_time,
        fault_activated: r.fault_activated,
        fault_onset_time: r.fault_onset_time,
        min_cvip: r.min_cvip,
        red_light_violations: r.red_light_violations,
        ticks: r.ticks,
        deadline_misses: r.deadline_misses,
        incident: r.incident.map(|k| k.label().to_string()),
        stratum: r.stratum,
        weight: r.weight,
        div_peak: r.divergence_peak(),
        fault: r.fault.map(|f| f.site()),
        trajectory: r.trajectory.clone(),
    }
}

/// Require a `ty` line whose member names are `head`, [`MEMBERS`],
/// `tail`, in that order (`head` starts with `"type"`).
fn check_framing(v: &Value, ty: &str, head: &[&str], tail: &[&str]) -> Result<(), String> {
    let names = v.as_obj().ok_or("expected an object")?.iter().map(|(k, _)| k.as_str());
    if !names.eq(head.iter().chain(&MEMBERS).chain(tail).copied()) {
        return Err(format!("members must be exactly {head:?} + {MEMBERS:?} + {tail:?}"));
    }
    match v.req_str("type")? {
        t if t == ty => Ok(()),
        t => Err(format!("not a {ty} line (type {t:?})")),
    }
}

impl RunRecord {
    /// The [`MEMBERS`], rendered as the inside of a JSON object.
    fn render_members(&self) -> String {
        format!(
            "\"kind\": \"{}\", \"index\": {}, \"seed\": {}, \"outcome\": \"{}\", \
             \"end_time\": {}, \"collision_time\": {}, \"alarm_time\": {}, \
             \"fault_activated\": {}, \"fault_onset_time\": {}, \"min_cvip\": {}, \
             \"red_light_violations\": {}, \"ticks\": {}, \"deadline_misses\": {}, \
             \"incident\": {}, \"stratum\": {}, \"weight\": {}, \
             \"div_peak\": [{}, {}, {}], \"fault\": {}",
            self.kind,
            self.index,
            json::u64_str(self.seed),
            json::escape(&self.outcome),
            json::f64_bits(self.end_time),
            json::opt_f64_bits(self.collision_time),
            json::opt_f64_bits(self.alarm_time),
            self.fault_activated,
            json::opt_f64_bits(self.fault_onset_time),
            json::f64_bits(self.min_cvip),
            self.red_light_violations,
            json::u64_str(self.ticks),
            json::u64_str(self.deadline_misses),
            json::opt_str(self.incident.as_deref()),
            self.stratum.map(|c| format!("\"{c:016x}\"")).unwrap_or_else(|| "null".to_string()),
            json::opt_f64_bits(self.weight),
            json::f64_bits(self.div_peak[0]),
            json::f64_bits(self.div_peak[1]),
            json::f64_bits(self.div_peak[2]),
            self.fault.as_ref().map(FaultSite::render).unwrap_or_else(|| "null".to_string()),
        )
    }

    /// Read the [`MEMBERS`] of `v`; the other members come from the
    /// framing.
    fn parse_members(
        v: &Value,
        campaign: String,
        scenario: String,
        trajectory: Vec<TrajPoint>,
    ) -> Result<RunRecord, String> {
        let kind = match v.req_str("kind")?.as_str() {
            "golden" => "golden",
            "injected" => "injected",
            other => return Err(format!("unknown run kind {other:?}")),
        };
        let peak =
            |p: &Value| json::parse_f64_bits(p).map_err(|e| format!("member \"div_peak\": {e}"));
        let [throttle, brake, steer] = v.req_arr("div_peak")? else {
            return Err("member \"div_peak\" must hold 3 channels".to_string());
        };
        Ok(RunRecord {
            campaign,
            scenario,
            kind,
            index: v.req_usize("index")?,
            seed: v.req_u64_str("seed")?,
            outcome: v.req_str("outcome")?,
            end_time: v.req_f64_bits("end_time")?,
            collision_time: v.opt_f64_bits_member("collision_time")?,
            alarm_time: v.opt_f64_bits_member("alarm_time")?,
            fault_activated: v.req_bool("fault_activated")?,
            fault_onset_time: v.opt_f64_bits_member("fault_onset_time")?,
            min_cvip: v.req_f64_bits("min_cvip")?,
            red_light_violations: v.req_u32("red_light_violations")?,
            ticks: v.req_u64_str("ticks")?,
            deadline_misses: v.req_u64_str("deadline_misses")?,
            incident: v.opt_str_member("incident")?,
            stratum: v.opt_hex64_member("stratum")?,
            weight: v.opt_f64_bits_member("weight")?,
            div_peak: [peak(throttle)?, peak(brake)?, peak(steer)?],
            fault: v.opt_with("fault", FaultSite::parse)?,
            trajectory,
        })
    }

    /// Render as one shard-artifact line within batch `batch` (no
    /// trailing newline).
    pub fn render_shard_line(&self, batch: usize) -> String {
        let mut s = String::with_capacity(512 + self.trajectory.len() * 56);
        let members = self.render_members();
        let _ = write!(
            s,
            "{{\"type\": \"shard_run\", \"batch\": {batch}, {members}, \"trajectory\": ["
        );
        for (i, p) in self.trajectory.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let (t, x, y) = (p.t.to_bits(), p.pos.x.to_bits(), p.pos.y.to_bits());
            let _ = write!(s, "{sep}\"{t:016x}:{x:016x}:{y:016x}\"");
        }
        s.push_str("]}");
        s
    }

    /// Parse a line written by [`render_shard_line`](Self::render_shard_line)
    /// into `(batch, record)`; `campaign` and `scenario` are the
    /// manifest's.
    pub fn parse_shard_line(
        v: &Value,
        campaign: &str,
        scenario: &str,
    ) -> Result<(usize, RunRecord), String> {
        check_framing(v, "shard_run", &["type", "batch"], &["trajectory"])?;
        let batch = v.req_usize("batch")?;
        let point = |p: &Value| {
            let mut bits = p.as_str()?.split(':').map(|h| {
                let hex = h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit());
                hex.then(|| u64::from_str_radix(h, 16).ok()).flatten().map(f64::from_bits)
            });
            let (t, x, y) = (bits.next()??, bits.next()??, bits.next()??);
            bits.next().is_none().then_some(TrajPoint { t, pos: Vec2 { x, y } })
        };
        let points = v.req_arr("trajectory")?;
        let mut trajectory = Vec::with_capacity(points.len());
        for p in points {
            trajectory.push(point(p).ok_or_else(|| format!("bad trajectory point {p:?}"))?);
        }
        let record =
            Self::parse_members(v, campaign.to_string(), scenario.to_string(), trajectory)?;
        Ok((batch, record))
    }

    /// Render as one journal line (no trailing newline, no trajectory).
    pub fn render_journal_line(&self) -> String {
        format!(
            "{{\"type\": \"run\", \"campaign\": \"{}\", \"scenario\": \"{}\", {}}}",
            json::escape(&self.campaign),
            json::escape(&self.scenario),
            self.render_members()
        )
    }

    /// Parse a line written by
    /// [`render_journal_line`](Self::render_journal_line). The journal
    /// carries no trajectory, so the record's `trajectory` is empty.
    pub fn parse_journal_line(v: &Value) -> Result<RunRecord, String> {
        check_framing(v, "run", &["type", "campaign", "scenario"], &[])?;
        Self::parse_members(v, v.req_str("campaign")?, v.req_str("scenario")?, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            campaign: "GPU-transient LSD [diverseav]".into(),
            scenario: "lead-slowdown".into(),
            kind: "injected",
            index: 3,
            seed: 2003,
            outcome: "crash".into(),
            end_time: 1.25,
            collision_time: None,
            alarm_time: Some(0.875),
            fault_activated: true,
            fault_onset_time: None,
            min_cvip: f64::INFINITY,
            red_light_violations: 1,
            ticks: 51,
            deadline_misses: 2,
            incident: Some("crash".into()),
            stratum: Some(0x7123),
            weight: Some(3.75),
            div_peak: [0.5, -0.0, f64::NAN],
            fault: Some(FaultSite {
                profile: "GPU".into(),
                unit: 0,
                model: "transient".into(),
                mask: 1 << 7,
                cycle: Some(123_456),
                op: None,
            }),
            trajectory: vec![
                TrajPoint { t: 0.0, pos: Vec2 { x: -0.0, y: 1.5 } },
                TrajPoint { t: 0.025, pos: Vec2 { x: 0.3, y: 1.625 } },
            ],
        }
    }

    #[test]
    fn shard_line_round_trips_bit_exactly() {
        let r = record();
        let line = r.render_shard_line(7);
        assert!(line.starts_with("{\"type\": \"shard_run\", \"batch\": 7, \"kind\": \"injected\""));
        assert!(!line.contains("\"campaign\""), "the manifest holds the campaign: {line}");
        let v = json::parse(&line).expect("run line parses");
        let (batch, back) =
            RunRecord::parse_shard_line(&v, &r.campaign, &r.scenario).expect("run reconstructs");
        assert_eq!(batch, 7);
        assert_eq!(back.render_shard_line(7), line);
        assert_eq!(back.trajectory, r.trajectory);
        assert_eq!(back.trajectory[0].pos.x.to_bits(), (-0.0f64).to_bits());
        assert!(back.min_cvip.is_infinite() && back.div_peak[2].is_nan());
    }

    #[test]
    fn journal_line_carries_everything_but_the_trajectory() {
        let r = record();
        let line = r.render_journal_line();
        assert!(line.starts_with(
            "{\"type\": \"run\", \"campaign\": \"GPU-transient LSD [diverseav]\", \
             \"scenario\": \"lead-slowdown\", \"kind\": \"injected\""
        ));
        for member in ["\"ticks\": \"51\"", "\"incident\": \"crash\"", "\"cycle\": \"123456\""] {
            assert!(line.contains(member), "{member} missing from {line}");
        }
        assert!(!line.contains("trajectory"), "{line}");
        let back = RunRecord::parse_journal_line(&json::parse(&line).unwrap()).expect("parses");
        assert!(back.trajectory.is_empty());
        assert_eq!(back.render_journal_line(), line);
        let with_traj = RunRecord { trajectory: r.trajectory.clone(), ..back };
        assert_eq!(with_traj.render_shard_line(0), r.render_shard_line(0));
    }

    #[test]
    fn parsers_reject_anything_render_cannot_write() {
        let line = record().render_journal_line();
        let onset = "\"fault_onset_time\": null, ";
        let peak = format!("\"div_peak\": [{}, ", json::f64_bits(0.5));
        for bad in [
            "{\"type\": \"run\"}".to_string(),
            line.replace(onset, ""),
            line.replace("\"kind\": \"injected\"", "\"kind\": \"other\""),
            line.replace("\"index\": 3", "\"index\": 3.5"),
            line.replace("\"seed\": \"2003\"", "\"seed\": 2003"),
            line.replace("\"alarm_time\": \"", "\"alarm_time\": \"0"),
            line.replace(&peak, "\"div_peak\": ["),
            line.replace("\"mask\": 128", "\"mask\": 4294967296"),
            line.replace("\"cycle\": \"123456\"", "\"cycle\": 123456"),
            line.replace(onset, "").replace("\"index\"", &format!("{onset}\"index\"")),
            line.replacen('}', ", \"extra\": 1}", 1),
            line.replace("\"type\": \"run\"", "\"type\": \"span\""),
        ] {
            assert_ne!(bad, line, "every case must change the line");
            let v = json::parse(&bad).expect("still JSON");
            assert!(RunRecord::parse_journal_line(&v).is_err(), "{bad} must be rejected");
        }
        let shard = record().render_shard_line(0);
        for bad in [
            shard.replace("\"type\": \"shard_run\"", "\"type\": \"run\""),
            shard.replace("\"trajectory\": [", "\"trajectory\": [1, "),
            shard.replace("\"trajectory\": [\"0", "\"trajectory\": [\"g"),
            shard.replace("\"batch\": 0", "\"batch\": -1"),
        ] {
            let v = json::parse(&bad).expect("still JSON");
            assert!(RunRecord::parse_shard_line(&v, "c", "s").is_err(), "{bad} must be rejected");
        }
    }
}
