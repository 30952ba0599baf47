//! Offline analysis of the `DIVERSEAV_TRACE` journal and the metrics
//! snapshot — the library behind the `diverseav-tracecheck` binary.
//!
//! Three consumers of one artifact set:
//!
//! * [`cell_summary`] — a Table-I-style per-campaign-cell outcome /
//!   alarm breakdown from the journal's `"type": "run"` lines.
//! * [`latency_report`] — detection-latency (alarm → collision) and
//!   peak-divergence distributions (Fig 9 flavor) with exact quantiles
//!   and ASCII histograms.
//! * [`chrome_trace`] — the journal's `"type": "span"` lines re-emitted
//!   as a Chrome trace-event JSON document (`chrome://tracing` /
//!   Perfetto `"traceEvents"` format, complete `"X"` events, one track
//!   per engine worker).
//!
//! Plus two cross-cutting reports:
//!
//! * [`guided_report_summary`] — the guided campaign's per-epoch
//!   allocation table and effective-sample-size health, with
//!   [`guided_expect_check`] holding its weighted Table-I cells against a
//!   committed enumeration fixture.
//! * [`forensics_report`] — the flight-recorder post-mortem over a
//!   merged incident document (`diverseav-merge --incidents`):
//!   per-incident score-vs-threshold sparklines with onset and alarm
//!   markers, a per-fault-class onset → detectable → alarm latency
//!   decomposition, and never-alarmed incidents ranked by how close the
//!   detector came to the threshold.
//!
//! # Binary exit codes
//!
//! The `diverseav-tracecheck` binary maps this library onto three exit
//! codes, stable for CI consumption:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | all requested reports rendered, no guided warnings |
//! | 1    | unreadable / malformed / empty inputs, or unknown arguments |
//! | 2    | `--guided` found an ESS collapse, or `--expect` found a
//! |      | weighted cell outside the fixture tolerance (a warning gate
//! |      | CI can treat separately from hard failure) |
//!
//! Everything parses through [`diverseav_obs::json`] (no serde in the
//! dependency closure) and its strict member vocabulary — run lines
//! through [`RunRecord::parse_journal_line`] (the lossless run record the
//! shard artifacts carry too, minus the trajectory), span lines through
//! [`Span::parse`], incident lines through
//! [`IncidentRecord::parse`] — and is pure string → string, so the
//! binary is a thin argument-parsing shell over testable functions.
//! Malformed input is an `Err`, never a default or a panic.

use diverseav_faultinj::{IncidentRecord, RunRecord};
use diverseav_obs::flight::{FLAG_ALARM, FLAG_DETECTOR_OBSERVED, FLAG_FAULT_ACTIVE};
use diverseav_obs::json::{self, Value};
use diverseav_obs::trace::Span;
use diverseav_obs::FaultSite;
use diverseav_runtime::SILENT_SCORE_FLOOR;
use diverseav_simworld::TICK_HZ;
use std::collections::BTreeMap;

/// A parsed trace journal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// All run lines, in journal order.
    pub runs: Vec<RunRecord>,
    /// All engine spans, in journal order.
    pub spans: Vec<Span>,
}

/// Parse a JSONL trace journal. Returns the trace, or per-line parse
/// errors (`line N: <reason>`) if any line is malformed. Run lines are
/// read by [`RunRecord::parse_journal_line`], so a run line that
/// [`RunRecord::render_journal_line`] could not have written is an error.
pub fn parse_trace(text: &str) -> Result<Trace, Vec<String>> {
    let mut trace = Trace::default();
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line).and_then(|v| match v.req_str("type")?.as_str() {
            "run" => RunRecord::parse_journal_line(&v).map(|r| trace.runs.push(r)),
            "span" => Span::parse(&v).map(|s| trace.spans.push(s)),
            other => Err(format!("unknown type {other:?}")),
        });
        if let Err(e) = parsed {
            errors.push(format!("line {}: {e}", i + 1));
        }
    }
    if errors.is_empty() {
        Ok(trace)
    } else {
        Err(errors)
    }
}

#[derive(Clone, Debug, Default)]
struct CellStats {
    total: u64,
    completed: u64,
    collision: u64,
    hang_crash: u64,
    activated: u64,
    alarms: u64,
    detected_accidents: u64,
    accidents: u64,
}

/// Render the Table-I-style per-campaign-cell summary: outcome counts,
/// fault activation, and alarm coverage of accidents. Cells are sorted
/// by label; golden runs are reported as their own `[golden]` row per
/// campaign.
pub fn cell_summary(runs: &[RunRecord]) -> String {
    let mut cells: BTreeMap<String, CellStats> = BTreeMap::new();
    for r in runs {
        let key = if r.kind == "golden" {
            format!("{} [golden]", r.campaign)
        } else {
            r.campaign.clone()
        };
        let c = cells.entry(key).or_default();
        c.total += 1;
        match r.outcome.as_str() {
            "completed" => c.completed += 1,
            "collision" => c.collision += 1,
            _ => c.hang_crash += 1,
        }
        if r.fault_activated {
            c.activated += 1;
        }
        if r.alarm_time.is_some() {
            c.alarms += 1;
        }
        if r.collision_time.is_some() {
            c.accidents += 1;
            if r.alarm_time.is_some() {
                c.detected_accidents += 1;
            }
        }
    }
    let mut out = String::from(
        "campaign cell                                      runs  compl  coll  h/c  activ  alarm  det/acc\n",
    );
    for (label, c) in &cells {
        out.push_str(&format!(
            "{label:<48} {:>5} {:>6} {:>5} {:>4} {:>6} {:>6} {:>5}/{}\n",
            c.total,
            c.completed,
            c.collision,
            c.hang_crash,
            c.activated,
            c.alarms,
            c.detected_accidents,
            c.accidents,
        ));
    }
    out
}

/// Exact quantile of an ascending-sorted sample (nearest-rank).
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The histogram prints its bin edges to 3 decimals: values closer than
/// this print alike.
const PRINT_RESOLUTION: f64 = 1e-3;

/// A fixed-width ASCII histogram of a sample over `bins` equal bins, no
/// narrower than the printed precision. A sample whose whole range is
/// narrower than that (values that print alike but differ in their last
/// bits) is one bin, not bins whose edges all print the same.
fn ascii_histogram(values: &[f64], bins: usize, unit: &str) -> String {
    if values.is_empty() {
        return String::from("  (no samples)\n");
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let bins = if hi - lo < PRINT_RESOLUTION { 1 } else { bins };
    let width = ((hi - lo) / bins as f64).max(PRINT_RESOLUTION);
    let mut counts = vec![0usize; bins];
    for &v in values {
        let b = (((v - lo) / width) as usize).min(bins - 1);
        counts[b] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (b, &n) in counts.iter().enumerate() {
        let bar = "#".repeat(n * 40 / peak);
        out.push_str(&format!(
            "  [{:>9.3}, {:>9.3}) {unit} |{bar:<40}| {n}\n",
            lo + b as f64 * width,
            lo + (b + 1) as f64 * width,
        ));
    }
    out
}

/// Quantiles and a histogram of `values`; non-finite samples (a run
/// line may carry any bit pattern, and `inf - inf` is NaN) are dropped.
fn distribution_block(title: &str, unit: &str, mut values: Vec<f64>) -> String {
    values.retain(|v| v.is_finite());
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mut out = format!("{title} ({} samples)\n", values.len());
    if values.is_empty() {
        out.push_str("  (no samples)\n");
        return out;
    }
    out.push_str(&format!(
        "  p50 {:.3} {unit}, p90 {:.3} {unit}, p99 {:.3} {unit}, max {:.3} {unit}\n",
        sorted_quantile(&values, 0.50),
        sorted_quantile(&values, 0.90),
        sorted_quantile(&values, 0.99),
        values[values.len() - 1],
    ));
    out.push_str(&ascii_histogram(&values, 8, unit));
    out
}

/// Render the Fig-9-style distributions: detection latency (alarm →
/// collision lead time over runs that had both) and per-run peak
/// divergence (max across channels, injected runs only).
pub fn latency_report(runs: &[RunRecord]) -> String {
    let lead: Vec<f64> = runs
        .iter()
        .filter_map(|r| match (r.alarm_time, r.collision_time) {
            (Some(a), Some(c)) if c >= a => Some(c - a),
            _ => None,
        })
        .collect();
    let peaks: Vec<f64> = runs
        .iter()
        .filter(|r| r.kind == "injected")
        .map(|r| r.div_peak.iter().copied().fold(0.0, f64::max))
        .collect();
    let mut out = distribution_block("detection latency: alarm -> collision lead time", "s", lead);
    out.push('\n');
    out.push_str(&distribution_block("peak divergence per injected run", "", peaks));
    out
}

/// Render per-fault-class detection-latency distributions for
/// sensor-boundary campaigns: `alarm_time − fault_onset_time` over runs
/// that carry both (i.e. the fault corrupted at least one frame and the
/// detector alarmed), grouped by the sensor fault class. Runs whose fault
/// activated but never alarmed are tallied as missed — a silent
/// divergence the histogram cannot hide. Returns an explanatory stub
/// when the journal holds no sensor-fault runs.
pub fn sensor_latency_report(runs: &[RunRecord]) -> String {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut missed: BTreeMap<&str, u64> = BTreeMap::new();
    for r in runs {
        let sensor = r.fault.as_ref().filter(|f| f.model == "sensor");
        let Some(class) = sensor.map(FaultSite::class) else { continue };
        match (r.alarm_time, r.fault_onset_time) {
            (Some(a), Some(o)) if a >= o => by_class.entry(class).or_default().push(a - o),
            (None, Some(_)) => *missed.entry(class).or_default() += 1,
            _ => {}
        }
    }
    if by_class.is_empty() && missed.is_empty() {
        return String::from("(no sensor-fault runs in this journal)\n");
    }
    let classes: std::collections::BTreeSet<&str> =
        by_class.keys().chain(missed.keys()).copied().collect();
    let mut out = String::new();
    for class in classes {
        out.push_str(&distribution_block(
            &format!("sensor fault [{class}]: onset -> alarm latency"),
            "s",
            by_class.remove(class).unwrap_or_default(),
        ));
        if let Some(&n) = missed.get(class) {
            out.push_str(&format!("  WARNING: {n} activated run(s) never alarmed\n"));
        }
        out.push('\n');
    }
    out
}

/// Re-emit the journal's engine spans as a Chrome trace-event JSON
/// document (viewable in `chrome://tracing` or Perfetto): one complete
/// (`"X"`) event per span on its worker's track (`tid`), with the item
/// index as an event arg, plus one `thread_name` record per worker.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut events = Vec::new();
    let mut workers = std::collections::BTreeSet::new();
    for span in &trace.spans {
        workers.insert(span.worker);
        events.push(format!(
            "{{\"name\": \"exec.par_map\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"index\": {}}}}}",
            span.worker,
            span.begin_ns as f64 / 1_000.0,
            span.end_ns.saturating_sub(span.begin_ns) as f64 / 1_000.0,
            span.index,
        ));
    }
    for tid in workers {
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"worker {tid}\"}}}}",
        ));
    }
    format!("{{\"traceEvents\": [{}], \"displayTimeUnit\": \"ms\"}}\n", events.join(", "))
}

/// Render the profiling section of a parsed `METRICS_campaigns.json`
/// document: per-phase tick-latency quantiles and the deadline tallies.
/// Counters absent from the document count as zero.
///
/// # Errors
///
/// A document without the `counters` and `histograms` objects, or with
/// a counter or histogram field that is not a non-negative integer.
pub fn metrics_summary(metrics: &Value) -> Result<String, String> {
    let mut out = String::from("tick-phase latency histograms:\n");
    let mut any = false;
    for (name, h) in metrics.req_obj("histograms")? {
        if !name.starts_with("tick.") {
            continue;
        }
        any = true;
        let field = |key: &str| h.req_u64(key).map_err(|e| format!("histogram {name:?}: {e}"));
        let ms = |key: &str| field(key).map(|ns| ns as f64 / 1e6);
        out.push_str(&format!(
            "  {name:<14} count {:>8}  p50 {:>8.3} ms  p90 {:>8.3} ms  p99 {:>8.3} ms  \
             max {:>8.3} ms\n",
            field("count")?,
            ms("p50")?,
            ms("p90")?,
            ms("p99")?,
            ms("max")?,
        ));
    }
    if !any {
        out.push_str("  (no tick.* histograms — profiling was off)\n");
    }
    let counters = metrics.req_obj("counters")?;
    let mut values = BTreeMap::new();
    for (name, v) in counters {
        values.insert(
            name.as_str(),
            json::parse_uint(v).map_err(|e| format!("counter {name:?}: {e}"))?,
        );
    }
    let get = |k: &str| values.get(k).copied().unwrap_or(0);
    let dropped = get("journal.dropped");
    if dropped > 0 {
        out.push_str(&format!(
            "\nWARNING: the run journal dropped {dropped} line(s) at its cap — the trace \
             this snapshot rode along with is TRUNCATED and every journal-derived report \
             is missing runs; raise DIVERSEAV_TRACE_CAP and re-run\n",
        ));
    }
    let ticks = get("deadline.ticks");
    if ticks > 0 {
        out.push_str(&format!(
            "\n40 Hz deadline (25 ms budget): {} / {} ticks over budget\n",
            get("deadline.misses"),
            ticks,
        ));
        for (name, _) in counters {
            if let Some(scenario) =
                name.strip_prefix("deadline.").and_then(|s| s.strip_suffix(".misses"))
            {
                let per = format!("deadline.{scenario}.ticks");
                out.push_str(&format!(
                    "  {scenario:<24} {} / {} ticks missed\n",
                    get(name),
                    get(&per),
                ));
            }
        }
    }
    Ok(out)
}

// -- guided campaign report --------------------------------------------------

/// ESS-collapse warning threshold: an effective sample size under this
/// fraction of the executed runs means a few strata dominate the
/// weighted estimates and their variance bound is no longer meaningful.
pub const ESS_COLLAPSE_FRACTION: f64 = 0.2;

/// The weighted Table-I cells of a guided report campaign (and of an
/// expectation fixture campaign).
const WEIGHTED_CELLS: [&str; 4] = ["active", "hang_crash", "accidents", "traj_violations"];

/// Render a guided campaign report (`diverseav-merge --guided-report`
/// output) as the human-readable allocation table + ESS report, and
/// collect ESS-collapse warnings. The caller prints the text always and
/// treats a non-empty warning set as the exit-2 warning gate.
pub fn guided_report_summary(doc: &Value) -> Result<(String, Vec<String>), String> {
    if doc.req_str("type")? != "guided_report" {
        return Err("not a guided report (\"type\" != \"guided_report\")".to_string());
    }
    let campaigns = doc.req_arr("campaigns")?;
    if campaigns.is_empty() {
        return Err("guided report has an empty campaign set".to_string());
    }
    let mut out = String::from("== guided campaign report ==\n");
    let mut warnings = Vec::new();
    for c in campaigns {
        let label = c.req_str("campaign")?;
        let warning = guided_campaign_summary(c, &label, &mut out)
            .map_err(|e| format!("campaign {label:?}: {e}"))?;
        warnings.extend(warning);
    }
    Ok((out, warnings))
}

/// One campaign of [`guided_report_summary`]: its text goes to `out`,
/// its ESS-collapse warning (if any) is returned.
fn guided_campaign_summary(
    c: &Value,
    label: &str,
    out: &mut String,
) -> Result<Option<String>, String> {
    let (epochs, epochs_done) = (c.req_usize("epochs")?, c.req_usize("epochs_done")?);
    let (budget, runs, ess) = (c.req_usize("budget")?, c.req_usize("runs")?, c.req_num("ess")?);
    let mut cells = [0.0; 4];
    for (cell, key) in cells.iter_mut().zip(WEIGHTED_CELLS) {
        *cell = c.req_num(key)?;
    }
    out.push_str(&format!(
        "\ncampaign {label}\n  epochs {epochs_done}/{epochs}, budget {budget}, \
         {runs} run(s) executed, ESS {ess:.1} ({:.0} % of runs)\n  weighted estimates: \
         active {:.3}, hang/crash {:.3}, accidents {:.3}, traj-violations {:.3}\n",
        if runs > 0 { 100.0 * ess / runs as f64 } else { 0.0 },
        cells[0],
        cells[1],
        cells[2],
        cells[3],
    ));
    for e in c.req_arr("epoch_table")? {
        let (epoch, eruns) = (e.req_usize("epoch")?, e.req_usize("runs")?);
        out.push_str(&format!("  epoch {epoch} ({eruns} runs):\n"));
        for s in e.req_arr("allocation")? {
            out.push_str(&format!(
                "    stratum {} {:<16} runs {:>4}  critical {:>4}  weight {:.4}\n",
                s.req_str("stratum")?,
                s.req_str("label")?,
                s.req_u64("runs")?,
                s.req_u64("critical")?,
                s.req_num("weight")?,
            ));
        }
    }
    Ok((runs > 0 && ess < ESS_COLLAPSE_FRACTION * runs as f64).then(|| {
        format!(
            "WARNING: campaign {label}: effective sample size collapsed — ESS {ess:.1} \
             is below {:.0} % of {runs} executed runs; a few heavy strata dominate the \
             weighted estimates and the Table-I cells are high-variance",
            ESS_COLLAPSE_FRACTION * 100.0,
        )
    }))
}

/// Check a guided report's weighted Table-I cells against a precomputed
/// expectation fixture (`{"type": "guided_expected", "campaigns":
/// [{"campaign", "tolerance", "active", "hang_crash", "accidents",
/// "traj_violations"}]}`). Every fixture campaign must be present in the
/// report (a missing one is a hard `Err`); each cell must sit within
/// `tolerance` of the fixture value. Returns the violations (empty =
/// all cells in tolerance).
pub fn guided_expect_check(report: &Value, fixture: &Value) -> Result<Vec<String>, String> {
    if fixture.req_str("type")? != "guided_expected" {
        return Err("not a guided expectation fixture (\"type\" != \"guided_expected\")".into());
    }
    let actual = report.req_arr("campaigns").map_err(|e| format!("guided report: {e}"))?;
    let mut violations = Vec::new();
    for e in fixture.req_arr("campaigns")? {
        let label = e.req_str("campaign")?;
        let tolerance =
            e.req_num("tolerance").map_err(|err| format!("fixture campaign {label:?}: {err}"))?;
        let a = actual
            .iter()
            .find(|c| c.req_str("campaign").as_deref() == Ok(label.as_str()))
            .ok_or_else(|| format!("campaign {label:?} expected by the fixture is missing"))?;
        for cell in WEIGHTED_CELLS {
            let want =
                e.req_num(cell).map_err(|err| format!("fixture campaign {label:?}: {err}"))?;
            let got = a.req_num(cell).map_err(|err| format!("report campaign {label:?}: {err}"))?;
            if (got - want).abs() > tolerance {
                violations.push(format!(
                    "{label}: weighted {cell} = {got:.3} is outside {want:.3} +/- {tolerance} \
                     (delta {:+.3})",
                    got - want,
                ));
            }
        }
    }
    Ok(violations)
}

// -- flight-recorder forensics ----------------------------------------------

/// Sparkline width (ticks are bucketed into this many columns, keeping
/// the per-bucket maximum score).
const SPARK_WIDTH: usize = 64;

/// Score-to-glyph ramp: index `round(score * 8)` clamped to the ramp, so
/// the alarm threshold (score 1.0) renders as `%` and anything above it
/// as `@`.
const SPARK_RAMP: &[u8] = b" .:-=+*#%@";

/// Parse a merged incident document (`diverseav-merge --incidents`).
/// Its `merged_incidents` header is skipped; every `"type": "incident"`
/// line must reconstruct. A raw shard sidecar is refused: its payloads
/// carry only a run key and a ring, so they need the merge to join them
/// with their run lines. Returns per-line errors (`line N: <reason>`)
/// like [`parse_trace`].
pub fn parse_incidents(text: &str) -> Result<Vec<IncidentRecord>, Vec<String>> {
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("line {}: {e}", i + 1));
                continue;
            }
        };
        let parsed = v.req_str("type").and_then(|ty| match ty.as_str() {
            "incident" => IncidentRecord::parse(&v).map(|rec| out.push(rec)),
            "merged_incidents" => Ok(()),
            other => Err(format!("unknown type {other:?}")),
        });
        if let Err(e) = parsed {
            errors.push(format!("line {}: {e}", i + 1));
        }
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors)
    }
}

/// One incident's detection timeline, extracted from its flight records.
struct IncidentView {
    first_tick: u64,
    last_tick: u64,
    peak: f64,
    /// Fault onset, in ticks (from `fault_onset_time`, else the first
    /// record whose fault-active flag is set).
    onset_tick: Option<u64>,
    /// First recorded tick with score at or past the detectability
    /// floor ([`SILENT_SCORE_FLOOR`]) on an observed detector.
    detect_tick: Option<u64>,
    /// Alarm tick (first record with the alarm flag, else `alarm_time`).
    alarm_tick: Option<u64>,
}

fn incident_view(rec: &IncidentRecord) -> IncidentView {
    let first_tick = rec.flight.first().map(|r| r.tick).unwrap_or(0);
    let last_tick = rec.flight.last().map(|r| r.tick).unwrap_or(first_tick);
    let peak = rec.flight.iter().map(|r| r.score).filter(|s| s.is_finite()).fold(0.0f64, f64::max);
    let onset_tick = rec
        .fault_onset_time
        .map(|t| (t * TICK_HZ).round() as u64)
        .or_else(|| rec.flight.iter().find(|r| r.flags & FLAG_FAULT_ACTIVE != 0).map(|r| r.tick));
    let detect_tick = rec
        .flight
        .iter()
        .find(|r| r.flags & FLAG_DETECTOR_OBSERVED != 0 && r.score >= SILENT_SCORE_FLOOR)
        .map(|r| r.tick);
    let alarm_tick = rec
        .flight
        .iter()
        .find(|r| r.flags & FLAG_ALARM != 0)
        .map(|r| r.tick)
        .or_else(|| rec.alarm_time.map(|t| (t * TICK_HZ).round() as u64));
    // The ring holds only the last `capacity` ticks; a floor crossing
    // that happened before the retained window would otherwise report
    // the window start as the detection point. An alarm implies the
    // score was at or above the floor, so detection is never later than
    // the alarm.
    let detect_tick = match (detect_tick, alarm_tick) {
        (Some(d), Some(a)) => Some(d.min(a)),
        (None, Some(a)) => Some(a),
        (d, None) => d,
    };
    IncidentView { first_tick, last_tick, peak, onset_tick, detect_tick, alarm_tick }
}

/// The score sparkline and its marker row (`o` onset, `!` alarm), both
/// the same width.
fn spark_rows(rec: &IncidentRecord, v: &IncidentView) -> (String, String) {
    // Saturating: a hand-edited record set need not be tick-ordered.
    let span = v.last_tick.saturating_sub(v.first_tick).saturating_add(1);
    let width = SPARK_WIDTH.min(span as usize).max(1);
    let bucket = |tick: u64| {
        (((tick.saturating_sub(v.first_tick)) as u128 * width as u128 / span as u128) as usize)
            .min(width - 1)
    };
    let mut levels = vec![0.0f64; width];
    for r in &rec.flight {
        let b = bucket(r.tick);
        if r.score.is_finite() && r.score > levels[b] {
            levels[b] = r.score;
        }
    }
    let ramp_top = SPARK_RAMP.len() - 1;
    let line: String = levels
        .iter()
        .map(|s| SPARK_RAMP[((s * 8.0).round() as usize).min(ramp_top)] as char)
        .collect();
    let mut marks = vec![b' '; width];
    if let Some(t) = v.onset_tick {
        if t >= v.first_tick && t <= v.last_tick {
            marks[bucket(t)] = b'o';
        }
    }
    if let Some(t) = v.alarm_tick {
        if t >= v.first_tick && t <= v.last_tick {
            marks[bucket(t)] = b'!';
        }
    }
    (line, String::from_utf8(marks).expect("ascii markers"))
}

fn secs(tick: u64) -> f64 {
    tick as f64 / TICK_HZ
}

/// Latency from `from` to `to` in seconds, clamped at 0 (a detector can
/// cross the floor a tick before the onset record lands in the ring).
fn lat(from: u64, to: u64) -> f64 {
    secs(to.saturating_sub(from))
}

/// Render the flight-recorder post-mortem over a parsed incident set:
///
/// 1. Per incident: a score-vs-threshold sparkline over the recorded
///    window with onset (`o`) and alarm (`!`) markers, plus the
///    onset → detectable → alarm breakdown.
/// 2. Per fault class: median time-to-detectability (onset until the
///    score first reaches the [`SILENT_SCORE_FLOOR`] detectability
///    floor) vs median time-to-alarm, and the gap between them — how
///    long evidence sat above the floor before the trend logic
///    committed.
/// 3. Never-alarmed incidents ranked by closest approach: peak score and
///    remaining margin to the threshold, nearest miss first.
pub fn forensics_report(incidents: &[IncidentRecord]) -> String {
    if incidents.is_empty() {
        return String::from("(no incidents — nothing was flushed from any flight ring)\n");
    }
    let mut out = format!("== flight-recorder forensics ({} incident(s)) ==\n\n", incidents.len());

    #[derive(Default)]
    struct ClassStats {
        incidents: u64,
        detect: Vec<f64>,
        alarm: Vec<f64>,
        never_alarmed: u64,
    }
    let mut classes: BTreeMap<String, ClassStats> = BTreeMap::new();
    let mut never: Vec<(f64, String)> = Vec::new();

    for (i, rec) in incidents.iter().enumerate() {
        let v = incident_view(rec);
        let class = rec.fault_class.clone().unwrap_or_else(|| "(no fault)".to_string());
        out.push_str(&format!(
            "[{}] {} run {} — {} [{class}]\n",
            i + 1,
            rec.kind,
            rec.index,
            rec.incident,
        ));
        out.push_str(&format!(
            "  ticks {}..{} ({:.3} s..{:.3} s), {} record(s), peak score {:.3}\n",
            v.first_tick,
            v.last_tick,
            secs(v.first_tick),
            secs(v.last_tick),
            rec.flight.len(),
            v.peak,
        ));
        if !rec.flight.is_empty() {
            let (line, marks) = spark_rows(rec, &v);
            out.push_str(&format!("  score |{line}| 1.0 (threshold) = '%'\n"));
            out.push_str(&format!("  mark  |{marks}| o onset, ! alarm\n"));
        }
        let c = classes.entry(class).or_default();
        c.incidents += 1;
        match (v.onset_tick, v.detect_tick, v.alarm_tick) {
            (Some(o), d, Some(a)) => {
                let ttd = d.map(|d| lat(o, d));
                let tta = lat(o, a);
                c.alarm.push(tta);
                if let Some(ttd) = ttd {
                    c.detect.push(ttd);
                }
                out.push_str(&format!(
                    "  onset {:.3} s -> detectable {} -> alarm +{tta:.3} s\n",
                    secs(o),
                    ttd.map(|t| format!("+{t:.3} s")).unwrap_or_else(|| "never".to_string()),
                ));
            }
            (Some(o), d, None) => {
                c.never_alarmed += 1;
                never.push((
                    1.0 - v.peak,
                    format!("{} run {} ({})", rec.kind, rec.index, rec.incident),
                ));
                out.push_str(&format!(
                    "  onset {:.3} s -> detectable {} -> NEVER ALARMED (margin {:.3})\n",
                    secs(o),
                    d.map(|d| format!("+{:.3} s", lat(o, d)))
                        .unwrap_or_else(|| "never".to_string()),
                    1.0 - v.peak,
                ));
            }
            (None, _, Some(a)) => {
                c.alarm.push(0.0);
                out.push_str(&format!("  no fault onset; alarm at {:.3} s\n", secs(a)));
            }
            (None, _, None) => {
                c.never_alarmed += 1;
                never.push((
                    1.0 - v.peak,
                    format!("{} run {} ({})", rec.kind, rec.index, rec.incident),
                ));
                out.push_str(&format!(
                    "  no fault onset; NEVER ALARMED (margin {:.3})\n",
                    1.0 - v.peak,
                ));
            }
        }
        out.push('\n');
    }

    out.push_str("== per-class decomposition: time-to-detectability vs time-to-alarm ==\n\n");
    out.push_str(&format!(
        "{:<20} {:>9} {:>12} {:>11} {:>8} {:>6}\n",
        "fault class", "incidents", "med detect", "med alarm", "gap", "missed",
    ));
    for (class, c) in &mut classes {
        c.detect.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        c.alarm.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let med_d = sorted_quantile(&c.detect, 0.50);
        let med_a = sorted_quantile(&c.alarm, 0.50);
        let (d_str, gap_str) = if c.detect.is_empty() {
            ("-".to_string(), "-".to_string())
        } else {
            (format!("{med_d:.3} s"), format!("{:.3} s", (med_a - med_d).max(0.0)))
        };
        let a_str = if c.alarm.is_empty() { "-".to_string() } else { format!("{med_a:.3} s") };
        out.push_str(&format!(
            "{class:<20} {:>9} {d_str:>12} {a_str:>11} {gap_str:>8} {:>6}\n",
            c.incidents, c.never_alarmed,
        ));
    }

    out.push_str("\n== never-alarmed incidents by closest approach to the threshold ==\n\n");
    if never.is_empty() {
        out.push_str("(every incident alarmed)\n");
    } else {
        never.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).expect("finite margins").then_with(|| a.1.cmp(&b.1))
        });
        out.push_str(&format!("{:<5} {:<40} {:>8} {:>8}\n", "rank", "run", "peak", "margin"));
        for (rank, (margin, who)) in never.iter().enumerate() {
            out.push_str(&format!(
                "{:<5} {who:<40} {:>8.3} {margin:>8.3}\n",
                rank + 1,
                1.0 - margin,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A journal of four run lines written by
    /// [`RunRecord::render_journal_line`] (a
    /// golden run, a register fault, two sensor faults) and one span line.
    fn sample() -> String {
        let golden = RunRecord {
            campaign: "GPU-transient LSD".into(),
            scenario: "lead_slowdown".into(),
            kind: "golden",
            index: 0,
            seed: 1,
            outcome: "completed".into(),
            end_time: 36.0,
            collision_time: None,
            alarm_time: None,
            fault_activated: false,
            fault_onset_time: None,
            min_cvip: 8.0,
            red_light_violations: 0,
            ticks: 1440,
            deadline_misses: 0,
            incident: None,
            stratum: None,
            weight: None,
            div_peak: [0.01, 0.0, 0.0],
            fault: None,
            trajectory: Vec::new(),
        };
        let site = |profile: &str, model: &str, mask, cycle, op: Option<&str>| FaultSite {
            profile: profile.into(),
            unit: 0,
            model: model.into(),
            mask,
            cycle: Some(cycle),
            op: op.map(str::to_string),
        };
        let sensor = |campaign: &str, index, onset, alarm, class| RunRecord {
            campaign: campaign.into(),
            kind: "injected",
            index,
            seed: index as u64 + 1,
            alarm_time: alarm,
            fault_activated: true,
            fault_onset_time: Some(onset),
            min_cvip: 6.0,
            fault: Some(site("SENSOR", "sensor", 0, 75 + index as u64, Some(class))),
            ..golden.clone()
        };
        let runs = [
            golden.clone(),
            RunRecord {
                kind: "injected",
                index: 1,
                seed: 2,
                outcome: "collision".into(),
                end_time: 12.0,
                collision_time: Some(12.0),
                alarm_time: Some(9.5),
                fault_activated: true,
                min_cvip: 0.0,
                div_peak: [0.5, 0.2, 0.1],
                fault: Some(site("GPU", "transient", 4, 100, None)),
                ..golden.clone()
            },
            RunRecord {
                div_peak: [0.4, 0.1, 0.0],
                ..sensor("GPU-sensor-dropout LSD", 2, 0.5, Some(1.25), "dropout")
            },
            RunRecord {
                div_peak: [0.1, 0.0, 0.0],
                ..sensor("GPU-sensor-bias-drift LSD", 3, 0.75, None, "bias-drift")
            },
        ];
        let mut text: String = runs.iter().map(|r| r.render_journal_line() + "\n").collect();
        text.push_str(concat!(
            "{\"type\": \"span\", \"index\": 0, \"worker\": 2, ",
            "\"begin_ns\": \"1000\", \"end_ns\": \"51000\"}\n",
        ));
        text
    }

    #[test]
    fn parses_runs_and_spans() {
        let trace = parse_trace(&sample()).expect("sample parses");
        assert_eq!(trace.runs.len(), 4);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.runs[1].alarm_time, Some(9.5));
        assert_eq!(trace.runs[1].outcome, "collision");
        assert_eq!(trace.spans[0], Span { index: 0, worker: 2, begin_ns: 1000, end_ns: 51000 });
    }

    #[test]
    fn parses_sensor_fault_fields() {
        let trace = parse_trace(&sample()).unwrap();
        // Register fault: classed by its model, no onset.
        assert_eq!(trace.runs[1].fault.as_ref().map(FaultSite::class), Some("transient"));
        assert_eq!(trace.runs[1].fault_onset_time, None);
        // Sensor fault: class from the site's op, onset carried through.
        assert_eq!(trace.runs[2].fault.as_ref().map(FaultSite::class), Some("dropout"));
        assert_eq!(trace.runs[2].fault_onset_time, Some(0.5));
    }

    #[test]
    fn sensor_latency_report_groups_by_class_and_flags_misses() {
        let trace = parse_trace(&sample()).unwrap();
        let report = sensor_latency_report(&trace.runs);
        assert!(report.contains("sensor fault [dropout]"), "{report}");
        assert!(report.contains("p50 0.750 s"), "1.25 - 0.5 latency: {report}");
        assert!(report.contains("sensor fault [bias-drift]"), "{report}");
        assert!(
            report.contains("WARNING: 1 activated run(s) never alarmed"),
            "silent divergence flagged: {report}"
        );
        // Register-only journals get the stub, not an empty string.
        let stub = sensor_latency_report(&trace.runs[..2]);
        assert!(stub.contains("no sensor-fault runs"), "{stub}");
    }

    /// Run lines carry any bit pattern: `+inf` alarm, collision and onset
    /// times parse, and their NaN differences are dropped, not sorted.
    #[test]
    fn infinite_times_are_dropped_from_both_latency_reports() {
        let trace = parse_trace(&sample()).unwrap();
        let inf = f64::INFINITY;
        let mut runs = trace.runs.clone();
        for (index, r) in [(4, &trace.runs[1]), (5, &trace.runs[2])] {
            runs.push(RunRecord {
                index,
                collision_time: Some(inf),
                alarm_time: Some(inf),
                fault_onset_time: r.fault_onset_time.map(|_| inf),
                ..r.clone()
            });
            runs.push(RunRecord { index: index + 2, ..runs.last().unwrap().clone() });
        }
        let journal: String = runs.iter().map(|r| r.render_journal_line() + "\n").collect();
        let runs = parse_trace(&journal).expect("infinite times parse").runs;
        assert_eq!(runs.len(), 8);
        let report = latency_report(&runs);
        assert!(report.contains("lead time (1 samples)"), "{report}");
        assert!(report.contains("p50 2.500 s"), "{report}");
        let report = sensor_latency_report(&runs);
        assert!(report.contains("onset -> alarm latency (1 samples)"), "{report}");
        assert!(report.contains("p50 0.750 s"), "{report}");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let errs = parse_trace("{\"type\": \"run\"}\nnot json\n").unwrap_err();
        assert_eq!(errs.len(), 2, "a sparse run line is an error too: {errs:?}");
        assert!(errs[0].starts_with("line 1:"), "{errs:?}");
        assert!(errs[1].starts_with("line 2:"), "{errs:?}");
    }

    #[test]
    fn cell_summary_counts_outcomes_and_alarms() {
        let trace = parse_trace(&sample()).unwrap();
        let summary = cell_summary(&trace.runs);
        assert!(summary.contains("GPU-transient LSD [golden]"));
        let injected_row = summary
            .lines()
            .find(|l| l.starts_with("GPU-transient LSD ") && !l.contains("[golden]"))
            .expect("injected row");
        assert!(injected_row.contains("1/1"), "accident detected: {injected_row}");
    }

    /// Rows of a rendered histogram as `(printed bin, count)`.
    fn histogram_rows(text: &str) -> Vec<(String, usize)> {
        text.lines()
            .map(|l| {
                let bin = l[..l.find(')').expect("bin edge") + 1].trim().to_string();
                (bin, l.rsplit(' ').next().expect("count").parse().expect("count"))
            })
            .collect()
    }

    #[test]
    fn histogram_keeps_samples_that_print_alike_in_one_bin() {
        // Onset→alarm latencies of 0.050 s that differ in their last bits.
        let alike: Vec<f64> = (0..12).map(|i| f64::from_bits(0.05f64.to_bits() + i - 6)).collect();
        assert!(alike.iter().all(|v| format!("{v:.3}") == "0.050"));
        let rows = histogram_rows(&ascii_histogram(&alike, 8, "s"));
        assert_eq!(rows, vec![("[    0.050,     0.051)".to_string(), 12)]);

        let wide: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
        let rows = histogram_rows(&ascii_histogram(&wide, 8, "s"));
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|&(_, n)| n == 2), "{rows:?}");
        let bins: std::collections::BTreeSet<&String> = rows.iter().map(|(b, _)| b).collect();
        assert_eq!(bins.len(), 8, "every bin prints its own edges");
    }

    #[test]
    fn latency_report_measures_lead_time() {
        let trace = parse_trace(&sample()).unwrap();
        let report = latency_report(&trace.runs);
        assert!(report.contains("detection latency"));
        assert!(report.contains("p50 2.500 s"), "12.0 - 9.5 lead time: {report}");
        assert!(report.contains("peak divergence"));
        assert!(report.contains("(3 samples)"), "only injected runs counted: {report}");
    }

    #[test]
    fn chrome_trace_is_valid_and_complete() {
        let trace = parse_trace(&sample()).unwrap();
        let doc = chrome_trace(&trace);
        let parsed = json::parse(&doc).expect("chrome trace is valid JSON");
        let events = parsed.get("traceEvents").and_then(Value::as_arr).expect("traceEvents");
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("one complete event");
        assert_eq!(span.get("tid").and_then(Value::as_f64), Some(2.0));
        assert_eq!(span.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(span.get("dur").and_then(Value::as_f64), Some(50.0));
        assert!(
            events.iter().any(|e| e.get("ph").and_then(Value::as_str) == Some("M")),
            "thread_name metadata"
        );
    }

    #[test]
    fn metrics_summary_reads_histograms_and_deadlines() {
        let doc = json::parse(concat!(
            "{\"counters\": {\"deadline.ticks\": 80, \"deadline.misses\": 3, ",
            "\"deadline.lead_slowdown.ticks\": 80, \"deadline.lead_slowdown.misses\": 3}, ",
            "\"histograms\": {\"tick.total\": {\"count\": 80, \"sum\": 10, ",
            "\"p50\": 16000000, \"p90\": 17000000, \"p99\": 26000000, \"max\": 26500000, ",
            "\"buckets\": []}}}",
        ))
        .unwrap();
        let summary = metrics_summary(&doc).expect("complete document");
        assert!(summary.contains("tick.total"));
        assert!(summary.contains("p50   16.000 ms"));
        assert!(summary.contains("3 / 80 ticks over budget"));
        assert!(summary.contains("lead_slowdown"));
        // A histogram field that is not an integer is an error, not 0.
        let bad = json::parse(
            "{\"counters\": {}, \"histograms\": {\"tick.total\": {\"count\": \"80\"}}}",
        )
        .unwrap();
        assert!(metrics_summary(&bad).is_err());
    }

    fn spark_record(tick: u64, flags: u8, score: f64) -> diverseav_obs::flight::TickRecord {
        diverseav_obs::flight::TickRecord {
            tick,
            flags,
            score,
            slope: 0.0,
            margin: 1.0 - score,
            phase_ns: [0; 4],
            deadline_margin_ns: 0,
            d_throttle: 0.0,
            d_brake: 0.0,
            d_steer: 0.0,
        }
    }

    fn synthetic_incident(
        index: usize,
        class: &str,
        onset_tick: u64,
        alarms: bool,
    ) -> IncidentRecord {
        let mut flight = Vec::new();
        for t in 0..=60u64 {
            let mut flags = FLAG_DETECTOR_OBSERVED;
            let mut score = 0.05;
            if t >= onset_tick {
                flags |= FLAG_FAULT_ACTIVE;
                // Ramp: crosses the detectability floor 10 ticks after
                // onset, the threshold 20 ticks after (if it alarms).
                let ramp = (t - onset_tick) as f64 / 20.0;
                score = if alarms { ramp.min(1.2) } else { ramp.min(0.8) };
            }
            if alarms && t >= onset_tick + 20 {
                flags |= FLAG_ALARM;
            }
            flight.push(spark_record(t, flags, score));
        }
        IncidentRecord {
            kind: "injected".to_string(),
            index,
            seed: 9_000 + index as u64,
            incident: if alarms { "alarm" } else { "silent-divergence" }.to_string(),
            fault_class: Some(class.to_string()),
            fault_onset_time: Some(onset_tick as f64 / 40.0),
            alarm_time: alarms.then(|| (onset_tick + 20) as f64 / 40.0),
            flight,
        }
    }

    #[test]
    fn parse_incidents_skips_framing_and_flags_garbage() {
        let rec = synthetic_incident(0, "dropout", 8, true);
        let doc = format!(
            "{}\n{}\n",
            "{\"type\": \"merged_incidents\", \"incidents\": 1}",
            rec.render_merged(),
        );
        let parsed = parse_incidents(&doc).expect("the header line is skipped");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].render_merged(), rec.render_merged());
        // A raw sidecar is not a merged document: its framing and its
        // payload lines (a run key plus a ring) are refused.
        let sidecar = format!(
            "{}\n{}\n{}\n",
            "{\"type\": \"shard_manifest\"}",
            "{\"type\": \"incident\", \"batch\": 0, \"kind\": \"injected\", \"index\": 0, \"flight\": []}",
            "{\"type\": \"incidents_done\"}",
        );
        let errs = parse_incidents(&sidecar).expect_err("a raw sidecar is refused");
        assert_eq!(errs.len(), 3, "{errs:?}");

        let errs = parse_incidents("{\"type\": \"mystery\"}\nnot json\n").unwrap_err();
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs[0].starts_with("line 1:"), "{errs:?}");
    }

    #[test]
    fn forensics_decomposes_onset_to_detect_to_alarm() {
        let incidents = vec![
            synthetic_incident(0, "dropout", 8, true),
            synthetic_incident(1, "dropout", 12, true),
            synthetic_incident(2, "noise", 10, false),
        ];
        let report = forensics_report(&incidents);
        // Onset at tick 8 = 0.2 s; floor crossed 10 ticks (0.25 s) later;
        // alarm 20 ticks (0.5 s) later.
        assert!(
            report.contains("onset 0.200 s -> detectable +0.250 s -> alarm +0.500 s"),
            "{report}"
        );
        // Per-class table: dropout has two alarmed incidents, noise none.
        assert!(report.contains("time-to-detectability vs time-to-alarm"), "{report}");
        assert!(report.contains("dropout"), "{report}");
        assert!(report.contains("NEVER ALARMED"), "{report}");
        // The never-alarmed ranking names the noise run with its margin
        // to the threshold (peak 0.8 -> margin 0.2).
        assert!(report.contains("closest approach"), "{report}");
        assert!(report.contains("injected run 2"), "{report}");
        assert!(report.contains("0.200"), "{report}");
        // Sparkline rows carry both markers.
        assert!(report.contains("o onset, ! alarm"), "{report}");
        let marks = report
            .lines()
            .find(|l| l.trim_start().starts_with("mark") && l.contains('!'))
            .expect("an alarmed incident renders an alarm marker");
        assert!(marks.contains('o'), "{marks}");
    }

    #[test]
    fn forensics_handles_empty_sets() {
        assert!(forensics_report(&[]).contains("no incidents"));
    }

    #[test]
    fn forensics_survives_unordered_and_extreme_ticks() {
        let mut rec = synthetic_incident(0, "dropout", 8, true);
        rec.flight.swap(0, 60);
        assert!(forensics_report(std::slice::from_ref(&rec)).contains("dropout"));
        rec.flight[0].tick = 0;
        rec.flight[60].tick = u64::MAX;
        assert!(forensics_report(&[rec]).contains("dropout"));
    }

    #[test]
    fn journal_drop_warning_is_loud() {
        let dropped = json::parse(
            "{\"type\": \"metrics\", \"counters\": {\"journal.dropped\": 2, \"deadline.ticks\": 0}, \
             \"histograms\": {}}",
        )
        .unwrap();
        let out = metrics_summary(&dropped).expect("complete document");
        assert!(out.contains("WARNING"), "{out}");
        assert!(out.contains("dropped 2 line(s)"), "{out}");
        assert!(out.contains("DIVERSEAV_TRACE_CAP"), "{out}");

        let clean =
            json::parse("{\"counters\": {\"journal.dropped\": 0}, \"histograms\": {}}").unwrap();
        assert!(!metrics_summary(&clean).expect("complete document").contains("WARNING"));
    }

    /// End-to-end: force real drops through the journal's line cap and
    /// feed the registry snapshot — the document the binary consumes —
    /// through the summary.
    #[test]
    fn journal_drop_warning_fires_on_a_real_forced_drop() {
        use diverseav_obs::{journal, metrics};
        let base = journal::len();
        journal::set_capacity(base + 1);
        for i in 0..3 {
            journal::append_line(format!("{{\"type\": \"cap_probe\", \"i\": {i}}}"));
        }
        journal::set_capacity(1 << 20);
        let snap = json::parse(&metrics::render_json(&metrics::snapshot()))
            .expect("registry snapshot renders valid JSON");
        let out = metrics_summary(&snap).expect("registry snapshot is complete");
        assert!(out.contains("WARNING"), "forced drops must surface loudly:\n{out}");
        assert!(out.contains("TRUNCATED"), "{out}");
    }
}
