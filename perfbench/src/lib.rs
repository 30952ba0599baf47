//! The campaign benchmark of record for the DiverseAV reproduction.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, one JSON object with
//! the end-to-end metrics (`--trace 0`) or the per-layer ledger
//! (`--trace 1`). See README.md for the workloads, the metrics and what
//! each layer metric is expected to move.

pub mod digest;
pub mod probe;
pub mod trace;
pub mod workload;

use digest::{parse_reference, Digests};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
pub use trace::Spans;
use trace::{median, quantile};
use workload::{Inputs, Round, Workload, SETUPS};

/// `(name, unit)` of every end-to-end metric (printed with tracing off).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("ticks_per_s", "ticks/s"), ("runs_per_s", "runs/s"), ("peak_rss_mb", "MB")];

/// `(name, unit)` of every per-layer metric (printed by the traced run).
/// Layers a workload does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("runtime.tick_us.p50", "us"),
    ("runtime.tick_us.p99", "us"),
    ("runtime.sense_us.p50", "us"),
    ("runtime.sense_us.p99", "us"),
    ("runtime.sense_share", "ratio"),
    ("runtime.driver_us.p50", "us"),
    ("runtime.driver_us.p99", "us"),
    ("runtime.driver_share", "ratio"),
    ("runtime.step_us.p50", "us"),
    ("runtime.step_share", "ratio"),
    ("runtime.detect_us.p50", "us"),
    ("runtime.detect_share", "ratio"),
    ("runtime.driver_us.golden_p50", "us"),
    ("runtime.driver_us.injected_p50", "us"),
    ("runtime.run_overhead_ms.p50", "ms"),
    ("runtime.run_overhead_share", "ratio"),
    ("faultinj.zero_tick_runs", "runs"),
    ("faultinj.run_ms.p50", "ms"),
    ("faultinj.run_ms.p75", "ms"),
    ("faultinj.golden_s", "s"),
    ("faultinj.plan_ms", "ms"),
    ("faultinj.injected_s", "s"),
    ("faultinj.cache_hit_ratio", "ratio"),
    ("core.train_s", "s"),
    ("core.replay_ms", "ms"),
    ("core.golden_alarms", "runs"),
    ("core.observe_ns", "ns"),
    ("simworld.sense_us", "us"),
    ("simworld.step_us", "us"),
    ("agent.step_us", "us"),
    ("agent.host_us", "us"),
    ("fabric.mask.lockstep_us", "us"),
    ("fabric.mask.reference_us", "us"),
    ("fabric.conv.lockstep_us", "us"),
    ("fabric.conv.reference_us", "us"),
    ("fabric.rowmax.lockstep_us", "us"),
    ("fabric.rowmax.reference_us", "us"),
    ("fabric.lane.lockstep_us", "us"),
    ("fabric.lane.reference_us", "us"),
    ("fabric.decide.lockstep_us", "us"),
    ("fabric.decide.reference_us", "us"),
    ("fabric.lockstep_speedup", "ratio"),
    ("fabric.control_us", "us"),
    ("fabric.gpu_instr_per_tick", "instr"),
    ("fabric.cpu_instr_per_tick", "instr"),
    ("fabric.gpu_ns_per_instr", "ns"),
    ("shard.execute_s", "s"),
    ("shard.resume_s", "s"),
    ("shard.parse_s", "s"),
    ("shard.parse_mb_per_s", "MB/s"),
    ("shard.merge_ms", "ms"),
    ("shard.incidents_ms", "ms"),
    ("shard.artifact_mb", "MB"),
    ("shard.sidecar_kb", "KB"),
    ("shard.batches", "count"),
    ("shard.resumed_batches", "count"),
    ("shard.profiling_reruns", "count"),
    ("guided.epoch_summary_ms", "ms"),
    ("guided.weighted_summary_ms", "ms"),
    ("guided.ess", "runs"),
    ("bench.render_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Committed reference digests, one file per workload.
pub fn reference_text(w: Workload) -> &'static str {
    match w {
        Workload::TransientLsd => include_str!("../reference/transient-lsd.txt"),
        Workload::PermanentFaOnline => include_str!("../reference/permanent-fa-online.txt"),
        Workload::GuidedShardsGc => include_str!("../reference/guided-shards-gc.txt"),
    }
}

/// The outcome of one benchmark invocation.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<String, f64>,
    /// Which metric table `metrics` follows.
    pub traced: bool,
}

impl Report {
    /// Every run of the workload failed (a panic, or an unusable
    /// reference).
    pub fn all_failed(traced: bool, attempted: usize) -> Report {
        let attempted = attempted.max(1);
        Report { correct: false, attempted, failed: attempted, metrics: BTreeMap::new(), traced }
    }

    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Human-readable lines: every metric by name with its unit, then
    /// the failed-run count beside the runs attempted.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (name, unit) in self.table() {
            let v = self.metrics.get(*name).copied().unwrap_or(0.0);
            out.push_str(&format!("{name:<34} {v:>14.4} {unit}\n"));
        }
        out.push_str(&format!(
            "{:<34} {:>14} runs (of {} runs attempted)\n",
            "runs_failed", self.failed, self.attempted
        ));
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .table()
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(*name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Check a round against `expected` (the reference, or the untraced
/// round): returns runs failed and reports what differed on stderr.
/// A golden run that alarms fails the round.
fn check(what: &str, round: &Round, expected: &Digests, ignore_misses: bool) -> usize {
    let (mut failed, bad) = round.digests.failed_against(expected, ignore_misses);
    for key in bad.iter().take(8) {
        eprintln!("perfbench: {what}: output differs: {key}");
    }
    if round.golden_alarms != 0 {
        eprintln!("perfbench: {} golden run(s) raised an alarm", round.golden_alarms);
        failed = round.digests.runs();
    }
    failed
}

/// Untraced run: set-up, then rounds until `seconds` of timed library
/// work have passed. `start` is taken at process start. Set-up is timed
/// [`SETUPS`] times, the first from process start and the others between
/// rounds spread over the run, so that its median samples the same
/// stretch of host time as the throughput medians.
pub fn run_untraced(inp: &Inputs, seconds: f64, tmp: &Path, start: Instant) -> Report {
    let reference = match parse_reference(reference_text(inp.workload), inp.variant) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return Report::all_failed(false, 1);
        }
    };
    let prep = workload::setup(inp, &mut Spans::default());
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let time_setup = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        workload::setup(inp, &mut Spans::default());
        setups.push(t.elapsed().as_secs_f64());
    };
    let (mut tick_rates, mut run_rates) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut timed) = (0, 0, 0.0);
    while timed < seconds || tick_rates.is_empty() {
        let r = workload::round(inp, &prep, tmp);
        timed += r.secs;
        tick_rates.push(r.ticks as f64 / r.secs);
        eprintln!(
            "perfbench: round {}: {} runs, {} ticks in {:.3} s",
            tick_rates.len(),
            r.runs,
            r.ticks,
            r.secs
        );
        run_rates.push(r.runs as f64 / r.secs);
        attempted += r.runs;
        failed += check("reference", &r, &reference, false);
        if setups.len() < SETUPS && timed >= seconds * setups.len() as f64 / SETUPS as f64 {
            time_setup(&mut setups);
        }
    }
    while setups.len() < SETUPS {
        time_setup(&mut setups);
    }
    let setups_text: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("perfbench: set-ups: {} s", setups_text.join(" "));
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s".to_string(), median(&setups));
    metrics.insert("ticks_per_s".to_string(), median(&tick_rates));
    metrics.insert("runs_per_s".to_string(), median(&run_rates));
    metrics.insert("peak_rss_mb".to_string(), peak_rss_mb());
    Report { correct: failed == 0, attempted, failed, metrics, traced: false }
}

/// Traced run: one untraced round, then the same round traced under
/// `DIVERSEAV_PROFILE=wall`, then the component probes.
pub fn run_traced(inp: &Inputs, tmp: &Path) -> Report {
    let reference = match parse_reference(reference_text(inp.workload), inp.variant) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return Report::all_failed(true, 1);
        }
    };
    let w = inp.workload;
    let mut spans = Spans::default();
    let prep = workload::setup(inp, &mut spans);
    let plain = workload::round(inp, &prep, tmp);
    let mut failed = check("reference", &plain, &reference, false);

    // The profile source is read when a run starts; no engine thread is
    // alive between rounds.
    std::env::set_var("DIVERSEAV_PROFILE", "wall");
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let (traced, captured, instr) = match w {
        Workload::GuidedShardsGc => {
            let before = diverseav_faultinj::MetricsSlice::capture();
            let (r, st) = workload::guided_round(inp, &prep, tmp, &mut spans);
            let hists = diverseav_faultinj::MetricsSlice::capture().delta(&before).hists;
            shard_metrics(&mut m, &spans, &st, &hists);
            let (probe_run, captured) = workload::guided_probe_run(inp);
            let instr = (probe_run.gpu_dyn_instr, probe_run.cpu_dyn_instr, probe_run.ticks);
            (r, captured, instr)
        }
        _ => {
            let (r, mt) = workload::traced_mono_round(inp, &prep, &mut spans);
            mono_metrics(&mut m, &spans, &mt);
            let instr = (mt.gpu_instr, mt.cpu_instr, mt.golden_ticks);
            (r, mt.captured, instr)
        }
    };
    std::env::remove_var("DIVERSEAV_PROFILE");
    // The traced round measured the same program: same digests, except
    // the wall-clock deadline accounting.
    let traced_failed = check("traced vs untraced", &traced, &plain.digests, true);
    failed += traced_failed.max(check("reference", &traced, &reference, true));

    let probes = probe::run(&captured, prep.detector.as_ref(), &prep.training);
    m.extend(probes);
    let ticks = instr.2.max(1) as f64;
    m.insert("fabric.gpu_instr_per_tick".into(), instr.0 as f64 / ticks);
    m.insert("fabric.cpu_instr_per_tick".into(), instr.1 as f64 / ticks);
    m.insert("core.train_s".into(), spans.total("core.train"));
    m.insert("core.replay_ms".into(), spans.total("core.replay") * 1e3);
    m.insert("core.golden_alarms".into(), (plain.golden_alarms + traced.golden_alarms) as f64);
    m.insert("trace.overhead_pct".into(), (traced.secs - plain.secs) / plain.secs * 100.0);
    let attempted = plain.runs + traced.runs;
    Report { correct: failed == 0, attempted, failed, metrics: m, traced: true }
}

fn ns_to_us(v: f64) -> f64 {
    v / 1e3
}

/// Per-layer metrics of a traced monolithic round.
fn mono_metrics(m: &mut BTreeMap<String, f64>, spans: &Spans, mt: &workload::MonoTrace) {
    let mut phase: [Vec<f64>; 4] = Default::default();
    let mut total = Vec::new();
    let (mut golden_driver, mut injected_driver) = (Vec::new(), Vec::new());
    for run in &mt.runs {
        for t in &run.ticks {
            for (i, v) in t.iter().enumerate() {
                phase[i].push(*v as f64);
            }
            total.push(t.iter().sum::<u64>() as f64);
            if run.golden { &mut golden_driver } else { &mut injected_driver }.push(t[1] as f64);
        }
    }
    let sum_total: f64 = total.iter().sum::<f64>().max(1.0);
    let share = |i: usize| phase[i].iter().sum::<f64>() / sum_total;
    let q = |v: &[f64], p: f64| ns_to_us(quantile(v, p));
    m.insert("runtime.tick_us.p50".into(), q(&total, 0.5));
    m.insert("runtime.tick_us.p99".into(), q(&total, 0.99));
    m.insert("runtime.sense_us.p50".into(), q(&phase[0], 0.5));
    m.insert("runtime.sense_us.p99".into(), q(&phase[0], 0.99));
    m.insert("runtime.sense_share".into(), share(0));
    m.insert("runtime.driver_us.p50".into(), q(&phase[1], 0.5));
    m.insert("runtime.driver_us.p99".into(), q(&phase[1], 0.99));
    m.insert("runtime.driver_share".into(), share(1));
    m.insert("runtime.detect_us.p50".into(), q(&phase[2], 0.5));
    m.insert("runtime.detect_share".into(), share(2));
    m.insert("runtime.step_us.p50".into(), q(&phase[3], 0.5));
    m.insert("runtime.step_share".into(), share(3));
    m.insert("runtime.driver_us.golden_p50".into(), q(&golden_driver, 0.5));
    m.insert("runtime.driver_us.injected_p50".into(), q(&injected_driver, 0.5));

    let run_ms: Vec<f64> = mt.runs.iter().map(|r| r.run_s * 1e3).collect();
    let overhead_ms: Vec<f64> =
        mt.runs.iter().map(|r| r.run_s * 1e3 - r.in_loop_ns as f64 / 1e6).collect();
    let run_total: f64 = run_ms.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    m.insert("runtime.run_overhead_ms.p50".into(), median(&overhead_ms));
    m.insert("runtime.run_overhead_share".into(), overhead_ms.iter().sum::<f64>() / run_total);
    let zero = mt.runs.iter().filter(|r| r.ticks.is_empty()).count();
    m.insert("faultinj.zero_tick_runs".into(), zero as f64);
    m.insert("faultinj.run_ms.p50".into(), quantile(&run_ms, 0.5));
    m.insert("faultinj.run_ms.p75".into(), quantile(&run_ms, 0.75));
    m.insert("faultinj.golden_s".into(), spans.total("faultinj.golden"));
    m.insert("faultinj.plan_ms".into(), spans.total("faultinj.plan") * 1e3);
    m.insert("faultinj.injected_s".into(), spans.total("faultinj.injected"));
    let requests = (mt.cache_hits + mt.cache_misses).max(1) as f64;
    m.insert("faultinj.cache_hit_ratio".into(), mt.cache_hits as f64 / requests);
}

/// Per-layer metrics of a traced guided round. The shard executor runs
/// its own loop, so the tick phases come from the wall-clock `tick.*`
/// histograms it fills (≤ 12.5 % quantile error).
fn shard_metrics(
    m: &mut BTreeMap<String, f64>,
    spans: &Spans,
    st: &workload::ShardTrace,
    hists: &BTreeMap<String, diverseav_obs::hist::HistSnapshot>,
) {
    let h = |name: &str| hists.get(name).cloned().unwrap_or_default();
    let sum = |name: &str| {
        let s = h(name);
        s.mean() * s.count() as f64
    };
    let total = sum("tick.total").max(1.0);
    let q = |name: &str, p: f64| ns_to_us(h(name).quantile(p) as f64);
    m.insert("runtime.tick_us.p50".into(), q("tick.total", 0.5));
    m.insert("runtime.tick_us.p99".into(), q("tick.total", 0.99));
    m.insert("runtime.sense_us.p50".into(), q("tick.sense", 0.5));
    m.insert("runtime.sense_us.p99".into(), q("tick.sense", 0.99));
    m.insert("runtime.sense_share".into(), sum("tick.sense") / total);
    m.insert("runtime.driver_us.p50".into(), q("tick.driver", 0.5));
    m.insert("runtime.driver_us.p99".into(), q("tick.driver", 0.99));
    m.insert("runtime.driver_share".into(), sum("tick.driver") / total);
    m.insert("runtime.detect_us.p50".into(), q("tick.detect", 0.5));
    m.insert("runtime.detect_share".into(), sum("tick.detect") / total);
    m.insert("runtime.step_us.p50".into(), q("tick.step", 0.5));
    m.insert("runtime.step_share".into(), sum("tick.step") / total);
    m.insert("faultinj.zero_tick_runs".into(), st.zero_tick_runs as f64);

    let parse_s = spans.total("shard.parse");
    m.insert("shard.execute_s".into(), spans.total("shard.execute"));
    m.insert("shard.resume_s".into(), spans.total("shard.resume"));
    m.insert("shard.parse_s".into(), parse_s);
    m.insert("shard.parse_mb_per_s".into(), st.parsed_bytes as f64 / 1e6 / parse_s);
    m.insert("shard.merge_ms".into(), spans.total("shard.merge") * 1e3);
    m.insert("shard.incidents_ms".into(), spans.total("shard.incidents") * 1e3);
    m.insert("shard.artifact_mb".into(), st.artifact_bytes as f64 / 1e6);
    m.insert("shard.sidecar_kb".into(), st.sidecar_bytes as f64 / 1e3);
    m.insert("shard.batches".into(), st.batches as f64);
    m.insert("shard.resumed_batches".into(), st.resumed_batches as f64);
    m.insert("shard.profiling_reruns".into(), st.shard_calls as f64);
    m.insert("guided.epoch_summary_ms".into(), spans.total("guided.epoch_summary") * 1e3);
    m.insert("guided.weighted_summary_ms".into(), spans.total("guided.weighted_summary") * 1e3);
    m.insert("guided.ess".into(), st.ess);
    m.insert("bench.render_ms".into(), spans.total("bench.render") * 1e3);
}
