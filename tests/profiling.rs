//! Thread-count determinism of the tick-level profiling layer.
//!
//! The modeled profiling time source (default `DIVERSEAV_PROFILE`) must
//! produce *bit-identical* latency histograms and 25 ms deadline tallies
//! for any `DIVERSEAV_THREADS` value: every recorded quantity is a pure
//! function of the run seed, and every aggregation (each run's slice
//! folded into the registry: counter sums, gauge maxima, histogram
//! bucket adds) commutes, so worker scheduling cannot leak into the
//! merged metrics.
//!
//! One `#[test]` in its own integration binary: it mutates the
//! `DIVERSEAV_THREADS` environment and clears the process-global metrics
//! registry between measurements, so it must not share a process with
//! tests that assert on metrics keys.

use diverseav::AgentMode;
use diverseav_faultinj::{par_map, run_experiment, RunConfig};
use diverseav_obs::hist::HistSnapshot;
use diverseav_obs::metrics;
use diverseav_runtime::DEADLINE_NS;
use diverseav_simworld::lead_slowdown;
use std::collections::BTreeMap;

#[derive(Debug, PartialEq)]
struct ProfileSnapshot {
    hists: BTreeMap<String, HistSnapshot>,
    deadline_counters: BTreeMap<String, u64>,
    worst_gauges: BTreeMap<String, u64>,
    runtime_ticks: u64,
}

fn profiled_fanout(threads: &str) -> ProfileSnapshot {
    std::env::set_var("DIVERSEAV_THREADS", threads);
    metrics::clear();
    let cfgs: Vec<RunConfig> = (0..4u64)
        .flat_map(|seed| {
            [AgentMode::RoundRobin, AgentMode::Duplicate].map(|mode| {
                let mut scenario = lead_slowdown();
                scenario.duration = 1.0;
                RunConfig::new(scenario, mode, seed)
            })
        })
        .collect();
    let outcomes = par_map(&cfgs, |cfg| run_experiment(cfg).termination);
    assert_eq!(outcomes.len(), cfgs.len());
    let snap = metrics::MetricsSlice::capture();
    ProfileSnapshot {
        runtime_ticks: snap.counters.get("runtime.ticks").copied().unwrap_or(0),
        hists: snap.hists.into_iter().filter(|(k, _)| k.starts_with("tick.")).collect(),
        deadline_counters: snap
            .counters
            .into_iter()
            .filter(|(k, _)| k.starts_with("deadline."))
            .collect(),
        // f64 gauges compared as exact bit-patterns via integer ns.
        worst_gauges: snap
            .gauges
            .into_iter()
            .filter(|(k, _)| k.starts_with("deadline."))
            .map(|(k, v)| (k, v as u64))
            .collect(),
    }
}

#[test]
fn modeled_profiles_are_bit_identical_across_thread_counts() {
    let seq = profiled_fanout("1");
    let par = profiled_fanout("4");
    std::env::remove_var("DIVERSEAV_THREADS");

    assert!(!seq.hists.is_empty(), "profiling recorded tick.* histograms");
    assert_eq!(seq.hists, par.hists, "histograms independent of thread count");
    assert_eq!(seq.deadline_counters, par.deadline_counters);
    assert_eq!(seq.worst_gauges, par.worst_gauges);

    // The modeled 40 Hz budget separates the modes: single-agent ticks
    // (RoundRobin) hold 25 ms, duplicated ticks (FD baseline) miss it.
    let ticks = seq.deadline_counters["deadline.ticks"];
    let misses = seq.deadline_counters["deadline.misses"];
    assert!(ticks > 0, "deadline accounting ran");
    assert_eq!(seq.runtime_ticks, ticks, "the modeled tally accounts every recorded tick");
    assert!(misses > 0, "duplicate-mode runs miss the budget");
    assert!(misses < ticks, "round-robin runs hold the budget");
    assert_eq!(
        seq.deadline_counters["deadline.lead-slowdown.ticks"], ticks,
        "per-scenario tallies cover every profiled tick"
    );
    let worst = seq.worst_gauges["deadline.worst_ns"];
    assert!(worst > DEADLINE_NS, "worst tick exceeds the budget: {worst}");

    let total = &seq.hists["tick.total"];
    assert_eq!(total.count(), ticks, "one total-latency sample per profiled tick");
    assert!(total.p50() < DEADLINE_NS, "median tick holds the budget");
    assert!(total.max > DEADLINE_NS, "worst tick recorded in the histogram too");
}
