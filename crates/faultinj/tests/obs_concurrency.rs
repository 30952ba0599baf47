//! Concurrency safety of the shared metrics registry under the engine's
//! fan-out: counters, phase accumulators, and per-item slices absorbed
//! from `par_map_with` workers (the way each run's metrics reach the
//! registry) must merge to the same totals at any thread count — the
//! property that lets campaign code record metrics from inside worker
//! closures without perturbing determinism.
//!
//! Uses uniquely named keys (not `metrics::clear`) so it can share a
//! process with other metrics-touching tests.

use diverseav_faultinj::{detected_parallelism, par_map_with};
use diverseav_obs::{metrics, HistSnapshot, MetricsSlice};

#[test]
fn fanout_metrics_merge_identically_at_any_thread_count() {
    let items: Vec<u64> = (0..97).collect();
    let max_threads = detected_parallelism().max(2);

    let record_all = |variant: &str, threads: usize| {
        let counter = format!("test.obsconc.{variant}.counter");
        let phase = format!("test.obsconc.{variant}.phase");
        let hist_name = format!("test.obsconc.{variant}.hist");
        par_map_with(threads, &items, |&i| {
            metrics::counter_add(&counter, i + 1);
            metrics::phase_add(&phase, 0.125);
            let mut hist = HistSnapshot::default();
            hist.record(i * 37 + 5);
            let mut slice = MetricsSlice::default();
            slice.hists.insert(hist_name.clone(), hist);
            metrics::absorb(&slice);
            i
        });
        (metrics::counter_get(&counter), metrics::phase_get(&phase), metrics::hist_get(&hist_name))
    };

    let (c_seq, p_seq, h_seq) = record_all("seq", 1);
    let (c_par, p_par, h_par) = record_all("par", max_threads);

    let expect_count: u64 = items.iter().map(|i| i + 1).sum();
    assert_eq!(c_seq, expect_count, "sequential counter total");
    assert_eq!(c_par, expect_count, "parallel counter total identical");

    assert_eq!(p_seq.count, items.len() as u64);
    assert_eq!(p_par.count, p_seq.count);
    assert!((p_seq.wall_secs - p_par.wall_secs).abs() < 1e-9, "exact dyadic accumulation");

    assert_eq!(h_par, h_seq, "histogram snapshots bit-identical");
    assert_eq!(h_seq.count(), items.len() as u64);
    assert_eq!(h_seq.max, 96 * 37 + 5);
}
