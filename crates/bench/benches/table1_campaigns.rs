//! Experiment E5+E9 (Table I, §V-C, §VI-A) — regenerates the paper artifact.
//!
//! Scale: quick by default; `DIVERSEAV_SCALE=paper` for paper-scale runs.

fn main() {
    let started = std::time::Instant::now();
    let report = diverseav_bench::experiments::table1_report();
    println!("{report}");
    diverseav_bench::flush_metrics_json("METRICS_campaigns.json")
        .expect("write METRICS_campaigns.json");
    if let Some(path) = diverseav_obs::journal::flush_if_enabled().expect("write trace journal") {
        eprintln!("[run journal written to {path}]");
    }
    eprintln!(
        "[table1_campaigns completed in {:.1} s; campaign counters and phase wall-clocks in \
         METRICS_campaigns.json]",
        started.elapsed().as_secs_f64()
    );
}
