//! Digests must not depend on the engine's thread count. One test per
//! binary: it sets `DIVERSEAV_THREADS` while no engine thread runs, and
//! shard execution reads the process-global metrics registry.

use diverseav_faultinj::{detected_parallelism, CampaignScale};
use perfbench::workload::{self, Inputs, Workload};
use perfbench::Spans;
use std::path::PathBuf;

fn tiny(w: Workload, seed: u64) -> Inputs {
    let scale = CampaignScale {
        n_transient: 4,
        permanent_repeats: 1,
        golden_runs: 2,
        long_route_duration: 8.0,
        training_runs: 1,
    };
    Inputs { scale, ..Inputs::new(w, seed) }
}

#[test]
fn digests_are_identical_at_one_and_all_threads() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-threads");
    let cores = detected_parallelism().max(2);
    for (w, seed) in [(Workload::GuidedShardsGc, 1), (Workload::TransientLsd, 2)] {
        let inp = tiny(w, seed);
        let mut digests = Vec::new();
        for threads in [1, cores] {
            std::env::set_var("DIVERSEAV_THREADS", threads.to_string());
            let prep = workload::setup(&inp, &mut Spans::default());
            let round = workload::round(&inp, &prep, &tmp);
            assert!(round.runs > 0 && round.golden_alarms == 0);
            digests.push(round.digests);
        }
        assert_eq!(digests[0], digests[1], "{} digests differ across thread counts", w.name());
    }
    std::env::remove_var("DIVERSEAV_THREADS");
    let _ = std::fs::remove_dir_all(&tmp);
}
