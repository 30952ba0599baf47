//! Property tests for the shard partitioner, driven by the offline
//! `proptest` shim.
//!
//! The merge gate's exactly-once invariant is only as strong as the
//! partitioner beneath it: every run unit of a campaign must land in
//! exactly one shard, the assignment must be a pure function of
//! `(plan_seed, unit, shard_count)` — never of thread count, shard
//! execution order, or which machine asks — and the per-shard filters
//! must reassemble the full run set with no gaps and no overlaps.

use diverseav_faultinj::{campaign_units, unit_shard, RunUnit};
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// Every unit lands in exactly one in-range shard, and that shard is
    /// stable across repeated queries.
    #[test]
    fn assignment_is_total_stable_and_in_range(
        seed in any::<u64>(),
        n_golden in 1usize..40,
        n_injected in 0usize..60,
        n_shards in 1usize..9,
    ) {
        for unit in campaign_units(n_golden, n_injected) {
            let shard = unit_shard(seed, unit, n_shards);
            prop_assert!(shard < n_shards, "{unit:?} assigned out-of-range shard {shard}");
            prop_assert_eq!(shard, unit_shard(seed, unit, n_shards), "unstable for {:?}", unit);
        }
    }

    /// The per-shard filters partition the campaign's run set: summing
    /// the filtered counts reassembles the whole, and no unit appears
    /// under two shard indices.
    #[test]
    fn random_partitions_cover_the_run_set_exactly_once(
        seed in any::<u64>(),
        n_golden in 1usize..40,
        n_injected in 0usize..60,
        n_shards in 1usize..9,
    ) {
        let units = campaign_units(n_golden, n_injected);
        let mut owner: HashMap<RunUnit, usize> = HashMap::new();
        let mut total = 0usize;
        for shard in 0..n_shards {
            for unit in units.iter().filter(|u| unit_shard(seed, **u, n_shards) == shard) {
                prop_assert!(
                    owner.insert(*unit, shard).is_none(),
                    "{unit:?} claimed by shards {} and {shard}", owner[unit]
                );
                total += 1;
            }
        }
        prop_assert_eq!(total, units.len(), "partition misses units");
        prop_assert_eq!(units.len(), n_golden + n_injected);
    }

    /// Different campaigns (different plan seeds) shuffle the assignment:
    /// the partition depends on the seed, not just on unit indices.
    /// (With 64 units and 4 shards, two seeds agreeing everywhere by
    /// chance is a ~4^-64 event — the shim's generator never hits it.)
    #[test]
    fn distinct_seeds_produce_distinct_partitions(seed in any::<u64>()) {
        let units = campaign_units(16, 48);
        let a: Vec<usize> = units.iter().map(|u| unit_shard(seed, *u, 4)).collect();
        let b: Vec<usize> = units.iter().map(|u| unit_shard(seed ^ 0x9E37, *u, 4)).collect();
        prop_assert!(a != b, "partition ignored the plan seed");
    }
}
