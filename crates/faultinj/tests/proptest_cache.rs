//! Property tests for [`GoldenCache`] key hygiene and counter
//! determinism, driven by the offline `proptest` shim.
//!
//! Table-I correctness leans on two cache invariants: a key captures
//! every input that reaches a golden run — two keys differing in any
//! single discriminant must never alias — and the hit/miss counters are
//! a pure function of the request sequence (one miss per distinct key, a
//! hit for every repeat), which is what makes the cache-counter
//! assertions elsewhere in the suite meaningful.

use diverseav::AgentMode;
use diverseav_faultinj::{GoldenCache, GoldenKey, GoldenSet};
use diverseav_simworld::{ScenarioKind, SensorConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::num::NonZeroU32;

fn scenario(code: u8) -> ScenarioKind {
    match code % 4 {
        0 => ScenarioKind::LeadSlowdown,
        1 => ScenarioKind::GhostCutIn,
        2 => ScenarioKind::FrontAccident,
        _ => ScenarioKind::LongRoute(code / 4),
    }
}

/// An injective map from codes to agent modes: the three fixed modes,
/// then footnote-5 overlap with period `code - 2`.
fn mode(code: u32) -> AgentMode {
    match code {
        0 => AgentMode::Single,
        1 => AgentMode::RoundRobin,
        2 => AgentMode::Duplicate,
        p => AgentMode::Overlap(NonZeroU32::new(p - 2).expect("code ≥ 3")),
    }
}

fn empty_set() -> GoldenSet {
    GoldenSet { golden: Vec::new(), baseline: Vec::new() }
}

/// A fully-specified key from plain sampled inputs.
fn build_key(
    code: u8,
    duration: f64,
    mode_code: u32,
    pixel_noise: f64,
    golden_runs: usize,
    traces: bool,
) -> GoldenKey {
    let sensor = SensorConfig { pixel_noise, ..SensorConfig::default() };
    GoldenKey::new(scenario(code), duration, mode(mode_code), &sensor, golden_runs, traces)
}

proptest! {
    /// Mutating any one discriminant of a sampled key must change it.
    #[test]
    fn single_discriminant_mutations_never_collide(
        code in 0u8..16,
        duration in 5.0f64..120.0,
        mode_code in 0u32..8,
        noise in 0.0f64..1.0,
        golden_runs in 1usize..8,
        traces in any::<bool>(),
    ) {
        let base = build_key(code, duration, mode_code, noise, golden_runs, traces);
        // `code + 1` always lands in a different `scenario` match arm and
        // `mode_code + 1` on a different mode (overlap periods included),
        // so every variant differs from the base in exactly one
        // discriminant.
        let variants = [
            build_key((code + 1) % 16, duration, mode_code, noise, golden_runs, traces),
            build_key(code, duration + 0.5, mode_code, noise, golden_runs, traces),
            build_key(code, duration, mode_code + 1, noise, golden_runs, traces),
            build_key(code, duration, mode_code, noise + 0.25, golden_runs, traces),
            build_key(code, duration, mode_code, noise, golden_runs + 1, traces),
            build_key(code, duration, mode_code, noise, golden_runs, !traces),
        ];
        for (i, v) in variants.iter().enumerate() {
            prop_assert!(&base != v, "variant {i} aliased the base key: {v:?}");
        }
    }

    /// Hit/miss counters match a sequential oracle over any request
    /// sequence: one miss per distinct key, a hit for every repeat, and
    /// one cache entry per distinct key.
    #[test]
    fn counters_match_a_sequential_oracle(
        codes in proptest::collection::vec(0u8..6, 1..40),
    ) {
        // Six pairwise-distinct keys (golden_runs separates them even
        // where the scenario arm repeats).
        let keys: Vec<GoldenKey> = (0u8..6)
            .map(|i| build_key(i % 4, 30.0, 1, 0.02, 2 + i as usize, true))
            .collect();
        let cache = GoldenCache::new();
        let mut seen = HashSet::new();
        let (mut oracle_hits, mut oracle_misses) = (0usize, 0usize);
        for &c in &codes {
            let key = keys[c as usize].clone();
            if seen.insert(key.clone()) {
                oracle_misses += 1;
            } else {
                oracle_hits += 1;
            }
            cache.get_or_compute(key, empty_set);
        }
        prop_assert_eq!(cache.misses(), oracle_misses);
        prop_assert_eq!(cache.hits(), oracle_hits);
        prop_assert_eq!(cache.len(), seen.len());
    }
}
