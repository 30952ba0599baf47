//! Golden-run cache shared across the campaigns of one experiment.
//!
//! Table I runs four campaigns per (scenario, mode) cell — {GPU, CPU} ×
//! {transient, permanent} — and every campaign starts from the same
//! fault-free golden set: identical scenario, duration, agent mode,
//! sensor config, run count, and seeds (`1000 + i`). The injection
//! target and fault model only affect the *injected* runs, so the golden
//! work is 4× redundant. [`GoldenCache`] computes each distinct golden
//! set exactly once and shares it; concurrent requesters for the same
//! key block on a `OnceLock` instead of duplicating the simulation.
//!
//! The cache must never alias two campaigns whose golden runs could
//! differ: the key captures every [`RunConfig`](crate::RunConfig) input
//! that reaches a golden run (float fields as raw bit patterns, so key
//! equality is exactly run-input equality). Detector-attached runs are
//! *not* cached — the detector annotates alarm times into the results,
//! and models differ per campaign — callers bypass the cache whenever a
//! detector is present. The shard executor's profiling memo keys golden
//! run 0 on the same [`GoldenKey`], so it relies on that completeness too.

use crate::runner::RunResult;
use diverseav::AgentMode;
use diverseav_simworld::{ScenarioKind, SensorConfig, TrajPoint};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key: every input that determines a campaign's golden runs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GoldenKey {
    /// Driving scenario.
    pub scenario: ScenarioKind,
    /// Scenario duration (bit pattern of the `f64` seconds).
    pub duration_bits: u64,
    /// Agent deployment mode.
    pub mode: AgentMode,
    /// Sensor configuration fingerprint (all fields, floats as bits).
    pub sensor: [u64; 14],
    /// Golden runs requested.
    pub golden_runs: usize,
    /// Whether divergence traces are recorded.
    pub collect_traces: bool,
}

impl GoldenKey {
    /// Key for one campaign's golden set.
    pub fn new(
        scenario: ScenarioKind,
        duration: f64,
        mode: AgentMode,
        sensor: &SensorConfig,
        golden_runs: usize,
        collect_traces: bool,
    ) -> Self {
        GoldenKey {
            scenario,
            duration_bits: duration.to_bits(),
            mode,
            sensor: sensor_fingerprint(sensor),
            golden_runs,
            collect_traces,
        }
    }
}

/// Exact bit-level fingerprint of every [`SensorConfig`] field. Also
/// folded into the shard-artifact campaign fingerprint
/// ([`crate::shard::campaign_fingerprint`]), so shards produced under
/// different sensor configurations can never merge.
pub fn sensor_fingerprint(s: &SensorConfig) -> [u64; 14] {
    [
        s.width as u64,
        s.height as u64,
        s.hfov_deg.to_bits(),
        s.cam_height.to_bits(),
        s.cam_yaws[0].to_bits(),
        s.cam_yaws[1].to_bits(),
        s.cam_yaws[2].to_bits(),
        s.pixel_noise.to_bits(),
        s.texture_amp.to_bits(),
        s.gps_noise.to_bits(),
        s.speed_noise.to_bits(),
        s.imu_noise.to_bits(),
        s.enable_lidar as u64,
        (s.lidar_rays as u64) ^ ((s.lidar_range.to_bits()).rotate_left(17)),
    ]
}

/// A campaign's golden runs plus the derived violation baseline.
#[derive(Clone, Debug)]
pub struct GoldenSet {
    /// Golden (fault-free) runs.
    pub golden: Vec<RunResult>,
    /// Mean golden trajectory (the violation baseline).
    pub baseline: Vec<TrajPoint>,
}

/// Compute-once cache of golden sets, keyed on [`GoldenKey`].
///
/// Thread-safe: campaigns running in parallel share one cache. Each
/// key's `OnceLock` guarantees the golden set is computed exactly once
/// even under concurrent first requests (later arrivals block until the
/// initializer finishes), so hit/miss counts are deterministic: one miss
/// per distinct key, hits for every other request. Every request also
/// feeds the process-global `cache.hits` / `cache.misses` counters in
/// [`diverseav_obs::metrics`] for the `METRICS_campaigns.json` artifact.
#[derive(Default)]
pub struct GoldenCache {
    entries: Mutex<HashMap<GoldenKey, Arc<OnceLock<Arc<GoldenSet>>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl GoldenCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The golden set for `key`, computing it with `compute` on first
    /// request and returning the shared copy afterwards.
    pub fn get_or_compute<F>(&self, key: GoldenKey, compute: F) -> Arc<GoldenSet>
    where
        F: FnOnce() -> GoldenSet,
    {
        let cell = {
            let mut entries = self.entries.lock().expect("golden cache poisoned");
            Arc::clone(entries.entry(key).or_default())
        };
        // Count exactly one miss per key: only the closure that actually
        // runs increments `misses`; every other path is a hit.
        let mut computed = false;
        let set = cell.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            diverseav_obs::metrics::counter_add("cache.misses", 1);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            diverseav_obs::metrics::counter_add("cache.hits", 1);
        }
        Arc::clone(set)
    }

    /// Requests served from an already-computed entry.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to compute their entry.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct keys currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("golden cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_with_marker(seed: u64) -> GoldenSet {
        let marker = TrajPoint { t: seed as f64, pos: diverseav_simworld::Vec2 { x: 0.0, y: 0.0 } };
        GoldenSet { golden: Vec::new(), baseline: vec![marker] }
    }

    fn key(scenario: ScenarioKind, duration: f64) -> GoldenKey {
        GoldenKey::new(scenario, duration, AgentMode::RoundRobin, &SensorConfig::default(), 4, true)
    }

    #[test]
    fn second_request_hits_and_shares() {
        let cache = GoldenCache::new();
        let k = key(ScenarioKind::LeadSlowdown, 30.0);
        let a = cache.get_or_compute(k.clone(), || set_with_marker(1));
        let b = cache.get_or_compute(k, || set_with_marker(2));
        assert_eq!(b.baseline[0].t, 1.0, "second compute must not run");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn differing_inputs_do_not_alias() {
        let base = key(ScenarioKind::LeadSlowdown, 30.0);
        let noisy = SensorConfig {
            pixel_noise: SensorConfig::default().pixel_noise + 0.5,
            ..Default::default()
        };
        let variants = [
            key(ScenarioKind::GhostCutIn, 30.0),
            key(ScenarioKind::LeadSlowdown, 31.0),
            GoldenKey::new(
                ScenarioKind::LeadSlowdown,
                30.0,
                AgentMode::Single,
                &SensorConfig::default(),
                4,
                true,
            ),
            GoldenKey::new(
                ScenarioKind::LeadSlowdown,
                30.0,
                AgentMode::RoundRobin,
                &noisy,
                4,
                true,
            ),
            GoldenKey::new(
                ScenarioKind::LeadSlowdown,
                30.0,
                AgentMode::RoundRobin,
                &SensorConfig::default(),
                5,
                true,
            ),
            GoldenKey::new(
                ScenarioKind::LeadSlowdown,
                30.0,
                AgentMode::RoundRobin,
                &SensorConfig::default(),
                4,
                false,
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(&base, v, "variant {i} must not alias the base key");
        }
    }

    #[test]
    fn concurrent_first_requests_compute_once() {
        let cache = GoldenCache::new();
        let k = key(ScenarioKind::FrontAccident, 20.0);
        let computes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get_or_compute(k.clone(), || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        set_with_marker(9)
                    });
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 7);
        assert_eq!(cache.len(), 1);
    }
}
