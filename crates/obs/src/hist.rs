//! Lock-free log-bucketed latency histograms.
//!
//! A [`Histogram`] is a fixed-size array of atomic bucket counters over a
//! log-linear value scale: values below [`LINEAR_MAX`] get exact unit
//! buckets; above that, each power-of-two octave is split into
//! [`SUBBUCKETS`] equal sub-buckets, bounding the relative quantile error
//! at `1 / (2 * SUBBUCKETS)` (≈ 12.5 %). Recording is a single relaxed
//! `fetch_add` plus a `fetch_max`, so histograms can be shared freely
//! across `par_map` worker threads: bucket increments commute, which
//! makes the merged contents independent of scheduling — the property
//! the thread-count determinism gate relies on.
//!
//! Values are dimensionless `u64`s; the profiling layer records
//! nanoseconds. Rendering is deterministic: sparse buckets are emitted
//! in ascending index order and quantiles are computed from fixed bucket
//! representatives (clamped to the exact observed maximum).

use std::sync::atomic::{AtomicU64, Ordering};

/// Values below this get exact unit buckets.
pub const LINEAR_MAX: u64 = 16;

/// Sub-buckets per power-of-two octave above [`LINEAR_MAX`].
pub const SUBBUCKETS: usize = 4;

/// Total bucket count: 16 unit buckets + 4 sub-buckets for each octave
/// `2^4 ..= 2^63`.
pub const N_BUCKETS: usize = LINEAR_MAX as usize + (64 - 4) * SUBBUCKETS;

/// Bucket index of a value (log-linear scale; total order preserved).
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (octave - 2)) & 0b11) as usize;
        LINEAR_MAX as usize + (octave - 4) * SUBBUCKETS + sub
    }
}

/// Inclusive `(low, high)` value bounds of a bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < LINEAR_MAX as usize {
        (index as u64, index as u64)
    } else {
        let octave = 4 + (index - LINEAR_MAX as usize) / SUBBUCKETS;
        let sub = ((index - LINEAR_MAX as usize) % SUBBUCKETS) as u64;
        let width = 1u64 << (octave - 2);
        let lo = (1u64 << octave) + sub * width;
        (lo, lo + (width - 1)) // parenthesized: the top bucket's `lo + width` would overflow
    }
}

/// The fixed representative value quantiles report for a bucket (its
/// midpoint — deterministic, never data-dependent).
fn representative(index: usize) -> u64 {
    let (lo, hi) = bucket_bounds(index);
    lo + (hi - lo) / 2
}

/// A fixed-size, lock-free, mergeable latency histogram.
///
/// All operations use relaxed atomics: the histogram carries independent
/// monotone counters, and readers ([`Histogram::snapshot`]) are expected
/// to run at quiescent points (end of a campaign phase, test
/// assertions), not to observe a consistent cut mid-recording.
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (a single `fetch_add` + `fetch_max`).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold another histogram's contents into this one (bucket-wise add,
    /// max of maxima) — e.g. per-slot histograms after a fan-out joins.
    pub fn absorb(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A plain (non-atomic) copy of the current contents.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`], with quantile estimation and
/// deterministic JSON rendering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts ([`N_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Estimated quantile `q ∈ [0, 1]`: the representative of the bucket
    /// holding the `ceil(q·count)`-th smallest value, clamped to the
    /// exact maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return representative(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another snapshot's contents into this one (bucket-wise add,
    /// sum add, max of maxima) — the plain-data mirror of
    /// [`Histogram::absorb`], for merging snapshots that were serialized
    /// and read back (shard artifacts). Commutative and associative, so
    /// the merged contents are independent of shard order.
    ///
    /// # Errors
    ///
    /// A bucket, the sum or the total count that would overflow `u64`
    /// (only forged snapshots get there); `self` is then left partly
    /// folded.
    pub fn absorb(&mut self, other: &HistSnapshot) -> Result<(), String> {
        let overflow = || "histogram fold overflows u64".to_string();
        self.count().checked_add(other.count()).ok_or_else(overflow)?;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs; // bounded by the total count checked above
        }
        self.sum = self.sum.checked_add(other.sum).ok_or_else(overflow)?;
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// The sparse `(index, count)` pairs of non-empty buckets, in
    /// ascending index order (the same shape [`render_json`] emits).
    ///
    /// [`render_json`]: HistSnapshot::render_json
    pub fn sparse(&self) -> Vec<(usize, u64)> {
        self.buckets.iter().enumerate().filter(|&(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect()
    }

    /// Rebuild a full snapshot from sparse pairs plus the exact sum and
    /// max (inverse of [`sparse`](HistSnapshot::sparse)).
    ///
    /// # Errors
    ///
    /// Rejects bucket indices outside the fixed [`N_BUCKETS`] scale and
    /// counts whose total overflows `u64`.
    pub fn from_sparse(pairs: &[(usize, u64)], sum: u64, max: u64) -> Result<Self, String> {
        let mut buckets = vec![0u64; N_BUCKETS];
        let mut total = 0u64;
        for &(i, c) in pairs {
            let slot =
                buckets.get_mut(i).ok_or_else(|| format!("bucket index {i} >= {N_BUCKETS}"))?;
            total = total.checked_add(c).ok_or("bucket counts overflow u64")?;
            *slot += c; // bounded by `total`
        }
        Ok(HistSnapshot { buckets, sum, max })
    }

    /// Render as a JSON object: summary quantiles plus the sparse bucket
    /// list `[[index, count], ...]` in ascending index order.
    pub fn render_json(&self) -> String {
        let mut buckets = String::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                if !buckets.is_empty() {
                    buckets.push_str(", ");
                }
                buckets.push_str(&format!("[{i}, {c}]"));
            }
        }
        format!(
            "{{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
             \"max\": {}, \"buckets\": [{}]}}",
            self.count(),
            self.sum,
            self.p50(),
            self.p90(),
            self.p99(),
            self.max,
            buckets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scale_is_monotone_and_total() {
        let mut prev = 0usize;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < N_BUCKETS, "index {idx} in range for {v}");
            assert!(idx >= prev, "indices non-decreasing at {v}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} within its bucket [{lo}, {hi}]");
            prev = idx;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), LINEAR_MAX);
        for v in 0..LINEAR_MAX as usize {
            assert_eq!(s.buckets[v], 1);
        }
        assert_eq!(s.quantile(0.5), 7);
        assert_eq!(s.max, LINEAR_MAX - 1);
    }

    #[test]
    fn quantiles_track_a_known_uniform_distribution() {
        // 1..=100_000 uniform: quantile q should estimate q * 100_000
        // within the scale's 12.5 % relative-error bound.
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100_000);
        assert_eq!(s.max, 100_000);
        for (q, expect) in [(0.50, 50_000.0), (0.90, 90_000.0), (0.99, 99_000.0)] {
            let got = s.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel <= 0.125, "q{q}: got {got}, expected {expect} (rel err {rel:.3})");
        }
        assert!((s.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn p99_never_exceeds_exact_max() {
        let h = Histogram::new();
        h.record(1_000_003);
        let s = h.snapshot();
        assert_eq!(s.max, 1_000_003);
        let (lo, _) = bucket_bounds(bucket_index(1_000_003));
        for q in [s.p50(), s.p90(), s.p99()] {
            assert!(q <= s.max, "quantile {q} clamped to the exact max");
            assert!(q >= lo, "quantile {q} within the recorded bucket");
        }
        assert_eq!(s.p50(), s.p99(), "one sample: every quantile is that bucket");
    }

    #[test]
    fn absorb_merges_like_a_single_recorder() {
        let all = Histogram::new();
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..10_000u64 {
            all.record(v * 17 + 1);
            if v % 2 == 0 { &a } else { &b }.record(v * 17 + 1);
        }
        a.absorb(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    }

    #[test]
    fn concurrent_recording_matches_sequential() {
        let seq = Histogram::new();
        for v in 0..40_000u64 {
            seq.record(v % 977);
        }
        let par = Histogram::new();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let par = &par;
                scope.spawn(move || {
                    for v in (w..40_000).step_by(4) {
                        par.record(v % 977);
                    }
                });
            }
        });
        assert_eq!(par.snapshot(), seq.snapshot());
    }

    #[test]
    fn snapshot_absorb_matches_histogram_absorb() {
        let all = Histogram::new();
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..5_000u64 {
            all.record(v * 13 + 7);
            if v % 3 == 0 { &a } else { &b }.record(v * 13 + 7);
        }
        let mut sa = a.snapshot();
        sa.absorb(&b.snapshot()).expect("no overflow");
        assert_eq!(sa, all.snapshot());
        // Absorbing into a default (empty-bucket) snapshot resizes it.
        let mut empty = HistSnapshot::default();
        empty.absorb(&all.snapshot()).expect("no overflow");
        assert_eq!(empty, all.snapshot());
    }

    #[test]
    fn overflowing_counts_are_errors_not_wraps() {
        // A repeated bucket whose counts sum past u64::MAX.
        let err = HistSnapshot::from_sparse(&[(3, u64::MAX), (3, 1)], 0, 0).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        // Distinct buckets whose total count would overflow.
        assert!(HistSnapshot::from_sparse(&[(3, u64::MAX), (4, 1)], 0, 0).is_err());
        let full = HistSnapshot::from_sparse(&[(3, u64::MAX)], 0, 0).expect("fits");
        let mut folded = full.clone();
        assert!(folded.absorb(&full).is_err(), "bucket fold overflows");
        let heavy = HistSnapshot::from_sparse(&[(1, 1)], u64::MAX, 1).expect("fits");
        let mut folded = heavy.clone();
        assert!(folded.absorb(&heavy).is_err(), "sum fold overflows");
    }

    #[test]
    fn sparse_round_trips_through_from_sparse() {
        let h = Histogram::new();
        for v in [0u64, 3, 3, 200, 1 << 40] {
            h.record(v);
        }
        let snap = h.snapshot();
        let rebuilt = HistSnapshot::from_sparse(&snap.sparse(), snap.sum, snap.max).unwrap();
        assert_eq!(rebuilt, snap);
        assert!(HistSnapshot::from_sparse(&[(N_BUCKETS, 1)], 0, 0).is_err(), "bounds checked");
        assert_eq!(
            HistSnapshot::from_sparse(&[], 0, 0).unwrap().buckets.len(),
            N_BUCKETS,
            "empty sparse set still yields a full-scale snapshot"
        );
    }

    #[test]
    fn empty_histogram_renders_and_quantiles_safely() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(
            s.render_json(),
            "{\"count\": 0, \"sum\": 0, \"p50\": 0, \"p90\": 0, \"p99\": 0, \
             \"max\": 0, \"buckets\": []}"
        );
    }

    #[test]
    fn render_lists_sparse_buckets_in_order() {
        let h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(200);
        let json = h.snapshot().render_json();
        assert!(json.contains("\"count\": 3"));
        assert!(json.contains("[3, 2]"));
        let i3 = json.find("[3, 2]").unwrap();
        let i200 = json.find(&format!("[{}, 1]", bucket_index(200))).unwrap();
        assert!(i3 < i200, "ascending bucket order");
    }
}
