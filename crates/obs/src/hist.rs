//! Log-bucketed latency histograms.
//!
//! A [`HistSnapshot`] is a fixed-size array of bucket counters over a
//! log-linear value scale: values below [`LINEAR_MAX`] get exact unit
//! buckets; above that, each power-of-two octave is split into
//! [`SUBBUCKETS`] equal sub-buckets, bounding the relative quantile error
//! at `1 / (2 * SUBBUCKETS)` (≈ 12.5 %). It is plain data owned by one
//! recorder: a run records into its own histograms, and runs, batches
//! and shards combine by [`absorb`](HistSnapshot::absorb), whose bucket
//! additions commute — which makes the merged contents independent of
//! worker scheduling, the property the thread-count determinism gate
//! relies on.
//!
//! Values are dimensionless `u64`s; the profiling layer records
//! nanoseconds. Rendering is deterministic: sparse buckets are emitted
//! in ascending index order and quantiles are computed from fixed bucket
//! representatives (clamped to the exact observed maximum).

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

/// A fixed-size, mergeable latency histogram: plain data with quantile
/// estimation and deterministic JSON rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts ([`N_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistSnapshot {
    /// An empty histogram over the full [`N_BUCKETS`] scale, so
    /// [`record`](HistSnapshot::record) never allocates.
    fn default() -> Self {
        HistSnapshot { buckets: vec![0; N_BUCKETS], sum: 0, max: 0 }
    }
}

impl HistSnapshot {
    /// Record one value: a bucket increment, a sum and a max — plain
    /// stores, no allocation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

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

    /// Fold another histogram's contents into this one (bucket-wise add,
    /// sum add, max of maxima) — per-run histograms into a batch, batches
    /// into a shard, shards into a campaign. Commutative and associative,
    /// so the merged contents are independent of run and shard order.
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

    fn recorded(values: impl IntoIterator<Item = u64>) -> HistSnapshot {
        let mut h = HistSnapshot::default();
        values.into_iter().for_each(|v| h.record(v));
        h
    }

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
        let s = recorded(0..LINEAR_MAX);
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
        let s = recorded(1..=100_000u64);
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
        let s = recorded([1_000_003]);
        assert_eq!(s.max, 1_000_003);
        let (lo, _) = bucket_bounds(bucket_index(1_000_003));
        for q in [s.p50(), s.p90(), s.p99()] {
            assert!(q <= s.max, "quantile {q} clamped to the exact max");
            assert!(q >= lo, "quantile {q} within the recorded bucket");
        }
        assert_eq!(s.p50(), s.p99(), "one sample: every quantile is that bucket");
    }

    #[test]
    fn absorb_merges_like_a_single_recorder_in_any_order() {
        let values = |w: u64| (w..10_000u64).step_by(4).map(|v| v * 17 + 1);
        let all = recorded((0..10_000u64).map(|v| v * 17 + 1));
        let parts: Vec<HistSnapshot> = (0..4).map(|w| recorded(values(w))).collect();
        for order in [[0, 1, 2, 3], [3, 1, 0, 2]] {
            let mut folded = HistSnapshot::default();
            for i in order {
                folded.absorb(&parts[i]).expect("no overflow");
            }
            assert_eq!(folded, all, "order {order:?}");
        }
        // Absorbing into a bucketless histogram resizes it.
        let mut bare = HistSnapshot { buckets: Vec::new(), sum: 0, max: 0 };
        bare.absorb(&all).expect("no overflow");
        assert_eq!(bare, all);
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
        let snap = recorded([0u64, 3, 3, 200, 1 << 40]);
        let rebuilt = HistSnapshot::from_sparse(&snap.sparse(), snap.sum, snap.max).unwrap();
        assert_eq!(rebuilt, snap);
        assert!(HistSnapshot::from_sparse(&[(N_BUCKETS, 1)], 0, 0).is_err(), "bounds checked");
        assert_eq!(
            HistSnapshot::from_sparse(&[], 0, 0).unwrap(),
            HistSnapshot::default(),
            "empty sparse set still yields a full-scale histogram"
        );
    }

    #[test]
    fn empty_histogram_renders_and_quantiles_safely() {
        let s = HistSnapshot::default();
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
        let json = recorded([3, 3, 200]).render_json();
        assert!(json.contains("\"count\": 3"));
        assert!(json.contains("[3, 2]"));
        let i3 = json.find("[3, 2]").unwrap();
        let i200 = json.find(&format!("[{}, 1]", bucket_index(200))).unwrap();
        assert!(i3 < i200, "ascending bucket order");
    }
}
