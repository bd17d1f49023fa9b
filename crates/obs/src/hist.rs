//! Log-bucketed histograms for non-negative integer observations.
//!
//! Bucket boundaries are powers of two, fixed by construction (never
//! data-dependent): bucket 0 holds the value `0` exactly, and bucket
//! `i ≥ 1` holds values in `[2^{i-1}, 2^i - 1]`. The upper bound of
//! bucket `i` is therefore `2^i - 1` (`0, 1, 3, 7, 15, …`), the bound
//! each `cumulative_buckets` pair of the JSONL export starts with. The
//! pinned-boundary unit tests below are the normative definition.

use serde::{Deserialize, Serialize};

/// A log₂-bucketed histogram over `u64` observations.
///
/// Merging and observing are commutative and associative, so any
/// aggregation order produces the same histogram, whichever thread or
/// run observed a value first.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// `counts[i]` = observations in bucket `i`; trailing empty buckets
    /// are not stored.
    counts: Vec<u64>,
    /// Total number of observations.
    count: u64,
    /// Sum of all observed values.
    sum: u64,
    /// Smallest observed value (0 when empty).
    min: u64,
    /// Largest observed value (0 when empty).
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index holding `value`: 0 for the value `0`, otherwise
    /// `⌊log₂ value⌋ + 1`.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of bucket `i`: `0` for bucket 0, else
    /// `2^i - 1` (saturating at `u64::MAX` for bucket 64).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let b = Self::bucket_index(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Records `count` observations of the same `value` — the batched
    /// form broadcast hot paths use (one bucket update for all copies of
    /// a message). Equivalent to calling [`observe`](Self::observe)
    /// `count` times.
    pub fn observe_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let b = Self::bucket_index(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += count;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += count;
        self.sum += value * count;
    }

    /// Empties the histogram while keeping the bucket allocation, so a
    /// per-round scratch histogram can be refilled without reallocating.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.count = 0;
        self.sum = 0;
        self.min = 0;
        self.max = 0;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (slot, &c) in self.counts.iter_mut().zip(&other.counts) {
            *slot += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-cumulative per-bucket counts, without trailing zeros.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(upper_bound, cumulative_count)` pairs for every stored bucket —
    /// the JSONL `cumulative_buckets` series (observations above the last
    /// bound are implied by [`count`](Self::count)).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                acc += c;
                (Self::bucket_upper_bound(i), acc)
            })
            .collect()
    }

    /// Rebuilds a histogram from an exported cumulative series plus its
    /// summary fields — the inverse of [`cumulative`](Self::cumulative),
    /// used by the trace-report parser. Returns `None` if the series is
    /// not a valid prefix of the bucket grid (wrong upper bounds, a
    /// decreasing cumulative count, or a final count disagreeing with
    /// `count`), or if a non-empty histogram has `min > max`.
    pub fn from_cumulative(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        cumulative: &[(u64, u64)],
    ) -> Option<Histogram> {
        let mut counts = Vec::with_capacity(cumulative.len());
        let mut prev = 0u64;
        for (i, &(le, acc)) in cumulative.iter().enumerate() {
            if le != Self::bucket_upper_bound(i) || acc < prev {
                return None;
            }
            counts.push(acc - prev);
            prev = acc;
        }
        if prev != count || (count > 0 && min > max) {
            return None;
        }
        Some(Histogram {
            counts,
            count,
            sum,
            min,
            max,
        })
    }

    /// An upper-bound estimate of the `p`-th percentile (`p` in
    /// `[0, 100]`): the inclusive upper bound of the first bucket whose
    /// cumulative count reaches `⌈p/100 · count⌉`, clamped to the
    /// observed `[min, max]` range (so a single-valued histogram reports
    /// that exact value at every percentile). Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Self::bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The p50/p90/p99 percentile summary (all zero when empty).
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min,
            max: self.max,
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
        }
    }
}

/// Percentile summary of a [`Histogram`] (see [`Histogram::summary`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// 50th-percentile upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The normative bucket layout: 0 | [1,1] | [2,3] | [4,7] | [8,15] …
    #[test]
    fn bucket_boundaries_pinned() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);

        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Histogram::bucket_upper_bound(3), 7);
        assert_eq!(Histogram::bucket_upper_bound(10), 1023);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn every_bucket_contains_its_bounds() {
        for i in 1..20usize {
            let lo = 1u64 << (i - 1);
            let hi = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            assert_eq!(Histogram::bucket_index(hi + 1), i + 1);
        }
    }

    #[test]
    fn observe_accumulates() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1014);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.bucket_counts(), &[1, 1, 2, 0, 1, 0, 0, 0, 0, 0, 1]);
        assert!((h.mean() - 169.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_series() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(1);
        h.observe(5);
        let cum = h.cumulative();
        assert_eq!(cum, vec![(0, 1), (1, 2), (3, 2), (7, 3)]);
    }

    #[test]
    fn merge_equals_interleaved_observe() {
        let values = [0u64, 3, 9, 12, 77, 1 << 20, 5, 0];
        let mut whole = Histogram::new();
        for &v in &values {
            whole.observe(v);
        }
        let (left, right) = values.split_at(3);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &v in left {
            a.observe(v);
        }
        for &v in right {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        // Merging in the other order gives the same result.
        let mut c = Histogram::new();
        for &v in right {
            c.observe(v);
        }
        let mut d = Histogram::new();
        for &v in left {
            d.observe(v);
        }
        c.merge(&d);
        assert_eq!(c, whole);
    }

    #[test]
    fn observe_n_equals_repeated_observe() {
        let mut batched = Histogram::new();
        batched.observe_n(6, 4);
        batched.observe_n(0, 2);
        batched.observe_n(9, 0); // no-op
        let mut single = Histogram::new();
        for _ in 0..4 {
            single.observe(6);
        }
        for _ in 0..2 {
            single.observe(0);
        }
        assert_eq!(batched, single);
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut h = Histogram::new();
        h.observe_n(1000, 3);
        h.observe(1);
        h.clear();
        assert_eq!(h, Histogram::new());
        // Refill after clear behaves like a fresh histogram.
        h.observe(4);
        let mut fresh = Histogram::new();
        fresh.observe(4);
        assert_eq!(h, fresh);
    }

    #[test]
    fn percentile_empty_histogram_is_zero() {
        let h = Histogram::new();
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 0);
        }
        assert_eq!(h.summary(), Summary::default());
    }

    #[test]
    fn percentile_single_observation_is_exact() {
        // Clamping to [min, max] makes every percentile of a one-value
        // histogram that exact value, even mid-bucket.
        for v in [0u64, 1, 5, 100, 1 << 40] {
            let mut h = Histogram::new();
            h.observe(v);
            for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
                assert_eq!(h.percentile(p), v, "p{p} of single {v}");
            }
        }
    }

    /// Exact-bucket cases: observations sitting on bucket upper bounds,
    /// where the estimate is exact by construction.
    #[test]
    fn percentile_exact_bucket_cases() {
        let mut h = Histogram::new();
        // 10 observations: one per bucket upper bound 0,1,3,7,...
        for i in 0..10usize {
            h.observe(Histogram::bucket_upper_bound(i));
        }
        // Rank ⌈p/100·10⌉ lands exactly on the (rank-1)-th bound.
        assert_eq!(h.percentile(10.0), 0);
        assert_eq!(h.percentile(20.0), 1);
        assert_eq!(h.percentile(30.0), 3);
        assert_eq!(h.percentile(50.0), 15);
        assert_eq!(h.percentile(90.0), 255);
        assert_eq!(h.percentile(100.0), 511);
        // p99 rounds up to the last of the 10 observations.
        assert_eq!(h.percentile(99.0), 511);
        // Out-of-range p clamps.
        assert_eq!(h.percentile(-3.0), 0);
        assert_eq!(h.percentile(250.0), 511);
    }

    #[test]
    fn percentile_skewed_mass() {
        let mut h = Histogram::new();
        h.observe_n(1, 99); // bucket 1
        h.observe(1000); // bucket 10 (le 1023), the single outlier
        assert_eq!(h.percentile(50.0), 1);
        assert_eq!(h.percentile(99.0), 1);
        // The top observation is clamped to max: 1000, not 1023.
        assert_eq!(h.percentile(100.0), 1000);
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.p90, s.p99), (100, 1, 1, 1));
        assert_eq!((s.min, s.max), (1, 1000));
    }

    /// Merge-then-percentile equals percentile of the interleaved whole,
    /// in both merge orders.
    #[test]
    fn merge_then_percentile_commutes() {
        let left = [0u64, 3, 9, 12, 77, 1 << 20];
        let right = [5u64, 0, 1023, 64, 64, 64, 2];
        let mut whole = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &v in &left {
            whole.observe(v);
            a.observe(v);
        }
        for &v in &right {
            whole.observe(v);
            b.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(ab.percentile(p), whole.percentile(p), "p{p} a+b");
            assert_eq!(ba.percentile(p), whole.percentile(p), "p{p} b+a");
        }
        assert_eq!(ab.summary(), whole.summary());
        assert_eq!(ba.summary(), whole.summary());
    }

    #[test]
    fn from_cumulative_roundtrips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 8, 1000, 1000] {
            h.observe(v);
        }
        let back =
            Histogram::from_cumulative(h.count(), h.sum(), h.min(), h.max(), &h.cumulative())
                .unwrap();
        assert_eq!(back, h);
        // Empty histogram round-trips too.
        let e = Histogram::new();
        assert_eq!(
            Histogram::from_cumulative(0, 0, 0, 0, &e.cumulative()).unwrap(),
            e
        );
    }

    #[test]
    fn from_cumulative_rejects_malformed_series() {
        // Wrong upper bound grid.
        assert!(Histogram::from_cumulative(1, 5, 5, 5, &[(2, 1)]).is_none());
        // Decreasing cumulative count.
        assert!(Histogram::from_cumulative(2, 0, 0, 0, &[(0, 2), (1, 1)]).is_none());
        // Final cumulative disagrees with count.
        assert!(Histogram::from_cumulative(3, 0, 0, 0, &[(0, 2)]).is_none());
        // Non-empty with min > max (percentile would clamp an empty range).
        assert!(Histogram::from_cumulative(1, 5, 9, 1, &[(0, 0), (1, 1)]).is_none());
    }

    #[test]
    fn merge_empty_is_identity() {
        let mut h = Histogram::new();
        h.observe(4);
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        let mut e = Histogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
