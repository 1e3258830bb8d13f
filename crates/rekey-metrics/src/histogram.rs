//! Log₂-scaled histograms with linear sub-buckets per octave.
//!
//! Values below `SUB_BUCKETS` (8) get exact unit buckets; above that, each
//! power-of-two octave is divided into `SUB_BUCKETS` equal sub-buckets,
//! so the relative bucket width never exceeds `1 / SUB_BUCKETS` (12.5 %).
//! Recording is O(1) (a leading-zeros count and two shifts) and the whole
//! store is integers, so snapshots are `Eq` and identically seeded runs
//! produce identical distributions.

use crate::json;

/// Linear sub-buckets per power-of-two octave.
pub(crate) const SUB_BUCKETS: u64 = 8;
const SUB_BITS: u32 = 3; // log2(SUB_BUCKETS)

/// The bucket index a value lands in. Total order: `bucket_index` is
/// monotone in `v`, and buckets tile `0..=u64::MAX` without gaps.
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (octave - SUB_BITS)) & (SUB_BUCKETS - 1);
    ((u64::from(octave) - u64::from(SUB_BITS) + 1) * SUB_BUCKETS + sub) as usize
}

/// Inclusive lower bound of bucket `i`.
pub(crate) fn bucket_lower(i: usize) -> u64 {
    if i < SUB_BUCKETS as usize {
        return i as u64;
    }
    let octave_off = (i as u64 / SUB_BUCKETS) as u32;
    let sub = i as u64 % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << (octave_off - 1)
}

/// Width of bucket `i` (its values span `lower .. lower + width`).
pub(crate) fn bucket_width(i: usize) -> u64 {
    if i < SUB_BUCKETS as usize {
        return 1;
    }
    1u64 << (i as u64 / SUB_BUCKETS - 1)
}

#[derive(Debug, Clone, Default)]
struct Store {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Store {
    fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self.buckets.clone(),
        }
    }
}

/// A single-owner histogram: plain data, `Send`, made for per-lane
/// accumulation inside multi-threaded executors. Each lane records into
/// its own `LocalHistogram`; afterwards the lanes are merged and the
/// union snapshotted.
#[derive(Debug, Clone, Default)]
pub struct LocalHistogram(Store);

impl LocalHistogram {
    /// An empty local histogram.
    pub fn new() -> LocalHistogram {
        LocalHistogram::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.0.record(v);
    }

    /// Folds `other`'s counts into this histogram. Bucket counts and sums
    /// add; min/max extend. Merging is commutative, so any deterministic
    /// shard order yields the same result.
    pub fn merge(&mut self, other: &LocalHistogram) {
        let o = &other.0;
        if o.count == 0 {
            return;
        }
        if self.0.buckets.len() < o.buckets.len() {
            self.0.buckets.resize(o.buckets.len(), 0);
        }
        for (b, &n) in self.0.buckets.iter_mut().zip(o.buckets.iter()) {
            *b += n;
        }
        if self.0.count == 0 {
            self.0.min = o.min;
            self.0.max = o.max;
        } else {
            self.0.min = self.0.min.min(o.min);
            self.0.max = self.0.max.max(o.max);
        }
        self.0.count += o.count;
        self.0.sum = self.0.sum.wrapping_add(o.sum);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// An `Eq` point-in-time copy of a [`LocalHistogram`]: integer counts only,
/// with percentiles computed on demand by linear interpolation inside the
/// covering bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (wrapping).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Bucket counts, indexed by bucket (unit buckets below 8, then eight
    /// per power-of-two octave).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0.0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated within
    /// the covering bucket and clamped to the recorded `[min, max]`.
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if (next as f64) >= target {
                let frac = ((target - cum as f64) / c as f64).clamp(0.0, 1.0);
                let lower = bucket_lower(i);
                let width = bucket_width(i);
                let v = lower as f64 + frac * width as f64;
                return (v.round() as u64).clamp(self.min, self.max);
            }
            cum = next;
        }
        self.max
    }

    /// Median (interpolated).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile (interpolated).
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile (interpolated).
    pub(crate) fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Writes the summary fields (`count`, `sum`, `min`, `max`, `mean`,
    /// `p50`, `p95`, `p99`) into an open JSON object.
    pub fn write_fields(&self, w: &mut json::Writer) {
        w.field_u64("count", self.count);
        w.field_u64("sum", self.sum);
        w.field_u64("min", self.min);
        w.field_u64("max", self.max);
        w.field_f64("mean", self.mean(), 2);
        w.field_u64("p50", self.p50());
        w.field_u64("p95", self.p95());
        w.field_u64("p99", self.p99());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..SUB_BUCKETS {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_width(i), 1);
        }
    }

    #[test]
    fn buckets_tile_the_domain_without_gaps() {
        // Every bucket's end is the next bucket's lower bound, and every
        // value maps into the bucket whose range contains it.
        for i in 0..200 {
            assert_eq!(
                bucket_lower(i) + bucket_width(i),
                bucket_lower(i + 1),
                "bucket {i} does not abut bucket {}",
                i + 1
            );
        }
        for v in [0u64, 1, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            let lower = bucket_lower(i);
            assert!(lower <= v, "value {v} below its bucket {i}");
            if bucket_width(i) < u64::MAX - lower {
                assert!(v < lower + bucket_width(i), "value {v} above bucket {i}");
            }
        }
    }

    #[test]
    fn bucket_index_is_monotone_at_octave_edges() {
        let mut prev = bucket_index(0);
        for v in 1..4096u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            prev = i;
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for v in [100u64, 1000, 1 << 20, 1 << 50] {
            let i = bucket_index(v);
            let rel = bucket_width(i) as f64 / bucket_lower(i) as f64;
            assert!(
                rel <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "width {rel} at {v}"
            );
        }
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let mut h = LocalHistogram::new();
        for v in 0..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 101);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert_eq!(s.percentile(0.0), 0);
        assert_eq!(s.percentile(1.0), 100);
        // Bucketed p50 of 0..=100 must land within one bucket width (≤ 8
        // at this magnitude) of the exact median.
        let p50 = s.p50();
        assert!((44..=57).contains(&p50), "p50 = {p50}");
        // Monotone in q.
        assert!(s.percentile(0.25) <= p50);
        assert!(p50 <= s.p95());
        assert!(s.p95() <= s.p99());
    }

    #[test]
    fn single_value_histogram_collapses_to_that_value() {
        let mut h = LocalHistogram::new();
        h.record(12345);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.percentile(q), 12345, "q = {q}");
        }
        assert_eq!(s.mean(), 12345.0);
    }

    #[test]
    fn interpolation_splits_a_wide_bucket() {
        // 1024 lands in bucket [1024, 1152): one sample, so q sweeps the
        // bucket linearly — but clamping to [min, max] pins it back.
        let mut h = LocalHistogram::new();
        h.record(1024);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.p50(), 1024);
        // Two distinct values in distinct buckets: p50 interpolates in
        // the first occupied bucket's range, clamped to min.
        let mut h2 = LocalHistogram::new();
        h2.record(10);
        h2.record(1000);
        let s2 = h2.snapshot();
        let p50 = s2.p50();
        assert!((10..=11).contains(&p50), "p50 = {p50}");
        assert_eq!(s2.percentile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let s = LocalHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn rejects_out_of_range_quantile() {
        let mut h = LocalHistogram::new();
        h.record(1);
        let _ = h.snapshot().percentile(1.5);
    }
}
