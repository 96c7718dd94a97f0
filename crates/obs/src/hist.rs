//! Log-bucketed latency histogram.
//!
//! [`LatencyHistogram`] records microsecond durations into fixed-size
//! buckets: values below 64 µs are counted exactly, larger values land in
//! one of 32 linear sub-buckets per power-of-two octave, bounding the
//! relative quantile error at ~3%. Recording is allocation-free after
//! construction and histograms merge exactly, so per-thread instances can
//! be folded into one report — the shape `rvhpc-serve`'s load generator
//! and the server's service-time tracking both need.

use crate::json::JsonValue;

/// Version tag for the bucket layout below. Quantiles from histograms
/// with different layouts are not comparable (bucket bounds differ), so
/// every exported latency section carries this tag and `benchdiff`
/// refuses to compare sections whose tags disagree. Bump it whenever
/// `EXACT`, `SUBBUCKETS` or `OCTAVES` change.
pub(crate) const BUCKET_LAYOUT: &str = "log64x32/1";

/// Exact region: values `0..EXACT` each get their own bucket.
const EXACT: u64 = 64;
/// Sub-buckets per octave above the exact region.
const SUBBUCKETS: u64 = 32;
/// First octave above the exact region (`log2(EXACT)`).
const FIRST_OCTAVE: u32 = 6;
/// Octaves covered (microseconds up to ~2^40 µs ≈ 12.7 days).
const OCTAVES: u32 = 35;
/// Total bucket count.
const BUCKETS: usize = EXACT as usize + (OCTAVES as usize) * SUBBUCKETS as usize;

/// A mergeable histogram of microsecond latencies with bounded relative
/// error on quantiles.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    total_us: u64,
    min_us: u64,
    max_us: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    // Octave = floor(log2 v), clamped into the covered range.
    let octave = (63 - v.leading_zeros()).min(FIRST_OCTAVE + OCTAVES - 1);
    let sub = (v >> (octave - 5)) & (SUBBUCKETS - 1);
    EXACT as usize + ((octave - FIRST_OCTAVE) as usize) * SUBBUCKETS as usize + sub as usize
}

/// Upper bound of a bucket — the value [`LatencyHistogram::quantile`]
/// reports, so quantiles never under-state a latency.
fn bucket_upper(i: usize) -> u64 {
    if i < EXACT as usize {
        return i as u64;
    }
    let rel = i - EXACT as usize;
    let octave = FIRST_OCTAVE + (rel / SUBBUCKETS as usize) as u32;
    let sub = (rel % SUBBUCKETS as usize) as u64 + 1;
    // Buckets in this octave span [2^octave, 2^(octave+1)) in SUBBUCKETS
    // equal steps.
    (1u64 << octave) + (sub << (octave - 5)) - 1
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            total_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Record one latency in microseconds.
    pub fn record(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Fold another histogram into this one; exact (no resampling).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }

    /// Largest recorded value (exact).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Smallest recorded value (exact; 0 when empty).
    pub fn min_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_us
        }
    }

    /// The latency at quantile `q` in `[0, 1]`, in microseconds. Reports
    /// the upper bound of the bucket holding the rank-`⌈q·count⌉` sample
    /// (within ~3% above the true value; exact below 64 µs), clamped to
    /// the exact observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let last = self.buckets.iter().rposition(|&n| n > 0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Only the final rank is guaranteed to be the maximum
                // sample — report that one exactly. Other ranks landing in
                // the topmost non-empty bucket must report the bucket
                // bound: that bucket can hold several distinct values
                // (values beyond the covered octaves all clamp into the
                // last octave), and returning `max_us` for a mid-bucket
                // rank would overstate it by orders of magnitude.
                if Some(i) == last && rank == self.count {
                    return self.max_us;
                }
                return bucket_upper(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Render as a metrics-document section: count, mean/min/max and the
    /// standard percentile ladder.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("bucket_layout".to_string(), JsonValue::from(BUCKET_LAYOUT)),
            ("count".to_string(), JsonValue::from(self.count)),
            ("mean_us".to_string(), JsonValue::from(self.mean_us())),
            ("min_us".to_string(), JsonValue::from(self.min_us())),
            ("max_us".to_string(), JsonValue::from(self.max_us)),
            ("p50_us".to_string(), JsonValue::from(self.quantile(0.50))),
            ("p90_us".to_string(), JsonValue::from(self.quantile(0.90))),
            ("p95_us".to_string(), JsonValue::from(self.quantile(0.95))),
            ("p99_us".to_string(), JsonValue::from(self.quantile(0.99))),
            ("p999_us".to_string(), JsonValue::from(self.quantile(0.999))),
        ])
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.quantile(0.0), 0);
        // Rank ceil(0.5*64)=32 → value 31 (0-based exact buckets).
        assert_eq!(h.quantile(0.5), 31);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.min_us(), 0);
        assert_eq!(h.max_us(), 63);
    }

    #[test]
    fn quantile_error_is_bounded_above_exact_region() {
        let mut h = LatencyHistogram::new();
        let values: Vec<u64> = (0..10_000u64).map(|i| 100 + i * 37).collect();
        for &v in &values {
            h.record(v);
        }
        for &q in &[0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1);
            let exact = values[rank - 1];
            let approx = h.quantile(q);
            assert!(approx >= exact, "quantile {q} under-reported");
            assert!(
                approx as f64 <= exact as f64 * 1.04,
                "quantile {q}: {approx} vs exact {exact} (>4% high)"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 5_000_000);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= prev, "quantile ladder must be monotone");
            prev = v;
        }
        assert!(h.quantile(1.0) <= h.max_us());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut u = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * 113 % 70_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), u.count());
        assert_eq!(a.max_us(), u.max_us());
        assert_eq!(a.min_us(), u.min_us());
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(a.quantile(q), u.quantile(q), "merged quantile differs");
        }
    }

    #[test]
    fn json_section_parses_and_orders() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 3000, 40_000, 41_000, 42_000] {
            h.record(v);
        }
        let doc = crate::json::parse(&h.to_json().to_json()).expect("valid JSON");
        let p50 = doc.get("p50_us").and_then(JsonValue::as_f64).unwrap();
        let p99 = doc.get("p99_us").and_then(JsonValue::as_f64).unwrap();
        assert!(p50 <= p99);
        assert_eq!(doc.get("count").and_then(JsonValue::as_f64), Some(6.0));
    }

    #[test]
    fn huge_values_clamp_into_last_octave() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_us(), u64::MAX);
        // Quantile clamps to the observed max rather than a bucket bound.
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_us(), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.mean_us(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "empty quantile({q}) must be 0");
        }
        // Merging an empty histogram into an empty one stays empty.
        let mut a = LatencyHistogram::new();
        a.merge(&h);
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), 0);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        for v in [0u64, 5, 63, 64, 100_000, u64::MAX] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "single sample {v}, quantile({q})");
            }
        }
    }

    #[test]
    fn merged_top_bucket_does_not_overstate_mid_bucket_ranks() {
        // Both values clamp into the same last-octave bucket: one is a
        // genuine ~2^40 µs latency, the other is u64::MAX (e.g. a
        // negative-duration artifact saturating). The p50 must report the
        // bucket bound (~2^41), not the clamped maximum.
        let moderate = (1u64 << 40) + (31u64 << 35) + 5;
        let mut a = LatencyHistogram::new();
        a.record(moderate);
        let mut b = LatencyHistogram::new();
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        let p50 = a.quantile(0.5);
        assert!(p50 >= moderate, "p50 must not under-state: {p50}");
        assert!(
            p50 < 1u64 << 42,
            "p50 {p50} overstates a mid-bucket rank by orders of magnitude"
        );
        // The final rank is still the exact maximum.
        assert_eq!(a.quantile(1.0), u64::MAX);
    }
}
