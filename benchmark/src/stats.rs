//! Order statistics for the benchmark: a fixed-size latency histogram (so
//! memory does not depend on how many operations a run completes) and
//! medians over small sample sets.

/// Sub-buckets per power of two: bucket width is 1/64 of its value, and
/// quantiles interpolate inside the bucket.
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;
/// Values are clamped to 2^40 ns (18 minutes).
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) * SUB as usize;

/// Log-linear histogram of nanosecond durations.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    let v = v.min((1 << MAX_BITS) - 1);
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Lowest value of bucket `idx` and the bucket's width.
fn bucket_bounds(idx: usize) -> (f64, f64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx as f64, 1.0);
    }
    let shift = idx / SUB - 1;
    let low = (SUB + idx % SUB) << shift;
    (low as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds (0 when empty), interpolated inside
    /// the bucket that holds it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (below + c) as f64 {
                let (low, width) = bucket_bounds(idx);
                let inside = (rank - below as f64 + 0.5) / c as f64;
                return low + width * inside;
            }
            below += c;
        }
        let (low, width) = bucket_bounds(BUCKETS - 1);
        low + width
    }
}

/// Median of `values` (0 when empty). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` with linear interpolation (0 when empty).
/// Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Mean of the last tenth of `values` over the mean of the first tenth
/// (at least one sample each); 0 when there are fewer than two samples.
pub fn growth(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let k = (values.len() / 10).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&values[..k]);
    if first <= 0.0 {
        return 0.0;
    }
    mean(&values[values.len() - k..]) / first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            123_456,
            1 << 30,
            u64::MAX,
        ] {
            let (low, width) = bucket_bounds(bucket_of(v));
            let clamped = v.min((1 << MAX_BITS) - 1) as f64;
            assert!(
                low <= clamped && clamped < low + width,
                "{v}: {low}+{width}"
            );
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Hist::default();
        let mut exact: Vec<f64> = Vec::new();
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 2_000 + (x >> 40) % 500_000;
            h.record(v);
            exact.push(v as f64);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let want = quantile(&mut exact, q);
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.02, "q{q}: {got} vs {want}");
        }
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn median_and_growth() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let ramp: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((growth(&ramp) - 19.5 / 1.5).abs() < 1e-9);
    }
}
