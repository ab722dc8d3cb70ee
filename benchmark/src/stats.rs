//! Percentiles, medians and the latency histogram.
//!
//! The window's per-op latencies go into [`LatencyHist`], a log-linear
//! histogram of fixed size (so the sample store never moves
//! `peak_rss_mib`) whose buckets are under 0.8 % wide; isolated calls
//! keep every sample and take their [`median`].

/// Sub-buckets per power of two: bucket width is at most 1/128 of the
/// value.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^42 ns (over an hour) have their own bucket; larger
/// ones share the last.
const MAX_EXP: u32 = 42;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 2) as usize * SUB;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. Empty input is 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns their median (the lower of the two middle
/// samples for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// A fixed-size log-linear histogram of nanosecond samples.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    count: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist::new()
    }
}

impl LatencyHist {
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }

    fn index(nanos: u64) -> usize {
        if nanos < SUB as u64 {
            return nanos as usize;
        }
        let exp = (63 - nanos.leading_zeros()).min(MAX_EXP);
        let sub = ((nanos >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        ((exp - SUB_BITS + 1) as usize * SUB + sub).min(BUCKETS - 1)
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        if i < SUB {
            return (i as u64, 1);
        }
        let exp = (i / SUB) as u32 + SUB_BITS - 1;
        let width = 1u64 << (exp - SUB_BITS);
        ((1u64 << exp) + (i % SUB) as u64 * width, width)
    }

    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::index(nanos)] += 1;
        self.count += 1;
        self.max = self.max.max(nanos);
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile in nanoseconds, interpolated inside the
    /// bucket that holds the rank, so the value is continuous rather
    /// than one of a few thousand bucket bounds.
    pub fn percentile_nanos(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if before + c >= rank {
                let (lo, width) = Self::bounds(i);
                let within = (rank - before) as f64 - 0.5;
                let v = lo as f64 + width as f64 * within / c as f64;
                return v.min(self.max as f64);
            }
            before += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn the_median_segment_ignores_a_disturbed_one() {
        // Five segments, one of them disturbed (slower).
        assert_eq!(median(&mut [100.0, 101.0, 40.0, 99.0, 102.0]), 100.0);
    }

    #[test]
    fn histogram_bounds_invert_index() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            9_999_999_999,
        ] {
            let i = LatencyHist::index(v);
            let (lo, width) = LatencyHist::bounds(i);
            assert!(lo <= v && v < lo + width, "{v} not in [{lo}, {lo}+{width})");
            assert!(width as f64 <= (v as f64 / 128.0).max(1.0));
        }
    }

    #[test]
    fn histogram_percentiles_are_within_one_percent_of_exact() {
        // A skewed deterministic sample: 2.5 µs body with a long tail.
        let mut exact = Vec::new();
        let mut h = LatencyHist::new();
        let mut x = 12345u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 33) as f64 / (1u64 << 31) as f64;
            let v = (2500.0 + 400.0 * u + 50_000.0 * u.powi(12)) as u64;
            exact.push(v as f64);
            h.record(v);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = percentile(&exact, q);
            let got = h.percentile_nanos(q);
            assert!(
                (got - want).abs() / want < 0.01,
                "q={q}: histogram {got} vs exact {want}"
            );
        }
        assert_eq!(h.count(), 50_000);
        assert_eq!(h.max_nanos() as f64, *exact.last().unwrap());
    }
}
