//! The seeded generator every workload draws its inputs from, and the
//! Zipf sampler over it. Nothing here reads the clock or the
//! environment: the same seed gives the same stream.

/// SplitMix64: small, fast and good enough to pick keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`: one per caller, independent of the
    /// others.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// the `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup: rank `k` (0-based)
/// has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for k in 1..=n {
            sum += 1.0 / (k as f64).powf(s);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::fork(7, 0);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::fork(7, 0);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut f0 = Rng::fork(7, 0);
        let mut f1 = Rng::fork(7, 1);
        assert_ne!(f0.next_u64(), f1.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::fork(1, 0);
        let mut seen = [false; 768];
        for _ in 0..100_000 {
            seen[r.below(768)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_is_seed_deterministic_and_rank_one_matches_theory() {
        let z = Zipf::new(5000, 1.0);
        let draw = |seed| {
            let mut r = Rng::fork(seed, 0);
            (0..400_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(42);
        assert_eq!(a, draw(42));
        assert_ne!(a, draw(43));
        let harmonic: f64 = (1..=5000).map(|k| 1.0 / k as f64).sum();
        let theory = 1.0 / harmonic;
        assert!((z.cdf[0] - theory).abs() < 1e-12);
        let observed = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        assert!(
            (observed - theory).abs() / theory < 0.02,
            "rank-1 frequency {observed} vs theory {theory}"
        );
        assert!(a.iter().all(|&k| k < 5000));
    }
}
