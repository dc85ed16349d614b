//! Deterministic random-number generation and the samplers used by the
//! workload generators.
//!
//! Every stochastic element of a run (think times, session lengths, Markov
//! transitions, data population) draws from a [`SimRng`] seeded explicitly, so
//! a run is reproducible bit-for-bit from `(seed, configuration)`.

use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seedable, deterministic random-number generator plus the distribution
/// samplers the benchmarks need.
///
/// ```
/// use dynamid_sim::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.uniform_u64(0, 100), b.uniform_u64(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng { inner: SmallRng::seed_from_u64(seed) }
    }

    /// Derives an independent child generator; useful to give each client or
    /// table population its own stream without coupling their draws.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(s)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64: empty range {lo}..={hi}");
        self.inner.gen_range(lo..=hi)
    }

    /// A uniform integer in `[lo, hi]` (inclusive) as `i64`.
    pub fn uniform_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "uniform_i64: empty range {lo}..={hi}");
        self.inner.gen_range(lo..=hi)
    }

    /// A uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        self.inner.gen_range(0..n)
    }

    /// A Bernoulli draw that is `true` with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed duration with the given mean, via inverse
    /// CDF. TPC-W's client model (clause 5.3.1.1) prescribes this for think
    /// times and session lengths.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        // 1 - unit() is in (0, 1], so ln() is finite and non-positive.
        let u = 1.0 - self.unit();
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    /// A Zipf-like draw in `[0, n)`: rank `k` has weight `1/(k+1)^theta`.
    /// Used to skew item popularity. `theta == 0` degenerates to uniform.
    ///
    /// Sampling is by inversion on the (approximated) harmonic CDF, which is
    /// O(log n) and good enough for workload skew. [`Zipf`] draws the same
    /// ranks from a table built once per `(n, theta)`.
    pub fn zipf(&mut self, n: usize, theta: f64) -> usize {
        assert!(n > 0, "zipf: empty range");
        if theta <= 0.0 || n == 1 {
            return self.index(n);
        }
        let target = self.unit() * zipf_h(n as f64, theta);
        zipf_rank(n, target, |k| zipf_h(k as f64, theta))
    }

    /// Chooses an index with probability proportional to `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero (or contains a negative
    /// weight).
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted: no weights");
        let total: f64 =
            weights.iter().inspect(|w| assert!(**w >= 0.0, "weighted: negative weight")).sum();
        assert!(total > 0.0, "weighted: weights sum to zero");
        let mut target = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= *w;
        }
        weights.len() - 1
    }

    /// A random lowercase ASCII string of the given length (for synthetic
    /// names, descriptions, etc.).
    pub fn ascii_string(&mut self, len: usize) -> String {
        (0..len).map(|_| (b'a' + self.inner.gen_range(0..26u8)) as char).collect()
    }
}

/// The generalized harmonic number the Zipf samplers invert, approximated
/// by the integral of x^-theta: H(k) ~ (k^(1-theta) - 1) / (1 - theta) for
/// theta != 1, H(k) ~ ln(k) for theta == 1. Close enough for load skew.
fn zipf_h(k: f64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-9 {
        (k + 1.0).ln()
    } else {
        ((k + 1.0).powf(1.0 - theta) - 1.0) / (1.0 - theta)
    }
}

/// The binary search both Zipf samplers run: the first rank `k` in
/// `[0, n)` with `h(k + 1) >= target`, else `n - 1`.
fn zipf_rank(n: usize, target: f64, h: impl Fn(usize) -> f64) -> usize {
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if h(mid + 1) < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`SimRng::zipf`] for one fixed `(n, theta)`, with the harmonic
/// approximation tabulated once: a draw reads the table where `zipf`
/// calls `powf` about `log2(n)` times. Each draw consumes exactly the
/// generator state `zipf` consumes and returns the same rank, so
/// population loops can switch to it without moving a value.
///
/// ```
/// use dynamid_sim::{SimRng, Zipf};
/// let items = Zipf::new(3000, 0.8);
/// let (mut a, mut b) = (SimRng::new(7), SimRng::new(7));
/// assert_eq!(items.sample(&mut a), b.zipf(3000, 0.8));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    n: usize,
    /// `zipf_h(k)` for `k` in `0..=n`; empty when draws are uniform.
    h: Vec<f64>,
}

impl Zipf {
    /// Tabulates the sampler for ranks `[0, n)` with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf: empty range");
        let h = if theta <= 0.0 || n == 1 {
            Vec::new()
        } else {
            (0..=n).map(|k| zipf_h(k as f64, theta)).collect()
        };
        Zipf { n, h }
    }

    /// One draw in `[0, n)`, identical to `rng.zipf(n, theta)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        if self.h.is_empty() {
            return rng.index(self.n);
        }
        zipf_rank(self.n, rng.unit() * self.h[self.n], |k| self.h[k])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn fork_produces_distinct_streams() {
        let mut root = SimRng::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let s1: Vec<u64> = (0..16).map(|_| c1.uniform_u64(0, u64::MAX - 1)).collect();
        let s2: Vec<u64> = (0..16).map(|_| c2.uniform_u64(0, u64::MAX - 1)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(11);
        let mean = SimDuration::from_secs(7);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean).as_secs_f64()).sum();
        let avg = total / n as f64;
        assert!((avg - 7.0).abs() < 0.25, "sample mean {avg} too far from 7.0");
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = SimRng::new(3);
        for _ in 0..1_000 {
            let v = rng.uniform_u64(10, 20);
            assert!((10..=20).contains(&v));
            let w = rng.uniform_i64(-5, 5);
            assert!((-5..=5).contains(&w));
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = SimRng::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            counts[rng.zipf(10, 1.0)] += 1;
        }
        assert!(counts[0] > counts[9] * 3, "counts not skewed: {counts:?}");
        // All ranks should still be reachable.
        assert!(counts.iter().all(|c| *c > 0));
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut rng = SimRng::new(5);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[rng.zipf(4, 0.0)] += 1;
        }
        for c in counts {
            assert!((8_000..12_000).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    fn tabulated_zipf_matches_zipf_draw_for_draw() {
        for n in [1, 2, 3000, 3300] {
            for theta in [0.0, 0.4, 0.6, 0.7, 0.8, 1.0] {
                let sampler = Zipf::new(n, theta);
                let mut a = SimRng::new(n as u64 ^ theta.to_bits());
                let mut b = a.clone();
                for _ in 0..10_000 {
                    assert_eq!(sampler.sample(&mut a), b.zipf(n, theta), "n={n} theta={theta}");
                }
                assert_eq!(a.unit().to_bits(), b.unit().to_bits(), "n={n} theta={theta}");
            }
        }
    }

    #[test]
    fn weighted_prefers_heavier() {
        let mut rng = SimRng::new(9);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted(&[0.1, 0.1, 0.8])] += 1;
        }
        assert!(counts[2] > counts[0] + counts[1]);
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn weighted_rejects_zero_total() {
        SimRng::new(1).weighted(&[0.0, 0.0]);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(2);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn ascii_string_shape() {
        let mut rng = SimRng::new(4);
        let s = rng.ascii_string(12);
        assert_eq!(s.len(), 12);
        assert!(s.chars().all(|c| c.is_ascii_lowercase()));
    }
}
