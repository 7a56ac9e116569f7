use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random source used everywhere randomness is needed.
///
/// Wraps a seedable PRNG and adds the distributions the reproduction uses:
/// uniform ranges, Gaussians (Box–Muller, matching the paper's Gaussian-like
/// speed data), exponentials and Bernoulli draws. Two `SimRng`s created with
/// the same seed produce identical streams.
///
/// # Example
///
/// ```
/// use cad3_sim::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    gauss_cache: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed), gauss_cache: None }
    }

    /// Derives an independent child generator; useful for giving each
    /// simulated entity its own stream so entity order doesn't perturb draws.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base: u64 = self.inner.random();
        SimRng::seed_from(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid uniform bounds");
        self.inner.random_range(lo..hi)
    }

    /// A uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        self.inner.random_range(0..n)
    }

    /// A Gaussian draw with the given mean and standard deviation
    /// (Box–Muller transform).
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        assert!(std.is_finite() && std >= 0.0, "standard deviation must be non-negative");
        if let Some(z) = self.gauss_cache.take() {
            return mean + std * z;
        }
        // Box–Muller: two uniforms -> two independent standard normals.
        let u1: f64 = self.inner.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.random_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_cache = Some(r * theta.sin());
        mean + std * r * theta.cos()
    }

    /// An exponential draw with the given rate (events per unit).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u: f64 = self.inner.random_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / rate
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.random_range(0.0..1.0) < p
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Picks an index according to the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.uniform(0.0, total);
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// A raw `u64` draw (for deriving sub-seeds).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.random()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = SimRng::seed_from(13);
        let n = 50_000;
        let mean = (0..n).map(|_| rng.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(17);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut rng = SimRng::seed_from(19);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[rng.pick_weighted(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should change order with overwhelming probability");
    }

    #[test]
    fn fork_streams_are_independent_of_order() {
        let mut parent1 = SimRng::seed_from(99);
        let mut c1 = parent1.fork(1);
        let mut parent2 = SimRng::seed_from(99);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    /// Known answers: the first draws of two seeds, pinned so a change to
    /// the generator (or to the vendored PRNG under it) that moves any
    /// seeded output fails here first, before it shows as drift in
    /// `results/`.
    #[test]
    fn known_answers() {
        struct Kat {
            seed: u64,
            next_u64: [u64; 3],
            uniform: [f64; 3],
            normal: [f64; 3],
            fork_7: [u64; 2],
        }
        let kats = [
            Kat {
                seed: 0,
                next_u64: [5987356902031041503, 7051070477665621255, 6633766593972829180],
                uniform: [0.3245752680314067, -1.1776070348832657, 0.3596172076473553],
                normal: [-1.1079085986338315, 1.0114416320093498, 12.852964616258689],
                fork_7: [14456576283520227075, 16017465476432939905],
            },
            Kat {
                seed: 42,
                next_u64: [15021278609987233951, 5881210131331364753, 18149643915985481100],
                uniform: [0.8143051451229099, -1.8117895993833888, 0.9838941681774888],
                normal: [-0.26860736946209507, 0.581971051862883, 9.891075659783697],
                fork_7: [16171979519007485271, 2797145025840794617],
            },
        ];
        for k in kats {
            let mut r = SimRng::seed_from(k.seed);
            assert_eq!([r.next_u64(), r.next_u64(), r.next_u64()], k.next_u64, "seed {}", k.seed);
            let mut r = SimRng::seed_from(k.seed);
            let uniform = [r.uniform(0.0, 1.0), r.uniform(-5.0, 5.0), r.uniform(0.0, 1.0)];
            assert_eq!(uniform, k.uniform, "seed {}", k.seed);
            // The third draw reads a fresh pair: the first two are one
            // Box–Muller pair (cos, then the cached sin).
            let mut r = SimRng::seed_from(k.seed);
            let normal = [r.normal(0.0, 1.0), r.normal(0.0, 1.0), r.normal(10.0, 2.0)];
            assert_eq!(normal, k.normal, "seed {}", k.seed);
            // A fork consumes exactly one parent draw.
            let mut r = SimRng::seed_from(k.seed);
            let mut child = r.fork(7);
            assert_eq!([child.next_u64(), child.next_u64()], k.fork_7, "seed {}", k.seed);
            assert_eq!(r.next_u64(), k.next_u64[1], "seed {}", k.seed);
        }
    }

    #[test]
    #[should_panic(expected = "invalid uniform bounds")]
    fn uniform_bad_bounds_panics() {
        SimRng::seed_from(1).uniform(5.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_zero_panics() {
        SimRng::seed_from(1).index(0);
    }
}
