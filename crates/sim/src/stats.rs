//! Statistics helpers used to aggregate measurements.
//!
//! The paper reports means with standard-error bars (Fig. 6); [`Welford`]
//! provides numerically stable running moments, [`SampleSet`] keeps raw
//! samples for percentiles, and [`Histogram`] buckets values for
//! distribution-shaped outputs.

/// Numerically stable running mean/variance (Welford's algorithm).
///
/// # Example
///
/// ```
/// use cad3_sim::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 6.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 4.0);
/// assert_eq!(w.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample (Bessel-corrected) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean (`s / sqrt(n)`), the paper's error bars.
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut w = Welford::new();
        w.extend(iter);
        w
    }
}

/// A bag of raw samples supporting percentiles as well as moments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    values: Vec<f64>,
    moments: Welford,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.moments.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.moments.std_dev()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        self.moments.std_err()
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// The `p`-th percentile (`0.0..=100.0`) of a sorted copy: the sample at
    /// index `round(p / 100 · (n − 1))`, the nearest sample to the linearly
    /// interpolated rank.
    ///
    /// This is not nearest-rank (`ceil(p / 100 · n)`, what
    /// `cad3_obs::trace::percentile` computes): on `1..=100` its p50 is 51
    /// where nearest-rank gives 50; at p95 both give 95.
    ///
    /// Returns 0 when the set is empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be within [0, 100]");
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Iterates over the raw samples in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.values.iter()
    }

    /// Merges another sample set into this one.
    pub fn merge(&mut self, other: &SampleSet) {
        self.values.extend_from_slice(&other.values);
        self.moments.merge(&other.moments);
    }
}

impl Extend<f64> for SampleSet {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for SampleSet {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = SampleSet::new();
        s.extend(iter);
        s
    }
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `n` equal buckets.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `n == 0`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(lo < hi && n > 0, "histogram needs lo < hi and at least one bucket");
        Histogram {
            lo,
            width: (hi - lo) / n as f64,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width) as usize;
            if idx >= self.buckets.len() {
                self.overflow += 1;
            } else {
                self.buckets[idx] += 1;
            }
        }
    }

    /// Total number of recorded samples (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bucket counts, with each bucket's lower edge.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets.iter().enumerate().map(move |(i, &c)| (self.lo + i as f64 * self.width, c))
    }

    /// Samples below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_moments() {
        let data = [3.1, 4.1, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3];
        let w: Welford = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.sample_variance() - var).abs() < 1e-12);
        assert!((w.std_err() - var.sqrt() / (data.len() as f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.0, 10.0];
        let b_data = [4.0, 5.0, 6.0];
        let mut a: Welford = a_data.iter().copied().collect();
        let b: Welford = b_data.iter().copied().collect();
        a.merge(&b);
        let all: Welford = a_data.iter().chain(b_data.iter()).copied().collect();
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-12);
        assert_eq!(a.count(), 7);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        let b: Welford = [1.0, 2.0].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.mean(), 1.5);
        let mut c: Welford = [3.0].iter().copied().collect();
        c.merge(&Welford::new());
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn sample_set_percentiles() {
        let s: SampleSet = (1..=100).map(|x| x as f64).collect();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 100.0);
        let median = s.percentile(50.0);
        assert!((median - 50.0).abs() <= 1.0, "median {median}");
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn percentile_rounds_the_interpolated_index() {
        let s: SampleSet = (1..=100).map(|x| x as f64).collect();
        // round(0.5 · 99) = 50 → the 51st sample; nearest-rank would say 50.
        assert_eq!(s.percentile(50.0), 51.0);
        // round(0.95 · 99) = 94 → 95, where nearest-rank agrees.
        assert_eq!(s.percentile(95.0), 95.0);
    }

    #[test]
    fn sample_set_empty_defaults() {
        let s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "within [0, 100]")]
    fn percentile_out_of_range_panics() {
        let s: SampleSet = [1.0].iter().copied().collect();
        s.percentile(101.0);
    }

    #[test]
    fn sample_set_merge() {
        let mut a: SampleSet = [1.0, 2.0].iter().copied().collect();
        let b: SampleSet = [3.0, 4.0].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn histogram_buckets_samples() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.6, 9.9, -1.0, 10.0, 25.0] {
            h.record(x);
        }
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[9], 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 7);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn histogram_bad_range_panics() {
        Histogram::new(5.0, 5.0, 4);
    }
}
