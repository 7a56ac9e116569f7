//! Statistics helpers used to aggregate measurements.
//!
//! The paper reports means with standard-error bars (Fig. 6);
//! [`SampleSet`] keeps raw samples for percentiles beside numerically
//! stable running moments (Welford's algorithm).

/// A bag of raw samples supporting percentiles as well as moments.
///
/// The mean and the sum of squared deviations are kept as running moments
/// (Welford's algorithm; Chan's update on [`merge`](Self::merge)), so they
/// stay numerically stable however many samples arrive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    values: Vec<f64>,
    mean: f64,
    m2: f64,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        let delta = x - self.mean;
        self.mean += delta / self.values.len() as f64;
        self.m2 += delta * (x - self.mean);
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
        self.mean
    }

    /// Sample (Bessel-corrected) standard deviation (0 with fewer than 2
    /// samples).
    pub fn std_dev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            0.0
        } else {
            (self.m2 / (n - 1) as f64).sqrt()
        }
    }

    /// Standard error of the mean (`s / sqrt(n)`), the paper's error bars.
    pub fn std_err(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.std_dev() / (self.values.len() as f64).sqrt()
        }
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

    /// Merges another sample set into this one (Chan's parallel update of
    /// the moments).
    pub fn merge(&mut self, other: &SampleSet) {
        let (n, m) = (self.values.len(), other.values.len());
        if n == 0 {
            self.mean = other.mean;
            self.m2 = other.m2;
        } else if m > 0 {
            let total = (n + m) as f64;
            let delta = other.mean - self.mean;
            self.m2 += other.m2 + delta * delta * (n as f64 * m as f64) / total;
            self.mean += delta * m as f64 / total;
        }
        self.values.extend_from_slice(&other.values);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_set_moments_match_two_pass() {
        let data = [3.1, 4.1, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3];
        let s: SampleSet = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.std_dev() - var.sqrt()).abs() < 1e-12);
        assert!((s.std_err() - var.sqrt() / (data.len() as f64).sqrt()).abs() < 1e-12);
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
        let all: SampleSet = [1.0, 2.0, 3.0, 4.0].iter().copied().collect();
        assert!((a.std_dev() - all.std_dev()).abs() < 1e-12);
        let mut empty = SampleSet::new();
        empty.merge(&b);
        assert_eq!((empty.mean(), empty.std_dev()), (b.mean(), b.std_dev()));
    }
}
