use std::fmt;

/// A binary confusion matrix with a configurable positive class.
///
/// The paper treats *abnormal* (class 0) as the event of interest: its
/// Table IV reports TP rate and FN rate over abnormal records, and Fig. 7
/// reports accuracy and F1. This type computes all of them.
///
/// # Example
///
/// ```
/// use cad3_ml::ConfusionMatrix;
///
/// // positive class = 0 (abnormal), as in the paper.
/// let truth = [0, 0, 1, 1, 0, 1];
/// let pred  = [0, 1, 1, 1, 0, 0];
/// let cm = ConfusionMatrix::from_pairs(truth.iter().copied().zip(pred.iter().copied()), 0);
/// assert_eq!(cm.true_positives(), 2);
/// assert_eq!(cm.false_negatives(), 1);
/// assert_eq!(cm.false_positives(), 1);
/// assert_eq!(cm.true_negatives(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    tp: u64,
    fp: u64,
    tn: u64,
    fn_: u64,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a matrix from `(truth, prediction)` label pairs, counting
    /// `positive_class` as the positive outcome.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (usize, usize)>,
        positive_class: usize,
    ) -> Self {
        let mut cm = ConfusionMatrix::new();
        for (truth, pred) in pairs {
            cm.record(truth == positive_class, pred == positive_class);
        }
        cm
    }

    /// Records one observation.
    pub fn record(&mut self, truth_positive: bool, predicted_positive: bool) {
        match (truth_positive, predicted_positive) {
            (true, true) => self.tp += 1,
            (true, false) => self.fn_ += 1,
            (false, true) => self.fp += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Correctly detected positives.
    pub fn true_positives(&self) -> u64 {
        self.tp
    }

    /// Negatives wrongly flagged positive.
    pub fn false_positives(&self) -> u64 {
        self.fp
    }

    /// Correctly passed negatives.
    pub fn true_negatives(&self) -> u64 {
        self.tn
    }

    /// Missed positives — the safety-critical quantity the paper minimises.
    pub fn false_negatives(&self) -> u64 {
        self.fn_
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// `(TP + TN) / total`, 0 when empty.
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// `TP / (TP + FP)`, 0 when no positive predictions were made.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// `TP / (TP + FN)`, 0 when there were no positives.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Harmonic mean of precision and recall, 0 when both are 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// TP rate over *all* records, `TP / total` — the convention of the
    /// paper's Table IV, whose TP and FN rates are fractions of the full
    /// evaluated stream rather than of the positive class.
    pub fn tp_rate_overall(&self) -> f64 {
        ratio(self.tp, self.total())
    }

    /// FN rate over *all* records, `FN / total` (see
    /// [`ConfusionMatrix::tp_rate_overall`]).
    pub fn fn_rate_overall(&self) -> f64 {
        ratio(self.fn_, self.total())
    }

    /// Miss rate within the positive class, `FN / (TP + FN)`.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.fn_, self.tp + self.fn_)
    }

    /// False-alarm rate within the negative class, `FP / (FP + TN)`.
    pub fn false_alarm_rate(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tp={} fp={} tn={} fn={} acc={:.4} f1={:.4}",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.accuracy(),
            self.f1()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new();
        for _ in 0..50 {
            cm.record(true, true); // tp
        }
        for _ in 0..10 {
            cm.record(true, false); // fn
        }
        for _ in 0..5 {
            cm.record(false, true); // fp
        }
        for _ in 0..35 {
            cm.record(false, false); // tn
        }
        cm
    }

    #[test]
    fn counts() {
        let cm = sample();
        assert_eq!(cm.true_positives(), 50);
        assert_eq!(cm.false_negatives(), 10);
        assert_eq!(cm.false_positives(), 5);
        assert_eq!(cm.true_negatives(), 35);
        assert_eq!(cm.total(), 100);
    }

    #[test]
    fn derived_metrics() {
        let cm = sample();
        assert!((cm.accuracy() - 0.85).abs() < 1e-12);
        assert!((cm.precision() - 50.0 / 55.0).abs() < 1e-12);
        assert!((cm.recall() - 50.0 / 60.0).abs() < 1e-12);
        let p = 50.0 / 55.0;
        let r = 50.0 / 60.0;
        assert!((cm.f1() - 2.0 * p * r / (p + r)).abs() < 1e-12);
        assert!((cm.tp_rate_overall() - 0.50).abs() < 1e-12);
        assert!((cm.fn_rate_overall() - 0.10).abs() < 1e-12);
        assert!((cm.miss_rate() - 10.0 / 60.0).abs() < 1e-12);
        assert!((cm.false_alarm_rate() - 5.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_all_zeroes_without_nan() {
        let cm = ConfusionMatrix::new();
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.recall(), 0.0);
        assert_eq!(cm.f1(), 0.0);
    }

    #[test]
    fn from_pairs_with_positive_class_zero() {
        // Paper convention: abnormal = class 0 = positive.
        let truth = [0usize, 0, 1, 1];
        let pred = [0usize, 1, 1, 0];
        let cm = ConfusionMatrix::from_pairs(truth.into_iter().zip(pred), 0);
        assert_eq!(cm.true_positives(), 1); // truth 0, pred 0
        assert_eq!(cm.false_negatives(), 1); // truth 0, pred 1
        assert_eq!(cm.false_positives(), 1); // truth 1, pred 0
        assert_eq!(cm.true_negatives(), 1);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.total(), 200);
        assert_eq!(a.true_positives(), 100);
        assert!((a.accuracy() - 0.85).abs() < 1e-12, "rates invariant under merge");
    }

    #[test]
    fn display_contains_counts() {
        let s = sample().to_string();
        assert!(s.contains("tp=50") && s.contains("f1="));
    }
}
