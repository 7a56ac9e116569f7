use crate::batch::FeatureBatch;
use crate::dataset::{Dataset, FeatureKind};
use crate::stats::GaussianStats;
use crate::MlError;

/// One feature column of a fitted [`NaiveBayes`].
#[derive(Debug, Clone, PartialEq)]
enum NbCol {
    /// `(mean, var, ln(2π·var))` per class: the log-normaliser is computed
    /// once at fit, and the division by `var` stays a division (the bits of
    /// `gaussian_log_pdf`).
    Gaussian { per_class: Vec<(f64, f64, f64)> },
    /// Class-major Laplace-smoothed category log-probabilities: entry
    /// `c * cardinality + v`.
    Categorical { cardinality: usize, log_probs: Vec<f64> },
}

/// Hybrid Gaussian / categorical Naïve Bayes classifier.
///
/// This is the model each RSU trains per road type in the paper: continuous
/// features (instantaneous speed, acceleration) get per-class Gaussians,
/// categorical features (hour of day, road type) get Laplace-smoothed
/// frequency tables. Prediction is done in log space and returns calibrated
/// class probabilities via log-sum-exp — the `P_NB` of the paper's Eq. 1.
///
/// The fitted tables are laid out for evaluation: per-class log-priors,
/// `(mean, var, ln(2π·var))` per continuous column and class-major category
/// tables, swept column by column by [`NaiveBayes::predict_proba_into`] and
/// read one row at a time by [`NaiveBayes::predict_proba_row`].
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayes {
    log_priors: Vec<f64>,
    cols: Vec<NbCol>,
}

impl NaiveBayes {
    /// Fits the model on a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for an empty dataset and
    /// [`MlError::MissingClass`] if any class has no examples (priors and
    /// Gaussians would be undefined).
    pub fn fit(data: &Dataset) -> Result<NaiveBayes, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let n_classes = data.n_classes();
        let counts = data.class_counts();
        if let Some(class) = counts.iter().position(|&c| c == 0) {
            return Err(MlError::MissingClass { class });
        }

        // Per column: a Gaussian per class, or class-major category counts.
        enum Tally {
            Gaussian(Vec<GaussianStats>),
            Categorical(usize, Vec<u64>),
        }
        let mut tallies: Vec<Tally> = data
            .schema()
            .kinds()
            .map(|kind| match kind {
                FeatureKind::Continuous => Tally::Gaussian(vec![GaussianStats::new(); n_classes]),
                FeatureKind::Categorical { cardinality } => {
                    Tally::Categorical(cardinality, vec![0; n_classes * cardinality])
                }
            })
            .collect();
        for (row, label) in data.iter() {
            for (tally, &x) in tallies.iter_mut().zip(row) {
                match tally {
                    Tally::Gaussian(per_class) => {
                        if let Some(g) = per_class.get_mut(label) {
                            g.push(x);
                        }
                    }
                    Tally::Categorical(cardinality, counts) => {
                        if let Some(n) = counts.get_mut(label * *cardinality + x as usize) {
                            *n += 1;
                        }
                    }
                }
            }
        }

        let total = data.len() as f64;
        let log_priors = counts.iter().map(|&c| (c as f64 / total).ln()).collect();
        let cols = tallies
            .into_iter()
            .map(|tally| match tally {
                Tally::Gaussian(per_class) => NbCol::Gaussian {
                    per_class: per_class
                        .iter()
                        .map(|g| {
                            let (mean, var) = (g.mean(), g.variance());
                            (mean, var, (2.0 * std::f64::consts::PI * var).ln())
                        })
                        .collect(),
                },
                Tally::Categorical(cardinality, tally) => NbCol::Categorical {
                    cardinality,
                    // Laplace (add-one) smoothing.
                    log_probs: tally
                        .iter()
                        .zip(counts.iter().flat_map(|&c| std::iter::repeat_n(c, cardinality)))
                        .map(|(&n, class_n)| {
                            ((n as f64 + 1.0) / (class_n as f64 + cardinality as f64)).ln()
                        })
                        .collect(),
                },
            })
            .collect();

        Ok(NaiveBayes { log_priors, cols })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.log_priors.len()
    }

    /// Joint log-likelihoods `log P(class) + Σ log P(x_f | class)` for every
    /// row, class-major: `ll[c * n_rows + r]`.
    ///
    /// Per `(class, row)` cell the terms accumulate from `0.0` in ascending
    /// feature order, each Gaussian term `-0.5 * (ln(2π·var) + d·d/var)` as
    /// `gaussian_log_pdf` evaluates it, then the class log-prior is added on
    /// the left.
    ///
    /// Rows must satisfy the schema the model was fitted on (categorical
    /// values in range); out-of-range categories are clamped to the last
    /// table entry instead of panicking, which is deterministic but not
    /// meaningful — validate rows first where the input is untrusted.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the batch width differs
    /// from the schema or `ll` is not `n_classes * n_rows` long.
    pub fn log_likelihoods_into(
        &self,
        batch: &FeatureBatch,
        ll: &mut [f64],
    ) -> Result<(), MlError> {
        let rows = batch.n_rows();
        let n_classes = self.log_priors.len();
        if batch.n_features() != self.cols.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.cols.len(),
                got: batch.n_features(),
            });
        }
        if ll.len() != n_classes * rows {
            return Err(MlError::DimensionMismatch { expected: n_classes * rows, got: ll.len() });
        }
        ll.fill(0.0);
        for (feat, col) in self.cols.iter().enumerate() {
            let xs = batch.col(feat);
            match col {
                NbCol::Gaussian { per_class } => {
                    for (acc, &(mean, var, ln_2pi_var)) in
                        ll.chunks_exact_mut(rows.max(1)).zip(per_class)
                    {
                        for (a, &x) in acc.iter_mut().zip(xs) {
                            // Same ops, same order as `gaussian_log_pdf`:
                            // -0.5 * (ln(2π·var) + d·d/var), ln hoisted.
                            let d = x - mean;
                            *a += -0.5 * (ln_2pi_var + d * d / var);
                        }
                    }
                }
                NbCol::Categorical { cardinality, log_probs } => {
                    for (acc, table) in
                        ll.chunks_exact_mut(rows.max(1)).zip(log_probs.chunks_exact(*cardinality))
                    {
                        for (a, &x) in acc.iter_mut().zip(xs) {
                            // Clamped gather: in-range values (the documented
                            // precondition) index their own entry; `as usize`
                            // saturates NaN/negatives to 0, so this is total.
                            let i = (x as usize).min(cardinality - 1);
                            // hotpath-exempt(panic): `i < cardinality` by the
                            // clamp above and `table.len() == cardinality` by
                            // chunks_exact.
                            *a += table[i];
                        }
                    }
                }
            }
        }
        // Log-priors last, written `lp + Σ terms` as the joint
        // log-likelihood is (IEEE addition commutes bit-exactly, but keeping
        // the order makes the correspondence auditable by eye).
        #[allow(clippy::assign_op_pattern)]
        for (acc, &lp) in ll.chunks_exact_mut(rows.max(1)).zip(&self.log_priors) {
            for a in acc.iter_mut() {
                *a = lp + *a;
            }
        }
        Ok(())
    }

    /// Posterior class probabilities (normalised with log-sum-exp),
    /// row-major: `out[r * n_classes + c]`.
    ///
    /// Per row: a max-fold from `NEG_INFINITY` via `f64::max` in class
    /// order, exponentials in class order, a sum folded from `0.0`, then
    /// each exponential divided by it.
    ///
    /// `ll` is scratch sized `n_classes * n_rows`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on any size mismatch.
    pub fn predict_proba_into(
        &self,
        batch: &FeatureBatch,
        ll: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), MlError> {
        self.log_likelihoods_into(batch, ll)?;
        let rows = batch.n_rows();
        let n_classes = self.log_priors.len();
        if out.len() != rows * n_classes {
            return Err(MlError::DimensionMismatch { expected: rows * n_classes, got: out.len() });
        }
        for (r, dst) in out.chunks_exact_mut(n_classes.max(1)).enumerate() {
            let mut max = f64::NEG_INFINITY;
            for c in 0..n_classes {
                // hotpath-exempt(panic): `c * rows + r` < n_classes * rows ==
                // ll.len(), checked by log_likelihoods_into above.
                max = f64::max(max, ll[c * rows + r]);
            }
            let mut sum = 0.0;
            for (c, e) in dst.iter_mut().enumerate() {
                // hotpath-exempt(panic): same bound as the max fold above.
                *e = (ll[c * rows + r] - max).exp();
                sum += *e;
            }
            for e in dst.iter_mut() {
                *e /= sum;
            }
        }
        Ok(())
    }

    /// Posterior class probabilities of one row, into `out` (one entry per
    /// class): the per-row entry of the scalar detect path.
    ///
    /// Each class performs exactly the operations of one cell of
    /// [`NaiveBayes::log_likelihoods_into`] and one row of
    /// [`NaiveBayes::predict_proba_into`], in the same order: the terms
    /// accumulate from `0.0` in feature order, then `lp + acc`, then the
    /// max-fold, the exponentials and the divide. So it returns the sweep's
    /// bits, with no scratch and no allocation. Rows must satisfy the model's
    /// schema, as for the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `row` is not as wide as
    /// the schema or `out` is not `n_classes` long.
    pub fn predict_proba_row(&self, row: &[f64], out: &mut [f64]) -> Result<(), MlError> {
        if row.len() != self.cols.len() {
            return Err(MlError::DimensionMismatch { expected: self.cols.len(), got: row.len() });
        }
        if out.len() != self.log_priors.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.log_priors.len(),
                got: out.len(),
            });
        }
        for (c, (ll, &lp)) in out.iter_mut().zip(&self.log_priors).enumerate() {
            let mut acc = 0.0;
            for (col, &x) in self.cols.iter().zip(row) {
                match col {
                    NbCol::Gaussian { per_class } => {
                        if let Some(&(mean, var, ln_2pi_var)) = per_class.get(c) {
                            let d = x - mean;
                            acc += -0.5 * (ln_2pi_var + d * d / var);
                        }
                    }
                    NbCol::Categorical { cardinality, log_probs } => {
                        let i = (x as usize).min(cardinality - 1);
                        if let Some(&term) = log_probs.get(c * cardinality + i) {
                            acc += term;
                        }
                    }
                }
            }
            *ll = lp + acc;
        }
        let max = out.iter().fold(f64::NEG_INFINITY, |max, &ll| f64::max(max, ll));
        let mut sum = 0.0;
        for e in out.iter_mut() {
            *e = (*e - max).exp();
            sum += *e;
        }
        for e in out.iter_mut() {
            *e /= sum;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Schema;

    fn proba(nb: &NaiveBayes, row: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; nb.n_classes()];
        nb.predict_proba_row(row, &mut p).unwrap();
        p
    }

    /// The most probable class.
    fn predict(nb: &NaiveBayes, row: &[f64]) -> usize {
        let p = proba(nb, row);
        (0..p.len()).fold(0, |best, c| if p[c] > p[best] { c } else { best })
    }

    fn blob_dataset() -> Dataset {
        // Class 0 around (0, 0), class 1 around (10, 5); plus a categorical
        // column correlated with the class.
        let schema = Schema::new(vec![
            FeatureKind::Continuous,
            FeatureKind::Continuous,
            FeatureKind::Categorical { cardinality: 3 },
        ]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..100 {
            let jitter = (i % 10) as f64 * 0.1;
            ds.push(&[jitter, -jitter, (i % 2) as f64], 0).unwrap();
            ds.push(&[10.0 + jitter, 5.0 - jitter, 2.0], 1).unwrap();
        }
        ds
    }

    #[test]
    fn separable_blobs_classify_perfectly() {
        let nb = NaiveBayes::fit(&blob_dataset()).unwrap();
        assert_eq!(predict(&nb, &[0.3, -0.2, 0.0]), 0);
        assert_eq!(predict(&nb, &[10.2, 4.8, 2.0]), 1);
    }

    #[test]
    fn probabilities_sum_to_one_and_order_correctly() {
        let nb = NaiveBayes::fit(&blob_dataset()).unwrap();
        let p = proba(&nb, &[0.1, 0.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > 0.99, "confident on a deep in-class point: {p:?}");
    }

    #[test]
    fn priors_reflect_imbalance() {
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        // Identical feature distributions, 9:1 class imbalance -> posterior
        // follows the prior.
        for i in 0..90 {
            ds.push(&[(i % 10) as f64], 0).unwrap();
        }
        for i in 0..10 {
            ds.push(&[(i % 10) as f64], 1).unwrap();
        }
        let nb = NaiveBayes::fit(&ds).unwrap();
        let p = proba(&nb, &[5.0]);
        assert!(p[0] > 0.7, "prior should dominate: {p:?}");
    }

    #[test]
    fn unseen_category_survives_via_laplace_smoothing() {
        let schema = Schema::new(vec![FeatureKind::Categorical { cardinality: 4 }]);
        let mut ds = Dataset::new(schema, 2);
        for _ in 0..10 {
            ds.push(&[0.0], 0).unwrap();
            ds.push(&[1.0], 1).unwrap();
        }
        let nb = NaiveBayes::fit(&ds).unwrap();
        // Category 3 was never seen; probabilities stay finite and uniform.
        let p = proba(&nb, &[3.0]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p[0] - 0.5).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = Dataset::new(Schema::new(vec![FeatureKind::Continuous]), 2);
        assert_eq!(NaiveBayes::fit(&ds).unwrap_err(), MlError::EmptyDataset);
    }

    #[test]
    fn missing_class_rejected() {
        let mut ds = Dataset::new(Schema::new(vec![FeatureKind::Continuous]), 2);
        ds.push(&[1.0], 0).unwrap();
        assert_eq!(NaiveBayes::fit(&ds).unwrap_err(), MlError::MissingClass { class: 1 });
    }

    #[test]
    fn malformed_row_rejected_at_predict() {
        let nb = NaiveBayes::fit(&blob_dataset()).unwrap();
        assert!(nb.predict_proba_row(&[1.0], &mut [0.0; 2]).is_err());
        assert!(nb.predict_proba_row(&[0.0, 0.0, 1.0], &mut [0.0; 3]).is_err());
    }

    #[test]
    fn speeding_scenario_like_paper() {
        // Motorway-link speeds: normal ~N(30, 5), abnormal drawn far out.
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..200 {
            let x = 30.0 + ((i % 21) as f64 - 10.0) / 2.0;
            ds.push(&[x], 1).unwrap(); // class 1 = normal
        }
        for i in 0..50 {
            ds.push(&[80.0 + (i % 10) as f64], 0).unwrap(); // speeding
        }
        for i in 0..50 {
            ds.push(&[2.0 + (i % 5) as f64], 0).unwrap(); // crawling
        }
        let nb = NaiveBayes::fit(&ds).unwrap();
        // A driver at 90 km/h where most drive ~30 is classified abnormal,
        // exactly the paper's Section IV-C example.
        assert_eq!(predict(&nb, &[90.0]), 0);
        assert_eq!(predict(&nb, &[30.0]), 1);
    }
}
