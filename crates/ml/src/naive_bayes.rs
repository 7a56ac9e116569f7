use crate::dataset::{Dataset, FeatureKind, Schema};
use crate::stats::GaussianStats;
use crate::MlError;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum FeatureModel {
    /// Per-class Gaussian (mean, variance).
    Gaussian { mean: f64, var: f64 },
    /// Laplace-smoothed per-class category log-probabilities.
    Categorical { log_probs: Vec<f64> },
}

/// Hybrid Gaussian / categorical Naïve Bayes classifier.
///
/// This is the model each RSU trains per road type in the paper: continuous
/// features (instantaneous speed, acceleration) get per-class Gaussians,
/// categorical features (hour of day, road type) get Laplace-smoothed
/// frequency tables. Prediction is done in log space and returns calibrated
/// class probabilities via log-sum-exp — the `P_NB` of the paper's Eq. 1.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaiveBayes {
    schema: Schema,
    log_priors: Vec<f64>,
    /// `models[class][feature]`
    models: Vec<Vec<FeatureModel>>,
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
        let n_features = data.schema().len();
        let counts = data.class_counts();
        if let Some(class) = counts.iter().position(|&c| c == 0) {
            return Err(MlError::MissingClass { class });
        }

        let mut gaussians = vec![vec![GaussianStats::new(); n_features]; n_classes];
        let mut cat_counts: Vec<Vec<Vec<u64>>> = (0..n_classes)
            .map(|_| {
                data.schema()
                    .kinds()
                    .map(|k| match k {
                        FeatureKind::Continuous => Vec::new(),
                        FeatureKind::Categorical { cardinality } => vec![0u64; cardinality],
                    })
                    .collect()
            })
            .collect();

        for (row, label) in data.iter() {
            for (f, &x) in row.iter().enumerate() {
                match data.schema().kind(f) {
                    FeatureKind::Continuous => gaussians[label][f].push(x),
                    FeatureKind::Categorical { .. } => cat_counts[label][f][x as usize] += 1,
                }
            }
        }

        let total = data.len() as f64;
        let log_priors = counts.iter().map(|&c| (c as f64 / total).ln()).collect();
        let models = (0..n_classes)
            .map(|c| {
                (0..n_features)
                    .map(|f| match data.schema().kind(f) {
                        FeatureKind::Continuous => FeatureModel::Gaussian {
                            mean: gaussians[c][f].mean(),
                            var: gaussians[c][f].variance(),
                        },
                        FeatureKind::Categorical { cardinality } => {
                            // Laplace (add-one) smoothing.
                            let class_total = counts[c] as f64 + cardinality as f64;
                            let log_probs = cat_counts[c][f]
                                .iter()
                                .map(|&n| ((n as f64 + 1.0) / class_total).ln())
                                .collect();
                            FeatureModel::Categorical { log_probs }
                        }
                    })
                    .collect()
            })
            .collect();

        Ok(NaiveBayes { schema: data.schema().clone(), log_priors, models })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.log_priors.len()
    }

    /// Joint log-likelihood `log P(class) + Σ log P(x_f | class)` per class.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] or [`MlError::InvalidCategory`]
    /// for malformed rows.
    pub fn log_likelihoods(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        self.schema.validate(row)?;
        Ok(self
            .log_priors
            .iter()
            .enumerate()
            .map(|(c, &lp)| {
                lp + row
                    .iter()
                    .enumerate()
                    // hotpath-exempt(panic): model table is (n_classes x n_features) by
                    // construction and the row passed Schema::validate above.
                    .map(|(f, &x)| match &self.models[c][f] {
                        FeatureModel::Gaussian { mean, var } => {
                            crate::stats::gaussian_log_pdf(x, *mean, *var)
                        }
                        // hotpath-exempt(panic): categorical value range-checked by
                        // Schema::validate against the declared cardinality.
                        FeatureModel::Categorical { log_probs } => log_probs[x as usize],
                    })
                    .sum::<f64>()
            })
            .collect())
    }

    /// Posterior class probabilities (normalised with log-sum-exp).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] or [`MlError::InvalidCategory`].
    pub fn predict_proba(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        let ll = self.log_likelihoods(row)?;
        let max = ll.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = ll.iter().map(|&x| (x - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        Ok(exps.into_iter().map(|e| e / sum).collect())
    }

    /// Builds the column-major batch-evaluation plan for this model.
    ///
    /// The plan carries everything prediction needs in sweep-friendly
    /// tables: per-class log-priors, `(mean, var, ln(2π·var))` per
    /// continuous feature (the `ln` hoisted out of the per-record loop) and
    /// the class-major category log-probability tables. Its outputs are
    /// bit-identical to the scalar path — see [`crate::batch`].
    pub fn batch_plan(&self) -> crate::batch::NbBatchPlan {
        use crate::batch::{NbBatchPlan, NbPlanCol};
        let n_classes = self.log_priors.len();
        let mut cols: Vec<NbPlanCol> = self
            .models
            .first()
            .map(|first_class| {
                first_class
                    .iter()
                    .map(|fm| match fm {
                        FeatureModel::Gaussian { .. } => {
                            NbPlanCol::Gaussian { per_class: Vec::with_capacity(n_classes) }
                        }
                        FeatureModel::Categorical { log_probs } => NbPlanCol::Categorical {
                            cardinality: log_probs.len(),
                            log_probs: Vec::with_capacity(n_classes * log_probs.len()),
                        },
                    })
                    .collect()
            })
            .unwrap_or_default();
        for class_models in &self.models {
            for (col, fm) in cols.iter_mut().zip(class_models) {
                match (col, fm) {
                    (NbPlanCol::Gaussian { per_class }, FeatureModel::Gaussian { mean, var }) => {
                        // The hoisted log-normaliser: the exact expression
                        // `gaussian_log_pdf` evaluates per record, computed
                        // once here on the same input bits.
                        per_class.push((*mean, *var, (2.0 * std::f64::consts::PI * var).ln()));
                    }
                    (
                        NbPlanCol::Categorical { log_probs, .. },
                        FeatureModel::Categorical { log_probs: lp },
                    ) => log_probs.extend_from_slice(lp),
                    // A kind mismatch across classes cannot occur for a
                    // fitted model (fit derives every class's column from
                    // the same schema); skip rather than panic.
                    _ => {}
                }
            }
        }
        NbBatchPlan { schema: self.schema.clone(), log_priors: self.log_priors.clone(), cols }
    }

    /// The most probable class.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] or [`MlError::InvalidCategory`].
    pub fn predict(&self, row: &[f64]) -> Result<usize, MlError> {
        let ll = self.log_likelihoods(row)?;
        // Manual argmax: total and panic-free even for empty or NaN inputs
        // (NaN comparisons are simply never `>`, so the running best stands).
        let mut best = 0usize;
        let mut best_ll = f64::NEG_INFINITY;
        for (i, &x) in ll.iter().enumerate() {
            if x > best_ll {
                best = i;
                best_ll = x;
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(nb.predict(&[0.3, -0.2, 0.0]).unwrap(), 0);
        assert_eq!(nb.predict(&[10.2, 4.8, 2.0]).unwrap(), 1);
    }

    #[test]
    fn probabilities_sum_to_one_and_order_correctly() {
        let nb = NaiveBayes::fit(&blob_dataset()).unwrap();
        let p = nb.predict_proba(&[0.1, 0.0, 0.0]).unwrap();
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
        let p = nb.predict_proba(&[5.0]).unwrap();
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
        let p = nb.predict_proba(&[3.0]).unwrap();
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
        assert!(nb.predict(&[1.0]).is_err());
        assert!(nb.predict_proba(&[0.0, 0.0, 99.0]).is_err());
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
        assert_eq!(nb.predict(&[90.0]).unwrap(), 0);
        assert_eq!(nb.predict(&[30.0]).unwrap(), 1);
    }
}
