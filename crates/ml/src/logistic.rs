//! Binary logistic regression — the "more complex detection algorithm" the
//! paper leaves as future work, implemented so the CAD3 framework can host
//! it as a drop-in stage-1 model.
//!
//! Continuous features are standardised and paired with a squared term
//! (two-sided anomalies — speeding *and* slowing — are not linearly
//! separable on raw speed); categorical features are one-hot encoded.
//! Training is full-batch gradient descent with L2 regularisation.

use crate::dataset::{Dataset, FeatureKind, Schema};
use crate::MlError;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of logistic-regression training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogisticParams {
    /// Gradient-descent epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 regularisation strength.
    pub l2: f64,
}

impl Default for LogisticParams {
    fn default() -> Self {
        LogisticParams { epochs: 200, learning_rate: 0.3, l2: 1e-4 }
    }
}

/// A binary logistic-regression classifier over the same mixed
/// continuous/categorical rows as [`crate::NaiveBayes`].
///
/// # Example
///
/// ```
/// use cad3_ml::{Dataset, FeatureKind, LogisticParams, LogisticRegression, Schema};
///
/// let schema = Schema::new(vec![FeatureKind::Continuous]);
/// let mut ds = Dataset::new(schema, 2);
/// for i in 0..40 {
///     ds.push(&[i as f64], usize::from(i >= 20))?;
/// }
/// let lr = LogisticRegression::fit(&ds, LogisticParams::default())?;
/// assert_eq!(lr.predict(&[5.0])?, 0);
/// assert_eq!(lr.predict(&[35.0])?, 1);
/// # Ok::<(), cad3_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    schema: Schema,
    /// Per input column: mean/std for continuous (one-hot columns use 0/1).
    standardise: Vec<(f64, f64)>,
    /// Expanded design width per input column.
    offsets: Vec<usize>,
    weights: Vec<f64>,
    bias: f64,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl LogisticRegression {
    /// Fits the model.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for an empty dataset,
    /// [`MlError::InvalidLabel`] if the dataset is not binary, and
    /// [`MlError::MissingClass`] when a class has no examples.
    pub fn fit(data: &Dataset, params: LogisticParams) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if data.n_classes() != 2 {
            return Err(MlError::InvalidLabel { label: data.n_classes(), n_classes: 2 });
        }
        let counts = data.class_counts();
        if let Some(class) = counts.iter().position(|&c| c == 0) {
            return Err(MlError::MissingClass { class });
        }

        // Design layout: continuous -> standardised column + squared
        // column; categorical with cardinality k -> k one-hot columns.
        let schema = data.schema().clone();
        let mut offsets = Vec::with_capacity(schema.len());
        let mut width = 0usize;
        for kind in schema.kinds() {
            offsets.push(width);
            width += match kind {
                FeatureKind::Continuous => 2,
                FeatureKind::Categorical { cardinality } => cardinality,
            };
        }
        // Standardisation constants from the training data.
        let n = data.len() as f64;
        let mut standardise = vec![(0.0, 1.0); schema.len()];
        for (f, kind) in schema.kinds().enumerate() {
            if kind == FeatureKind::Continuous {
                let mean = data.iter().map(|(row, _)| row[f]).sum::<f64>() / n;
                let var = data.iter().map(|(row, _)| (row[f] - mean).powi(2)).sum::<f64>() / n;
                standardise[f] = (mean, var.sqrt().max(1e-9));
            }
        }

        let mut model = LogisticRegression {
            schema,
            standardise,
            offsets,
            weights: vec![0.0; width],
            bias: 0.0,
        };
        let designs: Vec<(Vec<(usize, f64)>, f64)> =
            data.iter().map(|(row, label)| (model.design_row(row), label as f64)).collect();

        for _ in 0..params.epochs {
            let mut grad_w = vec![0.0; width];
            let mut grad_b = 0.0;
            for (design, y) in &designs {
                let z = model.bias + design.iter().map(|(i, x)| model.weights[*i] * x).sum::<f64>();
                let err = sigmoid(z) - y;
                for (i, x) in design {
                    grad_w[*i] += err * x;
                }
                grad_b += err;
            }
            let scale = params.learning_rate / n;
            for (w, g) in model.weights.iter_mut().zip(&grad_w) {
                *w -= scale * (g + params.l2 * *w);
            }
            model.bias -= scale * grad_b;
        }
        Ok(model)
    }

    /// Sparse standardised design row: `(column, value)` pairs.
    fn design_row(&self, row: &[f64]) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(row.len());
        for (f, (kind, &x)) in self.schema.kinds().zip(row).enumerate() {
            match kind {
                FeatureKind::Continuous => {
                    let (mean, std) = self.standardise[f];
                    let z = (x - mean) / std;
                    out.push((self.offsets[f], z));
                    // Squared term: lets the linear model carve out a
                    // central "normal" band with abnormal tails.
                    out.push((self.offsets[f] + 1, z * z));
                }
                FeatureKind::Categorical { .. } => {
                    out.push((self.offsets[f] + x as usize, 1.0));
                }
            }
        }
        out
    }

    /// Builds the column-major batch-evaluation plan for this model.
    ///
    /// The plan copies the standardisation constants, design offsets and
    /// weights so evaluation can sweep whole feature columns without the
    /// per-record sparse design row. Outputs are bit-identical to the
    /// scalar path — see [`crate::batch`].
    pub fn batch_plan(&self) -> crate::batch::LrBatchPlan {
        crate::batch::LrBatchPlan {
            schema: self.schema.clone(),
            standardise: self.standardise.clone(),
            offsets: self.offsets.clone(),
            weights: self.weights.clone(),
            bias: self.bias,
        }
    }

    /// Probability of class 1.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] or [`MlError::InvalidCategory`].
    pub fn predict_proba_one(&self, row: &[f64]) -> Result<f64, MlError> {
        self.schema.validate(row)?;
        let z =
            self.bias + self.design_row(row).iter().map(|(i, x)| self.weights[*i] * x).sum::<f64>();
        Ok(sigmoid(z))
    }

    /// Class probabilities `[P(0), P(1)]`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LogisticRegression::predict_proba_one`].
    pub fn predict_proba(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        let p1 = self.predict_proba_one(row)?;
        Ok(vec![1.0 - p1, p1])
    }

    /// The most probable class.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LogisticRegression::predict_proba_one`].
    pub fn predict(&self, row: &[f64]) -> Result<usize, MlError> {
        Ok(usize::from(self.predict_proba_one(row)? >= 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> Dataset {
        let schema =
            Schema::new(vec![FeatureKind::Continuous, FeatureKind::Categorical { cardinality: 3 }]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..120 {
            let x = (i % 60) as f64;
            let label = usize::from(x >= 30.0);
            ds.push(&[x, (i % 3) as f64], label).unwrap();
        }
        ds
    }

    #[test]
    fn separates_linear_data() {
        let lr = LogisticRegression::fit(&separable(), LogisticParams::default()).unwrap();
        assert_eq!(lr.predict(&[5.0, 0.0]).unwrap(), 0);
        assert_eq!(lr.predict(&[55.0, 1.0]).unwrap(), 1);
        let p = lr.predict_proba(&[5.0, 2.0]).unwrap();
        assert!((p[0] + p[1] - 1.0).abs() < 1e-12);
        assert!(p[0] > 0.8, "{p:?}");
    }

    #[test]
    fn categorical_signal_is_used() {
        // Label depends only on the categorical column.
        let schema =
            Schema::new(vec![FeatureKind::Continuous, FeatureKind::Categorical { cardinality: 2 }]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..100 {
            let cat = i % 2;
            ds.push(&[(i % 10) as f64, cat as f64], cat).unwrap();
        }
        let lr = LogisticRegression::fit(&ds, LogisticParams::default()).unwrap();
        assert_eq!(lr.predict(&[4.0, 0.0]).unwrap(), 0);
        assert_eq!(lr.predict(&[4.0, 1.0]).unwrap(), 1);
    }

    #[test]
    fn rejects_empty_and_one_sided() {
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let ds = Dataset::new(schema.clone(), 2);
        assert_eq!(
            LogisticRegression::fit(&ds, LogisticParams::default()).unwrap_err(),
            MlError::EmptyDataset
        );
        let mut one_sided = Dataset::new(schema.clone(), 2);
        one_sided.push(&[1.0], 0).unwrap();
        assert_eq!(
            LogisticRegression::fit(&one_sided, LogisticParams::default()).unwrap_err(),
            MlError::MissingClass { class: 1 }
        );
        let mut three = Dataset::new(schema, 3);
        three.push(&[1.0], 0).unwrap();
        three.push(&[2.0], 1).unwrap();
        three.push(&[3.0], 2).unwrap();
        assert!(LogisticRegression::fit(&three, LogisticParams::default()).is_err());
    }

    #[test]
    fn malformed_rows_rejected() {
        let lr = LogisticRegression::fit(&separable(), LogisticParams::default()).unwrap();
        assert!(lr.predict(&[1.0]).is_err());
        assert!(lr.predict(&[1.0, 9.0]).is_err());
    }

    #[test]
    fn standardisation_handles_large_scales() {
        // Features in the thousands still converge thanks to standardising.
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..100 {
            ds.push(&[10_000.0 + i as f64 * 100.0], usize::from(i >= 50)).unwrap();
        }
        let lr = LogisticRegression::fit(&ds, LogisticParams::default()).unwrap();
        assert_eq!(lr.predict(&[10_100.0]).unwrap(), 0);
        assert_eq!(lr.predict(&[19_900.0]).unwrap(), 1);
    }
}
