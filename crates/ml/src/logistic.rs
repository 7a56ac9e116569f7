//! Binary logistic regression — the "more complex detection algorithm" the
//! paper leaves as future work, implemented so the CAD3 framework can host
//! it as a drop-in stage-1 model.
//!
//! Continuous features are standardised and paired with a squared term
//! (two-sided anomalies — speeding *and* slowing — are not linearly
//! separable on raw speed); categorical features are one-hot encoded.
//! Training is full-batch gradient descent with L2 regularisation.

use crate::batch::FeatureBatch;
use crate::dataset::{Dataset, FeatureKind, Schema};
use crate::MlError;

/// Hyper-parameters of logistic-regression training.
#[derive(Debug, Clone, Copy, PartialEq)]
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
/// The fit keeps what evaluation reads — standardisation constants, design
/// offsets, weights and bias — for [`LogisticRegression::predict_proba_into`]
/// to sweep column by column and [`LogisticRegression::predict_proba_row`]
/// to read one row at a time.
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
/// let mut p = [0.0; 2];
/// lr.predict_proba_row(&[5.0], &mut p)?;
/// assert!(p[0] > 0.5, "class 0 at 5: {p:?}");
/// lr.predict_proba_row(&[35.0], &mut p)?;
/// assert!(p[1] > 0.5, "class 1 at 35: {p:?}");
/// # Ok::<(), cad3_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
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

    /// Probability of class 1 per row, the sparse design row's dot product
    /// term by term: per feature in order, a continuous column contributes
    /// `w₀·z` then `w₁·z²` (z standardised), a categorical column its
    /// one-hot weight times `1.0`; the bias is added on the left before the
    /// sigmoid. Rows must satisfy the schema (out-of-range categories clamp
    /// deterministically instead of panicking).
    fn p1_into(&self, batch: &FeatureBatch, out: &mut [f64]) -> Result<(), MlError> {
        let rows = batch.n_rows();
        if batch.n_features() != self.schema.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.schema.len(),
                got: batch.n_features(),
            });
        }
        if out.len() != rows {
            return Err(MlError::DimensionMismatch { expected: rows, got: out.len() });
        }
        out.fill(0.0);
        for (feat, kind) in self.schema.kinds().enumerate() {
            let xs = batch.col(feat);
            // hotpath-exempt(panic): `standardise` and `offsets` are one
            // entry per schema column by construction.
            let (mean, std) = self.standardise[feat];
            let off = self.offsets[feat];
            match kind {
                FeatureKind::Continuous => {
                    // hotpath-exempt(panic): the design width counts two
                    // columns per continuous feature starting at `off`.
                    let w0 = self.weights[off];
                    let w1 = self.weights[off + 1];
                    for (a, &x) in out.iter_mut().zip(xs) {
                        let z = (x - mean) / std;
                        *a += w0 * z;
                        *a += w1 * (z * z);
                    }
                }
                FeatureKind::Categorical { cardinality } => {
                    for (a, &x) in out.iter_mut().zip(xs) {
                        let i = (x as usize).min(cardinality - 1);
                        // hotpath-exempt(panic): `off + i` is within the
                        // design width (cardinality one-hot columns at
                        // `off`), `i` clamped above.
                        *a += self.weights[off + i] * 1.0;
                    }
                }
            }
        }
        for a in out.iter_mut() {
            let z = self.bias + *a;
            *a = 1.0 / (1.0 + (-z).exp());
        }
        Ok(())
    }

    /// Class probabilities `[P(0), P(1)]` of one row, into `out`: the
    /// per-row entry of the scalar detect path. It performs the operations
    /// of one row of [`LogisticRegression::predict_proba_into`] in the same
    /// order (terms from `0.0` in feature order, then `bias + acc`, the
    /// sigmoid, then `1 − p`), so it returns the sweep's bits, with no
    /// allocation. Rows must satisfy the schema, as for the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `row` is not as wide as
    /// the schema or `out` is not two long.
    pub fn predict_proba_row(&self, row: &[f64], out: &mut [f64]) -> Result<(), MlError> {
        if row.len() != self.schema.len() {
            return Err(MlError::DimensionMismatch { expected: self.schema.len(), got: row.len() });
        }
        let [p0, p1] = out else {
            return Err(MlError::DimensionMismatch { expected: 2, got: out.len() });
        };
        let mut acc = 0.0;
        for (((kind, &x), &(mean, std)), &off) in
            self.schema.kinds().zip(row).zip(&self.standardise).zip(&self.offsets)
        {
            match kind {
                FeatureKind::Continuous => {
                    let (Some(&w0), Some(&w1)) = (self.weights.get(off), self.weights.get(off + 1))
                    else {
                        continue;
                    };
                    let z = (x - mean) / std;
                    acc += w0 * z;
                    acc += w1 * (z * z);
                }
                FeatureKind::Categorical { cardinality } => {
                    let i = (x as usize).min(cardinality - 1);
                    if let Some(&w) = self.weights.get(off + i) {
                        acc += w * 1.0;
                    }
                }
            }
        }
        let z = self.bias + acc;
        let p = 1.0 / (1.0 + (-z).exp());
        *p0 = 1.0 - p;
        *p1 = p;
        Ok(())
    }

    /// Class probabilities per row, row-major `[1 − p1, p1]`. `p1` is
    /// scratch sized `n_rows`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on any size mismatch.
    pub fn predict_proba_into(
        &self,
        batch: &FeatureBatch,
        p1: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), MlError> {
        self.p1_into(batch, p1)?;
        if out.len() != p1.len() * 2 {
            return Err(MlError::DimensionMismatch { expected: p1.len() * 2, got: out.len() });
        }
        for (dst, &p) in out.chunks_exact_mut(2).zip(p1.iter()) {
            // hotpath-exempt(panic): chunks_exact_mut(2) yields 2-slices.
            dst[0] = 1.0 - p;
            dst[1] = p;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proba(lr: &LogisticRegression, row: &[f64]) -> [f64; 2] {
        let mut p = [0.0; 2];
        lr.predict_proba_row(row, &mut p).unwrap();
        p
    }

    /// The most probable class (`p1 >= 0.5`).
    fn predict(lr: &LogisticRegression, row: &[f64]) -> usize {
        usize::from(proba(lr, row)[1] >= 0.5)
    }

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
        assert_eq!(predict(&lr, &[5.0, 0.0]), 0);
        assert_eq!(predict(&lr, &[55.0, 1.0]), 1);
        let p = proba(&lr, &[5.0, 2.0]);
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
        assert_eq!(predict(&lr, &[4.0, 0.0]), 0);
        assert_eq!(predict(&lr, &[4.0, 1.0]), 1);
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
        assert!(lr.predict_proba_row(&[1.0], &mut [0.0; 2]).is_err());
        assert!(lr.predict_proba_row(&[1.0, 0.0], &mut [0.0; 3]).is_err());
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
        assert_eq!(predict(&lr, &[10_100.0]), 0);
        assert_eq!(predict(&lr, &[19_900.0]), 1);
    }
}
