//! The column-major micro-batch every model sweeps, and the order key the
//! tree's sweep compares.
//!
//! A fitted model is its own evaluation layout: [`crate::NaiveBayes`],
//! [`crate::DecisionTree`] and [`crate::LogisticRegression`] each evaluate
//! a [`FeatureBatch`], one contiguous column per feature, through
//! `predict_proba_into`, which writes into caller-provided slices and
//! performs no heap allocation (the `hotpaths.toml` contract). Each model
//! also has a per-row entry, `predict_proba_row`, for the scalar detect
//! path: one row of the sweep's operations, in the sweep's order, with no
//! scratch at all, so the two entries return the same bits.
//!
//! The sweeps perform the scalar decision functions' floating-point
//! operations in the scalar order, and `crates/ml/tests/batch_equivalence.rs`
//! holds them bit-identical to plain per-row references kept in the
//! crate's tests. In particular:
//!
//! * Naïve Bayes stores `(mean, var, ln(2π·var))` per class and continuous
//!   feature — the `ln` call is made once at fit (ln of the same input bits
//!   is deterministic), while the division `d·d/var` stays a division:
//!   multiplying by a precomputed `1/var` would round twice and move bits
//!   away from `gaussian_log_pdf`.
//! * The tree stores its thresholds as order-preserving `u64` keys
//!   ([`ord_key`]) beside the `f64`s, and a sweep quantizes each feature
//!   column the same way. The map is an exact order isomorphism, so the
//!   branchless integer compare decides every split exactly as
//!   `row[feature] <= threshold` does.

use crate::MlError;

/// Order-preserving quantization of an `f64` into a `u64` sort key.
///
/// For non-NaN `a`, `b`: `a <= b` iff `ord_key(a) <= ord_key(b)` — the
/// negative range is bit-complemented and the positive range offset past it,
/// after normalising `-0.0` to `+0.0` (they compare equal as floats and must
/// map to the same key). `NaN` maps to `u64::MAX`, which no non-NaN value
/// reaches, so a NaN feature compares greater than every finite threshold —
/// exactly how the scalar `NaN <= t` (false, go right) behaves.
#[inline]
pub fn ord_key(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let x = if x == 0.0 { 0.0 } else { x };
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// A column-major micro-batch of feature rows.
///
/// Rows are appended via [`FeatureBatch::push_row`]; each feature lives in
/// its own contiguous column so a model's sweep reads unit-stride memory. The
/// container is reusable: [`FeatureBatch::clear`] keeps column capacity, so
/// a steady-state detect loop stops allocating once warm.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBatch {
    cols: Vec<Vec<f64>>,
    n_rows: usize,
}

impl FeatureBatch {
    /// An empty batch with `n_features` columns.
    pub fn new(n_features: usize) -> Self {
        FeatureBatch { cols: (0..n_features).map(|_| Vec::new()).collect(), n_rows: 0 }
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows pushed.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Drops all rows, keeping column capacity for reuse.
    pub fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.n_rows = 0;
    }

    /// Appends one row, scattering its features into the columns.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the row width differs
    /// from the column count.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), MlError> {
        if row.len() != self.cols.len() {
            return Err(MlError::DimensionMismatch { expected: self.cols.len(), got: row.len() });
        }
        for (col, &x) in self.cols.iter_mut().zip(row) {
            col.push(x);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Column `f`, or an empty slice when out of range.
    pub fn col(&self, feat: usize) -> &[f64] {
        self.cols.get(feat).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ord_key_is_an_order_isomorphism() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(a <= b, ord_key(a) <= ord_key(b), "a={a}, b={b}");
                assert_eq!(a == b, ord_key(a) == ord_key(b), "a={a}, b={b}");
            }
        }
        // NaN maps to a key strictly above every non-NaN key: the branchless
        // compare then always sends a NaN feature right, as the scalar does.
        for &a in &vals {
            assert!(ord_key(f64::NAN) > ord_key(a));
        }
        assert_eq!(ord_key(f64::NAN), u64::MAX);
    }

    #[test]
    fn feature_batch_reuse_keeps_capacity() {
        let mut b = FeatureBatch::new(2);
        b.push_row(&[1.0, 2.0]).unwrap();
        b.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(b.n_rows(), 2);
        assert_eq!(b.col(0), &[1.0, 3.0]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.col(1), &[] as &[f64]);
        assert!(b.push_row(&[1.0]).is_err());
    }
}
