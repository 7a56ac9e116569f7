use crate::MlError;
use serde::{Deserialize, Serialize};

/// Kind of a feature column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureKind {
    /// A real-valued feature (speed, acceleration, fused probability).
    Continuous,
    /// An integer-coded categorical feature with the given cardinality
    /// (hour of day = 24, road type = 10, predicted class = 2).
    Categorical {
        /// Number of distinct categories; values must lie in
        /// `0..cardinality`.
        cardinality: usize,
    },
}

/// Column schema of a feature matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    kinds: Vec<FeatureKind>,
}

impl Schema {
    /// Creates a schema from column kinds.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or a categorical column has zero
    /// cardinality.
    pub fn new(kinds: Vec<FeatureKind>) -> Self {
        assert!(!kinds.is_empty(), "schema needs at least one feature");
        for k in &kinds {
            if let FeatureKind::Categorical { cardinality } = k {
                assert!(*cardinality > 0, "categorical features need cardinality >= 1");
            }
        }
        Schema { kinds }
    }

    /// Number of feature columns.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the schema has no columns (never true for a constructed
    /// schema).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Kind of column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn kind(&self, i: usize) -> FeatureKind {
        self.kinds[i]
    }

    /// Iterates over the column kinds.
    pub fn kinds(&self) -> impl Iterator<Item = FeatureKind> + '_ {
        self.kinds.iter().copied()
    }

    /// Validates one row against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] or
    /// [`MlError::InvalidCategory`].
    pub fn validate(&self, row: &[f64]) -> Result<(), MlError> {
        if row.len() != self.kinds.len() {
            return Err(MlError::DimensionMismatch { expected: self.kinds.len(), got: row.len() });
        }
        for (i, (&x, kind)) in row.iter().zip(self.kinds.iter()).enumerate() {
            if let FeatureKind::Categorical { cardinality } = kind {
                if x < 0.0 || x.fract() != 0.0 || (x as usize) >= *cardinality {
                    return Err(MlError::InvalidCategory {
                        feature: i,
                        value: x,
                        cardinality: *cardinality,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A labelled feature matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    schema: Schema,
    rows: Vec<Vec<f64>>,
    labels: Vec<usize>,
    n_classes: usize,
}

impl Dataset {
    /// Creates an empty dataset.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes == 0`.
    pub fn new(schema: Schema, n_classes: usize) -> Self {
        assert!(n_classes > 0, "dataset needs at least one class");
        Dataset { schema, rows: Vec::new(), labels: Vec::new(), n_classes }
    }

    /// Appends one labelled row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`], [`MlError::InvalidCategory`]
    /// or [`MlError::InvalidLabel`].
    pub fn push(&mut self, row: Vec<f64>, label: usize) -> Result<(), MlError> {
        self.schema.validate(&row)?;
        if label >= self.n_classes {
            return Err(MlError::InvalidLabel { label, n_classes: self.n_classes });
        }
        self.rows.push(row);
        self.labels.push(label);
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// Label of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Iterates over `(row, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], usize)> {
        self.rows.iter().map(Vec::as_slice).zip(self.labels.iter().copied())
    }

    /// Per-class row counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![FeatureKind::Continuous, FeatureKind::Categorical { cardinality: 24 }])
    }

    #[test]
    fn push_and_read_back() {
        let mut ds = Dataset::new(schema(), 2);
        ds.push(vec![1.5, 8.0], 1).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.row(0), &[1.5, 8.0]);
        assert_eq!(ds.label(0), 1);
        assert_eq!(ds.n_classes(), 2);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut ds = Dataset::new(schema(), 2);
        let err = ds.push(vec![1.0], 0).unwrap_err();
        assert_eq!(err, MlError::DimensionMismatch { expected: 2, got: 1 });
    }

    #[test]
    fn invalid_category_rejected() {
        let mut ds = Dataset::new(schema(), 2);
        assert!(matches!(
            ds.push(vec![1.0, 24.0], 0).unwrap_err(),
            MlError::InvalidCategory { feature: 1, .. }
        ));
        assert!(matches!(ds.push(vec![1.0, 3.5], 0).unwrap_err(), MlError::InvalidCategory { .. }));
        assert!(matches!(
            ds.push(vec![1.0, -1.0], 0).unwrap_err(),
            MlError::InvalidCategory { .. }
        ));
    }

    #[test]
    fn invalid_label_rejected() {
        let mut ds = Dataset::new(schema(), 2);
        assert_eq!(
            ds.push(vec![1.0, 0.0], 2).unwrap_err(),
            MlError::InvalidLabel { label: 2, n_classes: 2 }
        );
    }

    #[test]
    fn class_counts() {
        let mut ds = Dataset::new(schema(), 3);
        for (x, l) in [(0.0, 0), (1.0, 1), (2.0, 1), (3.0, 2)] {
            ds.push(vec![x, 0.0], l).unwrap();
        }
        assert_eq!(ds.class_counts(), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn empty_schema_panics() {
        Schema::new(vec![]);
    }
}
