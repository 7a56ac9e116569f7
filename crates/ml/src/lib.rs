//! Lightweight machine-learning substrate — the reproduction's stand-in for
//! Spark MLlib.
//!
//! The paper deliberately uses two simple, explainable classifiers: a Naïve
//! Bayes model per road type for standalone detection (AD3) and a Decision
//! Tree that fuses collaboration features for CAD3. This crate implements
//! both from scratch, plus dataset handling and the evaluation metrics the
//! paper reports (accuracy, F1, TP rate, FN rate).
//!
//! * [`Dataset`] / [`Schema`] / [`FeatureKind`] — feature matrices with
//!   mixed continuous (speed, acceleration) and categorical (hour, road
//!   type) columns.
//! * [`NaiveBayes`] — hybrid Gaussian/categorical NB with Laplace smoothing.
//! * [`DecisionTree`] — CART with Gini impurity.
//! * [`LogisticRegression`] — the binary logistic model of the future-work
//!   detector.
//! * [`ConfusionMatrix`] — binary metrics.
//!
//! Each model's `fit` writes the layout its decision function reads, and
//! the model has two entries to it: `predict_proba_into`, a column-major
//! sweep over a [`FeatureBatch`] into caller-provided buffers, and
//! `predict_proba_row`, the same operations on one row (see [`batch`]).
//!
//! # Example
//!
//! ```
//! use cad3_ml::{Dataset, FeatureKind, NaiveBayes, Schema};
//!
//! // Two Gaussian blobs on one continuous feature.
//! let schema = Schema::new(vec![FeatureKind::Continuous]);
//! let mut ds = Dataset::new(schema, 2);
//! for i in 0..50 {
//!     ds.push(&[i as f64 * 0.01], 0)?;
//!     ds.push(&[10.0 + i as f64 * 0.01], 1)?;
//! }
//! let nb = NaiveBayes::fit(&ds)?;
//! let mut p = [0.0; 2];
//! nb.predict_proba_row(&[0.2], &mut p)?;
//! assert!(p[0] > 0.99, "class 0 at 0.2: {p:?}");
//! nb.predict_proba_row(&[10.3], &mut p)?;
//! assert!(p[1] > 0.99, "class 1 at 10.3: {p:?}");
//! # Ok::<(), cad3_ml::MlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod dataset;
mod decision_tree;
mod error;
mod logistic;
mod metrics;
mod naive_bayes;
mod stats;

pub use batch::FeatureBatch;
pub use dataset::{Dataset, FeatureKind, Schema};
pub use decision_tree::{DecisionTree, DecisionTreeParams, TreeNode};
pub use error::MlError;
pub use logistic::{LogisticParams, LogisticRegression};
pub use metrics::ConfusionMatrix;
pub use naive_bayes::NaiveBayes;
pub use stats::{gaussian_log_pdf, GaussianStats};
