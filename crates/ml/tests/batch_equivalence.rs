//! Property-based bit-identity of the models against the per-row
//! references in `support`: for random training sets and random feature
//! batches, each model's fit and its two evaluation entries — the
//! column-major sweep (`predict_proba_into`, and Naïve Bayes'
//! `log_likelihoods_into`) and the per-row `predict_proba_row` — must give
//! the reference's log-likelihoods, probabilities and leaf distributions
//! bit for bit. This is what keeps the byte-stable `results/` artifacts
//! safe when the RSU detect loop and the scalar detectors run through the
//! models' evaluation layout.

mod support;

use cad3_ml::{
    Dataset, DecisionTree, DecisionTreeParams, FeatureBatch, FeatureKind, LogisticParams,
    LogisticRegression, NaiveBayes, Schema,
};
use proptest::prelude::*;
use support::{Node, RefLogistic, RefNaiveBayes};
fn schema() -> Schema {
    Schema::new(vec![
        FeatureKind::Continuous,
        FeatureKind::Continuous,
        FeatureKind::Categorical { cardinality: 5 },
    ])
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec((-100.0f64..100.0, -10.0f64..10.0, 0u8..5, 0usize..2), 20..120).prop_map(
        |rows| {
            let mut ds = Dataset::new(schema(), 2);
            for (i, (a, b, c, label)) in rows.iter().enumerate() {
                // Force both classes to exist so fitting cannot fail.
                let label = if i == 0 {
                    0
                } else if i == 1 {
                    1
                } else {
                    *label
                };
                ds.push(&[*a, *b, *c as f64], label).unwrap();
            }
            ds
        },
    )
}

/// Random schema-valid probe rows, wider-ranged than the training data so
/// deep distribution tails (extreme log-likelihoods) are exercised too.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec((-500.0f64..500.0, -50.0f64..50.0, 0u8..5), 1..80)
        .prop_map(|rows| rows.into_iter().map(|(a, b, c)| vec![a, b, c as f64]).collect())
}

fn batch_of(rows: &[Vec<f64>]) -> FeatureBatch {
    let mut b = FeatureBatch::new(3);
    for r in rows {
        b.push_row(r).unwrap();
    }
    b
}

proptest! {
    /// The NB sweep's log-likelihoods and posteriors, and its per-row
    /// entry, are the reference's bits.
    #[test]
    fn nb_is_bit_identical(ds in arb_dataset(), rows in arb_rows()) {
        let nb = NaiveBayes::fit(&ds).unwrap();
        let reference = RefNaiveBayes::fit(&ds);
        let batch = batch_of(&rows);
        let n = rows.len();
        let mut ll = vec![0.0; 2 * n];
        let mut proba = vec![0.0; 2 * n];
        nb.predict_proba_into(&batch, &mut ll, &mut proba).unwrap();
        let mut ll_only = vec![0.0; 2 * n];
        nb.log_likelihoods_into(&batch, &mut ll_only).unwrap();
        for (r, row) in rows.iter().enumerate() {
            let r_ll = reference.log_likelihoods(row);
            let r_proba = reference.predict_proba(row);
            let mut one = [0.0; 2];
            nb.predict_proba_row(row, &mut one).unwrap();
            for c in 0..2 {
                prop_assert_eq!(r_ll[c].to_bits(), ll[c * n + r].to_bits());
                prop_assert_eq!(r_ll[c].to_bits(), ll_only[c * n + r].to_bits());
                prop_assert_eq!(r_proba[c].to_bits(), proba[r * 2 + c].to_bits());
                prop_assert_eq!(r_proba[c].to_bits(), one[c].to_bits());
            }
        }
        let mut short = [0.0; 1];
        prop_assert!(nb.predict_proba_row(&rows[0], &mut short).is_err());
        prop_assert!(nb.predict_proba_row(&rows[0][..2], &mut [0.0; 2]).is_err());
    }

    /// The tree's sweep and its per-row entry land on the reference walk's
    /// leaf, across hyper-parameters that grow both stumps and deep trees.
    #[test]
    fn tree_is_bit_identical(
        ds in arb_dataset(),
        rows in arb_rows(),
        max_depth in 0usize..10,
        max_thresholds in 2usize..40,
    ) {
        let params = DecisionTreeParams {
            max_depth,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_thresholds,
        };
        let tree = DecisionTree::fit(&ds, params).unwrap();
        let reference = Node::fit(&ds, &params);
        let batch = batch_of(&rows);
        let n = rows.len();
        let mut keys = vec![0u64; 3 * n];
        let mut cur = vec![0u32; n];
        let mut proba = vec![0.0; 2 * n];
        tree.predict_proba_into(&batch, &mut keys, &mut cur, &mut proba).unwrap();
        for (r, row) in rows.iter().enumerate() {
            let leaf = reference.leaf(row);
            let one = tree.predict_proba_row(row).unwrap();
            prop_assert_eq!(leaf.len(), 2);
            prop_assert_eq!(one.len(), 2);
            for c in 0..2 {
                prop_assert_eq!(leaf[c].to_bits(), proba[r * 2 + c].to_bits());
                prop_assert_eq!(leaf[c].to_bits(), one[c].to_bits());
            }
        }
        prop_assert!(tree.predict_proba_row(&rows[0][..2]).is_err());
    }

    /// The logistic sweep's class-1 probabilities and posteriors, and its
    /// per-row entry, are the reference's bits.
    #[test]
    fn lr_is_bit_identical(ds in arb_dataset(), rows in arb_rows()) {
        let lr = LogisticRegression::fit(&ds, LogisticParams::default()).unwrap();
        let reference = RefLogistic::fit(&ds, LogisticParams::default());
        let batch = batch_of(&rows);
        let n = rows.len();
        let mut p1 = vec![0.0; n];
        let mut proba = vec![0.0; 2 * n];
        lr.predict_proba_into(&batch, &mut p1, &mut proba).unwrap();
        for (r, row) in rows.iter().enumerate() {
            prop_assert_eq!(reference.predict_proba_one(row).to_bits(), p1[r].to_bits());
            let r_proba = reference.predict_proba(row);
            let mut one = [0.0; 2];
            lr.predict_proba_row(row, &mut one).unwrap();
            for c in 0..2 {
                prop_assert_eq!(r_proba[c].to_bits(), proba[r * 2 + c].to_bits());
                prop_assert_eq!(r_proba[c].to_bits(), one[c].to_bits());
            }
        }
        prop_assert!(lr.predict_proba_row(&rows[0], &mut [0.0; 3]).is_err());
        prop_assert!(lr.predict_proba_row(&rows[0][..2], &mut [0.0; 2]).is_err());
    }

    /// The ordinal threshold key the tree compares decides `x <= t`
    /// exactly as the `f64` compare, including signed zeros, infinities
    /// and NaN probe values (thresholds are never NaN in a fitted tree).
    #[test]
    fn ord_key_decides_splits_exactly(
        x in -1e300f64..1e300,
        t in -1e300f64..1e300,
        special in 0usize..6,
    ) {
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let x = specials.get(special).copied().unwrap_or(x);
        let scalar_left = x <= t;
        let batch_left = cad3_ml::batch::ord_key(x) <= cad3_ml::batch::ord_key(t);
        prop_assert_eq!(scalar_left, batch_left, "x={}, t={}", x, t);
    }
}

#[test]
fn empty_batches_are_no_ops_and_sizes_are_checked() {
    let mut ds = Dataset::new(schema(), 2);
    for i in 0..40 {
        ds.push(&[f64::from(i), f64::from(i % 7), f64::from(i % 5)], (i % 3 == 0).into()).unwrap();
    }
    let nb = NaiveBayes::fit(&ds).unwrap();
    let tree = DecisionTree::fit(&ds, DecisionTreeParams::default()).unwrap();
    let lr = LogisticRegression::fit(&ds, LogisticParams::default()).unwrap();
    let empty = FeatureBatch::new(3);
    nb.predict_proba_into(&empty, &mut [], &mut []).unwrap();
    tree.predict_proba_into(&empty, &mut [], &mut [], &mut []).unwrap();
    lr.predict_proba_into(&empty, &mut [], &mut []).unwrap();

    let batch = batch_of(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 1.0]]);
    let mut wrong_width = FeatureBatch::new(2);
    wrong_width.push_row(&[1.0, 2.0]).unwrap();
    let mut out = [0.0; 4];
    assert!(nb.log_likelihoods_into(&batch, &mut [0.0; 3]).is_err());
    assert!(nb.log_likelihoods_into(&wrong_width, &mut [0.0; 2]).is_err());
    assert!(nb.predict_proba_into(&batch, &mut [0.0; 4], &mut [0.0; 3]).is_err());
    assert!(tree.predict_proba_into(&batch, &mut [0; 1], &mut [0; 2], &mut out).is_err());
    assert!(tree.predict_proba_into(&batch, &mut [0; 6], &mut [0; 1], &mut out).is_err());
    assert!(tree
        .predict_proba_into(&wrong_width, &mut [0; 2], &mut [0; 1], &mut [0.0; 2])
        .is_err());
    assert!(lr.predict_proba_into(&batch, &mut [0.0; 1], &mut out).is_err());
    assert!(lr.predict_proba_into(&batch, &mut [0.0; 2], &mut [0.0; 3]).is_err());
}
