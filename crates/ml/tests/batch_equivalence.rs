//! Property-based bit-identity of the batch plans against the scalar
//! per-record paths: for random models and random feature batches, every
//! `*_into` output and every per-row `*_row` entry must match the scalar
//! `predict`/`predict_proba` bit for bit. This is what keeps the
//! byte-stable `results/` artifacts safe when the RSU detect loop and the
//! scalar detectors run through the plans.

use cad3_ml::{
    Dataset, DecisionTree, DecisionTreeParams, FeatureBatch, FeatureKind, LogisticParams,
    LogisticRegression, NaiveBayes, Schema,
};
use proptest::prelude::*;

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
    /// NB plan outputs are bit-identical to the scalar path.
    #[test]
    fn nb_batch_is_bit_identical(ds in arb_dataset(), rows in arb_rows()) {
        let nb = NaiveBayes::fit(&ds).unwrap();
        let plan = nb.batch_plan();
        let batch = batch_of(&rows);
        let n = rows.len();
        let mut ll = vec![0.0; 2 * n];
        let mut proba = vec![0.0; 2 * n];
        let mut classes = vec![0u32; n];
        plan.predict_proba_into(&batch, &mut ll, &mut proba).unwrap();
        plan.predict_into(&batch, &mut ll, &mut classes).unwrap();
        plan.log_likelihoods_into(&batch, &mut ll).unwrap();
        for (r, row) in rows.iter().enumerate() {
            let s_ll = nb.log_likelihoods(row).unwrap();
            let s_proba = nb.predict_proba(row).unwrap();
            for c in 0..2 {
                prop_assert_eq!(s_ll[c].to_bits(), ll[c * n + r].to_bits());
                prop_assert_eq!(s_proba[c].to_bits(), proba[r * 2 + c].to_bits());
            }
            prop_assert_eq!(nb.predict(row).unwrap() as u32, classes[r]);
        }
    }

    /// Tree plan outputs are bit-identical to the scalar walk, across
    /// hyper-parameters that produce both stumpy and deep trees.
    #[test]
    fn tree_batch_is_bit_identical(
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
        let plan = tree.batch_plan();
        let batch = batch_of(&rows);
        let n = rows.len();
        let mut keys = vec![0u64; 3 * n];
        let mut cur = vec![0u32; n];
        let mut proba = vec![0.0; 2 * n];
        let mut classes = vec![0u32; n];
        plan.predict_proba_into(&batch, &mut keys, &mut cur, &mut proba).unwrap();
        plan.predict_into(&batch, &mut keys, &mut cur, &mut classes).unwrap();
        for (r, row) in rows.iter().enumerate() {
            let s_proba = tree.predict_proba(row).unwrap();
            for c in 0..2 {
                prop_assert_eq!(s_proba[c].to_bits(), proba[r * 2 + c].to_bits());
            }
            prop_assert_eq!(tree.predict(row).unwrap() as u32, classes[r]);
        }
    }

    /// Logistic plan outputs are bit-identical to the scalar path.
    #[test]
    fn lr_batch_is_bit_identical(ds in arb_dataset(), rows in arb_rows()) {
        let lr = LogisticRegression::fit(&ds, LogisticParams::default()).unwrap();
        let plan = lr.batch_plan();
        let batch = batch_of(&rows);
        let n = rows.len();
        let mut p1 = vec![0.0; n];
        let mut proba = vec![0.0; 2 * n];
        let mut classes = vec![0u32; n];
        plan.predict_proba_into(&batch, &mut p1, &mut proba).unwrap();
        plan.predict_into(&batch, &mut p1, &mut classes).unwrap();
        for (r, row) in rows.iter().enumerate() {
            prop_assert_eq!(lr.predict_proba_one(row).unwrap().to_bits(), p1[r].to_bits());
            let s_proba = lr.predict_proba(row).unwrap();
            prop_assert_eq!(s_proba[0].to_bits(), proba[r * 2].to_bits());
            prop_assert_eq!(s_proba[1].to_bits(), proba[r * 2 + 1].to_bits());
            prop_assert_eq!(lr.predict(row).unwrap() as u32, classes[r]);
        }
    }

    /// The NB plan's per-row entry is bit-identical to the scalar model.
    #[test]
    fn nb_row_is_bit_identical(ds in arb_dataset(), rows in arb_rows()) {
        let nb = NaiveBayes::fit(&ds).unwrap();
        let plan = nb.batch_plan();
        for row in &rows {
            let mut proba = [0.0; 2];
            plan.predict_proba_row(row, &mut proba).unwrap();
            let s_proba = nb.predict_proba(row).unwrap();
            prop_assert_eq!(s_proba[0].to_bits(), proba[0].to_bits());
            prop_assert_eq!(s_proba[1].to_bits(), proba[1].to_bits());
        }
        let mut one = [0.0; 1];
        prop_assert!(plan.predict_proba_row(&rows[0], &mut one).is_err());
        prop_assert!(plan.predict_proba_row(&rows[0][..2], &mut [0.0; 2]).is_err());
    }

    /// The tree plan's per-row entry lands on the scalar walk's leaf, and
    /// the tree's by-reference leaf is `predict_proba`'s distribution.
    #[test]
    fn tree_row_is_bit_identical(
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
        let plan = tree.batch_plan();
        for row in &rows {
            let s_proba = tree.predict_proba(row).unwrap();
            let leaf = tree.leaf_proba(row).unwrap();
            let planned = plan.predict_proba_row(row).unwrap();
            prop_assert_eq!(leaf.len(), 2);
            prop_assert_eq!(planned.len(), 2);
            for c in 0..2 {
                prop_assert_eq!(s_proba[c].to_bits(), leaf[c].to_bits());
                prop_assert_eq!(s_proba[c].to_bits(), planned[c].to_bits());
            }
        }
        prop_assert!(plan.predict_proba_row(&rows[0][..2]).is_err());
    }

    /// The logistic plan's per-row entry is bit-identical to the scalar
    /// model.
    #[test]
    fn lr_row_is_bit_identical(ds in arb_dataset(), rows in arb_rows()) {
        let lr = LogisticRegression::fit(&ds, LogisticParams::default()).unwrap();
        let plan = lr.batch_plan();
        for row in &rows {
            let mut proba = [0.0; 2];
            plan.predict_proba_row(row, &mut proba).unwrap();
            prop_assert_eq!(lr.predict_proba_one(row).unwrap().to_bits(), proba[1].to_bits());
            let s_proba = lr.predict_proba(row).unwrap();
            prop_assert_eq!(s_proba[0].to_bits(), proba[0].to_bits());
            prop_assert_eq!(s_proba[1].to_bits(), proba[1].to_bits());
        }
        prop_assert!(plan.predict_proba_row(&rows[0], &mut [0.0; 3]).is_err());
        prop_assert!(plan.predict_proba_row(&rows[0][..2], &mut [0.0; 2]).is_err());
    }

    /// The ordinal threshold key used by the tree plan decides `x <= t`
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
