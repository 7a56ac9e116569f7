//! Property-based tests of the ML substrate's invariants.

use cad3_ml::{
    ConfusionMatrix, Dataset, DecisionTree, DecisionTreeParams, FeatureKind, NaiveBayes, Schema,
};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    // 2 continuous + 1 categorical feature, 2 classes, 20..200 rows with at
    // least one row of each class.
    prop::collection::vec((-100.0f64..100.0, -10.0f64..10.0, 0u8..5, 0usize..2), 20..200).prop_map(
        |rows| {
            let schema = Schema::new(vec![
                FeatureKind::Continuous,
                FeatureKind::Continuous,
                FeatureKind::Categorical { cardinality: 5 },
            ]);
            let mut ds = Dataset::new(schema, 2);
            for (i, (a, b, c, label)) in rows.iter().enumerate() {
                // Force both classes to exist.
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

proptest! {
    /// Rows come back from the flat store exactly as they were pushed, and
    /// a push the schema or the class count rejects leaves the dataset as
    /// it was: widths 2 and 4 miss the schema, category 5 and the
    /// fractional one are out of range, label 2 has no class.
    #[test]
    fn dataset_keeps_what_it_accepts_and_only_that(
        pushes in prop::collection::vec(
            (-100.0f64..100.0, -10.0f64..10.0, 0u8..7, 0usize..3, 0u8..6),
            0..60,
        ),
    ) {
        let schema = Schema::new(vec![
            FeatureKind::Continuous,
            FeatureKind::Continuous,
            FeatureKind::Categorical { cardinality: 5 },
        ]);
        let mut ds = Dataset::new(schema, 2);
        let mut kept: Vec<(Vec<f64>, usize)> = Vec::new();
        for (a, b, c, label, shape) in pushes {
            let row = match shape {
                0 => vec![a, b],
                1 => vec![a, b, f64::from(c), 1.0],
                2 => vec![a, b, f64::from(c) + 0.5],
                _ => vec![a, b, f64::from(c)],
            };
            let valid = row.len() == 3 && row[2].fract() == 0.0 && row[2] < 5.0 && label < 2;
            let before = ds.clone();
            let pushed = ds.push(&row, label);
            prop_assert_eq!(pushed.is_ok(), valid, "row {:?} label {}", row, label);
            if valid {
                kept.push((row, label));
            } else {
                prop_assert!(ds == before, "a rejected push changed the dataset");
            }
        }
        prop_assert_eq!(ds.len(), kept.len());
        for (i, (row, label)) in kept.iter().enumerate() {
            prop_assert_eq!(ds.row(i), &row[..]);
            prop_assert_eq!(ds.label(i), *label);
        }
        let iterated: Vec<(Vec<f64>, usize)> = ds.iter().map(|(r, l)| (r.to_vec(), l)).collect();
        prop_assert_eq!(iterated, kept);
    }

    /// NB posteriors are a probability distribution for every valid row.
    #[test]
    fn nb_posteriors_are_distributions(ds in arb_dataset(), a in -200.0f64..200.0, b in -20.0f64..20.0, c in 0u8..5) {
        let nb = NaiveBayes::fit(&ds).unwrap();
        let mut p = [0.0; 2];
        nb.predict_proba_row(&[a, b, c as f64], &mut p).unwrap();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|x| (0.0..=1.0).contains(x) && x.is_finite()));
    }

    /// An unconstrained tree is at least as accurate on its own training
    /// data as the majority class.
    #[test]
    fn tree_beats_majority_on_training_data(ds in arb_dataset()) {
        let params = DecisionTreeParams {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_thresholds: 64,
        };
        let tree = DecisionTree::fit(&ds, params).unwrap();
        let correct = ds
            .iter()
            .filter(|(row, label)| {
                let p = tree.predict_proba_row(row).unwrap();
                usize::from(p[1] > p[0]) == *label
            })
            .count();
        let majority = ds.class_counts().into_iter().max().unwrap();
        prop_assert!(correct >= majority, "correct {} < majority {}", correct, majority);
    }

    /// Tree leaf distributions are valid probabilities.
    #[test]
    fn tree_probas_are_distributions(ds in arb_dataset(), a in -200.0f64..200.0, b in -20.0f64..20.0, c in 0u8..5) {
        let tree = DecisionTree::fit(&ds, DecisionTreeParams::default()).unwrap();
        let p = tree.predict_proba_row(&[a, b, c as f64]).unwrap();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|x| (0.0..=1.0).contains(x)));
    }

    /// Confusion-matrix identities hold for arbitrary outcomes.
    #[test]
    fn confusion_matrix_identities(pairs in prop::collection::vec((0usize..2, 0usize..2), 1..500)) {
        let cm = ConfusionMatrix::from_pairs(pairs.iter().copied(), 0);
        prop_assert_eq!(cm.total() as usize, pairs.len());
        // accuracy = (tp + tn)/total
        let acc = (cm.true_positives() + cm.true_negatives()) as f64 / cm.total() as f64;
        prop_assert!((cm.accuracy() - acc).abs() < 1e-12);
        // rates over all records partition: tp + fn = positives
        let positives = pairs.iter().filter(|(t, _)| *t == 0).count() as u64;
        prop_assert_eq!(cm.true_positives() + cm.false_negatives(), positives);
        // f1 and precision/recall bounds
        prop_assert!((0.0..=1.0).contains(&cm.f1()));
        prop_assert!((0.0..=1.0).contains(&cm.precision()));
        prop_assert!((0.0..=1.0).contains(&cm.recall()));
        // Miss rate and recall are complements when positives exist.
        if positives > 0 {
            prop_assert!((cm.miss_rate() + cm.recall() - 1.0).abs() < 1e-12);
        }
    }

    /// Merging confusion matrices equals evaluating the concatenation.
    #[test]
    fn confusion_matrix_merge_is_concat(
        a in prop::collection::vec((0usize..2, 0usize..2), 1..100),
        b in prop::collection::vec((0usize..2, 0usize..2), 1..100),
    ) {
        let mut cm_a = ConfusionMatrix::from_pairs(a.iter().copied(), 0);
        let cm_b = ConfusionMatrix::from_pairs(b.iter().copied(), 0);
        cm_a.merge(&cm_b);
        let cm_all = ConfusionMatrix::from_pairs(a.iter().chain(b.iter()).copied(), 0);
        prop_assert_eq!(cm_a, cm_all);
    }
}
