//! The presorted split search grows exactly the tree of the plain CART
//! rescan it replaced: one pass over a node's rows per candidate threshold.
//! The rescan lives on in `support` as the reference implementation, and
//! the two trees are compared node for node in preorder: features, child
//! indices, and thresholds and leaf distributions by their bits.

mod support;

use cad3_ml::{Dataset, DecisionTree, DecisionTreeParams, FeatureKind, Schema};
use proptest::prelude::*;
use support::{flat, Node};

/// Ties: feature 0 takes eight values and feature 2 four. Feature 0 has
/// signed zeros, and two neighbouring floats whose midpoint rounds onto the
/// lower one, so only `<=` keeps that value left. Many distinct values:
/// feature 1 is continuous, so its candidates are quantile-sampled whenever
/// `max_thresholds` is below its count.
fn dataset(rows: &[(u8, f64, u8, usize)], n_classes: usize) -> Dataset {
    const TIED: [f64; 8] = [-1.5, -0.0, 0.0, 0.0, 1.0, 1.0 + f64::EPSILON, 2.0, 7.25];
    let schema = Schema::new(vec![
        FeatureKind::Continuous,
        FeatureKind::Continuous,
        FeatureKind::Categorical { cardinality: 4 },
    ]);
    let mut ds = Dataset::new(schema, n_classes);
    for &(a, b, c, label) in rows {
        ds.push(&[TIED[usize::from(a)], b, f64::from(c)], label % n_classes).unwrap();
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same nodes, same features, same threshold and leaf bits, over 2 and
    /// 3 classes, depth limits, `min_samples_split` stops, and
    /// `min_samples_leaf` rejections that turn a chosen split into a leaf.
    #[test]
    fn presorted_fit_equals_the_rescan(
        rows in prop::collection::vec((0u8..8, -10.0f64..10.0, 0u8..4, 0usize..3), 1..160),
        n_classes in 2usize..4,
        max_depth in 0usize..10,
        min_samples_split in 1usize..8,
        min_samples_leaf in 1usize..16,
        max_thresholds in 0usize..40,
    ) {
        let ds = dataset(&rows, n_classes);
        let params =
            DecisionTreeParams { max_depth, min_samples_split, min_samples_leaf, max_thresholds };
        let tree = DecisionTree::fit(&ds, params).unwrap();
        prop_assert_eq!(flat(&tree), Node::fit(&ds, &params).preorder());
    }
}

#[test]
fn the_default_parameters_on_a_large_noisy_set_equal_the_rescan() {
    // Thousands of rows, several hundred distinct values of feature 1 and
    // an eight-level tree: the regime CAD3's stage 2 trains in.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows: Vec<(u8, f64, u8, usize)> = (0..4000)
        .map(|_| {
            let a = (next() % 8) as u8;
            let b = (next() % 700) as f64 / 35.0 - 10.0;
            let c = (next() % 4) as u8;
            let noisy = usize::from(next() % 5 == 0);
            (a, b, c, (usize::from(b > 1.0 + f64::from(c)) + noisy) % 2)
        })
        .collect();
    let ds = dataset(&rows, 2);
    let params = DecisionTreeParams::default();
    let tree = DecisionTree::fit(&ds, params).unwrap();
    assert!(tree.depth() >= 4, "the set should grow a deep tree: depth {}", tree.depth());
    assert_eq!(flat(&tree), Node::fit(&ds, &params).preorder());
}
