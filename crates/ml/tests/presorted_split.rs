//! The presorted split search grows exactly the tree of the plain CART
//! rescan it replaced: one pass over a node's rows per candidate threshold.
//! The rescan lives on here as the reference implementation, and the two
//! trees are compared node for node, thresholds and leaf distributions by
//! their bits.

use cad3_ml::{Dataset, DecisionTree, DecisionTreeParams, FeatureKind, Schema};
use proptest::prelude::*;
use serde::{Serialize, Value};

/// The reference tree, shaped like `DecisionTree`'s own nodes so both
/// serialize to the same value tree.
#[derive(Serialize)]
enum Node {
    Leaf { probs: Vec<f64> },
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn class_counts(data: &Dataset, idx: &[usize]) -> Vec<usize> {
    let mut counts = vec![0usize; data.n_classes()];
    for &i in idx {
        counts[data.label(i)] += 1;
    }
    counts
}

fn leaf(data: &Dataset, idx: &[usize]) -> Node {
    let counts = class_counts(data, idx);
    let total = idx.len().max(1) as f64;
    Node::Leaf { probs: counts.iter().map(|&c| c as f64 / total).collect() }
}

/// The rescan: every candidate threshold of every feature counts the
/// node's rows afresh.
fn rescan_build(data: &Dataset, idx: &[usize], depth: usize, params: &DecisionTreeParams) -> Node {
    let counts = class_counts(data, idx);
    let node_gini = gini(&counts, idx.len());
    if depth >= params.max_depth || idx.len() < params.min_samples_split || node_gini == 0.0 {
        return leaf(data, idx);
    }
    let mut best: Option<(usize, f64, f64)> = None;
    for f in 0..data.schema().len() {
        let mut values: Vec<f64> = idx.iter().map(|&i| data.row(i)[f]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        let candidates: Vec<f64> = if values.len() - 1 <= params.max_thresholds {
            values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
        } else {
            (1..=params.max_thresholds)
                .map(|k| {
                    let pos = k * (values.len() - 1) / (params.max_thresholds + 1);
                    (values[pos] + values[pos + 1]) / 2.0
                })
                .collect()
        };
        for &thr in &candidates {
            let mut left = vec![0usize; data.n_classes()];
            let mut right = vec![0usize; data.n_classes()];
            let mut nl = 0usize;
            for &i in idx {
                if data.row(i)[f] <= thr {
                    left[data.label(i)] += 1;
                    nl += 1;
                } else {
                    right[data.label(i)] += 1;
                }
            }
            let nr = idx.len() - nl;
            if nl == 0 || nr == 0 {
                continue;
            }
            let weighted =
                (nl as f64 * gini(&left, nl) + nr as f64 * gini(&right, nr)) / idx.len() as f64;
            if weighted <= node_gini + 1e-12 && best.is_none_or(|(_, _, b)| weighted < b) {
                best = Some((f, thr, weighted));
            }
        }
    }
    let Some((feature, threshold, _)) = best else {
        return leaf(data, idx);
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        idx.iter().partition(|&&i| data.row(i)[feature] <= threshold);
    if left_idx.len() < params.min_samples_leaf || right_idx.len() < params.min_samples_leaf {
        return leaf(data, idx);
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(rescan_build(data, &left_idx, depth + 1, params)),
        right: Box::new(rescan_build(data, &right_idx, depth + 1, params)),
    }
}

/// `v` with every float replaced by its bits, so `==` tells -0.0 from 0.0.
fn by_bits(v: Value) -> Value {
    match v {
        Value::Float(x) => Value::UInt(x.to_bits()),
        Value::Array(items) => Value::Array(items.into_iter().map(by_bits).collect()),
        Value::Object(fields) => {
            Value::Object(fields.into_iter().map(|(k, v)| (k, by_bits(v))).collect())
        }
        other => other,
    }
}

fn root_of(tree: &DecisionTree) -> Value {
    let Value::Object(fields) = tree.to_value() else { panic!("a tree serializes to an object") };
    fields.into_iter().find(|(k, _)| k == "root").map(|(_, v)| v).expect("a tree has a root")
}

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
        ds.push(vec![TIED[usize::from(a)], b, f64::from(c)], label % n_classes).unwrap();
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
        let idx: Vec<usize> = (0..ds.len()).collect();
        let oracle = rescan_build(&ds, &idx, 0, &params);
        prop_assert_eq!(by_bits(root_of(&tree)), by_bits(oracle.to_value()));
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
    let idx: Vec<usize> = (0..ds.len()).collect();
    assert!(tree.depth() >= 4, "the set should grow a deep tree: depth {}", tree.depth());
    assert_eq!(by_bits(root_of(&tree)), by_bits(rescan_build(&ds, &idx, 0, &params).to_value()));
}
