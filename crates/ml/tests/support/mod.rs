//! The models as they were before the fit wrote the evaluation layout:
//! plain per-row references, shared by `batch_equivalence.rs` and
//! `presorted_split.rs` as the oracles the crate's models are held
//! bit-identical to.
//!
//! Each reference fits and evaluates one row at a time, in the textbook
//! layout, and shares no evaluation code with the crate:
//!
//! * [`RefNaiveBayes`]: per-class Welford Gaussians and Laplace-smoothed
//!   category tables, scored with the Gaussian log-density written out in
//!   full (no hoisted log-normaliser), then log-sum-exp.
//! * [`Node`]: the boxed CART tree grown by the plain rescan (every
//!   candidate threshold of every feature counts the node's rows afresh),
//!   walked with `row[feature] <= threshold` on the `f64`s.
//! * [`RefLogistic`]: gradient descent on the sparse standardised design
//!   row, scored through that design row.

// Each test binary uses a subset of the references.
#![allow(dead_code)]

use cad3_ml::{Dataset, DecisionTree, DecisionTreeParams, FeatureKind, TreeNode};

// ---------------------------------------------------------------- Naïve Bayes

/// Variance floor of a (nearly) constant feature in a class.
const VAR_FLOOR: f64 = 1e-9;

enum FeatureModel {
    /// Per-class Gaussian (mean, variance).
    Gaussian { mean: f64, var: f64 },
    /// Laplace-smoothed per-class category log-probabilities.
    Categorical { log_probs: Vec<f64> },
}

/// Hybrid Gaussian / categorical Naïve Bayes, `models[class][feature]`.
pub struct RefNaiveBayes {
    log_priors: Vec<f64>,
    models: Vec<Vec<FeatureModel>>,
}

impl RefNaiveBayes {
    /// Fits on a dataset with every class present.
    pub fn fit(data: &Dataset) -> Self {
        let n_classes = data.n_classes();
        let n_features = data.schema().len();
        let counts = data.class_counts();
        // Welford (count, mean, m2) per class and feature.
        let mut moments = vec![vec![(0u64, 0.0f64, 0.0f64); n_features]; n_classes];
        let mut cat_counts: Vec<Vec<Vec<u64>>> = (0..n_classes)
            .map(|_| {
                data.schema()
                    .kinds()
                    .map(|k| match k {
                        FeatureKind::Continuous => Vec::new(),
                        FeatureKind::Categorical { cardinality } => vec![0u64; cardinality],
                    })
                    .collect()
            })
            .collect();
        for (row, label) in data.iter() {
            for (f, &x) in row.iter().enumerate() {
                match data.schema().kind(f) {
                    FeatureKind::Continuous => {
                        let (count, mean, m2) = &mut moments[label][f];
                        *count += 1;
                        let delta = x - *mean;
                        *mean += delta / *count as f64;
                        *m2 += delta * (x - *mean);
                    }
                    FeatureKind::Categorical { .. } => cat_counts[label][f][x as usize] += 1,
                }
            }
        }
        let total = data.len() as f64;
        let log_priors = counts.iter().map(|&c| (c as f64 / total).ln()).collect();
        let models = (0..n_classes)
            .map(|c| {
                (0..n_features)
                    .map(|f| match data.schema().kind(f) {
                        FeatureKind::Continuous => {
                            let (count, mean, m2) = moments[c][f];
                            let var = if count < 2 {
                                VAR_FLOOR
                            } else {
                                (m2 / count as f64).max(VAR_FLOOR)
                            };
                            FeatureModel::Gaussian { mean, var }
                        }
                        FeatureKind::Categorical { cardinality } => {
                            let class_total = counts[c] as f64 + cardinality as f64;
                            let log_probs = cat_counts[c][f]
                                .iter()
                                .map(|&n| ((n as f64 + 1.0) / class_total).ln())
                                .collect();
                            FeatureModel::Categorical { log_probs }
                        }
                    })
                    .collect()
            })
            .collect();
        RefNaiveBayes { log_priors, models }
    }

    /// Joint log-likelihood `log P(class) + Σ log P(x_f | class)` per class.
    pub fn log_likelihoods(&self, row: &[f64]) -> Vec<f64> {
        self.log_priors
            .iter()
            .zip(&self.models)
            .map(|(&lp, model)| {
                lp + row
                    .iter()
                    .zip(model)
                    .map(|(&x, fm)| match fm {
                        FeatureModel::Gaussian { mean, var } => {
                            let d = x - mean;
                            -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + d * d / var)
                        }
                        FeatureModel::Categorical { log_probs } => log_probs[x as usize],
                    })
                    .sum::<f64>()
            })
            .collect()
    }

    /// Posterior class probabilities (normalised with log-sum-exp).
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let ll = self.log_likelihoods(row);
        let max = ll.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = ll.iter().map(|&x| (x - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }
}

// ------------------------------------------------------------------ CART tree

/// The reference tree.
#[derive(Debug)]
pub enum Node {
    Leaf { probs: Vec<f64> },
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

impl Node {
    /// Fits the tree by the rescan.
    pub fn fit(data: &Dataset, params: &DecisionTreeParams) -> Node {
        let idx: Vec<usize> = (0..data.len()).collect();
        rescan_build(data, &idx, 0, params)
    }

    /// The class distribution at the leaf `row` falls into.
    pub fn leaf(&self, row: &[f64]) -> &[f64] {
        match self {
            Node::Leaf { probs } => probs,
            Node::Split { feature, threshold, left, right } => {
                if row[*feature] <= *threshold {
                    left.leaf(row)
                } else {
                    right.leaf(row)
                }
            }
        }
    }

    /// The nodes in preorder, children by preorder index, every float by
    /// its bits (so `==` tells -0.0 from 0.0).
    pub fn preorder(&self) -> Vec<FlatNode> {
        fn walk(node: &Node, out: &mut Vec<FlatNode>) -> usize {
            let at = out.len();
            match node {
                Node::Leaf { probs } => out.push(FlatNode::Leaf(bits(probs))),
                Node::Split { feature, threshold, left, right } => {
                    out.push(FlatNode::Leaf(Vec::new()));
                    let left = walk(left, out);
                    let right = walk(right, out);
                    out[at] = FlatNode::Split {
                        feature: *feature,
                        threshold: threshold.to_bits(),
                        left,
                        right,
                    };
                }
            }
            at
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// A tree node in preorder, floats by their bits.
#[derive(Debug, PartialEq, Eq)]
pub enum FlatNode {
    Leaf(Vec<u64>),
    Split { feature: usize, threshold: u64, left: usize, right: usize },
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A fitted [`DecisionTree`]'s nodes as [`Node::preorder`] lists them.
pub fn flat(tree: &DecisionTree) -> Vec<FlatNode> {
    tree.nodes()
        .map(|node| match node {
            TreeNode::Leaf { probs } => FlatNode::Leaf(bits(probs)),
            TreeNode::Split { feature, threshold, left, right } => {
                FlatNode::Split { feature, threshold: threshold.to_bits(), left, right }
            }
        })
        .collect()
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

// -------------------------------------------------------- logistic regression

/// Binary logistic regression over the sparse standardised design row.
pub struct RefLogistic {
    kinds: Vec<FeatureKind>,
    /// Per input column: mean/std for continuous (one-hot columns use 0/1).
    standardise: Vec<(f64, f64)>,
    /// Expanded design offset per input column.
    offsets: Vec<usize>,
    weights: Vec<f64>,
    bias: f64,
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl RefLogistic {
    /// Fits on a binary dataset with both classes present.
    pub fn fit(data: &Dataset, params: cad3_ml::LogisticParams) -> Self {
        let kinds: Vec<FeatureKind> = data.schema().kinds().collect();
        let mut offsets = Vec::with_capacity(kinds.len());
        let mut width = 0usize;
        for kind in &kinds {
            offsets.push(width);
            width += match kind {
                FeatureKind::Continuous => 2,
                FeatureKind::Categorical { cardinality } => *cardinality,
            };
        }
        let n = data.len() as f64;
        let mut standardise = vec![(0.0, 1.0); kinds.len()];
        for (f, kind) in kinds.iter().enumerate() {
            if *kind == FeatureKind::Continuous {
                let mean = data.iter().map(|(row, _)| row[f]).sum::<f64>() / n;
                let var = data.iter().map(|(row, _)| (row[f] - mean).powi(2)).sum::<f64>() / n;
                standardise[f] = (mean, var.sqrt().max(1e-9));
            }
        }
        let mut model =
            RefLogistic { kinds, standardise, offsets, weights: vec![0.0; width], bias: 0.0 };
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
        model
    }

    /// Sparse standardised design row: `(column, value)` pairs.
    fn design_row(&self, row: &[f64]) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(row.len());
        for (f, (kind, &x)) in self.kinds.iter().zip(row).enumerate() {
            match kind {
                FeatureKind::Continuous => {
                    let (mean, std) = self.standardise[f];
                    let z = (x - mean) / std;
                    out.push((self.offsets[f], z));
                    out.push((self.offsets[f] + 1, z * z));
                }
                FeatureKind::Categorical { .. } => out.push((self.offsets[f] + x as usize, 1.0)),
            }
        }
        out
    }

    /// Probability of class 1.
    pub fn predict_proba_one(&self, row: &[f64]) -> f64 {
        let z =
            self.bias + self.design_row(row).iter().map(|(i, x)| self.weights[*i] * x).sum::<f64>();
        sigmoid(z)
    }

    /// Class probabilities `[P(0), P(1)]`.
    pub fn predict_proba(&self, row: &[f64]) -> [f64; 2] {
        let p1 = self.predict_proba_one(row);
        [1.0 - p1, p1]
    }
}
