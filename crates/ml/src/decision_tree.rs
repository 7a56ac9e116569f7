use crate::dataset::{Dataset, Schema};
use crate::MlError;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the CART decision tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionTreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples a node needs to be considered for splitting.
    pub min_samples_split: usize,
    /// Minimum samples each child must receive.
    pub min_samples_leaf: usize,
    /// Maximum number of candidate thresholds evaluated per feature
    /// (quantile-sampled when a feature has more unique values).
    pub max_thresholds: usize,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            max_depth: 8,
            min_samples_split: 4,
            min_samples_leaf: 1,
            max_thresholds: 32,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf { probs: Vec<f64> },
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

/// A CART decision tree with Gini impurity — the collaborative classifier
/// of the paper's Fig. 4, fed the feature vector `[Hour, P_X, Class_NB]`.
///
/// Categorical columns are treated as ordered integer codes, which is exact
/// for binary codes (`Class_NB`) and a standard approximation otherwise.
///
/// # Example
///
/// ```
/// use cad3_ml::{Dataset, DecisionTree, DecisionTreeParams, FeatureKind, Schema};
///
/// let schema = Schema::new(vec![FeatureKind::Continuous]);
/// let mut ds = Dataset::new(schema, 2);
/// for i in 0..20 {
///     ds.push(vec![i as f64], usize::from(i >= 10))?;
/// }
/// let tree = DecisionTree::fit(&ds, DecisionTreeParams::default())?;
/// assert_eq!(tree.predict(&[3.0])?, 0);
/// assert_eq!(tree.predict(&[15.0])?, 1);
/// # Ok::<(), cad3_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    schema: Schema,
    n_classes: usize,
    params: DecisionTreeParams,
    root: Node,
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

fn leaf(counts: &[usize], n: usize) -> Node {
    let total = n.max(1) as f64;
    Node::Leaf { probs: counts.iter().map(|&c| c as f64 / total).collect() }
}

struct BestSplit {
    feature: usize,
    threshold: f64,
    impurity: f64,
}

/// The training set laid out for the split search: one column per feature
/// and, per feature, every row in ascending value order.
///
/// A node owns the same range `lo..hi` of every `order[f]`: its rows,
/// sorted by feature `f`. An accepted split stable-partitions that range
/// of every feature into the left rows then the right rows, so each child
/// is sorted again and a node scores all of a feature's candidate
/// thresholds in one sweep of its range.
struct Presorted<'p> {
    params: &'p DecisionTreeParams,
    n_classes: usize,
    cols: Vec<Vec<f64>>,
    labels: Vec<usize>,
    order: Vec<Vec<usize>>,
    /// Per row, whether the split being applied sends it left.
    goes_left: Vec<bool>,
    /// Scratch reused by every node: the right rows of a partition, a
    /// range's distinct values and one candidate's left/right counts.
    spill: Vec<usize>,
    values: Vec<f64>,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl<'p> Presorted<'p> {
    fn new(data: &Dataset, params: &'p DecisionTreeParams) -> Self {
        let n_features = data.schema().len();
        let mut cols = vec![Vec::with_capacity(data.len()); n_features];
        let mut labels = Vec::with_capacity(data.len());
        for (row, label) in data.iter() {
            for (col, &x) in cols.iter_mut().zip(row) {
                col.push(x);
            }
            labels.push(label);
        }
        // `total_cmp` agrees with `<` on every non-NaN pair but orders -0.0
        // before 0.0; both compare equal under `<=` and dedup to one value,
        // and either one plus a non-zero neighbour gives the same midpoint.
        let order = cols
            .iter()
            .map(|col| {
                let mut rows: Vec<usize> = (0..col.len()).collect();
                rows.sort_by(|&a, &b| col[a].total_cmp(&col[b]));
                rows
            })
            .collect();
        let n_classes = data.n_classes();
        Presorted {
            params,
            n_classes,
            cols,
            labels,
            order,
            goes_left: vec![false; data.len()],
            spill: Vec::new(),
            values: Vec::new(),
            left: vec![0; n_classes],
            right: vec![0; n_classes],
        }
    }

    /// Grows the subtree of the node owning `lo..hi`, whose per-class row
    /// counts are `counts`.
    fn build(&mut self, lo: usize, hi: usize, counts: Vec<usize>, depth: usize) -> Node {
        let n = hi - lo;
        let node_gini = gini(&counts, n);
        if depth >= self.params.max_depth || n < self.params.min_samples_split || node_gini == 0.0 {
            return leaf(&counts, n);
        }
        let Some(best) = self.best_split(lo, hi, &counts, node_gini) else {
            return leaf(&counts, n);
        };
        let left_counts = self.mark_left(lo, hi, &best);
        let nl: usize = left_counts.iter().sum();
        if nl < self.params.min_samples_leaf || n - nl < self.params.min_samples_leaf {
            return leaf(&counts, n);
        }
        self.partition(lo, hi, nl);
        let right_counts = counts.iter().zip(&left_counts).map(|(&c, &l)| c - l).collect();
        Node::Split {
            feature: best.feature,
            threshold: best.threshold,
            left: Box::new(self.build(lo, lo + nl, left_counts, depth + 1)),
            right: Box::new(self.build(lo + nl, hi, right_counts, depth + 1)),
        }
    }

    /// The lowest-impurity split of the node owning `lo..hi`. Candidates
    /// are the midpoints between the node's distinct values of a feature,
    /// quantile-sampled down to `max_thresholds` when there are more; ties
    /// go to the first feature, then the lowest threshold.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        counts: &[usize],
        node_gini: f64,
    ) -> Option<BestSplit> {
        let n = hi - lo;
        let max_thresholds = self.params.max_thresholds;
        let mut best: Option<BestSplit> = None;
        for (f, (col, order)) in self.cols.iter().zip(&self.order).enumerate() {
            let rows = &order[lo..hi];
            self.values.clear();
            self.values.extend(rows.iter().map(|&r| col[r]));
            self.values.dedup();
            let values = &self.values;
            if values.len() < 2 {
                continue;
            }
            let gaps = values.len() - 1;
            let sampled = gaps > max_thresholds;
            self.left.fill(0);
            let mut nl = 0usize;
            for k in 0..gaps.min(max_thresholds) {
                // Quantile-sample boundaries when there are more gaps than
                // thresholds.
                let i = if sampled { (k + 1) * gaps / (max_thresholds + 1) } else { k };
                let thr = (values[i] + values[i + 1]) / 2.0;
                // Candidates ascend, so the rows `<= thr` extend the
                // previous candidate's left side.
                while let Some(&r) = rows.get(nl).filter(|&&r| col[r] <= thr) {
                    self.left[self.labels[r]] += 1;
                    nl += 1;
                }
                let nr = n - nl;
                if nl == 0 || nr == 0 {
                    continue;
                }
                for ((r, &c), &l) in self.right.iter_mut().zip(counts).zip(&self.left) {
                    *r = c - l;
                }
                let weighted = (nl as f64 * gini(&self.left, nl)
                    + nr as f64 * gini(&self.right, nr))
                    / n as f64;
                // Allow zero-gain splits (like sklearn's CART): XOR-shaped
                // data has no first-split gain but becomes separable one
                // level deeper. Termination is still guaranteed by the
                // purity check, depth limit and shrinking child sizes.
                if weighted <= node_gini + 1e-12
                    && best.as_ref().is_none_or(|b| weighted < b.impurity)
                {
                    best = Some(BestSplit { feature: f, threshold: thr, impurity: weighted });
                }
            }
        }
        best
    }

    /// Marks which of the node's rows `split` sends left (`<=`) and returns
    /// their per-class counts.
    fn mark_left(&mut self, lo: usize, hi: usize, split: &BestSplit) -> Vec<usize> {
        let col = &self.cols[split.feature];
        let mut counts = vec![0; self.n_classes];
        for &r in &self.order[split.feature][lo..hi] {
            let left = col[r] <= split.threshold;
            self.goes_left[r] = left;
            counts[self.labels[r]] += usize::from(left);
        }
        counts
    }

    /// Stable-partitions `lo..hi` of every feature's order into the `nl`
    /// marked rows, then the rest; both halves stay sorted.
    fn partition(&mut self, lo: usize, hi: usize, nl: usize) {
        for order in &mut self.order {
            let rows = &mut order[lo..hi];
            self.spill.clear();
            let mut w = 0;
            for i in 0..rows.len() {
                let r = rows[i];
                if self.goes_left[r] {
                    rows[w] = r;
                    w += 1;
                } else {
                    self.spill.push(r);
                }
            }
            debug_assert_eq!(w, nl, "every feature's order holds the node's rows");
            rows[w..].copy_from_slice(&self.spill);
        }
    }
}

impl DecisionTree {
    /// Fits a tree on the dataset.
    ///
    /// Each feature is sorted once; a node then scores every candidate
    /// threshold of a feature in one sweep of its rows in that order
    /// (DESIGN.md, "Training").
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for an empty dataset.
    pub fn fit(data: &Dataset, params: DecisionTreeParams) -> Result<DecisionTree, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let root = Presorted::new(data, &params).build(0, data.len(), data.class_counts(), 0);
        Ok(DecisionTree {
            schema: data.schema().clone(),
            n_classes: data.n_classes(),
            params,
            root,
        })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Depth of the fitted tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        fn c(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => c(left) + c(right),
            }
        }
        c(&self.root)
    }

    /// Builds the flattened branchless batch-evaluation plan for this tree.
    ///
    /// Nodes are laid out depth-first into parallel arrays; thresholds are
    /// quantized into order-preserving [`crate::batch::ord_key`] keys (an
    /// exact order isomorphism, so no decision can change) and leaves point
    /// to themselves so every row can be advanced for a fixed `depth()`
    /// iterations with an arithmetic child select. Outputs are
    /// bit-identical to the scalar walk — see [`crate::batch`].
    pub fn batch_plan(&self) -> crate::batch::TreeBatchPlan {
        struct FlatNode {
            feat: u32,
            tkey: u64,
            left: u32,
            right: u32,
        }
        fn flatten(
            node: &Node,
            n_classes: usize,
            nodes: &mut Vec<FlatNode>,
            probs: &mut Vec<f64>,
        ) -> u32 {
            let idx = nodes.len() as u32;
            let base = probs.len();
            match node {
                Node::Leaf { probs: p } => {
                    // Self-loop: once a row reaches a leaf it stays there
                    // for the remaining level sweeps.
                    nodes.push(FlatNode { feat: 0, tkey: 0, left: idx, right: idx });
                    probs.extend_from_slice(p);
                    // Leaf distributions are n_classes long by fit
                    // construction; pad-or-trim keeps the layout total.
                    probs.truncate(base + n_classes);
                    probs.resize(base + n_classes, 0.0);
                }
                Node::Split { feature, threshold, left, right } => {
                    nodes.push(FlatNode {
                        feat: *feature as u32,
                        tkey: crate::batch::ord_key(*threshold),
                        left: 0,
                        right: 0,
                    });
                    probs.resize(base + n_classes, 0.0);
                    let li = flatten(left, n_classes, nodes, probs);
                    let ri = flatten(right, n_classes, nodes, probs);
                    if let Some(n) = nodes.get_mut(idx as usize) {
                        n.left = li;
                        n.right = ri;
                    }
                }
            }
            idx
        }
        let mut nodes = Vec::new();
        let mut probs = Vec::new();
        flatten(&self.root, self.n_classes, &mut nodes, &mut probs);
        crate::batch::TreeBatchPlan {
            schema: self.schema.clone(),
            n_classes: self.n_classes,
            depth: self.depth(),
            feat: nodes.iter().map(|n| n.feat).collect(),
            tkey: nodes.iter().map(|n| n.tkey).collect(),
            children: nodes.iter().flat_map(|n| [n.left, n.right]).collect(),
            probs,
        }
    }

    /// Class distribution at the leaf `row` falls into.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] or [`MlError::InvalidCategory`].
    pub fn predict_proba(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        self.schema.validate(row)?;
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { probs } => return Ok(probs.clone()),
                Node::Split { feature, threshold, left, right } => {
                    // hotpath-exempt(panic): split features come from the fitted schema
                    // and the row passed Schema::validate above.
                    node = if row[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// The most probable class.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] or [`MlError::InvalidCategory`].
    pub fn predict(&self, row: &[f64]) -> Result<usize, MlError> {
        let p = self.predict_proba(row)?;
        // Manual argmax: total and panic-free even for empty or NaN inputs
        // (NaN comparisons are simply never `>`, so the running best stands).
        let mut best = 0usize;
        let mut best_p = f64::NEG_INFINITY;
        for (i, &x) in p.iter().enumerate() {
            if x > best_p {
                best = i;
                best_p = x;
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FeatureKind;

    fn xor_dataset() -> Dataset {
        // XOR over two binary features: needs depth 2 — a single split
        // cannot solve it, so this exercises recursion.
        let schema = Schema::new(vec![
            FeatureKind::Categorical { cardinality: 2 },
            FeatureKind::Categorical { cardinality: 2 },
        ]);
        let mut ds = Dataset::new(schema, 2);
        for _ in 0..25 {
            ds.push(vec![0.0, 0.0], 0).unwrap();
            ds.push(vec![0.0, 1.0], 1).unwrap();
            ds.push(vec![1.0, 0.0], 1).unwrap();
            ds.push(vec![1.0, 1.0], 0).unwrap();
        }
        ds
    }

    #[test]
    fn learns_xor() {
        let tree = DecisionTree::fit(&xor_dataset(), DecisionTreeParams::default()).unwrap();
        assert_eq!(tree.predict(&[0.0, 0.0]).unwrap(), 0);
        assert_eq!(tree.predict(&[0.0, 1.0]).unwrap(), 1);
        assert_eq!(tree.predict(&[1.0, 0.0]).unwrap(), 1);
        assert_eq!(tree.predict(&[1.0, 1.0]).unwrap(), 0);
        assert_eq!(tree.depth(), 2);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..10 {
            ds.push(vec![i as f64], 1).unwrap();
        }
        let tree = DecisionTree::fit(&ds, DecisionTreeParams::default()).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[100.0]).unwrap(), 1);
    }

    #[test]
    fn max_depth_zero_yields_majority_vote() {
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..30 {
            ds.push(vec![i as f64], usize::from(i >= 10)).unwrap();
        }
        let tree = DecisionTree::fit(
            &ds,
            DecisionTreeParams { max_depth: 0, ..DecisionTreeParams::default() },
        )
        .unwrap();
        // 20 of 30 are class 1.
        assert_eq!(tree.predict(&[0.0]).unwrap(), 1);
        let p = tree.predict_proba(&[0.0]).unwrap();
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let tree = DecisionTree::fit(&xor_dataset(), DecisionTreeParams::default()).unwrap();
        let p = tree.predict_proba(&[1.0, 1.0]).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        // One outlier of class 1 among class 0.
        for i in 0..50 {
            ds.push(vec![i as f64], 0).unwrap();
        }
        ds.push(vec![25.5], 1).unwrap();
        let tree = DecisionTree::fit(
            &ds,
            DecisionTreeParams { min_samples_leaf: 5, ..DecisionTreeParams::default() },
        )
        .unwrap();
        // With a 5-sample floor, the single outlier cannot be isolated into
        // a pure leaf of its own by a final split.
        for node_leaf in [0.0, 25.5, 49.0] {
            let p = tree.predict_proba(&[node_leaf]).unwrap();
            assert!(p[1] < 0.5, "outlier should not dominate any leaf: {p:?}");
        }
    }

    #[test]
    fn deep_continuous_split_threshold_quantiles() {
        // More unique values than max_thresholds still finds a good split.
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..1000 {
            ds.push(vec![i as f64 / 3.0], usize::from(i >= 500)).unwrap();
        }
        let tree = DecisionTree::fit(
            &ds,
            DecisionTreeParams { max_thresholds: 8, ..DecisionTreeParams::default() },
        )
        .unwrap();
        let correct = (0..1000)
            .filter(|&i| tree.predict(&[i as f64 / 3.0]).unwrap() == usize::from(i >= 500))
            .count();
        assert!(correct >= 990, "quantile thresholds should nearly separate: {correct}");
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = Dataset::new(Schema::new(vec![FeatureKind::Continuous]), 2);
        assert_eq!(
            DecisionTree::fit(&ds, DecisionTreeParams::default()).unwrap_err(),
            MlError::EmptyDataset
        );
    }

    #[test]
    fn malformed_row_rejected() {
        let tree = DecisionTree::fit(&xor_dataset(), DecisionTreeParams::default()).unwrap();
        assert!(tree.predict(&[0.0]).is_err());
        assert!(tree.predict(&[0.0, 5.0]).is_err());
    }

    #[test]
    fn paper_feature_vector_shape() {
        // The CAD3 tree uses [Hour, P_X, Class_NB]: categorical 24, continuous,
        // categorical 2. Driver-persistent anomalies make P_X informative.
        let schema = Schema::new(vec![
            FeatureKind::Categorical { cardinality: 24 },
            FeatureKind::Continuous,
            FeatureKind::Categorical { cardinality: 2 },
        ]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..200 {
            let hour = (i % 24) as f64;
            // Normal drivers: low abnormal-probability, NB said normal.
            ds.push(vec![hour, 0.1 + (i % 5) as f64 * 0.02, 1.0], 1).unwrap();
            // Abnormal drivers: high fused probability, NB sometimes wrong.
            let nb_class = if i % 4 == 0 { 1.0 } else { 0.0 };
            ds.push(vec![hour, 0.8 + (i % 5) as f64 * 0.02, nb_class], 0).unwrap();
        }
        let tree = DecisionTree::fit(&ds, DecisionTreeParams::default()).unwrap();
        // Even when NB said "normal", the fused probability rescues the
        // detection — the collaborative mechanism in miniature.
        assert_eq!(tree.predict(&[8.0, 0.85, 1.0]).unwrap(), 0);
        assert_eq!(tree.predict(&[8.0, 0.12, 1.0]).unwrap(), 1);
    }
}
