use crate::batch::{ord_key, FeatureBatch};
use crate::dataset::{Dataset, Schema};
use crate::MlError;

/// Hyper-parameters of the CART decision tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// A CART decision tree with Gini impurity — the collaborative classifier
/// of the paper's Fig. 4, fed the feature vector `[Hour, P_X, Class_NB]`.
///
/// Categorical columns are treated as ordered integer codes, which is exact
/// for binary codes (`Class_NB`) and a standard approximation otherwise.
///
/// The fit writes the tree flat, in preorder, as it grows it: per node the
/// split feature, the threshold and its [`ord_key`], the `[left, right]`
/// children (a leaf points to itself) and, for a leaf, its class
/// distribution. [`DecisionTree::predict_proba_into`] advances a whole
/// batch `depth` levels with an arithmetic child select;
/// [`DecisionTree::predict_proba_row`] walks one row the same way.
///
/// # Example
///
/// ```
/// use cad3_ml::{Dataset, DecisionTree, DecisionTreeParams, FeatureKind, Schema};
///
/// let schema = Schema::new(vec![FeatureKind::Continuous]);
/// let mut ds = Dataset::new(schema, 2);
/// for i in 0..20 {
///     ds.push(&[i as f64], usize::from(i >= 10))?;
/// }
/// let tree = DecisionTree::fit(&ds, DecisionTreeParams::default())?;
/// assert_eq!(tree.predict_proba_row(&[3.0])?, &[1.0, 0.0]);
/// assert_eq!(tree.predict_proba_row(&[15.0])?, &[0.0, 1.0]);
/// # Ok::<(), cad3_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    schema: Schema,
    n_classes: usize,
    /// Depth of the deepest leaf (a single leaf has depth 0).
    depth: usize,
    /// Per node: split feature column (leaves: 0, unused).
    feat: Vec<u32>,
    /// Per node: split threshold (leaves: 0.0, unused).
    threshold: Vec<f64>,
    /// Per node: [`ord_key`] of the threshold (leaves: 0, unused).
    tkey: Vec<u64>,
    /// Interleaved `[left, right]` child indices; leaves point to
    /// themselves, so rows parked on a leaf stay put for the remaining
    /// level sweeps.
    children: Vec<u32>,
    /// Node-major leaf distributions `probs[node * n_classes + c]`
    /// (internal nodes hold zeros, never read).
    probs: Vec<f64>,
}

/// A node of a fitted [`DecisionTree`], as [`DecisionTree::nodes`] yields
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeNode<'t> {
    /// A leaf and its class distribution.
    Leaf {
        /// Probability of each class.
        probs: &'t [f64],
    },
    /// A split: rows with `row[feature] <= threshold` go to node `left`,
    /// the others to node `right` (preorder indices).
    Split {
        /// The feature column compared.
        feature: usize,
        /// The threshold it is compared against.
        threshold: f64,
        /// Index of the left child.
        left: usize,
        /// Index of the right child.
        right: usize,
    },
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
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
    /// The tree, written in preorder as the nodes are grown.
    tree: DecisionTree,
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
            tree: DecisionTree {
                schema: data.schema().clone(),
                n_classes,
                depth: 0,
                feat: Vec::new(),
                threshold: Vec::new(),
                tkey: Vec::new(),
                children: Vec::new(),
                probs: Vec::new(),
            },
        }
    }

    /// Grows the subtree of the node owning `lo..hi`, whose per-class row
    /// counts are `counts`, at `depth`, and returns its root's index.
    fn build(&mut self, lo: usize, hi: usize, counts: Vec<usize>, depth: usize) -> u32 {
        let n = hi - lo;
        let node_gini = gini(&counts, n);
        if depth >= self.params.max_depth || n < self.params.min_samples_split || node_gini == 0.0 {
            return self.tree.push_leaf(&counts, n, depth);
        }
        let Some(best) = self.best_split(lo, hi, &counts, node_gini) else {
            return self.tree.push_leaf(&counts, n, depth);
        };
        let left_counts = self.mark_left(lo, hi, &best);
        let nl: usize = left_counts.iter().sum();
        if nl < self.params.min_samples_leaf || n - nl < self.params.min_samples_leaf {
            return self.tree.push_leaf(&counts, n, depth);
        }
        self.partition(lo, hi, nl);
        let right_counts = counts.iter().zip(&left_counts).map(|(&c, &l)| c - l).collect();
        let node = self.tree.push_split(best.feature, best.threshold);
        let left = self.build(lo, lo + nl, left_counts, depth + 1);
        let right = self.build(lo + nl, hi, right_counts, depth + 1);
        let at = 2 * node as usize;
        if let Some([l, r]) = self.tree.children.get_mut(at..at + 2) {
            (*l, *r) = (left, right);
        }
        node
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
    /// (DESIGN.md, "Training"). Nodes are written in preorder as they are
    /// grown.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] for an empty dataset.
    pub fn fit(data: &Dataset, params: DecisionTreeParams) -> Result<DecisionTree, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let mut presorted = Presorted::new(data, &params);
        presorted.build(0, data.len(), data.class_counts(), 0);
        Ok(presorted.tree)
    }

    /// Appends a leaf holding `counts` of `n` rows, at `depth`.
    fn push_leaf(&mut self, counts: &[usize], n: usize, depth: usize) -> u32 {
        let node = self.feat.len() as u32;
        let total = n.max(1) as f64;
        self.feat.push(0);
        self.threshold.push(0.0);
        self.tkey.push(0);
        // Self-loop: once a row reaches a leaf it stays there for the
        // remaining level sweeps.
        self.children.extend([node, node]);
        self.probs.extend(counts.iter().map(|&c| c as f64 / total));
        self.depth = self.depth.max(depth);
        node
    }

    /// Appends a split whose children the caller links once grown.
    fn push_split(&mut self, feature: usize, threshold: f64) -> u32 {
        let node = self.feat.len() as u32;
        self.feat.push(feature as u32);
        self.threshold.push(threshold);
        self.tkey.push(ord_key(threshold));
        self.children.extend([0, 0]);
        self.probs.resize(self.probs.len() + self.n_classes, 0.0);
        node
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Depth of the fitted tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The nodes in preorder: the root first, and each split followed by
    /// its left subtree, then its right.
    pub fn nodes(&self) -> impl Iterator<Item = TreeNode<'_>> + '_ {
        let splits = self.feat.iter().zip(&self.threshold).zip(self.children.chunks_exact(2));
        let leaves = self.probs.chunks_exact(self.n_classes.max(1));
        splits.zip(leaves).enumerate().map(|(node, (((&feature, &threshold), children), probs))| {
            match *children {
                [left, right] if left as usize != node => TreeNode::Split {
                    feature: feature as usize,
                    threshold,
                    left: left as usize,
                    right: right as usize,
                },
                _ => TreeNode::Leaf { probs },
            }
        })
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes().filter(|n| matches!(n, TreeNode::Leaf { .. })).count()
    }

    /// Advances every row to its leaf, level by level. `keys` is scratch
    /// sized `n_features * n_rows` (column-major quantized features), `cur`
    /// is scratch sized `n_rows`; on return `cur[r]` is row `r`'s leaf.
    fn descend(&self, batch: &FeatureBatch, keys: &mut [u64], cur: &mut [u32]) {
        let rows = batch.n_rows();
        for (f_keys, feat) in keys.chunks_exact_mut(rows.max(1)).zip(0..batch.n_features()) {
            for (k, &x) in f_keys.iter_mut().zip(batch.col(feat)) {
                *k = ord_key(x);
            }
        }
        cur.fill(0);
        for _ in 0..self.depth {
            for (r, c) in cur.iter_mut().enumerate() {
                let n = *c as usize;
                // hotpath-exempt(panic): `n` comes from `children`, whose
                // entries are < node count by construction.
                let feat = self.feat[n] as usize;
                // hotpath-exempt(panic): `feat < n_features`, `r < rows`,
                // `tkey` is node-indexed — both gathers are in range.
                let k = keys[feat * rows + r];
                let go_right = usize::from(k > self.tkey[n]);
                // hotpath-exempt(panic): `2n + go_right < children.len()`
                // because `n` is a valid node index.
                *c = self.children[2 * n + go_right];
            }
        }
    }

    /// Leaf class distribution per row, row-major:
    /// `out[r * n_classes + c]`, the leaf's `f64`s copied out.
    ///
    /// `keys` is scratch sized `n_features * n_rows`, `cur` scratch sized
    /// `n_rows`. Rows must satisfy the tree's schema; the descent is total
    /// either way.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on any size mismatch.
    pub fn predict_proba_into(
        &self,
        batch: &FeatureBatch,
        keys: &mut [u64],
        cur: &mut [u32],
        out: &mut [f64],
    ) -> Result<(), MlError> {
        let rows = batch.n_rows();
        self.check_sizes(batch, keys, cur)?;
        if out.len() != rows * self.n_classes {
            return Err(MlError::DimensionMismatch {
                expected: rows * self.n_classes,
                got: out.len(),
            });
        }
        self.descend(batch, keys, cur);
        for (dst, &n) in out.chunks_exact_mut(self.n_classes.max(1)).zip(cur.iter()) {
            let start = n as usize * self.n_classes;
            // hotpath-exempt(panic): `n` is a valid node index (see
            // descend), and `probs` holds n_classes entries per node.
            dst.copy_from_slice(&self.probs[start..start + self.n_classes]);
        }
        Ok(())
    }

    /// The leaf class distribution of one row, by reference: the per-row
    /// entry of the scalar detect path. It walks the same `depth` levels as
    /// the sweep, comparing the same [`ord_key`] keys, so it lands on the
    /// leaf [`DecisionTree::predict_proba_into`] copies out, with no
    /// scratch and no allocation. Rows must satisfy the schema, as for the
    /// sweep.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `row` is not as wide as
    /// the schema.
    pub fn predict_proba_row(&self, row: &[f64]) -> Result<&[f64], MlError> {
        if row.len() != self.schema.len() {
            return Err(MlError::DimensionMismatch { expected: self.schema.len(), got: row.len() });
        }
        let mut node = 0usize;
        for _ in 0..self.depth {
            let (Some(&feat), Some(&tkey)) = (self.feat.get(node), self.tkey.get(node)) else {
                break;
            };
            let Some(&x) = row.get(feat as usize) else { break };
            let go_right = usize::from(ord_key(x) > tkey);
            let Some(&child) = self.children.get(2 * node + go_right) else { break };
            node = child as usize;
        }
        let start = node * self.n_classes;
        self.probs.get(start..start + self.n_classes).ok_or(MlError::DimensionMismatch {
            expected: start + self.n_classes,
            got: self.probs.len(),
        })
    }

    fn check_sizes(&self, batch: &FeatureBatch, keys: &[u64], cur: &[u32]) -> Result<(), MlError> {
        let rows = batch.n_rows();
        if batch.n_features() != self.schema.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.schema.len(),
                got: batch.n_features(),
            });
        }
        if keys.len() != self.schema.len() * rows {
            return Err(MlError::DimensionMismatch {
                expected: self.schema.len() * rows,
                got: keys.len(),
            });
        }
        if cur.len() != rows {
            return Err(MlError::DimensionMismatch { expected: rows, got: cur.len() });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FeatureKind;

    /// The most probable class at `row`'s leaf.
    fn predict(tree: &DecisionTree, row: &[f64]) -> usize {
        let p = tree.predict_proba_row(row).unwrap();
        (0..p.len()).fold(0, |best, c| if p[c] > p[best] { c } else { best })
    }

    fn xor_dataset() -> Dataset {
        // XOR over two binary features: needs depth 2 — a single split
        // cannot solve it, so this exercises recursion.
        let schema = Schema::new(vec![
            FeatureKind::Categorical { cardinality: 2 },
            FeatureKind::Categorical { cardinality: 2 },
        ]);
        let mut ds = Dataset::new(schema, 2);
        for _ in 0..25 {
            ds.push(&[0.0, 0.0], 0).unwrap();
            ds.push(&[0.0, 1.0], 1).unwrap();
            ds.push(&[1.0, 0.0], 1).unwrap();
            ds.push(&[1.0, 1.0], 0).unwrap();
        }
        ds
    }

    #[test]
    fn learns_xor() {
        let tree = DecisionTree::fit(&xor_dataset(), DecisionTreeParams::default()).unwrap();
        assert_eq!(predict(&tree, &[0.0, 0.0]), 0);
        assert_eq!(predict(&tree, &[0.0, 1.0]), 1);
        assert_eq!(predict(&tree, &[1.0, 0.0]), 1);
        assert_eq!(predict(&tree, &[1.0, 1.0]), 0);
        assert_eq!(tree.depth(), 2);
        // Preorder: the root, its left split and two leaves, then its right
        // split and two leaves.
        let nodes: Vec<TreeNode<'_>> = tree.nodes().collect();
        assert_eq!(nodes.len(), 7);
        assert!(matches!(nodes[0], TreeNode::Split { left: 1, right: 4, .. }));
        assert!(matches!(nodes[1], TreeNode::Split { left: 2, right: 3, .. }));
        assert!(matches!(nodes[2], TreeNode::Leaf { .. }));
        assert_eq!(tree.leaf_count(), 4);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..10 {
            ds.push(&[i as f64], 1).unwrap();
        }
        let tree = DecisionTree::fit(&ds, DecisionTreeParams::default()).unwrap();
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(predict(&tree, &[100.0]), 1);
    }

    #[test]
    fn max_depth_zero_yields_majority_vote() {
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..30 {
            ds.push(&[i as f64], usize::from(i >= 10)).unwrap();
        }
        let tree = DecisionTree::fit(
            &ds,
            DecisionTreeParams { max_depth: 0, ..DecisionTreeParams::default() },
        )
        .unwrap();
        // 20 of 30 are class 1.
        assert_eq!(predict(&tree, &[0.0]), 1);
        let p = tree.predict_proba_row(&[0.0]).unwrap();
        assert!((p[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let tree = DecisionTree::fit(&xor_dataset(), DecisionTreeParams::default()).unwrap();
        let p = tree.predict_proba_row(&[1.0, 1.0]).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        // One outlier of class 1 among class 0.
        for i in 0..50 {
            ds.push(&[i as f64], 0).unwrap();
        }
        ds.push(&[25.5], 1).unwrap();
        let tree = DecisionTree::fit(
            &ds,
            DecisionTreeParams { min_samples_leaf: 5, ..DecisionTreeParams::default() },
        )
        .unwrap();
        // With a 5-sample floor, the single outlier cannot be isolated into
        // a pure leaf of its own by a final split.
        for node_leaf in [0.0, 25.5, 49.0] {
            let p = tree.predict_proba_row(&[node_leaf]).unwrap();
            assert!(p[1] < 0.5, "outlier should not dominate any leaf: {p:?}");
        }
    }

    #[test]
    fn deep_continuous_split_threshold_quantiles() {
        // More unique values than max_thresholds still finds a good split.
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..1000 {
            ds.push(&[i as f64 / 3.0], usize::from(i >= 500)).unwrap();
        }
        let tree = DecisionTree::fit(
            &ds,
            DecisionTreeParams { max_thresholds: 8, ..DecisionTreeParams::default() },
        )
        .unwrap();
        let correct = (0..1000)
            .filter(|&i| predict(&tree, &[i as f64 / 3.0]) == usize::from(i >= 500))
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
        assert!(tree.predict_proba_row(&[0.0]).is_err());
        assert!(tree.predict_proba_row(&[0.0, 1.0, 0.0]).is_err());
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
            ds.push(&[hour, 0.1 + (i % 5) as f64 * 0.02, 1.0], 1).unwrap();
            // Abnormal drivers: high fused probability, NB sometimes wrong.
            let nb_class = if i % 4 == 0 { 1.0 } else { 0.0 };
            ds.push(&[hour, 0.8 + (i % 5) as f64 * 0.02, nb_class], 0).unwrap();
        }
        let tree = DecisionTree::fit(&ds, DecisionTreeParams::default()).unwrap();
        // Even when NB said "normal", the fused probability rescues the
        // detection — the collaborative mechanism in miniature.
        assert_eq!(predict(&tree, &[8.0, 0.85, 1.0]), 0);
        assert_eq!(predict(&tree, &[8.0, 0.12, 1.0]), 1);
    }
}
