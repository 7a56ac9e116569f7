//! Column-major micro-batch inference plans — the batched, branchless
//! counterpart of the scalar `predict`/`predict_proba` paths.
//!
//! A plan is precomputed once at model-build time ([`crate::NaiveBayes::batch_plan`],
//! [`crate::DecisionTree::batch_plan`], [`crate::LogisticRegression::batch_plan`])
//! and then evaluated over a [`FeatureBatch`] holding one contiguous column
//! per feature. Evaluation writes into caller-provided slices and performs
//! no heap allocation; all allocation happens at plan construction, which is
//! what the `hotpaths.toml` contract enforces. Each plan also has a per-row
//! entry (`predict_proba_row`) for the scalar detect path: one row of the
//! sweep's operations, in the sweep's order, with no scratch at all.
//!
//! Every plan is *bit-identical* to its scalar counterpart: the per-row
//! floating-point operations are replicated in the exact order the scalar
//! path performs them (see each method's notes), so replacing a scalar loop
//! with a plan sweep cannot change a single prediction. In particular:
//!
//! * The Naïve Bayes plan stores `(mean, var, ln(2π·var))` per class and
//!   continuous feature — the `ln` call is hoisted to build time (ln of the
//!   same input bits is deterministic), while the division `d·d/var` stays a
//!   division: multiplying by a precomputed `1/var` would round twice and
//!   break bit-identity with the scalar `gaussian_log_pdf`.
//! * The tree plan quantizes thresholds into order-preserving `u64` keys
//!   ([`ord_key`]) at build time, and quantizes each feature column the same
//!   way at eval time. The map is an exact order isomorphism, so the
//!   branchless integer compare decides every split exactly as the scalar
//!   `row[feature] <= threshold` does.

use crate::dataset::Schema;
use crate::MlError;

/// Order-preserving quantization of an `f64` into a `u64` sort key.
///
/// For non-NaN `a`, `b`: `a <= b` iff `ord_key(a) <= ord_key(b)` — the
/// negative range is bit-complemented and the positive range offset past it,
/// after normalising `-0.0` to `+0.0` (they compare equal as floats and must
/// map to the same key). `NaN` maps to `u64::MAX`, which no non-NaN value
/// reaches, so a NaN feature compares greater than every finite threshold —
/// exactly how the scalar `NaN <= t` (false, go right) behaves.
#[inline]
pub fn ord_key(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let x = if x == 0.0 { 0.0 } else { x };
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// A column-major micro-batch of feature rows.
///
/// Rows are appended via [`FeatureBatch::push_row`]; each feature lives in
/// its own contiguous column so a plan sweep reads unit-stride memory. The
/// container is reusable: [`FeatureBatch::clear`] keeps column capacity, so
/// a steady-state detect loop stops allocating once warm.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBatch {
    cols: Vec<Vec<f64>>,
    n_rows: usize,
}

impl FeatureBatch {
    /// An empty batch with `n_features` columns.
    pub fn new(n_features: usize) -> Self {
        FeatureBatch { cols: (0..n_features).map(|_| Vec::new()).collect(), n_rows: 0 }
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows pushed.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Drops all rows, keeping column capacity for reuse.
    pub fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.n_rows = 0;
    }

    /// Appends one row, scattering its features into the columns.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the row width differs
    /// from the column count.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), MlError> {
        if row.len() != self.cols.len() {
            return Err(MlError::DimensionMismatch { expected: self.cols.len(), got: row.len() });
        }
        for (col, &x) in self.cols.iter_mut().zip(row) {
            col.push(x);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Column `f`, or an empty slice when out of range.
    pub fn col(&self, feat: usize) -> &[f64] {
        self.cols.get(feat).map_or(&[], Vec::as_slice)
    }
}

/// One feature column of a [`NbBatchPlan`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NbPlanCol {
    /// `(mean, var, ln(2π·var))` per class; the log-normaliser is hoisted
    /// to build time, the division by `var` stays a division (bit-identity
    /// with the scalar `gaussian_log_pdf`).
    Gaussian { per_class: Vec<(f64, f64, f64)> },
    /// Class-major concatenation of the per-class category log-probability
    /// tables: entry `c * cardinality + v`.
    Categorical { cardinality: usize, log_probs: Vec<f64> },
}

/// Precomputed column-major evaluation plan for a [`crate::NaiveBayes`]
/// model. Built once via [`crate::NaiveBayes::batch_plan`]; evaluation is
/// allocation-free and bit-identical to the scalar path.
#[derive(Debug, Clone, PartialEq)]
pub struct NbBatchPlan {
    pub(crate) schema: Schema,
    pub(crate) log_priors: Vec<f64>,
    pub(crate) cols: Vec<NbPlanCol>,
}

impl NbBatchPlan {
    /// The model's feature schema (rows fed to the plan must satisfy it;
    /// see the eval methods' preconditions).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.log_priors.len()
    }

    /// Joint log-likelihoods for every row, class-major: `ll[c * n_rows + r]`.
    ///
    /// Per `(class, row)` cell this performs exactly the scalar
    /// [`crate::NaiveBayes::log_likelihoods`] operations in the same order:
    /// terms accumulate from `0.0` in ascending feature order, then the
    /// class log-prior is added on the left.
    ///
    /// Rows must satisfy the plan's [`NbBatchPlan::schema`] (categorical
    /// values in range); out-of-range categories are clamped to the last
    /// table entry instead of panicking, which is deterministic but not
    /// meaningful — validate rows first where the input is untrusted.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the batch width differs
    /// from the schema or `ll` is not `n_classes * n_rows` long.
    pub fn log_likelihoods_into(
        &self,
        batch: &FeatureBatch,
        ll: &mut [f64],
    ) -> Result<(), MlError> {
        let rows = batch.n_rows();
        let n_classes = self.log_priors.len();
        if batch.n_features() != self.cols.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.cols.len(),
                got: batch.n_features(),
            });
        }
        if ll.len() != n_classes * rows {
            return Err(MlError::DimensionMismatch { expected: n_classes * rows, got: ll.len() });
        }
        ll.fill(0.0);
        for (feat, col) in self.cols.iter().enumerate() {
            let xs = batch.col(feat);
            match col {
                NbPlanCol::Gaussian { per_class } => {
                    for (acc, &(mean, var, ln_2pi_var)) in
                        ll.chunks_exact_mut(rows.max(1)).zip(per_class)
                    {
                        for (a, &x) in acc.iter_mut().zip(xs) {
                            // Same ops, same order as `gaussian_log_pdf`:
                            // -0.5 * (ln(2π·var) + d·d/var), ln hoisted.
                            let d = x - mean;
                            *a += -0.5 * (ln_2pi_var + d * d / var);
                        }
                    }
                }
                NbPlanCol::Categorical { cardinality, log_probs } => {
                    for (acc, table) in
                        ll.chunks_exact_mut(rows.max(1)).zip(log_probs.chunks_exact(*cardinality))
                    {
                        for (a, &x) in acc.iter_mut().zip(xs) {
                            // Clamped gather: in-range values (the documented
                            // precondition) index their own entry; `as usize`
                            // saturates NaN/negatives to 0, so this is total.
                            let i = (x as usize).min(cardinality - 1);
                            // hotpath-exempt(panic): `i < cardinality` by the
                            // clamp above and `table.len() == cardinality` by
                            // chunks_exact.
                            *a += table[i];
                        }
                    }
                }
            }
        }
        // Log-priors last, written `lp + Σ terms` to mirror the scalar
        // operand order (IEEE addition commutes bit-exactly, but keeping
        // the order makes the correspondence auditable by eye).
        #[allow(clippy::assign_op_pattern)]
        for (acc, &lp) in ll.chunks_exact_mut(rows.max(1)).zip(&self.log_priors) {
            for a in acc.iter_mut() {
                *a = lp + *a;
            }
        }
        Ok(())
    }

    /// Posterior class probabilities, row-major: `out[r * n_classes + c]`.
    ///
    /// The per-row log-sum-exp replicates the scalar
    /// [`crate::NaiveBayes::predict_proba`] exactly: max-fold from
    /// `NEG_INFINITY` via `f64::max` in class order, exponentials in class
    /// order, sum folded from `0.0`, then each exponential divided by it.
    ///
    /// `ll` is scratch sized `n_classes * n_rows`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on any size mismatch.
    pub fn predict_proba_into(
        &self,
        batch: &FeatureBatch,
        ll: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), MlError> {
        self.log_likelihoods_into(batch, ll)?;
        let rows = batch.n_rows();
        let n_classes = self.log_priors.len();
        if out.len() != rows * n_classes {
            return Err(MlError::DimensionMismatch { expected: rows * n_classes, got: out.len() });
        }
        for (r, dst) in out.chunks_exact_mut(n_classes.max(1)).enumerate() {
            let mut max = f64::NEG_INFINITY;
            for c in 0..n_classes {
                // hotpath-exempt(panic): `c * rows + r` < n_classes * rows ==
                // ll.len(), checked by log_likelihoods_into above.
                max = f64::max(max, ll[c * rows + r]);
            }
            let mut sum = 0.0;
            for (c, e) in dst.iter_mut().enumerate() {
                // hotpath-exempt(panic): same bound as the max fold above.
                *e = (ll[c * rows + r] - max).exp();
                sum += *e;
            }
            for e in dst.iter_mut() {
                *e /= sum;
            }
        }
        Ok(())
    }

    /// The most probable class per row.
    ///
    /// The argmax replicates the scalar [`crate::NaiveBayes::predict`]:
    /// running best over classes in order, strict `>`, NaN-safe.
    ///
    /// `ll` is scratch sized `n_classes * n_rows`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on any size mismatch.
    pub fn predict_into(
        &self,
        batch: &FeatureBatch,
        ll: &mut [f64],
        out: &mut [u32],
    ) -> Result<(), MlError> {
        self.log_likelihoods_into(batch, ll)?;
        let rows = batch.n_rows();
        let n_classes = self.log_priors.len();
        if out.len() != rows {
            return Err(MlError::DimensionMismatch { expected: rows, got: out.len() });
        }
        for (r, o) in out.iter_mut().enumerate() {
            let mut best = 0usize;
            let mut best_ll = f64::NEG_INFINITY;
            for c in 0..n_classes {
                // hotpath-exempt(panic): `c * rows + r` < ll.len(), checked
                // by log_likelihoods_into above.
                let x = ll[c * rows + r];
                if x > best_ll {
                    best = c;
                    best_ll = x;
                }
            }
            *o = best as u32;
        }
        Ok(())
    }

    /// Posterior class probabilities of one row, into `out` (one entry per
    /// class): the per-row entry of the scalar detect path.
    ///
    /// Each class performs exactly the operations of one cell of
    /// [`NbBatchPlan::log_likelihoods_into`] and one row of
    /// [`NbBatchPlan::predict_proba_into`], in the same order: the terms
    /// accumulate from `0.0` in feature order, then `lp + acc`, then the
    /// max-fold, the exponentials and the divide. So it returns the sweep's
    /// bits, with no scratch and no allocation. Rows must satisfy the plan's
    /// schema, as for the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `row` is not as wide as
    /// the schema or `out` is not `n_classes` long.
    pub fn predict_proba_row(&self, row: &[f64], out: &mut [f64]) -> Result<(), MlError> {
        if row.len() != self.cols.len() {
            return Err(MlError::DimensionMismatch { expected: self.cols.len(), got: row.len() });
        }
        if out.len() != self.log_priors.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.log_priors.len(),
                got: out.len(),
            });
        }
        for (c, (ll, &lp)) in out.iter_mut().zip(&self.log_priors).enumerate() {
            let mut acc = 0.0;
            for (col, &x) in self.cols.iter().zip(row) {
                match col {
                    NbPlanCol::Gaussian { per_class } => {
                        if let Some(&(mean, var, ln_2pi_var)) = per_class.get(c) {
                            let d = x - mean;
                            acc += -0.5 * (ln_2pi_var + d * d / var);
                        }
                    }
                    NbPlanCol::Categorical { cardinality, log_probs } => {
                        let i = (x as usize).min(cardinality - 1);
                        if let Some(&term) = log_probs.get(c * cardinality + i) {
                            acc += term;
                        }
                    }
                }
            }
            *ll = lp + acc;
        }
        let max = out.iter().fold(f64::NEG_INFINITY, |max, &ll| f64::max(max, ll));
        let mut sum = 0.0;
        for e in out.iter_mut() {
            *e = (*e - max).exp();
            sum += *e;
        }
        for e in out.iter_mut() {
            *e /= sum;
        }
        Ok(())
    }
}

/// Precomputed flattened-array evaluation plan for a
/// [`crate::DecisionTree`]. Built once via
/// [`crate::DecisionTree::batch_plan`]; descent is branchless (arithmetic
/// child select over [`ord_key`]-quantized thresholds) and bit-identical to
/// the scalar walk.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeBatchPlan {
    pub(crate) schema: Schema,
    pub(crate) n_classes: usize,
    pub(crate) depth: usize,
    /// Per node: split feature column (leaves: 0, unused).
    pub(crate) feat: Vec<u32>,
    /// Per node: [`ord_key`] of the split threshold (leaves: 0, unused).
    pub(crate) tkey: Vec<u64>,
    /// Interleaved `[left, right]` child indices; leaves point to
    /// themselves, so rows parked on a leaf stay put for the remaining
    /// level sweeps.
    pub(crate) children: Vec<u32>,
    /// Node-major leaf distributions `probs[node * n_classes + c]`
    /// (internal nodes hold zeros, never read).
    pub(crate) probs: Vec<f64>,
}

impl TreeBatchPlan {
    /// The tree's feature schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
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
    /// `out[r * n_classes + c]` — the same `f64` bits the scalar
    /// [`crate::DecisionTree::predict_proba`] clones out of the leaf.
    ///
    /// `keys` is scratch sized `n_features * n_rows`, `cur` scratch sized
    /// `n_rows`. Rows must satisfy the plan's schema (the scalar path
    /// validates and errors; the plan's descent is total either way).
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

    /// The most probable class per row (scalar-identical argmax over the
    /// leaf distribution: running best, strict `>`, NaN-safe).
    ///
    /// `keys` is scratch sized `n_features * n_rows`, `cur` scratch sized
    /// `n_rows`; `out` receives one class per row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on any size mismatch.
    pub fn predict_into(
        &self,
        batch: &FeatureBatch,
        keys: &mut [u64],
        cur: &mut [u32],
        out: &mut [u32],
    ) -> Result<(), MlError> {
        let rows = batch.n_rows();
        self.check_sizes(batch, keys, cur)?;
        if out.len() != rows {
            return Err(MlError::DimensionMismatch { expected: rows, got: out.len() });
        }
        self.descend(batch, keys, cur);
        for (o, &n) in out.iter_mut().zip(cur.iter()) {
            let start = n as usize * self.n_classes;
            // hotpath-exempt(panic): same bound as predict_proba_into.
            let leaf = &self.probs[start..start + self.n_classes];
            let mut best = 0usize;
            let mut best_p = f64::NEG_INFINITY;
            for (c, &p) in leaf.iter().enumerate() {
                if p > best_p {
                    best = c;
                    best_p = p;
                }
            }
            *o = best as u32;
        }
        Ok(())
    }

    /// The leaf class distribution of one row, by reference: the per-row
    /// entry of the scalar detect path. It walks the same `depth` levels as
    /// the sweep, comparing the same [`ord_key`] keys, so it lands on the
    /// leaf [`TreeBatchPlan::predict_proba_into`] copies out, with no
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

/// Precomputed column-major evaluation plan for a
/// [`crate::LogisticRegression`]. Built once via
/// [`crate::LogisticRegression::batch_plan`]; evaluation is allocation-free
/// and bit-identical to the scalar path.
#[derive(Debug, Clone, PartialEq)]
pub struct LrBatchPlan {
    pub(crate) schema: Schema,
    pub(crate) standardise: Vec<(f64, f64)>,
    pub(crate) offsets: Vec<usize>,
    pub(crate) weights: Vec<f64>,
    pub(crate) bias: f64,
}

impl LrBatchPlan {
    /// The model's feature schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Probability of class 1 per row — the scalar
    /// [`crate::LogisticRegression::predict_proba_one`] replicated term by
    /// term: per feature in order, a continuous column contributes
    /// `w₀·z` then `w₁·z²` (z standardised), a categorical column its
    /// one-hot weight times `1.0`; the bias is added on the left before the
    /// sigmoid. Rows must satisfy the schema (out-of-range categories clamp
    /// deterministically instead of panicking).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on any size mismatch.
    pub fn predict_proba_one_into(
        &self,
        batch: &FeatureBatch,
        out: &mut [f64],
    ) -> Result<(), MlError> {
        let rows = batch.n_rows();
        if batch.n_features() != self.schema.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.schema.len(),
                got: batch.n_features(),
            });
        }
        if out.len() != rows {
            return Err(MlError::DimensionMismatch { expected: rows, got: out.len() });
        }
        out.fill(0.0);
        for (feat, kind) in self.schema.kinds().enumerate() {
            let xs = batch.col(feat);
            // hotpath-exempt(panic): `standardise` and `offsets` are one
            // entry per schema column by construction.
            let (mean, std) = self.standardise[feat];
            let off = self.offsets[feat];
            match kind {
                crate::FeatureKind::Continuous => {
                    // hotpath-exempt(panic): the design width counts two
                    // columns per continuous feature starting at `off`.
                    let w0 = self.weights[off];
                    let w1 = self.weights[off + 1];
                    for (a, &x) in out.iter_mut().zip(xs) {
                        let z = (x - mean) / std;
                        *a += w0 * z;
                        *a += w1 * (z * z);
                    }
                }
                crate::FeatureKind::Categorical { cardinality } => {
                    for (a, &x) in out.iter_mut().zip(xs) {
                        let i = (x as usize).min(cardinality - 1);
                        // hotpath-exempt(panic): `off + i` is within the
                        // design width (cardinality one-hot columns at
                        // `off`), `i` clamped above.
                        *a += self.weights[off + i] * 1.0;
                    }
                }
            }
        }
        for a in out.iter_mut() {
            let z = self.bias + *a;
            *a = 1.0 / (1.0 + (-z).exp());
        }
        Ok(())
    }

    /// Class probabilities `[P(0), P(1)]` of one row, into `out`: the
    /// per-row entry of the scalar detect path. It performs the operations
    /// of one row of [`LrBatchPlan::predict_proba_into`] in the same order
    /// (terms from `0.0` in feature order, then `bias + acc`, the sigmoid,
    /// then `1 − p`), so it returns the sweep's bits, with no allocation.
    /// Rows must satisfy the schema, as for the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `row` is not as wide as
    /// the schema or `out` is not two long.
    pub fn predict_proba_row(&self, row: &[f64], out: &mut [f64]) -> Result<(), MlError> {
        if row.len() != self.schema.len() {
            return Err(MlError::DimensionMismatch { expected: self.schema.len(), got: row.len() });
        }
        let [p0, p1] = out else {
            return Err(MlError::DimensionMismatch { expected: 2, got: out.len() });
        };
        let mut acc = 0.0;
        for (((kind, &x), &(mean, std)), &off) in
            self.schema.kinds().zip(row).zip(&self.standardise).zip(&self.offsets)
        {
            match kind {
                crate::FeatureKind::Continuous => {
                    let (Some(&w0), Some(&w1)) = (self.weights.get(off), self.weights.get(off + 1))
                    else {
                        continue;
                    };
                    let z = (x - mean) / std;
                    acc += w0 * z;
                    acc += w1 * (z * z);
                }
                crate::FeatureKind::Categorical { cardinality } => {
                    let i = (x as usize).min(cardinality - 1);
                    if let Some(&w) = self.weights.get(off + i) {
                        acc += w * 1.0;
                    }
                }
            }
        }
        let z = self.bias + acc;
        let p = 1.0 / (1.0 + (-z).exp());
        *p0 = 1.0 - p;
        *p1 = p;
        Ok(())
    }

    /// Class probabilities per row, row-major `[P(0), P(1)]` — the scalar
    /// `vec![1.0 - p1, p1]` replicated. `p1` is scratch sized `n_rows`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on any size mismatch.
    pub fn predict_proba_into(
        &self,
        batch: &FeatureBatch,
        p1: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), MlError> {
        self.predict_proba_one_into(batch, p1)?;
        if out.len() != p1.len() * 2 {
            return Err(MlError::DimensionMismatch { expected: p1.len() * 2, got: out.len() });
        }
        for (dst, &p) in out.chunks_exact_mut(2).zip(p1.iter()) {
            // hotpath-exempt(panic): chunks_exact_mut(2) yields 2-slices.
            dst[0] = 1.0 - p;
            dst[1] = p;
        }
        Ok(())
    }

    /// The most probable class per row (`p1 >= 0.5`, as the scalar
    /// [`crate::LogisticRegression::predict`]). `p1` is scratch sized
    /// `n_rows`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on any size mismatch.
    pub fn predict_into(
        &self,
        batch: &FeatureBatch,
        p1: &mut [f64],
        out: &mut [u32],
    ) -> Result<(), MlError> {
        self.predict_proba_one_into(batch, p1)?;
        if out.len() != p1.len() {
            return Err(MlError::DimensionMismatch { expected: p1.len(), got: out.len() });
        }
        for (o, &p) in out.iter_mut().zip(p1.iter()) {
            *o = u32::from(p >= 0.5);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, FeatureKind};
    use crate::{
        DecisionTree, DecisionTreeParams, LogisticParams, LogisticRegression, NaiveBayes, Schema,
    };

    fn mixed_dataset() -> Dataset {
        let schema = Schema::new(vec![
            FeatureKind::Continuous,
            FeatureKind::Continuous,
            FeatureKind::Categorical { cardinality: 3 },
        ]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..120 {
            let jitter = (i % 13) as f64 * 0.17;
            ds.push(&[jitter, -jitter * 0.5, (i % 3) as f64], 0).unwrap();
            ds.push(&[9.0 + jitter, 4.0 - jitter, ((i + 1) % 3) as f64], 1).unwrap();
        }
        ds
    }

    fn probe_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..60 {
            let x = (i as f64 - 30.0) * 0.45;
            rows.push(vec![x, -x * 0.3 + 1.0, (i % 3) as f64]);
        }
        rows
    }

    fn batch_of(rows: &[Vec<f64>]) -> FeatureBatch {
        let mut b = FeatureBatch::new(rows.first().map_or(0, Vec::len));
        for r in rows {
            b.push_row(r).unwrap();
        }
        b
    }

    #[test]
    fn ord_key_is_an_order_isomorphism() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(a <= b, ord_key(a) <= ord_key(b), "a={a}, b={b}");
                assert_eq!(a == b, ord_key(a) == ord_key(b), "a={a}, b={b}");
            }
        }
        // NaN maps to a key strictly above every non-NaN key: the branchless
        // compare then always sends a NaN feature right, as the scalar does.
        for &a in &vals {
            assert!(ord_key(f64::NAN) > ord_key(a));
        }
        assert_eq!(ord_key(f64::NAN), u64::MAX);
    }

    #[test]
    fn nb_plan_matches_scalar_bits() {
        let nb = NaiveBayes::fit(&mixed_dataset()).unwrap();
        let plan = nb.batch_plan();
        let rows = probe_rows();
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
            let s_class = nb.predict(row).unwrap();
            for c in 0..2 {
                assert_eq!(s_ll[c].to_bits(), ll[c * n + r].to_bits(), "ll row {r} class {c}");
                assert_eq!(
                    s_proba[c].to_bits(),
                    proba[r * 2 + c].to_bits(),
                    "proba row {r} class {c}"
                );
            }
            assert_eq!(s_class as u32, classes[r], "class row {r}");
        }
    }

    #[test]
    fn tree_plan_matches_scalar_bits() {
        let tree = DecisionTree::fit(&mixed_dataset(), DecisionTreeParams::default()).unwrap();
        let plan = tree.batch_plan();
        let rows = probe_rows();
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
                assert_eq!(
                    s_proba[c].to_bits(),
                    proba[r * 2 + c].to_bits(),
                    "proba row {r} class {c}"
                );
            }
            assert_eq!(tree.predict(row).unwrap() as u32, classes[r], "class row {r}");
        }
    }

    #[test]
    fn tree_plan_single_leaf_tree() {
        // A pure dataset fits to one leaf: depth 0, every row parks on the
        // self-looping root.
        let schema = Schema::new(vec![FeatureKind::Continuous]);
        let mut ds = Dataset::new(schema, 2);
        for i in 0..10 {
            ds.push(&[i as f64], 1).unwrap();
        }
        let tree = DecisionTree::fit(&ds, DecisionTreeParams::default()).unwrap();
        let plan = tree.batch_plan();
        let rows: Vec<Vec<f64>> = vec![vec![-5.0], vec![0.0], vec![99.0]];
        let batch = batch_of(&rows);
        let mut keys = vec![0u64; 3];
        let mut cur = vec![0u32; 3];
        let mut proba = vec![0.0; 6];
        plan.predict_proba_into(&batch, &mut keys, &mut cur, &mut proba).unwrap();
        for (r, row) in rows.iter().enumerate() {
            let s = tree.predict_proba(row).unwrap();
            assert_eq!(s[0].to_bits(), proba[r * 2].to_bits());
            assert_eq!(s[1].to_bits(), proba[r * 2 + 1].to_bits());
        }
    }

    #[test]
    fn lr_plan_matches_scalar_bits() {
        let lr = LogisticRegression::fit(&mixed_dataset(), LogisticParams::default()).unwrap();
        let plan = lr.batch_plan();
        let rows = probe_rows();
        let batch = batch_of(&rows);
        let n = rows.len();
        let mut p1 = vec![0.0; n];
        let mut proba = vec![0.0; 2 * n];
        let mut classes = vec![0u32; n];
        plan.predict_proba_into(&batch, &mut p1, &mut proba).unwrap();
        plan.predict_into(&batch, &mut p1, &mut classes).unwrap();
        for (r, row) in rows.iter().enumerate() {
            let s_p1 = lr.predict_proba_one(row).unwrap();
            let s_proba = lr.predict_proba(row).unwrap();
            assert_eq!(s_p1.to_bits(), p1[r].to_bits(), "p1 row {r}");
            assert_eq!(s_proba[0].to_bits(), proba[r * 2].to_bits(), "p0 row {r}");
            assert_eq!(s_proba[1].to_bits(), proba[r * 2 + 1].to_bits(), "p1 row {r}");
            assert_eq!(lr.predict(row).unwrap() as u32, classes[r], "class row {r}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let nb = NaiveBayes::fit(&mixed_dataset()).unwrap();
        let plan = nb.batch_plan();
        let batch = FeatureBatch::new(3);
        let mut ll = [0.0; 0];
        let mut out = [0.0; 0];
        plan.predict_proba_into(&batch, &mut ll, &mut out).unwrap();
    }

    #[test]
    fn size_mismatches_are_rejected() {
        let nb = NaiveBayes::fit(&mixed_dataset()).unwrap();
        let plan = nb.batch_plan();
        let batch = batch_of(&probe_rows());
        let mut short = vec![0.0; 3];
        assert!(matches!(
            plan.log_likelihoods_into(&batch, &mut short),
            Err(MlError::DimensionMismatch { .. })
        ));
        let wrong_width = FeatureBatch::new(2);
        let mut ll = [0.0; 0];
        assert!(matches!(
            plan.log_likelihoods_into(&wrong_width, &mut ll),
            Err(MlError::DimensionMismatch { .. })
        ));
        let tree = DecisionTree::fit(&mixed_dataset(), DecisionTreeParams::default()).unwrap();
        let tplan = tree.batch_plan();
        let mut keys = vec![0u64; 1];
        let mut cur = vec![0u32; batch.n_rows()];
        let mut out = vec![0.0; batch.n_rows() * 2];
        assert!(matches!(
            tplan.predict_proba_into(&batch, &mut keys, &mut cur, &mut out),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn feature_batch_reuse_keeps_capacity() {
        let mut b = FeatureBatch::new(2);
        b.push_row(&[1.0, 2.0]).unwrap();
        b.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(b.n_rows(), 2);
        assert_eq!(b.col(0), &[1.0, 3.0]);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.col(1), &[] as &[f64]);
        assert!(b.push_row(&[1.0]).is_err());
    }
}
