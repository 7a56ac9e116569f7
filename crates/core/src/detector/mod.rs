//! The three detection models the paper compares: standalone edge (AD3),
//! collaborative edge (CAD3) and the centralized baseline.
//!
//! AD3 and the centralized baseline are one single-stage type,
//! [`RoutedDetector`]: a routing table from each (road type, time regime)
//! context to a model, per context for AD3 and one city-wide model for the
//! baseline. CAD3 ([`Cad3Detector`]) runs AD3 as its stage 1 and fuses the
//! collaborative summary in a decision-tree stage 2.
//!
//! All are binary classifiers over the Table II features with the
//! paper's class convention (`1` = normal, `0` = abnormal); internally the
//! class index equals [`Label::class`], so the abnormal class is index 0
//! and `p_abnormal = predict_proba(..)[0]`.

mod cad3;
mod routed;
mod trainer;

pub use cad3::Cad3Detector;
pub use routed::RoutedDetector;
pub use trainer::{train_all, TrainedModels};

use crate::collaboration::VehicleSummary;
use crate::CoreError;
use cad3_data::TimeBucket;
use cad3_ml::{
    Dataset, FeatureBatch, FeatureKind, LogisticRegression, MlError, NaiveBayes, Schema,
};
use cad3_types::{FeatureRecord, Label};
use std::cell::RefCell;

/// Output of a detector for one record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Predicted class.
    pub label: Label,
    /// Probability assigned to the abnormal class.
    pub p_abnormal: f64,
}

impl Detection {
    /// Builds a detection from an abnormal-class probability.
    pub fn from_p_abnormal(p: f64) -> Self {
        Detection { label: if p >= 0.5 { Label::Abnormal } else { Label::Normal }, p_abnormal: p }
    }
}

/// The detection settings a caller varies: the two knobs of the DESIGN.md
/// ablations. Both shape CAD3 only; the single-stage models take none.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionConfig {
    /// Eq. 1 fusion weight (0.5 in the paper).
    pub fusion_weight: f64,
    /// How many previous roads of prediction history the collaboration
    /// summaries retain (`None` = unbounded, the paper's behaviour).
    pub summary_road_depth: Option<usize>,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig { fusion_weight: 0.5, summary_road_depth: None }
    }
}

/// The unified detector interface: every model maps a record (plus the
/// optional collaborative context) to a [`Detection`].
///
/// The single-stage models ignore the summary; CAD3 fuses it via
/// Eq. 1. Implementations must be `Send + Sync`: the RSU pipeline shares
/// one model across its parallel worker pool, exactly as a broadcast model
/// is shared across Spark executors.
pub trait Detector: Send + Sync {
    /// Short model name ("ad3", "cad3", "centralized", "logistic-ad3").
    fn name(&self) -> &'static str;

    /// Classifies a record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoModelForRoadType`] when the record's road
    /// type was absent from training, and propagates model errors.
    fn detect(
        &self,
        rec: &FeatureRecord,
        summary: Option<&VehicleSummary>,
    ) -> Result<Detection, CoreError>;

    /// The probability fed into the collaborative summaries (`P_NB` in the
    /// paper). For single-stage models this is the final probability; CAD3
    /// overrides it with its stage-1 Naïve Bayes output so summaries stay
    /// comparable across RSUs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Detector::detect`].
    fn stage1_p_abnormal(&self, rec: &FeatureRecord) -> Result<f64, CoreError> {
        self.detect(rec, None).map(|d| d.p_abnormal)
    }

    /// A summary tracker configured the way this detector was trained
    /// (CAD3 overrides it to apply its summary road depth).
    fn new_tracker(&self) -> crate::SummaryTracker {
        crate::SummaryTracker::new()
    }

    /// Classifies a micro-batch of records, pushing one entry per record
    /// onto `out` (`None` where [`Detector::detect`] would return an
    /// error).
    ///
    /// `observe` is the per-record collaboration hook: it is called exactly
    /// once, **in record order**, for every record whose stage-1 probability
    /// is computable, with that record's index and stage-1 probability, and
    /// returns the summary (if any) to fuse — mirroring how the RSU loop
    /// interleaves `stage1_p_abnormal`, `SummaryTracker::observe` and
    /// [`Detector::detect`]. Records whose stage 1 fails are *not* observed.
    ///
    /// The built-in detectors sweep their models column by column (see
    /// `cad3_ml::batch`), with outputs bit-identical to the per-record
    /// path, which `crates/core/tests/batch_equivalence.rs` checks against a
    /// scalar loop. They sweep through buffers their thread keeps between
    /// calls, so a call no wider than one the thread has made allocates
    /// nothing; an `observe` that itself calls `detect_batch` gets fresh
    /// buffers for that call.
    fn detect_batch(
        &self,
        recs: &[FeatureRecord],
        observe: &mut dyn FnMut(usize, f64) -> Option<VehicleSummary>,
        out: &mut Vec<Option<Detection>>,
    );
}

/// Time-of-day regimes a routing table distinguishes.
pub(crate) const N_BUCKETS: usize = 3;

/// Minimum records a (road type, time regime) context needs for a model of
/// its own; sparser contexts use the hour-pooled road-type model instead.
const MIN_CONTEXT_RECORDS: usize = 200;

/// The time buckets, in routing-table order.
const BUCKETS: [TimeBucket; N_BUCKETS] = [TimeBucket::Night, TimeBucket::Rush, TimeBucket::Normal];

/// Number of (road type, time bucket) contexts a routing table holds.
pub(crate) const N_CONTEXTS: usize = cad3_types::RoadType::ALL.len() * N_BUCKETS;

/// Dense index of a (road type, time bucket) context: its routing-table
/// entry, and the training corpus's per-context group.
pub(crate) fn context_index(road: cad3_types::RoadType, bucket: TimeBucket) -> usize {
    let bucket = match bucket {
        TimeBucket::Night => 0,
        TimeBucket::Rush => 1,
        TimeBucket::Normal => 2,
    };
    usize::from(road.code()) * N_BUCKETS + bucket
}

/// Resolves the context/pooled model-fallback routing of a
/// [`RoutedDetector`] into a dense lookup table at training time, so the batch
/// detect path routes each record with one array index instead of
/// hashing `(RoadType, TimeBucket)` per record.
///
/// Slot 0 means "no model" (the scalar path's `NoModelForRoadType`);
/// slot `s >= 1` indexes `models[s - 1]`. Slots are assigned scanning
/// `RoadType::ALL` × bucket order, so the derived evaluation order is
/// deterministic by construction — no map iteration anywhere.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ModelRouter<M> {
    models: Vec<M>,
    lut: [u16; N_CONTEXTS],
}

impl<M> ModelRouter<M> {
    /// Fits one model per (road type, time regime) context of `records` with
    /// at least [`MIN_CONTEXT_RECORDS`] rows of both classes, and one
    /// hour-pooled model per road type with rows of both classes, then
    /// routes them as [`ModelRouter::build`] does.
    ///
    /// Rows are grouped by [`context_index`] and by road type into flat
    /// datasets held in arrays, each in record order, so a fit's sums run
    /// over its rows in corpus order.
    ///
    /// # Errors
    ///
    /// Propagates `fit`'s errors and returns
    /// [`CoreError::InsufficientTrainingData`] when no context and no road
    /// type is trainable.
    pub(crate) fn train(
        records: &[FeatureRecord],
        mut fit: impl FnMut(&Dataset) -> Result<M, MlError>,
    ) -> Result<Self, CoreError> {
        let mut by_context = vec![Dataset::new(nb_schema(), 2); N_CONTEXTS];
        let mut by_type = vec![Dataset::new(nb_schema(), 2); cad3_types::RoadType::ALL.len()];
        for rec in records {
            let (row, label) = (nb_features(rec), rec.label.class() as usize);
            by_context[context_index(rec.road_type, TimeBucket::of(rec.hour))].push(&row, label)?;
            by_type[usize::from(rec.road_type.code())].push(&row, label)?;
        }
        let mut fit_if = |ds: &Dataset, min_rows: usize| -> Result<Option<M>, CoreError> {
            let trainable = ds.len() >= min_rows && ds.class_counts().iter().all(|&c| c > 0);
            Ok(trainable.then(|| fit(ds)).transpose()?)
        };
        let mut contexts = Vec::with_capacity(N_CONTEXTS);
        for ds in &by_context {
            contexts.push(fit_if(ds, MIN_CONTEXT_RECORDS)?);
        }
        let mut pooled = Vec::with_capacity(by_type.len());
        for ds in &by_type {
            pooled.push(fit_if(ds, 0)?);
        }
        if contexts.iter().chain(&pooled).all(Option::is_none) {
            return Err(CoreError::InsufficientTrainingData {
                what: "no (road type, time regime) context had examples of both classes".to_owned(),
            });
        }
        Ok(Self::build(
            |road, bucket| contexts[context_index(road, bucket)].take(),
            |road| pooled[usize::from(road.code())].take(),
        ))
    }

    /// Fits one model on every row of `records`, in record order, and
    /// routes every context to it: the centralized baseline's table.
    ///
    /// # Errors
    ///
    /// Propagates `fit`'s errors.
    pub(crate) fn pooled(
        records: &[FeatureRecord],
        fit: impl FnOnce(&Dataset) -> Result<M, MlError>,
    ) -> Result<Self, CoreError> {
        let mut ds = Dataset::new(nb_schema(), 2);
        for rec in records {
            ds.push(&nb_features(rec), rec.label.class() as usize)?;
        }
        Ok(ModelRouter { models: vec![fit(&ds)?], lut: [1; N_CONTEXTS] })
    }

    /// Builds the table from the per-context and pooled model sources,
    /// mirroring the scalar fallback: a context model where one was
    /// trained, else the road type's hour-pooled model, else no model.
    fn build(
        mut ctx_model: impl FnMut(cad3_types::RoadType, cad3_data::TimeBucket) -> Option<M>,
        mut pooled_model: impl FnMut(cad3_types::RoadType) -> Option<M>,
    ) -> Self {
        let mut models = Vec::new();
        let mut lut = [0u16; N_CONTEXTS];
        for road in cad3_types::RoadType::ALL {
            let mut pooled_slot = 0u16;
            for bucket in BUCKETS {
                let slot = if let Some(m) = ctx_model(road, bucket) {
                    models.push(m);
                    models.len() as u16
                } else if pooled_slot != 0 {
                    pooled_slot
                } else if let Some(m) = pooled_model(road) {
                    models.push(m);
                    pooled_slot = models.len() as u16;
                    pooled_slot
                } else {
                    0
                };
                lut[context_index(road, bucket)] = slot;
            }
        }
        ModelRouter { models, lut }
    }

    /// The model slot for a record's context (0 = no model).
    #[inline]
    pub(crate) fn slot(&self, road: cad3_types::RoadType, bucket: TimeBucket) -> u16 {
        self.lut.get(context_index(road, bucket)).copied().unwrap_or(0)
    }

    /// Number of assigned model slots (valid slots are `1..=n_slots()`).
    pub(crate) fn n_slots(&self) -> usize {
        self.models.len()
    }

    /// The model behind a slot (`None` for slot 0, "no model").
    #[inline]
    pub(crate) fn model(&self, slot: u16) -> Option<&M> {
        usize::from(slot).checked_sub(1).and_then(|i| self.models.get(i))
    }
}

impl<M: RoutedModel> ModelRouter<M> {
    /// The routed model's abnormal-class probability for one record: the
    /// scalar detect path. One LUT index and one allocation-free row through
    /// the model, so it returns the bits [`ModelRouter::p_abnormal_into`]
    /// sweeps for the same record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoModelForRoadType`] where no model covers the
    /// record's context, and [`CoreError::Ml`] if the model rejects the row.
    pub(crate) fn p_abnormal(&self, rec: &FeatureRecord) -> Result<f64, CoreError> {
        let model = self
            .model(self.slot(rec.road_type, TimeBucket::of(rec.hour)))
            .ok_or(CoreError::NoModelForRoadType(rec.road_type))?;
        let mut proba = [0.0; 2];
        model.proba_row(&nb_features(rec), &mut proba)?;
        // Class 0 is abnormal in the paper's convention.
        let [p_abnormal, _] = proba;
        Ok(p_abnormal)
    }

    /// The routed models' abnormal-class probability for every record,
    /// pushed onto `out` (`None` where no model covers the record's
    /// context, or its model rejects the sweep).
    ///
    /// Every record is routed with one LUT index (no per-record hashing),
    /// the batch is split into per-model groups with one counting-sort pass,
    /// and each group is evaluated through its model in one column-major
    /// sweep. Slot order is fixed at training time, so evaluation order is
    /// deterministic. Bit-identical to the scalar path.
    pub(crate) fn p_abnormal_into(
        &self,
        recs: &[FeatureRecord],
        sweep: &mut SweepScratch,
        out: &mut Vec<Option<f64>>,
    ) {
        let base = out.len();
        out.resize(base + recs.len(), None);
        let SweepScratch { slots, starts, cursor, grouped, batch, scratch, proba } = sweep;
        slots.clear();
        slots.extend(recs.iter().map(|rec| self.slot(rec.road_type, TimeBucket::of(rec.hour))));
        group_by_slot(slots, self.n_slots(), starts, cursor, grouped);
        for slot in 1..=self.n_slots() as u16 {
            let idxs = &grouped
                [starts[usize::from(slot)] as usize..starts[usize::from(slot) + 1] as usize];
            if idxs.is_empty() {
                continue; // slot 0 (no model) stays None: NoModelForRoadType
            }
            let Some(model) = self.model(slot) else { continue };
            batch.clear();
            for &i in idxs {
                // Schema validation is vacuous for these rows, so it is
                // skipped: `nb_features` rows are valid by type construction
                // (`HourOfDay` is 0..24, `RoadType::code` is 0..10,
                // continuous columns are never checked), and the width
                // always matches, so `push_row` cannot fail either.
                let _ = batch.push_row(&nb_features(&recs[i as usize]));
            }
            let n = batch.n_rows();
            scratch.clear();
            scratch.resize(model.scratch_len(n), 0.0);
            proba.clear();
            proba.resize(model.n_classes() * n, 0.0);
            if model.proba_into(batch, scratch, proba).is_err() {
                continue;
            }
            for (k, &i) in idxs.iter().enumerate() {
                // Class 0 is abnormal in the paper's convention.
                out[base + i as usize] = Some(proba[k * model.n_classes()]);
            }
        }
    }
}

/// A model family a [`RoutedDetector`] routes records to: row-major class
/// probabilities over a [`FeatureBatch`], through one scratch buffer, and
/// the same probabilities for one row. Implemented by [`NaiveBayes`] and
/// [`LogisticRegression`].
pub trait RoutedModel: Send + Sync {
    /// Number of classes (the stride of the probability rows).
    fn n_classes(&self) -> usize;
    /// Class probabilities of one row, bit for bit those of the sweep.
    fn proba_row(&self, row: &[f64], out: &mut [f64]) -> Result<(), MlError>;
    /// Length of the scratch buffer a sweep over `rows` rows needs.
    fn scratch_len(&self, rows: usize) -> usize;
    /// Row-major class probabilities of every row of `batch`.
    fn proba_into(
        &self,
        batch: &FeatureBatch,
        scratch: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), MlError>;
}

impl RoutedModel for NaiveBayes {
    fn n_classes(&self) -> usize {
        NaiveBayes::n_classes(self)
    }
    fn proba_row(&self, row: &[f64], out: &mut [f64]) -> Result<(), MlError> {
        self.predict_proba_row(row, out)
    }
    fn scratch_len(&self, rows: usize) -> usize {
        NaiveBayes::n_classes(self) * rows
    }
    fn proba_into(
        &self,
        batch: &FeatureBatch,
        scratch: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), MlError> {
        self.predict_proba_into(batch, scratch, out)
    }
}

impl RoutedModel for LogisticRegression {
    fn n_classes(&self) -> usize {
        2
    }
    fn proba_row(&self, row: &[f64], out: &mut [f64]) -> Result<(), MlError> {
        self.predict_proba_row(row, out)
    }
    fn scratch_len(&self, rows: usize) -> usize {
        rows
    }
    fn proba_into(
        &self,
        batch: &FeatureBatch,
        scratch: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), MlError> {
        self.predict_proba_into(batch, scratch, out)
    }
}

/// Splits a record batch into per-model groups with one counting-sort
/// pass: `slots[i]` is record *i*'s routing slot, and on return
/// `grouped[starts[s] as usize..starts[s + 1] as usize]` lists the
/// records of slot `s` in record order. `cursor` is the pass's write
/// position per slot. No hashing, no tree nodes.
fn group_by_slot(
    slots: &[u16],
    n_slots: usize,
    starts: &mut Vec<u32>,
    cursor: &mut Vec<u32>,
    grouped: &mut Vec<u32>,
) {
    starts.clear();
    starts.resize(n_slots + 2, 0);
    for &s in slots {
        starts[usize::from(s) + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    grouped.clear();
    grouped.resize(slots.len(), 0);
    cursor.clone_from(starts);
    for (i, &s) in slots.iter().enumerate() {
        let c = &mut cursor[usize::from(s)];
        grouped[*c as usize] = i as u32;
        *c += 1;
    }
}

/// The buffers of one routed stage-1 sweep ([`ModelRouter::p_abnormal_into`]).
#[derive(Debug)]
pub(crate) struct SweepScratch {
    /// Routing slot per record.
    slots: Vec<u16>,
    /// Group bounds per slot, and the grouping pass's write cursor.
    starts: Vec<u32>,
    cursor: Vec<u32>,
    /// Record indices grouped by slot.
    grouped: Vec<u32>,
    /// One group's `[InstSpeed, accel, Hour, RdType]` rows.
    batch: FeatureBatch,
    /// The model's own scratch (NB log-likelihoods, LR class-1 probabilities).
    scratch: Vec<f64>,
    /// Row-major class probabilities of the group.
    proba: Vec<f64>,
}

/// The buffers of CAD3's stage-2 tree sweep.
#[derive(Debug)]
pub(crate) struct TreeScratch {
    /// The fused `[Hour, P_X, Class_NB]` rows.
    pub(crate) batch: FeatureBatch,
    /// The `out` index each fused row fills.
    pub(crate) rows: Vec<usize>,
    /// The tree's quantized features and per-row node cursor.
    pub(crate) keys: Vec<u64>,
    pub(crate) cur: Vec<u32>,
    /// Row-major leaf distributions.
    pub(crate) proba: Vec<f64>,
}

/// Every sweep buffer of a built-in [`Detector::detect_batch`], kept per
/// thread and reused call after call: each call clears and resizes what it
/// uses, so once a thread has run a batch as wide, a call allocates
/// nothing. Per thread rather than per call site because the trait's
/// three-argument `detect_batch` has no place to pass it in.
#[derive(Debug)]
pub(crate) struct DetectScratch {
    /// Stage-1 probability per record.
    pub(crate) p1: Vec<Option<f64>>,
    pub(crate) sweep: SweepScratch,
    pub(crate) tree: TreeScratch,
}

impl DetectScratch {
    fn new() -> Self {
        DetectScratch {
            p1: Vec::new(),
            sweep: SweepScratch {
                slots: Vec::new(),
                starts: Vec::new(),
                cursor: Vec::new(),
                grouped: Vec::new(),
                batch: FeatureBatch::new(4),
                scratch: Vec::new(),
                proba: Vec::new(),
            },
            tree: TreeScratch {
                batch: FeatureBatch::new(3),
                rows: Vec::new(),
                keys: Vec::new(),
                cur: Vec::new(),
                proba: Vec::new(),
            },
        }
    }
}

thread_local! {
    /// This thread's [`DetectScratch`].
    static SCRATCH: RefCell<DetectScratch> = RefCell::new(DetectScratch::new());
}

/// Runs `f` on this thread's [`DetectScratch`]. A re-entrant call — an
/// `observe` hook that itself runs `detect_batch` while the outer call
/// holds the scratch — gets fresh buffers instead.
pub(crate) fn with_scratch(f: impl FnOnce(&mut DetectScratch)) {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut DetectScratch::new()),
    })
}

/// The feature schema of the single-stage models:
/// `[InstSpeed, accel, Hour, RdType]` (the paper's four features).
pub(crate) fn nb_schema() -> Schema {
    Schema::new(vec![
        FeatureKind::Continuous,
        FeatureKind::Continuous,
        FeatureKind::Categorical { cardinality: 24 },
        FeatureKind::Categorical { cardinality: 10 },
    ])
}

/// Encodes a record into the NB feature row.
pub(crate) fn nb_features(rec: &FeatureRecord) -> [f64; 4] {
    [rec.speed_kmh, rec.accel_mps2, rec.hour.get() as f64, rec.road_type.code() as f64]
}

/// The Decision Tree feature schema of the collaborative model:
/// `[Hour, P_X, Class_NB]` (the paper's Fig. 4). The hour enters as the
/// 3-level time-of-day regime rather than 24 raw values: the tree's
/// training set (summary-bearing link records) is far too sparse per raw
/// hour, and raw-hour splits overfit cells that shift between trips.
pub(crate) fn dt_schema() -> Schema {
    Schema::new(vec![
        FeatureKind::Categorical { cardinality: 3 },
        FeatureKind::Continuous,
        FeatureKind::Categorical { cardinality: 2 },
    ])
}

/// Encodes an hour into the DT's coarse time-regime code.
pub(crate) fn dt_hour_code(hour: cad3_types::HourOfDay) -> f64 {
    match cad3_data::TimeBucket::of(hour) {
        cad3_data::TimeBucket::Night => 0.0,
        cad3_data::TimeBucket::Rush => 1.0,
        cad3_data::TimeBucket::Normal => 2.0,
    }
}

/// The paper's Eq. 1: `P_X = w · P̄_prevs + (1 − w) · P_NB`, degrading to
/// `P_NB` when no summary exists yet.
pub(crate) fn fuse_probability(p_nb: f64, summary: Option<&VehicleSummary>, weight: f64) -> f64 {
    match summary {
        Some(s) => weight * s.mean_probability + (1.0 - weight) * p_nb,
        None => p_nb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad3_types::{DayOfWeek, HourOfDay, RoadId, RoadType, TripId, VehicleId};

    fn rec() -> FeatureRecord {
        FeatureRecord {
            vehicle: VehicleId(1),
            trip: TripId(1),
            road: RoadId(1),
            accel_mps2: -0.5,
            speed_kmh: 88.0,
            hour: HourOfDay::new(17).unwrap(),
            day: DayOfWeek::Friday,
            road_type: RoadType::Motorway,
            road_speed_kmh: 100.0,
            label: Label::Normal,
        }
    }

    #[test]
    fn nb_features_encode_paper_columns() {
        let f = nb_features(&rec());
        assert_eq!(f, [88.0, -0.5, 17.0, 0.0]);
        nb_schema().validate(&f).unwrap();
    }

    #[test]
    fn dt_schema_validates_fusion_vector() {
        dt_schema().validate(&[1.0, 0.65, 1.0]).unwrap();
        assert!(dt_schema().validate(&[3.0, 0.65, 1.0]).is_err());
    }

    #[test]
    fn dt_hour_code_buckets() {
        use cad3_types::HourOfDay;
        let code = |h: u8| dt_hour_code(HourOfDay::new(h).unwrap());
        assert_eq!(code(3), 0.0); // night
        assert_eq!(code(8), 1.0); // rush
        assert_eq!(code(18), 1.0); // rush
        assert_eq!(code(13), 2.0); // normal
    }

    #[test]
    fn eq1_fusion() {
        let s = VehicleSummary { mean_probability: 0.8, count: 5, last_class: 0 };
        assert!((fuse_probability(0.2, Some(&s), 0.5) - 0.5).abs() < 1e-12);
        assert!((fuse_probability(0.2, None, 0.5) - 0.2).abs() < 1e-12);
        // Weight 0 ignores the summary; weight 1 trusts it fully.
        assert!((fuse_probability(0.2, Some(&s), 0.0) - 0.2).abs() < 1e-12);
        assert!((fuse_probability(0.2, Some(&s), 1.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn detection_threshold() {
        assert_eq!(Detection::from_p_abnormal(0.7).label, Label::Abnormal);
        assert_eq!(Detection::from_p_abnormal(0.5).label, Label::Abnormal);
        assert_eq!(Detection::from_p_abnormal(0.49).label, Label::Normal);
    }
}
