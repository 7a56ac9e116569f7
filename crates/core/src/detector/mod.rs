//! The three detection models the paper compares: standalone edge (AD3),
//! collaborative edge (CAD3) and the centralized baseline.
//!
//! All three are binary classifiers over the Table II features with the
//! paper's class convention (`1` = normal, `0` = abnormal); internally the
//! class index equals [`Label::class`], so the abnormal class is index 0
//! and `p_abnormal = predict_proba(..)[0]`.

mod ad3;
mod cad3;
mod centralized;
mod logistic;
mod trainer;

pub use ad3::Ad3Detector;
pub use cad3::Cad3Detector;
pub use centralized::CentralizedDetector;
pub use logistic::LogisticAd3Detector;
pub use trainer::{train_all, TrainedModels};

use crate::collaboration::VehicleSummary;
use crate::CoreError;
use cad3_ml::{DecisionTreeParams, FeatureKind, Schema};
use cad3_types::{FeatureRecord, Label};

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

/// Hyper-parameters of model training.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionConfig {
    /// Decision-tree hyper-parameters for the collaborative model.
    pub dt_params: DecisionTreeParams,
    /// Eq. 1 fusion weight (0.5 in the paper).
    pub fusion_weight: f64,
    /// How many previous roads of prediction history the collaboration
    /// summaries retain (`None` = unbounded, the paper's behaviour).
    pub summary_road_depth: Option<usize>,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        // The stage-2 tree sees only summary-bearing records (a fraction of
        // the corpus) over a low-dimensional feature space; keep it shallow
        // and well-supported so sparse hour cells cannot carve degenerate
        // leaves.
        DetectionConfig {
            dt_params: DecisionTreeParams {
                max_depth: 6,
                min_samples_split: 50,
                min_samples_leaf: 25,
                max_thresholds: 32,
            },
            fusion_weight: 0.5,
            summary_road_depth: None,
        }
    }
}

/// The unified detector interface: every model maps a record (plus the
/// optional collaborative context) to a [`Detection`].
///
/// AD3 and the centralized baseline ignore the summary; CAD3 fuses it via
/// Eq. 1. Implementations must be `Send + Sync`: the RSU pipeline shares
/// one model across its parallel worker pool, exactly as a broadcast model
/// is shared across Spark executors.
pub trait Detector: Send + Sync {
    /// Short model name ("ad3", "cad3", "centralized").
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
    /// onto `out` (`None` where the scalar path would return an error).
    ///
    /// `observe` is the per-record collaboration hook: it is called exactly
    /// once, **in record order**, for every record whose stage-1 probability
    /// is computable, with that record's index and stage-1 probability, and
    /// returns the summary (if any) to fuse — mirroring how the RSU loop
    /// interleaves `stage1_p_abnormal`, `SummaryTracker::observe` and
    /// [`Detector::detect`]. Records whose stage 1 fails are *not* observed.
    ///
    /// The default implementation is the scalar loop; the built-in
    /// detectors override it with column-major batch plans whose outputs
    /// are bit-identical to the scalar path (see `cad3_ml::batch`).
    fn detect_batch(
        &self,
        recs: &[FeatureRecord],
        observe: &mut dyn FnMut(usize, f64) -> Option<VehicleSummary>,
        out: &mut Vec<Option<Detection>>,
    ) {
        scalar_detect_batch(self, recs, observe, out);
    }
}

/// The scalar reference loop behind [`Detector::detect_batch`]'s default:
/// per-record stage 1, observation, then classification, in record order.
///
/// The built-in detectors never route here — their batch plans take every
/// width, down to one record and the empty slice. It stays as the reference
/// the `batch_equivalence` proptests hold those plans bit-identical to.
fn scalar_detect_batch<D: Detector + ?Sized>(
    det: &D,
    recs: &[FeatureRecord],
    observe: &mut dyn FnMut(usize, f64) -> Option<VehicleSummary>,
    out: &mut Vec<Option<Detection>>,
) {
    for (i, rec) in recs.iter().enumerate() {
        let Ok(p1) = det.stage1_p_abnormal(rec) else {
            out.push(None);
            continue;
        };
        let summary = observe(i, p1);
        out.push(det.detect(rec, summary.as_ref()).ok());
    }
}

/// Time-of-day regimes a routing table distinguishes.
pub(crate) const N_BUCKETS: usize = 3;

/// Dense index of a time bucket for the routing LUT.
pub(crate) fn bucket_index(bucket: cad3_data::TimeBucket) -> usize {
    match bucket {
        cad3_data::TimeBucket::Night => 0,
        cad3_data::TimeBucket::Rush => 1,
        cad3_data::TimeBucket::Normal => 2,
    }
}

/// Resolves the context/pooled model-fallback routing of the AD3-style
/// detectors into a dense lookup table at training time, so the batch
/// detect path routes each record with one array index instead of
/// hashing `(RoadType, TimeBucket)` per record.
///
/// Slot 0 means "no model" (the scalar path's `NoModelForRoadType`);
/// slot `s >= 1` indexes `plans[s - 1]`. Slots are assigned scanning
/// `RoadType::ALL` × bucket order, so the derived evaluation order is
/// deterministic by construction — no map iteration anywhere.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanRouter<P> {
    plans: Vec<P>,
    lut: [u16; cad3_types::RoadType::ALL.len() * N_BUCKETS],
}

impl<P> PlanRouter<P> {
    /// Builds the table from the per-context and pooled plan sources,
    /// mirroring the scalar fallback: a context plan where one was
    /// trained, else the road type's hour-pooled plan, else no model.
    pub(crate) fn build(
        mut ctx_plan: impl FnMut(cad3_types::RoadType, cad3_data::TimeBucket) -> Option<P>,
        mut pooled_plan: impl FnMut(cad3_types::RoadType) -> Option<P>,
    ) -> Self {
        use cad3_data::TimeBucket;
        let mut plans = Vec::new();
        let mut lut = [0u16; cad3_types::RoadType::ALL.len() * N_BUCKETS];
        for road in cad3_types::RoadType::ALL {
            let mut pooled_slot = 0u16;
            for bucket in [TimeBucket::Night, TimeBucket::Rush, TimeBucket::Normal] {
                let slot = if let Some(p) = ctx_plan(road, bucket) {
                    plans.push(p);
                    plans.len() as u16
                } else if pooled_slot != 0 {
                    pooled_slot
                } else if let Some(p) = pooled_plan(road) {
                    plans.push(p);
                    pooled_slot = plans.len() as u16;
                    pooled_slot
                } else {
                    0
                };
                lut[road.code() as usize * N_BUCKETS + bucket_index(bucket)] = slot;
            }
        }
        PlanRouter { plans, lut }
    }

    /// The plan slot for a record's context (0 = no model).
    #[inline]
    pub(crate) fn slot(&self, road: cad3_types::RoadType, bucket: cad3_data::TimeBucket) -> u16 {
        self.lut[road.code() as usize * N_BUCKETS + bucket_index(bucket)]
    }

    /// Number of assigned plan slots (valid slots are `1..=n_slots()`).
    pub(crate) fn n_slots(&self) -> usize {
        self.plans.len()
    }

    /// The plan behind a non-zero slot.
    #[inline]
    pub(crate) fn plan(&self, slot: u16) -> &P {
        &self.plans[usize::from(slot) - 1]
    }
}

/// Splits a record batch into per-plan groups with one counting-sort
/// pass: `slots[i]` is record *i*'s routing slot, and on return
/// `grouped[starts[s] as usize..starts[s + 1] as usize]` lists the
/// records of slot `s` in record order. No hashing, no tree nodes.
pub(crate) fn group_by_slot(
    slots: &[u16],
    n_slots: usize,
    starts: &mut Vec<u32>,
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
    let mut cursor = starts.clone();
    for (i, &s) in slots.iter().enumerate() {
        let c = &mut cursor[usize::from(s)];
        grouped[*c as usize] = i as u32;
        *c += 1;
    }
}

/// The Naïve Bayes feature schema shared by AD3 and the centralized model:
/// `[InstSpeed, accel, Hour, RdType]` (the paper's four features).
pub(crate) fn nb_schema() -> Schema {
    Schema::new(vec![
        FeatureKind::Continuous,
        FeatureKind::Continuous,
        FeatureKind::Categorical { cardinality: 24 },
        FeatureKind::Categorical { cardinality: 10 },
    ])
}

/// Encodes a record into the NB feature vector.
pub(crate) fn nb_features(rec: &FeatureRecord) -> Vec<f64> {
    vec![rec.speed_kmh, rec.accel_mps2, rec.hour.get() as f64, rec.road_type.code() as f64]
}

/// Allocation-free variant of [`nb_features`] for the batch detect path.
pub(crate) fn nb_feature_array(rec: &FeatureRecord) -> [f64; 4] {
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
        assert_eq!(f, vec![88.0, -0.5, 17.0, 0.0]);
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
