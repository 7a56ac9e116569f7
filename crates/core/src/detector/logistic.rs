use super::{
    group_by_slot, nb_feature_array, nb_features, nb_schema, Detection, Detector, PlanRouter,
};
use crate::collaboration::VehicleSummary;
use crate::CoreError;
use cad3_data::TimeBucket;
use cad3_ml::{Dataset, FeatureBatch, LogisticParams, LogisticRegression, LrBatchPlan};
use cad3_types::{FeatureRecord, RoadType};
use std::collections::HashMap;

/// A logistic-regression variant of the standalone edge detector — the
/// "more complex anomaly detection algorithms" the paper leaves as future
/// work, hosted unchanged by the CAD3 pipeline (it implements the same
/// [`Detector`] interface as the Naïve Bayes stage, so it drops into the
/// RSU, the testbed and the collaboration flow).
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticAd3Detector {
    models: HashMap<(RoadType, TimeBucket), LogisticRegression>,
    pooled: HashMap<RoadType, LogisticRegression>,
    /// Column-major batch plans behind a dense (road, bucket) routing
    /// table, precomputed at training time for the RSU detect path.
    router: PlanRouter<LrBatchPlan>,
}

impl LogisticAd3Detector {
    /// Trains one logistic model per (road type, time regime), with
    /// hour-pooled per-road-type fallbacks, mirroring
    /// [`super::Ad3Detector::train`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientTrainingData`] when no context is
    /// trainable.
    pub fn train(records: &[FeatureRecord], params: LogisticParams) -> Result<Self, CoreError> {
        const MIN_CONTEXT_RECORDS: usize = 200;
        let mut by_context: HashMap<(RoadType, TimeBucket), Dataset> = HashMap::new();
        let mut by_type: HashMap<RoadType, Dataset> = HashMap::new();
        for rec in records {
            by_context
                .entry((rec.road_type, TimeBucket::of(rec.hour)))
                .or_insert_with(|| Dataset::new(nb_schema(), 2))
                .push(nb_features(rec), rec.label.class() as usize)?;
            by_type
                .entry(rec.road_type)
                .or_insert_with(|| Dataset::new(nb_schema(), 2))
                .push(nb_features(rec), rec.label.class() as usize)?;
        }
        let mut models = HashMap::new();
        for (key, ds) in by_context {
            if ds.len() >= MIN_CONTEXT_RECORDS && ds.class_counts().iter().all(|&c| c > 0) {
                models.insert(key, LogisticRegression::fit(&ds, params)?);
            }
        }
        let mut pooled = HashMap::new();
        for (rt, ds) in by_type {
            if ds.class_counts().iter().all(|&c| c > 0) {
                pooled.insert(rt, LogisticRegression::fit(&ds, params)?);
            }
        }
        if models.is_empty() && pooled.is_empty() {
            return Err(CoreError::InsufficientTrainingData {
                what: "no context had examples of both classes".to_owned(),
            });
        }
        let router = PlanRouter::build(
            |road, bucket| models.get(&(road, bucket)).map(LogisticRegression::batch_plan),
            |road| pooled.get(&road).map(LogisticRegression::batch_plan),
        );
        Ok(LogisticAd3Detector { models, pooled, router })
    }

    /// The abnormal-class probability for a record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoModelForRoadType`] for untrained road types.
    pub fn p_abnormal(&self, rec: &FeatureRecord) -> Result<f64, CoreError> {
        let bucket = TimeBucket::of(rec.hour);
        let model = self
            .models
            .get(&(rec.road_type, bucket))
            .or_else(|| self.pooled.get(&rec.road_type))
            .ok_or(CoreError::NoModelForRoadType(rec.road_type))?;
        // Class 0 is abnormal in the paper's convention.
        Ok(model.predict_proba(&nb_features(rec))?[0])
    }

    /// Batched [`LogisticAd3Detector::p_abnormal`]: one entry per record,
    /// `None` where the scalar path errors. Bit-identical to the scalar
    /// path; grouping mirrors the context → pooled fallback.
    pub fn p_abnormal_batch(&self, recs: &[FeatureRecord], out: &mut Vec<Option<f64>>) {
        let base = out.len();
        out.resize(base + recs.len(), None);
        // Dense-LUT routing + counting-sort grouping, deterministic by
        // construction — see `Ad3Detector::p_abnormal_batch`.
        let mut slots: Vec<u16> = Vec::with_capacity(recs.len());
        for rec in recs {
            slots.push(self.router.slot(rec.road_type, TimeBucket::of(rec.hour)));
        }
        let mut starts: Vec<u32> = Vec::new();
        let mut grouped: Vec<u32> = Vec::new();
        group_by_slot(&slots, self.router.n_slots(), &mut starts, &mut grouped);
        let mut batch = FeatureBatch::new(4);
        let mut p1 = Vec::new();
        let mut proba = Vec::new();
        for slot in 1..=self.router.n_slots() as u16 {
            let idxs = &grouped
                [starts[usize::from(slot)] as usize..starts[usize::from(slot) + 1] as usize];
            if idxs.is_empty() {
                continue;
            }
            let plan = self.router.plan(slot);
            batch.clear();
            for &i in idxs {
                // Schema validation is vacuous for these rows — see
                // `Ad3Detector::p_abnormal_batch` — and the width always
                // matches, so `push_row` cannot fail either.
                let _ = batch.push_row(&nb_feature_array(&recs[i as usize]));
            }
            let n = batch.n_rows();
            p1.clear();
            p1.resize(n, 0.0);
            proba.clear();
            proba.resize(2 * n, 0.0);
            if plan.predict_proba_into(&batch, &mut p1, &mut proba).is_err() {
                continue;
            }
            for (k, &i) in idxs.iter().enumerate() {
                // proba is row-major [P(0), P(1)]; class 0 is abnormal.
                out[base + i as usize] = Some(proba[k * 2]);
            }
        }
    }
}

impl Detector for LogisticAd3Detector {
    fn name(&self) -> &'static str {
        "logistic-ad3"
    }

    fn detect(
        &self,
        rec: &FeatureRecord,
        _summary: Option<&VehicleSummary>,
    ) -> Result<Detection, CoreError> {
        Ok(Detection::from_p_abnormal(self.p_abnormal(rec)?))
    }

    fn detect_batch(
        &self,
        recs: &[FeatureRecord],
        observe: &mut dyn FnMut(usize, f64) -> Option<VehicleSummary>,
        out: &mut Vec<Option<Detection>>,
    ) {
        let mut p_abn: Vec<Option<f64>> = Vec::with_capacity(recs.len());
        self.p_abnormal_batch(recs, &mut p_abn);
        for (i, p) in p_abn.iter().enumerate() {
            let Some(p) = *p else {
                out.push(None);
                continue;
            };
            let _ = observe(i, p);
            out.push(Some(Detection::from_p_abnormal(p)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad3_data::{DatasetConfig, SyntheticDataset};
    use cad3_ml::ConfusionMatrix;
    use cad3_types::Label;

    #[test]
    fn drops_into_the_detector_interface() {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(71));
        let cut = ds.features.len() * 8 / 10;
        let det =
            LogisticAd3Detector::train(&ds.features[..cut], LogisticParams::default()).unwrap();
        assert_eq!(det.name(), "logistic-ad3");
        let mut cm = ConfusionMatrix::new();
        for rec in &ds.features[cut..] {
            if let Ok(d) = det.detect(rec, None) {
                cm.record(rec.label == Label::Abnormal, d.label == Label::Abnormal);
            }
        }
        assert!(cm.total() > 100);
        assert!(cm.accuracy() > 0.65, "accuracy {}", cm.accuracy());
        assert!(cm.f1() > 0.4, "f1 {}", cm.f1());
    }

    #[test]
    fn insufficient_data_is_an_error() {
        assert!(matches!(
            LogisticAd3Detector::train(&[], LogisticParams::default()),
            Err(CoreError::InsufficientTrainingData { .. }) | Err(CoreError::Ml(_))
        ));
    }
}
