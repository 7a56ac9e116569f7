use super::{nb_features, nb_schema, single_stage, with_scratch, Detection, Detector, PlanRouter};
use crate::collaboration::VehicleSummary;
use crate::CoreError;
use cad3_data::TimeBucket;
use cad3_ml::{Dataset, LogisticParams, LogisticRegression, LrBatchPlan};
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
        with_scratch(|s| {
            s.p1.clear();
            self.router.p_abnormal_into(recs, &mut s.sweep, &mut s.p1);
            single_stage(&s.p1, observe, out);
        });
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
