use super::{single_stage, with_scratch, Detection, Detector, ModelRouter};
use crate::collaboration::VehicleSummary;
use crate::CoreError;
use cad3_ml::NaiveBayes;
use cad3_types::{FeatureRecord, RoadType};

/// The distributed standalone detector (the paper's AD3): one Naïve Bayes
/// model per spatio-temporal context — road type × time-of-day regime.
///
/// Each RSU "learns the normal behavior over time and maintains contextual
/// information of the road in its coverage" (road type, hour of the day and
/// speed profile); conditioning the model on the time regime is what gives
/// the edge deployment its fine-grained context-awareness, which the
/// city-wide centralized baseline lacks.
#[derive(Debug, Clone, PartialEq)]
pub struct Ad3Detector {
    /// Each context's model behind a dense (road, bucket) routing table
    /// built at training time: a context without a model of its own routes
    /// to its road type's hour-pooled model. Both detect paths go through
    /// it, and CAD3's stage 1 too.
    pub(super) router: ModelRouter<NaiveBayes>,
}

impl Ad3Detector {
    /// Trains one model per (road type, time regime) present in `records`.
    ///
    /// Contexts whose sub-dataset lacks one of the two classes are skipped
    /// (an RSU cannot learn a normal profile from one-sided data);
    /// detection falls back to a sibling regime of the same road type and
    /// reports [`CoreError::NoModelForRoadType`] if none exists.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientTrainingData`] when no context is
    /// trainable at all.
    pub fn train(records: &[FeatureRecord]) -> Result<Self, CoreError> {
        let router = ModelRouter::train(records, NaiveBayes::fit)?;
        Ok(Ad3Detector { router })
    }

    /// Road types with at least one trained model.
    pub fn road_types(&self) -> Vec<RoadType> {
        self.router.road_types()
    }

    /// The abnormal-class probability for a record: one allocation-free row
    /// through the routed model, bit for bit what `detect_batch` sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoModelForRoadType`] for untrained road types.
    pub fn p_abnormal(&self, rec: &FeatureRecord) -> Result<f64, CoreError> {
        self.router.p_abnormal(rec)
    }
}

impl Detector for Ad3Detector {
    fn name(&self) -> &'static str {
        "ad3"
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
    use cad3_data::{DatasetConfig, SyntheticDataset, TimeBucket};
    use cad3_ml::ConfusionMatrix;
    use cad3_types::Label;

    fn corpus() -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig::small(31))
    }

    #[test]
    fn trains_models_for_observed_types() {
        let ds = corpus();
        let det = Ad3Detector::train(&ds.features).unwrap();
        assert!(det.road_types().contains(&RoadType::Motorway));
        assert!(det.road_types().contains(&RoadType::MotorwayLink));
    }

    #[test]
    fn beats_chance_clearly() {
        let ds = corpus();
        let (train, test) = {
            let cut = ds.features.len() * 8 / 10;
            (&ds.features[..cut], &ds.features[cut..])
        };
        let det = Ad3Detector::train(train).unwrap();
        let mut cm = ConfusionMatrix::new();
        for rec in test {
            if let Ok(d) = det.detect(rec, None) {
                cm.record(rec.label == Label::Abnormal, d.label == Label::Abnormal);
            }
        }
        assert!(cm.total() > 100);
        assert!(cm.accuracy() > 0.7, "accuracy {}", cm.accuracy());
        assert!(cm.f1() > 0.5, "f1 {}", cm.f1());
    }

    #[test]
    fn context_awareness_uses_road_type_models() {
        // A speed that is normal on a motorway must be flagged on a link —
        // the paper's Section IV-C example.
        let ds = corpus();
        let det = Ad3Detector::train(&ds.features).unwrap();
        let template = ds
            .features
            .iter()
            .find(|f| {
                f.road_type == RoadType::Motorway
                    && f.label == Label::Normal
                    && TimeBucket::of(f.hour) == TimeBucket::Normal
            })
            .copied()
            .unwrap();
        let on_motorway = FeatureRecord { speed_kmh: 95.0, accel_mps2: 0.0, ..template };
        let on_link = FeatureRecord {
            road_type: RoadType::MotorwayLink,
            speed_kmh: 95.0,
            accel_mps2: 0.0,
            ..template
        };
        let p_mw = det.p_abnormal(&on_motorway).unwrap();
        let p_link = det.p_abnormal(&on_link).unwrap();
        assert!(
            p_link > p_mw + 0.3,
            "95 km/h: link p_abnormal {p_link} must far exceed motorway {p_mw}"
        );
    }

    #[test]
    fn time_awareness_distinguishes_rush_from_night() {
        // Rush-hour motorway traffic crawls; the same speed at night is
        // normal free flow. A time-aware RSU must tell them apart.
        let ds = corpus();
        let det = Ad3Detector::train(&ds.features).unwrap();
        let template =
            ds.features.iter().find(|f| f.road_type == RoadType::Motorway).copied().unwrap();
        let fast = |hour: u8| FeatureRecord {
            speed_kmh: 112.0,
            accel_mps2: 0.0,
            hour: cad3_types::HourOfDay::new(hour).unwrap(),
            ..template
        };
        // 112 km/h during rush (norm ~72) is wildly abnormal; at night
        // (norm ~112) it is plain free flow.
        let p_rush = det.p_abnormal(&fast(8)).unwrap();
        let p_night = det.p_abnormal(&fast(3)).unwrap();
        assert!(
            p_rush > 0.9 && p_rush > p_night + 0.15,
            "rush-hour 112 km/h p {p_rush} must exceed night p {p_night}"
        );
    }

    #[test]
    fn unknown_road_type_errors() {
        let ds = corpus();
        let motorway_only: Vec<FeatureRecord> =
            ds.features.iter().filter(|f| f.road_type == RoadType::Motorway).copied().collect();
        let det = Ad3Detector::train(&motorway_only).unwrap();
        let link_rec =
            ds.features.iter().find(|f| f.road_type == RoadType::MotorwayLink).copied().unwrap();
        assert_eq!(
            det.detect(&link_rec, None).unwrap_err(),
            CoreError::NoModelForRoadType(RoadType::MotorwayLink)
        );
    }

    #[test]
    fn one_sided_data_is_insufficient() {
        let ds = corpus();
        let normals: Vec<FeatureRecord> =
            ds.features.iter().filter(|f| f.label == Label::Normal).take(100).copied().collect();
        assert!(matches!(
            Ad3Detector::train(&normals),
            Err(CoreError::InsufficientTrainingData { .. })
        ));
    }
}
