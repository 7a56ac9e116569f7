use super::{with_scratch, Detection, Detector, ModelRouter, RoutedModel};
use crate::collaboration::VehicleSummary;
use crate::CoreError;
use cad3_ml::{LogisticParams, LogisticRegression, NaiveBayes};
use cad3_types::FeatureRecord;

/// A single-stage detector: each record is routed by its spatio-temporal
/// context — road type × time-of-day regime — to one model, whose
/// abnormal-class probability is the verdict. The paper's AD3, the
/// logistic variant of §VII-E and the centralized baseline are this type;
/// they differ only in the model family and in how many models the routing
/// table holds.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedDetector<M> {
    name: &'static str,
    /// The models behind a dense (road, bucket) routing table built at
    /// training time. Both detect paths go through it, and CAD3's stage 1
    /// too.
    pub(super) router: ModelRouter<M>,
}

impl RoutedDetector<NaiveBayes> {
    /// The distributed standalone detector (the paper's AD3): one Naïve
    /// Bayes model per (road type, time regime) context of `records`.
    ///
    /// Each RSU "learns the normal behavior over time and maintains
    /// contextual information of the road in its coverage" (road type, hour
    /// of the day and speed profile); conditioning the model on the time
    /// regime is what gives the edge deployment its fine-grained
    /// context-awareness, which the city-wide centralized baseline lacks.
    ///
    /// Contexts whose sub-dataset lacks one of the two classes are skipped
    /// (an RSU cannot learn a normal profile from one-sided data);
    /// detection falls back to the road type's hour-pooled model and
    /// reports [`CoreError::NoModelForRoadType`] if none exists.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientTrainingData`] when no context is
    /// trainable at all.
    pub fn ad3(records: &[FeatureRecord]) -> Result<Self, CoreError> {
        Ok(RoutedDetector { name: "ad3", router: ModelRouter::train(records, NaiveBayes::fit)? })
    }

    /// The centralized baseline: one Naïve Bayes model fitted on *all*
    /// `records` at once, as a cloud deployment would, and routed to from
    /// every context.
    ///
    /// Road type is still a feature, but the per-class Gaussians over speed
    /// and acceleration are shared city-wide — exactly the loss of
    /// fine-grained context the paper blames for the baseline's poor FN
    /// rate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] if the pooled dataset is empty or
    /// one-sided.
    pub fn centralized(records: &[FeatureRecord]) -> Result<Self, CoreError> {
        let router = ModelRouter::pooled(records, NaiveBayes::fit)?;
        Ok(RoutedDetector { name: "centralized", router })
    }
}

impl RoutedDetector<LogisticRegression> {
    /// A logistic-regression variant of AD3 — the "more complex anomaly
    /// detection algorithms" the paper leaves as future work, hosted
    /// unchanged by the CAD3 pipeline: one quadratic logistic model per
    /// context, with the same hour-pooled fallbacks.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientTrainingData`] when no context is
    /// trainable.
    pub fn logistic(records: &[FeatureRecord]) -> Result<Self, CoreError> {
        let fit = |ds: &_| LogisticRegression::fit(ds, LogisticParams::default());
        Ok(RoutedDetector { name: "logistic-ad3", router: ModelRouter::train(records, fit)? })
    }
}

impl<M: RoutedModel> RoutedDetector<M> {
    /// The abnormal-class probability for a record: one allocation-free row
    /// through the routed model, bit for bit what `detect_batch` sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoModelForRoadType`] where no model covers the
    /// record's context.
    pub fn p_abnormal(&self, rec: &FeatureRecord) -> Result<f64, CoreError> {
        self.router.p_abnormal(rec)
    }
}

impl<M: RoutedModel> Detector for RoutedDetector<M> {
    fn name(&self) -> &'static str {
        self.name
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
            // The summary is ignored, but the tracker must still record the
            // prediction.
            out.extend(s.p1.iter().enumerate().map(|(i, p)| {
                let p = (*p)?;
                let _ = observe(i, p);
                Some(Detection::from_p_abnormal(p))
            }));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad3_data::{DatasetConfig, SyntheticDataset, TimeBucket};
    use cad3_ml::ConfusionMatrix;
    use cad3_types::{Label, RoadType};

    fn corpus() -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig::small(31))
    }

    /// `det`'s confusion matrix over `test`, abnormal positive.
    fn score(det: &dyn Detector, test: &[FeatureRecord]) -> ConfusionMatrix {
        let mut cm = ConfusionMatrix::new();
        for rec in test {
            if let Ok(d) = det.detect(rec, None) {
                cm.record(rec.label == Label::Abnormal, d.label == Label::Abnormal);
            }
        }
        cm
    }

    #[test]
    fn ad3_covers_the_observed_road_types() {
        let ds = corpus();
        let det = RoutedDetector::ad3(&ds.features).unwrap();
        assert_eq!(det.name(), "ad3");
        for road_type in [RoadType::Motorway, RoadType::MotorwayLink] {
            let rec = ds.features.iter().find(|f| f.road_type == road_type).unwrap();
            assert!(det.detect(rec, None).is_ok(), "{road_type}");
        }
    }

    #[test]
    fn ad3_beats_chance_clearly() {
        let ds = corpus();
        let cut = ds.features.len() * 8 / 10;
        let det = RoutedDetector::ad3(&ds.features[..cut]).unwrap();
        let cm = score(&det, &ds.features[cut..]);
        assert!(cm.total() > 100);
        assert!(cm.accuracy() > 0.7, "accuracy {}", cm.accuracy());
        assert!(cm.f1() > 0.5, "f1 {}", cm.f1());
    }

    #[test]
    fn context_awareness_uses_road_type_models() {
        // A speed that is normal on a motorway must be flagged on a link —
        // the paper's Section IV-C example.
        let ds = corpus();
        let det = RoutedDetector::ad3(&ds.features).unwrap();
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
        let det = RoutedDetector::ad3(&ds.features).unwrap();
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
        let det = RoutedDetector::ad3(&motorway_only).unwrap();
        let link_rec =
            ds.features.iter().find(|f| f.road_type == RoadType::MotorwayLink).copied().unwrap();
        assert_eq!(
            det.detect(&link_rec, None).unwrap_err(),
            CoreError::NoModelForRoadType(RoadType::MotorwayLink)
        );
        // The centralized model routes every context to its one model.
        let central = RoutedDetector::centralized(&motorway_only).unwrap();
        assert!(central.detect(&link_rec, None).is_ok());
    }

    #[test]
    fn one_sided_data_is_insufficient() {
        let ds = corpus();
        let normals: Vec<FeatureRecord> =
            ds.features.iter().filter(|f| f.label == Label::Normal).take(100).copied().collect();
        assert!(matches!(
            RoutedDetector::ad3(&normals),
            Err(CoreError::InsufficientTrainingData { .. })
        ));
        assert!(matches!(RoutedDetector::centralized(&normals), Err(CoreError::Ml(_))));
        assert!(matches!(
            RoutedDetector::logistic(&[]),
            Err(CoreError::InsufficientTrainingData { .. })
        ));
    }

    #[test]
    fn centralized_loses_to_context_aware_ad3() {
        // The paper's central claim at the model level: pooling all road
        // types into one model hurts detection versus per-road-type models.
        let ds = SyntheticDataset::generate(&DatasetConfig::small(34));
        let cut = ds.features.len() * 8 / 10;
        let (train, test) = (&ds.features[..cut], &ds.features[cut..]);
        let central = RoutedDetector::centralized(train).unwrap();
        assert_eq!(central.name(), "centralized");
        let (cm_central, cm_ad3) =
            (score(&central, test), score(&RoutedDetector::ad3(train).unwrap(), test));
        assert!(
            cm_ad3.f1() > cm_central.f1(),
            "AD3 f1 {} must beat centralized {}",
            cm_ad3.f1(),
            cm_central.f1()
        );
        assert!(
            cm_ad3.fn_rate_overall() < cm_central.fn_rate_overall(),
            "AD3 FN rate {} must beat centralized {}",
            cm_ad3.fn_rate_overall(),
            cm_central.fn_rate_overall()
        );
    }

    #[test]
    fn logistic_drops_into_the_detector_interface() {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(71));
        let cut = ds.features.len() * 8 / 10;
        let det = RoutedDetector::logistic(&ds.features[..cut]).unwrap();
        assert_eq!(det.name(), "logistic-ad3");
        let cm = score(&det, &ds.features[cut..]);
        assert!(cm.total() > 100);
        assert!(cm.accuracy() > 0.65, "accuracy {}", cm.accuracy());
        assert!(cm.f1() > 0.4, "f1 {}", cm.f1());
    }
}
