use super::{single_stage, with_scratch, Detection, Detector, ModelRouter};
use crate::collaboration::VehicleSummary;
use crate::CoreError;
use cad3_ml::{LogisticParams, LogisticRegression};
use cad3_types::FeatureRecord;

/// A logistic-regression variant of the standalone edge detector — the
/// "more complex anomaly detection algorithms" the paper leaves as future
/// work, hosted unchanged by the CAD3 pipeline (it implements the same
/// [`Detector`] interface as the Naïve Bayes stage, so it drops into the
/// RSU, the testbed and the collaboration flow).
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticAd3Detector {
    /// Each context's model behind a dense (road, bucket) routing table
    /// built at training time; both detect paths go through it.
    router: ModelRouter<LogisticRegression>,
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
        let router = ModelRouter::train(records, |ds| LogisticRegression::fit(ds, params))?;
        Ok(LogisticAd3Detector { router })
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
