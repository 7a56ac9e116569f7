use super::{
    nb_features, nb_schema, single_stage, with_scratch, Detection, Detector, SweepScratch,
};
use crate::collaboration::VehicleSummary;
use crate::CoreError;
use cad3_ml::{Dataset, NaiveBayes};
use cad3_types::FeatureRecord;

/// The centralized baseline: a single Naïve Bayes model trained on *all*
/// road vehicular data at once, as a cloud deployment would.
///
/// Road type is still a feature, but the per-class Gaussians over speed
/// and acceleration are shared city-wide — exactly the loss of fine-grained
/// context the paper blames for the baseline's poor FN rate.
#[derive(Debug, Clone, PartialEq)]
pub struct CentralizedDetector {
    /// The city-wide model; both detect paths go through it.
    nb: NaiveBayes,
}

impl CentralizedDetector {
    /// Trains the city-wide model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] if the pooled dataset is empty or
    /// one-sided.
    pub fn train(records: &[FeatureRecord]) -> Result<Self, CoreError> {
        let mut ds = Dataset::new(nb_schema(), 2);
        for rec in records {
            ds.push(&nb_features(rec), rec.label.class() as usize)?;
        }
        Ok(CentralizedDetector { nb: NaiveBayes::fit(&ds)? })
    }

    /// The abnormal-class probability for a record: one allocation-free row
    /// through the model, bit for bit what the batch sweep gives it.
    ///
    /// # Errors
    ///
    /// Propagates model errors for malformed feature vectors.
    pub fn p_abnormal(&self, rec: &FeatureRecord) -> Result<f64, CoreError> {
        let mut proba = [0.0; 2];
        self.nb.predict_proba_row(&nb_features(rec), &mut proba)?;
        // Class 0 is abnormal in the paper's convention.
        let [p_abnormal, _] = proba;
        Ok(p_abnormal)
    }
}

impl Detector for CentralizedDetector {
    fn name(&self) -> &'static str {
        "centralized"
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
        // One model city-wide: the whole batch is a single sweep.
        with_scratch(|s| {
            let SweepScratch { batch, scratch, proba, .. } = &mut s.sweep;
            batch.clear();
            for rec in recs {
                // Schema validation is vacuous for these rows — see
                // `ModelRouter::p_abnormal_into` — and the width always
                // matches, so `push_row` cannot fail either.
                let _ = batch.push_row(&nb_features(rec));
            }
            let n_classes = self.nb.n_classes();
            scratch.clear();
            scratch.resize(n_classes * recs.len(), 0.0);
            proba.clear();
            proba.resize(n_classes * recs.len(), 0.0);
            s.p1.clear();
            if self.nb.predict_proba_into(batch, scratch, proba).is_ok() {
                s.p1.extend(proba.iter().step_by(n_classes.max(1)).map(|&p| Some(p)));
            } else {
                s.p1.resize(recs.len(), None);
            }
            single_stage(&s.p1, observe, out);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Ad3Detector;
    use cad3_data::{DatasetConfig, SyntheticDataset};
    use cad3_ml::ConfusionMatrix;
    use cad3_types::Label;

    #[test]
    fn trains_and_detects() {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(33));
        let det = CentralizedDetector::train(&ds.features).unwrap();
        let d = det.detect(&ds.features[0], None).unwrap();
        assert!((0.0..=1.0).contains(&d.p_abnormal));
        assert_eq!(det.name(), "centralized");
    }

    #[test]
    fn loses_to_context_aware_ad3() {
        // The paper's central claim at the model level: pooling all road
        // types into one model hurts detection versus per-road-type models.
        let ds = SyntheticDataset::generate(&DatasetConfig::small(34));
        let cut = ds.features.len() * 8 / 10;
        let (train, test) = (&ds.features[..cut], &ds.features[cut..]);
        let central = CentralizedDetector::train(train).unwrap();
        let ad3 = Ad3Detector::train(train).unwrap();

        let eval = |f: &dyn Fn(&FeatureRecord) -> Option<Label>| {
            let mut cm = ConfusionMatrix::new();
            for rec in test {
                if let Some(pred) = f(rec) {
                    cm.record(rec.label == Label::Abnormal, pred == Label::Abnormal);
                }
            }
            cm
        };
        let cm_central = eval(&|r| central.detect(r, None).ok().map(|d| d.label));
        let cm_ad3 = eval(&|r| ad3.detect(r, None).ok().map(|d| d.label));
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
    fn empty_training_fails() {
        assert!(matches!(CentralizedDetector::train(&[]), Err(CoreError::Ml(_))));
    }
}
