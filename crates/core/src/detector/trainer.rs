use super::{Cad3Detector, DetectionConfig, RoutedDetector};
use crate::CoreError;
use cad3_ml::NaiveBayes;
use cad3_types::FeatureRecord;

/// All three models of the paper's comparison, trained on one corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModels {
    /// Distributed standalone model (per-context Naïve Bayes).
    pub ad3: RoutedDetector<NaiveBayes>,
    /// Collaborative model (Naïve Bayes + summary-fused Decision Tree).
    pub cad3: Cad3Detector,
    /// Centralized baseline (one city-wide Naïve Bayes).
    pub centralized: RoutedDetector<NaiveBayes>,
}

impl TrainedModels {
    /// The three models around the two single-stage ones, both fitted on
    /// `records`: CAD3 runs `ad3` as its stage 1 and fits its stage 2 under
    /// `config` on `records` (see [`Cad3Detector::with_stage1`]).
    pub(crate) fn around(
        ad3: RoutedDetector<NaiveBayes>,
        centralized: RoutedDetector<NaiveBayes>,
        records: &[FeatureRecord],
        config: &DetectionConfig,
    ) -> Result<Self, CoreError> {
        let cad3 = Cad3Detector::with_stage1(ad3.clone(), records, config)?;
        Ok(TrainedModels { ad3, cad3, centralized })
    }
}

/// Trains AD3, CAD3 and the centralized baseline on the same training
/// records (which must be in trip order; see [`Cad3Detector::with_stage1`]).
///
/// # Errors
///
/// Propagates any model's training error.
///
/// # Example
///
/// ```
/// use cad3::detector::{train_all, DetectionConfig, Detector};
/// use cad3_data::{DatasetConfig, SyntheticDataset};
///
/// let ds = SyntheticDataset::generate(&DatasetConfig::small(3));
/// let models = train_all(&ds.features, &DetectionConfig::default())?;
/// let d = models.ad3.detect(&ds.features[0], None)?;
/// assert!((0.0..=1.0).contains(&d.p_abnormal));
/// # Ok::<(), cad3::CoreError>(())
/// ```
pub fn train_all(
    records: &[FeatureRecord],
    config: &DetectionConfig,
) -> Result<TrainedModels, CoreError> {
    let ad3 = RoutedDetector::ad3(records)?;
    TrainedModels::around(ad3, RoutedDetector::centralized(records)?, records, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use cad3_data::{DatasetConfig, SyntheticDataset};

    #[test]
    fn trains_all_three() {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(41));
        let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
        assert!(models.cad3.naive_bayes() == &models.ad3, "CAD3 runs on the AD3 stage 1");
        let rec = &ds.features[10];
        for d in [
            models.ad3.detect(rec, None).unwrap(),
            models.cad3.detect(rec, None).unwrap(),
            models.centralized.detect(rec, None).unwrap(),
        ] {
            assert!((0.0..=1.0).contains(&d.p_abnormal));
        }
    }

    #[test]
    fn empty_corpus_fails() {
        assert!(train_all(&[], &DetectionConfig::default()).is_err());
    }
}
