use super::{Ad3Detector, Cad3Detector, CentralizedDetector, DetectionConfig};
use crate::CoreError;
use cad3_types::FeatureRecord;

/// All three models of the paper's comparison, trained on one corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedModels {
    /// Distributed standalone model (per-road-type Naïve Bayes).
    pub ad3: Ad3Detector,
    /// Collaborative model (Naïve Bayes + summary-fused Decision Tree).
    pub cad3: Cad3Detector,
    /// Centralized baseline (one city-wide Naïve Bayes).
    pub centralized: CentralizedDetector,
}

/// Trains AD3, CAD3 and the centralized baseline on the same training
/// records (which must be in trip order; see [`Cad3Detector::train`]).
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
    let ad3 = Ad3Detector::train(records)?;
    Ok(TrainedModels {
        cad3: Cad3Detector::with_stage1(
            ad3.clone(),
            records,
            config.dt_params,
            config.fusion_weight,
            config.summary_road_depth,
        )?,
        ad3,
        centralized: CentralizedDetector::train(records)?,
    })
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
    fn cad3_runs_on_the_ad3_stage_1_and_equals_its_own_two_stage_fit() {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(41));
        let config = DetectionConfig::default();
        let models = train_all(&ds.features, &config).unwrap();
        assert!(models.cad3.naive_bayes() == &models.ad3);
        let separately = Cad3Detector::train_with_depth(
            &ds.features,
            config.dt_params,
            config.fusion_weight,
            config.summary_road_depth,
        )
        .unwrap();
        assert!(models.cad3 == separately, "one stage-1 fit must not move the model");
    }

    #[test]
    fn empty_corpus_fails() {
        assert!(train_all(&[], &DetectionConfig::default()).is_err());
    }
}
