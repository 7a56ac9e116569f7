//! The centralized baseline is a routed detector whose table sends every
//! context to one city-wide model. This test keeps the baseline as it was
//! written before it became one — its own type, with a pooled fit, a
//! per-row path and one sweep over the whole batch — and checks that the
//! routed detector gives every `detect` and `detect_batch` probability bit
//! for bit, calls the observe hook the same way, and fails the same way on
//! an empty corpus.

use cad3::detector::{Detection, Detector, RoutedDetector};
use cad3::CoreError;
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_ml::{Dataset, FeatureBatch, FeatureKind, NaiveBayes, Schema};
use cad3_types::{FeatureRecord, HourOfDay, RoadType};

/// The pre-routing centralized baseline: one Naïve Bayes model fitted on
/// every record at once.
struct ReferenceCentralized {
    nb: NaiveBayes,
}

/// `[InstSpeed, accel, Hour, RdType]`, the paper's four features.
fn features(rec: &FeatureRecord) -> [f64; 4] {
    [rec.speed_kmh, rec.accel_mps2, rec.hour.get() as f64, rec.road_type.code() as f64]
}

impl ReferenceCentralized {
    fn train(records: &[FeatureRecord]) -> Result<Self, CoreError> {
        let schema = Schema::new(vec![
            FeatureKind::Continuous,
            FeatureKind::Continuous,
            FeatureKind::Categorical { cardinality: 24 },
            FeatureKind::Categorical { cardinality: 10 },
        ]);
        let mut ds = Dataset::new(schema, 2);
        for rec in records {
            ds.push(&features(rec), rec.label.class() as usize)?;
        }
        Ok(ReferenceCentralized { nb: NaiveBayes::fit(&ds)? })
    }

    /// The row path: the abnormal class is index 0.
    fn p_abnormal(&self, rec: &FeatureRecord) -> f64 {
        let mut proba = [0.0; 2];
        self.nb.predict_proba_row(&features(rec), &mut proba).unwrap();
        proba[0]
    }

    /// The batch path: the whole batch as one sweep, then every record
    /// observed in order.
    fn detect_batch(
        &self,
        recs: &[FeatureRecord],
        observe: &mut dyn FnMut(usize, f64),
    ) -> Vec<Option<Detection>> {
        let mut batch = FeatureBatch::new(4);
        for rec in recs {
            batch.push_row(&features(rec)).unwrap();
        }
        let n_classes = self.nb.n_classes();
        let mut scratch = vec![0.0; n_classes * recs.len()];
        let mut proba = vec![0.0; n_classes * recs.len()];
        self.nb.predict_proba_into(&batch, &mut scratch, &mut proba).unwrap();
        let p = proba.iter().step_by(n_classes);
        p.enumerate()
            .map(|(i, &p)| {
                observe(i, p);
                Some(Detection::from_p_abnormal(p))
            })
            .collect()
    }
}

fn bits(out: &[Option<Detection>]) -> Vec<Option<u64>> {
    out.iter().map(|d| d.map(|d| d.p_abnormal.to_bits())).collect()
}

/// Every record of `recs` through both detectors' batch paths, `chunk`
/// records a call: the detections and the observed `(index, p)` bits.
fn compare_batches(
    routed: &RoutedDetector<NaiveBayes>,
    reference: &ReferenceCentralized,
    recs: &[FeatureRecord],
    chunk: usize,
) {
    for (c, batch) in recs.chunks(chunk).enumerate() {
        let (mut got_seen, mut want_seen) = (Vec::new(), Vec::new());
        let mut got = Vec::new();
        routed.detect_batch(
            batch,
            &mut |i, p| {
                got_seen.push((i, p.to_bits()));
                None
            },
            &mut got,
        );
        let want = reference.detect_batch(batch, &mut |i, p| want_seen.push((i, p.to_bits())));
        assert_eq!(bits(&got), bits(&want), "chunk {c} of width {chunk}");
        assert_eq!(got_seen, want_seen, "observed records, chunk {c} of width {chunk}");
    }
}

#[test]
fn the_routed_centralized_model_is_the_pooled_one() {
    for seed in [42, 1042, 61, 7] {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(seed));
        let cut = ds.features.len() * 8 / 10;
        let routed = RoutedDetector::centralized(&ds.features[..cut]).unwrap();
        let reference = ReferenceCentralized::train(&ds.features[..cut]).unwrap();
        assert_eq!(routed.name(), "centralized");

        // Every context, whether or not the corpus covers it.
        let template = ds.features[0];
        let mut recs: Vec<FeatureRecord> = RoadType::ALL
            .into_iter()
            .flat_map(|road_type| {
                (0..24).map(move |h| FeatureRecord {
                    road_type,
                    hour: HourOfDay::new(h).unwrap(),
                    ..template
                })
            })
            .collect();
        recs.extend_from_slice(&ds.features);

        for rec in &recs {
            let want = reference.p_abnormal(rec);
            let got = routed.detect(rec, None).unwrap();
            assert_eq!(got.p_abnormal.to_bits(), want.to_bits(), "seed {seed}: {rec:?}");
            assert_eq!(routed.stage1_p_abnormal(rec).unwrap().to_bits(), want.to_bits());
        }
        for chunk in [1, 7, 128, recs.len()] {
            compare_batches(&routed, &reference, &recs, chunk);
        }
    }
}

#[test]
fn an_empty_corpus_fails_as_it_did() {
    let want = ReferenceCentralized::train(&[]).err().unwrap();
    assert_eq!(RoutedDetector::centralized(&[]).unwrap_err(), want);
    assert!(matches!(want, CoreError::Ml(_)));
}
