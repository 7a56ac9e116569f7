//! The one streaming evaluation must score what the scalar loops scored.
//!
//! `cad3::scenario` scores every detection-quality number (Fig. 7,
//! Table IV, the ablations, seed stability) and every Fig. 8 timeline by
//! replaying records through each model's `detect_batch`, the path the RSUs
//! run. The loops it replaced ran `Detector::detect` per record, with their
//! own copy of the 80/20 trip split; they are kept here, unchanged, as the
//! reference. Every `ModelComparison` must match field by field, each `f64`
//! by its bits, and every timeline point for point.

use cad3::accidents::{expected_potential_accidents, EvaluatedRecord};
use cad3::detector::{train_all, DetectionConfig, Detector, TrainedModels};
use cad3::scenario::{
    evaluate_models, Holdout, MesoscopicPoint, MesoscopicResult, ModelComparison,
};
use cad3::CoreError;
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_ml::ConfusionMatrix;
use cad3_sim::SimRng;
use cad3_types::{DriverProfile, FeatureRecord, Label, RoadType, TripId, VehicleId};
use std::collections::HashSet;

/// The reference Fig. 7 / Table IV procedure: split 80/20 by trip, train
/// the three models, score the held-out records.
fn detection_comparison(
    dataset: &SyntheticDataset,
    config: &DetectionConfig,
    seed: u64,
) -> Result<Vec<ModelComparison>, CoreError> {
    let mut rng = SimRng::seed_from(seed);
    let mut trip_ids: Vec<TripId> = {
        let mut v: Vec<TripId> = dataset.features.iter().map(|f| f.trip).collect();
        v.dedup();
        v
    };
    rng.shuffle(&mut trip_ids);
    let cut = (trip_ids.len() * 8 / 10).max(1);
    let train_trips: HashSet<TripId> = trip_ids[..cut].iter().copied().collect();

    let train: Vec<FeatureRecord> =
        dataset.features.iter().filter(|f| train_trips.contains(&f.trip)).copied().collect();
    let test: Vec<FeatureRecord> =
        dataset.features.iter().filter(|f| !train_trips.contains(&f.trip)).copied().collect();

    let models = train_all(&train, config)?;
    Ok(evaluate_models_where(&models, &test, |rec| rec.road_type.is_link()))
}

/// The reference streaming loop: per record, CAD3's stage 1, the tracker,
/// then each model's scalar `detect`.
fn evaluate_models_where(
    models: &TrainedModels,
    test: &[FeatureRecord],
    count_metric: impl Fn(&FeatureRecord) -> bool,
) -> Vec<ModelComparison> {
    let mut tracker = models.cad3.new_tracker();
    let mut cms = [ConfusionMatrix::new(), ConfusionMatrix::new(), ConfusionMatrix::new()];
    let mut evaluated: [Vec<EvaluatedRecord>; 3] = [Vec::new(), Vec::new(), Vec::new()];

    for rec in test {
        let Ok(p_nb) = models.cad3.naive_bayes().p_abnormal(rec) else { continue };
        let summary = tracker.observe(rec.vehicle, rec.road, p_nb);
        if !count_metric(rec) {
            continue;
        }
        let preds = [
            models.centralized.detect(rec, None),
            models.ad3.detect(rec, None),
            models.cad3.detect(rec, summary.as_ref()),
        ];
        for (i, pred) in preds.into_iter().enumerate() {
            let Ok(d) = pred else { continue };
            cms[i].record(rec.label == Label::Abnormal, d.label == Label::Abnormal);
            evaluated[i].push(EvaluatedRecord::new(rec, d.label));
        }
    }

    ["centralized", "ad3", "cad3"]
        .iter()
        .zip(cms.iter().zip(evaluated.iter()))
        .map(|(name, (cm, ev))| ModelComparison {
            model: (*name).to_owned(),
            confusion: *cm,
            accuracy: cm.accuracy(),
            f1: cm.f1(),
            tp_rate: cm.tp_rate_overall(),
            fn_rate: cm.fn_rate_overall(),
            expected_accidents: expected_potential_accidents(ev.iter()),
        })
        .collect()
}

/// The reference Fig. 8 replay: one trip's records on a tracker of their
/// own, each through the three scalar `detect`s.
fn reference_trip(
    dataset: &SyntheticDataset,
    models: &TrainedModels,
    trip: TripId,
) -> Result<MesoscopicResult, CoreError> {
    let records: Vec<FeatureRecord> =
        dataset.features.iter().filter(|f| f.trip == trip).copied().collect();
    let mut tracker = models.cad3.new_tracker();
    let mut points = Vec::new();
    let mut vehicle = VehicleId(0);
    for (index, rec) in records.iter().enumerate() {
        vehicle = rec.vehicle;
        let Ok(p_nb) = models.cad3.naive_bayes().p_abnormal(rec) else { continue };
        let summary = tracker.observe(rec.vehicle, rec.road, p_nb);
        let (Ok(c), Ok(a), Ok(k)) = (
            models.centralized.detect(rec, None),
            models.ad3.detect(rec, None),
            models.cad3.detect(rec, summary.as_ref()),
        ) else {
            continue;
        };
        points.push(MesoscopicPoint {
            index,
            road_type: rec.road_type,
            truth: rec.label,
            centralized: c.label,
            ad3: a.label,
            cad3: k.label,
        });
    }
    if points.is_empty() {
        return Err(CoreError::InsufficientTrainingData {
            what: format!("trip {trip} has no records usable by the models"),
        });
    }
    let profile = dataset.profiles.get(&vehicle).copied().unwrap_or(DriverProfile::Typical);
    Ok(MesoscopicResult { trip, vehicle, profile, points })
}

/// Every field of `rows` equals `reference`'s, each `f64` by its bits.
fn assert_bit_equal(rows: &[ModelComparison], reference: &[ModelComparison], what: &str) {
    assert_eq!(rows.len(), reference.len(), "{what}: row count");
    for (row, want) in rows.iter().zip(reference) {
        let bits = |c: &ModelComparison| {
            [c.accuracy, c.f1, c.tp_rate, c.fn_rate, c.expected_accidents].map(f64::to_bits)
        };
        assert_eq!(row.model, want.model, "{what}");
        assert_eq!(row.confusion, want.confusion, "{what}: {} confusion", row.model);
        assert_eq!(bits(row), bits(want), "{what}: {} metrics", row.model);
    }
}

/// Corpus seeds: the run's default, a seed whose held-out link records
/// include some no AD3 model covers (so CAD3's stage 1 fails there while
/// the centralized model still classifies them), and the scenario tests'.
const SEEDS: [u64; 3] = [42, 1042, 61];

fn configs() -> [DetectionConfig; 4] {
    let default = DetectionConfig::default();
    [
        default.clone(),
        DetectionConfig { fusion_weight: 0.0, ..default.clone() },
        DetectionConfig { fusion_weight: 1.0, ..default.clone() },
        DetectionConfig { summary_road_depth: Some(1), ..default },
    ]
}

#[test]
fn every_comparison_equals_the_scalar_reference() {
    for seed in SEEDS {
        let ds = SyntheticDataset::generate(&DatasetConfig::small(seed));
        let holdout = Holdout::new(ds.clone(), seed).unwrap();
        for config in configs() {
            let what = format!("seed {seed}, {config:?}");
            let reference = detection_comparison(&ds, &config, seed).unwrap();
            assert_bit_equal(&holdout.compare(&config).unwrap(), &reference, &what);
        }
    }
}

#[test]
fn records_whose_cad3_stage_1_fails_count_for_no_model() {
    // Without a trunk-link record in training, AD3 (CAD3's stage 1) has no
    // model for the held-out trunk-link records; the centralized model,
    // one city-wide fit, still classifies them.
    let seed = 42;
    let holdout =
        Holdout::new(SyntheticDataset::generate(&DatasetConfig::small(seed)), seed).unwrap();
    let train: Vec<FeatureRecord> = holdout
        .dataset()
        .features
        .iter()
        .filter(|f| !holdout.is_held_out(f.trip) && f.road_type != RoadType::TrunkLink)
        .copied()
        .collect();
    let models = train_all(&train, &DetectionConfig::default()).unwrap();
    let uncovered = holdout.test().iter().filter(|f| f.road_type == RoadType::TrunkLink);
    assert!(uncovered.clone().count() > 100, "fixture: held-out trunk-link records");
    assert!(uncovered.clone().all(|f| models.cad3.stage1_p_abnormal(f).is_err()));
    assert!(uncovered.clone().all(|f| models.centralized.detect(f, None).is_ok()));

    let rows = evaluate_models(&models, holdout.test());
    let reference = evaluate_models_where(&models, holdout.test(), |r| r.road_type.is_link());
    assert_bit_equal(&rows, &reference, "trunk links untrained");
    assert_eq!(rows[0].confusion.total(), rows[1].confusion.total(), "centralized counts no more");
}

#[test]
fn every_timeline_equals_the_scalar_reference() {
    for seed in SEEDS {
        let holdout =
            Holdout::new(SyntheticDataset::generate(&DatasetConfig::small(seed)), seed).unwrap();
        let ds = holdout.dataset();
        let models = holdout.models(&DetectionConfig::default()).unwrap();
        // Held-out trips: six that are their vehicle's first in the test
        // split, and up to six later ones, whose vehicle's earlier trip is
        // held out too. A tracker that outlived the trip, one replay of the
        // whole test split, would hand a later trip's first road a summary.
        let later = |trip: TripId| {
            let first = ds.features.iter().find(|f| f.trip == trip).expect("trip has records");
            holdout.test().iter().any(|f| f.vehicle == first.vehicle && f.trip < trip)
        };
        let mut held_out: Vec<TripId> = holdout.test().iter().map(|f| f.trip).collect();
        held_out.dedup();
        let (later, first): (Vec<TripId>, Vec<TripId>) =
            held_out.into_iter().partition(|&t| later(t));
        assert!(later.len() >= 2 && first.len() >= 6, "seed {seed}: {later:?} {first:?}");
        let trips = first.into_iter().take(6).chain(later.into_iter().take(6));
        for trip in trips {
            let new = holdout.mesoscopic_trip(&models, trip).unwrap();
            let want = reference_trip(ds, &models, trip).unwrap();
            assert_eq!(
                (new.trip, new.vehicle, new.profile),
                (want.trip, want.vehicle, want.profile)
            );
            assert_eq!(new.points, want.points, "seed {seed}, {trip}");
        }
        assert!(holdout.mesoscopic_trip(&models, TripId(u64::MAX)).is_err());
    }
}
