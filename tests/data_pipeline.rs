//! Integration test of the offline data pipeline: raw GPS trajectories →
//! HMM map matching → Eq. 4 preprocessing → μ±σ labelling → detector
//! training — the paper's Section V end to end.

use cad3_repro::core::detector::{Detector, RoutedDetector};
use cad3_repro::data::{preprocess, DatasetConfig, HmmMapMatcher, LabelModel, SyntheticDataset};
use cad3_repro::sim::SimRng;
use cad3_repro::types::{FeatureRecord, Label, TrajectoryPoint, TripId};

#[test]
fn gps_to_detection_pipeline() {
    // Keep raw trajectories so the map matcher has something to match.
    let config = DatasetConfig { keep_trajectories: true, ..DatasetConfig::small(201) };
    let ds = SyntheticDataset::generate(&config);
    let matcher = HmmMapMatcher::new(&ds.network);

    // Reconstruct Table II records for a sample of trips from raw GPS only.
    let mut rng = SimRng::seed_from(1);
    let mut reconstructed: Vec<FeatureRecord> = Vec::new();
    let mut match_hits = 0usize;
    let mut match_total = 0usize;
    let trip_ids: Vec<TripId> = {
        let mut v: Vec<TripId> = ds.trips.iter().map(|t| t.trip).collect();
        rng.shuffle(&mut v);
        v.truncate(12);
        v
    };
    for trip_id in trip_ids {
        let trip = ds.trips.iter().find(|t| t.trip == trip_id).unwrap();
        let points: Vec<TrajectoryPoint> =
            ds.trajectories.iter().filter(|p| p.trip == trip_id).copied().collect();
        assert!(!points.is_empty(), "trajectories were kept");
        let matched = matcher.match_trajectory(&points);

        // The flattened corpus does not keep per-trip ground-truth road
        // indices, so validate the matching by geometric consistency:
        // every matched road must lie near its fix.
        match_total += matched.len();
        for (p, road) in points.iter().zip(&matched) {
            if ds.network.road(*road).map(|r| r.distance_to(&p.position) < 120.0) == Some(true) {
                match_hits += 1;
            }
        }

        reconstructed.extend(preprocess::to_feature_records(
            &ds.network,
            &points,
            &matched,
            trip.day,
            &preprocess::FilterConfig::default(),
        ));
    }
    assert!(
        match_hits as f64 / match_total as f64 > 0.95,
        "map matching geometrically consistent: {match_hits}/{match_total}"
    );
    assert!(reconstructed.len() > 500, "reconstruction yields records");

    // Offline labelling on the reconstructed records.
    let labeller = LabelModel::fit(reconstructed.iter());
    labeller.relabel(&mut reconstructed);
    let abnormal = reconstructed.iter().filter(|r| r.label == Label::Abnormal).count() as f64
        / reconstructed.len() as f64;
    assert!((0.05..0.7).contains(&abnormal), "labelled fraction {abnormal}");

    // The reconstructed corpus trains a working detector when both classes
    // are present everywhere it matters.
    if let Ok(det) = RoutedDetector::ad3(&reconstructed) {
        let d = det.detect(&reconstructed[0], None).unwrap();
        assert!((0.0..=1.0).contains(&d.p_abnormal));
    }
}

#[test]
fn eq4_speeds_track_generator_ground_truth() {
    let config = DatasetConfig { keep_trajectories: true, ..DatasetConfig::small(203) };
    let ds = SyntheticDataset::generate(&config);
    // Derived instantaneous speeds from raw GPS vs the measured speeds in
    // the published features: same order of magnitude, strongly correlated
    // in the mean.
    let derived = preprocess::instantaneous_speeds(&ds.trajectories[..2000]);
    let valid: Vec<f64> = derived.into_iter().flatten().filter(|v| *v < 250.0).collect();
    assert!(valid.len() > 1500);
    let derived_mean = valid.iter().sum::<f64>() / valid.len() as f64;
    let feature_mean = ds.features[..2000].iter().map(|f| f.speed_kmh).sum::<f64>() / 2000.0;
    assert!(
        (derived_mean - feature_mean).abs() < feature_mean * 0.5 + 10.0,
        "derived {derived_mean} vs features {feature_mean}"
    );
}
