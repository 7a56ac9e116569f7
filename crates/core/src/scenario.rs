//! Canned reconstructions of every experiment in the paper's evaluation:
//! the single-RSU latency/bandwidth scaling of Fig. 6a/6c, the five-RSU
//! collaboration deployment of Fig. 6b/6d, the model comparison of Fig. 7
//! and Table IV, and the mesoscopic trip analysis of Fig. 8.

use crate::accidents::{expected_potential_accidents, EvaluatedRecord};
use crate::detector::{train_all, DetectionConfig, Detector, TrainedModels};
use crate::{CoreError, RsuSpec, ScenarioSpec, SystemConfig, Testbed, TestbedReport};
use cad3_data::SyntheticDataset;
use cad3_ml::ConfusionMatrix;
use cad3_sim::SimRng;
use cad3_types::{DriverProfile, FeatureRecord, Label, RoadType, SimDuration, TripId, VehicleId};
use std::collections::HashSet;
use std::sync::Arc;

/// Runs the Fig. 6a/6c scenario: one RSU, `vehicles` producers at 10 Hz.
///
/// `records` is the pool the vehicles replay (typically motorway records);
/// `detector` is the deployed model. Returns the per-RSU report (a single
/// entry).
pub fn single_rsu_scaling(
    config: SystemConfig,
    seed: u64,
    detector: Arc<dyn Detector>,
    records: Vec<FeatureRecord>,
    vehicles: u32,
    duration: SimDuration,
) -> TestbedReport {
    let spec = ScenarioSpec {
        rsus: vec![RsuSpec {
            name: format!("rsu-{vehicles}v"),
            detector,
            vehicles,
            records,
            forwards_to: None,
            backhaul: None,
        }],
        duration,
        warmup: SimDuration::from_millis(500),
        summary_interval: SimDuration::from_millis(500),
        migration: None,
    };
    Testbed::new(config, seed).run(spec, Vec::new())
}

/// Runs the Fig. 6b/6d scenario: four motorway RSUs forwarding `CO-DATA`
/// summaries to one motorway-link RSU, 128 vehicles each (the paper's
/// "5 sets of 128 Kafka producers").
pub fn multi_rsu(
    config: SystemConfig,
    seed: u64,
    detector: Arc<dyn Detector>,
    motorway_records: Vec<FeatureRecord>,
    link_records: Vec<FeatureRecord>,
    vehicles_per_rsu: u32,
    duration: SimDuration,
) -> TestbedReport {
    let mut rsus = Vec::new();
    // Index 0 is the motorway-link RSU; 1..=4 are motorway RSUs feeding it.
    rsus.push(RsuSpec {
        name: "Mw Link".to_owned(),
        detector: Arc::clone(&detector),
        vehicles: vehicles_per_rsu,
        records: link_records,
        forwards_to: None,
        backhaul: None,
    });
    for i in 1..=4 {
        rsus.push(RsuSpec {
            name: format!("Mw R{i}"),
            detector: Arc::clone(&detector),
            vehicles: vehicles_per_rsu,
            records: motorway_records.clone(),
            forwards_to: Some(0),
            backhaul: None,
        });
    }
    let spec = ScenarioSpec {
        rsus,
        duration,
        warmup: SimDuration::from_millis(500),
        // Handover summaries are incremental and per-vehicle; a 2 s export
        // cadence models the paper's gradual producer migration and keeps
        // CO-DATA a small fraction of the vehicle uplink ("slightly
        // higher" in Fig. 6d).
        summary_interval: SimDuration::from_secs(2),
        migration: None,
    };
    Testbed::new(config, seed).run(spec, Vec::new())
}

/// Runs the paper's handover emulation: two RSUs (motorway and motorway
/// link); halfway through the run, `fraction` of the motorway's vehicles
/// migrate to the link RSU, switch to the link sub-dataset, and their
/// prediction summaries follow them over the backhaul. `observers` are
/// periodic hooks riding the simulation clock — how the health monitor
/// ticks during the run (`obs_report`, the `obs-e2e` CI job).
#[allow(clippy::too_many_arguments)] // mirrors the scenario's natural parameter list
pub fn handover_migration(
    config: SystemConfig,
    seed: u64,
    detector: Arc<dyn Detector>,
    motorway_records: Vec<FeatureRecord>,
    link_records: Vec<FeatureRecord>,
    vehicles: u32,
    fraction: f64,
    duration: SimDuration,
    observers: Vec<crate::Observer>,
) -> TestbedReport {
    let half = SimDuration::from_secs_f64(duration.as_secs_f64() / 2.0);
    Testbed::new(config, seed).run(
        ScenarioSpec {
            rsus: vec![
                RsuSpec {
                    name: "rsu-motorway".to_owned(),
                    detector: Arc::clone(&detector),
                    vehicles,
                    records: motorway_records,
                    forwards_to: Some(1),
                    backhaul: None,
                },
                RsuSpec {
                    name: "rsu-motorway-link".to_owned(),
                    detector,
                    vehicles: vehicles / 4,
                    records: link_records.clone(),
                    forwards_to: None,
                    backhaul: None,
                },
            ],
            duration,
            warmup: SimDuration::from_millis(500),
            summary_interval: SimDuration::from_secs(2),
            migration: Some(crate::MigrationSpec {
                from: 0,
                to: 1,
                fraction,
                at: half,
                new_records: link_records,
            }),
        },
        observers,
    )
}

/// Runs the paper's motivating edge-vs-cloud comparison (Sections II-B and
/// VII-A): the same traffic served by a roadside RSU versus a cloud node
/// behind a backhaul (one-way latency paid by every status packet and every
/// warning). Returns `(edge, cloud)` reports.
#[allow(clippy::too_many_arguments)] // mirrors the scenario's natural parameter list
pub fn edge_vs_cloud(
    config: SystemConfig,
    seed: u64,
    detector: Arc<dyn Detector>,
    records: Vec<FeatureRecord>,
    vehicles: u32,
    backhaul_one_way: SimDuration,
    duration: SimDuration,
) -> (TestbedReport, TestbedReport) {
    let run = |backhaul: Option<SimDuration>, name: &str| {
        let spec = ScenarioSpec {
            rsus: vec![RsuSpec {
                name: name.to_owned(),
                detector: Arc::clone(&detector),
                vehicles,
                records: records.clone(),
                forwards_to: None,
                backhaul,
            }],
            duration,
            warmup: SimDuration::from_millis(500),
            summary_interval: SimDuration::from_secs(2),
            migration: None,
        };
        Testbed::new(config, seed).run(spec, Vec::new())
    };
    (run(None, "edge-rsu"), run(Some(backhaul_one_way), "cloud-node"))
}

/// Detection-quality metrics of one model (a Fig. 7 / Table IV row).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelComparison {
    /// Model name ("centralized", "ad3", "cad3").
    pub model: String,
    /// Confusion matrix with abnormal as the positive class.
    pub confusion: ConfusionMatrix,
    /// Accuracy.
    pub accuracy: f64,
    /// F1 (abnormal positive).
    pub f1: f64,
    /// TP rate over all records (Table IV convention).
    pub tp_rate: f64,
    /// FN rate over all records (Table IV convention).
    pub fn_rate: f64,
    /// Expected potential accidents from false negatives, Eq. 3.
    pub expected_accidents: f64,
}

/// Splits a corpus 80/20 *by trip* (trips stay contiguous so the summary
/// replay matches the online pipeline) and evaluates the three models —
/// the paper's Fig. 7 + Table IV procedure.
///
/// Returns `[centralized, ad3, cad3]`.
///
/// # Errors
///
/// Propagates training errors.
pub fn detection_comparison(
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
    Ok(evaluate_models(&models, &test))
}

/// Evaluates already-trained models over a test stream (trip-ordered),
/// replaying collaborative summaries for CAD3 exactly as the RSU pipeline
/// would. Returns `[centralized, ad3, cad3]`.
///
/// Metrics are recorded **at the collaboration point**: on records of link
/// roads (the motorway-link RSU and its siblings), which is where the
/// paper's Fig. 7 comparison is made ("CAD3 outperforms both AD3 and the
/// centralized model in the motorway link RSU"). The whole stream still
/// flows through the summary tracker so CAD3 receives the handover context
/// a deployment would.
pub fn evaluate_models(models: &TrainedModels, test: &[FeatureRecord]) -> Vec<ModelComparison> {
    evaluate_models_where(models, test, |rec| rec.road_type.is_link())
}

/// Like [`evaluate_models`], with an explicit predicate selecting which
/// records contribute to the metrics (all records still feed the summary
/// tracker).
pub fn evaluate_models_where(
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

/// One point of the mesoscopic (driver-trip) timeline of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MesoscopicPoint {
    /// Index along the trip.
    pub index: usize,
    /// Road type at this point.
    pub road_type: RoadType,
    /// Ground truth.
    pub truth: Label,
    /// Centralized model's verdict.
    pub centralized: Label,
    /// AD3's verdict.
    pub ad3: Label,
    /// CAD3's verdict.
    pub cad3: Label,
}

/// The Fig. 8 mesoscopic analysis for one trip.
#[derive(Debug, Clone)]
pub struct MesoscopicResult {
    /// The analysed trip.
    pub trip: TripId,
    /// The vehicle.
    pub vehicle: VehicleId,
    /// The driver's ground-truth profile.
    pub profile: DriverProfile,
    /// Per-point verdicts.
    pub points: Vec<MesoscopicPoint>,
}

impl MesoscopicResult {
    /// Accuracy of each model over the trip: `[centralized, ad3, cad3]`.
    pub fn accuracies(&self) -> [f64; 3] {
        let n = self.points.len().max(1) as f64;
        let count = |f: &dyn Fn(&MesoscopicPoint) -> Label| {
            self.points.iter().filter(|p| f(p) == p.truth).count() as f64 / n
        };
        [count(&|p| p.centralized), count(&|p| p.ad3), count(&|p| p.cad3)]
    }

    /// Number of prediction flips (instability) per model:
    /// `[centralized, ad3, cad3]`. The paper's Fig. 8 point is that CAD3 is
    /// *stable* while AD3 fluctuates and centralized is unpredictable.
    pub fn flips(&self) -> [usize; 3] {
        let flips = |f: &dyn Fn(&MesoscopicPoint) -> Label| {
            self.points.windows(2).filter(|w| f(&w[0]) != f(&w[1])).count()
        };
        [flips(&|p| p.centralized), flips(&|p| p.ad3), flips(&|p| p.cad3)]
    }
}

/// Replays one trip through all three models (Fig. 8). The trip should be
/// from the test split; its records are taken from the dataset in order.
///
/// # Errors
///
/// Returns [`CoreError::InsufficientTrainingData`] if the trip has no
/// records usable by the models.
pub fn mesoscopic_trip(
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

/// Finds a test-set trip by an abnormal driver crossing at least two roads
/// — the kind of trip Fig. 8 illustrates (a car behaving abnormally while
/// moving across the network).
///
/// Prefers the paper's microscopic shape — a trip that starts on a
/// motorway and hands over to its link — and a moderate length; falls back
/// to the longest multi-road trip of the profile.
pub fn find_mesoscopic_trip(dataset: &SyntheticDataset, profile: DriverProfile) -> Option<TripId> {
    let candidates: Vec<_> = dataset
        .trips
        .iter()
        .filter(|t| dataset.profiles.get(&t.vehicle) == Some(&profile))
        .filter(|t| t.roads.len() >= 2)
        .collect();
    let points = |trip: TripId| dataset.features.iter().filter(|f| f.trip == trip).count();
    let microscopic = candidates
        .iter()
        .filter(|t| {
            dataset.network.road(t.roads[0]).map(|r| r.road_type) == Some(RoadType::Motorway)
        })
        .map(|t| (t.trip, points(t.trip)))
        .filter(|(_, n)| (80..900).contains(n))
        .max_by_key(|(_, n)| *n);
    microscopic
        .map(|(t, _)| t)
        .or_else(|| candidates.iter().map(|t| t.trip).max_by_key(|t| points(*t)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad3_data::DatasetConfig;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig::small(61))
    }

    #[test]
    fn comparison_reproduces_paper_ordering() {
        // Fig. 7 + Table IV: CAD3 ≥ AD3 > centralized on F1; FN rates and
        // expected accidents in the opposite order.
        let ds = dataset();
        let rows = detection_comparison(&ds, &DetectionConfig::default(), 5).unwrap();
        assert_eq!(rows.len(), 3);
        let (central, ad3, cad3) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!(central.model, "centralized");
        assert!(ad3.f1 > central.f1, "AD3 {} vs centralized {}", ad3.f1, central.f1);
        assert!(cad3.f1 + 0.01 >= ad3.f1, "CAD3 {} vs AD3 {}", cad3.f1, ad3.f1);
        assert!(cad3.fn_rate <= ad3.fn_rate, "CAD3 FN {} vs AD3 {}", cad3.fn_rate, ad3.fn_rate);
        assert!(ad3.fn_rate < central.fn_rate);
        assert!(
            cad3.expected_accidents < central.expected_accidents,
            "CAD3 E(Λ) {} vs centralized {}",
            cad3.expected_accidents,
            central.expected_accidents
        );
    }

    #[test]
    fn mesoscopic_cad3_is_most_stable() {
        let ds = dataset();
        let mut trips: Vec<TripId> = ds.features.iter().map(|f| f.trip).collect();
        trips.dedup();
        let cut = (trips.len() * 8 / 10).max(1);
        let train: Vec<FeatureRecord> =
            ds.features.iter().filter(|f| trips[..cut].contains(&f.trip)).copied().collect();
        let models = train_all(&train, &DetectionConfig::default()).unwrap();
        let trip = find_mesoscopic_trip(&ds, DriverProfile::Sluggish).expect("sluggish trip");
        let result = mesoscopic_trip(&ds, &models, trip).unwrap();
        assert!(result.points.len() > 20);
        assert_eq!(result.profile, DriverProfile::Sluggish);
        let [acc_c, acc_a, acc_k] = result.accuracies();
        // CAD3 should track the abnormal driver at least as well as the
        // others on this trip.
        assert!(acc_k + 0.05 >= acc_a, "cad3 {acc_k} vs ad3 {acc_a}");
        assert!(acc_k > acc_c - 0.05, "cad3 {acc_k} vs centralized {acc_c}");
    }

    #[test]
    fn mesoscopic_missing_trip_errors() {
        let ds = dataset();
        let train: Vec<FeatureRecord> = ds.features[..ds.features.len() / 2].to_vec();
        let models = train_all(&train, &DetectionConfig::default()).unwrap();
        assert!(mesoscopic_trip(&ds, &models, TripId(999_999)).is_err());
    }

    #[test]
    fn evaluate_models_returns_three_rows() {
        let ds = dataset();
        let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();
        let rows = evaluate_models(&models, &ds.features[..500]);
        assert_eq!(rows.len(), 3);
        for r in rows {
            assert!(r.accuracy > 0.0);
            assert!(r.confusion.total() > 0);
        }
    }
}
