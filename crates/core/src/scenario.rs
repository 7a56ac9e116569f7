//! Canned reconstructions of every experiment in the paper's evaluation:
//! the single-RSU latency/bandwidth scaling of Fig. 6a/6c, the five-RSU
//! collaboration deployment of Fig. 6b/6d, the model comparison of Fig. 7
//! and Table IV, and the mesoscopic trip analysis of Fig. 8.

use crate::accidents::{expected_potential_accidents, EvaluatedRecord};
use crate::detector::{Detection, DetectionConfig, Detector, RoutedDetector, TrainedModels};
use crate::{CoreError, RsuSpec, ScenarioSpec, SystemConfig, Testbed, TestbedReport};
use cad3_data::SyntheticDataset;
use cad3_ml::{ConfusionMatrix, NaiveBayes};
use cad3_sim::SimRng;
use cad3_types::{DriverProfile, FeatureRecord, Label, RoadType, SimDuration, TripId, VehicleId};
use std::collections::HashSet;
use std::sync::Arc;

/// An edge RSU serving `vehicles` that replay `records`, forwarding nothing.
fn rsu(
    name: impl Into<String>,
    detector: Arc<dyn Detector>,
    vehicles: u32,
    records: Vec<FeatureRecord>,
) -> RsuSpec {
    RsuSpec { name: name.into(), detector, vehicles, records, forwards_to: None, backhaul: None }
}

/// Runs `rsus` for `duration` after the 500 ms warm-up every scenario uses,
/// exporting summaries every `summary_interval`.
fn run(
    config: SystemConfig,
    seed: u64,
    rsus: Vec<RsuSpec>,
    duration: SimDuration,
    summary_interval: SimDuration,
    migration: Option<crate::MigrationSpec>,
    observers: Vec<crate::Observer>,
) -> TestbedReport {
    let warmup = SimDuration::from_millis(500);
    let spec = ScenarioSpec { rsus, duration, warmup, summary_interval, migration };
    Testbed::new(config, seed).run(spec, observers)
}

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
    let rsus = vec![rsu(format!("rsu-{vehicles}v"), detector, vehicles, records)];
    run(config, seed, rsus, duration, SimDuration::from_millis(500), None, Vec::new())
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
    // Index 0 is the motorway-link RSU; 1..=4 are motorway RSUs feeding it.
    let mut rsus = vec![rsu("Mw Link", Arc::clone(&detector), vehicles_per_rsu, link_records)];
    for i in 1..=4 {
        let records = motorway_records.clone();
        let motorway = rsu(format!("Mw R{i}"), Arc::clone(&detector), vehicles_per_rsu, records);
        rsus.push(RsuSpec { forwards_to: Some(0), ..motorway });
    }
    // Handover summaries are incremental and per-vehicle; a 2 s export
    // cadence models the paper's gradual producer migration and keeps
    // CO-DATA a small fraction of the vehicle uplink ("slightly higher" in
    // Fig. 6d).
    run(config, seed, rsus, duration, SimDuration::from_secs(2), None, Vec::new())
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
    let motorway = rsu("rsu-motorway", Arc::clone(&detector), vehicles, motorway_records);
    let rsus = vec![
        RsuSpec { forwards_to: Some(1), ..motorway },
        rsu("rsu-motorway-link", detector, vehicles / 4, link_records.clone()),
    ];
    let migration =
        crate::MigrationSpec { from: 0, to: 1, fraction, at: half, new_records: link_records };
    run(config, seed, rsus, duration, SimDuration::from_secs(2), Some(migration), observers)
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
    let deployment = |backhaul: Option<SimDuration>, name: &str| {
        let node = rsu(name, Arc::clone(&detector), vehicles, records.clone());
        let rsus = vec![RsuSpec { backhaul, ..node }];
        run(config, seed, rsus, duration, SimDuration::from_secs(2), None, Vec::new())
    };
    (deployment(None, "edge-rsu"), deployment(Some(backhaul_one_way), "cloud-node"))
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

/// A corpus split 80/20 *by trip*, the paper's Fig. 7 / Table IV / Fig. 8
/// procedure, with the models that do not depend on a [`DetectionConfig`]
/// fitted once on the training trips: AD3 and the centralized baseline.
/// CAD3 runs on that AD3 as its stage 1 and fits its stage 2 per
/// configuration, as [`train_all`](crate::detector::train_all) does.
///
/// Trips stay whole on either side of the split and the records keep the
/// corpus's trip order, so replaying the test records feeds the summary
/// tracker what the online pipeline would.
#[derive(Debug)]
pub struct Holdout {
    dataset: SyntheticDataset,
    train: Vec<FeatureRecord>,
    test: Vec<FeatureRecord>,
    ad3: RoutedDetector<NaiveBayes>,
    centralized: RoutedDetector<NaiveBayes>,
}

impl Holdout {
    /// Shuffles the corpus's trips with `seed`, holds out the last fifth
    /// and fits AD3 and the centralized model on the rest.
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn new(dataset: SyntheticDataset, seed: u64) -> Result<Self, CoreError> {
        let mut trips: Vec<TripId> = dataset.features.iter().map(|f| f.trip).collect();
        trips.dedup();
        SimRng::seed_from(seed).shuffle(&mut trips);
        let cut = (trips.len() * 8 / 10).max(1).min(trips.len());
        let train_trips: HashSet<TripId> = trips[..cut].iter().copied().collect();
        let (train, test): (Vec<FeatureRecord>, Vec<FeatureRecord>) =
            dataset.features.iter().partition(|f| train_trips.contains(&f.trip));
        Ok(Holdout {
            ad3: RoutedDetector::ad3(&train)?,
            centralized: RoutedDetector::centralized(&train)?,
            dataset,
            train,
            test,
        })
    }

    /// The whole corpus.
    pub fn dataset(&self) -> &SyntheticDataset {
        &self.dataset
    }

    /// The held-out records, in trip order.
    pub fn test(&self) -> &[FeatureRecord] {
        &self.test
    }

    /// Whether `trip` is one of the held-out trips.
    pub fn is_held_out(&self, trip: TripId) -> bool {
        !trip_records(&self.test, trip).is_empty()
    }

    /// The three models under `config`, trained on the training trips.
    ///
    /// # Errors
    ///
    /// Propagates CAD3's stage-2 training error.
    pub fn models(&self, config: &DetectionConfig) -> Result<TrainedModels, CoreError> {
        let (ad3, centralized) = (self.ad3.clone(), self.centralized.clone());
        TrainedModels::around(ad3, centralized, &self.train, config)
    }

    /// The three models under `config`, scored on the held-out records by
    /// [`evaluate_models`]. Returns `[centralized, ad3, cad3]`.
    ///
    /// # Errors
    ///
    /// Propagates CAD3's stage-2 training error.
    pub fn compare(&self, config: &DetectionConfig) -> Result<Vec<ModelComparison>, CoreError> {
        Ok(evaluate_models(&self.models(config)?, &self.test))
    }

    /// Replays one trip of the corpus through `models` (Fig. 8), on a
    /// tracker of its own: the trip's records, in order, are all the
    /// tracker sees. A point is kept where all three models classify the
    /// record. The trip should be a held-out one.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientTrainingData`] if the trip has no
    /// records usable by the models.
    pub fn mesoscopic_trip(
        &self,
        models: &TrainedModels,
        trip: TripId,
    ) -> Result<MesoscopicResult, CoreError> {
        let records = trip_records(&self.dataset.features, trip);
        let mut points = Vec::new();
        replay(models, records, |index, verdicts| {
            let [Some(c), Some(a), Some(k)] = verdicts else { return };
            let rec = &records[index];
            points.push(MesoscopicPoint {
                index,
                road_type: rec.road_type,
                truth: rec.label,
                centralized: c.label,
                ad3: a.label,
                cad3: k.label,
            });
        });
        let Some(vehicle) = records.first().map(|r| r.vehicle).filter(|_| !points.is_empty())
        else {
            return Err(CoreError::InsufficientTrainingData {
                what: format!("trip {trip} has no records usable by the models"),
            });
        };
        let profile =
            self.dataset.profiles.get(&vehicle).copied().unwrap_or(DriverProfile::Typical);
        Ok(MesoscopicResult { trip, vehicle, profile, points })
    }

    /// Finds a held-out trip by a `profile` driver crossing at least two
    /// roads — the kind of trip Fig. 8 illustrates (a car behaving
    /// abnormally while moving across the network).
    ///
    /// Prefers the paper's microscopic shape — a trip that starts on a
    /// motorway and hands over to its link — and a moderate length; falls
    /// back to the longest multi-road trip of the profile.
    pub fn find_mesoscopic_trip(&self, profile: DriverProfile) -> Option<TripId> {
        let ds = &self.dataset;
        let candidates: Vec<_> = ds
            .trips
            .iter()
            .filter(|t| ds.profiles.get(&t.vehicle) == Some(&profile))
            .filter(|t| t.roads.len() >= 2 && self.is_held_out(t.trip))
            .collect();
        let points = |trip: TripId| trip_records(&self.test, trip).len();
        let microscopic = candidates
            .iter()
            .filter(|t| {
                ds.network.road(t.roads[0]).map(|r| r.road_type) == Some(RoadType::Motorway)
            })
            .map(|t| (t.trip, points(t.trip)))
            .filter(|(_, n)| (80..900).contains(n))
            .max_by_key(|(_, n)| *n);
        microscopic
            .map(|(t, _)| t)
            .or_else(|| candidates.iter().map(|t| t.trip).max_by_key(|t| points(*t)))
    }
}

/// The records of `trip` in `records`, which are in trip order: each trip's
/// records contiguous and trips by ascending id, as the generator writes
/// them.
fn trip_records(records: &[FeatureRecord], trip: TripId) -> &[FeatureRecord] {
    let start = records.partition_point(|f| f.trip < trip);
    let end = records.partition_point(|f| f.trip <= trip);
    &records[start..end]
}

/// Replays `records` in order through each model's
/// [`Detector::detect_batch`], the path the RSUs run, with CAD3's observe
/// hook feeding one summary tracker, and hands `visit` the index of each
/// record the tracker saw (those whose CAD3 stage 1 succeeded) with its
/// `[centralized, ad3, cad3]` verdicts, `None` where a model could not
/// classify it.
fn replay(
    models: &TrainedModels,
    records: &[FeatureRecord],
    mut visit: impl FnMut(usize, [Option<Detection>; 3]),
) {
    let mut tracker = models.cad3.new_tracker();
    let mut observed = vec![false; records.len()];
    let [mut central, mut ad3, mut cad3] = [(); 3].map(|()| Vec::with_capacity(records.len()));
    models.centralized.detect_batch(records, &mut |_, _| None, &mut central);
    models.ad3.detect_batch(records, &mut |_, _| None, &mut ad3);
    let mut observe = |i: usize, p1: f64| {
        let rec = records.get(i)?;
        observed[i] = true;
        tracker.observe(rec.vehicle, rec.road, p1)
    };
    models.cad3.detect_batch(records, &mut observe, &mut cad3);
    for (i, seen) in observed.into_iter().enumerate() {
        if seen {
            visit(i, [central[i], ad3[i], cad3[i]]);
        }
    }
}

/// Scores already-trained models on a test stream (trip-ordered), replaying
/// collaborative summaries for CAD3 exactly as the RSU pipeline would.
/// Returns `[centralized, ad3, cad3]`.
///
/// Metrics are recorded **at the collaboration point**: on records of link
/// roads (the motorway-link RSU and its siblings), which is where the
/// paper's Fig. 7 comparison is made ("CAD3 outperforms both AD3 and the
/// centralized model in the motorway link RSU"). The whole stream still
/// flows through the summary tracker so CAD3 receives the handover context
/// a deployment would.
pub fn evaluate_models(models: &TrainedModels, test: &[FeatureRecord]) -> Vec<ModelComparison> {
    let mut cms = [ConfusionMatrix::new(); 3];
    let mut evaluated: [Vec<EvaluatedRecord>; 3] = Default::default();
    replay(models, test, |i, verdicts| {
        let rec = &test[i];
        if !rec.road_type.is_link() {
            return;
        }
        for (m, verdict) in verdicts.into_iter().enumerate() {
            let Some(d) = verdict else { continue };
            cms[m].record(rec.label == Label::Abnormal, d.label == Label::Abnormal);
            evaluated[m].push(EvaluatedRecord::new(rec, d.label));
        }
    });

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::train_all;
    use cad3_data::DatasetConfig;

    fn dataset() -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig::small(61))
    }

    #[test]
    fn comparison_reproduces_paper_ordering() {
        // Fig. 7 + Table IV: CAD3 ≥ AD3 > centralized on F1; FN rates and
        // expected accidents in the opposite order.
        let rows =
            Holdout::new(dataset(), 5).unwrap().compare(&DetectionConfig::default()).unwrap();
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
    fn the_split_keeps_trips_whole_and_in_order() {
        let ds = dataset();
        let holdout = Holdout::new(ds.clone(), 5).unwrap();
        let (train, test) = (&holdout.train, holdout.test());
        assert_eq!(train.len() + test.len(), ds.features.len());
        let mut trips: Vec<TripId> = ds.features.iter().map(|f| f.trip).collect();
        trips.dedup();
        let held_out = trips.iter().filter(|&&t| holdout.is_held_out(t)).count();
        assert_eq!(held_out, trips.len() - trips.len() * 8 / 10);
        assert!(train.iter().all(|f| !holdout.is_held_out(f.trip)));
        assert!(test.windows(2).all(|w| w[0].trip <= w[1].trip), "test is in trip order");
        let trip = test[0].trip;
        let slice = trip_records(&ds.features, trip);
        assert_eq!(slice, trip_records(test, trip));
        assert_eq!(slice.len(), ds.features.iter().filter(|f| f.trip == trip).count());
    }

    #[test]
    fn the_holdout_models_are_train_all_on_the_training_trips() {
        let holdout = Holdout::new(dataset(), 5).unwrap();
        let config = DetectionConfig { summary_road_depth: Some(2), ..Default::default() };
        let models = holdout.models(&config).unwrap();
        assert!(models == train_all(&holdout.train, &config).unwrap());
    }

    #[test]
    fn mesoscopic_cad3_is_most_stable() {
        let holdout = Holdout::new(dataset(), 5).unwrap();
        let models = holdout.models(&DetectionConfig::default()).unwrap();
        let trip = holdout.find_mesoscopic_trip(DriverProfile::Sluggish).expect("sluggish trip");
        let result = holdout.mesoscopic_trip(&models, trip).unwrap();
        assert!(result.points.len() > 20);
        assert_eq!(result.profile, DriverProfile::Sluggish);
        let [acc_c, acc_a, acc_k] = result.accuracies();
        // CAD3 should track the abnormal driver at least as well as the
        // others on this trip.
        assert!(acc_k + 0.05 >= acc_a, "cad3 {acc_k} vs ad3 {acc_a}");
        assert!(acc_k > acc_c - 0.05, "cad3 {acc_k} vs centralized {acc_c}");
    }

    #[test]
    fn mesoscopic_trips_are_held_out() {
        let mut found = 0;
        for seed in [42, 5, 1042] {
            let ds = SyntheticDataset::generate(&DatasetConfig::small(seed));
            let holdout = Holdout::new(ds, seed).unwrap();
            for profile in DriverProfile::ALL.into_iter().filter(|p| p.is_abnormal()) {
                if let Some(trip) = holdout.find_mesoscopic_trip(profile) {
                    assert!(holdout.is_held_out(trip), "seed {seed}, {profile:?}: trip {trip}");
                    found += 1;
                }
            }
        }
        assert!(found > 0, "no corpus had a multi-road abnormal trip held out");
    }

    #[test]
    fn mesoscopic_missing_trip_errors() {
        let holdout = Holdout::new(dataset(), 5).unwrap();
        let models = holdout.models(&DetectionConfig::default()).unwrap();
        assert!(holdout.mesoscopic_trip(&models, TripId(999_999)).is_err());
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
