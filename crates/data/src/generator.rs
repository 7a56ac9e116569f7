use crate::{LabelModel, ProfileMix, RoadNetwork, RoadNetworkConfig, TripGenerator};
use cad3_sim::SimRng;
use cad3_types::{
    DayOfWeek, DriverProfile, FeatureRecord, TrajectoryPoint, TripId, TripRecord, VehicleId,
};
use std::collections::HashMap;

/// Configuration of a synthetic dataset generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// RNG seed; the whole corpus is a pure function of the config.
    pub seed: u64,
    /// Number of vehicles (the paper's filtered dataset has 3,306).
    pub n_vehicles: u32,
    /// Trips generated per vehicle.
    pub trips_per_vehicle: u32,
    /// Road-network scale (fraction of the Table V road counts).
    pub network_scale: f64,
    /// Driver-profile mix.
    pub mix: ProfileMix,
    /// Probability that a trip follows the microscopic motorway→link route
    /// (the rest follow random routes over the whole network).
    pub microscopic_fraction: f64,
    /// Whether to keep raw GPS trajectories (needed only for map-matching
    /// experiments; the feature records are always kept).
    pub keep_trajectories: bool,
}

impl DatasetConfig {
    /// A small corpus for tests and examples (~10–20 k records).
    pub fn small(seed: u64) -> Self {
        DatasetConfig {
            seed,
            n_vehicles: 40,
            trips_per_vehicle: 3,
            network_scale: 0.02,
            mix: ProfileMix::paper_default(),
            microscopic_fraction: 0.6,
            keep_trajectories: false,
        }
    }

    /// A corpus sized like the paper's Table IV evaluation (~500 k records,
    /// 35% abnormal drivers).
    pub fn paper_500k(seed: u64) -> Self {
        DatasetConfig {
            seed,
            n_vehicles: 600,
            trips_per_vehicle: 4,
            network_scale: 0.05,
            mix: ProfileMix::paper_default(),
            microscopic_fraction: 0.6,
            keep_trajectories: false,
        }
    }

    /// A corpus sized like the paper's 89 k-record accuracy evaluation.
    pub fn paper_89k(seed: u64) -> Self {
        DatasetConfig { n_vehicles: 120, trips_per_vehicle: 3, ..Self::paper_500k(seed) }
    }
}

/// Start-hour weights of a trip, by hour of day: commuting times weigh
/// most.
const START_HOUR_WEIGHTS: [f64; 24] = [
    0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, // 00–06
    3.0, 3.0, 3.0, // 07–09
    1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, // 10–16
    3.0, 3.0, 3.0, // 17–19
    1.0, 1.0, 1.0, // 20–22
    0.3, // 23
];

/// A fully generated synthetic corpus: the reproduction's replacement for
/// the paper's proprietary Shenzhen private-car dataset.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The configuration that produced this corpus.
    pub config: DatasetConfig,
    /// The road network.
    pub network: RoadNetwork,
    /// Trip-level records (Table I trips).
    pub trips: Vec<TripRecord>,
    /// Preprocessed, labelled analysis records (Table II), in trip order.
    pub features: Vec<FeatureRecord>,
    /// Raw trajectories (empty unless `keep_trajectories`).
    pub trajectories: Vec<TrajectoryPoint>,
    /// Ground-truth behavioural profile per vehicle.
    pub profiles: HashMap<VehicleId, DriverProfile>,
    /// The offline labelling model fitted on this corpus.
    pub label_model: LabelModel,
}

impl SyntheticDataset {
    /// Generates a corpus from a configuration. Deterministic in the seed.
    pub fn generate(config: &DatasetConfig) -> Self {
        let mut rng = SimRng::seed_from(config.seed);
        let network = RoadNetwork::generate(&RoadNetworkConfig::scaled(
            config.seed ^ 0xA5A5,
            config.network_scale,
        ));
        let generator = TripGenerator::new(&network);

        let mut trips = Vec::new();
        let mut features = Vec::new();
        let mut true_kinematics: Vec<(f64, f64)> = Vec::new();
        let mut trajectories = Vec::new();
        let mut profiles = HashMap::new();
        let mut trip_counter: u64 = 1;

        for v in 1..=config.n_vehicles as u64 {
            let vehicle = VehicleId(v);
            let profile = config.mix.sample(&mut rng);
            profiles.insert(vehicle, profile);
            for _ in 0..config.trips_per_vehicle {
                let day = DayOfWeek::from_index_wrapping(rng.index(7) as u64);
                let hour = rng.pick_weighted(&START_HOUR_WEIGHTS) as f64;
                let start_time_s =
                    day.index() as f64 * 86_400.0 + hour * 3600.0 + rng.uniform(0.0, 3600.0);

                let route = if rng.chance(config.microscopic_fraction) {
                    generator.microscopic_route(&mut rng)
                } else {
                    generator.random_route(&mut rng, 4)
                };
                let trip = generator.generate_trip(
                    &mut rng,
                    vehicle,
                    TripId(trip_counter),
                    profile,
                    day,
                    start_time_s,
                    &route,
                );
                trip_counter += 1;
                if config.keep_trajectories {
                    trajectories.extend(trip.points(&network));
                }
                trips.push(trip.record);
                features.extend(trip.features);
                true_kinematics.extend(trip.true_kinematics);
            }
        }

        // Offline labelling stage: fit μ±σ cut-offs and assign labels on the
        // *true* kinematics. The detectors only ever see the measured
        // (noisy) values kept in `features` — the latent-truth gap is what
        // cross-road collaboration recovers. The true values are swapped in
        // for the fit and the labelling, and the measured ones back after.
        let swap_kinematics = |features: &mut [FeatureRecord], kinematics: &mut [(f64, f64)]| {
            for (r, (v, a)) in features.iter_mut().zip(kinematics) {
                std::mem::swap(&mut r.speed_kmh, v);
                std::mem::swap(&mut r.accel_mps2, a);
            }
        };
        swap_kinematics(&mut features, &mut true_kinematics);
        let label_model = LabelModel::fit(features.iter());
        for f in &mut features {
            f.label = label_model.label(f);
        }
        swap_kinematics(&mut features, &mut true_kinematics);

        SyntheticDataset {
            config: config.clone(),
            network,
            trips,
            features,
            trajectories,
            profiles,
            label_model,
        }
    }

    /// Records on roads of the given type (the paper's per-road-type
    /// sub-datasets).
    pub fn features_of_type(&self, rt: cad3_types::RoadType) -> Vec<FeatureRecord> {
        self.features.iter().filter(|f| f.road_type == rt).copied().collect()
    }

    /// Fraction of records labelled abnormal.
    pub fn abnormal_fraction(&self) -> f64 {
        if self.features.is_empty() {
            return 0.0;
        }
        self.features.iter().filter(|f| f.label.is_abnormal()).count() as f64
            / self.features.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad3_types::{Label, RoadType};

    fn small() -> SyntheticDataset {
        SyntheticDataset::generate(&DatasetConfig::small(21))
    }

    #[test]
    fn corpus_is_deterministic_in_seed() {
        let a = SyntheticDataset::generate(&DatasetConfig::small(9));
        let b = SyntheticDataset::generate(&DatasetConfig::small(9));
        assert_eq!(a.features.len(), b.features.len());
        assert_eq!(a.features.first(), b.features.first());
        assert_eq!(a.features.last(), b.features.last());
        assert_eq!(a.abnormal_fraction(), b.abnormal_fraction());
    }

    #[test]
    fn trip_and_vehicle_counts() {
        let ds = small();
        assert_eq!(ds.trips.len(), 40 * 3);
        assert_eq!(ds.profiles.len(), 40);
        assert!(ds.features.len() > 5_000, "got {}", ds.features.len());
        assert!(ds.trajectories.is_empty(), "trajectories off by default");
    }

    #[test]
    fn abnormal_fraction_in_paper_ballpark() {
        let ds = small();
        let f = ds.abnormal_fraction();
        assert!((0.15..0.55).contains(&f), "abnormal fraction {f}");
    }

    #[test]
    fn abnormal_drivers_have_more_abnormal_points() {
        let ds = small();
        let mut rates: HashMap<bool, (usize, usize)> = HashMap::new();
        for f in &ds.features {
            let abnormal_driver = ds.profiles[&f.vehicle].is_abnormal();
            let e = rates.entry(abnormal_driver).or_default();
            e.0 += usize::from(f.label == Label::Abnormal);
            e.1 += 1;
        }
        let rate = |k: bool| {
            let (a, n) = rates[&k];
            a as f64 / n as f64
        };
        assert!(
            rate(true) > rate(false) + 0.2,
            "abnormal drivers {:.2} vs typical {:.2}",
            rate(true),
            rate(false)
        );
    }

    #[test]
    fn microscopic_trips_cover_motorway_and_link() {
        let ds = small();
        assert!(!ds.features_of_type(RoadType::Motorway).is_empty());
        assert!(!ds.features_of_type(RoadType::MotorwayLink).is_empty());
    }

    #[test]
    fn keep_trajectories_flag_works() {
        let config = DatasetConfig { keep_trajectories: true, ..DatasetConfig::small(3) };
        let ds = SyntheticDataset::generate(&config);
        assert_eq!(ds.trajectories.len(), ds.features.len());
    }

    #[test]
    fn both_classes_present_per_main_road_type() {
        let ds = small();
        for rt in [RoadType::Motorway, RoadType::MotorwayLink] {
            let recs = ds.features_of_type(rt);
            assert!(recs.iter().any(|r| r.label == Label::Normal), "{rt} has normals");
            assert!(recs.iter().any(|r| r.label == Label::Abnormal), "{rt} has abnormals");
        }
    }
}
