//! Property-based tests of the dataset substrate's invariants.

use cad3_data::{
    LabelModel, ProfileMix, RoadNetwork, RoadNetworkConfig, SpeedProfile, TripGenerator,
};
use cad3_sim::SimRng;
use cad3_types::{DayOfWeek, DriverProfile, HourOfDay, RoadType, TripId, VehicleId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any generated trip is physically consistent: aligned streams, 1 Hz
    /// sampling, monotone mileage, roads followed in route order.
    #[test]
    fn trips_are_physically_consistent(
        seed in any::<u64>(),
        profile_idx in 0usize..4,
        start_hour in 0u64..24,
    ) {
        let net = RoadNetwork::generate(&RoadNetworkConfig::scaled(3, 0.02));
        let generator = TripGenerator::new(&net);
        let mut rng = SimRng::seed_from(seed);
        let route = generator.random_route(&mut rng, 3);
        let trip = generator.generate_trip(
            &mut rng,
            VehicleId(1),
            TripId(1),
            DriverProfile::ALL[profile_idx],
            DayOfWeek::from_index_wrapping(seed),
            start_hour as f64 * 3600.0,
            &route,
        );
        let points = trip.points(&net);
        prop_assert_eq!(points.len(), trip.features.len());
        prop_assert_eq!(points.len(), trip.true_roads().len());
        prop_assert_eq!(points.len(), trip.true_kinematics.len());
        prop_assert!(!points.is_empty());
        for w in points.windows(2) {
            prop_assert!((w[1].gps_time_s - w[0].gps_time_s - 1.0).abs() < 1e-9);
            prop_assert!(w[1].ac_mileage_m >= w[0].ac_mileage_m);
        }
        // Roads appear in route order without revisits.
        let mut route_cursor = 0usize;
        for road in &trip.true_roads() {
            while route_cursor < route.len() && route[route_cursor] != *road {
                route_cursor += 1;
            }
            prop_assert!(route_cursor < route.len(), "unknown road visited");
        }
        // Kinematics: measured speed is non-negative, true speed too.
        for (f, (tv, _)) in trip.features.iter().zip(&trip.true_kinematics) {
            prop_assert!(f.speed_kmh >= 0.0);
            prop_assert!(*tv >= 0.0);
        }
    }

    /// Labelling is idempotent and symmetric to the fitted band.
    #[test]
    fn labelling_is_idempotent(seed in any::<u64>()) {
        let net = RoadNetwork::generate(&RoadNetworkConfig::scaled(5, 0.02));
        let generator = TripGenerator::new(&net);
        let mut rng = SimRng::seed_from(seed);
        let route = generator.microscopic_route(&mut rng);
        let trip = generator.generate_trip(
            &mut rng,
            VehicleId(1),
            TripId(1),
            DriverProfile::Typical,
            DayOfWeek::Monday,
            12.0 * 3600.0,
            &route,
        );
        let mut records = trip.features.clone();
        let model = LabelModel::fit(records.iter());
        model.relabel(&mut records);
        let first: Vec<_> = records.iter().map(|r| r.label).collect();
        model.relabel(&mut records);
        let second: Vec<_> = records.iter().map(|r| r.label).collect();
        prop_assert_eq!(first, second);
    }

    /// Speed profiles are strictly positive and modulation stays within
    /// sane factors for every context.
    #[test]
    fn speed_profiles_are_sane(hour in 0u8..24, day_idx in 0u64..7, rt_code in 0u8..10) {
        let rt = RoadType::from_code(rt_code).unwrap();
        let day = DayOfWeek::from_index_wrapping(day_idx);
        let hour = HourOfDay::new(hour).unwrap();
        let p = SpeedProfile::for_road_type(rt);
        let mean = p.mean_kmh(hour, day);
        let std = p.std_kmh(hour, day);
        prop_assert!(mean > 5.0 && mean < 150.0, "mean {}", mean);
        prop_assert!(std > 0.0 && std < mean, "std {} vs mean {}", std, mean);
        let modulation = SpeedProfile::modulation(hour, day);
        prop_assert!((0.5..=1.3).contains(&modulation));
    }

    /// Profile mixes sample only their support.
    #[test]
    fn profile_mix_support(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from(seed);
        let mix = ProfileMix::new(0.5, 0.5, 0.0, 0.0);
        for _ in 0..100 {
            let p = mix.sample(&mut rng);
            prop_assert!(matches!(p, DriverProfile::Typical | DriverProfile::Aggressive));
        }
    }
}
