//! The paper's preprocessing stage (Section V, Eq. 4): derive instantaneous
//! speed and acceleration from consecutive GPS fixes, attach road context
//! from map matching, and filter erroneous measurements.

use crate::RoadNetwork;
use cad3_ml::GaussianStats;
use cad3_types::{DayOfWeek, FeatureRecord, HourOfDay, Label, RoadId, TrajectoryPoint};
use std::collections::HashMap;

/// Filtering thresholds for erroneous values ("after we filter out
/// erroneous measurements" — Section V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterConfig {
    /// Maximum plausible speed in km/h.
    pub max_speed_kmh: f64,
    /// Maximum plausible |acceleration| in m/s².
    pub max_accel_mps2: f64,
    /// Moving-average window applied to the derived speeds before
    /// differentiating into accelerations (odd, ≥1; 1 disables smoothing).
    /// GPS position noise of a few metres turns into tens of m/s² of fake
    /// acceleration at 1 Hz without it.
    pub smoothing_window: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig { max_speed_kmh: 250.0, max_accel_mps2: 12.0, smoothing_window: 3 }
    }
}

/// Centred moving average over `Some` values; `None` entries break runs.
fn smooth(speeds: &[Option<f64>], window: usize) -> Vec<Option<f64>> {
    if window <= 1 {
        return speeds.to_vec();
    }
    let half = window / 2;
    speeds
        .iter()
        .enumerate()
        .map(|(i, v)| {
            (*v)?;
            let lo = i.saturating_sub(half);
            let hi = (i + half).min(speeds.len() - 1);
            let vals: Vec<f64> = speeds[lo..=hi].iter().flatten().copied().collect();
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        })
        .collect()
}

/// Computes the instantaneous speed of each displacement (the paper's
/// Eq. 4): `v_r(i) = Dist(l_i, l_{i+1}) / (t_{i+1} − t_i)`, in km/h.
///
/// The output has one entry per consecutive pair; non-increasing timestamps
/// yield `None` entries (erroneous).
pub fn instantaneous_speeds(points: &[TrajectoryPoint]) -> Vec<Option<f64>> {
    points
        .windows(2)
        .map(|w| {
            let dt = w[1].gps_time_s - w[0].gps_time_s;
            if dt <= 0.0 {
                return None;
            }
            let d = w[0].position.haversine_m(&w[1].position);
            Some(d / dt * 3.6)
        })
        .collect()
}

/// Builds Table II feature records from a trajectory and its map-matched
/// roads, applying Eq. 4 and the erroneous-value filter.
///
/// `matched_roads` must have one road per trajectory point (as returned by
/// [`crate::HmmMapMatcher::match_trajectory`]). The per-road normal speed
/// `v̄_r` is the running mean of the instantaneous speeds observed on that
/// road, exactly as Eq. 4 defines it.
///
/// `day` is the day of week of the trip. Labels are placeholders
/// ([`Label::Normal`]) for the offline labelling stage.
///
/// # Panics
///
/// Panics if `matched_roads.len() != points.len()`.
pub fn to_feature_records(
    network: &RoadNetwork,
    points: &[TrajectoryPoint],
    matched_roads: &[RoadId],
    day: DayOfWeek,
    filter: &FilterConfig,
) -> Vec<FeatureRecord> {
    assert_eq!(points.len(), matched_roads.len(), "one matched road per trajectory point required");
    let speeds = smooth(&instantaneous_speeds(points), filter.smoothing_window);
    let mut road_speed: HashMap<RoadId, GaussianStats> = HashMap::new();
    let mut out = Vec::new();
    let mut prev_speed: Option<(f64, f64)> = None; // (speed_kmh, time_s)

    for (i, speed) in speeds.iter().enumerate() {
        let Some(v) = *speed else {
            prev_speed = None;
            continue;
        };
        let p = &points[i + 1];
        let road_id = matched_roads[i + 1];
        let Some(road) = network.road(road_id) else { continue };

        let accel = match prev_speed {
            Some((pv, pt)) if p.gps_time_s > pt => (v - pv) / 3.6 / (p.gps_time_s - pt),
            _ => 0.0,
        };
        prev_speed = Some((v, p.gps_time_s));

        // Erroneous-value filter.
        if v > filter.max_speed_kmh || accel.abs() > filter.max_accel_mps2 {
            continue;
        }

        let stats = road_speed.entry(road_id).or_default();
        stats.push(v);
        out.push(FeatureRecord {
            vehicle: p.vehicle,
            trip: p.trip,
            road: road_id,
            accel_mps2: accel,
            speed_kmh: v,
            hour: HourOfDay::wrapping((p.gps_time_s / 3600.0) as u64),
            day,
            road_type: road.road_type,
            road_speed_kmh: stats.mean(),
            label: Label::Normal,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoadNetworkConfig, TripGenerator};
    use cad3_sim::SimRng;
    use cad3_types::{DriverProfile, GeoPoint, TripId, VehicleId};

    fn straight_points(speed_kmh: f64, n: usize) -> Vec<TrajectoryPoint> {
        let start = GeoPoint::new(114.0, 22.5);
        let step_m = speed_kmh / 3.6;
        (0..n)
            .map(|i| TrajectoryPoint {
                vehicle: VehicleId(1),
                trip: TripId(1),
                position: start.destination(90.0, step_m * i as f64),
                gps_time_s: i as f64,
                ac_mileage_m: step_m * i as f64,
            })
            .collect()
    }

    #[test]
    fn eq4_recovers_constant_speed() {
        let points = straight_points(72.0, 10);
        let speeds = instantaneous_speeds(&points);
        assert_eq!(speeds.len(), 9);
        for s in speeds {
            let v = s.unwrap();
            assert!((v - 72.0).abs() < 0.5, "got {v}");
        }
    }

    #[test]
    fn non_monotonic_time_is_erroneous() {
        let mut points = straight_points(50.0, 5);
        points[2].gps_time_s = points[1].gps_time_s; // dt = 0
        let speeds = instantaneous_speeds(&points);
        assert!(speeds[1].is_none());
        assert!(speeds[0].is_some());
    }

    #[test]
    fn feature_records_from_generated_trip() {
        let net = RoadNetwork::generate(&RoadNetworkConfig::scaled(3, 0.02));
        let gen = TripGenerator::new(&net).with_gps_noise(2.0);
        let mut rng = SimRng::seed_from(4);
        let route = gen.microscopic_route(&mut rng);
        let trip = gen.generate_trip(
            &mut rng,
            VehicleId(9),
            TripId(3),
            DriverProfile::Typical,
            DayOfWeek::Thursday,
            9.5 * 3600.0,
            &route,
        );
        let points = trip.points(&net);
        let recs = to_feature_records(
            &net,
            &points,
            &trip.true_roads(),
            DayOfWeek::Thursday,
            &FilterConfig::default(),
        );
        assert!(recs.len() > points.len() / 2, "most points survive preprocessing");
        // Derived speeds track the generator's ground-truth speeds.
        let derived_mean = recs.iter().map(|r| r.speed_kmh).sum::<f64>() / recs.len() as f64;
        let truth_mean =
            trip.features.iter().map(|f| f.speed_kmh).sum::<f64>() / trip.features.len() as f64;
        assert!(
            (derived_mean - truth_mean).abs() < truth_mean * 0.25,
            "derived {derived_mean} vs truth {truth_mean}"
        );
        // Context attached.
        assert!(recs.iter().all(|r| r.road_speed_kmh > 0.0));
        assert_eq!(recs[0].vehicle, VehicleId(9));
        assert_eq!(recs[0].day, DayOfWeek::Thursday);
    }

    #[test]
    fn smoothing_reduces_derived_acceleration_noise() {
        let net = RoadNetwork::generate(&RoadNetworkConfig::scaled(3, 0.02));
        let gen = TripGenerator::new(&net).with_gps_noise(5.0);
        let mut rng = SimRng::seed_from(12);
        let route = gen.microscopic_route(&mut rng);
        let trip = gen.generate_trip(
            &mut rng,
            VehicleId(1),
            TripId(1),
            DriverProfile::Typical,
            DayOfWeek::Monday,
            12.0 * 3600.0,
            &route,
        );
        let (points, true_roads) = (trip.points(&net), trip.true_roads());
        let accel_spread = |window: usize| {
            let recs = to_feature_records(
                &net,
                &points,
                &true_roads,
                DayOfWeek::Monday,
                &FilterConfig { smoothing_window: window, ..FilterConfig::default() },
            );
            let mean = recs.iter().map(|r| r.accel_mps2).sum::<f64>() / recs.len() as f64;
            (recs.iter().map(|r| (r.accel_mps2 - mean).powi(2)).sum::<f64>() / recs.len() as f64)
                .sqrt()
        };
        let raw = accel_spread(1);
        let smoothed = accel_spread(3);
        assert!(
            smoothed < raw * 0.7,
            "3-point smoothing should cut accel noise: {raw} -> {smoothed}"
        );
    }

    #[test]
    fn filter_drops_teleporting_fixes() {
        let mut points = straight_points(60.0, 10);
        // Teleport one fix 10 km away: instantaneous speed becomes absurd.
        points[5].position = points[5].position.destination(0.0, 10_000.0);
        let net = RoadNetwork::generate(&RoadNetworkConfig::scaled(3, 0.02));
        let any_road = net.iter().next().unwrap().id;
        let matched = vec![any_road; points.len()];
        let recs = to_feature_records(
            &net,
            &points,
            &matched,
            DayOfWeek::Monday,
            &FilterConfig::default(),
        );
        assert!(recs.iter().all(|r| r.speed_kmh <= 250.0));
        assert!(recs.len() < 9, "erroneous displacements filtered");
    }

    #[test]
    #[should_panic(expected = "one matched road per trajectory point")]
    fn mismatched_lengths_panic() {
        let net = RoadNetwork::generate(&RoadNetworkConfig::scaled(3, 0.02));
        let points = straight_points(60.0, 5);
        to_feature_records(&net, &points, &[], DayOfWeek::Monday, &FilterConfig::default());
    }
}
