use crate::{RoadNetwork, SpeedProfile};
use cad3_sim::SimRng;
use cad3_types::{
    DayOfWeek, DriverProfile, FeatureRecord, GeoPoint, HourOfDay, Label, RoadId, RoadSegment,
    TrajectoryPoint, TripId, TripRecord, VehicleId,
};

/// Where one 1 Hz GPS fix of a [`GeneratedTrip`] was taken: everything that
/// places the point, without placing it.
///
/// The fix is the point `along_m` metres along `road`, moved `jitter_m`
/// metres on the bearing `bearing_deg` (the GPS noise). Placing it walks
/// the road's polyline and costs eight trig calls, so the generator only
/// records these draws and [`GeneratedTrip::points`] places the fixes for
/// the callers that read them.
#[derive(Debug, Clone, Copy)]
struct GpsSample {
    road: RoadId,
    along_m: f64,
    bearing_deg: f64,
    jitter_m: f64,
    gps_time_s: f64,
    ac_mileage_m: f64,
}

impl GpsSample {
    /// The fix's noisy GPS position on `network` (`None` if its road is not
    /// there).
    fn position(&self, network: &RoadNetwork) -> Option<GeoPoint> {
        let road = network.road(self.road)?;
        Some(road.point_at(self.along_m).destination(self.bearing_deg, self.jitter_m))
    }
}

/// A generated trip: the Table I trip row, where each of its 1 Hz GPS fixes
/// was taken, and the preprocessed Table II records.
///
/// The trajectory is kept as the draws that place each fix (road, distance
/// along it, noise bearing and distance), not as positions: the corpus
/// keeps only the feature records, so the positions are computed by
/// [`GeneratedTrip::points`] for the callers that ask for them (map
/// matching, `keep_trajectories`) and are the same bits whenever they are.
#[derive(Debug, Clone)]
pub struct GeneratedTrip {
    /// Trip-level record.
    pub record: TripRecord,
    /// Where each fix was taken, in time order.
    samples: Vec<GpsSample>,
    /// Preprocessed per-point analysis records carrying the *measured*
    /// kinematics (GPS-derived speed with sensor noise). Labels are
    /// [`Label::Normal`] placeholders until the offline labelling stage
    /// runs (see [`crate::LabelModel`]).
    pub features: Vec<FeatureRecord>,
    /// True (noise-free) `(speed_kmh, accel_mps2)` per point, aligned with
    /// `features`. The offline labelling stage uses these as ground truth;
    /// the detectors only ever see the measured values — the gap between
    /// the two is what makes cross-road collaboration informative.
    pub true_kinematics: Vec<(f64, f64)>,
    /// The driver's behavioural profile.
    pub profile: DriverProfile,
}

impl GeneratedTrip {
    /// The raw 1 Hz trajectory (with GPS noise), aligned with `features`.
    ///
    /// `network` must be the one the trip was generated on.
    ///
    /// # Panics
    ///
    /// Panics if a road of the trip is not in `network`.
    pub fn points(&self, network: &RoadNetwork) -> Vec<TrajectoryPoint> {
        self.samples
            .iter()
            .map(|s| TrajectoryPoint {
                vehicle: self.record.vehicle,
                trip: self.record.trip,
                position: s.position(network).expect("trip roads belong to the network"),
                gps_time_s: s.gps_time_s,
                ac_mileage_m: s.ac_mileage_m,
            })
            .collect()
    }

    /// Ground-truth road of each trajectory point (for map-matcher
    /// validation).
    pub fn true_roads(&self) -> Vec<RoadId> {
        self.samples.iter().map(|s| s.road).collect()
    }
}

/// Generates trips and trajectories over a road network.
///
/// Driver behaviour is *persistent within a trip*: an aggressive driver
/// targets well above the road's normal speed on every road traversed,
/// which is the statistical structure that lets CAD3's cross-RSU summary
/// carry information (the paper's driver-awareness).
#[derive(Debug, Clone, Copy)]
pub struct TripGenerator<'a> {
    network: &'a RoadNetwork,
    /// GPS noise standard deviation in metres.
    gps_noise_m: f64,
    /// Speed measurement noise (GPS-derived speed), km/h.
    speed_noise_kmh: f64,
    /// Acceleration measurement noise (IMU), m/s².
    accel_noise_mps2: f64,
}

impl<'a> TripGenerator<'a> {
    /// Creates a generator over a network with 5 m GPS noise, 4 km/h
    /// speed-measurement noise and 0.15 m/s² accelerometer noise.
    pub fn new(network: &'a RoadNetwork) -> Self {
        TripGenerator { network, gps_noise_m: 5.0, speed_noise_kmh: 5.0, accel_noise_mps2: 0.15 }
    }

    /// Overrides the GPS noise level.
    pub fn with_gps_noise(mut self, noise_m: f64) -> Self {
        self.gps_noise_m = noise_m;
        self
    }

    /// Overrides the kinematic measurement noise (speed km/h, accel m/s²).
    pub fn with_measurement_noise(mut self, speed_kmh: f64, accel_mps2: f64) -> Self {
        self.speed_noise_kmh = speed_kmh;
        self.accel_noise_mps2 = accel_mps2;
        self
    }

    /// The microscopic scenario of the paper's Fig. 3: one motorway
    /// followed by a motorway link attached to it.
    ///
    /// # Panics
    ///
    /// Panics if the network has no motorway→link junction.
    pub fn microscopic_route(&self, rng: &mut SimRng) -> Vec<RoadId> {
        let motorway_junctions: Vec<&(RoadId, RoadId)> = self
            .network
            .junctions()
            .iter()
            .filter(|(p, _)| {
                self.network.road(*p).map(|r| r.road_type == cad3_types::RoadType::Motorway)
                    == Some(true)
            })
            .collect();
        assert!(!motorway_junctions.is_empty(), "network has no motorway junction");
        let (p, l) = **rng.pick(&motorway_junctions);
        vec![p, l]
    }

    /// A random route of up to `max_roads` roads, following junctions when
    /// possible and hopping to a random road otherwise.
    pub fn random_route(&self, rng: &mut SimRng, max_roads: usize) -> Vec<RoadId> {
        assert!(max_roads > 0, "route needs at least one road");
        let all: Vec<RoadId> = self.network.iter().map(|r| r.id).collect();
        let mut route = vec![*rng.pick(&all)];
        while route.len() < max_roads {
            let here = *route.last().expect("route non-empty");
            let links = self.network.links_of(here);
            let next = if !links.is_empty() && rng.chance(0.7) {
                *rng.pick(&links)
            } else {
                *rng.pick(&all)
            };
            if next == here {
                break;
            }
            route.push(next);
        }
        route
    }

    /// Generates one trip along `route`.
    ///
    /// `start_time_s` is seconds since the dataset epoch (midnight of day
    /// 0); hour-of-day features derive from it.
    ///
    /// # Panics
    ///
    /// Panics if `route` is empty or references an unknown road.
    #[allow(clippy::too_many_arguments)] // a trip is naturally this wide
    pub fn generate_trip(
        &self,
        rng: &mut SimRng,
        vehicle: VehicleId,
        trip: TripId,
        profile: DriverProfile,
        day: DayOfWeek,
        start_time_s: f64,
        route: &[RoadId],
    ) -> GeneratedTrip {
        assert!(!route.is_empty(), "trip route must not be empty");
        let dt = 1.0; // 1 Hz GPS, like the paper's dataset
        let mut samples = Vec::new();
        let mut features = Vec::new();
        let mut true_kinematics = Vec::new();

        let mut t = start_time_s;
        let mut mileage = 0.0;
        let mut prev_speed_kmh: Option<f64> = None;
        // Erratic drivers flip between slow and fast targets.
        let mut erratic_high = rng.chance(0.5);
        let mut erratic_countdown: usize = 3 + rng.index(5);

        let roads: Vec<&RoadSegment> =
            route.iter().map(|&id| self.network.road(id).expect("route road exists")).collect();
        let start_pos = roads[0].start();

        for road in roads {
            let road_id = road.id;
            let sp = SpeedProfile::for_road_type(road.road_type);
            let mut dist_on_road = 0.0;
            // Initialise speed near the context's norm.
            let hour = HourOfDay::wrapping((t / 3600.0) as u64);
            let mut v = prev_speed_kmh.unwrap_or_else(|| sp.sample_kmh(rng, hour, day)).max(1.0);

            while dist_on_road < road.length_m {
                let hour = HourOfDay::wrapping((t / 3600.0) as u64);
                let mean = sp.mean_kmh(hour, day);
                let std = sp.std_kmh(hour, day);
                // Behavioural target speed.
                let (target, pull, noise) = match profile {
                    DriverProfile::Typical => (rng.normal(mean, std * 0.7), 0.35, 1.2),
                    DriverProfile::Aggressive => (mean + rng.normal(2.4, 0.3) * std, 0.5, 1.2),
                    DriverProfile::Sluggish => {
                        ((mean - rng.normal(2.4, 0.3) * std).max(2.0), 0.5, 1.2)
                    }
                    DriverProfile::Erratic => {
                        erratic_countdown = erratic_countdown.saturating_sub(1);
                        if erratic_countdown == 0 {
                            erratic_high = !erratic_high;
                            erratic_countdown = 3 + rng.index(5);
                        }
                        let tgt = if erratic_high { mean * 1.45 } else { mean * 0.55 };
                        (tgt, 0.75, 4.0)
                    }
                };
                let new_v = (v + pull * (target - v) + rng.normal(0.0, noise)).max(0.0);
                let accel_mps2 = (new_v - v) / 3.6 / dt;
                v = new_v;

                dist_on_road += v / 3.6 * dt;
                t += dt;
                mileage += v / 3.6 * dt;

                // The GPS noise is drawn here, in stream order, and the fix
                // placed only when asked for (`GeneratedTrip::points`).
                let bearing_deg = rng.uniform(0.0, 360.0);
                let jitter_m = rng.normal(0.0, self.gps_noise_m).abs();
                samples.push(GpsSample {
                    road: road_id,
                    along_m: dist_on_road.min(road.length_m),
                    bearing_deg,
                    jitter_m,
                    gps_time_s: t,
                    ac_mileage_m: mileage,
                });
                // Detectors see measured kinematics; the labelling ground
                // truth keeps the noise-free values.
                let measured_speed = (v + rng.normal(0.0, self.speed_noise_kmh)).max(0.0);
                let measured_accel = accel_mps2 + rng.normal(0.0, self.accel_noise_mps2);
                features.push(FeatureRecord {
                    vehicle,
                    trip,
                    road: road_id,
                    accel_mps2: measured_accel,
                    speed_kmh: measured_speed,
                    hour,
                    day,
                    road_type: road.road_type,
                    road_speed_kmh: mean,
                    label: Label::Normal, // placeholder until offline labelling
                });
                true_kinematics.push((v, accel_mps2));
                prev_speed_kmh = Some(v);
            }
        }

        let stop_pos = samples.last().and_then(|s| s.position(self.network)).unwrap_or(start_pos);
        let record = TripRecord {
            vehicle,
            trip,
            start: start_pos,
            stop: stop_pos,
            start_time_s,
            stop_time_s: t,
            mileage_m: mileage,
            day,
            roads: route.to_vec(),
        };
        GeneratedTrip { record, samples, features, true_kinematics, profile }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoadNetworkConfig;

    fn network() -> RoadNetwork {
        RoadNetwork::generate(&RoadNetworkConfig::scaled(3, 0.02))
    }

    fn trip(profile: DriverProfile, seed: u64) -> (RoadNetwork, GeneratedTrip) {
        let net = network();
        let gen = TripGenerator::new(&net);
        let mut rng = SimRng::seed_from(seed);
        let route = gen.microscopic_route(&mut rng);
        let trip = gen.generate_trip(
            &mut rng,
            VehicleId(1),
            TripId(1),
            profile,
            DayOfWeek::Tuesday,
            10.0 * 3600.0,
            &route,
        );
        (net, trip)
    }

    #[test]
    fn trip_covers_route_in_order() {
        let (_, t) = trip(DriverProfile::Typical, 1);
        assert_eq!(t.record.roads.len(), 2);
        // true_roads is a non-decreasing walk through the route.
        let true_roads = t.true_roads();
        let first_link_idx =
            true_roads.iter().position(|r| *r == t.record.roads[1]).expect("reaches link");
        assert!(true_roads[..first_link_idx].iter().all(|r| *r == t.record.roads[0]));
        assert!(true_roads[first_link_idx..].iter().all(|r| *r == t.record.roads[1]));
    }

    #[test]
    fn streams_are_aligned_and_timed_at_1hz() {
        let (net, t) = trip(DriverProfile::Typical, 2);
        let points = t.points(&net);
        assert_eq!(points.len(), t.features.len());
        assert_eq!(points.len(), t.true_roads().len());
        for w in points.windows(2) {
            assert!((w[1].gps_time_s - w[0].gps_time_s - 1.0).abs() < 1e-9);
        }
        assert!(t.record.period_s() >= points.len() as f64 - 1.0);
        assert_eq!(
            t.record.stop,
            points.last().unwrap().position,
            "the trip stops at its last fix"
        );
    }

    #[test]
    fn typical_driver_stays_near_profile() {
        let (_, t) = trip(DriverProfile::Typical, 3);
        // On the motorway stretch, speed should hover near the mean.
        let mw_speeds: Vec<f64> = t
            .features
            .iter()
            .filter(|f| f.road_type == cad3_types::RoadType::Motorway)
            .map(|f| f.speed_kmh)
            .collect();
        let mean = mw_speeds.iter().sum::<f64>() / mw_speeds.len() as f64;
        let road_speed = t.features[0].road_speed_kmh;
        assert!(
            (mean - road_speed).abs() < road_speed * 0.2,
            "typical mean {mean} vs road {road_speed}"
        );
    }

    #[test]
    fn aggressive_driver_speeds_on_every_road() {
        let (_, t) = trip(DriverProfile::Aggressive, 4);
        for road in &t.record.roads {
            let speeds: Vec<&FeatureRecord> =
                t.features.iter().filter(|f| f.road == *road).collect();
            let over = speeds.iter().filter(|f| f.speed_kmh > f.road_speed_kmh).count();
            assert!(
                over as f64 / speeds.len() as f64 > 0.8,
                "aggressive driver persistent on {road}"
            );
        }
    }

    #[test]
    fn sluggish_driver_crawls() {
        let (_, t) = trip(DriverProfile::Sluggish, 5);
        let under = t.features.iter().filter(|f| f.speed_kmh < f.road_speed_kmh).count();
        assert!(under as f64 / t.features.len() as f64 > 0.8);
    }

    #[test]
    fn erratic_driver_has_violent_acceleration() {
        let (_, te) = trip(DriverProfile::Erratic, 6);
        let (_, tt) = trip(DriverProfile::Typical, 6);
        let max_abs = |t: &GeneratedTrip| {
            t.features.iter().map(|f| f.accel_mps2.abs()).fold(0.0f64, f64::max)
        };
        assert!(max_abs(&te) > 1.5 * max_abs(&tt), "erratic should out-accelerate typical");
    }

    #[test]
    fn mileage_accumulates_monotonically() {
        let (net, t) = trip(DriverProfile::Typical, 7);
        let points = t.points(&net);
        for w in points.windows(2) {
            assert!(w[1].ac_mileage_m >= w[0].ac_mileage_m);
        }
        assert!((t.record.mileage_m - points.last().unwrap().ac_mileage_m).abs() < 1e-9);
    }

    #[test]
    fn gps_noise_is_bounded() {
        let net = network();
        let gen = TripGenerator::new(&net).with_gps_noise(3.0);
        let mut rng = SimRng::seed_from(8);
        let route = gen.microscopic_route(&mut rng);
        let t = gen.generate_trip(
            &mut rng,
            VehicleId(1),
            TripId(1),
            DriverProfile::Typical,
            DayOfWeek::Monday,
            0.0,
            &route,
        );
        for (p, road_id) in t.points(&net).iter().zip(&t.true_roads()) {
            let road = net.road(*road_id).unwrap();
            assert!(road.distance_to(&p.position) < 60.0, "fix too far from its road");
        }
    }

    #[test]
    fn hour_feature_advances_across_hour_boundary() {
        let net = network();
        let gen = TripGenerator::new(&net);
        let mut rng = SimRng::seed_from(9);
        let route = gen.random_route(&mut rng, 4);
        // Start 30 s before 11:00.
        let t = gen.generate_trip(
            &mut rng,
            VehicleId(1),
            TripId(1),
            DriverProfile::Typical,
            DayOfWeek::Monday,
            10.0 * 3600.0 + 3570.0,
            &route,
        );
        let hours: std::collections::HashSet<u8> =
            t.features.iter().map(|f| f.hour.get()).collect();
        assert!(hours.contains(&11), "trip crosses into hour 11: {hours:?}");
    }

    #[test]
    fn random_route_respects_max() {
        let net = network();
        let gen = TripGenerator::new(&net);
        let mut rng = SimRng::seed_from(10);
        for _ in 0..20 {
            let r = gen.random_route(&mut rng, 3);
            assert!(!r.is_empty() && r.len() <= 3);
        }
    }
}
