use crate::RoadNetwork;
use cad3_types::{RoadId, TrajectoryPoint};

/// A hidden-Markov-model map matcher in the spirit of Newson–Krumm (the
/// algorithm the paper cites for mapping trajectories onto the Shenzhen
/// road network).
///
/// States are candidate roads near each fix; emission likelihood is a
/// Gaussian on the fix-to-road distance; transitions favour staying on the
/// same road and following known junctions. Decoding is exact Viterbi.
///
/// # Example
///
/// ```
/// use cad3_data::{HmmMapMatcher, RoadNetwork, RoadNetworkConfig, TripGenerator};
/// use cad3_sim::SimRng;
/// use cad3_types::{DayOfWeek, DriverProfile, TripId, VehicleId};
///
/// let net = RoadNetwork::generate(&RoadNetworkConfig::scaled(3, 0.02));
/// let gen = TripGenerator::new(&net);
/// let mut rng = SimRng::seed_from(1);
/// let route = gen.microscopic_route(&mut rng);
/// let trip = gen.generate_trip(&mut rng, VehicleId(1), TripId(1),
///     DriverProfile::Typical, DayOfWeek::Monday, 0.0, &route);
///
/// let matcher = HmmMapMatcher::new(&net);
/// let points = trip.points(&net);
/// let matched = matcher.match_trajectory(&points);
/// assert_eq!(matched.len(), points.len());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HmmMapMatcher<'a> {
    network: &'a RoadNetwork,
    /// Emission sigma: expected GPS error, metres.
    gps_sigma_m: f64,
    /// Candidate search radius, metres.
    candidate_radius_m: f64,
    /// Log-penalty for switching roads without a junction.
    switch_penalty: f64,
    /// Log-penalty for switching roads across a junction.
    junction_penalty: f64,
}

impl<'a> HmmMapMatcher<'a> {
    /// Creates a matcher with defaults suited to ~5 m GPS noise.
    pub fn new(network: &'a RoadNetwork) -> Self {
        HmmMapMatcher {
            network,
            gps_sigma_m: 10.0,
            candidate_radius_m: 150.0,
            switch_penalty: 12.0,
            junction_penalty: 2.0,
        }
    }

    /// Overrides the expected GPS noise (emission sigma).
    pub fn with_gps_sigma(mut self, sigma_m: f64) -> Self {
        self.gps_sigma_m = sigma_m;
        self
    }

    fn emission_logp(&self, dist_m: f64) -> f64 {
        -0.5 * (dist_m / self.gps_sigma_m).powi(2)
    }

    fn transition_logp(&self, from: RoadId, to: RoadId) -> f64 {
        if from == to {
            0.0
        } else if self.network.links_of(from).contains(&to)
            || self.network.links_of(to).contains(&from)
        {
            -self.junction_penalty
        } else {
            -self.switch_penalty
        }
    }

    /// Matches each fix to a road by Viterbi decoding.
    ///
    /// Fixes with no candidate road within the search radius reuse the
    /// nearest road in the whole network (GPS outliers far from any road).
    /// Returns one road per input point; empty input yields empty output.
    pub fn match_trajectory(&self, points: &[TrajectoryPoint]) -> Vec<RoadId> {
        if points.is_empty() {
            return Vec::new();
        }
        // Candidate sets per point.
        let candidates: Vec<Vec<(RoadId, f64)>> = points
            .iter()
            .map(|p| {
                let mut c: Vec<(RoadId, f64)> = self
                    .network
                    .roads_near(&p.position, self.candidate_radius_m)
                    .into_iter()
                    .map(|id| {
                        let d =
                            self.network.road(id).expect("road exists").distance_to(&p.position);
                        (id, d)
                    })
                    .collect();
                if c.is_empty() {
                    // Fall back to the globally nearest road.
                    if let Some(best) = self
                        .network
                        .iter()
                        .map(|r| (r.id, r.distance_to(&p.position)))
                        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are not NaN"))
                    {
                        c.push(best);
                    }
                }
                c.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are not NaN"));
                c.truncate(8);
                c
            })
            .collect();

        // Viterbi.
        let mut scores: Vec<f64> =
            candidates[0].iter().map(|(_, d)| self.emission_logp(*d)).collect();
        let mut backptr: Vec<Vec<usize>> = Vec::with_capacity(points.len());
        backptr.push(vec![0; candidates[0].len()]);

        for t in 1..points.len() {
            let mut new_scores = Vec::with_capacity(candidates[t].len());
            let mut new_back = Vec::with_capacity(candidates[t].len());
            for (to_road, d) in &candidates[t] {
                let (best_prev, best_score) = candidates[t - 1]
                    .iter()
                    .enumerate()
                    .map(|(j, (from_road, _))| {
                        (j, scores[j] + self.transition_logp(*from_road, *to_road))
                    })
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("scores are not NaN"))
                    .expect("candidate set non-empty");
                new_scores.push(best_score + self.emission_logp(*d));
                new_back.push(best_prev);
            }
            scores = new_scores;
            backptr.push(new_back);
        }

        // Back-trace.
        let mut idx = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are not NaN"))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut out = vec![RoadId(0); points.len()];
        for t in (0..points.len()).rev() {
            out[t] = candidates[t][idx].0;
            idx = backptr[t][idx];
        }
        out
    }

    /// Fraction of points matched to their true road — used to validate the
    /// matcher against generated ground truth.
    pub fn accuracy(&self, points: &[TrajectoryPoint], truth: &[RoadId]) -> f64 {
        assert_eq!(points.len(), truth.len(), "truth must align with points");
        if points.is_empty() {
            return 1.0;
        }
        let matched = self.match_trajectory(points);
        let correct = matched.iter().zip(truth).filter(|(a, b)| a == b).count();
        correct as f64 / points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoadNetworkConfig, TripGenerator};
    use cad3_sim::SimRng;
    use cad3_types::{DayOfWeek, DriverProfile, TripId, VehicleId};

    fn setup(seed: u64, noise: f64) -> (RoadNetwork, Vec<TrajectoryPoint>, Vec<RoadId>) {
        let net = RoadNetwork::generate(&RoadNetworkConfig::scaled(3, 0.02));
        let gen = TripGenerator::new(&net).with_gps_noise(noise);
        let mut rng = SimRng::seed_from(seed);
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
        (net, points, true_roads)
    }

    #[test]
    fn clean_gps_matches_nearly_perfectly() {
        let (net, points, truth) = setup(1, 0.5);
        let matcher = HmmMapMatcher::new(&net);
        let acc = matcher.accuracy(&points, &truth);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn noisy_gps_still_matches_well() {
        let (net, points, truth) = setup(2, 8.0);
        let matcher = HmmMapMatcher::new(&net);
        let acc = matcher.accuracy(&points, &truth);
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn output_length_matches_input() {
        let (net, points, _) = setup(3, 5.0);
        let matcher = HmmMapMatcher::new(&net);
        assert_eq!(matcher.match_trajectory(&points).len(), points.len());
        assert!(matcher.match_trajectory(&[]).is_empty());
    }

    #[test]
    fn viterbi_is_smoother_than_nearest_road() {
        // Count road switches: HMM output should not flap between parallel
        // roads the way per-point nearest matching can.
        let (net, points, truth) = setup(4, 8.0);
        let matcher = HmmMapMatcher::new(&net);
        let matched = matcher.match_trajectory(&points);
        let switches = matched.windows(2).filter(|w| w[0] != w[1]).count();
        let true_switches = truth.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches <= true_switches + 4,
            "matched switches {switches} vs true {true_switches}"
        );
    }

    #[test]
    fn junction_transition_is_cheaper_than_jump() {
        let (net, _, _) = setup(5, 5.0);
        let matcher = HmmMapMatcher::new(&net);
        let (parent, link) = net.junctions()[0];
        let other = net
            .iter()
            .map(|r| r.id)
            .find(|id| *id != parent && *id != link && !net.links_of(parent).contains(id))
            .unwrap();
        assert!(matcher.transition_logp(parent, link) > matcher.transition_logp(parent, other));
        assert_eq!(matcher.transition_logp(parent, parent), 0.0);
    }
}
