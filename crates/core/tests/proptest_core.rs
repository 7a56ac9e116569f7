//! Property-based tests of the core library's invariants: the Nilsson
//! accident model, Eq. 1 fusion and the collaboration tracker.

use cad3::accidents::{expected_potential_accidents, speed_deviation_delta, EvaluatedRecord};
use cad3::{SummaryTracker, VehicleSummary};
use cad3_types::{Label, RoadId, RsuId, SimTime, SummaryMessage, TraceLineage, VehicleId};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// The tracker as it was when its per-vehicle map was a `BTreeMap`: the
/// reference the hashed tracker must match summary for summary.
#[derive(Default)]
struct OrderedTracker {
    vehicles: BTreeMap<VehicleId, OrderedState>,
    road_depth: Option<usize>,
}

#[derive(Default)]
struct OrderedState {
    current_road: Option<RoadId>,
    road_sum: f64,
    road_count: u32,
    road_last_class: u8,
    history: VecDeque<(f64, u32)>,
    prev_last_class: u8,
    lineage: Option<TraceLineage>,
}

impl OrderedState {
    fn prev_totals(&self) -> (f64, u32) {
        self.history.iter().fold((0.0, 0), |(s, c), (hs, hc)| (s + hs, c + hc))
    }
}

impl OrderedTracker {
    fn observe(&mut self, vehicle: VehicleId, road: RoadId, p: f64) -> Option<VehicleSummary> {
        let depth = self.road_depth;
        let state = self.vehicles.entry(vehicle).or_default();
        if state.current_road != Some(road) {
            if state.current_road.is_some() && state.road_count > 0 {
                state.history.push_back((state.road_sum, state.road_count));
                if let Some(d) = depth {
                    while state.history.len() > d {
                        state.history.pop_front();
                    }
                }
                state.prev_last_class = state.road_last_class;
            }
            state.current_road = Some(road);
            state.road_sum = 0.0;
            state.road_count = 0;
        }
        let (prev_sum, prev_count) = state.prev_totals();
        let summary = (prev_count > 0).then(|| VehicleSummary {
            mean_probability: prev_sum / prev_count as f64,
            count: prev_count,
            last_class: state.prev_last_class,
        });
        state.road_sum += p;
        state.road_count += 1;
        state.road_last_class = u8::from(p < 0.5);
        summary
    }

    fn seed(&mut self, vehicle: VehicleId, summary: VehicleSummary) {
        let state = self.vehicles.entry(vehicle).or_default();
        state.history.clear();
        state.history.push_back((summary.mean_probability * summary.count as f64, summary.count));
        state.prev_last_class = summary.last_class;
    }

    fn export(&self, vehicle: VehicleId, from_rsu: RsuId, now: SimTime) -> Option<SummaryMessage> {
        let s = self.vehicles.get(&vehicle)?;
        let (prev_sum, prev_count) = s.prev_totals();
        let count = prev_count + s.road_count;
        if count == 0 {
            return None;
        }
        Some(SummaryMessage {
            vehicle,
            from_rsu,
            count,
            mean_probability: (prev_sum + s.road_sum) / count as f64,
            last_class: if s.road_count > 0 { s.road_last_class } else { s.prev_last_class },
            sent_at: now,
            trace: s.lineage,
        })
    }

    fn vehicles(&self) -> Vec<VehicleId> {
        self.vehicles.keys().copied().collect()
    }
}

/// A summary as bits, so `==` is bit-for-bit on the mean.
fn summary_bits(s: Option<VehicleSummary>) -> Option<(u64, u32, u8)> {
    s.map(|s| (s.mean_probability.to_bits(), s.count, s.last_class))
}

/// An exported message as bits.
fn message_bits(
    m: Option<SummaryMessage>,
) -> Option<(VehicleId, u64, u32, u8, Option<TraceLineage>)> {
    m.map(|m| (m.vehicle, m.mean_probability.to_bits(), m.count, m.last_class, m.trace))
}

proptest! {
    /// δ is always in [0, 1), zero exactly at the road speed, and monotone
    /// in the deviation on each side.
    #[test]
    fn delta_is_bounded_and_monotone(road in 10.0f64..200.0, dev in 0.0f64..150.0) {
        let fast = speed_deviation_delta(road + dev, road);
        let slow = speed_deviation_delta((road - dev).max(0.0), road);
        prop_assert!((0.0..1.0).contains(&fast));
        prop_assert!((0.0..1.0).contains(&slow));
        let fast2 = speed_deviation_delta(road + dev + 1.0, road);
        prop_assert!(fast2 >= fast, "speeding δ must grow with deviation");
        prop_assert_eq!(speed_deviation_delta(road, road), 0.0);
    }

    /// E(Λ) counts only false negatives and is additive.
    #[test]
    fn expected_accidents_additive(
        records in prop::collection::vec(
            (0usize..2, 0usize..2, 10.0f64..250.0, 20.0f64..150.0),
            0..200,
        )
    ) {
        let evaluated: Vec<EvaluatedRecord> = records
            .iter()
            .map(|(truth, pred, speed, road)| EvaluatedRecord {
                truth: if *truth == 0 { Label::Abnormal } else { Label::Normal },
                predicted: if *pred == 0 { Label::Abnormal } else { Label::Normal },
                speed_kmh: *speed,
                road_speed_kmh: *road,
            })
            .collect();
        let total = expected_potential_accidents(evaluated.iter());
        prop_assert!(total >= 0.0);
        let fns = evaluated.iter().filter(|r| r.is_false_negative()).count();
        prop_assert!(total <= fns as f64, "each FN contributes at most δ < 1");
        // Additivity over any split.
        let (a, b) = evaluated.split_at(evaluated.len() / 2);
        let parts = expected_potential_accidents(a.iter())
            + expected_potential_accidents(b.iter());
        prop_assert!((total - parts).abs() < 1e-9);
        // A perfect detector accrues zero.
        let perfect: Vec<EvaluatedRecord> = evaluated
            .iter()
            .map(|r| EvaluatedRecord { predicted: r.truth, ..*r })
            .collect();
        prop_assert_eq!(expected_potential_accidents(perfect.iter()), 0.0);
    }

    /// The tracker's exported mean is always the running average of the
    /// observed probabilities, per vehicle, regardless of interleaving.
    #[test]
    fn tracker_mean_is_running_average(
        obs in prop::collection::vec((0u64..4, 0u64..3, 0.0f64..1.0), 1..200)
    ) {
        let mut tracker = SummaryTracker::new();
        let mut sums: std::collections::HashMap<u64, (f64, u32)> = std::collections::HashMap::new();
        for (veh, road, p) in &obs {
            tracker.observe(VehicleId(*veh), RoadId(*road), *p);
            let e = sums.entry(*veh).or_insert((0.0, 0));
            e.0 += p;
            e.1 += 1;
        }
        for (veh, (sum, count)) in sums {
            let msg = tracker
                .export(VehicleId(veh), cad3_types::RsuId(1), cad3_types::SimTime::ZERO)
                .expect("observed vehicle exports");
            prop_assert_eq!(msg.count, count);
            prop_assert!((msg.mean_probability - sum / count as f64).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&msg.mean_probability));
        }
    }

    /// A summary returned by observe never includes the current record and
    /// only appears after a handover.
    #[test]
    fn summary_lags_by_at_least_one_road(
        roads in prop::collection::vec(0u64..3, 1..100)
    ) {
        let mut tracker = SummaryTracker::new();
        let v = VehicleId(1);
        let mut seen_roads: Vec<u64> = Vec::new();
        for (i, road) in roads.iter().enumerate() {
            let summary = tracker.observe(v, RoadId(*road), 0.5);
            let handovers = seen_roads.windows(2).filter(|w| w[0] != w[1]).count()
                + usize::from(seen_roads.last().is_some_and(|l| l != road));
            if handovers == 0 {
                prop_assert!(summary.is_none(), "no handover yet at step {}", i);
            }
            if let Some(s) = summary {
                prop_assert!(s.count as usize <= i, "summary cannot include current record");
            }
            seen_roads.push(*road);
        }
    }

    /// Seeding from a CO-DATA summary reproduces that summary on export.
    #[test]
    fn seed_round_trips(p in 0.0f64..1.0, count in 1u32..1000) {
        let mut tracker = SummaryTracker::new();
        let v = VehicleId(9);
        tracker.seed(v, VehicleSummary { mean_probability: p, count, last_class: 0 });
        let msg = tracker
            .export(v, cad3_types::RsuId(2), cad3_types::SimTime::ZERO)
            .expect("seeded vehicle exports");
        prop_assert_eq!(msg.count, count);
        prop_assert!((msg.mean_probability - p).abs() < 1e-9);
    }

    /// The hashed tracker is the ordered one: any sequence of `observe`,
    /// `seed`, `set_lineage`, `remove`, `export` and `vehicles` calls, with
    /// or without a road depth, returns the same summaries bit for bit, and
    /// `vehicles()` lists the same ids in the same (ascending) order.
    #[test]
    fn hashed_tracker_matches_the_ordered_model(
        ops in prop::collection::vec(
            (0u8..6, 0u64..12, 0u64..4, 0.0f64..1.0, 1u32..50, any::<u64>()),
            1..300,
        ),
        depth in 0usize..4,
    ) {
        let (mut tracker, road_depth) = match depth {
            0 => (SummaryTracker::new(), None),
            d => (SummaryTracker::with_road_depth(d), Some(d)),
        };
        let mut model = OrderedTracker { road_depth, ..OrderedTracker::default() };
        let now = SimTime::from_millis(5);
        for (op, veh, road, p, count, word) in ops {
            // Ids spread over the whole u64 range, as a fleet's would.
            let v = VehicleId(veh.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            match op {
                0 => prop_assert_eq!(
                    summary_bits(tracker.observe(v, RoadId(road), p)),
                    summary_bits(model.observe(v, RoadId(road), p))
                ),
                1 => {
                    let summary =
                        VehicleSummary { mean_probability: p, count, last_class: (word & 1) as u8 };
                    tracker.seed(v, summary);
                    model.seed(v, summary);
                }
                2 => {
                    let lineage =
                        TraceLineage { trace_id: word, parent_span: road, hop: (word >> 56) as u8 };
                    tracker.set_lineage(v, lineage);
                    model.vehicles.entry(v).or_default().lineage = Some(lineage);
                }
                3 => {
                    tracker.remove(v);
                    model.vehicles.remove(&v);
                }
                4 => prop_assert_eq!(
                    message_bits(tracker.export(v, RsuId(3), now)),
                    message_bits(model.export(v, RsuId(3), now))
                ),
                _ => prop_assert_eq!(tracker.vehicles(), model.vehicles()),
            }
            prop_assert_eq!(tracker.len(), model.vehicles.len());
        }
        prop_assert_eq!(tracker.vehicles(), model.vehicles());
        for v in model.vehicles() {
            prop_assert_eq!(
                message_bits(tracker.export(v, RsuId(3), now)),
                message_bits(model.export(v, RsuId(3), now))
            );
        }
    }
}
