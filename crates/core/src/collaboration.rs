use cad3_types::{IdBuildHasher, RoadId, RsuId, SimTime, SummaryMessage, TraceLineage, VehicleId};
use std::collections::HashMap;

/// Converts a live trace context into the wire-portable lineage a
/// `CO-DATA` summary carries across a handover.
pub fn lineage_of(ctx: &cad3_obs::TraceContext) -> TraceLineage {
    TraceLineage { trace_id: ctx.trace_id(), parent_span: ctx.parent_span(), hop: ctx.hop() }
}

/// Reconstitutes a trace context from a received lineage (always sampled:
/// lineage is only forwarded for records the head sampler elected).
pub fn lineage_context(lineage: &TraceLineage) -> cad3_obs::TraceContext {
    cad3_obs::TraceContext::from_parts(lineage.trace_id, lineage.parent_span, lineage.hop)
}

/// The collaborative context available for one vehicle: the aggregate of
/// its prediction probabilities on previously traversed roads — the
/// `P̄_prevs` term of the paper's Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleSummary {
    /// Mean predicted abnormal-probability over previous roads.
    pub mean_probability: f64,
    /// Number of predictions aggregated.
    pub count: u32,
    /// Last predicted class on the previous road (1 = normal, 0 = abnormal).
    pub last_class: u8,
}

impl VehicleSummary {
    /// Builds a summary from a received `CO-DATA` message.
    pub fn from_message(msg: &SummaryMessage) -> Self {
        VehicleSummary {
            mean_probability: msg.mean_probability,
            count: msg.count,
            last_class: msg.last_class,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct VehicleState {
    current_road: Option<RoadId>,
    road_sum: f64,
    road_count: u32,
    road_last_class: u8,
    /// The previous roads' `(sum, count)` folded together: updated at each
    /// handover and each `seed`, so a record reads it without a walk.
    prev_sum: f64,
    prev_count: u32,
    /// Under a road depth, the per-completed-road `(sum, count)` aggregates,
    /// oldest first and at most the depth long, that `prev_*` folds; empty
    /// (and unused) with unbounded history.
    history: std::collections::VecDeque<(f64, u32)>,
    prev_last_class: u8,
    /// Trace lineage of the vehicle's most recent *sampled* record, so an
    /// exported `CO-DATA` summary can link the next RSU's spans back to
    /// this RSU's trace.
    lineage: Option<TraceLineage>,
}

impl VehicleState {
    /// Re-folds `prev_*` from `history`, oldest road first from `0.0`.
    fn refold(&mut self) {
        (self.prev_sum, self.prev_count) =
            self.history.iter().fold((0.0, 0), |(s, c), (hs, hc)| (s + hs, c + hc));
    }
}

/// Tracks per-vehicle running prediction summaries and performs the
/// handover fold: when a vehicle moves to a new road, the predictions
/// accumulated on the finished road join the vehicle's historical summary,
/// which is what the previous RSU forwards to the next one (`CO-DATA`).
///
/// # Example
///
/// ```
/// use cad3::SummaryTracker;
/// use cad3_types::{RoadId, VehicleId};
///
/// let mut t = SummaryTracker::new();
/// let v = VehicleId(1);
/// // First road: no history yet.
/// assert!(t.observe(v, RoadId(10), 0.9).is_none());
/// assert!(t.observe(v, RoadId(10), 0.8).is_none());
/// // Handover to road 20: history now covers road 10.
/// let s = t.observe(v, RoadId(20), 0.1).unwrap();
/// assert!((s.mean_probability - 0.85).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SummaryTracker {
    // Looked up once a record by `observe`, so hashed, not ordered. The
    // hasher is keyed per process: only `vehicles()` walks the map, and it
    // sorts what it collects.
    vehicles: HashMap<VehicleId, VehicleState, IdBuildHasher>,
    /// How many previous *roads* of history to retain per vehicle;
    /// `None` keeps everything (the paper's behaviour).
    road_depth: Option<usize>,
}

impl SummaryTracker {
    /// Creates an empty tracker with unbounded history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker that remembers at most `depth` previous roads per
    /// vehicle — the summary-depth knob of the DESIGN.md ablation (older
    /// behaviour ages out, making the driver prior more reactive).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` (that would disable collaboration entirely;
    /// use a plain AD3 detector instead).
    pub fn with_road_depth(depth: usize) -> Self {
        assert!(depth > 0, "road depth must be at least one");
        SummaryTracker { vehicles: HashMap::default(), road_depth: Some(depth) }
    }

    /// Number of vehicles tracked.
    pub fn len(&self) -> usize {
        self.vehicles.len()
    }

    /// Whether no vehicles are tracked.
    pub fn is_empty(&self) -> bool {
        self.vehicles.is_empty()
    }

    /// Records a prediction (`p_abnormal`) for `vehicle` on `road` and
    /// returns the summary of *previous* roads applicable to this record
    /// (`None` while the vehicle is still on its first road), the
    /// `P̄_prevs` of the paper's Eq. 1.
    pub fn observe(
        &mut self,
        vehicle: VehicleId,
        road: RoadId,
        p_abnormal: f64,
    ) -> Option<VehicleSummary> {
        let depth = self.road_depth;
        let state = self.vehicles.entry(vehicle).or_default();
        if state.current_road != Some(road) {
            // Handover: fold the finished road into the history. Unbounded,
            // that is one add to the running totals — the adds a re-fold
            // would make, in the same order. Under a depth, the oldest road
            // beyond it ages out and the kept roads are re-folded.
            if state.current_road.is_some() && state.road_count > 0 {
                if let Some(d) = depth {
                    state.history.push_back((state.road_sum, state.road_count));
                    while state.history.len() > d {
                        state.history.pop_front();
                    }
                    state.refold();
                } else {
                    state.prev_sum += state.road_sum;
                    state.prev_count += state.road_count;
                }
                state.prev_last_class = state.road_last_class;
            }
            state.current_road = Some(road);
            state.road_sum = 0.0;
            state.road_count = 0;
        }
        let summary = (state.prev_count > 0).then(|| VehicleSummary {
            mean_probability: state.prev_sum / state.prev_count as f64,
            count: state.prev_count,
            last_class: state.prev_last_class,
        });
        state.road_sum += p_abnormal;
        state.road_count += 1;
        state.road_last_class = u8::from(p_abnormal < 0.5);
        summary
    }

    /// Injects an externally received summary (from a `CO-DATA` message)
    /// as the vehicle's history, as the motorway-link RSU does when the
    /// motorway RSU hands a vehicle over.
    ///
    /// It always overwrites, so a stale or reordered summary replaces a
    /// longer local history. A count alone cannot tell stale from fresh: a
    /// receiver that was seeded by one RSU and then observed roads itself
    /// can hold a larger count than a fresher summary from that RSU.
    /// Summaries need a sequence number first (ROADMAP item 2).
    pub fn seed(&mut self, vehicle: VehicleId, summary: VehicleSummary) {
        let state = self.vehicles.entry(vehicle).or_default();
        state.history.clear();
        let road = (summary.mean_probability * summary.count as f64, summary.count);
        if self.road_depth.is_some() {
            state.history.push_back(road);
        }
        // The fold of a one-road history, from `0.0` as `refold` starts.
        (state.prev_sum, state.prev_count) = (0.0 + road.0, road.1);
        state.prev_last_class = summary.last_class;
    }

    /// The current exportable summary for `vehicle` — what this RSU would
    /// write to the next RSU's `CO-DATA` on handover (includes the road in
    /// progress).
    pub fn export(
        &self,
        vehicle: VehicleId,
        from_rsu: RsuId,
        now: SimTime,
    ) -> Option<SummaryMessage> {
        let s = self.vehicles.get(&vehicle)?;
        let count = s.prev_count + s.road_count;
        if count == 0 {
            return None;
        }
        let mean = (s.prev_sum + s.road_sum) / count as f64;
        Some(SummaryMessage {
            vehicle,
            from_rsu,
            count,
            mean_probability: mean,
            last_class: if s.road_count > 0 { s.road_last_class } else { s.prev_last_class },
            sent_at: now,
            trace: s.lineage,
        })
    }

    /// Remembers the trace lineage of `vehicle`'s latest sampled record;
    /// the next [`SummaryTracker::export`] for the vehicle carries it.
    /// Untraced records (the default-sampling common case) don't call
    /// this, so the last sampled lineage sticks until the handover.
    pub fn set_lineage(&mut self, vehicle: VehicleId, lineage: TraceLineage) {
        self.vehicles.entry(vehicle).or_default().lineage = Some(lineage);
    }

    /// Forgets a vehicle (it left the deployment area).
    pub fn remove(&mut self, vehicle: VehicleId) {
        self.vehicles.remove(&vehicle);
    }

    /// The tracked vehicles, sorted by id.
    pub fn vehicles(&self) -> Vec<VehicleId> {
        // determinism-exempt(map-iter): the keys are sorted before they leave.
        let mut vehicles: Vec<VehicleId> = self.vehicles.keys().copied().collect();
        vehicles.sort_unstable();
        vehicles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: VehicleId = VehicleId(7);

    #[test]
    fn no_summary_on_first_road() {
        let mut t = SummaryTracker::new();
        assert!(t.observe(V, RoadId(1), 0.9).is_none());
        assert!(t.observe(V, RoadId(1), 0.9).is_none());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn handover_folds_previous_road() {
        let mut t = SummaryTracker::new();
        t.observe(V, RoadId(1), 0.8);
        t.observe(V, RoadId(1), 0.6);
        let s = t.observe(V, RoadId(2), 0.1).unwrap();
        assert!((s.mean_probability - 0.7).abs() < 1e-12);
        assert_eq!(s.count, 2);
        assert_eq!(s.last_class, 0, "0.6 >= 0.5 counts as abnormal class 0");
    }

    #[test]
    fn history_accumulates_across_multiple_roads() {
        let mut t = SummaryTracker::new();
        t.observe(V, RoadId(1), 1.0);
        t.observe(V, RoadId(2), 0.0); // folds road 1 (mean 1.0, n=1)
        let s = t.observe(V, RoadId(3), 0.5).unwrap(); // folds road 2
        assert!((s.mean_probability - 0.5).abs() < 1e-12); // (1.0 + 0.0)/2
        assert_eq!(s.count, 2);
    }

    #[test]
    fn road_depth_ages_out_old_roads() {
        let mut deep = SummaryTracker::new();
        let mut shallow = SummaryTracker::with_road_depth(1);
        // Road 1: consistently abnormal; road 2: consistently normal.
        for t in [&mut deep, &mut shallow] {
            t.observe(V, RoadId(1), 1.0);
            t.observe(V, RoadId(1), 1.0);
            t.observe(V, RoadId(2), 0.0);
            t.observe(V, RoadId(2), 0.0);
        }
        // On road 3, the unbounded tracker averages both roads; the
        // depth-1 tracker remembers only road 2.
        let s_deep = deep.observe(V, RoadId(3), 0.5).unwrap();
        let s_shallow = shallow.observe(V, RoadId(3), 0.5).unwrap();
        assert!((s_deep.mean_probability - 0.5).abs() < 1e-12);
        assert_eq!(s_deep.count, 4);
        assert!((s_shallow.mean_probability - 0.0).abs() < 1e-12);
        assert_eq!(s_shallow.count, 2);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_depth_panics() {
        SummaryTracker::with_road_depth(0);
    }

    #[test]
    fn seed_from_co_data_message() {
        let mut t = SummaryTracker::new();
        t.seed(V, VehicleSummary { mean_probability: 0.9, count: 10, last_class: 0 });
        let s = t.observe(V, RoadId(5), 0.2).unwrap();
        assert!((s.mean_probability - 0.9).abs() < 1e-12);
        assert_eq!(s.count, 10);
    }

    #[test]
    fn export_includes_road_in_progress() {
        let mut t = SummaryTracker::new();
        t.observe(V, RoadId(1), 0.4);
        t.observe(V, RoadId(1), 0.6);
        let msg = t.export(V, RsuId(3), SimTime::from_millis(5)).unwrap();
        assert!((msg.mean_probability - 0.5).abs() < 1e-12);
        assert_eq!(msg.count, 2);
        assert_eq!(msg.from_rsu, RsuId(3));
        // Round-trips into a summary.
        let s = VehicleSummary::from_message(&msg);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn export_carries_last_sampled_lineage() {
        let mut t = SummaryTracker::new();
        t.observe(V, RoadId(1), 0.4);
        assert_eq!(t.export(V, RsuId(1), SimTime::ZERO).unwrap().trace, None);
        let ctx = cad3_obs::TraceContext::from_parts(31, 7, 2);
        t.set_lineage(V, lineage_of(&ctx));
        let msg = t.export(V, RsuId(1), SimTime::ZERO).unwrap();
        let lineage = msg.trace.unwrap();
        assert_eq!((lineage.trace_id, lineage.parent_span, lineage.hop), (31, 7, 2));
        // Round-trips into a live context for the receiving RSU.
        let revived = lineage_context(&lineage);
        assert_eq!(revived.trace_id(), 31);
        assert_eq!(revived.parent_span(), 7);
        assert_eq!(revived.hop(), 2);
        assert!(revived.sampled());
    }

    #[test]
    fn export_unknown_vehicle_is_none() {
        let t = SummaryTracker::new();
        assert!(t.export(V, RsuId(1), SimTime::ZERO).is_none());
    }

    #[test]
    fn remove_forgets() {
        let mut t = SummaryTracker::new();
        t.observe(V, RoadId(1), 0.5);
        t.remove(V);
        assert!(t.is_empty());
        assert!(t.observe(V, RoadId(2), 0.5).is_none(), "history gone");
    }
}
