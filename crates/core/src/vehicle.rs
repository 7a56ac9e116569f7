use cad3_types::{FeatureRecord, GeoPoint, SimTime, VehicleId, VehicleStatus};

/// A simulated connected vehicle: replays dataset records as 10 Hz status
/// packets, the role the paper's Kafka producers play on PC1.
///
/// # Example
///
/// ```
/// use cad3::VehicleAgent;
/// use cad3_data::{DatasetConfig, SyntheticDataset};
/// use cad3_types::{SimTime, VehicleId};
///
/// let ds = SyntheticDataset::generate(&DatasetConfig::small(2));
/// let mut agent = VehicleAgent::new(VehicleId(900), ds.features[..100].to_vec());
/// let s1 = agent.next_status(SimTime::ZERO);
/// let s2 = agent.next_status(SimTime::from_millis(100));
/// assert_eq!(s1.vehicle, VehicleId(900));
/// assert_eq!(s2.seq, s1.seq + 1);
/// ```
#[derive(Debug, Clone)]
pub struct VehicleAgent {
    id: VehicleId,
    records: Vec<FeatureRecord>,
    cursor: usize,
    seq: u32,
    position: GeoPoint,
}

impl VehicleAgent {
    /// Creates an agent streaming from a pool of records (cycled when
    /// exhausted).
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn new(id: VehicleId, records: Vec<FeatureRecord>) -> Self {
        assert!(!records.is_empty(), "vehicle agent needs at least one record");
        VehicleAgent { id, records, cursor: 0, seq: 0, position: crate::testbed::DEFAULT_POSITION }
    }

    /// The agent's vehicle id.
    pub fn id(&self) -> VehicleId {
        self.id
    }

    /// Number of status packets produced so far.
    pub fn sent(&self) -> u32 {
        self.seq
    }

    /// Produces the next status packet, stamped with `now`.
    ///
    /// The replayed record's vehicle id is overridden by the agent's own id
    /// so each agent streams under a distinct identity even when agents
    /// share a record pool.
    pub fn next_status(&mut self, now: SimTime) -> VehicleStatus {
        let rec = self.records[self.cursor % self.records.len()];
        self.cursor += 1;
        self.seq += 1;
        let rec = FeatureRecord { vehicle: self.id, ..rec };
        VehicleStatus::from_feature(&rec, self.position, now, self.seq)
    }

    /// [`VehicleAgent::next_status`], additionally minting a distributed
    /// trace for the emission when the head sampler elects it
    /// ([`cad3_obs::trace::mint`]). A sampled emission gets an
    /// instantaneous `vehicle.emit` root span at `now` attributed to
    /// `node` (the RSU the packet targets), and the returned context —
    /// parented under that root — rides the record through the pipeline.
    /// At the default 0 sampling rate this is one relaxed load and a
    /// branch on top of the untraced path.
    pub fn next_status_traced(
        &mut self,
        now: SimTime,
        node: u32,
    ) -> (VehicleStatus, Option<cad3_obs::TraceContext>) {
        let status = self.next_status(now);
        let ctx = cad3_obs::trace::mint().map(|ctx| {
            let root = cad3_obs::trace_span!(
                "vehicle.emit",
                &ctx,
                now.as_nanos(),
                now.as_nanos(),
                node,
                self.id.raw()
            );
            ctx.child(root)
        });
        (status, ctx)
    }

    /// Switches the replayed pool — the paper's handover emulation, where
    /// migrated producers "start reading from the motorway link
    /// subdataset". The sequence number keeps counting.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn switch_pool(&mut self, records: Vec<FeatureRecord>) {
        assert!(!records.is_empty(), "vehicle agent needs at least one record");
        self.records = records;
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad3_types::{DayOfWeek, HourOfDay, Label, RoadId, RoadType, TripId};

    fn rec(speed: f64) -> FeatureRecord {
        FeatureRecord {
            vehicle: VehicleId(1),
            trip: TripId(1),
            road: RoadId(1),
            accel_mps2: 0.0,
            speed_kmh: speed,
            hour: HourOfDay::new(9).unwrap(),
            day: DayOfWeek::Monday,
            road_type: RoadType::Motorway,
            road_speed_kmh: 100.0,
            label: Label::Normal,
        }
    }

    #[test]
    fn cycles_through_pool() {
        let mut agent = VehicleAgent::new(VehicleId(5), vec![rec(10.0), rec(20.0)]);
        let speeds: Vec<f64> =
            (0..5).map(|i| agent.next_status(SimTime::from_millis(i * 100)).speed_kmh).collect();
        assert_eq!(speeds, vec![10.0, 20.0, 10.0, 20.0, 10.0]);
        assert_eq!(agent.sent(), 5);
    }

    #[test]
    fn overrides_vehicle_identity() {
        let mut agent = VehicleAgent::new(VehicleId(42), vec![rec(10.0)]);
        let s = agent.next_status(SimTime::ZERO);
        assert_eq!(s.vehicle, VehicleId(42));
        assert_eq!(agent.id(), VehicleId(42));
    }

    #[test]
    fn stamps_send_time_and_sequence() {
        let mut agent = VehicleAgent::new(VehicleId(1), vec![rec(10.0)]);
        let s1 = agent.next_status(SimTime::from_millis(100));
        let s2 = agent.next_status(SimTime::from_millis(200));
        assert_eq!(s1.sent_at, SimTime::from_millis(100));
        assert_eq!(s2.sent_at, SimTime::from_millis(200));
        assert_eq!((s1.seq, s2.seq), (1, 2));
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_pool_panics() {
        VehicleAgent::new(VehicleId(1), Vec::new());
    }

    #[test]
    fn traced_status_mints_a_root_emit_span() {
        let _serial =
            crate::testutil::TRACE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut agent = VehicleAgent::new(VehicleId(77), vec![rec(10.0)]);
        // At the default 0 rate, emissions are never sampled.
        let (_, none) = agent.next_status_traced(SimTime::ZERO, 4);
        assert!(none.is_none());
        cad3_obs::trace::set_sample_rate(1.0);
        let (status, ctx) = agent.next_status_traced(SimTime::from_millis(100), 4);
        cad3_obs::trace::set_sample_rate(0.0);
        assert_eq!(status.vehicle, VehicleId(77));
        let ctx = ctx.expect("sampled at rate 1.0");
        let events: Vec<_> = cad3_obs::trace::sink()
            .drain()
            .into_iter()
            .filter(|e| e.trace_id == ctx.trace_id())
            .collect();
        assert_eq!(events.len(), 1);
        let root = &events[0];
        assert_eq!(root.name, "vehicle.emit");
        assert_eq!(root.node, 4, "attributed to the target RSU");
        assert_eq!(root.start_ns, SimTime::from_millis(100).as_nanos());
        assert_eq!(root.end_ns, root.start_ns, "emission is instantaneous");
        assert_eq!(ctx.parent_span(), root.span, "context continues under the root");
        assert_eq!(root.value, 77, "span value carries the vehicle id");
    }
}
