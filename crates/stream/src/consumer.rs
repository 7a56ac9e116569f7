use crate::sync::Arc;
use crate::{Broker, FetchedRecord, SharedTopic, StreamError, TopicName};
use std::collections::HashMap;

/// Where a consumer starts when no committed offset exists for a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OffsetReset {
    /// Start from the earliest retained record.
    #[default]
    Earliest,
    /// Start from the log end (only new records).
    Latest,
}

/// A group consumer: joins a consumer group on one broker, receives a range
/// assignment of partitions and polls them in order.
///
/// In the reproduction, each RSU's detection pipeline is a consumer group on
/// `IN-DATA`/`CO-DATA`, and each vehicle is a single-member group on
/// `OUT-DATA` (every vehicle must see every warning).
///
/// The consumer caches a [`SharedTopic`] handle per assigned topic
/// (refreshed on rebalance), so the steady-state poll touches only the
/// fetched partitions' mutexes — no registry lock, no name hashing and no
/// per-record allocation.
#[derive(Debug)]
pub struct Consumer {
    broker: Arc<Broker>,
    group: String,
    member: u64,
    reset: OffsetReset,
    subscribed: bool,
    seen_generation: u64,
    assignments: Vec<(TopicName, u32)>,
    positions: HashMap<(TopicName, u32), u64>,
    handles: HashMap<TopicName, Arc<SharedTopic>>,
    /// The `stream.consumer.lag.<group>` gauge, resolved once at
    /// construction so the per-poll publish is a single atomic store —
    /// no name formatting and no registry lock on the poll path.
    lag_gauge: cad3_obs::Handle<cad3_obs::Gauge>,
}

impl Consumer {
    /// Creates a consumer in `group` on `broker`.
    pub fn new(broker: Arc<Broker>, group: impl Into<String>, reset: OffsetReset) -> Self {
        let member = broker.allocate_member_id();
        let group = group.into();
        let lag_gauge = cad3_obs::registry().gauge(&format!("stream.consumer.lag.{group}"));
        Consumer {
            broker,
            group,
            member,
            reset,
            subscribed: false,
            seen_generation: 0,
            assignments: Vec::new(),
            positions: HashMap::new(),
            handles: HashMap::new(),
            lag_gauge,
        }
    }

    /// This consumer's broker-unique member id.
    pub fn member_id(&self) -> u64 {
        self.member
    }

    /// Subscribes to a set of topics, (re)joining the group.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if any topic does not exist.
    pub fn subscribe(&mut self, topics: &[&str]) -> Result<(), StreamError> {
        for t in topics {
            // Validate eagerly so misconfiguration fails loudly.
            self.broker.partition_count(t)?;
        }
        self.broker.join_group(
            &self.group,
            self.member,
            topics.iter().map(|s| s.to_string()).collect(),
        );
        self.subscribed = true;
        self.refresh_assignments();
        Ok(())
    }

    fn refresh_assignments(&mut self) {
        self.seen_generation = self.broker.group_generation(&self.group);
        self.assignments = self.broker.assignments(&self.group, self.member);
        for (topic, partition) in &self.assignments {
            if !self.handles.contains_key(topic) {
                if let Ok(handle) = self.broker.topic_handle(topic) {
                    self.handles.insert(TopicName::clone(topic), handle);
                }
            }
            let key = (TopicName::clone(topic), *partition);
            if self.positions.contains_key(&key) {
                continue;
            }
            let start =
                self.broker.committed_offset(&self.group, topic, *partition).unwrap_or_else(|| {
                    self.handles
                        .get(topic)
                        .map(|h| match self.reset {
                            OffsetReset::Earliest => h.earliest_offset(*partition).unwrap_or(0),
                            OffsetReset::Latest => h.end_offset(*partition).unwrap_or(0),
                        })
                        .unwrap_or(0)
                });
            self.positions.insert(key, start);
        }
    }

    /// The partitions currently assigned to this consumer.
    pub fn assignments(&mut self) -> &[(TopicName, u32)] {
        if self.broker.group_generation(&self.group) != self.seen_generation {
            self.refresh_assignments();
        }
        &self.assignments
    }

    /// Polls up to `max_records` across the assigned partitions, advancing
    /// the consumer's in-memory positions.
    ///
    /// Records come back partition by partition, in assignment order and
    /// offset order within a partition; partitions with nothing to fetch
    /// contribute nothing.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NotSubscribed`] before [`Consumer::subscribe`]
    /// and propagates fetch errors.
    pub fn poll(&mut self, max_records: usize) -> Result<Vec<FetchedRecord>, StreamError> {
        if !self.subscribed {
            return Err(StreamError::NotSubscribed);
        }
        if self.broker.group_generation(&self.group) != self.seen_generation {
            self.refresh_assignments();
        }
        let mut out: Vec<FetchedRecord> = Vec::new();
        for idx in 0..self.assignments.len() {
            if out.len() >= max_records {
                break;
            }
            let (topic, partition) = {
                // hotpath-exempt(panic): idx ranges over 0..assignments.len() and
                // assignments is not mutated inside the loop.
                let (t, p) = &self.assignments[idx];
                (TopicName::clone(t), *p)
            };
            let Some(handle) = self.handles.get(&topic) else {
                // `refresh_assignments` caches a handle for every assigned
                // topic; a miss means the topic is gone from the registry.
                return Err(StreamError::UnknownTopic(topic.to_string()));
            };
            let pos =
                self.positions.get(&(TopicName::clone(&topic), partition)).copied().unwrap_or(0);
            let batch = match handle.fetch(partition, pos, max_records - out.len()) {
                Ok(b) => b,
                Err(StreamError::OffsetOutOfRange { earliest, .. }) => {
                    // Retention overtook us; resume from the horizon.
                    self.positions.insert((TopicName::clone(&topic), partition), earliest);
                    handle.fetch(partition, earliest, max_records - out.len())?
                }
                Err(e) => return Err(e),
            };
            let Some(last) = batch.last() else { continue };
            self.positions.insert((TopicName::clone(&topic), partition), last.offset + 1);
            out.extend(batch.into_iter().map(|r| FetchedRecord {
                topic: TopicName::clone(&topic),
                partition,
                offset: r.offset,
                key: r.key,
                value: r.value,
                timestamp: r.timestamp,
                trace: r.trace,
            }));
        }
        if cad3_obs::enabled() {
            cad3_obs::counter!("stream.consumer.polls").inc();
            cad3_obs::counter!("stream.consumer.records").add(cad3_types::len_u64(out.len()));
            self.publish_lag_gauge();
        }
        Ok(out)
    }

    /// Commits the current positions to the group.
    pub fn commit(&self) {
        for ((topic, partition), offset) in &self.positions {
            self.broker.commit_offset_at(&self.group, topic, *partition, *offset);
        }
        self.publish_lag_gauge();
    }

    /// Refreshes the `stream.consumer.lag.<group>` gauge from the broker's
    /// committed-vs-head [`Broker::group_lag`]. Exporter-gated: with no
    /// exporter attached this is one relaxed load.
    fn publish_lag_gauge(&self) {
        if !cad3_obs::enabled() {
            return;
        }
        self.lag_gauge.set(self.broker.group_lag(&self.group));
    }

    /// Seeks every assigned partition to the log end (skip history).
    pub fn seek_to_end(&mut self) {
        for (topic, partition) in &self.assignments {
            if let Some(end) = self.handles.get(topic).and_then(|h| h.end_offset(*partition).ok()) {
                self.positions.insert((TopicName::clone(topic), *partition), end);
            }
        }
    }

    /// Seeks every assigned partition to the earliest retained offset.
    pub fn seek_to_beginning(&mut self) {
        for (topic, partition) in &self.assignments {
            if let Some(earliest) =
                self.handles.get(topic).and_then(|h| h.earliest_offset(*partition).ok())
            {
                self.positions.insert((TopicName::clone(topic), *partition), earliest);
            }
        }
    }

    /// Total records between this consumer's positions and the log ends of
    /// its assigned partitions — the lag a monitoring stack would alert on
    /// when an RSU falls behind its vehicles.
    pub fn lag(&mut self) -> u64 {
        if self.broker.group_generation(&self.group) != self.seen_generation {
            self.refresh_assignments();
        }
        self.assignments
            .iter()
            .map(|(topic, partition)| {
                let end = self
                    .handles
                    .get(topic)
                    .and_then(|h| h.end_offset(*partition).ok())
                    .unwrap_or(0);
                let pos = self
                    .positions
                    .get(&(TopicName::clone(topic), *partition))
                    .copied()
                    .unwrap_or(0);
                end.saturating_sub(pos)
            })
            .sum()
    }

    /// Leaves the group explicitly (also done on drop).
    pub fn unsubscribe(&mut self) {
        if self.subscribed {
            self.broker.leave_group(&self.group, self.member);
            self.subscribed = false;
            self.assignments.clear();
        }
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        self.unsubscribe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Producer;
    use bytes::Bytes;

    fn setup() -> (Arc<Broker>, Producer) {
        let broker = Arc::new(Broker::new("rsu"));
        broker.create_topic("IN-DATA", 3).unwrap();
        let producer = Producer::new(Arc::clone(&broker));
        (broker, producer)
    }

    #[test]
    fn trace_header_survives_produce_and_poll() {
        use cad3_obs::TraceContext;
        let (broker, producer) = setup();
        // Mix traced, untraced and hopped records.
        let ctx = TraceContext::from_parts(77, 5, 1);
        producer.send_traced("IN-DATA", Some(b"veh-1"), &b"a"[..], 0, Some(ctx)).unwrap();
        producer.send("IN-DATA", Some(b"veh-2"), &b"b"[..], 1).unwrap();
        producer
            .send_traced("IN-DATA", Some(b"veh-3"), &b"c"[..], 2, Some(ctx.next_hop(9)))
            .unwrap();
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        let mut recs = c.poll(100).unwrap();
        recs.sort_by_key(|r| r.timestamp);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].trace, Some(ctx));
        assert_eq!(recs[1].trace, None, "untraced records carry no header");
        let hopped = recs[2].trace.expect("hopped trace survives poll");
        assert_eq!((hopped.trace_id(), hopped.parent_span(), hopped.hop()), (77, 9, 2));
    }

    #[test]
    fn poll_before_subscribe_errors() {
        let (broker, _) = setup();
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        assert_eq!(c.poll(10).unwrap_err(), StreamError::NotSubscribed);
    }

    #[test]
    fn earliest_reset_sees_history() {
        let (broker, producer) = setup();
        for i in 0..10u64 {
            producer.send("IN-DATA", Some(format!("v{i}").as_bytes()), &b"x"[..], i).unwrap();
        }
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        let recs = c.poll(100).unwrap();
        assert_eq!(recs.len(), 10);
    }

    #[test]
    fn latest_reset_sees_only_new() {
        let (broker, producer) = setup();
        producer.send("IN-DATA", None, &b"old"[..], 0).unwrap();
        let mut c = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Latest);
        c.subscribe(&["IN-DATA"]).unwrap();
        assert!(c.poll(100).unwrap().is_empty());
        producer.send("IN-DATA", None, &b"new"[..], 1).unwrap();
        let recs = c.poll(100).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(&recs[0].value[..], b"new");
    }

    #[test]
    fn poll_advances_without_duplicates() {
        let (broker, producer) = setup();
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        for i in 0..5u64 {
            producer.send("IN-DATA", None, Bytes::from(i.to_string()), i).unwrap();
        }
        let first = c.poll(100).unwrap();
        let second = c.poll(100).unwrap();
        assert_eq!(first.len(), 5);
        assert!(second.is_empty(), "no duplicates on re-poll");
    }

    #[test]
    fn poll_returns_each_partition_once_in_offset_order() {
        let (broker, producer) = setup();
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        for i in 0..60u64 {
            producer.send("IN-DATA", Some(format!("veh-{i}").as_bytes()), &b"x"[..], i).unwrap();
        }
        let recs = c.poll(1000).unwrap();
        assert_eq!(recs.len(), 60);
        let runs: Vec<&[FetchedRecord]> =
            recs.chunk_by(|a, b| a.partition == b.partition).collect();
        assert_eq!(runs.len(), 3, "60 spread keys fill all 3 partitions");
        let mut seen_partitions = Vec::new();
        for run in &runs {
            seen_partitions.push(run[0].partition);
            for (i, r) in run.iter().enumerate() {
                assert_eq!(r.offset, cad3_types::len_u64(i), "offsets dense within a partition");
                assert_eq!(&*r.topic, "IN-DATA");
            }
        }
        seen_partitions.sort_unstable();
        seen_partitions.dedup();
        assert_eq!(seen_partitions.len(), runs.len(), "each partition appears once");
        // Nothing left after a full drain.
        assert!(c.poll(1000).unwrap().is_empty());
    }

    #[test]
    fn per_vehicle_order_is_preserved() {
        let (broker, producer) = setup();
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        for i in 0..20u64 {
            producer.send("IN-DATA", Some(b"veh-9"), Bytes::from(i.to_string()), i).unwrap();
        }
        let recs = c.poll(100).unwrap();
        let values: Vec<u64> =
            recs.iter().map(|r| String::from_utf8_lossy(&r.value).parse().unwrap()).collect();
        assert_eq!(values, (0..20).collect::<Vec<_>>(), "keyed records arrive in order");
    }

    #[test]
    fn two_members_split_partitions_and_cover_all_records() {
        let (broker, producer) = setup();
        let mut c1 = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        let mut c2 = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        c1.subscribe(&["IN-DATA"]).unwrap();
        c2.subscribe(&["IN-DATA"]).unwrap();
        for i in 0..60u64 {
            producer.send("IN-DATA", Some(format!("veh-{i}").as_bytes()), &b"x"[..], i).unwrap();
        }
        let r1 = c1.poll(1000).unwrap();
        let r2 = c2.poll(1000).unwrap();
        assert_eq!(r1.len() + r2.len(), 60, "each record consumed exactly once");
        assert!(!r1.is_empty() && !r2.is_empty());
        let p1: std::collections::HashSet<u32> = r1.iter().map(|r| r.partition).collect();
        let p2: std::collections::HashSet<u32> = r2.iter().map(|r| r.partition).collect();
        assert!(p1.is_disjoint(&p2));
    }

    #[test]
    fn rebalance_on_member_departure() {
        let (broker, producer) = setup();
        let mut c1 = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        let mut c2 = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        c1.subscribe(&["IN-DATA"]).unwrap();
        c2.subscribe(&["IN-DATA"]).unwrap();
        assert!(c1.assignments().len() < 3);
        drop(c2);
        assert_eq!(c1.assignments().len(), 3, "survivor owns all partitions");
        producer.send("IN-DATA", Some(b"any"), &b"x"[..], 0).unwrap();
        assert_eq!(c1.poll(10).unwrap().len(), 1);
    }

    #[test]
    fn committed_offsets_resume_new_member() {
        let (broker, producer) = setup();
        for i in 0..10u64 {
            producer.send("IN-DATA", None, &b"x"[..], i).unwrap();
        }
        {
            let mut c = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
            c.subscribe(&["IN-DATA"]).unwrap();
            assert_eq!(c.poll(1000).unwrap().len(), 10);
            c.commit();
        }
        // A fresh member of the same group resumes after the commit.
        let mut c = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        assert!(c.poll(1000).unwrap().is_empty());
        producer.send("IN-DATA", None, &b"new"[..], 99).unwrap();
        assert_eq!(c.poll(1000).unwrap().len(), 1);
    }

    #[test]
    fn seek_to_end_skips_history() {
        let (broker, producer) = setup();
        for i in 0..5u64 {
            producer.send("IN-DATA", None, &b"x"[..], i).unwrap();
        }
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        c.seek_to_end();
        assert!(c.poll(100).unwrap().is_empty());
        c.seek_to_beginning();
        assert_eq!(c.poll(100).unwrap().len(), 5);
    }

    #[test]
    fn lag_tracks_unconsumed_records() {
        let (broker, producer) = setup();
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        assert_eq!(c.lag(), 0);
        for i in 0..7u64 {
            producer.send("IN-DATA", Some(format!("v{i}").as_bytes()), &b"x"[..], i).unwrap();
        }
        assert_eq!(c.lag(), 7);
        c.poll(3).unwrap();
        assert_eq!(c.lag(), 4);
        c.poll(100).unwrap();
        assert_eq!(c.lag(), 0);
    }

    #[test]
    fn same_group_consumers_share_one_lag_gauge_cell() {
        let (broker, _) = setup();
        let a = Consumer::new(Arc::clone(&broker), "dedupe-group", OffsetReset::Earliest);
        let b = Consumer::new(Arc::clone(&broker), "dedupe-group", OffsetReset::Earliest);
        assert!(
            cad3_obs::Handle::ptr_eq(&a.lag_gauge, &b.lag_gauge),
            "repeated registration of one group must dedupe onto one cell"
        );
        let other = Consumer::new(broker, "dedupe-other", OffsetReset::Earliest);
        assert!(!cad3_obs::Handle::ptr_eq(&a.lag_gauge, &other.lag_gauge));
    }

    #[test]
    fn subscribe_to_missing_topic_fails() {
        let (broker, _) = setup();
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        assert!(matches!(c.subscribe(&["NOPE"]), Err(StreamError::UnknownTopic(_))));
    }
}
