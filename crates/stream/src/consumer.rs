use crate::sync::Arc;
use crate::{Broker, FetchedRecord, RecordView, SharedTopic, StreamError};
use cad3_types::len_u64;

/// Where a consumer starts reading a partition it subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OffsetReset {
    /// Start from the earliest retained record.
    #[default]
    Earliest,
    /// Start from the log end (only new records).
    Latest,
}

/// An independent reader: a position in every partition of the topics it
/// subscribes to, advanced by [`Consumer::poll_each`] (and [`Consumer::poll`],
/// which collects what it visits) and moved by the seeks.
///
/// In the reproduction, each RSU's detection pipeline reads `IN-DATA` and
/// `CO-DATA` through its own consumers, and each vehicle reads `OUT-DATA`
/// through one of its own (every vehicle must see every warning). Two
/// consumers never share positions, so each sees every record.
///
/// A cursor holds its topic's [`SharedTopic`] handle, so a poll touches
/// only the fetched partitions' mutexes — no registry lock, no name lookup
/// and no per-record allocation.
pub struct Consumer {
    broker: Arc<Broker>,
    /// A label for `Debug` output; it names no shared state.
    name: String,
    reset: OffsetReset,
    subscribed: bool,
    /// Every partition of every subscribed topic, in subscribe order and
    /// then partition order — the order [`Consumer::poll_each`] reads them in.
    cursors: Vec<Cursor>,
}

/// One partition a [`Consumer`] reads and the next offset it will fetch.
struct Cursor {
    topic: Arc<SharedTopic>,
    partition: u32,
    position: u64,
}

impl std::fmt::Debug for Consumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let positions: Vec<_> =
            self.cursors.iter().map(|c| (c.topic.name(), c.partition, c.position)).collect();
        f.debug_struct("Consumer")
            .field("name", &self.name)
            .field("positions", &positions)
            .finish_non_exhaustive()
    }
}

impl Consumer {
    /// Creates a consumer on `broker`; `name` only labels it in `Debug`
    /// output.
    pub fn new(broker: Arc<Broker>, name: impl Into<String>, reset: OffsetReset) -> Self {
        Consumer { broker, name: name.into(), reset, subscribed: false, cursors: Vec::new() }
    }

    /// Subscribes to a set of topics, replacing any previous subscription.
    /// A partition this consumer already reads keeps its position; a new one
    /// starts where the [`OffsetReset`] says.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if any topic does not exist;
    /// the previous subscription then stays in place.
    pub fn subscribe(&mut self, topics: &[&str]) -> Result<(), StreamError> {
        let mut cursors: Vec<Cursor> = Vec::new();
        for name in topics {
            let topic = self.broker.topic_handle(name)?;
            if cursors.iter().any(|c| Arc::ptr_eq(&c.topic, &topic)) {
                continue; // listed twice
            }
            for partition in 0..topic.partition_count() {
                let kept = self
                    .cursors
                    .iter()
                    .find(|c| Arc::ptr_eq(&c.topic, &topic) && c.partition == partition);
                let position = match (kept, self.reset) {
                    (Some(c), _) => c.position,
                    (None, OffsetReset::Earliest) => topic.earliest_offset(partition)?,
                    (None, OffsetReset::Latest) => topic.end_offset(partition)?,
                };
                cursors.push(Cursor { topic: Arc::clone(&topic), partition, position });
            }
        }
        self.cursors = cursors;
        self.subscribed = true;
        Ok(())
    }

    /// Polls up to `max_records` across the subscribed partitions, advancing
    /// the consumer's positions: [`Consumer::poll_each`] collecting each
    /// record into an owned [`FetchedRecord`].
    ///
    /// # Errors
    ///
    /// As [`Consumer::poll_each`].
    pub fn poll(&mut self, max_records: usize) -> Result<Vec<FetchedRecord>, StreamError> {
        let mut out = Vec::new();
        self.poll_each(max_records, |rec| out.push(rec.to_fetched()))?;
        Ok(out)
    }

    /// Visits up to `max_records` across the subscribed partitions in place,
    /// advancing the consumer's positions, and returns how many it visited.
    ///
    /// Records come partition by partition, in subscribe order and offset
    /// order within a partition; partitions with nothing to fetch
    /// contribute nothing. Records a trim freed before the poll reached them
    /// are skipped and counted in `stream.consumer.skipped`, never reported
    /// as an error.
    ///
    /// `visit` sees each record borrowed from its log, under that
    /// partition's lock: it copies out what it keeps, and must not block or
    /// take a lock (DESIGN.md, "Poll straight into the batch").
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::NotSubscribed`] before [`Consumer::subscribe`]
    /// and propagates any other fetch error, which a subscribed cursor does
    /// not meet.
    pub fn poll_each(
        &mut self,
        max_records: usize,
        mut visit: impl FnMut(RecordView<'_>),
    ) -> Result<usize, StreamError> {
        if !self.subscribed {
            return Err(StreamError::NotSubscribed);
        }
        let mut visited = 0;
        for cursor in &mut self.cursors {
            let room = max_records.saturating_sub(visited);
            if room == 0 {
                break;
            }
            let (topic, partition) = (&cursor.topic, cursor.partition);
            let fetched = loop {
                match topic.fetch_each(partition, cursor.position, room, &mut visit) {
                    Ok(n) => break n,
                    Err(StreamError::OffsetOutOfRange { earliest, .. }) => {
                        // A trim overtook us: the records between our
                        // position and the earliest retained one are gone
                        // unread. Count them and resume from there. Another
                        // append may trim again before the retry takes the
                        // lock, so retry until a fetch lands rather than
                        // give up on what was already visited; each retry
                        // moves the position strictly forward.
                        if cad3_obs::enabled() {
                            cad3_obs::counter!("stream.consumer.skipped")
                                .add(earliest.saturating_sub(cursor.position));
                        }
                        cursor.position = earliest;
                    }
                    Err(e) => return Err(e),
                }
            };
            cursor.position += len_u64(fetched);
            visited += fetched;
        }
        if cad3_obs::enabled() {
            cad3_obs::counter!("stream.consumer.polls").inc();
            cad3_obs::counter!("stream.consumer.records").add(len_u64(visited));
        }
        Ok(visited)
    }

    /// Commits every cursor's position as its partition's floor: the
    /// partition's next append frees the records this consumer has polled
    /// (see [`crate::PartitionLog::commit`]). Call it once the polled
    /// records are processed — Kafka's at-least-once commit. Each partition
    /// takes its own mutex in turn, and no other lock.
    ///
    /// A partition has one floor, so only its one reader should commit:
    /// another reader behind the floor is overtaken at the next append and
    /// counts what it missed in `stream.consumer.skipped`.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError::UnknownPartition`], which a subscribed
    /// cursor does not meet.
    pub fn commit(&self) -> Result<(), StreamError> {
        for c in &self.cursors {
            c.topic.commit(c.partition, c.position)?;
        }
        Ok(())
    }

    /// Seeks every subscribed partition to the log end (skip history).
    pub fn seek_to_end(&mut self) {
        for c in &mut self.cursors {
            if let Ok(end) = c.topic.end_offset(c.partition) {
                c.position = end;
            }
        }
    }

    /// Seeks every subscribed partition to the earliest retained offset.
    pub fn seek_to_beginning(&mut self) {
        for c in &mut self.cursors {
            if let Ok(earliest) = c.topic.earliest_offset(c.partition) {
                c.position = earliest;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serialises the tests of this binary that flip the process-wide obs
    /// gate.
    static OBS_GATE: Mutex<()> = Mutex::new(());

    /// The obs gate held on, under [`OBS_GATE`], until dropped: a failed
    /// assert unwinds through the drop and cannot leave obs on for the
    /// tests that run after it.
    struct ObsOn {
        _serial: MutexGuard<'static, ()>,
    }

    impl ObsOn {
        fn new() -> Self {
            let serial = OBS_GATE.lock().unwrap_or_else(PoisonError::into_inner);
            cad3_obs::set_enabled(true);
            ObsOn { _serial: serial }
        }
    }

    impl Drop for ObsOn {
        fn drop(&mut self) {
            cad3_obs::set_enabled(false);
        }
    }

    fn setup() -> Arc<Broker> {
        let broker = Arc::new(Broker::new("rsu"));
        broker.create_topic("IN-DATA", 3).unwrap();
        broker
    }

    /// Appends one record to `IN-DATA`, routed by its key.
    fn send(broker: &Broker, key: Option<&[u8]>, value: impl Into<Bytes>, timestamp: u64) {
        let key = key.map(Bytes::copy_from_slice);
        broker.produce("IN-DATA", None, key, value.into(), timestamp).unwrap();
    }

    #[test]
    fn trace_header_survives_produce_and_poll() {
        use cad3_obs::TraceContext;
        let broker = setup();
        // Mix traced, untraced and hopped records.
        let ctx = TraceContext::from_parts(77, 5, 1);
        let traced = |key: &'static [u8], value: &'static [u8], ts, trace| {
            let key = Some(Bytes::from_static(key));
            broker.produce_traced("IN-DATA", None, key, Bytes::from_static(value), ts, trace)
        };
        traced(b"veh-1", b"a", 0, Some(ctx)).unwrap();
        send(&broker, Some(b"veh-2"), &b"b"[..], 1);
        traced(b"veh-3", b"c", 2, Some(ctx.next_hop(9))).unwrap();
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
        let broker = setup();
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        assert_eq!(c.poll(10).unwrap_err(), StreamError::NotSubscribed);
    }

    #[test]
    fn earliest_reset_sees_history() {
        let broker = setup();
        for i in 0..10u64 {
            send(&broker, Some(format!("v{i}").as_bytes()), &b"x"[..], i);
        }
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        let recs = c.poll(100).unwrap();
        assert_eq!(recs.len(), 10);
    }

    #[test]
    fn latest_reset_sees_only_new() {
        let broker = setup();
        send(&broker, None, &b"old"[..], 0);
        let mut c = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Latest);
        c.subscribe(&["IN-DATA"]).unwrap();
        assert!(c.poll(100).unwrap().is_empty());
        send(&broker, None, &b"new"[..], 1);
        let recs = c.poll(100).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(&recs[0].value[..], b"new");
    }

    #[test]
    fn poll_advances_without_duplicates() {
        let broker = setup();
        let mut c = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        for i in 0..5u64 {
            send(&broker, None, Bytes::from(i.to_string()), i);
        }
        let first = c.poll(100).unwrap();
        let second = c.poll(100).unwrap();
        assert_eq!(first.len(), 5);
        assert!(second.is_empty(), "no duplicates on re-poll");
    }

    #[test]
    fn poll_returns_each_partition_once_in_offset_order() {
        let broker = setup();
        let mut c = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        for i in 0..60u64 {
            send(&broker, Some(format!("veh-{i}").as_bytes()), &b"x"[..], i);
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
        let broker = setup();
        let mut c = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        for i in 0..20u64 {
            send(&broker, Some(b"veh-9"), Bytes::from(i.to_string()), i);
        }
        let recs = c.poll(100).unwrap();
        let values: Vec<u64> =
            recs.iter().map(|r| String::from_utf8_lossy(&r.value).parse().unwrap()).collect();
        assert_eq!(values, (0..20).collect::<Vec<_>>(), "keyed records arrive in order");
    }

    #[test]
    fn consumers_are_independent_readers() {
        let broker = setup();
        let mut a = Consumer::new(Arc::clone(&broker), "fleet", OffsetReset::Earliest);
        let mut b = Consumer::new(Arc::clone(&broker), "probe", OffsetReset::Earliest);
        a.subscribe(&["IN-DATA"]).unwrap();
        b.subscribe(&["IN-DATA"]).unwrap();
        for i in 0..60u64 {
            send(&broker, Some(format!("veh-{i}").as_bytes()), &b"x"[..], i);
        }
        let offsets = |recs: Vec<FetchedRecord>| -> Vec<(u32, u64)> {
            recs.iter().map(|r| (r.partition, r.offset)).collect()
        };
        let seen_a = offsets(a.poll(1000).unwrap());
        assert_eq!(seen_a.len(), 60, "the first reader sees every record");
        assert_eq!(offsets(b.poll(1000).unwrap()), seen_a, "and so does the second, in order");
        assert!(a.poll(1000).unwrap().is_empty(), "each sees a record once");
        assert!(b.poll(1000).unwrap().is_empty());
    }

    #[test]
    fn seek_to_end_skips_history() {
        let broker = setup();
        for i in 0..5u64 {
            send(&broker, None, &b"x"[..], i);
        }
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        c.seek_to_end();
        assert!(c.poll(100).unwrap().is_empty());
        c.seek_to_beginning();
        assert_eq!(c.poll(100).unwrap().len(), 5);
    }

    #[test]
    fn records_a_trim_overtook_are_counted_as_skipped() {
        // A reader at offset 0 of a partition with a horizon of 1 after 5
        // appends stamped 0..5: offsets 0..3 are gone, 3 and 4 are still
        // there.
        let topic = Arc::new(SharedTopic::new("IN-DATA", 1).unwrap());
        topic.set_horizon(1);
        for i in 0..5u64 {
            topic.append(Some(0), None, Bytes::from(i.to_string()), i).unwrap();
        }
        let broker = setup();
        let mut c = Consumer::new(broker, "behind", OffsetReset::Earliest);
        c.cursors.push(Cursor { topic, partition: 0, position: 0 });
        c.subscribed = true;

        let skipped = || cad3_obs::registry().snapshot().counter("stream.consumer.skipped");
        let obs_on = ObsOn::new();
        let before = skipped();
        let recs = c.poll(100).unwrap();
        let after = skipped();
        drop(obs_on);
        let offsets: Vec<u64> = recs.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![3, 4], "the poll resumes from the earliest retained record");
        assert_eq!(after - before, 3, "and counts the three records it never saw");
    }

    #[test]
    fn commit_frees_what_was_polled_at_the_next_append() {
        let broker = setup();
        let mut c = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        c.subscribe(&["IN-DATA"]).unwrap();
        for i in 0..30u64 {
            send(&broker, Some(format!("veh-{i}").as_bytes()), &b"x"[..], i);
        }
        assert_eq!(c.poll(20).unwrap().len(), 20);
        c.commit().unwrap();
        assert_eq!(broker.topic_len("IN-DATA").unwrap(), 30, "a commit frees nothing by itself");
        // One append to each partition trims it to this reader's position.
        for p in 0..3 {
            broker.produce("IN-DATA", Some(p), None, Bytes::from_static(b"y"), 30).unwrap();
        }
        assert_eq!(broker.topic_len("IN-DATA").unwrap(), 10 + 3);
        let rest = c.poll(100).unwrap();
        assert_eq!(rest.len(), 13, "the reader loses nothing it had not polled");
        c.commit().unwrap();
        c.seek_to_beginning();
        assert_eq!(c.poll(100).unwrap().len(), 13, "nothing is freed before the next append");
    }

    #[test]
    fn subscribe_to_missing_topic_fails() {
        let broker = setup();
        let mut c = Consumer::new(broker, "g", OffsetReset::Earliest);
        assert!(matches!(c.subscribe(&["NOPE"]), Err(StreamError::UnknownTopic(_))));
    }
}
