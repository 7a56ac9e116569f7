use crate::sync::{Arc, RwLock};
use crate::{Record, SharedTopic, StreamError};
use bytes::Bytes;

/// A message broker: a registry of topics.
///
/// One broker is instantiated per emulated RSU, mirroring the paper's
/// one-Kafka-broker-per-RSU deployment. All methods take `&self`; the broker
/// is internally synchronised so it can be shared across threads in the
/// real-time integration tests and across simulated actors in virtual time.
/// It keeps no reader state: each [`crate::Consumer`] holds its own
/// positions.
///
/// Topics are [`SharedTopic`]s in a small registry — an RSU has three —
/// searched by name compare. The by-name methods (`produce`,
/// `produce_traced`, `fetch`, ...) use the topic under the registry's read
/// guard and clone nothing, so a by-name produce costs one uncontended read
/// lock and a short string compare on top of the partition append.
/// [`Broker::topic_handle`] still hands out `Arc` handles for callers that
/// keep one (the consumer, the RSU's `OUT-DATA` and `CO-DATA` legs). The
/// by-name methods call [`SharedTopic`] by path so that `cargo xtask
/// analyze`, which follows only calls it can resolve to one function, sees
/// the registry → partition nesting.
///
/// # Lock hierarchy
///
/// Stream locks are acquired strictly in this order (enforced by
/// `cargo xtask analyze` statically and the `cad3-lockrank` runtime
/// witness in debug builds):
///
/// 1. `topics` registry `RwLock` (rank 20) — a by-name method holds its
///    read guard across the partition lock below,
/// 2. a [`SharedTopic`] partition `Mutex` (rank 30) — never two at once.
#[derive(Debug)]
pub struct Broker {
    name: String,
    topics: RwLock<Vec<Arc<SharedTopic>>>,
}

/// The registered topic named `name`, by linear compare: the registry holds
/// a handful of topics, so this beats hashing the name on every record.
fn find<'a>(
    topics: &'a [Arc<SharedTopic>],
    name: &str,
) -> Result<&'a Arc<SharedTopic>, StreamError> {
    topics
        .iter()
        .find(|t| &**t.name() == name)
        .ok_or_else(|| StreamError::UnknownTopic(name.to_owned()))
}

impl Broker {
    /// Creates a broker with a human-readable name (e.g. `"rsu-motorway"`).
    pub fn new(name: impl Into<String>) -> Self {
        Broker { name: name.into(), topics: RwLock::new(Vec::new()) }
    }

    /// Broker name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a topic.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::TopicExists`] for duplicates and
    /// [`StreamError::InvalidPartitionCount`] for zero partitions.
    pub fn create_topic(&self, name: &str, partitions: u32) -> Result<(), StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let mut topics = self.topics.write();
        if find(&topics, name).is_ok() {
            return Err(StreamError::TopicExists(name.to_owned()));
        }
        topics.push(Arc::new(SharedTopic::new(name, partitions)?));
        Ok(())
    }

    /// Names of all topics on this broker.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = {
            let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
            self.topics.read().iter().map(|t| t.name().to_string()).collect()
        };
        names.sort();
        names
    }

    /// Looks up the shared handle for a topic.
    ///
    /// A caller that keeps the handle bypasses the registry on every later
    /// call, taking only the target partition's mutex. Topics are never
    /// removed once created, so a kept handle stays valid for the broker's
    /// lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn topic_handle(&self, topic: &str) -> Result<Arc<SharedTopic>, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        find(&topics, topic).map(Arc::clone)
    }

    /// Partition count of a topic.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn partition_count(&self, topic: &str) -> Result<u32, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        Ok(SharedTopic::partition_count(find(&topics, topic)?))
    }

    /// Appends a record to a topic. Returns `(partition, offset)`.
    ///
    /// Runs [`SharedTopic::append`], which is where the produce metrics
    /// live, under the registry's read guard.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] or
    /// [`StreamError::UnknownPartition`].
    pub fn produce(
        &self,
        topic: &str,
        partition: Option<u32>,
        key: Option<Bytes>,
        value: Bytes,
        timestamp: u64,
    ) -> Result<(u32, u64), StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::append(find(&topics, topic)?, partition, key, value, timestamp)
    }

    /// [`Broker::produce`] with an optional distributed-trace header: the
    /// context rides the record through the log and back out of
    /// `Consumer::poll*` unchanged.
    ///
    /// This is the ingest path (one call per vehicle status record), so it
    /// neither hashes the name nor touches a reference count: the topic is
    /// found by compare and appended to while the read guard is held.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] or
    /// [`StreamError::UnknownPartition`].
    pub fn produce_traced(
        &self,
        topic: &str,
        partition: Option<u32>,
        key: Option<Bytes>,
        value: Bytes,
        timestamp: u64,
        trace: Option<cad3_obs::TraceContext>,
    ) -> Result<(u32, u64), StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::append_traced(find(&topics, topic)?, partition, key, value, timestamp, trace)
    }

    /// Fetches up to `max` records from `topic`/`partition` at `offset`.
    ///
    /// Runs [`SharedTopic::fetch`], which is where the fetch metrics live,
    /// under the registry's read guard.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`], [`StreamError::UnknownPartition`]
    /// or [`StreamError::OffsetOutOfRange`].
    pub fn fetch(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<Record>, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::fetch(find(&topics, topic)?, partition, offset, max)
    }

    /// The end (next-produced) offset of a partition.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] or [`StreamError::UnknownPartition`].
    pub fn end_offset(&self, topic: &str, partition: u32) -> Result<u64, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::end_offset(find(&topics, topic)?, partition)
    }

    /// The earliest retained offset of a partition.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] or [`StreamError::UnknownPartition`].
    pub fn earliest_offset(&self, topic: &str, partition: u32) -> Result<u64, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::earliest_offset(find(&topics, topic)?, partition)
    }

    /// Total retained records in a topic.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn topic_len(&self, topic: &str) -> Result<usize, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        Ok(SharedTopic::len(find(&topics, topic)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn create_produce_fetch_round_trip() {
        let b = Broker::new("rsu-1");
        b.create_topic("IN-DATA", 3).unwrap();
        let (p, o) = b.produce("IN-DATA", None, Some(val("k")), val("v"), 7).unwrap();
        let recs = b.fetch("IN-DATA", p, o, 10).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].value, val("v"));
        assert_eq!(recs[0].timestamp, 7);
    }

    #[test]
    fn duplicate_topic_rejected() {
        let b = Broker::new("rsu-1");
        b.create_topic("T", 1).unwrap();
        assert_eq!(b.create_topic("T", 1).unwrap_err(), StreamError::TopicExists("T".into()));
    }

    #[test]
    fn unknown_topic_errors() {
        let b = Broker::new("rsu-1");
        assert!(matches!(
            b.produce("nope", None, None, val("v"), 0),
            Err(StreamError::UnknownTopic(_))
        ));
        assert!(matches!(b.fetch("nope", 0, 0, 1), Err(StreamError::UnknownTopic(_))));
        assert!(matches!(b.topic_handle("nope"), Err(StreamError::UnknownTopic(_))));
    }

    #[test]
    fn topic_names_sorted() {
        let b = Broker::new("rsu-1");
        b.create_topic("OUT-DATA", 1).unwrap();
        b.create_topic("CO-DATA", 1).unwrap();
        b.create_topic("IN-DATA", 1).unwrap();
        assert_eq!(b.topic_names(), vec!["CO-DATA", "IN-DATA", "OUT-DATA"]);
    }

    #[test]
    fn topic_handle_bypasses_registry() {
        let b = Broker::new("rsu-1");
        b.create_topic("T", 2).unwrap();
        let h = b.topic_handle("T").unwrap();
        assert_eq!(&**h.name(), "T");
        let (p, o) = h.append(None, None, val("v"), 1).unwrap();
        // The handle and the registry see the same log.
        assert_eq!(b.fetch("T", p, o, 1).unwrap().len(), 1);
        assert_eq!(b.end_offset("T", p).unwrap(), o + 1);
    }

    #[test]
    fn broker_is_shareable_across_threads() {
        use std::sync::Arc;
        let b = Arc::new(Broker::new("rsu-1"));
        b.create_topic("T", 4).unwrap();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    b.produce("T", Some(t as u32), None, val(&i.to_string()), i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.topic_len("T").unwrap(), 400);
        for p in 0..4 {
            // Per-partition offsets are dense: every fetch sees 100 in order.
            let recs = b.fetch("T", p, 0, 1000).unwrap();
            assert_eq!(recs.len(), 100);
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(r.offset, i as u64);
            }
        }
    }
}
