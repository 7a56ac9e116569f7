use crate::sync::{Arc, RwLock};
use crate::{SharedTopic, StreamError};
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
/// searched by name compare. A partition has one way in and one way out:
/// records go in through [`SharedTopic::append`], by name with
/// [`Broker::produce_traced`] or on a kept handle, and come out through a
/// [`crate::Consumer`], whose poll walks [`SharedTopic::fetch_each`]. The
/// by-name methods ([`Broker::produce_traced`], [`Broker::topic_len`]) use
/// the topic under the registry's read guard and clone nothing, so a
/// by-name produce costs one uncontended read lock and a short string
/// compare on top of the partition append. [`Broker::topic_handle`] hands
/// out `Arc` handles for callers that keep one (the consumer, the RSU's
/// `OUT-DATA` and `CO-DATA` legs). The by-name methods call [`SharedTopic`]
/// by path so that `cargo xtask analyze`, which follows only calls it can
/// resolve to one function, sees the registry → partition nesting.
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

    /// Appends a record, carrying an optional distributed-trace header, to
    /// a topic by name. Returns `(partition, offset)`. The context rides the
    /// record through the log and back out of `Consumer::poll*` unchanged.
    ///
    /// Runs [`SharedTopic::append`], which routes the record and is where
    /// the produce metrics live, under the registry's read guard. This is
    /// the ingest path (one call per vehicle status record), so it neither
    /// hashes the name nor touches a reference count: the topic is found by
    /// compare and appended to while the read guard is held.
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
        SharedTopic::append(find(&topics, topic)?, partition, key, value, timestamp, trace)
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
    use crate::{Consumer, FetchedRecord, OffsetReset};

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Everything a fresh earliest-reset consumer of `topic` polls.
    fn read_all(b: &Arc<Broker>, topic: &str) -> Vec<FetchedRecord> {
        let mut c = Consumer::new(Arc::clone(b), "reader", OffsetReset::Earliest);
        c.subscribe(&[topic]).unwrap();
        c.poll(usize::MAX).unwrap()
    }

    #[test]
    fn create_produce_fetch_round_trip() {
        let b = Arc::new(Broker::new("rsu-1"));
        b.create_topic("IN-DATA", 3).unwrap();
        let (p, o) = b.produce_traced("IN-DATA", None, Some(val("k")), val("v"), 7, None).unwrap();
        let recs = read_all(&b, "IN-DATA");
        assert_eq!(recs.len(), 1);
        assert_eq!((recs[0].partition, recs[0].offset), (p, o));
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
            b.produce_traced("nope", None, None, val("v"), 0, None),
            Err(StreamError::UnknownTopic(_))
        ));
        assert!(matches!(b.topic_len("nope"), Err(StreamError::UnknownTopic(_))));
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
        let b = Arc::new(Broker::new("rsu-1"));
        b.create_topic("T", 2).unwrap();
        let h = b.topic_handle("T").unwrap();
        assert_eq!(&**h.name(), "T");
        let (p, o) = h.append(None, None, val("v"), 1, None).unwrap();
        // The handle and the registry see the same log.
        let recs = read_all(&b, "T");
        assert_eq!(recs.iter().map(|r| (r.partition, r.offset)).collect::<Vec<_>>(), [(p, o)]);
        assert_eq!(b.topic_len("T").unwrap(), 1);
    }

    #[test]
    fn broker_is_shareable_across_threads() {
        let b = Arc::new(Broker::new("rsu-1"));
        b.create_topic("T", 4).unwrap();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    b.produce_traced("T", Some(t as u32), None, val(&i.to_string()), i, None)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.topic_len("T").unwrap(), 400);
        // Per-partition offsets are dense: each partition polls 100 in order.
        let recs = read_all(&b, "T");
        assert_eq!(recs.len(), 400);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!((r.partition, r.offset), ((i / 100) as u32, (i % 100) as u64));
        }
    }
}
