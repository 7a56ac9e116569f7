use crate::sync::{Arc, AtomicU64, Ordering};
use crate::{Broker, StreamError};
use bytes::Bytes;
use cad3_types::len_u64;

/// A publisher bound to one broker — the role each emulated vehicle's DSRC
/// uplink plays in the paper's testbed (a Kafka producer per vehicle).
///
/// Sends are synchronous: the record is on the log when `send` returns,
/// like a flushed Kafka producer with `acks=1` against a single broker.
///
/// A send is the broker's by-name produce ([`Broker::produce_traced`]),
/// which finds the topic by compare under the registry's read guard: no
/// handle to cache, so clones share the broker and the statistic counters
/// and nothing else.
///
/// # Counter ordering policy
///
/// `records_sent`/`bytes_sent` are monitoring statistics: each is an
/// independent monotone counter that no code uses to synchronise with other
/// memory — the records themselves are published through the broker's locks.
/// Every access therefore uses `Ordering::Relaxed`; a reader may observe
/// counts that lag concurrent in-flight sends, and the two counters are not
/// guaranteed mutually consistent at any instant. Any future use of these
/// counters as a happens-before signal must upgrade the policy, not one site.
#[derive(Debug, Clone)]
pub struct Producer {
    broker: Arc<Broker>,
    records_sent: Arc<AtomicU64>,
    bytes_sent: Arc<AtomicU64>,
}

impl Producer {
    /// Creates a producer publishing to `broker`.
    pub fn new(broker: Arc<Broker>) -> Self {
        Producer {
            broker,
            records_sent: Arc::new(AtomicU64::new(0)),
            bytes_sent: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The broker this producer publishes to.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// Publishes a record; routing follows the topic's partitioner.
    /// Returns `(partition, offset)`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn send(
        &self,
        topic: &str,
        key: Option<&[u8]>,
        value: impl Into<Bytes>,
        timestamp: u64,
    ) -> Result<(u32, u64), StreamError> {
        self.send_traced(topic, key, value, timestamp, None)
    }

    /// [`Producer::send`] with an optional distributed-trace header carried
    /// on the record (`Copy`; the untraced path stays allocation-free).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn send_traced(
        &self,
        topic: &str,
        key: Option<&[u8]>,
        value: impl Into<Bytes>,
        timestamp: u64,
        trace: Option<cad3_obs::TraceContext>,
    ) -> Result<(u32, u64), StreamError> {
        let value = value.into();
        let n = len_u64(value.len());
        let result = self.broker.produce_traced(
            topic,
            None,
            key.map(Bytes::copy_from_slice),
            value,
            timestamp,
            trace,
        )?;
        // ordering: Relaxed — independent statistic counters; see the
        // "Counter ordering policy" section on [`Producer`].
        self.records_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(n, Ordering::Relaxed);
        if cad3_obs::enabled() {
            cad3_obs::counter!("stream.producer.records").inc();
            cad3_obs::counter!("stream.producer.bytes").add(n);
        }
        Ok(result)
    }

    /// Publishes to an explicit partition. Returns `(partition, offset)`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] or
    /// [`StreamError::UnknownPartition`].
    pub fn send_to_partition(
        &self,
        topic: &str,
        partition: u32,
        key: Option<&[u8]>,
        value: impl Into<Bytes>,
        timestamp: u64,
    ) -> Result<(u32, u64), StreamError> {
        let value = value.into();
        let n = len_u64(value.len());
        let result = self.broker.produce(
            topic,
            Some(partition),
            key.map(Bytes::copy_from_slice),
            value,
            timestamp,
        )?;
        // ordering: Relaxed — independent statistic counters; see the
        // "Counter ordering policy" section on [`Producer`].
        self.records_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(n, Ordering::Relaxed);
        if cad3_obs::enabled() {
            cad3_obs::counter!("stream.producer.records").inc();
            cad3_obs::counter!("stream.producer.bytes").add(n);
        }
        Ok(result)
    }

    /// Records published so far (shared across clones).
    pub fn records_sent(&self) -> u64 {
        // ordering: Relaxed — statistic read; see "Counter ordering policy".
        self.records_sent.load(Ordering::Relaxed)
    }

    /// Payload bytes published so far (shared across clones).
    pub fn bytes_sent(&self) -> u64 {
        // ordering: Relaxed — statistic read; see "Counter ordering policy".
        self.bytes_sent.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_appends_and_counts() {
        let broker = Arc::new(Broker::new("rsu"));
        broker.create_topic("IN-DATA", 3).unwrap();
        let p = Producer::new(Arc::clone(&broker));
        let (part, off) = p.send("IN-DATA", Some(b"veh-1"), &b"abc"[..], 5).unwrap();
        assert_eq!(off, 0);
        assert_eq!(p.records_sent(), 1);
        assert_eq!(p.bytes_sent(), 3);
        let recs = broker.fetch("IN-DATA", part, 0, 10).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn send_to_partition_targets_exactly() {
        let broker = Arc::new(Broker::new("rsu"));
        broker.create_topic("T", 2).unwrap();
        let p = Producer::new(Arc::clone(&broker));
        let (part, _) = p.send_to_partition("T", 1, None, &b"x"[..], 0).unwrap();
        assert_eq!(part, 1);
        assert!(p.send_to_partition("T", 9, None, &b"x"[..], 0).is_err());
    }

    #[test]
    fn unknown_topic_propagates() {
        let broker = Arc::new(Broker::new("rsu"));
        let p = Producer::new(broker);
        assert!(matches!(p.send("missing", None, &b"x"[..], 0), Err(StreamError::UnknownTopic(_))));
        assert_eq!(p.records_sent(), 0, "failed sends are not counted");
    }

    #[test]
    fn send_sees_topics_created_after_the_producer() {
        let broker = Arc::new(Broker::new("rsu"));
        let p = Producer::new(Arc::clone(&broker));
        assert!(p.send("LATE", None, &b"x"[..], 0).is_err());
        broker.create_topic("LATE", 1).unwrap();
        // Every send resolves the name through the registry, so the topic
        // is found now and repeated sends stay dense.
        for i in 0..3u64 {
            let (_, off) = p.send("LATE", None, &b"x"[..], i).unwrap();
            assert_eq!(off, i);
        }
    }

    #[test]
    fn clones_share_counters() {
        let broker = Arc::new(Broker::new("rsu"));
        broker.create_topic("T", 1).unwrap();
        let p1 = Producer::new(broker);
        let p2 = p1.clone();
        p1.send("T", None, &b"a"[..], 0).unwrap();
        p2.send("T", None, &b"bb"[..], 0).unwrap();
        assert_eq!(p1.records_sent(), 2);
        assert_eq!(p1.bytes_sent(), 3);
    }
}
