//! The sharded, internally-locked topic behind the broker's hot path.
//!
//! [`SharedTopic`] splits a topic into immutable metadata (interned name,
//! partition count) plus one `Mutex<PartitionLog>` per partition and an
//! atomic round-robin counter. Every method takes `&self`, so produces and
//! fetches to *different* partitions of one topic proceed concurrently and
//! a fetch never contends with an append on a sibling partition — the
//! paper's three-partitions-per-topic layout actually buys parallelism
//! instead of serialising behind one topic mutex.
//!
//! Routing is bit-identical to the single-threaded reference `Topic` in
//! `tests/support/` (same FNV-1a key partitioner, same round-robin sequence
//! for keyless records, same explicit-partition validation); the proptest
//! in `tests/sharded_equivalence.rs` holds the two together.
//!
//! # Lock hierarchy
//!
//! All partition mutexes share one rank (`cad3_stream::SharedTopic::partitions`,
//! 30) and no method ever holds two of them at once, so the per-partition
//! locks are leaves of the broker's three-rank hierarchy: the broker's
//! by-name methods take one under the registry's read guard (rank 20), and
//! nothing is acquired under one.

use crate::sync::{Arc, AtomicU64, Mutex, Ordering};
use crate::{PartitionLog, RecordView, StreamError, TopicName};
use bytes::Bytes;
use cad3_types::{index_usize, len_u32, len_u64, partition_u32};

/// FNV-1a hash, the stable key-partitioner hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A topic whose partitions are individually locked.
///
/// Shared by `Arc` between the broker's registry and the handles callers
/// keep ([`crate::Broker::topic_handle`]); see the module docs for the
/// locking discipline.
#[derive(Debug)]
pub struct SharedTopic {
    name: TopicName,
    partitions: Vec<Arc<Mutex<PartitionLog>>>,
    round_robin: AtomicU64,
}

impl SharedTopic {
    /// Creates a topic with `partitions` partitions, each keeping every
    /// record until a commit.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidPartitionCount`] if `partitions == 0`.
    pub fn new(name: impl Into<TopicName>, partitions: u32) -> Result<Self, StreamError> {
        if partitions == 0 {
            return Err(StreamError::InvalidPartitionCount);
        }
        Ok(SharedTopic {
            name: name.into(),
            partitions: (0..partitions)
                .map(|_| Arc::new(Mutex::new(PartitionLog::new())))
                .collect(),
            round_robin: AtomicU64::new(0),
        })
    }

    /// Gives every partition a time horizon of `horizon_ns`: from the next
    /// append on, a record stamped more than that before an appended one
    /// is dropped (see [`PartitionLog::set_horizon`]).
    pub fn set_horizon(&self, horizon_ns: u64) {
        for log in &self.partitions {
            let _held = cad3_lockrank::rank_scope!("cad3_stream::SharedTopic::partitions");
            log.lock().set_horizon(horizon_ns);
        }
    }

    /// Commits `offset` as a partition's floor: the partition's next append
    /// drops every record below it (see [`PartitionLog::commit`]). Takes
    /// that partition's mutex and no other lock.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] for an invalid index.
    pub fn commit(&self, partition: u32, offset: u64) -> Result<(), StreamError> {
        let idx = self.index(partition)?;
        let _held = cad3_lockrank::rank_scope!("cad3_stream::SharedTopic::partitions");
        // hotpath-exempt(panic): idx was bounds-checked by self.index(partition).
        self.partitions[idx].lock().commit(offset);
        Ok(())
    }

    /// The interned topic name.
    pub fn name(&self) -> &TopicName {
        &self.name
    }

    /// Number of partitions (immutable metadata — no lock taken).
    pub fn partition_count(&self) -> u32 {
        len_u32(self.partitions.len())
    }

    /// The partition a key routes to (FNV-1a of the key, modulo the partition count).
    pub fn partition_for_key(&self, key: &[u8]) -> u32 {
        partition_u32(fnv1a(key) % len_u64(self.partitions.len()))
    }

    /// Appends a record carrying an optional distributed-trace header,
    /// routing by `partition` if given, else by key hash, else round-robin.
    /// Returns `(partition, offset)`.
    ///
    /// Only the target partition's mutex is taken; appends to other
    /// partitions proceed concurrently.
    ///
    /// With obs on, `stream.broker.produce` counts every record, but only a
    /// record carrying a `trace` (head-sampled at `trace::mint`) reads the
    /// clock and feeds `stream.broker.produce_ns`: an untraced append costs
    /// no wall-clock read (see the cad3-obs overhead policy).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] for an explicit partition
    /// out of range.
    pub fn append(
        &self,
        partition: Option<u32>,
        key: Option<Bytes>,
        value: Bytes,
        timestamp: u64,
        trace: Option<cad3_obs::TraceContext>,
    ) -> Result<(u32, u64), StreamError> {
        // Per-record instrumentation is exporter-gated: with no exporter the
        // append path pays one relaxed load (see cad3-obs overhead policy).
        let observing = cad3_obs::enabled();
        // A ≈ 60 ns clock pair to time a ≈ 100 ns append: only head-sampled
        // records pay it.
        let timing = observing && trace.is_some();
        let start_ns = if timing { cad3_obs::clock::now_nanos() } else { 0 };
        let p = match (partition, &key) {
            (Some(p), _) => {
                if p >= self.partition_count() {
                    return Err(StreamError::UnknownPartition {
                        topic: self.name.to_string(),
                        partition: p,
                    });
                }
                p
            }
            (None, Some(k)) => self.partition_for_key(k),
            (None, None) => {
                // The counter only spreads keyless records; records are
                // published by the partition mutex, not by this atomic.
                // fetch_add returns the pre-increment value, matching the
                // reference partitioner's `n % count` then `+= 1`.
                // ordering: Relaxed — see above; no data is released.
                let n = self.round_robin.fetch_add(1, Ordering::Relaxed);
                partition_u32(n % len_u64(self.partitions.len()))
            }
        };
        let offset = {
            let _held = cad3_lockrank::rank_scope!("cad3_stream::SharedTopic::partitions");
            // hotpath-exempt(panic): p comes from partition_for_key / round-robin,
            // both reduced modulo partitions.len().
            self.partitions[index_usize(u64::from(p))].lock().append(key, value, timestamp, trace)
        };
        if observing {
            cad3_obs::counter!("stream.broker.produce").inc();
        }
        if timing {
            cad3_obs::histogram!("stream.broker.produce_ns")
                .observe(cad3_obs::clock::now_nanos().saturating_sub(start_ns));
        }
        Ok((p, offset))
    }

    /// Visits up to `max` records of a partition from `offset` in place
    /// (see [`PartitionLog::fetch_each`]) and returns how many, touching
    /// only that partition's mutex. `visit` runs under it: it must not
    /// block or take a lock.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] or
    /// [`StreamError::OffsetOutOfRange`]; nothing is then visited.
    pub fn fetch_each(
        &self,
        partition: u32,
        offset: u64,
        max: usize,
        visit: impl FnMut(RecordView<'_>),
    ) -> Result<usize, StreamError> {
        // Same gating as `append`: with no exporter attached the fetch path
        // pays one relaxed load.
        let observing = cad3_obs::enabled();
        let start_ns = if observing { cad3_obs::clock::now_nanos() } else { 0 };
        let idx = self.index(partition)?;
        let fetched = {
            let _held = cad3_lockrank::rank_scope!("cad3_stream::SharedTopic::partitions");
            // hotpath-exempt(panic): idx was bounds-checked by self.index(partition)
            // just above.
            self.partitions[idx].lock().fetch_each(partition, offset, max, visit)
        };
        if observing {
            if let Ok(n) = fetched {
                cad3_obs::counter!("stream.broker.fetch.records").add(len_u64(n));
                cad3_obs::histogram!("stream.broker.fetch_ns")
                    .observe(cad3_obs::clock::now_nanos().saturating_sub(start_ns));
            }
        }
        fetched
    }

    /// Next offset of a partition (the "end" position).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] for an invalid index.
    pub fn end_offset(&self, partition: u32) -> Result<u64, StreamError> {
        let idx = self.index(partition)?;
        let _held = cad3_lockrank::rank_scope!("cad3_stream::SharedTopic::partitions");
        // hotpath-exempt(panic): idx was bounds-checked by self.index(partition).
        let end = self.partitions[idx].lock().next_offset();
        Ok(end)
    }

    /// Earliest retained offset of a partition.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] for an invalid index.
    pub fn earliest_offset(&self, partition: u32) -> Result<u64, StreamError> {
        let idx = self.index(partition)?;
        let _held = cad3_lockrank::rank_scope!("cad3_stream::SharedTopic::partitions");
        // hotpath-exempt(panic): idx was bounds-checked by self.index(partition).
        let earliest = self.partitions[idx].lock().earliest_offset();
        Ok(earliest)
    }

    /// Total records currently retained across all partitions.
    ///
    /// Partitions are read one at a time (never two locks at once), so the
    /// total is a sum of per-partition snapshots, not one atomic cut — the
    /// same monitoring-grade answer a Kafka admin client gives.
    pub fn len(&self) -> usize {
        self.partitions
            .iter()
            .map(|log| {
                let _held = cad3_lockrank::rank_scope!("cad3_stream::SharedTopic::partitions");
                log.lock().len()
            })
            .sum()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates a partition index, returning it widened for direct
    /// indexing into `partitions`.
    fn index(&self, partition: u32) -> Result<usize, StreamError> {
        let idx = index_usize(u64::from(partition));
        if idx >= self.partitions.len() {
            return Err(StreamError::UnknownPartition { topic: self.name.to_string(), partition });
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Up to `max` records of a partition from `offset`, read as
    /// `Consumer::poll` reads them: [`SharedTopic::fetch_each`], each view
    /// made owned.
    fn window(
        t: &SharedTopic,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<crate::FetchedRecord>, StreamError> {
        let mut out = Vec::new();
        t.fetch_each(partition, offset, max, |r| out.push(r.to_fetched()))?;
        Ok(out)
    }

    #[test]
    fn zero_partitions_rejected() {
        assert_eq!(SharedTopic::new("t", 0).unwrap_err(), StreamError::InvalidPartitionCount);
    }

    #[test]
    fn keyless_round_robin_matches_reference_sequence() {
        let t = SharedTopic::new("t", 3).unwrap();
        let ps: Vec<u32> =
            (0..6).map(|i| t.append(None, None, val("x"), i, None).unwrap().0).collect();
        assert_eq!(ps, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn keyed_records_stay_in_one_partition() {
        let t = SharedTopic::new("IN-DATA", 3).unwrap();
        let mut partitions = std::collections::HashSet::new();
        for i in 0..20u64 {
            let (p, _) = t.append(None, Some(val("veh-7")), val(&i.to_string()), i, None).unwrap();
            partitions.insert(p);
        }
        assert_eq!(partitions.len(), 1, "same key must map to same partition");
    }

    #[test]
    fn explicit_partition_respected_and_validated() {
        let t = SharedTopic::new("t", 2).unwrap();
        let (p, o) = t.append(Some(1), None, val("x"), 0, None).unwrap();
        assert_eq!((p, o), (1, 0));
        let err = t.append(Some(5), None, val("x"), 0, None).unwrap_err();
        assert!(matches!(err, StreamError::UnknownPartition { partition: 5, .. }));
        assert!(matches!(window(&t, 9, 0, 1), Err(StreamError::UnknownPartition { .. })));
    }

    #[test]
    fn commit_truncates_like_partition_log() {
        let t = SharedTopic::new("t", 2).unwrap();
        for i in 0..10u64 {
            t.append(Some(0), None, val("x"), i, None).unwrap();
        }
        t.commit(0, 7).unwrap();
        assert_eq!(t.len(), 10, "a commit frees nothing by itself");
        t.append(Some(0), None, val("x"), 10, None).unwrap();
        assert_eq!(t.earliest_offset(0).unwrap(), 7);
        assert_eq!(t.end_offset(0).unwrap(), 11);
        assert_eq!(t.len(), 4);
        let err = window(&t, 0, 2, 5).unwrap_err();
        assert_eq!(err, StreamError::OffsetOutOfRange { requested: 2, earliest: 7 });
        assert!(matches!(t.commit(2, 0), Err(StreamError::UnknownPartition { partition: 2, .. })));
    }

    #[test]
    fn horizon_applies_to_every_partition() {
        let t = SharedTopic::new("t", 2).unwrap();
        t.set_horizon(3);
        for i in 0..10u64 {
            t.append(Some(0), None, val("x"), i, None).unwrap();
            t.append(Some(1), None, val("x"), 2 * i, None).unwrap();
        }
        // Stamps 6..=9 stay on partition 0, and 16 and 18 on partition 1.
        assert_eq!((t.earliest_offset(0).unwrap(), t.earliest_offset(1).unwrap()), (6, 8));
        assert_eq!(t.len(), 4 + 2);
    }

    /// Partition independence, the sharded topic's reason to exist: with
    /// partition 0's mutex held, an append to partition 1 and a fetch from
    /// it both complete. A change that serialised the append behind one
    /// lock (a topic-wide mutex, or partition 0's) hangs the other thread
    /// until the guard drops, and the wait times out.
    #[cfg(not(loom))]
    #[test]
    fn a_held_partition_does_not_block_its_sibling() {
        let t = std::sync::Arc::new(SharedTopic::new("t", 2).unwrap());
        let held = t.partitions[0].lock();
        let (done, finished) = std::sync::mpsc::channel();
        let sibling = {
            let t = std::sync::Arc::clone(&t);
            std::thread::spawn(move || {
                let appended = t.append(Some(1), None, val("x"), 0, None).unwrap();
                let fetched = window(&t, 1, 0, 16).unwrap().len();
                done.send((appended, fetched)).unwrap();
            })
        };
        let outcome = finished.recv_timeout(std::time::Duration::from_secs(5));
        drop(held);
        sibling.join().unwrap();
        assert_eq!(outcome, Ok(((1, 0), 1)), "partition 1 waited on partition 0's mutex");
    }

    #[test]
    fn concurrent_appends_to_disjoint_partitions_stay_dense() {
        let t = std::sync::Arc::new(SharedTopic::new("t", 4).unwrap());
        let mut handles = Vec::new();
        for p in 0..4u32 {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    t.append(Some(p), None, val(&i.to_string()), i, None).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for p in 0..4u32 {
            let recs = window(&t, p, 0, 1000).unwrap();
            assert_eq!(recs.len(), 200);
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(r.offset, cad3_types::len_u64(i));
            }
        }
    }
}
