//! The single-threaded reference implementation of topic semantics, shared
//! by `proptest_stream.rs` and `sharded_equivalence.rs` as the oracle the
//! broker's sharded `SharedTopic` is held equal to, and [`window`] (with
//! [`log_window`] for a bare log), the one way the stream tests read a
//! partition.
//!
//! The oracle shares no code with the crate: [`Topic`] sits on [`FlatLog`],
//! one flat `VecDeque` of its own [`OracleRecord`]s that carry their own
//! offsets, so a chunk-indexing bug in `PartitionLog` or a field dropped by
//! the crate's record types shows up as a divergence instead of being
//! reproduced on both sides.

// Each test binary uses a subset of the reference API.
#![allow(dead_code)]

use bytes::Bytes;
use cad3_stream::{FetchedRecord, PartitionLog, SharedTopic, StreamError};
use std::collections::VecDeque;

/// Up to `max` records of `partition` from `offset`, read the way
/// `Consumer::poll` reads them: [`SharedTopic::fetch_each`], each view made
/// owned by `RecordView::to_fetched`.
///
/// # Errors
///
/// As [`SharedTopic::fetch_each`].
pub fn window(
    topic: &SharedTopic,
    partition: u32,
    offset: u64,
    max: usize,
) -> Result<Vec<FetchedRecord>, StreamError> {
    let mut out = Vec::new();
    topic.fetch_each(partition, offset, max, |r| out.push(r.to_fetched()))?;
    Ok(out)
}

/// [`window`] over one bare log, whose records it tags as partition 0.
///
/// # Errors
///
/// As [`PartitionLog::fetch_each`].
pub fn log_window(
    log: &PartitionLog,
    offset: u64,
    max: usize,
) -> Result<Vec<FetchedRecord>, StreamError> {
    let mut out = Vec::new();
    log.fetch_each(0, offset, max, |r| out.push(r.to_fetched()))?;
    Ok(out)
}

/// A record as the oracle stores and returns it: untraced, and tagged with
/// no partition, since a [`FlatLog`] does not know which one it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleRecord {
    /// Offset within the partition, assigned at append.
    pub offset: u64,
    /// Optional partitioning key.
    pub key: Option<Bytes>,
    /// Payload.
    pub value: Bytes,
    /// Timestamp the writer supplied.
    pub timestamp: u64,
}

/// FNV-1a hash, the stable key-partitioner hash. Deliberately its own copy
/// rather than the crate's: the oracle must not share the routing code it
/// checks.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An append-only, offset-addressed log in one flat `VecDeque`, each record
/// stored with its offset: `PartitionLog`'s semantics in the simplest
/// layout, sharing none of its chunk indexing. An append first pops the
/// front while it is below the committed floor or stamped more than the
/// horizon before the appended record, then stores the record. No trace
/// side-deque — the oracle's appends are untraced.
#[derive(Debug, Default)]
pub struct FlatLog {
    records: VecDeque<OracleRecord>,
    base_offset: u64,
    floor: u64,
    horizon: Option<u64>,
}

impl FlatLog {
    /// Creates an empty log that keeps every record until a commit.
    pub fn new() -> Self {
        Self::default()
    }

    /// From the next append on, drop records stamped more than `horizon`
    /// before the appended one.
    pub fn set_horizon(&mut self, horizon: u64) {
        self.horizon = Some(horizon);
    }

    /// The next append drops every record below `offset`.
    pub fn commit(&mut self, offset: u64) {
        self.floor = offset;
    }

    /// Appends a record, returning its assigned offset.
    pub fn append(&mut self, key: Option<Bytes>, value: Bytes, timestamp: u64) -> u64 {
        while let Some(front) = self.records.front() {
            let below_floor = front.offset < self.floor;
            let expired =
                self.horizon.is_some_and(|h| timestamp.saturating_sub(front.timestamp) > h);
            if !below_floor && !expired {
                break;
            }
            self.records.pop_front();
            self.base_offset += 1;
        }
        let offset = self.next_offset();
        self.records.push_back(OracleRecord { offset, key, value, timestamp });
        offset
    }

    /// Offset the next appended record will receive.
    pub fn next_offset(&self) -> u64 {
        self.base_offset + self.records.len() as u64
    }

    /// Earliest offset still retained.
    pub fn earliest_offset(&self) -> u64 {
        self.base_offset
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Reads up to `max` records starting at `offset`; past the end is an
    /// empty batch, before the earliest retained offset an error.
    pub fn read(&self, offset: u64, max: usize) -> Result<Vec<OracleRecord>, StreamError> {
        if offset < self.base_offset {
            return Err(StreamError::OffsetOutOfRange {
                requested: offset,
                earliest: self.base_offset,
            });
        }
        let start = (offset - self.base_offset) as usize;
        Ok(self.records.iter().skip(start).take(max).cloned().collect())
    }
}

/// A named, partitioned log.
///
/// Keyed records are routed by key hash so all records of one vehicle land
/// in one partition (preserving per-vehicle ordering); keyless records are
/// spread round-robin.
///
/// The broker's hot path runs on the internally-locked
/// [`cad3_stream::SharedTopic`]; `sharded_equivalence.rs` holds the two
/// observationally equal over arbitrary interleaved append/fetch sequences.
#[derive(Debug)]
pub struct Topic {
    name: String,
    partitions: Vec<FlatLog>,
    round_robin: u64,
}

impl Topic {
    /// Creates a topic with `partitions` partitions.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidPartitionCount`] if `partitions == 0`.
    pub fn new(name: impl Into<String>, partitions: u32) -> Result<Self, StreamError> {
        if partitions == 0 {
            return Err(StreamError::InvalidPartitionCount);
        }
        Ok(Topic {
            name: name.into(),
            partitions: (0..partitions).map(|_| FlatLog::new()).collect(),
            round_robin: 0,
        })
    }

    /// Gives every partition a time horizon.
    pub fn set_horizon(&mut self, horizon: u64) {
        self.partitions.iter_mut().for_each(|log| log.set_horizon(horizon));
    }

    /// Commits `offset` as a partition's floor.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] for an invalid index.
    pub fn commit(&mut self, partition: u32, offset: u64) -> Result<(), StreamError> {
        let name = &self.name;
        self.partitions
            .get_mut(partition as usize)
            .map(|log| log.commit(offset))
            .ok_or_else(|| StreamError::UnknownPartition { topic: name.clone(), partition })
    }

    /// Topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// The partition a key routes to.
    pub fn partition_for_key(&self, key: &[u8]) -> u32 {
        (fnv1a(key) % self.partitions.len() as u64) as u32
    }

    /// Appends a record, routing by `partition` if given, else by key hash,
    /// else round-robin. Returns `(partition, offset)`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] for an explicit partition
    /// out of range.
    pub fn append(
        &mut self,
        partition: Option<u32>,
        key: Option<Bytes>,
        value: Bytes,
        timestamp: u64,
    ) -> Result<(u32, u64), StreamError> {
        let p = match (partition, &key) {
            (Some(p), _) => {
                if p >= self.partition_count() {
                    return Err(StreamError::UnknownPartition {
                        topic: self.name.clone(),
                        partition: p,
                    });
                }
                p
            }
            (None, Some(k)) => self.partition_for_key(k),
            (None, None) => {
                let p = (self.round_robin % self.partitions.len() as u64) as u32;
                self.round_robin += 1;
                p
            }
        };
        let offset = self.partitions[p as usize].append(key, value, timestamp);
        Ok((p, offset))
    }

    /// Fetches up to `max` records from a partition starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] or
    /// [`StreamError::OffsetOutOfRange`].
    pub fn read(
        &self,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<OracleRecord>, StreamError> {
        let log = self
            .partitions
            .get(partition as usize)
            .ok_or_else(|| StreamError::UnknownPartition { topic: self.name.clone(), partition })?;
        log.read(offset, max)
    }

    /// Next offset of a partition (the "end" position).
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] for an invalid index.
    pub fn end_offset(&self, partition: u32) -> Result<u64, StreamError> {
        self.partitions
            .get(partition as usize)
            .map(FlatLog::next_offset)
            .ok_or_else(|| StreamError::UnknownPartition { topic: self.name.clone(), partition })
    }

    /// Earliest retained offset of a partition.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownPartition`] for an invalid index.
    pub fn earliest_offset(&self, partition: u32) -> Result<u64, StreamError> {
        self.partitions
            .get(partition as usize)
            .map(FlatLog::earliest_offset)
            .ok_or_else(|| StreamError::UnknownPartition { topic: self.name.clone(), partition })
    }

    /// Total records currently retained across all partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(FlatLog::len).sum()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn zero_partitions_rejected() {
        assert_eq!(Topic::new("t", 0).unwrap_err(), StreamError::InvalidPartitionCount);
    }

    #[test]
    fn keyed_records_stay_in_one_partition() {
        let mut t = Topic::new("IN-DATA", 3).unwrap();
        let mut partitions = std::collections::HashSet::new();
        for i in 0..20u64 {
            let (p, _) = t.append(None, Some(val("veh-7")), val(&i.to_string()), i).unwrap();
            partitions.insert(p);
        }
        assert_eq!(partitions.len(), 1, "same key must map to same partition");
    }

    #[test]
    fn different_keys_spread_across_partitions() {
        let mut t = Topic::new("IN-DATA", 3).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..100u64 {
            let key = format!("veh-{i}");
            let (p, _) = t.append(None, Some(Bytes::from(key)), val("x"), i).unwrap();
            seen.insert(p);
        }
        assert_eq!(seen.len(), 3, "100 keys should hit all 3 partitions");
    }

    #[test]
    fn keyless_round_robin() {
        let mut t = Topic::new("t", 3).unwrap();
        let ps: Vec<u32> = (0..6).map(|i| t.append(None, None, val("x"), i).unwrap().0).collect();
        assert_eq!(ps, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn explicit_partition_respected_and_validated() {
        let mut t = Topic::new("t", 2).unwrap();
        let (p, o) = t.append(Some(1), None, val("x"), 0).unwrap();
        assert_eq!((p, o), (1, 0));
        let err = t.append(Some(5), None, val("x"), 0).unwrap_err();
        assert!(matches!(err, StreamError::UnknownPartition { partition: 5, .. }));
    }

    #[test]
    fn per_partition_offsets_are_independent() {
        let mut t = Topic::new("t", 2).unwrap();
        t.append(Some(0), None, val("a"), 0).unwrap();
        let (_, o) = t.append(Some(1), None, val("b"), 0).unwrap();
        assert_eq!(o, 0, "partition 1 starts at offset 0");
        assert_eq!(t.end_offset(0).unwrap(), 1);
        assert_eq!(t.end_offset(1).unwrap(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fetch_from_partition() {
        let mut t = Topic::new("t", 1).unwrap();
        for i in 0..5u64 {
            t.append(None, None, val(&i.to_string()), i).unwrap();
        }
        let batch = t.read(0, 2, 10).unwrap();
        assert_eq!(batch.len(), 3);
        assert!(t.read(9, 0, 1).is_err());
    }
}
