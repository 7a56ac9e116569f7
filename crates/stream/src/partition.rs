use crate::{Record, StreamError};
use bytes::Bytes;
use cad3_types::{index_usize, len_u64};
use std::collections::VecDeque;

/// Records per chunk of a [`PartitionLog`]: 32 768 × 72 B ≈ 2.3 MiB.
///
/// Chosen by measuring `dense_4096v`'s 2 048-record poll, which the chunk size
/// moves through the allocator (glibc sets its dynamic mmap threshold from the
/// blocks it frees): at this size the poll stays within a few per cent of an
/// unchunked log without tuning the allocator, where 4 096-record chunks read
/// slower (DESIGN.md, "Chunk size is set by the poll, through the allocator").
const CHUNK_RECORDS: usize = 32_768;

/// The in-log record representation, 72 bytes. A record's offset is its
/// position (see [`PartitionLog::locate`]), so it is not stored, and the
/// distributed-trace header is kept *out-of-band* (see
/// [`PartitionLog::traces`]) so the untraced append path pushes no header
/// slot — both are joined back in at fetch time.
#[derive(Debug, Clone)]
struct StoredRecord {
    key: Option<Bytes>,
    value: Bytes,
    timestamp: u64,
}

/// An append-only, offset-addressed log — one partition of a topic.
///
/// Offsets are dense and monotonically increasing. An optional retention
/// limit bounds memory: old records are dropped from the head but offsets
/// keep counting, exactly like a Kafka log after segment deletion.
///
/// Records live in chunks of `CHUNK_RECORDS`, each allocated once at that
/// capacity, so an append never moves a stored record: the log grows by a
/// chunk, never by re-copying itself. Every chunk between the front and the
/// back is full; the front holds what retention has left of its chunk, the
/// back what has been appended to its chunk so far.
#[derive(Debug, Clone, Default)]
pub struct PartitionLog {
    /// Oldest chunk first. Never holds an empty chunk unless it is the only
    /// one, which a retention of zero records leaves in place for reuse.
    chunks: VecDeque<VecDeque<StoredRecord>>,
    /// Retained records, summed over `chunks`.
    len: usize,
    /// `(offset, context)` of traced records only, ascending by offset.
    /// Empty for the lifetime of an untraced run, so the hot paths pay one
    /// branch: `is_some()` at append, `is_empty()` at fetch.
    traces: VecDeque<(u64, cad3_obs::TraceContext)>,
    base_offset: u64,
    retention_records: Option<usize>,
    total_bytes: u64,
}

impl PartitionLog {
    /// Creates an empty log with unbounded retention.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty log that retains at most `max_records`.
    pub fn with_retention(max_records: usize) -> Self {
        PartitionLog { retention_records: Some(max_records), ..Self::default() }
    }

    /// Appends an untraced record, returning its assigned offset.
    pub fn append(&mut self, key: Option<Bytes>, value: Bytes, timestamp: u64) -> u64 {
        self.append_traced(key, value, timestamp, None)
    }

    /// Appends a record carrying an optional distributed-trace header,
    /// returning its assigned offset.
    ///
    /// Debug builds check the chunk layout after every append: full chunks
    /// between the front and the back, none beyond capacity, lengths summing
    /// to [`PartitionLog::len`].
    pub fn append_traced(
        &mut self,
        key: Option<Bytes>,
        value: Bytes,
        timestamp: u64,
        trace: Option<cad3_obs::TraceContext>,
    ) -> u64 {
        let offset = self.next_offset();
        self.total_bytes += len_u64(value.len());
        let record = StoredRecord { key, value, timestamp };
        match self.chunks.back_mut() {
            Some(chunk) if chunk.len() < CHUNK_RECORDS => chunk.push_back(record),
            _ => {
                let mut chunk = VecDeque::with_capacity(CHUNK_RECORDS);
                chunk.push_back(record);
                self.chunks.push_back(chunk);
            }
        }
        self.len += 1;
        if let Some(ctx) = trace {
            self.traces.push_back((offset, ctx));
        }
        if let Some(max) = self.retention_records {
            while self.len > max {
                self.drop_oldest();
            }
            while self.traces.front().is_some_and(|&(o, _)| o < self.base_offset) {
                self.traces.pop_front();
            }
        }
        self.debug_assert_layout();
        offset
    }

    /// Drops the earliest retained record, freeing its chunk once empty.
    fn drop_oldest(&mut self) {
        let Some(front) = self.chunks.front_mut() else { return };
        if front.pop_front().is_none() {
            return;
        }
        let emptied = front.is_empty();
        self.len -= 1;
        self.base_offset += 1;
        if emptied && self.chunks.len() > 1 {
            self.chunks.pop_front();
        }
    }

    /// Debug-only invariant: every chunk but the front and the back is
    /// full, none holds more than its capacity, only a lone chunk is empty,
    /// and the chunk lengths sum to `len`.
    fn debug_assert_layout(&self) {
        #[cfg(debug_assertions)]
        {
            let last = self.chunks.len().saturating_sub(1);
            let mut total = 0;
            for (i, chunk) in self.chunks.iter().enumerate() {
                debug_assert!(chunk.len() <= CHUNK_RECORDS, "chunk {i} over capacity");
                debug_assert!(i == 0 || i == last || chunk.len() == CHUNK_RECORDS, "chunk {i} gap");
                debug_assert!(last == 0 || !chunk.is_empty(), "empty chunk {i} of {}", last + 1);
                total += chunk.len();
            }
            debug_assert_eq!(total, self.len, "chunk lengths must sum to the log length");
        }
    }

    /// `(chunk, position)` of the record `index` places after the earliest
    /// retained one: the front chunk holds the first `front.len()`, every
    /// later chunk [`CHUNK_RECORDS`] more.
    fn locate(&self, index: usize) -> (usize, usize) {
        let front = self.chunks.front().map_or(0, VecDeque::len);
        if index < front {
            return (0, index);
        }
        let rest = index - front;
        (1 + rest / CHUNK_RECORDS, rest % CHUNK_RECORDS)
    }

    /// Offset the next appended record will receive.
    pub fn next_offset(&self) -> u64 {
        self.base_offset + len_u64(self.len)
    }

    /// Earliest offset still retained.
    pub fn earliest_offset(&self) -> u64 {
        self.base_offset
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log retains no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total payload bytes ever appended (not reduced by retention).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Reads up to `max` records starting at `offset`.
    ///
    /// An `offset` at or past the log end returns an empty batch (a caught-up
    /// consumer), matching Kafka fetch semantics.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::OffsetOutOfRange`] if `offset` has been
    /// truncated by retention.
    pub fn fetch(&self, offset: u64, max: usize) -> Result<Vec<Record>, StreamError> {
        if offset < self.base_offset {
            return Err(StreamError::OffsetOutOfRange {
                requested: offset,
                earliest: self.base_offset,
            });
        }
        let start = index_usize(offset - self.base_offset);
        if start >= self.len {
            return Ok(Vec::new());
        }
        let count = max.min(self.len - start);
        if self.traces.is_empty() {
            // Untraced run: no per-record trace work at all on the hot path.
            return Ok(self.window(start, count, |offset, s| Record {
                offset,
                key: s.key.clone(),
                value: s.value.clone(),
                timestamp: s.timestamp,
                trace: None,
            }));
        }
        // Merge-join the side deque: one binary search to position a cursor,
        // then a compare-and-advance per record (both sides ascend by offset).
        let mut next_trace = self.traces.partition_point(|&(o, _)| o < offset);
        Ok(self.window(start, count, |offset, s| {
            let trace = match self.traces.get(next_trace) {
                Some(&(o, ctx)) if o == offset => {
                    next_trace += 1;
                    Some(ctx)
                }
                _ => None,
            };
            Record {
                offset,
                key: s.key.clone(),
                value: s.value.clone(),
                timestamp: s.timestamp,
                trace,
            }
        }))
    }

    /// The `count` records from `start` (an index from the earliest retained
    /// record; `start + count <= len`), each with its offset, mapped through
    /// `record` into one exact-size vector, a chunk's contiguous run at a time.
    fn window(
        &self,
        start: usize,
        count: usize,
        mut record: impl FnMut(u64, &StoredRecord) -> Record,
    ) -> Vec<Record> {
        let mut out = Vec::with_capacity(count);
        let mut offset = self.base_offset + len_u64(start);
        let (first, mut position) = self.locate(start);
        for chunk in self.chunks.range(first..) {
            let take = (count - out.len()).min(chunk.len() - position);
            out.extend(chunk.range(position..position + take).map(|s| {
                offset += 1;
                record(offset - 1, s)
            }));
            if out.len() == count {
                break;
            }
            position = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn stored_record_is_72_bytes() {
        assert_eq!(std::mem::size_of::<StoredRecord>(), 72);
    }

    #[test]
    fn offsets_are_dense_from_zero() {
        let mut log = PartitionLog::new();
        for i in 0..5u64 {
            assert_eq!(log.append(None, val("x"), i), i);
        }
        assert_eq!(log.next_offset(), 5);
        assert_eq!(log.earliest_offset(), 0);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn fetch_returns_requested_window() {
        let mut log = PartitionLog::new();
        for i in 0..10u64 {
            log.append(None, val(&i.to_string()), i);
        }
        let batch = log.fetch(3, 4).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].offset, 3);
        assert_eq!(batch[3].offset, 6);
        assert_eq!(batch[0].value, val("3"));
    }

    #[test]
    fn fetch_past_end_is_empty_not_error() {
        let mut log = PartitionLog::new();
        log.append(None, val("a"), 0);
        assert!(log.fetch(1, 10).unwrap().is_empty());
        assert!(log.fetch(100, 10).unwrap().is_empty());
    }

    #[test]
    fn retention_drops_head_but_offsets_continue() {
        let mut log = PartitionLog::with_retention(3);
        for i in 0..10u64 {
            log.append(None, val("x"), i);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.earliest_offset(), 7);
        assert_eq!(log.next_offset(), 10);
        let err = log.fetch(2, 5).unwrap_err();
        assert_eq!(err, StreamError::OffsetOutOfRange { requested: 2, earliest: 7 });
        let batch = log.fetch(7, 5).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].offset, 7);
    }

    #[test]
    fn total_bytes_accumulates() {
        let mut log = PartitionLog::with_retention(1);
        log.append(None, val("aaaa"), 0);
        log.append(None, val("bb"), 1);
        assert_eq!(log.total_bytes(), 6);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn trace_headers_ride_out_of_band_and_respect_retention() {
        let mut log = PartitionLog::with_retention(2);
        let ctx = cad3_obs::TraceContext::from_parts(9, 3, 1);
        log.append(None, val("a"), 0);
        log.append_traced(None, val("b"), 1, Some(ctx));
        let batch = log.fetch(0, 10).unwrap();
        assert_eq!(batch[0].trace, None, "untraced records fetch without a header");
        assert_eq!(batch[1].trace, Some(ctx), "the header joins back in at fetch");
        // Retention evicts the header together with its record.
        log.append(None, val("c"), 2);
        log.append(None, val("d"), 3);
        assert_eq!(log.earliest_offset(), 2);
        assert!(log.traces.is_empty(), "evicted record's header must be trimmed");
        assert!(log.fetch(2, 10).unwrap().iter().all(|r| r.trace.is_none()));
    }

    #[test]
    fn preserves_keys_and_timestamps() {
        let mut log = PartitionLog::new();
        log.append(Some(val("k")), val("v"), 42);
        let r = &log.fetch(0, 1).unwrap()[0];
        assert_eq!(r.key.as_ref().unwrap(), &val("k"));
        assert_eq!(r.timestamp, 42);
    }

    #[test]
    fn zero_retention_keeps_nothing_and_reuses_its_chunk() {
        let mut log = PartitionLog::with_retention(0);
        for i in 0..3u64 {
            assert_eq!(log.append(None, val("x"), i), i);
        }
        assert!(log.is_empty());
        assert_eq!((log.earliest_offset(), log.next_offset()), (3, 3));
        assert_eq!(log.chunks.len(), 1, "the lone emptied chunk is kept for reuse");
        assert!(log.fetch(3, 10).unwrap().is_empty());
        assert!(matches!(log.fetch(2, 1), Err(StreamError::OffsetOutOfRange { .. })));
    }

    /// Chunk boundaries, against an arithmetic model of the log: the record
    /// at offset `o` has value `o` (big-endian) and timestamp `o`, carries a
    /// trace header iff `traced(o)`, and is retained iff `o` is among the
    /// last `retention` appended. Appends run to `4C + 13` (`C` the chunk
    /// capacity), so an unbounded log crosses four boundaries; retentions
    /// of 1, `C − 1`, `C`, `C + 1` and `3C + 7` each sit differently against
    /// them, and the larger ones free whole chunks.
    #[test]
    fn fetch_windows_match_the_model_across_chunk_boundaries() {
        const C: usize = CHUNK_RECORDS;
        let c = len_u64(C);
        let end = 4 * c + 13;
        let boundaries: Vec<u64> = (1..=4).map(|k| k * c).collect();
        // Headers on both sides of every boundary, and a sparse sprinkling.
        let traced = |o: u64| boundaries.iter().any(|&b| o + 2 >= b && o <= b + 1) || o % 997 == 5;
        let expected = |o: u64| Record {
            offset: o,
            key: None,
            value: Bytes::copy_from_slice(&o.to_be_bytes()),
            timestamp: o,
            trace: traced(o).then(|| cad3_obs::TraceContext::from_parts(o + 1, o, 0)),
        };
        for retention in [None, Some(1), Some(C - 1), Some(C), Some(C + 1), Some(3 * C + 7)] {
            let mut log = retention.map_or_else(PartitionLog::new, PartitionLog::with_retention);
            for o in 0..end {
                let value = Bytes::copy_from_slice(&o.to_be_bytes());
                let trace = expected(o).trace;
                assert_eq!(log.append_traced(None, value, o, trace), o);
            }
            let earliest = retention.map_or(0, |r| end.saturating_sub(len_u64(r)));
            assert_eq!((log.earliest_offset(), log.next_offset()), (earliest, end));
            assert_eq!(log.len(), index_usize(end - earliest));
            let expect_window = |start: u64, max: usize| -> Result<Vec<Record>, StreamError> {
                if start < earliest {
                    return Err(StreamError::OffsetOutOfRange { requested: start, earliest });
                }
                let stop = end.min(start.saturating_add(len_u64(max)));
                Ok((start..stop.max(start)).map(expected).collect())
            };
            let mut starts = vec![0, 1, earliest.saturating_sub(1), earliest, earliest + 1];
            starts.extend([end - 2, end - 1, end, end + 1]);
            for b in &boundaries {
                starts.extend([b - 2, b - 1, *b, b + 1]);
            }
            starts.sort_unstable();
            starts.dedup();
            for &start in &starts {
                for max in [0, 1, 2, 3, C, usize::MAX] {
                    assert_eq!(
                        log.fetch(start, max),
                        expect_window(start, max),
                        "retention {retention:?}, fetch({start}, {max})"
                    );
                }
            }
        }
    }
}
