use crate::{RecordView, StreamError};
use bytes::Bytes;
use cad3_obs::TraceContext;
use cad3_types::{index_usize, len_u64};
use std::collections::VecDeque;

/// Records per chunk of a [`PartitionLog`]: 4 096 × 72 B = 288 KiB.
///
/// The chunk size sets a bounded log's resident floor: a warm RSU partition
/// cycles its records through one chunk, so an RSU's nine partitions keep
/// about nine chunks resident. Measured on `bench_e2e`, 4 096 records gave
/// the lowest `peak_rss_mb` of the sizes tried (4 096 to 32 768) on every
/// workload, and the fastest `dense_4096v` poll: its 2 048-record steps fit
/// a ring that stays in cache (DESIGN.md, "Chunk size sets the resident
/// floor").
const CHUNK_RECORDS: usize = 4_096;

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
/// Offsets are dense and monotonically increasing. Two bounds free the
/// head, both applied by [`PartitionLog::append`] before it stores
/// its record, so a fetch never pays for them:
///
/// * the **floor** ([`PartitionLog::commit`]): records below the offset a
///   reader has committed are dropped, Kafka's at-least-once commit after
///   processing;
/// * the **horizon** ([`PartitionLog::set_horizon`]): records stamped more
///   than the horizon before the appended record are dropped.
///
/// The append pops from the front while the oldest record is below the
/// floor or past the horizon, so it drops the longest such prefix; offsets
/// keep counting, exactly like a Kafka log after segment deletion.
///
/// Records live in chunks of `CHUNK_RECORDS`, each allocated once at that
/// capacity, so an append never moves a stored record: the log grows by a
/// chunk, never by re-copying itself. Every chunk between the front and the
/// back is full; the front holds what the trim has left of its chunk, the
/// back what has been appended to its chunk so far. A chunk the trim
/// empties is kept as the next back chunk, so a log the bounds hold under
/// one chunk allocates nothing once warm.
#[derive(Debug, Clone, Default)]
pub struct PartitionLog {
    /// Oldest chunk first. Never holds an empty chunk unless it is the only
    /// one, which a trim that empties the log leaves in place for reuse.
    chunks: VecDeque<VecDeque<StoredRecord>>,
    /// An emptied chunk, kept at its capacity for the next append that
    /// needs a chunk. At most one: a burst's further chunks are freed.
    spare: Option<VecDeque<StoredRecord>>,
    /// Retained records, summed over `chunks`.
    len: usize,
    /// `(offset, context)` of traced records only, ascending by offset.
    /// Empty for the lifetime of an untraced run, so the hot paths pay one
    /// branch: `is_some()` at append, `is_empty()` at fetch.
    traces: VecDeque<(u64, TraceContext)>,
    base_offset: u64,
    /// The committed offset: the next append drops every record below it.
    floor: u64,
    /// Nanoseconds of timestamp an append keeps behind its own record;
    /// `None` keeps every record the floor keeps.
    horizon_ns: Option<u64>,
}

impl PartitionLog {
    /// Creates an empty log that keeps every record until a commit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the log's time horizon: from the next append on, a record
    /// stamped more than `horizon_ns` before an appended one is dropped.
    pub fn set_horizon(&mut self, horizon_ns: u64) {
        self.horizon_ns = Some(horizon_ns);
    }

    /// Commits `offset` as the log's floor: the next append drops every
    /// record below it. Nothing is freed here, so a commit costs one store.
    pub fn commit(&mut self, offset: u64) {
        self.floor = offset;
    }

    /// Appends a record carrying an optional distributed-trace header,
    /// returning its assigned offset. First drops, from the front, every
    /// record below the floor or stamped more than the horizon before
    /// `timestamp` (see the type docs).
    ///
    /// Debug builds check the chunk layout after every append: full chunks
    /// between the front and the back, none beyond capacity, lengths summing
    /// to [`PartitionLog::len`], the spare empty.
    pub fn append(
        &mut self,
        key: Option<Bytes>,
        value: Bytes,
        timestamp: u64,
        trace: Option<TraceContext>,
    ) -> u64 {
        self.trim(timestamp);
        let offset = self.next_offset();
        let record = StoredRecord { key, value, timestamp };
        match self.chunks.back_mut() {
            Some(chunk) if chunk.len() < CHUNK_RECORDS => chunk.push_back(record),
            _ => {
                let mut chunk =
                    self.spare.take().unwrap_or_else(|| VecDeque::with_capacity(CHUNK_RECORDS));
                chunk.push_back(record);
                self.chunks.push_back(chunk);
            }
        }
        self.len += 1;
        if let Some(ctx) = trace {
            self.traces.push_back((offset, ctx));
        }
        self.debug_assert_layout();
        offset
    }

    /// Pops the oldest record while it is below the floor or stamped more
    /// than the horizon before `now`. An emptied chunk restarts at its first
    /// slot; if it is not the last one it is dropped from the deque and kept
    /// as the spare if there is none.
    fn trim(&mut self, now: u64) {
        while let Some(front) = self.chunks.front_mut() {
            let expired = |r: &StoredRecord| {
                self.horizon_ns.is_some_and(|h| now.saturating_sub(r.timestamp) > h)
            };
            match front.front() {
                Some(oldest) if self.base_offset < self.floor || expired(oldest) => {}
                _ => break,
            }
            front.pop_front();
            self.len -= 1;
            self.base_offset += 1;
            if front.is_empty() {
                // Restart the ring at slot 0: a log its reader empties on
                // every commit then refills the same warm lines instead of
                // walking the whole chunk.
                front.clear();
                if self.chunks.len() > 1 {
                    let emptied = self.chunks.pop_front();
                    self.spare = self.spare.take().or(emptied);
                }
            }
        }
        while self.traces.front().is_some_and(|&(o, _)| o < self.base_offset) {
            self.traces.pop_front();
        }
    }

    /// Debug-only invariant: every chunk but the front and the back is
    /// full, none holds more than its capacity, only a lone chunk is empty,
    /// the chunk lengths sum to `len`, and the spare holds nothing.
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
            debug_assert!(
                self.spare.as_ref().is_none_or(VecDeque::is_empty),
                "spare holds records"
            );
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

    /// Visits up to `max` records starting at `offset`, in offset order, as
    /// [`RecordView`]s of `partition` borrowed from the log; returns how
    /// many it visited. Past the log end it visits none (a caught-up
    /// reader), matching Kafka fetch semantics.
    ///
    /// The walk copies nothing: a chunk's contiguous run at a time, each
    /// record with its offset and, on a traced log, its header merge-joined
    /// from the side deque.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::OffsetOutOfRange`] if `offset` has been
    /// trimmed; nothing is then visited.
    pub fn fetch_each(
        &self,
        partition: u32,
        offset: u64,
        max: usize,
        mut visit: impl FnMut(RecordView<'_>),
    ) -> Result<usize, StreamError> {
        if offset < self.base_offset {
            return Err(StreamError::OffsetOutOfRange {
                requested: offset,
                earliest: self.base_offset,
            });
        }
        let start = index_usize(offset - self.base_offset);
        if start >= self.len {
            return Ok(0);
        }
        let count = max.min(self.len - start);
        // Both sides ascend by offset: one binary search positions the
        // trace cursor, then a compare-and-advance per record. An untraced
        // log's cursor sits at the end of an empty deque.
        let mut next_trace = self.traces.partition_point(|&(o, _)| o < offset);
        let mut offset = offset;
        let mut left = count;
        let (first, mut position) = self.locate(start);
        for chunk in self.chunks.range(first..) {
            let take = left.min(chunk.len() - position);
            for s in chunk.range(position..position + take) {
                let trace = match self.traces.get(next_trace) {
                    Some(&(o, ctx)) if o == offset => {
                        next_trace += 1;
                        Some(ctx)
                    }
                    _ => None,
                };
                visit(RecordView {
                    partition,
                    offset,
                    key: s.key.as_ref(),
                    value: &s.value,
                    timestamp: s.timestamp,
                    trace,
                });
                offset += 1;
            }
            left -= take;
            if left == 0 {
                break;
            }
            position = 0;
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FetchedRecord;

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Up to `max` records from `offset`, read as `Consumer::poll` reads
    /// them: [`PartitionLog::fetch_each`], each view made owned.
    fn window(
        log: &PartitionLog,
        offset: u64,
        max: usize,
    ) -> Result<Vec<FetchedRecord>, StreamError> {
        let mut out = Vec::new();
        log.fetch_each(0, offset, max, |r| out.push(r.to_fetched()))?;
        Ok(out)
    }

    #[test]
    fn stored_record_is_72_bytes() {
        assert_eq!(std::mem::size_of::<StoredRecord>(), 72);
    }

    #[test]
    fn offsets_are_dense_from_zero() {
        let mut log = PartitionLog::new();
        for i in 0..5u64 {
            assert_eq!(log.append(None, val("x"), i, None), i);
        }
        assert_eq!(log.next_offset(), 5);
        assert_eq!(log.earliest_offset(), 0);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn fetch_returns_requested_window() {
        let mut log = PartitionLog::new();
        for i in 0..10u64 {
            log.append(None, val(&i.to_string()), i, None);
        }
        let batch = window(&log, 3, 4).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].offset, 3);
        assert_eq!(batch[3].offset, 6);
        assert_eq!(batch[0].value, val("3"));
    }

    #[test]
    fn fetch_each_visits_its_window_tagged_with_its_partition() {
        let mut log = PartitionLog::new();
        for i in 0..10u64 {
            log.append(Some(val("k")), val(&i.to_string()), i, None);
        }
        let mut out = Vec::new();
        let mut visit = |r: RecordView<'_>| out.push(r.to_fetched());
        assert_eq!(log.fetch_each(2, 3, 4, &mut visit), Ok(4));
        assert_eq!(log.fetch_each(2, 9, 4, &mut visit), Ok(1), "visits from the offset asked");
        assert_eq!(log.fetch_each(2, 10, 4, &mut visit), Ok(0));
        let got: Vec<(u32, u64, u64, &[u8])> =
            out.iter().map(|r| (r.partition, r.offset, r.timestamp, &r.value[..])).collect();
        let want: Vec<(u32, u64, u64, &[u8])> = vec![
            (2, 3, 3, b"3"),
            (2, 4, 4, b"4"),
            (2, 5, 5, b"5"),
            (2, 6, 6, b"6"),
            (2, 9, 9, b"9"),
        ];
        assert_eq!(got, want);
        assert!(out.iter().all(|r| r.key.as_deref() == Some(&b"k"[..]) && r.trace.is_none()));
    }

    #[test]
    fn fetch_past_end_is_empty_not_error() {
        let mut log = PartitionLog::new();
        log.append(None, val("a"), 0, None);
        assert!(window(&log, 1, 10).unwrap().is_empty());
        assert!(window(&log, 100, 10).unwrap().is_empty());
    }

    #[test]
    fn commit_frees_the_head_at_the_next_append_and_offsets_continue() {
        let mut log = PartitionLog::new();
        for i in 0..10u64 {
            log.append(None, val("x"), i, None);
        }
        log.commit(7);
        assert_eq!(log.len(), 10, "a commit frees nothing by itself");
        assert_eq!(log.append(None, val("x"), 10, None), 10);
        assert_eq!(log.len(), 4);
        assert_eq!(log.earliest_offset(), 7);
        assert_eq!(log.next_offset(), 11);
        let err = window(&log, 2, 5).unwrap_err();
        assert_eq!(err, StreamError::OffsetOutOfRange { requested: 2, earliest: 7 });
        let batch = window(&log, 7, 5).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].offset, 7);
    }

    #[test]
    fn horizon_drops_the_prefix_stamped_more_than_it_before_the_append() {
        let mut log = PartitionLog::new();
        log.set_horizon(5);
        for ts in 0..10u64 {
            log.append(None, val("x"), ts, None);
        }
        // The append stamped 9 dropped 0..=3; 4 is exactly the horizon old.
        assert_eq!((log.earliest_offset(), log.len()), (4, 6));

        // The trim stops at the first record it keeps: a late stamp behind
        // a fresh one survives until the fresh one goes.
        let mut log = PartitionLog::new();
        log.set_horizon(50);
        for ts in [10, 100, 20, 120] {
            log.append(None, val("x"), ts, None);
        }
        // The append stamped 100 dropped 10; 20 is 100 old but behind 100.
        assert_eq!(log.earliest_offset(), 1);
        let stamps: Vec<u64> = window(&log, 1, 10).unwrap().iter().map(|r| r.timestamp).collect();
        assert_eq!(stamps, vec![100, 20, 120]);
        log.append(None, val("x"), 151, None);
        assert_eq!(log.earliest_offset(), 3, "100, then the stale 20 behind it, go together");
    }

    #[test]
    fn trace_headers_ride_out_of_band_and_leave_with_their_record() {
        let mut log = PartitionLog::new();
        let ctx = cad3_obs::TraceContext::from_parts(9, 3, 1);
        log.append(None, val("a"), 0, None);
        log.append(None, val("b"), 1, Some(ctx));
        let batch = window(&log, 0, 10).unwrap();
        assert_eq!(batch[0].trace, None, "untraced records fetch without a header");
        assert_eq!(batch[1].trace, Some(ctx), "the header joins back in at fetch");
        // The trim drops the header together with its record.
        log.commit(2);
        log.append(None, val("c"), 2, None);
        log.append(None, val("d"), 3, None);
        assert_eq!(log.earliest_offset(), 2);
        assert!(log.traces.is_empty(), "a trimmed record's header must be trimmed");
        assert!(window(&log, 2, 10).unwrap().iter().all(|r| r.trace.is_none()));
    }

    #[test]
    fn preserves_keys_and_timestamps() {
        let mut log = PartitionLog::new();
        log.append(Some(val("k")), val("v"), 42, None);
        let r = &window(&log, 0, 1).unwrap()[0];
        assert_eq!(r.key.as_ref().unwrap(), &val("k"));
        assert_eq!(r.timestamp, 42);
    }

    #[test]
    fn a_log_trimmed_to_its_newest_record_keeps_one_chunk() {
        let mut log = PartitionLog::new();
        for i in 0..3u64 {
            log.commit(log.next_offset());
            assert_eq!(log.append(None, val("x"), i, None), i);
        }
        assert_eq!(log.len(), 1);
        assert_eq!((log.earliest_offset(), log.next_offset()), (2, 3));
        assert_eq!(log.chunks.len(), 1, "the lone chunk is kept in place");
        assert!(log.spare.is_none(), "and never becomes the spare");
        assert!(window(&log, 3, 10).unwrap().is_empty());
        assert!(matches!(window(&log, 1, 1), Err(StreamError::OffsetOutOfRange { .. })));
    }

    /// Chunk boundaries, against an arithmetic model of the log: the record
    /// at offset `o` has value `o` (big-endian) and timestamp `o`, and
    /// carries a trace header iff `traced(o)`. Appends run to `4C + 13` (`C`
    /// the chunk capacity), so an unbounded log crosses four boundaries.
    /// Floors at `C − 1`, `C`, `C + 1` and `3C + 7`, committed before the
    /// last append, and horizons of 1 and `C` each sit differently against
    /// them; the larger ones free whole chunks. Then every bound commits
    /// the whole log and appends `2C + 5` more: the first of those appends
    /// empties every chunk, the lone one stays in place and the first
    /// emptied one is reused when the log next needs a chunk.
    #[test]
    fn fetch_windows_match_the_model_across_chunk_boundaries() {
        #[derive(Debug, Clone, Copy)]
        enum Bound {
            None,
            Floor(u64),
            Horizon(u64),
        }
        const C: usize = CHUNK_RECORDS;
        let c = len_u64(C);
        let end = 4 * c + 13;
        let boundaries: Vec<u64> = (1..=4).map(|k| k * c).collect();
        // Headers on both sides of every boundary, and a sparse sprinkling.
        let traced = |o: u64| boundaries.iter().any(|&b| o + 2 >= b && o <= b + 1) || o % 997 == 5;
        let expected = |o: u64| FetchedRecord {
            partition: 0,
            offset: o,
            key: None,
            value: Bytes::copy_from_slice(&o.to_be_bytes()),
            timestamp: o,
            trace: traced(o).then(|| TraceContext::from_parts(o + 1, o, 0)),
        };
        let append = |log: &mut PartitionLog, o: u64| {
            let value = Bytes::copy_from_slice(&o.to_be_bytes());
            assert_eq!(log.append(None, value, o, expected(o).trace), o);
        };
        // Every window around the ends and the log's actual chunk boundaries.
        let check = |log: &PartitionLog, earliest: u64, end: u64, label: &str| {
            assert_eq!((log.earliest_offset(), log.next_offset()), (earliest, end), "{label}");
            assert_eq!(log.len(), index_usize(end - earliest), "{label}");
            let expect_window =
                |start: u64, max: usize| -> Result<Vec<FetchedRecord>, StreamError> {
                    if start < earliest {
                        return Err(StreamError::OffsetOutOfRange { requested: start, earliest });
                    }
                    let stop = end.min(start.saturating_add(len_u64(max)));
                    Ok((start..stop.max(start)).map(expected).collect())
                };
            let mut starts = vec![0, 1, earliest.saturating_sub(1), earliest, earliest + 1];
            starts.extend([end - 2, end - 1, end, end + 1]);
            let mut boundary = earliest;
            for chunk in &log.chunks {
                boundary += len_u64(chunk.len());
                starts.extend([boundary.saturating_sub(2), boundary.saturating_sub(1)]);
                starts.extend([boundary, boundary + 1]);
            }
            starts.sort_unstable();
            starts.dedup();
            for &start in &starts {
                for max in [0, 1, 2, 3, C, usize::MAX] {
                    assert_eq!(
                        window(log, start, max),
                        expect_window(start, max),
                        "{label}: fetch({start}, {max})"
                    );
                }
            }
        };
        let bounds = [
            Bound::None,
            Bound::Floor(c - 1),
            Bound::Floor(c),
            Bound::Floor(c + 1),
            Bound::Floor(3 * c + 7),
            Bound::Horizon(1),
            Bound::Horizon(c),
        ];
        for bound in bounds {
            let mut log = PartitionLog::new();
            let horizon = match bound {
                Bound::Horizon(h) => Some(h),
                _ => None,
            };
            if let Some(h) = horizon {
                log.set_horizon(h);
            }
            for o in 0..end - 1 {
                append(&mut log, o);
            }
            if let Bound::Floor(f) = bound {
                log.commit(f);
            }
            append(&mut log, end - 1);
            let kept_by_horizon = |end: u64| horizon.map_or(0, |h| (end - 1).saturating_sub(h));
            let earliest = match bound {
                Bound::Floor(f) => f,
                _ => kept_by_horizon(end),
            };
            check(&log, earliest, end, &format!("{bound:?}"));

            // Reuse: commit everything, then grow past two chunks again.
            let chunks_before = log.chunks.len();
            log.commit(end);
            append(&mut log, end);
            assert_eq!(log.chunks.len(), 1, "{bound:?}: the first append empties the log");
            assert_eq!(log.spare.is_some(), chunks_before > 1, "{bound:?}: one emptied chunk kept");
            let end2 = end + 2 * c + 5;
            for o in end + 1..end2 {
                let spare = log.spare.is_some();
                let chunks = log.chunks.len();
                append(&mut log, o);
                if log.chunks.len() > chunks && spare {
                    assert!(log.spare.is_none(), "{bound:?}: a new back chunk takes the spare");
                }
            }
            let earliest2 = end.max(kept_by_horizon(end2));
            check(&log, earliest2, end2, &format!("{bound:?} after reuse"));
        }
    }
}
