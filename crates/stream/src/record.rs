use bytes::Bytes;
use cad3_obs::TraceContext;

/// An interned topic name.
///
/// Topic names are interned once, at topic creation, and shared by
/// reference by every handle after. Plain `std::sync::Arc` even under loom:
/// the payload is immutable data, never used for synchronisation.
pub type TopicName = std::sync::Arc<str>;

/// A record stored in a partition log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Offset within the partition (assigned at append time).
    pub offset: u64,
    /// Optional partitioning key.
    pub key: Option<Bytes>,
    /// Payload.
    pub value: Bytes,
    /// Timestamp the writer supplied (virtual nanoseconds in the simulation).
    pub timestamp: u64,
    /// Distributed-trace header slot. `Copy` and `None` for every untraced
    /// record, so the unsampled path allocates nothing. The partition log
    /// stores headers out-of-band and joins them back in at fetch time, so
    /// the stored record carries no header slot; the header is also
    /// out-of-band relative to [`Record::wire_size`] (tracing must not
    /// perturb the paper's bandwidth results).
    pub trace: Option<TraceContext>,
}

impl Record {
    /// Approximate size of the record on the wire, in bytes. The trace
    /// header is deliberately excluded — see [`Record::trace`].
    pub fn wire_size(&self) -> usize {
        self.key.as_ref().map_or(0, |k| k.len()) + self.value.len() + 16
    }
}

/// A record returned by [`crate::Consumer::poll`], annotated with its
/// partition.
///
/// The partition log's window walk builds it in place in the poll's output
/// ([`crate::PartitionLog::fetch_into`]), so a polled record costs two
/// refcount increments (key and value) and nothing else. It names no topic:
/// every consumer in the pipeline subscribes to one, so its caller knows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchedRecord {
    /// Partition index within the topic.
    pub partition: u32,
    /// Offset within the partition.
    pub offset: u64,
    /// Optional partitioning key.
    pub key: Option<Bytes>,
    /// Payload.
    pub value: Bytes,
    /// Timestamp the writer supplied.
    pub timestamp: u64,
    /// Distributed-trace header carried through from the stored
    /// [`Record`].
    pub trace: Option<TraceContext>,
}

impl From<FetchedRecord> for Record {
    /// Drops the partition: what the by-name fetch returns.
    fn from(r: FetchedRecord) -> Self {
        Record {
            offset: r.offset,
            key: r.key,
            value: r.value,
            timestamp: r.timestamp,
            trace: r.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_counts_key_value_and_header() {
        let r = Record {
            offset: 0,
            key: Some(Bytes::from_static(b"abc")),
            value: Bytes::from_static(b"0123456789"),
            timestamp: 0,
            trace: None,
        };
        assert_eq!(r.wire_size(), 3 + 10 + 16);
        let keyless = Record { key: None, ..r };
        assert_eq!(keyless.wire_size(), 10 + 16);
        // The trace header is out-of-band: it never changes wire accounting.
        let traced = Record { trace: Some(TraceContext::from_parts(1, 2, 0)), ..keyless.clone() };
        assert_eq!(traced.wire_size(), 10 + 16);
    }
}
