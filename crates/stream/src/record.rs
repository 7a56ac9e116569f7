use bytes::Bytes;
use cad3_obs::TraceContext;

/// An interned topic name.
///
/// Topic names are interned once, at topic creation, and shared by
/// reference by every handle after. Plain `std::sync::Arc` even under loom:
/// the payload is immutable data, never used for synchronisation.
pub type TopicName = std::sync::Arc<str>;

/// A record visited in place by [`crate::Consumer::poll_each`]: borrowed
/// from its partition log, under the partition's lock, for one call of the
/// visitor.
///
/// It names no topic: every consumer in the pipeline subscribes to one, so
/// its caller knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Partition index within the topic.
    pub partition: u32,
    /// Offset within the partition.
    pub offset: u64,
    /// Optional partitioning key.
    pub key: Option<&'a Bytes>,
    /// Payload.
    pub value: &'a Bytes,
    /// Timestamp the writer supplied.
    pub timestamp: u64,
    /// Distributed-trace header, joined back in from the log's side deque.
    pub trace: Option<TraceContext>,
}

impl RecordView<'_> {
    /// The owned record: one refcount increment each for key and value.
    pub fn to_fetched(&self) -> FetchedRecord {
        FetchedRecord {
            partition: self.partition,
            offset: self.offset,
            key: self.key.cloned(),
            value: self.value.clone(),
            timestamp: self.timestamp,
            trace: self.trace,
        }
    }
}

/// A record returned by [`crate::Consumer::poll`], annotated with its
/// partition: a [`RecordView`] made owned, so a polled record costs two
/// refcount increments (key and value) and nothing else.
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
    /// Distributed-trace header, carried through from the
    /// [`RecordView`].
    pub trace: Option<TraceContext>,
}
