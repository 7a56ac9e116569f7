//! Embedded event-streaming substrate — the reproduction's stand-in for
//! Apache Kafka.
//!
//! The paper runs one Kafka broker per RSU with three topics: `IN-DATA`
//! (vehicle status ingestion), `OUT-DATA` (detected-anomaly warnings) and
//! `CO-DATA` (inter-RSU collaboration summaries), each with three
//! partitions. This crate implements the semantics the paper's pipeline
//! relies on, from scratch:
//!
//! * [`PartitionLog`] — append-only offset-addressed logs in
//!   fixed-capacity chunks, so growth never re-copies a record; an append
//!   frees the records below the reader's committed floor and, on a topic
//!   with a time horizon, those stamped more than it before the append.
//! * [`SharedTopic`] — key-hash partitioning across a fixed partition
//!   count: immutable metadata plus one mutex per partition, so appends and
//!   fetches to different partitions never contend. (Its single-threaded
//!   reference semantics live in `tests/support/` as the proptest oracle.)
//! * [`Broker`] — thread-safe topic registry; every vehicle uplink (the
//!   paper's Kafka producers) appends by name through
//!   [`Broker::produce_traced`]. Its locks form two ranks: the registry
//!   (20), then one partition (30).
//! * [`Consumer`] — an independent reader: its own position in every
//!   partition of the topics it subscribes to, `poll` and `commit`.
//!
//! A partition has one way in and one way out: [`SharedTopic::append`]
//! (which [`Broker::produce_traced`] runs by name) writes, and
//! [`SharedTopic::fetch_each`] (which [`Consumer::poll_each`] walks, and
//! [`Consumer::poll`] collects into [`FetchedRecord`]s) reads. A record is
//! either a [`RecordView`] borrowed from its log or a [`FetchedRecord`]
//! made owned from one.
//!
//! # Example
//!
//! ```
//! use bytes::Bytes;
//! use cad3_stream::{Broker, Consumer, OffsetReset};
//! use std::sync::Arc;
//!
//! let broker = Arc::new(Broker::new("rsu-motorway"));
//! broker.create_topic("IN-DATA", 3)?;
//!
//! // A vehicle publishes by name; the key picks the partition. This record
//! // carries no trace header.
//! let (key, value) = (Bytes::from_static(b"veh-1"), Bytes::from_static(b"hello"));
//! broker.produce_traced("IN-DATA", None, Some(key), value, 0, None)?;
//!
//! let mut consumer = Consumer::new(Arc::clone(&broker), "detector", OffsetReset::Earliest);
//! consumer.subscribe(&["IN-DATA"])?;
//! let records = consumer.poll(10)?;
//! assert_eq!(records.len(), 1);
//! assert_eq!(&records[0].value[..], b"hello");
//! # Ok::<(), cad3_stream::StreamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod consumer;
mod error;
mod partition;
mod record;
mod shard;
mod sync;

pub use broker::Broker;
pub use consumer::{Consumer, OffsetReset};
pub use error::StreamError;
pub use partition::PartitionLog;
pub use record::{FetchedRecord, RecordView, TopicName};
pub use shard::SharedTopic;

/// Topic name for vehicle status ingestion (the paper's `IN-DATA`).
pub const TOPIC_IN_DATA: &str = "IN-DATA";
/// Topic name for detected-anomaly warnings (the paper's `OUT-DATA`).
pub const TOPIC_OUT_DATA: &str = "OUT-DATA";
/// Topic name for inter-RSU collaboration summaries (the paper's `CO-DATA`).
pub const TOPIC_CO_DATA: &str = "CO-DATA";

/// Partitions per topic in the paper's setup ("we assign three partitions
/// for each topic to speed up reading and writing").
pub const PAPER_PARTITIONS: u32 = 3;
