//! Micro-batch stream-processing engine — the reproduction's stand-in for
//! Apache Spark Streaming.
//!
//! The paper configures Spark with a cluster of six workers and 50 ms
//! micro-batches ("RDDs") read from the `IN-DATA` topic. This crate
//! implements the pieces that matter for the pipeline:
//!
//! * [`Executor`] — a fixed pool of long-lived worker threads executing
//!   per-partition tasks in parallel (the "6 worker nodes"): started once by
//!   [`Executor::new`], woken per stage, joined when the last handle drops.
//! * [`PartitionedDataset`] — an RDD-like partitioned collection with
//!   `map` / `filter` / `flat_map` / `reduce` / `group_by_key` operators
//!   that run on an executor. An operator consumes its dataset: each
//!   partition moves, owned, into the job that processes it — on a worker
//!   or on the calling thread — and the closure must be `'static`: share
//!   state with it through an `Arc`, keep an input by cloning it first.
//! * [`RealtimeScheduler`] — a wall-clock ticker that calls a micro-batch
//!   closure once per interval, reporting [`BatchMetrics`] per tick.
//!
//! The micro-batch loop itself is not here: the RSU job
//! (`cad3::RsuNode::run_batch`) *is* the loop — it polls `IN-DATA`, shards
//! the batch into a [`PartitionedDataset`] and runs detection on the
//! [`Executor`]. The virtual-time testbed calls it every 50 simulated
//! milliseconds; [`RealtimeScheduler`] calls it from a real thread.
//!
//! # Example
//!
//! ```
//! use cad3_engine::{Executor, PartitionedDataset};
//!
//! use std::sync::Arc;
//!
//! let exec = Executor::new(6);
//! let ds = PartitionedDataset::from_vec((0..100).collect::<Vec<i64>>(), 4);
//! // `map` takes the dataset and hands each element to `f` by value.
//! let doubled = ds.map(&exec, |x| x * 2);
//! assert_eq!(doubled.count(), 100);
//! // State a stage shares with its workers travels in an `Arc`.
//! let offset = Arc::new(1i64);
//! let shifted = doubled.clone().map(&exec, move |x| x + *offset);
//! assert_eq!(shifted.reduce(&exec, 0i64, |a, b| a + b), 10_000);
//! // `doubled` was cloned above, so it is still here to consume.
//! assert_eq!(doubled.reduce(&exec, 0i64, |a, b| a + b), 9900);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod executor;
mod realtime;
mod sync;
mod window;

pub use dataset::PartitionedDataset;
pub use executor::Executor;
pub use realtime::{BatchMetrics, RealtimeScheduler, WallClockPacer};
pub use window::{KeyedWindows, SlidingWindow};

/// Spark worker count in the paper's testbed.
pub const PAPER_WORKERS: usize = 6;
