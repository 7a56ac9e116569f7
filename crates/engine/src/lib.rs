//! Micro-batch stream-processing engine — the reproduction's stand-in for
//! Apache Spark Streaming.
//!
//! The paper configures Spark with a cluster of six workers and 50 ms
//! micro-batches ("RDDs") read from the `IN-DATA` topic. This crate
//! implements the pieces that matter for the pipeline:
//!
//! * [`Executor`] — a fixed worker pool executing per-partition tasks in
//!   parallel (the "6 worker nodes").
//! * [`PartitionedDataset`] — an RDD-like partitioned collection with
//!   `map` / `filter` / `flat_map` / `reduce` / `group_by_key` operators
//!   that run on an executor.
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
//! let exec = Executor::new(6);
//! let ds = PartitionedDataset::from_vec((0..100).collect::<Vec<i64>>(), 4);
//! let doubled = ds.map(&exec, |x| x * 2);
//! assert_eq!(doubled.count(), 100);
//! assert_eq!(doubled.reduce(&exec, 0i64, |a, b| a + b), 9900);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod executor;
mod realtime;
mod window;

pub use dataset::PartitionedDataset;
pub use executor::Executor;
pub use realtime::{BatchMetrics, RealtimeScheduler, WallClockPacer};
pub use window::{KeyedWindows, SlidingWindow};

/// Spark worker count in the paper's testbed.
pub const PAPER_WORKERS: usize = 6;
