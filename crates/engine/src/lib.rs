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
//!   A stage consumes its inputs: each chunk moves, owned, into the job that
//!   processes it — on a worker or on the calling thread — and the closure
//!   must be `'static`: share state with it through an `Arc`.
//! * [`PartitionedDataset`] — one partitioned collection with a single
//!   per-partition stage, [`PartitionedDataset::map_partitions`].
//!
//! The micro-batch loop itself is not here: the RSU job
//! (`cad3::RsuNode::run_batch`) *is* the loop — it polls `IN-DATA`, shards
//! the batch and runs detection on the [`Executor`]. The virtual-time
//! testbed calls it every 50 simulated milliseconds; the live integration
//! test calls it from a real thread every 20 wall-clock milliseconds.
//!
//! # Example
//!
//! ```
//! use cad3_engine::Executor;
//! use std::sync::Arc;
//!
//! let exec = Executor::new(6);
//! // `run` takes its inputs and hands each one to `f` by value; the
//! // outputs come back in input order.
//! let doubled = exec.run((0..100).collect(), |x: i64| x * 2);
//! assert_eq!(doubled.iter().sum::<i64>(), 9900);
//! // State a stage shares with its workers travels in an `Arc`.
//! let offset = Arc::new(1i64);
//! let shifted = exec.run(doubled, move |x| x + *offset);
//! assert_eq!(shifted.iter().sum::<i64>(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod executor;
mod sync;

pub use dataset::PartitionedDataset;
pub use executor::Executor;

/// Spark worker count in the paper's testbed.
pub const PAPER_WORKERS: usize = 6;
