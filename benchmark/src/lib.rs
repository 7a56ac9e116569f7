//! `bench_e2e`: the whole-RSU ingest→verdict benchmark.
//!
//! A closed loop on one driver thread takes seeded, pre-encoded status
//! packets through DSRC ingest → stream poll → micro-batch → NB/DT detect →
//! Eq. 1 fusion → dissemination, using public functions of the product
//! crates only, and reports end-to-end metrics plus a per-layer budget
//! measured from outside. See `README.md` for metrics, workloads and how
//! they interact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inputs;
pub mod round;
pub mod run;
pub mod spans;
pub mod stats;
