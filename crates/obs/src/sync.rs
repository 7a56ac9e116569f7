//! Synchronization facade for the observability substrate.
//!
//! The metric cells (histogram buckets, counter shards) and the flight
//! recorder's slots import their atomic, fence and lock types from here
//! instead of `std::sync`/`parking_lot` directly, so the sharded-cell merge
//! and the recorder's seqlock can be re-built against loom's model-checked
//! types with `RUSTFLAGS="--cfg loom"` (see `tests/loom_obs.rs`), exactly
//! like the stream crate's `sync` module.
//!
//! Deliberately *outside* the facade: the global enable gate and span-id
//! counter in `lib.rs`/`span.rs` use plain `std` atomics even under loom.
//! They are process-wide singletons that survive across loom iterations;
//! modelling them would poison iteration independence, and they carry no
//! cross-thread data — the model-checked properties are the cell merge and
//! the recorder's torn-read detection.

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{fence, AtomicU64, Ordering};
#[cfg(loom)]
pub(crate) use loom::sync::Mutex;
// `Arc` leaks into the public macro expansions (`$crate::__Arc`), so it is
// `pub` rather than `pub(crate)`; it stays `#[doc(hidden)]` at the re-export.
#[cfg(loom)]
pub use loom::sync::Arc;

#[cfg(not(loom))]
pub(crate) use parking_lot::Mutex;
#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{fence, AtomicU64, Ordering};
#[cfg(not(loom))]
pub use std::sync::Arc;
