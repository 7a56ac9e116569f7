//! Synchronization facade for the streaming substrate.
//!
//! All broker/topic/consumer code imports its lock and atomic types
//! from here instead of `parking_lot`/`std::sync` directly, so the whole
//! crate can be re-built against loom's model-checked types with
//! `RUSTFLAGS="--cfg loom"` (see `tests/loom_stream.rs`). Both sides expose
//! the parking_lot shape: non-poisoning `lock()`/`read()`/`write()`
//! returning guards directly.

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(loom)]
pub(crate) use loom::sync::{Arc, Mutex, RwLock};

#[cfg(not(loom))]
pub(crate) use parking_lot::{Mutex, RwLock};
#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
pub(crate) use std::sync::Arc;
