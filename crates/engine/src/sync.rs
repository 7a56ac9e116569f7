//! Synchronization facade for the executor's worker pool.
//!
//! `executor.rs` imports its lock, condition variable, `Arc` and thread
//! spawn from here instead of `std` directly, so the stage queue and the
//! fan-in latch can be re-built against loom's perturbing types with
//! `RUSTFLAGS="--cfg loom"` (see `tests/loom_pool.rs`), exactly like the
//! stream crate's `sync` module. Both sides expose the same non-poisoning
//! shape: `lock()` returns the guard, `wait(guard)` takes and returns it.
//!
//! Recovering a poisoned guard is sound here because neither lock is ever
//! held while a job runs: the critical sections are a queue push or pop and
//! a slot write plus a decrement, and each leaves its data valid at every
//! step.

// Through `cad3-obs`, not a dependency of this crate's own: see Cargo.toml.
#[cfg(loom)]
pub(crate) use cad3_obs::__loom::sync::{Arc, Condvar, Mutex};
#[cfg(loom)]
pub(crate) use cad3_obs::__loom::thread;

#[cfg(not(loom))]
pub(crate) use std::sync::Arc;
#[cfg(not(loom))]
pub(crate) use std::thread;
#[cfg(not(loom))]
pub(crate) use unpoisoned::{Condvar, Mutex};

#[cfg(not(loom))]
mod unpoisoned {
    use std::sync::{MutexGuard, PoisonError};

    /// `std::sync::Mutex` whose `lock` recovers a poisoned guard.
    #[derive(Debug, Default)]
    pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        pub(crate) fn new(value: T) -> Self {
            Mutex(std::sync::Mutex::new(value))
        }

        pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// `std::sync::Condvar` whose `wait` recovers a poisoned guard.
    #[derive(Debug, Default)]
    pub(crate) struct Condvar(std::sync::Condvar);

    impl Condvar {
        pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
        }

        pub(crate) fn notify_one(&self) {
            self.0.notify_one();
        }

        pub(crate) fn notify_all(&self) {
            self.0.notify_all();
        }
    }
}
