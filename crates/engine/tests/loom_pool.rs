//! Loom model checks of the executor's stage queue and fan-in latch.
//!
//! Built and run only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p cad3-engine --test loom_pool
//! ```
//!
//! `loom::model` re-executes each body across many perturbed schedules (see
//! `vendor/loom`: seeded yields and spins at every lock, wait and notify,
//! **not** an exhaustive search). What fails a schedule: a wrong output, a
//! job run twice or not at all, and a condition-variable wait that nobody
//! wakes — the vendored `Condvar` gives up after ten seconds and fails the
//! iteration, whichever thread was waiting.
#![cfg(loom)]

use cad3_engine::Executor;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};

/// Workers and caller race for a stage's chunks: every input is mapped
/// exactly once, and `run` is back only when the last slot is filled — at
/// two workers (three inputs in chunks of two and one) and at three (one
/// chunk each, four threads after three jobs).
#[test]
fn every_chunk_runs_once_and_run_returns_after_the_last() {
    loom::model(|| {
        for workers in [2, 3] {
            let exec = Executor::new(workers);
            let runs = Arc::new(AtomicUsize::new(0));
            for stage in 1..=2u64 {
                let counted = Arc::clone(&runs);
                let out = exec.run(vec![1u64, 2, 3], move |x| {
                    // ordering: Relaxed — a tally; the latch orders it before the read below.
                    counted.fetch_add(1, Ordering::Relaxed);
                    x * stage
                });
                assert_eq!(out, vec![stage, 2 * stage, 3 * stage]);
                // ordering: Relaxed — see above.
                assert_eq!(runs.load(Ordering::Relaxed), 3 * stage as usize);
            }
        }
    });
}

/// A stage whose two jobs wait for each other needs a second thread, so a
/// worker has to hear each stage's broadcast — also the one that arrives
/// while it is between finding the queue empty and parking.
#[test]
fn no_broadcast_is_lost_between_a_workers_empty_check_and_its_wait() {
    loom::model(|| {
        let exec = Executor::new(2);
        for _stage in 0..3 {
            let meet = Arc::new((Mutex::new(0usize), Condvar::new()));
            exec.run(vec![(), ()], move |()| {
                let mut here = meet.0.lock();
                *here += 1;
                meet.1.notify_all();
                while *here < 2 {
                    here = meet.1.wait(here);
                }
            });
        }
    });
}

/// Closing a pool whose workers are parked — or still on their way to
/// their first park — wakes and joins every one of them.
#[test]
fn close_while_idle_joins_every_worker() {
    loom::model(|| drop(Executor::new(2)));
}

/// The drop that follows a stage at once meets workers anywhere between
/// their last job and their next park.
#[test]
fn close_right_after_a_stage_joins_every_worker() {
    loom::model(|| {
        let exec = Executor::new(2);
        let clone = exec.clone();
        assert_eq!(exec.run(vec![1u32, 2, 3], |x| x + 1), vec![2, 3, 4]);
        drop(exec);
        drop(clone);
    });
}
