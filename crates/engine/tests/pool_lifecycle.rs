//! Dropping the last `Executor` handle ends its workers. The only test in
//! this file, so nothing else in the process starts or ends a thread while
//! it counts them.

use cad3_engine::Executor;
use std::cell::RefCell;
use std::sync::{Arc, Barrier};

thread_local! {
    /// Held by a thread from the first job it runs until the thread exits
    /// (or, on the test's own thread, until the test takes it back).
    static PIN: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
}

/// `Threads:` of this process, `None` where `/proc` is unavailable.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

#[test]
fn two_hundred_create_run_drop_cycles_leave_no_thread_behind() {
    let before = os_threads();
    for cycle in 0..200usize {
        let exec = Executor::new(6);
        let clone = exec.clone();
        let pin = Arc::new(());
        let held = Arc::clone(&pin);
        // Six jobs that wait for each other run on six threads: whichever
        // of the six workers and the caller took them, five are workers.
        let together = Barrier::new(6);
        let out = exec.run((0..6).collect(), move |x: usize| {
            PIN.with(|slot| *slot.borrow_mut() = Some(Arc::clone(&held)));
            together.wait();
            x + cycle
        });
        assert_eq!(out, (cycle..cycle + 6).collect::<Vec<_>>());
        // The caller may have run one of the jobs itself; its pin goes back.
        let on_caller = usize::from(PIN.with(|slot| slot.borrow_mut().take()).is_some());
        // The stage's closure is gone with the stage: only the workers that
        // ran its jobs still pin it.
        assert_eq!(Arc::strong_count(&pin), 1 + 6 - on_caller);
        drop(exec);
        // A clone keeps the pool up...
        assert_eq!(Arc::strong_count(&pin), 1 + 6 - on_caller);
        assert_eq!(clone.run(vec![1, 2], |x: usize| x), vec![1, 2]);
        drop(clone);
        // ...and the last handle joins every worker: a joined thread has
        // run its thread-local destructors.
        assert_eq!(Arc::strong_count(&pin), 1, "cycle {cycle}: a worker outlived its pool");
    }
    if let Some(before) = before {
        assert_eq!(os_threads(), Some(before), "1200 workers started, every one joined");
    }
}
