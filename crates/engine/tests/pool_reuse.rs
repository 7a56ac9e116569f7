//! The executor's workers outlive a stage, so what one `run` leaves behind
//! (a queue, a parked thread, a reply still in flight) is state the next
//! one meets. These tests hold the single-stage contract — output equals
//! the sequential map: order, exactly once — over many stages on one pool.
//!
//! The back-to-back stress is `#[ignore]`d; run it with
//!
//! ```text
//! cargo test -p cad3-engine --release --test pool_reuse -- --ignored
//! ```

use cad3_engine::Executor;
use proptest::prelude::*;

/// One stage of `size` tagged inputs; the tag makes a reply that strayed in
/// from an earlier stage visible in the output.
fn run_tagged(exec: &Executor, stage: u64, size: u64) {
    let inputs: Vec<u64> = (0..size).collect();
    let expected: Vec<(u64, u64)> = inputs.iter().map(|x| (stage, x * x)).collect();
    assert_eq!(exec.run(inputs, move |x| (stage, x * x)), expected, "stage {stage}, size {size}");
}

proptest! {
    /// Fifty consecutive stages of any sizes on the same executor each
    /// equal the sequential map, at every worker count.
    #[test]
    fn consecutive_runs_on_one_executor_match_the_sequential_map(
        workers in 1usize..=8,
        sizes in prop::collection::vec(0u64..200, 50),
    ) {
        let exec = Executor::new(workers);
        for (stage, size) in sizes.into_iter().enumerate() {
            run_tagged(&exec, stage as u64, size);
        }
    }
}

#[test]
#[ignore = "10 000 back-to-back stages; run explicitly via -- --ignored (lockrank CI job)"]
fn ten_thousand_back_to_back_runs_then_an_idle_drop() {
    let exec = Executor::new(6);
    // One input (inline), exactly six, one more than six, many per worker.
    for (stage, size) in [1, 6, 7, 100].into_iter().cycle().take(10_000).enumerate() {
        run_tagged(&exec, stage as u64, size);
    }
    // Every worker is parked on an empty queue; the drop must still end them.
    drop(exec);
}
