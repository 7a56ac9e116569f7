use crate::sync::{thread, Arc, Condvar, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// One chunk of a stage, boxed so the queue can carry any stage's types.
type Job = Box<dyn FnOnce() + Send>;

/// A finished chunk: its outputs, or the payload it panicked with.
type ChunkResult<O> = Result<Vec<O>, Box<dyn Any + Send>>;

/// The one stage queue: the workers park on it, and callers take from it too.
#[derive(Default)]
struct StageQueue {
    /// Untaken jobs, and whether the pool is closing. A leaf lock: never
    /// held while a job runs, nor together with a latch's.
    jobs: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl StageQueue {
    /// Queues a stage's jobs under one lock — or, with `close`, ends the
    /// workers' loops — and wakes every worker with one broadcast.
    fn submit(&self, jobs: Vec<Job>, close: bool) {
        {
            let _held = cad3_lockrank::rank_scope!("cad3_engine::StageQueue::jobs");
            let mut queue = self.jobs.lock();
            queue.0.extend(jobs);
            queue.1 |= close;
        }
        self.ready.notify_all();
    }

    /// The next job; `None` on an empty queue, which a worker (`park`) sees only once it is
    /// closed: its check and its wait share one lock hold, so no broadcast falls between.
    fn next_job(&self, park: bool) -> Option<Job> {
        let _held = cad3_lockrank::rank_scope!("cad3_engine::StageQueue::jobs");
        let mut queue = self.jobs.lock();
        while park && queue.0.is_empty() && !queue.1 {
            queue = self.ready.wait(queue);
        }
        queue.0.pop_front()
    }
}

/// One stage's fan-in: the chunks still out and each finished one's result
/// by chunk index, under a leaf lock like the queue's.
struct Latch<O> {
    state: Mutex<(usize, Vec<Option<ChunkResult<O>>>)>,
    done: Condvar,
}

impl<O> Latch<O> {
    /// Slots chunk `index` and counts it done; the last one in signals.
    fn complete(&self, index: usize, result: ChunkResult<O>) {
        let _held = cad3_lockrank::rank_scope!("cad3_engine::Latch::state");
        let mut state = self.state.lock();
        if let Some(slot) = state.1.get_mut(index) {
            *slot = Some(result);
        }
        state.0 -= 1;
        if state.0 == 0 {
            self.done.notify_one();
        }
    }

    /// Waits until no chunk is out, then hands over the slots.
    fn results(&self) -> Vec<Option<ChunkResult<O>>> {
        let _held = cad3_lockrank::rank_scope!("cad3_engine::Latch::state");
        let mut state = self.state.lock();
        while state.0 > 0 {
            state = self.done.wait(state);
        }
        std::mem::take(&mut state.1)
    }
}

/// The standing workers and the queue they park on.
struct Pool {
    queue: Arc<StageQueue>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("threads", &self.threads.len()).finish()
    }
}

impl Pool {
    fn start(workers: usize) -> Pool {
        let queue = Arc::new(StageQueue::default());
        let worker = |_| {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                cad3_obs::profile::set_thread_class("worker");
                while let Some(job) = queue.next_job(true) {
                    job();
                }
            })
        };
        Pool { threads: (0..workers).map(worker).collect(), queue }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.queue.submit(Vec::new(), true);
        for thread in self.threads.drain(..) {
            // Jobs catch their panics, so a worker only ends by leaving its loop.
            let _ = thread.join();
        }
    }
}

/// A fixed-size worker pool executing independent per-partition tasks.
///
/// Inputs are split into one contiguous chunk per worker up front — the
/// same fan-out/fan-in structure as a Spark stage over an RDD's partitions.
/// The workers are long-lived threads parked on one shared queue: a stage
/// queues its chunks as owned jobs, wakes the workers with one broadcast,
/// works the queue itself until it is empty, then waits on its latch for
/// the last job — one wake and at most one park per stage, no thread
/// created. A job owns its chunk and outputs, so a stage shares only `f`.
///
/// `Clone` shares the pool: every clone feeds the same queue, and the
/// threads are joined when the last handle drops. An executor with one
/// worker has no pool at all and runs every stage inline on the caller.
#[derive(Debug, Clone)]
pub struct Executor {
    workers: usize,
    /// `None` at one worker.
    pool: Option<Arc<Pool>>,
}

impl Executor {
    /// Creates an executor with the given worker count, starting that many
    /// threads if it is more than one.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "executor needs at least one worker");
        Executor { workers, pool: (workers > 1).then(|| Arc::new(Pool::start(workers))) }
    }

    /// The paper's configuration: six workers.
    pub fn paper_default() -> Self {
        Executor::new(crate::PAPER_WORKERS)
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every element of `inputs` in parallel, returning the
    /// outputs in input order.
    ///
    /// The jobs may borrow nothing (`'static`): a stage moves its inputs in
    /// and shares state with its workers through `Arc`s captured by `f`.
    /// The calling thread works the queue too: it may run its own chunks,
    /// or one another clone queued ahead of them, and `f` may itself start
    /// a stage on this executor.
    ///
    /// # Panics
    ///
    /// A panic in `f` is re-raised on the calling thread with its original
    /// payload (the first one in input order, if several chunks panic),
    /// after every chunk has finished; the workers survive it.
    pub fn run<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(I) -> O + Send + Sync + 'static,
    {
        let n = inputs.len();
        let pool = match &self.pool {
            Some(pool) if n > 1 => pool,
            _ => return inputs.into_iter().map(f).collect(),
        };

        // One contiguous chunk per worker; `div_ceil` may leave fewer, never more.
        let chunk_len = n.div_ceil(self.workers.min(n));
        let mut inputs = inputs.into_iter();
        let chunks: Vec<Vec<I>> =
            (0..n.div_ceil(chunk_len)).map(|_| inputs.by_ref().take(chunk_len).collect()).collect();
        let f = Arc::new(f);
        // Profiler attribution: whichever thread runs a job adopts the coordinator's open
        // stage path (a detect sweep's self-time lands below `rsu.run_batch;rsu.detect`).
        let token = cad3_obs::profile::current_token();
        let state = Mutex::new((chunks.len(), chunks.iter().map(|_| None).collect()));
        let latch = Arc::new(Latch { state, done: Condvar::default() });
        let job = |(index, chunk): (usize, Vec<I>)| -> Job {
            let (f, latch) = (Arc::clone(&f), Arc::clone(&latch));
            Box::new(move || {
                let adopted = cad3_obs::profile::adopt(token);
                let out = catch_unwind(AssertUnwindSafe(|| chunk.into_iter().map(&*f).collect()));
                // `f` goes before the job counts itself done: once the stage
                // returns, the caller holds the only handle on its captures.
                drop((adopted, f));
                latch.complete(index, out);
            })
        };
        pool.queue.submit(chunks.into_iter().enumerate().map(job).collect(), false);
        // The caller works the queue too: no stage waits on a queue only it would serve.
        while let Some(job) = pool.queue.next_job(false) {
            job();
        }
        // Fan-in, the stage barrier; the slots keep the order jobs finish in out of the output.
        let mut outputs: Vec<O> = Vec::with_capacity(n);
        for result in latch.results().into_iter().flatten() {
            // Every chunk is done: re-raise the first panic in chunk order, unchanged.
            outputs.extend(result.unwrap_or_else(|payload| resume_unwind(payload)));
        }
        assert_eq!(outputs.len(), n, "every chunk produced its outputs");
        outputs
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn outputs_preserve_input_order() {
        let exec = Executor::new(4);
        let out = exec.run((0..100).collect(), |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn outputs_preserve_order_when_chunks_are_uneven() {
        // 10 inputs over 4 workers: chunks of 3/3/3/1.
        let exec = Executor::new(4);
        let out = exec.run((0..10).collect(), |x: i32| x + 1);
        assert_eq!(out, (1..11).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let exec = Executor::new(8);
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let seen_by_jobs = Arc::clone(&seen);
        exec.run((0..1000).collect(), move |x: i32| {
            assert!(seen_by_jobs.lock().unwrap().insert(x), "task {x} ran twice");
            x
        });
        assert_eq!(seen.lock().unwrap().len(), 1000);
    }

    #[test]
    fn multiple_workers_actually_run_concurrently() {
        // With 4 workers and 4 blocking tasks that wait for each other, the
        // run completes only if they truly overlap.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let exec = Executor::new(4);
        let barrier = Barrier::new(4);
        let arrived = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&arrived);
        exec.run(vec![(), (), (), ()], move |()| {
            counter.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn single_worker_is_sequential_fallback() {
        let exec = Executor::new(1);
        let out = exec.run(vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let exec = Executor::new(4);
        let out: Vec<i32> = exec.run(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "task 5 exploded")]
    fn worker_panic_propagates_with_its_payload() {
        let exec = Executor::new(4);
        exec.run((0..8).collect(), |x: i32| {
            assert!(x != 5, "task {x} exploded");
            x
        });
    }

    #[test]
    fn pool_is_reusable_after_a_panicking_job() {
        let exec = Executor::new(4);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            // Chunks of two: tasks 2 and 5 panic on different workers.
            exec.run((0..8).collect(), |x: i32| {
                assert!(x != 2 && x != 5, "task {x} exploded");
                x
            })
        }));
        let payload = panicked.expect_err("the stage re-raises its job's panic");
        // The first payload in chunk order, whichever worker finished first.
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("task 2 exploded"));
        // Every worker is still parked on its queue.
        let out = exec.run((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_stage_completes_on_its_caller_while_every_worker_is_held() {
        use std::cell::Cell;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        thread_local! {
            /// Set on the threads that call `run` here; a pool worker never sets it.
            static CALLER: Cell<bool> = const { Cell::new(false) };
        }
        CALLER.set(true);
        let exec = Executor::new(2);
        let held = Arc::new(AtomicUsize::new(0));
        // Both workers and this thread.
        let arrived = Arc::new(Barrier::new(3));
        let release = Arc::new(Barrier::new(3));
        // A hold job returns at once on a caller and blocks on a worker, so a
        // holder's stage holds the workers that took its jobs, and the holder
        // with them. A stage whose jobs all ran on callers held nobody and is
        // tried again; two holders are enough to pin two workers.
        let holders: Vec<_> = (0..2)
            .map(|_| {
                let exec = exec.clone();
                let (held, arrived, release) =
                    (Arc::clone(&held), Arc::clone(&arrived), Arc::clone(&release));
                std::thread::spawn(move || {
                    CALLER.set(true);
                    // ordering: SeqCst — a test tally, no data rides on it.
                    while held.load(Ordering::SeqCst) < 2 {
                        let (held, arrived, release) =
                            (Arc::clone(&held), Arc::clone(&arrived), Arc::clone(&release));
                        exec.run(vec![(), ()], move |()| {
                            if CALLER.get() {
                                // Let a woken worker at the other job.
                                std::thread::yield_now();
                                return;
                            }
                            // ordering: SeqCst — see above.
                            held.fetch_add(1, Ordering::SeqCst);
                            arrived.wait();
                            release.wait();
                        });
                    }
                })
            })
            .collect();
        arrived.wait();
        // No worker will take a job now. With a queue per worker this stage
        // waits for them; with one queue its caller runs it alone.
        let out = exec.run((0..10).collect(), |x: i32| x + 1);
        assert_eq!(out, (1..11).collect::<Vec<_>>());
        release.wait();
        for holder in holders {
            holder.join().expect("a released holder finishes its stage");
        }
    }

    #[test]
    fn a_job_may_start_a_stage_on_its_own_executor() {
        let exec = Executor::new(3);
        let inner = exec.clone();
        let out = exec.run((0..6).collect(), move |x: u32| {
            inner.run((0..4).collect(), move |y: u32| x * 10 + y).into_iter().sum::<u32>()
        });
        let expected: Vec<u32> = (0..6).map(|x| (0..4).map(|y| x * 10 + y).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn concurrent_stages_on_clones_each_match_their_sequential_map() {
        use std::sync::Barrier;
        let exec = Executor::new(4);
        let start = Arc::new(Barrier::new(2));
        let callers: Vec<_> = [3u64, 7]
            .into_iter()
            .map(|k| {
                let (exec, start) = (exec.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for stage in 0..200u64 {
                        let out = exec.run((0..50).collect(), move |x: u64| (k, stage, x * k));
                        assert_eq!(out, (0..50).map(|x| (k, stage, x * k)).collect::<Vec<_>>());
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("every stage equalled its sequential map");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        Executor::new(0);
    }

    #[test]
    fn paper_default_has_six_workers() {
        assert_eq!(Executor::paper_default().workers(), 6);
        assert_eq!(Executor::default().workers(), 6);
    }
}
