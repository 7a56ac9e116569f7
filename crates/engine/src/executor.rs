use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// One chunk of a stage, boxed so a worker's queue can carry any stage's
/// input and output types.
type Job = Box<dyn FnOnce() + Send>;

/// What a job sends back: its chunk's outputs, or the payload it panicked with.
type ChunkResult<O> = Result<Vec<O>, Box<dyn Any + Send>>;

/// The standing workers: one job queue and one thread each.
#[derive(Debug)]
struct Pool {
    queues: Vec<mpsc::Sender<Job>>,
    threads: Vec<JoinHandle<()>>,
}

impl Pool {
    fn start(workers: usize) -> Pool {
        let (queues, threads) = (0..workers)
            .map(|_| {
                let (queue, jobs) = mpsc::channel::<Job>();
                let thread = std::thread::spawn(move || {
                    cad3_obs::profile::set_thread_class("worker");
                    // Parked here between stages; ends when the pool drops
                    // the sending half.
                    while let Ok(job) = jobs.recv() {
                        job();
                    }
                });
                (queue, thread)
            })
            .unzip();
        Pool { queues, threads }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the queues ends each worker's receive loop.
        self.queues.clear();
        for thread in self.threads.drain(..) {
            // A job's panic is caught inside the job, so a worker ends only
            // by leaving its loop; `Drop` has nowhere to report otherwise.
            let _ = thread.join();
        }
    }
}

/// A fixed-size worker pool executing independent per-partition tasks.
///
/// Inputs are split into one contiguous chunk per worker up front — the
/// same fan-out/fan-in structure as a Spark stage over an RDD's partitions.
/// The workers are long-lived threads started by [`Executor::new`], each
/// parked on its own job queue: a stage hands chunk *i* to worker *i* as an
/// owned job and waits for every reply, so it pays one wake/park round trip
/// per chunk and creates no thread. Each job owns its chunk and its output
/// buffer, so the stage shares nothing but `f`; input order is restored by
/// slotting the replies by chunk index.
///
/// `Clone` shares the pool: every clone feeds the same workers, and the
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
    /// `f` must not start a stage on this same executor — its worker would
    /// wait on its own queue.
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

        // One contiguous chunk per worker. `div_ceil` may leave fewer
        // (never more) chunks than workers; chunk i goes to worker i.
        let chunk_len = n.div_ceil(self.workers.min(n));
        let mut chunks: Vec<Vec<I>> = Vec::with_capacity(self.workers.min(n));
        let mut inputs = inputs.into_iter();
        loop {
            let chunk: Vec<I> = inputs.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }

        let f = Arc::new(f);
        // Profiler stage attribution: workers adopt the coordinator's open
        // stage path so their self-time lands under it (e.g. a detect sweep
        // inside `run` shows up below `rsu.run_batch;rsu.detect`).
        let token = cad3_obs::profile::current_token();
        let (reply, replies) = mpsc::channel::<(usize, ChunkResult<O>)>();
        let mut slots: Vec<Option<ChunkResult<O>>> = Vec::with_capacity(chunks.len());
        for ((index, chunk), queue) in chunks.into_iter().enumerate().zip(&pool.queues) {
            slots.push(None);
            let (f, reply) = (Arc::clone(&f), reply.clone());
            let job: Job = Box::new(move || {
                let result = {
                    let _adopt = cad3_obs::profile::adopt(token);
                    // The chunk and its partial output die with the panic;
                    // nothing of them is seen again.
                    catch_unwind(AssertUnwindSafe(|| chunk.into_iter().map(&*f).collect()))
                };
                // Released before the reply, so once the stage returns the
                // caller holds the only handle on what `f` captured.
                drop(f);
                // The caller waits for every reply; it is never gone first.
                let _ = reply.send((index, result));
            });
            // A worker lives as long as its pool. Were one gone, its job
            // would drop here unrun and the fan-in would come up short.
            let _ = queue.send(job);
        }
        drop(reply);

        // Fan-in, the stage barrier. Replies arrive in whatever order the
        // workers finish; slotting by chunk index keeps that order out of
        // the output, which equals the sequential map under any schedule.
        for _ in 0..slots.len() {
            // Every job replies, panicking or not; only one dropped unrun
            // ends the wait early, and the length check below reports it.
            let Ok((index, result)) = replies.recv() else { break };
            if let Some(slot) = slots.get_mut(index) {
                *slot = Some(result);
            }
        }
        let mut outputs: Vec<O> = Vec::with_capacity(n);
        let mut panic_payload = None;
        for result in slots.into_iter().flatten() {
            match result {
                Ok(chunk_out) => outputs.extend(chunk_out),
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            // Re-raise a job's panic on the calling thread unchanged.
            resume_unwind(payload);
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
