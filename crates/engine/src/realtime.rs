use cad3_stream::StreamError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The scheduler's record of one executed tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Zero-based tick index.
    pub index: u64,
    /// Records the tick reported processing.
    pub records: usize,
    /// Wall-clock time the tick took.
    pub wall_time: Duration,
}

/// Runs a micro-batch tick on a real ticker thread — the wall-clock
/// analogue of the virtual-time batch scheduling used in the experiments.
///
/// Used by the live integration test to drive `RsuNode::run_batch`
/// end-to-end on real threads, as on the paper's physical testbed.
#[derive(Debug)]
pub struct RealtimeScheduler {
    stop: Arc<AtomicBool>,
    metrics: Arc<Mutex<Vec<BatchMetrics>>>,
    handle: Option<JoinHandle<Result<(), StreamError>>>,
}

impl RealtimeScheduler {
    /// Starts a scheduler thread calling `tick` once per `interval`.
    ///
    /// `tick` runs one micro-batch and returns its record count; per-tick
    /// metrics accumulate and can be snapshotted with
    /// [`RealtimeScheduler::metrics`]. An error stops the ticker and
    /// surfaces from [`RealtimeScheduler::stop`].
    pub fn start<F>(interval: Duration, mut tick: F) -> Self
    where
        F: FnMut() -> Result<usize, StreamError> + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Mutex::new(Vec::new()));
        let stop2 = Arc::clone(&stop);
        let metrics2 = Arc::clone(&metrics);

        let handle = std::thread::spawn(move || {
            let mut next_tick = Instant::now() + interval;
            let mut index = 0u64;
            // The instant the previous iteration planned to wake at; its
            // distance to the actual wake is the scheduler's tick jitter.
            let mut planned_tick: Option<Instant> = None;
            // ordering: Relaxed — `stop` is a lone advisory flag; the join in
            // `stop()`/`drop` provides the happens-before for everything else.
            while !stop2.load(Ordering::Relaxed) {
                let start = Instant::now();
                if cad3_obs::enabled() {
                    if let Some(planned) = planned_tick {
                        let jitter = start.saturating_duration_since(planned);
                        cad3_obs::histogram!("engine.scheduler.tick_jitter_ns")
                            .observe(u64::try_from(jitter.as_nanos()).unwrap_or(u64::MAX));
                    }
                }
                match tick() {
                    Ok(records) => {
                        let m = BatchMetrics { index, records, wall_time: start.elapsed() };
                        index += 1;
                        if cad3_obs::enabled() {
                            cad3_obs::histogram!("engine.batch.wall_ns")
                                .observe(u64::try_from(m.wall_time.as_nanos()).unwrap_or(u64::MAX));
                        }
                        let _held =
                            cad3_lockrank::rank_scope!("cad3_engine::RealtimeScheduler::metrics");
                        metrics2.lock().push(m);
                    }
                    Err(e) => {
                        // A torn-down broker during shutdown is expected;
                        // anything else kills the ticker and surfaces from
                        // `stop()`.
                        // ordering: Relaxed — same advisory stop flag as above.
                        if !stop2.load(Ordering::Relaxed) {
                            return Err(e);
                        }
                    }
                }
                let now = Instant::now();
                if next_tick > now {
                    std::thread::sleep(next_tick - now);
                }
                planned_tick = Some(next_tick);
                next_tick += interval;
            }
            Ok(())
        });

        RealtimeScheduler { stop, metrics, handle: Some(handle) }
    }

    /// A snapshot of the metrics of every tick executed so far.
    pub fn metrics(&self) -> Vec<BatchMetrics> {
        let _held = cad3_lockrank::rank_scope!("cad3_engine::RealtimeScheduler::metrics");
        self.metrics.lock().clone()
    }

    /// Signals the ticker to stop, waits for the thread to exit and returns
    /// the accumulated batch metrics.
    ///
    /// # Errors
    ///
    /// Returns the tick error that killed the ticker early, if any.
    pub fn stop(mut self) -> Result<Vec<BatchMetrics>, StreamError> {
        // ordering: Relaxed — the subsequent join() synchronises with the
        // ticker thread; the flag itself carries no payload.
        self.stop.store(true, Ordering::Relaxed);
        let outcome = match self.handle.take().map(JoinHandle::join) {
            Some(Ok(r)) => r,
            // A panicked tick closure was already reported by the panic hook.
            Some(Err(_)) | None => Ok(()),
        };
        let _held = cad3_lockrank::rank_scope!("cad3_engine::RealtimeScheduler::metrics");
        let metrics = self.metrics.lock().clone();
        outcome.map(|()| metrics)
    }
}

/// A fixed-rate wall-clock pacer for interactive tools (the `cad3_top`
/// console). Lives here because this file is the engine's sanctioned
/// wall-clock site (the `no-wallclock` lint allowance): binaries pace
/// through it instead of calling `Instant::now`/`sleep` directly.
#[derive(Debug)]
pub struct WallClockPacer {
    next: Instant,
    interval: Duration,
}

impl WallClockPacer {
    /// Creates a pacer whose first tick is one `interval` from now.
    pub fn new(interval: Duration) -> Self {
        WallClockPacer { next: Instant::now() + interval, interval }
    }

    /// Sleeps until the next tick boundary. A pacer that has fallen behind
    /// re-anchors to the present rather than bursting to catch up.
    pub fn wait(&mut self) {
        let now = Instant::now();
        if self.next > now {
            std::thread::sleep(self.next - now);
        } else {
            self.next = now;
        }
        self.next += self.interval;
    }
}

impl Drop for RealtimeScheduler {
    fn drop(&mut self) {
        // ordering: Relaxed — see `stop()`; join() below is the sync point.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad3_stream::{Broker, Consumer, OffsetReset, Producer};

    fn consumer_on(topic: &str, partitions: u32) -> (Producer, Consumer) {
        let broker = Arc::new(Broker::new("rsu"));
        broker.create_topic(topic, partitions).unwrap();
        let producer = Producer::new(Arc::clone(&broker));
        let mut consumer = Consumer::new(broker, "spark", OffsetReset::Earliest);
        consumer.subscribe(&[topic]).unwrap();
        (producer, consumer)
    }

    #[test]
    fn scheduler_processes_records_in_near_real_time() {
        let (producer, mut consumer) = consumer_on("IN-DATA", 3);
        let scheduler = RealtimeScheduler::start(Duration::from_millis(10), move || {
            consumer.poll(10_000).map(|batch| batch.len())
        });

        for i in 0..100u64 {
            producer.send("IN-DATA", Some(b"veh"), &b"x"[..], i).unwrap();
        }
        // Give the ticker a few intervals to drain.
        let processed =
            |s: &RealtimeScheduler| s.metrics().iter().map(|m| m.records).sum::<usize>();
        let deadline = Instant::now() + Duration::from_secs(5);
        while processed(&scheduler) < 100 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let metrics = scheduler.stop().unwrap();
        assert_eq!(metrics.iter().map(|m| m.records).sum::<usize>(), 100);
        for (i, m) in metrics.iter().enumerate() {
            assert_eq!(m.index, i as u64, "ticks are numbered densely from zero");
        }
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let (_producer, mut consumer) = consumer_on("T", 1);
        let scheduler = RealtimeScheduler::start(Duration::from_millis(5), move || {
            consumer.poll(10).map(|batch| batch.len())
        });
        std::thread::sleep(Duration::from_millis(20));
        let metrics = scheduler.stop().unwrap();
        assert!(!metrics.is_empty(), "ticker should have fired at least once");
    }
}
