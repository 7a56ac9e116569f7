//! The one wall-clock read point of the observability substrate.
//!
//! Instrumented crates must not touch `Instant::now` themselves (the
//! workspace `no-wallclock` lint confines clock reads and sleeps to this
//! file); they call [`now_nanos`], which reports monotonic
//! nanoseconds since the first observation in this process. Keeping the
//! anchor process-local makes timestamps small, monotone and serialisable
//! as `u64` without committing to any epoch.
//!
//! For replay-deterministic runs the clock can be switched to *virtual*
//! mode ([`set_virtual_nanos`]): the driver advances the reading from sim
//! time, so every timestamped artifact — JSONL span events, trace reports,
//! latency histograms — becomes a pure function of the seed and two
//! identical runs produce byte-identical files. Two CI jobs hold this by
//! running twice and `cmp`-ing: `determinism-e2e` the replay example, and
//! `obs-e2e` `obs_report --virtual`, whose profile self-times collapse to
//! zero under this mode.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

static VIRTUAL_MODE: AtomicBool = AtomicBool::new(false);
static VIRTUAL_NOW: AtomicU64 = AtomicU64::new(0);

/// Readings taken so far — debug builds only, for the tests that hold the
/// overhead policy's "no clock read for an unsampled record" rule.
#[cfg(debug_assertions)]
static READS: AtomicU64 = AtomicU64::new(0);

/// Monotonic nanoseconds since the process's first call to this function,
/// or the virtual reading while [`set_virtual_nanos`] replay mode is on.
///
/// The first call returns a value close to zero; all later calls are
/// monotonically non-decreasing. Saturates at `u64::MAX` after ~584 years.
pub fn now_nanos() -> u64 {
    // ordering: Relaxed — a statistic; it publishes no other data.
    #[cfg(debug_assertions)]
    READS.fetch_add(1, Ordering::Relaxed);
    // ordering: Relaxed — the clock is an advisory value stream; readers
    // only need *a* monotone reading, not synchronisation with other memory.
    if VIRTUAL_MODE.load(Ordering::Relaxed) {
        // ordering: Relaxed — same advisory reading as the mode flag.
        return VIRTUAL_NOW.load(Ordering::Relaxed);
    }
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// How many times [`now_nanos`] has been called in this process, in either
/// mode (debug builds only).
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn reads() -> u64 {
    // ordering: Relaxed — a statistic read.
    READS.load(Ordering::Relaxed)
}

/// Switches the clock to virtual (replay) mode and advances its reading to
/// `ns`. The reading never goes backwards: a smaller `ns` is ignored, so a
/// driver can re-announce the current sim time freely. Virtual mode is
/// process-global and sticky — it is meant for replay binaries that opt in
/// once at startup, before any instrumented work.
pub fn set_virtual_nanos(ns: u64) {
    // ordering: Relaxed — fetch_max's atomicity alone keeps the reading
    // monotone; the value carries no other memory dependencies.
    VIRTUAL_NOW.fetch_max(ns, Ordering::Relaxed);
    // ordering: Relaxed — an advisory mode flag; a reader that misses the
    // flip for an instant reads the wall anchor one last time, which is fine
    // because drivers enable virtual mode before any instrumented work.
    VIRTUAL_MODE.store(true, Ordering::Relaxed);
}

/// Whether the clock is in virtual (replay) mode.
pub fn is_virtual() -> bool {
    // ordering: Relaxed — advisory flag, see [`set_virtual_nanos`].
    VIRTUAL_MODE.load(Ordering::Relaxed)
}

/// A fixed-rate wall-clock pacer for interactive tools (the `cad3_top`
/// console). Lives here because this file is the workspace's one sanctioned
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_and_anchored_near_zero() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
        // The anchor is the first call ever; whatever test ran first, the
        // process has not been up for an hour.
        assert!(a < 3_600_000_000_000, "{a}");
    }
}
