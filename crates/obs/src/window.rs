//! Windowed time-series over registry snapshots.
//!
//! The registry's counters and histograms are cumulative since process
//! start, which answers "how much ever" but not "how fast right now". This
//! module adds the missing axis: a fixed-capacity ring of timestamped
//! [`MetricsSnapshot`]s pushed by a periodic sampling tick, from which
//! deltas, gauge maxima and quantiles *over a trailing window* are derived by
//! subtracting the youngest sample at least `window` old from the newest
//! one. Histogram subtraction is exact because the log2 bucket layout is
//! cumulative per bucket: the windowed histogram is the element-wise
//! difference of two snapshots, and its quantiles carry the same
//! one-bucket error bound as the cumulative ones.
//!
//! Timestamps come from the caller (the health monitor passes
//! [`crate::clock::now_nanos`] readings), so under the virtual clock the
//! whole layer is a pure function of the pushed snapshots — replay runs
//! stay byte-stable. Nothing here touches the hot path: sampling cost is
//! one registry snapshot per tick, on the monitor's thread.

use crate::metrics::{bucket_upper, HistogramSnapshot, BUCKETS};
use crate::registry::MetricsSnapshot;
use std::collections::VecDeque;

/// Fixed-capacity ring of timestamped registry snapshots.
#[derive(Debug)]
pub struct SnapshotRing {
    cap: usize,
    buf: VecDeque<(u64, MetricsSnapshot)>,
}

impl SnapshotRing {
    /// Creates a ring holding at most `cap` samples (at least 2, so a delta
    /// is always derivable once the ring is warm).
    pub fn new(cap: usize) -> Self {
        SnapshotRing { cap: cap.max(2), buf: VecDeque::new() }
    }

    /// Pushes a sample, evicting the oldest once full. Timestamps are kept
    /// monotone: a reading older than the newest sample is clamped to it,
    /// so a misbehaving driver cannot make windows run backwards.
    pub fn push(&mut self, t_ns: u64, snapshot: MetricsSnapshot) {
        let t_ns = self.buf.back().map_or(t_ns, |(last, _)| t_ns.max(*last));
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((t_ns, snapshot));
    }

    /// The newest sample.
    pub fn latest(&self) -> Option<&(u64, MetricsSnapshot)> {
        self.buf.back()
    }

    /// The baseline sample for a `window_ns` lookback: the youngest sample
    /// at least `window_ns` older than the newest one, or the oldest held
    /// sample while the ring is still warming up. `None` with fewer than
    /// two samples — no interval exists yet.
    fn baseline(&self, window_ns: u64) -> Option<&(u64, MetricsSnapshot)> {
        if self.buf.len() < 2 {
            return None;
        }
        let (newest, _) = self.buf.back()?;
        let cutoff = newest.saturating_sub(window_ns);
        self.buf.iter().rev().skip(1).find(|(t, _)| *t <= cutoff).or(self.buf.front())
    }

    /// Increase of counter `name` over the window. Saturates at zero if the
    /// counter disappeared or reset (it never does in-process).
    pub fn counter_delta(&self, name: &str, window_ns: u64) -> Option<u64> {
        let (_, newest) = self.buf.back()?;
        let (_, base) = self.baseline(window_ns)?;
        Some(newest.counter(name).saturating_sub(base.counter(name)))
    }

    /// Maximum value gauge `name` held across the window's samples
    /// (baseline inclusive). `None` if no in-window sample carries it.
    pub fn gauge_max(&self, name: &str, window_ns: u64) -> Option<u64> {
        let (base_t, _) = self.baseline(window_ns)?;
        let cutoff = *base_t;
        self.buf
            .iter()
            .filter(|(t, _)| *t >= cutoff)
            .filter_map(|(_, s)| s.gauges.get(name).copied())
            .max()
    }

    /// The observations histogram `name` accumulated over the window: the
    /// element-wise difference between the newest and baseline snapshots.
    /// `max` is approximated by the upper bound of the highest non-empty
    /// delta bucket (the cumulative max may predate the window), which
    /// keeps `quantile` within its usual one-bucket error.
    pub fn histogram_window(&self, name: &str, window_ns: u64) -> Option<HistogramSnapshot> {
        let (_, newest) = self.buf.back()?;
        let (_, base) = self.baseline(window_ns)?;
        let new = newest.histogram(name)?;
        let empty = HistogramSnapshot::default();
        let old = base.histogram(name).unwrap_or(&empty);
        let mut out = HistogramSnapshot::default();
        let mut count = 0u64;
        for b in 0..BUCKETS {
            let d = new.buckets[b].saturating_sub(old.buckets[b]);
            out.buckets[b] = d;
            count = count.saturating_add(d);
            if d > 0 {
                out.max = bucket_upper(b).min(new.max);
            }
        }
        out.count = count;
        out.sum = new.sum.saturating_sub(old.sum);
        Some(out)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snap(counters: &[(&str, u64)], gauges: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            histograms: BTreeMap::new(),
            exemplars: BTreeMap::new(),
        }
    }

    #[test]
    fn empty_and_single_sample_have_no_window() {
        let mut ring = SnapshotRing::new(8);
        assert!(ring.counter_delta("c", 1).is_none());
        ring.push(100, snap(&[("c", 5)], &[]));
        assert!(ring.counter_delta("c", 1).is_none(), "one sample is not an interval");
        assert!(ring.gauge_max("g", 1).is_none());
    }

    #[test]
    fn delta_picks_the_window_baseline() {
        let mut ring = SnapshotRing::new(8);
        for i in 0..5u64 {
            // One sample per second, counter grows by 10 each.
            ring.push(i * 1_000_000_000, snap(&[("c", i * 10)], &[]));
        }
        // 2 s window at t=4 s: baseline is the t=2 s sample.
        assert_eq!(ring.counter_delta("c", 2_000_000_000), Some(20));
        // A window wider than history falls back to the oldest sample.
        assert_eq!(ring.counter_delta("c", 60_000_000_000), Some(40));
    }

    #[test]
    fn eviction_keeps_newest_cap_samples() {
        let mut ring = SnapshotRing::new(3);
        for i in 0..10u64 {
            ring.push(i, snap(&[("c", i)], &[]));
        }
        // Oldest held is t=7, so the widest delta is 9-7.
        assert_eq!(ring.counter_delta("c", u64::MAX), Some(2));
    }

    #[test]
    fn non_monotone_timestamps_are_clamped() {
        let mut ring = SnapshotRing::new(4);
        ring.push(100, snap(&[("c", 1)], &[]));
        ring.push(50, snap(&[("c", 3)], &[]));
        let (t, _) = *ring.latest().unwrap();
        assert_eq!(t, 100);
        assert_eq!(ring.counter_delta("c", u64::MAX), Some(2));
    }

    #[test]
    fn gauge_max_scans_only_the_window() {
        let mut ring = SnapshotRing::new(8);
        ring.push(0, snap(&[], &[("g", 99)]));
        ring.push(1_000, snap(&[], &[("g", 5)]));
        ring.push(2_000, snap(&[], &[("g", 7)]));
        assert_eq!(ring.gauge_max("g", 1_000), Some(7), "the 99 predates the window");
        assert_eq!(ring.gauge_max("g", u64::MAX), Some(99));
        assert_eq!(ring.gauge_max("absent", u64::MAX), None);
    }

    #[test]
    fn histogram_window_subtracts_buckets() {
        let mut older = MetricsSnapshot::default();
        let mut h = HistogramSnapshot::default();
        h.buckets[3] = 4;
        h.count = 4;
        h.sum = 40;
        h.max = 7;
        older.histograms.insert("h".to_owned(), h);
        let mut newer = MetricsSnapshot::default();
        let mut h2 = HistogramSnapshot::default();
        h2.buckets[3] = 4;
        h2.buckets[10] = 2;
        h2.count = 6;
        h2.sum = 1840;
        h2.max = 900;
        newer.histograms.insert("h".to_owned(), h2);

        let mut ring = SnapshotRing::new(4);
        ring.push(0, older);
        ring.push(1_000, newer);
        let w = ring.histogram_window("h", u64::MAX).unwrap();
        assert_eq!(w.count, 2);
        assert_eq!(w.sum, 1800);
        assert_eq!(w.buckets[3], 0);
        assert_eq!(w.buckets[10], 2);
        assert_eq!(w.max, 900, "capped by the cumulative max");
        assert_eq!(w.quantile(0.99), bucket_upper(10));
    }
}
