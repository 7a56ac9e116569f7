//! Sliding-window aggregation over timestamped values — the streaming
//! primitive behind "the latest received data is the most valuable for
//! accurate timely decision making" (the paper's Section II): RSUs keep
//! per-road speed statistics over a recent window rather than all history.

use cad3_types::{count_f64, IdBuildHasher};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A count/sum aggregate over a sliding time window, bucketed at a fixed
/// granularity (ring of sub-window buckets, O(1) memory in stream length).
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    window_ns: u64,
    bucket_ns: u64,
    /// `(bucket_index, count, sum)` in increasing bucket order.
    buckets: VecDeque<(u64, u64, f64)>,
}

impl SlidingWindow {
    /// Creates a window of length `window_ns` with `bucket_ns` resolution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < bucket_ns <= window_ns`.
    pub fn new(window_ns: u64, bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0 && bucket_ns <= window_ns, "invalid window/bucket sizes");
        SlidingWindow { window_ns, bucket_ns, buckets: VecDeque::new() }
    }

    fn evict(&mut self, now_ns: u64) {
        let horizon = now_ns.saturating_sub(self.window_ns) / self.bucket_ns;
        while let Some(&(b, _, _)) = self.buckets.front() {
            if b < horizon {
                self.buckets.pop_front();
            } else {
                break;
            }
        }
    }

    /// Records `value` at time `t_ns`. Values may arrive slightly out of
    /// order within the window.
    pub fn record(&mut self, t_ns: u64, value: f64) {
        let bucket = t_ns / self.bucket_ns;
        match self.buckets.iter_mut().rev().find(|(b, _, _)| *b <= bucket) {
            Some((b, count, sum)) if *b == bucket => {
                *count += 1;
                *sum += value;
            }
            _ => {
                // Insert keeping bucket order (common case: append).
                let pos = self.buckets.iter().position(|(b, _, _)| *b > bucket);
                match pos {
                    Some(i) => self.buckets.insert(i, (bucket, 1, value)),
                    None => self.buckets.push_back((bucket, 1, value)),
                }
            }
        }
        self.evict(t_ns);
    }

    /// `(count, mean)` of the values within the window ending at `now_ns`.
    /// Returns `(0, 0.0)` for an empty window.
    pub fn stats_at(&mut self, now_ns: u64) -> (u64, f64) {
        self.evict(now_ns);
        let (count, sum) =
            self.buckets.iter().fold((0u64, 0.0), |(c, s), (_, bc, bs)| (c + bc, s + bs));
        if count == 0 {
            (0, 0.0)
        } else {
            (count, sum / count_f64(count))
        }
    }
}

/// Per-key sliding windows (e.g. one per road).
///
/// Keys hash with [`cad3_types::IdHasher`], keyed per process; nothing walks
/// the map, so no output depends on those keys.
#[derive(Debug, Clone)]
pub struct KeyedWindows<K> {
    window_ns: u64,
    bucket_ns: u64,
    map: HashMap<K, SlidingWindow, IdBuildHasher>,
}

impl<K: Eq + Hash + Clone> KeyedWindows<K> {
    /// Creates an empty keyed-window set.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < bucket_ns <= window_ns`.
    pub fn new(window_ns: u64, bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0 && bucket_ns <= window_ns, "invalid window/bucket sizes");
        KeyedWindows { window_ns, bucket_ns, map: HashMap::default() }
    }

    /// Records a value for `key` at `t_ns`.
    pub fn record(&mut self, key: K, t_ns: u64, value: f64) {
        self.map
            .entry(key)
            .or_insert_with(|| SlidingWindow::new(self.window_ns, self.bucket_ns))
            .record(t_ns, value);
    }

    /// `(count, mean)` for `key` at `now_ns`; `None` if the key was never
    /// seen.
    pub fn stats_at(&mut self, key: &K, now_ns: u64) -> Option<(u64, f64)> {
        self.map.get_mut(key).map(|w| w.stats_at(now_ns))
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn mean_over_window() {
        let mut w = SlidingWindow::new(10 * SEC, SEC);
        for i in 0..10u64 {
            w.record(i * SEC, i as f64);
        }
        let (count, mean) = w.stats_at(9 * SEC);
        assert_eq!(count, 10);
        assert!((mean - 4.5).abs() < 1e-12);
    }

    #[test]
    fn old_values_age_out() {
        let mut w = SlidingWindow::new(5 * SEC, SEC);
        w.record(0, 100.0);
        for i in 10..15u64 {
            w.record(i * SEC, 1.0);
        }
        let (count, mean) = w.stats_at(14 * SEC);
        assert_eq!(count, 5, "the value at t=0 aged out");
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_zero() {
        let mut w = SlidingWindow::new(SEC, SEC / 10);
        assert_eq!(w.stats_at(SEC), (0, 0.0));
        w.record(0, 5.0);
        let _ = w.stats_at(100 * SEC);
        assert_eq!(w.stats_at(100 * SEC), (0, 0.0));
    }

    #[test]
    fn slightly_out_of_order_values_accepted() {
        let mut w = SlidingWindow::new(10 * SEC, SEC);
        w.record(5 * SEC, 1.0);
        w.record(3 * SEC, 3.0); // late arrival
        w.record(6 * SEC, 2.0);
        let (count, mean) = w.stats_at(6 * SEC);
        assert_eq!(count, 3);
        assert!((mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tracking_follows_a_level_shift() {
        // The window mean tracks a regime change within one window length —
        // the "most recent data" requirement.
        let mut w = SlidingWindow::new(10 * SEC, SEC);
        for i in 0..20u64 {
            w.record(i * SEC, 10.0);
        }
        for i in 20..31u64 {
            w.record(i * SEC, 50.0);
        }
        let (_, mean) = w.stats_at(30 * SEC);
        assert!((mean - 50.0).abs() < 4.0, "mean {mean} should approach the new level");
    }

    #[test]
    fn keyed_windows_are_independent() {
        let mut kw: KeyedWindows<&str> = KeyedWindows::new(10 * SEC, SEC);
        for i in 0..5u64 {
            kw.record("a", i * SEC, 10.0);
            kw.record("b", i * SEC, 20.0);
        }
        assert_eq!(kw.len(), 2);
        let (ca, ma) = kw.stats_at(&"a", 4 * SEC).unwrap();
        let (cb, mb) = kw.stats_at(&"b", 4 * SEC).unwrap();
        assert_eq!((ca, cb), (5, 5));
        assert!((ma - 10.0).abs() < 1e-12 && (mb - 20.0).abs() < 1e-12);
        assert!(kw.stats_at(&"c", 0).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid window/bucket")]
    fn zero_bucket_panics() {
        SlidingWindow::new(SEC, 0);
    }
}
