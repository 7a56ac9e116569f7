//! Property-based tests of the snapshot ring the SLO engine evaluates
//! over (DESIGN.md "Health & SLOs"): windowed counter deltas and gauge
//! maxima agree with a plain-vector oracle under arbitrary tick spacing,
//! eviction and wraparound, and windowed histogram quantiles stay within
//! one log2 bucket of the exact order statistic. And the contract those
//! windows are evaluated for: `SloContract::parse`, the one reader of
//! `slos.toml`, returns `Ok` or `Err` on any text and never panics.
//!
//! The oracle keeps its own bounded history (a `Vec` truncated to the
//! ring's capacity) and re-derives every answer from raw samples, so an
//! eviction or baseline-selection bug in the ring cannot hide.

use cad3_obs::{HistogramSnapshot, MetricsSnapshot, SloContract, SnapshotRing};
use proptest::prelude::*;
use std::collections::BTreeMap;

const COUNTER: &str = "prop.counter";
const GAUGE: &str = "prop.gauge";
const HISTO: &str = "prop.histo";

/// A snapshot carrying one counter and one gauge reading.
fn snap(counter: u64, gauge: u64) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: [(COUNTER.to_owned(), counter)].into_iter().collect(),
        gauges: [(GAUGE.to_owned(), gauge)].into_iter().collect(),
        histograms: BTreeMap::new(),
        exemplars: BTreeMap::new(),
    }
}

/// The ring's baseline rule, restated over a plain slice of samples: the
/// youngest sample (excluding the newest) at least `window_ns` older than
/// the newest, or the oldest retained one; `None` below two samples.
fn oracle_baseline<T: Copy>(hist: &[(u64, T)], window_ns: u64) -> Option<(u64, T)> {
    if hist.len() < 2 {
        return None;
    }
    let newest = hist.last()?.0;
    let cutoff = newest.saturating_sub(window_ns);
    hist.iter().rev().skip(1).find(|(t, _)| *t <= cutoff).or_else(|| hist.first()).copied()
}

proptest! {
    /// Counter deltas match the oracle after every push, for any tick
    /// spacing (including ties) and any capacity — i.e. across warm-up,
    /// steady state and eviction.
    #[test]
    fn counter_delta_matches_oracle(
        cap in 2usize..8,
        steps in prop::collection::vec((0u64..3_000_000_000, 0u64..1_000), 1..40),
        window_ns in 1u64..5_000_000_000,
    ) {
        let mut ring = SnapshotRing::new(cap);
        let mut hist: Vec<(u64, u64)> = Vec::new(); // (t, cumulative counter)
        let mut t = 0u64;
        let mut total = 0u64;
        for &(dt, inc) in &steps {
            t += dt;
            total += inc;
            ring.push(t, snap(total, 0));
            hist.push((t, total));
            if hist.len() > cap {
                hist.remove(0);
            }

            let expected = oracle_baseline(&hist, window_ns)
                .map(|(_, base)| total - base);
            prop_assert_eq!(ring.counter_delta(COUNTER, window_ns), expected);
        }
    }

    /// The windowed gauge maximum is exactly the maximum of the retained
    /// samples from the baseline onwards — the "worst reading in the
    /// window" the `value` signal feeds on.
    #[test]
    fn gauge_max_matches_oracle(
        cap in 2usize..8,
        steps in prop::collection::vec((0u64..3_000_000_000, 0u64..1_000_000), 1..40),
        window_ns in 1u64..5_000_000_000,
    ) {
        let mut ring = SnapshotRing::new(cap);
        let mut hist: Vec<(u64, u64)> = Vec::new(); // (t, gauge)
        let mut t = 0u64;
        for &(dt, reading) in &steps {
            t += dt;
            ring.push(t, snap(0, reading));
            hist.push((t, reading));
            if hist.len() > cap {
                hist.remove(0);
            }

            let expected = oracle_baseline(&hist, window_ns).map(|(bt, _)| {
                hist.iter().filter(|(st, _)| *st >= bt).map(|(_, v)| *v).max().unwrap_or(0)
            });
            prop_assert_eq!(ring.gauge_max(GAUGE, window_ns), expected);
        }
    }

    /// Windowed histogram quantiles stay within one log2 bucket of the
    /// exact order statistic of the in-window observations: for the
    /// reported estimate `h` and true value `e`, `e <= h <= 2e` (and `h`
    /// is 0 exactly when `e` is). Count and sum are exact.
    #[test]
    fn histogram_window_quantile_within_one_bucket(
        batches in prop::collection::vec(
            prop::collection::vec(0u64..1 << 48, 0..12),
            2..12,
        ),
        q_sel in 0usize..3,
    ) {
        let tick = 100_000_000u64; // 100 ms between snapshots
        let mut ring = SnapshotRing::new(batches.len() + 1);
        let mut cumulative = HistogramSnapshot::default();
        for (i, batch) in batches.iter().enumerate() {
            for &v in batch {
                // Bucket `b` holds values with exactly `b` significant
                // bits — mirrors the histogram's own indexing.
                let b = if v == 0 { 0 } else { 64 - v.leading_zeros() as usize };
                cumulative.buckets[b] += 1;
                cumulative.count += 1;
                cumulative.sum = cumulative.sum.saturating_add(v);
                cumulative.max = cumulative.max.max(v);
            }
            ring.push(
                (i as u64 + 1) * tick,
                MetricsSnapshot {
                    counters: BTreeMap::new(),
                    gauges: BTreeMap::new(),
                    histograms: [(HISTO.to_owned(), cumulative.clone())].into_iter().collect(),
                    exemplars: BTreeMap::new(),
                },
            );
        }

        // A window wider than the whole run: the baseline is the first
        // snapshot, so the in-window set is every observation after batch 0.
        let window_ns = (batches.len() as u64 + 2) * tick;
        let mut in_window: Vec<u64> = batches[1..].iter().flatten().copied().collect();
        in_window.sort_unstable();

        // Every snapshot carries the key, so the window always resolves.
        let h = ring.histogram_window(HISTO, window_ns).expect("window resolves");
        prop_assert_eq!(h.count, in_window.len() as u64);
        let want_sum: u64 = in_window.iter().sum();
        prop_assert_eq!(h.sum, want_sum);

        if !in_window.is_empty() {
            let q = [0.50, 0.95, 0.99][q_sel];
            let rank = ((q * in_window.len() as f64).ceil() as usize)
                .clamp(1, in_window.len());
            let exact = in_window[rank - 1];
            let est = h.quantile(q);
            prop_assert!(
                est >= exact && est <= exact.saturating_mul(2),
                "q{}: estimate {} vs exact {} (must be within one log2 bucket)",
                q, est, exact,
            );
        } else {
            prop_assert_eq!(h.quantile(0.99), 0);
        }
    }

    /// Arbitrary bytes, read as text, through the contract parser.
    #[test]
    fn slo_parser_never_panics_on_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = SloContract::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Contract-shaped text: lines assembled from the dialect's own
    /// fragments (headers, keys, quotes, numbers at the edges of their
    /// types), so most inputs get past the first line and reach the value
    /// parsers and `validate`.
    #[test]
    fn slo_parser_never_panics_on_contract_fragments(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..64),
    ) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        if let Ok(c) = SloContract::parse(&text) {
            prop_assert!(c.slos.iter().all(|s| !s.max.is_nan() && !s.metric.is_empty()));
        }
    }

    /// The checked-in contract with one byte deleted or replaced by a
    /// dialect-significant one.
    #[test]
    fn slo_parser_never_panics_on_mutated_contract(
        at in 0usize..CONTRACT.len(),
        with in 0usize..MUTANTS.len() + 1,
    ) {
        let mut bytes = CONTRACT.as_bytes().to_vec();
        match MUTANTS.as_bytes().get(with) {
            Some(&b) => bytes[at] = b,
            None => drop(bytes.remove(at)),
        }
        let _ = SloContract::parse(&String::from_utf8_lossy(&bytes));
    }
}

/// The checked-in contract.
const CONTRACT: &str = include_str!("../../../slos.toml");

/// Replacement bytes for the mutated-contract property.
const MUTANTS: &str = "[]=\"#._-0\n ";

/// Building blocks of contract-shaped text.
const FRAGMENTS: [&str; 34] = [
    "\n",
    " ",
    "=",
    "\"",
    "#",
    "[",
    "]",
    "[health]\n",
    "[slo.rsu.latency.total]\n",
    "[slo.",
    "Bad-Name",
    "tick_ms",
    "ring_capacity",
    "escalate_ticks",
    "metric",
    "signal",
    "max",
    "min",
    "per_member",
    "severity",
    "fast_window_ms",
    "slow_window_ms",
    "burn_threshold",
    "\"rsu.total_us\"",
    "\"rsu.lag\"",
    "\"p99\"",
    "\"overloaded\"",
    "true",
    "0",
    "1_000",
    "-1",
    "nan",
    "18446744073709551615",
    "1e308",
];
