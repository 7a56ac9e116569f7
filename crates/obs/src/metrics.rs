//! Metric primitives: sharded counters, gauges and log-bucketed histograms.
//!
//! All three are write-optimised for hot paths: updates touch only atomics
//! in a per-thread shard (no locks, no allocation), and reads *merge* the
//! shards into a consistent snapshot. With the exporter detached the cost
//! of a counter update is one relaxed `fetch_add` on an uncontended cache
//! line; histogram observations are three relaxed RMWs plus a CAS loop for
//! the maximum.
//!
//! # Ordering policy
//!
//! Every cell is an independent monotone statistic that no code uses to
//! synchronise other memory. All accesses are `Relaxed`; a merged snapshot
//! taken during concurrent writes may lag in-flight updates and its
//! `sum`/`max` need not be mutually consistent with the bucket totals at any
//! instant, but once writers are quiescent (e.g. after a thread join) the
//! merge is exact — the property model-checked in `tests/loom_obs.rs`.

use crate::sync::{AtomicU64, Ordering};

/// Number of per-thread shards per metric. Threads are assigned shards
/// round-robin; more shards than typical worker counts buys nothing, and
/// each histogram shard carries its own bucket array.
pub(crate) const SHARDS: usize = 4;

/// Number of histogram buckets: bucket `b` holds values with exactly `b`
/// significant bits (`0` itself in bucket 0, `v ∈ [2^(b-1), 2^b)` in bucket
/// `b ≥ 1`), so the relative quantile error is bounded by one power of two.
pub const BUCKETS: usize = 65;

/// The shard this thread writes to.
///
/// The cache is a const-initialized `Cell` rather than a lazily-computed
/// `thread_local!` value: const TLS compiles to a direct slot access with
/// no per-call init flag or destructor check, which matters on the broker
/// append path (see EXPERIMENTS.md "Observability overhead").
pub(crate) fn shard_index() -> usize {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SHARD.with(|s| {
        let cached = s.get();
        if cached != usize::MAX {
            return cached;
        }
        // ordering: Relaxed — the counter only distributes threads over
        // shards round-robin; any interleaving is equally correct.
        let assigned = NEXT.fetch_add(1, StdOrdering::Relaxed) % SHARDS;
        s.set(assigned);
        assigned
    })
}

/// One cache line per shard so concurrent writers do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64 {
    value: AtomicU64,
}

/// A monotone counter, sharded across cache-padded cells.
#[derive(Debug)]
pub struct Counter {
    cells: Vec<PaddedU64>,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter { cells: (0..SHARDS).map(|_| PaddedU64 { value: AtomicU64::new(0) }).collect() }
    }

    /// Adds `n` to this thread's shard.
    pub fn add(&self, n: u64) {
        // hotpath-exempt(panic): shard_index() < SHARDS, and `cells` is built
        // with exactly SHARDS entries in new().
        // ordering: Relaxed — independent statistic; see the module policy.
        self.cells[shard_index()].value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The merged total across all shards.
    pub fn value(&self) -> u64 {
        // ordering: Relaxed — merging monotone statistics; see the
        // module-level ordering policy.
        self.cells.iter().map(|c| c.value.load(Ordering::Relaxed)).sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A last-value-wins gauge (e.g. consumer lag, queue depth).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Gauge { value: AtomicU64::new(0) }
    }

    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        // ordering: Relaxed — independent statistic; see the module-level
        // ordering policy.
        self.value.store(v, Ordering::Relaxed);
    }

    /// The last value set.
    pub fn value(&self) -> u64 {
        // ordering: Relaxed — independent statistic; see the module-level
        // ordering policy.
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// One histogram shard: a full bucket array plus sum and max. `count` is
/// derived from the buckets at merge time so a snapshot's count always
/// equals its bucket total.
#[repr(align(64))]
#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A tail-latency exemplar: the last observation published into a bucket,
/// linked to the distributed trace that produced it. `trace_id == 0` never
/// occurs (ids are minted from 1), so 0 doubles as the empty-slot marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The [`crate::TraceContext`] trace id that produced the observation.
    pub trace_id: u64,
    /// The observed value (same unit as the histogram).
    pub value: u64,
}

/// One exemplar slot: the (trace_id, value) pair is published as two
/// relaxed stores with last-writer-wins semantics per field. A reader
/// racing a writer may pair a fresh trace id with the previous value (or
/// vice versa) — the documented "relaxed, overwrite-on-race" contract:
/// exemplars are debugging breadcrumbs, and any published trace id is a
/// real trace worth expanding. `trace_id == 0` means never written.
#[derive(Debug)]
struct ExemplarSlot {
    trace_id: AtomicU64,
    value: AtomicU64,
}

impl ExemplarSlot {
    fn new() -> Self {
        ExemplarSlot { trace_id: AtomicU64::new(0), value: AtomicU64::new(0) }
    }
}

/// Index of the log2 bucket holding `v`: its number of significant bits.
pub(crate) fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `b`.
pub fn bucket_lower(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1).min(63)
    }
}

/// Inclusive upper bound of bucket `b`.
pub fn bucket_upper(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A log2-bucketed latency histogram, mergeable across threads via sharded
/// cells. Values are whatever unit the call site chooses (the workspace
/// convention encodes the unit in the metric name: `*_ns`, `*_us`).
#[derive(Debug)]
pub struct Histogram {
    cells: Vec<HistogramCell>,
    /// One slot per bucket when exemplar capture is enabled for this
    /// histogram (the registry opts catalogue names in via
    /// [`crate::names::EXEMPLAR_HISTOGRAMS`]); `None` costs nothing.
    exemplars: Option<Box<[ExemplarSlot]>>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { cells: (0..SHARDS).map(|_| HistogramCell::new()).collect(), exemplars: None }
    }

    /// Creates an empty histogram with one exemplar slot per bucket.
    pub fn with_exemplars() -> Self {
        let mut h = Histogram::new();
        h.exemplars = Some((0..BUCKETS).map(|_| ExemplarSlot::new()).collect());
        h
    }

    /// Records one observation into this thread's shard.
    pub fn observe(&self, v: u64) {
        // hotpath-exempt(panic): shard_index() is reduced modulo SHARDS and the
        // cells vec is built with exactly SHARDS entries in new().
        let cell = &self.cells[shard_index()];
        // hotpath-exempt(panic): bucket_index() is at most 64; BUCKETS is 65.
        // ordering: Relaxed — independent statistics; see the module policy.
        cell.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
        // Lock-free running maximum (fetch_max by hand so the loom facade,
        // which models only load/store/fetch_add/compare_exchange, covers it).
        // ordering: Relaxed — the max is a statistic like the rest.
        let mut seen = cell.max.load(Ordering::Relaxed);
        while v > seen {
            match cell.max.compare_exchange(seen, v, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => seen = actual,
            }
        }
    }

    /// Records one observation, publishing it as the bucket's exemplar if
    /// this histogram carries exemplar slots and `trace_id` is nonzero.
    /// `trace_id == 0` (sampled-out record, no active trace) behaves
    /// exactly like [`Self::observe`].
    pub fn observe_with_exemplar(&self, v: u64, trace_id: u64) {
        self.observe(v);
        if trace_id == 0 {
            return;
        }
        let Some(slots) = &self.exemplars else { return };
        // hotpath-exempt(panic): bucket_index() is at most 64; the slot
        // table is built with exactly BUCKETS (65) entries.
        let slot = &slots[bucket_index(v)];
        // ordering: Relaxed — overwrite-on-race exemplar publish; the two
        // fields are independently last-writer-wins (see ExemplarSlot).
        slot.value.store(v, Ordering::Relaxed);
        // ordering: Relaxed — same overwrite-on-race publish as above.
        slot.trace_id.store(trace_id, Ordering::Relaxed);
    }

    /// The exemplars currently published, as (bucket index, exemplar)
    /// pairs. Empty when this histogram has no exemplar slots or none has
    /// been written yet.
    pub fn exemplars(&self) -> Vec<(usize, Exemplar)> {
        let Some(slots) = &self.exemplars else { return Vec::new() };
        let mut out = Vec::new();
        for (b, slot) in slots.iter().enumerate() {
            // ordering: Relaxed — overwrite-on-race exemplar read; a torn
            // (id, value) pairing is an accepted outcome (see ExemplarSlot).
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            if trace_id == 0 {
                continue;
            }
            // ordering: Relaxed — same exemplar read as above.
            let value = slot.value.load(Ordering::Relaxed);
            out.push((b, Exemplar { trace_id, value }));
        }
        out
    }

    /// Merges every shard into one immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut sum = 0u64;
        let mut max = 0u64;
        for cell in &self.cells {
            for (b, merged) in buckets.iter_mut().enumerate() {
                // ordering: Relaxed — merging monotone statistics; see the
                // module-level ordering policy.
                *merged += cell.buckets[b].load(Ordering::Relaxed);
            }
            // ordering: Relaxed — same statistic merge as above.
            sum = sum.saturating_add(cell.sum.load(Ordering::Relaxed));
            // ordering: Relaxed — same statistic merge as above.
            max = max.max(cell.max.load(Ordering::Relaxed));
        }
        let count = buckets.iter().sum();
        HistogramSnapshot { buckets, count, sum, max }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// An immutable merged view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts: bucket `b` holds values with exactly
    /// `b` significant bits ([`bucket_lower`]..=[`bucket_upper`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations (always equals the bucket total).
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    /// An empty snapshot — the zero element of windowed subtraction (see
    /// `crate::window`).
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the *upper bound* of the bucket
    /// containing that rank, so the estimate is within one bucket width of
    /// the exact order statistic. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn counter_merges_shards() {
        let c = Counter::new();
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = std::sync::Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn gauge_is_last_value_wins() {
        let g = Gauge::new();
        assert_eq!(g.value(), 0);
        g.set(17);
        g.set(5);
        assert_eq!(g.value(), 5);
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for b in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(b)), b, "lower bound of {b}");
            assert_eq!(bucket_index(bucket_upper(b)), b, "upper bound of {b}");
        }
    }

    #[test]
    fn histogram_counts_and_max() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 900, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1906);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[10], 2, "900 and 1000 both have 10 significant bits");
    }

    #[test]
    fn quantiles_bound_the_order_statistic() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        // Exact p50 is 500 (bucket 9: 256..=511); the estimate is that
        // bucket's upper bound.
        assert_eq!(s.p50(), 511);
        assert_eq!(s.p99(), 1023);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
    }

    #[test]
    fn exemplars_capture_the_last_trace_per_bucket() {
        let h = Histogram::with_exemplars();
        h.observe_with_exemplar(900, 0xabc);
        h.observe_with_exemplar(1000, 0xdef);
        h.observe_with_exemplar(3, 7);
        let ex = h.exemplars();
        // 900 and 1000 share bucket 10; the later write wins.
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0], (2, Exemplar { trace_id: 7, value: 3 }));
        assert_eq!(ex[1], (10, Exemplar { trace_id: 0xdef, value: 1000 }));
    }

    #[test]
    fn zero_trace_id_observes_without_publishing() {
        let h = Histogram::with_exemplars();
        h.observe_with_exemplar(42, 0);
        assert_eq!(h.snapshot().count, 1);
        assert!(h.exemplars().is_empty());
    }

    #[test]
    fn plain_histograms_have_no_exemplars() {
        let h = Histogram::new();
        h.observe_with_exemplar(42, 9);
        assert_eq!(h.snapshot().count, 1, "the observation still lands");
        assert!(h.exemplars().is_empty());
    }

    #[test]
    fn histogram_merges_across_threads() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        h.observe(t * 1000 + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 3249);
    }
}
