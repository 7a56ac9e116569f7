//! Zero-dependency observability substrate for the CAD3 pipeline.
//!
//! The paper's headline results are *measurements* — the Fig. 6a latency
//! decomposition, per-stage processing time, bandwidth scaling — so the
//! pipeline instruments itself instead of relying on external stopwatches:
//!
//! * a **metrics registry** ([`registry`]) of atomic [`Counter`]s,
//!   [`Gauge`]s and log-bucketed [`Histogram`]s (p50/p95/p99/max), mergeable
//!   across threads via sharded cells;
//! * **structured spans** ([`span!`]) with parent/child ids, tracing one
//!   vehicle record DSRC-ingest → partition append → consumer poll → NB
//!   predict → handover fuse → alert, with the Fig. 6a stages as first-class
//!   span names;
//! * a **flight recorder** ([`recorder`]): a fixed-size lock-free ring of
//!   recent span events, dumpable on demand or from a panic hook
//!   ([`install_panic_dump`]);
//! * **exporters**: Prometheus-style text ([`export::prometheus_text`]),
//!   JSONL event logs ([`export::events_jsonl`]) and the
//!   [`MetricsSnapshot`] API the bench crate consumes.
//!
//! # Overhead policy
//!
//! The substrate is built to sit permanently in the hot path:
//!
//! * **Per-record instrumentation is gated** on [`enabled`], which is off
//!   by default ("no exporter attached"): span timing, latency histograms,
//!   the flight recorder, derived gauges (consumer lag, queue depth) *and*
//!   the per-record counters on the broker/producer/consumer/link paths all
//!   reduce to one relaxed load + untaken branch when disabled. Even a
//!   sharded relaxed `fetch_add` is measurable at ~300 ns/op
//!   (EXPERIMENTS.md), so nothing per-record runs unconditionally.
//! * **With obs on, a record that is not head-sampled costs no wall-clock
//!   read.** Timing is per batch, per fetch, or per *traced* record — the
//!   decision [`trace::mint`] already made once for the whole trace — never
//!   per record: a clock pair (≈ 60 ns) costs over half of the ≈ 100 ns
//!   append it would time. Per-record *counters* stay exact. Held by the
//!   `obs_clock_budget` tests of `cad3-stream` and `cad3`, which count
//!   [`clock::now_nanos`] calls in debug builds.
//! * **Batch-granularity counters are always on** (micro-batches executed,
//!   RSU records/warnings, alerts, flushes): one relaxed RMW on an
//!   uncontended, cache-padded shard, amortised over a whole batch —
//!   cheaper than the locks the instrumented operation already takes.
//! * **The registry mutex is off the hot path**: the [`counter!`],
//!   [`gauge!`], [`histogram!`] and [`span!`] macros cache their handle in
//!   a per-call-site `OnceLock`, so steady-state instrumentation never
//!   locks.
//!
//! The enforced budget: with the exporter detached, the instrumented broker
//! append + consumer poll benchmarks regress < 5% (see EXPERIMENTS.md). With
//! obs on at 1 % head sampling the line is end to end: `bench_e2e`'s
//! `steady_256v_obs` within 5 % of `steady_256v`'s `records_per_s` (−3.7 % at
//! PR 16, EXPERIMENTS.md), and CI's `obs-e2e` job fails if its
//! `obs.overhead_share` exceeds 0.12.
//!
//! # Example
//!
//! ```
//! cad3_obs::set_enabled(true);
//! {
//!     let _batch = cad3_obs::span!("rsu.micro_batch", 3);
//!     cad3_obs::counter!("rsu.records").add(3);
//!     cad3_obs::histogram!("rsu.processing_us").observe(7_300);
//! }
//! let snap = cad3_obs::registry().snapshot();
//! assert_eq!(snap.counter("rsu.records"), 3);
//! let text = cad3_obs::export::prometheus_text(&snap);
//! assert!(text.contains("cad3_rsu_records_total 3"));
//! cad3_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod health;
mod metrics;
pub mod names;
pub mod profile;
mod recorder;
mod registry;
mod span;
mod sync;
pub mod trace;
pub mod window;

pub use health::{AlertEvent, HealthMonitor, HealthState, Severity, SloContract};
pub use metrics::{
    bucket_lower, bucket_upper, Counter, Exemplar, Gauge, Histogram, HistogramSnapshot,
};
pub use profile::{ProfileSnapshot, ProfileToken, StageTotals};
pub use recorder::{install_panic_dump, recorder, EventKind, FlightRecorder, SpanEvent};
pub use registry::{registry, MetricsSnapshot, Registry};
pub use span::{point, SpanGuard, SpanSite};
pub use trace::{TraceContext, TraceEvent};
pub use window::SnapshotRing;

/// Shared handle to a registered metric cell, as returned by the registry
/// getters — `std::sync::Arc` in normal builds, loom's under `--cfg loom`.
/// Instrumented crates store these to keep steady-state publishing to a
/// single atomic op (no name formatting, no registry lock).
pub use crate::sync::Arc as Handle;

/// The process-wide "exporter attached" gate. A plain std atomic even under
/// loom — see `sync.rs` on what stays outside the model-checked facade.
static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Whether exporter-grade instrumentation (spans, latency histograms,
/// derived gauges, the flight recorder, per-record counters) is active.
/// Batch-granularity counters are always on (see the crate-level overhead
/// policy).
pub fn enabled() -> bool {
    // ordering: Relaxed — an advisory on/off flag; instrumentation reads it
    // independently per site and nothing is published through it.
    ENABLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Attaches ("true") or detaches the exporter-grade instrumentation.
pub fn set_enabled(on: bool) {
    // ordering: Relaxed — see [`enabled`]; late observation of the flip
    // only delays the first/last gated sample.
    ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// The counter named by the literal, as a `&'static Counter`. The registry
/// lookup runs once per call site; afterwards this is a single atomic add.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __OBS_HANDLE: ::std::sync::OnceLock<$crate::__Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**__OBS_HANDLE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// The gauge named by the literal, cached like [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __OBS_HANDLE: ::std::sync::OnceLock<$crate::__Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__OBS_HANDLE.get_or_init(|| $crate::registry().gauge($name))
    }};
}

/// The histogram named by the literal, cached like [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __OBS_HANDLE: ::std::sync::OnceLock<$crate::__Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**__OBS_HANDLE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Enters a span, returning its RAII guard; the optional second argument is
/// a `u64` payload recorded on the enter event (batch size, vehicle count).
/// Inert (no clock read, no recorder write) unless [`enabled`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, 0u64)
    };
    ($name:expr, $value:expr) => {{
        static __OBS_SITE: ::std::sync::OnceLock<$crate::SpanSite> = ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter(
            __OBS_SITE.get_or_init(|| $crate::SpanSite::register($name)),
            $value,
        )
    }};
}

/// Enters a **profile-only** stage, returning its RAII guard: the stage
/// accounts into the continuous profiler's stage tree ([`profile`]), but
/// never touches the flight recorder, the span-id counter or any histogram.
/// This is the form safe inside parallel workers, where recorder writes
/// would make deterministic-replay artifacts schedule-dependent. The name
/// must be a string literal from [`names`] (checked by `cargo xtask lint`'s
/// `profile-names` rule). Inert (no clock read) unless [`enabled`].
#[macro_export]
macro_rules! profile_span {
    ($name:expr) => {{
        static __OBS_STAGE: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::profile::StageGuard::enter(
            *__OBS_STAGE.get_or_init(|| $crate::registry().intern_name($name)),
        )
    }};
}

/// Emits one complete distributed-trace span (`start..end` of virtual time,
/// in nanoseconds) on an active [`TraceContext`], returning the new span id
/// for [`TraceContext::child`]/[`TraceContext::next_hop`] chaining. The
/// name must be a string literal from [`names`] (checked by `cargo xtask
/// lint`'s `span-names` rule); the optional trailing argument is a free
/// `u64` payload. Callers gate on holding a context — a sampled-out record
/// carries `None` and never reaches this macro.
#[macro_export]
macro_rules! trace_span {
    ($name:expr, $ctx:expr, $start:expr, $end:expr, $node:expr) => {
        $crate::trace_span!($name, $ctx, $start, $end, $node, 0u64)
    };
    ($name:expr, $ctx:expr, $start:expr, $end:expr, $node:expr, $value:expr) => {
        $crate::trace::emit($ctx, $name, $start, $end, $node, $value)
    };
}

/// [`trace_span!`] with a pre-reserved span id ([`trace::reserve_ids`]):
/// the form parallel workers use so id allocation happens once, in input
/// order, on the coordinating thread. Same literal-name rule as
/// [`trace_span!`] (the `span-names` lint checks this macro too).
#[macro_export]
macro_rules! trace_span_at {
    ($name:expr, $span:expr, $ctx:expr, $start:expr, $end:expr, $node:expr) => {
        $crate::trace_span_at!($name, $span, $ctx, $start, $end, $node, 0u64)
    };
    ($name:expr, $span:expr, $ctx:expr, $start:expr, $end:expr, $node:expr, $value:expr) => {
        $crate::trace::emit_at($span, $ctx, $name, $start, $end, $node, $value)
    };
}

// The macros above expand in downstream crates, which may not depend on the
// sync facade's Arc by its own path; re-export it under a doc-hidden name.
#[doc(hidden)]
pub use crate::sync::Arc as __Arc;

// `cad3-engine`'s `cfg(loom)` sync facade takes the loom stand-in from here,
// so that it needs no manifest entry (and no lock-file entry in the frozen
// `benchmark/` package) of its own.
#[cfg(loom)]
#[doc(hidden)]
pub use loom as __loom;

#[cfg(all(test, not(loom)))]
pub(crate) mod testutil {
    /// Serialises the unit tests that flip or depend on process-global
    /// state — the enable gate, the sample rate, the global recorder — so
    /// one test's `set_enabled(false)` cannot land inside another's span.
    pub fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A test that failed under the lock poisons it; the state it guards
        // is reset by the next holder, so carry on.
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    #[test]
    fn gate_defaults_off_and_toggles() {
        let _serial = crate::testutil::serial();
        crate::set_enabled(false);
        assert!(!crate::enabled());
        crate::set_enabled(true);
        assert!(crate::enabled());
        crate::set_enabled(false);
    }

    #[test]
    fn macro_handles_are_shared_per_name() {
        crate::counter!("test.lib.counter").add(2);
        crate::counter!("test.lib.counter").add(3);
        assert_eq!(crate::registry().snapshot().counter("test.lib.counter"), 5);
        crate::gauge!("test.lib.gauge").set(9);
        assert_eq!(crate::registry().snapshot().gauge("test.lib.gauge"), 9);
        crate::histogram!("test.lib.histogram").observe(50);
        let snap = crate::registry().snapshot();
        let h = snap.histogram("test.lib.histogram").expect("registered");
        assert_eq!(h.count, 1);
    }
}
