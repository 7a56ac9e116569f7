//! Structured spans: named, timed regions with parent/child links.
//!
//! A span is entered with the [`span!`](crate::span!) macro and ends when
//! the returned guard drops. Entering pushes the span onto a thread-local
//! stack, so nested spans record their parent automatically and one vehicle
//! record can be traced DSRC-ingest → partition append → consumer poll →
//! NB predict → handover fuse → alert across the pipeline. Both edges go to
//! the flight recorder, and the span's duration feeds a histogram named
//! `<span-name>_ns`, which is how the paper's Fig. 6a stage decomposition
//! falls out of the span names.
//!
//! When the substrate is disabled (no exporter attached — the default) the
//! macro returns an inert guard without reading the clock or touching the
//! recorder; the cost is one relaxed atomic load.

use crate::metrics::Histogram;
use crate::recorder::{recorder, EventKind};
use crate::registry::registry;
use crate::sync::Arc;
use std::cell::RefCell;

thread_local! {
    /// The enter-ordered stack of active span ids on this thread.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Allocates a process-unique span id (never 0; 0 means "no parent").
/// Shared with [`crate::trace`] so stage spans and distributed-trace spans
/// draw from one id space.
pub(crate) fn next_span_id() -> u64 {
    reserve_span_ids(1)
}

/// Reserves a contiguous block of `n` process-unique span ids, returning
/// the first (never 0; 0 means "no parent"). One reservation from a
/// coordinating thread lets parallel workers emit spans with
/// *pre-assigned* ids ([`crate::trace::emit_at`]) instead of racing on
/// this counter — the allocation order, and therefore the replay
/// artifacts, stay deterministic regardless of worker schedule.
pub(crate) fn reserve_span_ids(n: u64) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    // Plain std atomic by design — see `sync.rs` on what stays outside the
    // loom facade.
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // ordering: Relaxed — ids only need uniqueness, which fetch_add's
    // atomicity alone guarantees.
    NEXT.fetch_add(n, Ordering::Relaxed)
}

/// Per-call-site span identity, cached in a `OnceLock` by the
/// [`span!`](crate::span!) macro: the interned name plus the duration
/// histogram the span feeds.
#[derive(Debug)]
pub struct SpanSite {
    name_id: u32,
    histogram: Arc<Histogram>,
}

impl SpanSite {
    /// Registers a span name, interning it and creating its `<name>_ns`
    /// duration histogram.
    pub fn register(name: &'static str) -> Self {
        SpanSite {
            name_id: registry().intern_name(name),
            histogram: registry().histogram(&format!("{name}_ns")),
        }
    }
}

/// RAII guard for an active span; dropping it ends the span.
#[derive(Debug)]
pub struct SpanGuard {
    site: Option<&'static SpanSite>,
    id: u64,
    parent: u64,
    start_ns: u64,
}

impl SpanGuard {
    /// Enters a span (called by the [`span!`](crate::span!) macro). `value`
    /// is a free payload recorded on the enter event — batch sizes, vehicle
    /// counts.
    pub fn enter(site: &'static SpanSite, value: u64) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { site: None, id: 0, parent: 0, start_ns: 0 };
        }
        let id = next_span_id();
        let parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(id);
            parent
        });
        let start_ns = crate::clock::now_nanos();
        recorder().record(EventKind::Enter, site.name_id, id, parent, value, start_ns);
        crate::profile::push(site.name_id, start_ns);
        SpanGuard { site: Some(site), id, parent, start_ns }
    }

    /// This span's id (0 for an inert guard).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The enclosing span's id (0 when there is none).
    pub fn parent(&self) -> u64 {
        self.parent
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(site) = self.site else { return };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop this span; tolerate a foreign top if guards were dropped
            // out of order (possible but discouraged).
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        });
        let end_ns = crate::clock::now_nanos();
        let duration = end_ns.saturating_sub(self.start_ns);
        site.histogram.observe(duration);
        recorder().record(EventKind::Exit, site.name_id, self.id, self.parent, duration, end_ns);
        crate::profile::pop(site.name_id, end_ns);
    }
}

/// Records a free-standing point event (no duration) to the flight
/// recorder, attached to the current innermost span if any.
pub fn point(site: &'static SpanSite, value: u64) {
    if !crate::enabled() {
        return;
    }
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    recorder().record(EventKind::Point, site.name_id, 0, parent, value, crate::clock::now_nanos());
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        let _serial = crate::testutil::serial();
        crate::set_enabled(false);
        let g = crate::span!("test.span.disabled");
        assert_eq!(g.id(), 0);
        assert_eq!(g.parent(), 0);
    }

    #[test]
    fn nested_spans_link_parents() {
        let _serial = crate::testutil::serial();
        crate::set_enabled(true);
        let (outer_id, inner_parent);
        {
            let outer = crate::span!("test.span.outer");
            outer_id = outer.id();
            let inner = crate::span!("test.span.inner", 5);
            inner_parent = inner.parent();
            assert_ne!(inner.id(), outer.id());
        }
        crate::set_enabled(false);
        assert_eq!(inner_parent, outer_id, "inner span's parent is the outer span");
        // Both spans fed their duration histograms.
        let snap = registry().snapshot();
        assert!(snap.histogram("test.span.outer_ns").is_some_and(|h| h.count >= 1));
        assert!(snap.histogram("test.span.inner_ns").is_some_and(|h| h.count >= 1));
        // And the recorder holds enter/exit for both.
        let events = crate::recorder().dump();
        let inner_events: Vec<_> = events.iter().filter(|e| e.name == "test.span.inner").collect();
        assert!(inner_events.iter().any(|e| e.kind == EventKind::Enter && e.value == 5));
        assert!(inner_events.iter().any(|e| e.kind == EventKind::Exit));
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let _serial = crate::testutil::serial();
        crate::set_enabled(true);
        let outer = crate::span!("test.span.parent");
        let a = crate::span!("test.span.a");
        let a_parent = a.parent();
        drop(a);
        let b = crate::span!("test.span.b");
        let b_parent = b.parent();
        drop(b);
        let outer_id = outer.id();
        drop(outer);
        crate::set_enabled(false);
        assert_eq!(a_parent, outer_id);
        assert_eq!(b_parent, outer_id);
    }
}
