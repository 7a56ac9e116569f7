//! The flight recorder: a fixed-size lock-free ring buffer of recent span
//! events for post-mortem analysis (a stalled poll loop, a panic mid-batch).
//!
//! Writers claim a ticket from an atomic cursor and publish into
//! `slots[ticket % capacity]` under a seqlock-style sequence word, so
//! recording never blocks and never allocates. Reading back
//! ([`FlightRecorder::dump`]) is best-effort by design: a slot being
//! overwritten *while it is read* is detected by the sequence re-check and
//! skipped, and a slot lapped between the two checks can surface one stale
//! event — acceptable for a diagnostic ring, in exchange for a wait-free
//! hot path. All slot fields are atomics, so torn reads are impossible at
//! the memory level; the protocol only has to keep whole *events*
//! consistent.
//!
//! Two fences make that hold under the language memory model, not just on
//! x86 (Boehm, "Can Seqlocks Get Along with Programming Language Memory
//! Models?", MSPC 2012). A `Release` store of the odd word orders nothing
//! *after* it, so the writer follows it with `fence(Release)`: a reader
//! that sees any of the new field values then sees the odd word on its
//! re-check. An `Acquire` re-check orders nothing *before* it, so the
//! reader precedes it with `fence(Acquire)`: the field loads cannot be
//! satisfied after the re-check. Without either, `dump` could accept an
//! event mixing two writes. Model-checked in `tests/loom_obs.rs`.
//!
//! The recorder stores interned name ids (see
//! [`Registry::intern_name`](crate::Registry::intern_name)), not pointers:
//! slots stay plain `u64`s and the crate stays `forbid(unsafe_code)`.

use crate::metrics::Gauge;
use crate::registry;
use crate::sync::{fence, Arc, AtomicU64, Ordering};
use std::sync::OnceLock;

/// What a recorded event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered.
    Enter,
    /// A span ended; `value` is its duration in nanoseconds.
    Exit,
    /// A point event (no duration).
    Point,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Enter => 1,
            EventKind::Exit => 2,
            EventKind::Point => 3,
        }
    }

    fn from_code(c: u64) -> Option<Self> {
        match c {
            1 => Some(EventKind::Enter),
            2 => Some(EventKind::Exit),
            3 => Some(EventKind::Point),
            _ => None,
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Global record order (1-based ticket; later events have larger seq).
    pub seq: u64,
    /// Nanoseconds since the process clock anchor.
    pub time_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Resolved span/event name.
    pub name: &'static str,
    /// Span id (0 for free-standing point events).
    pub span: u64,
    /// Parent span id (0 when the span has no parent).
    pub parent: u64,
    /// Kind-specific payload: batch size on enter, duration (ns) on exit.
    pub value: u64,
}

#[derive(Debug, Default)]
struct Slot {
    /// 0 = empty, odd = being written, even = `2 * (ticket + 1)` published.
    seq: AtomicU64,
    time: AtomicU64,
    kind: AtomicU64,
    name_id: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    value: AtomicU64,
}

/// A fixed-capacity ring of span events. Usually accessed through the
/// process-wide [`recorder`].
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Slot>,
    cursor: AtomicU64,
    /// Published copy of [`FlightRecorder::dropped`]; installed only on the
    /// process-wide [`recorder`] so private test instances never write the
    /// global `obs.recorder.dropped` gauge.
    drop_gauge: Option<Arc<Gauge>>,
}

impl FlightRecorder {
    /// Creates a recorder keeping the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
            cursor: AtomicU64::new(0),
            drop_gauge: None,
        }
    }

    /// Mirrors this recorder's overwrite loss onto `gauge` (the
    /// `obs.recorder.dropped` cell for the process-wide [`recorder`]), so
    /// snapshots and the Prometheus exporter can judge trace/span-dump
    /// completeness without holding the recorder itself.
    pub fn with_drop_gauge(mut self, gauge: Arc<Gauge>) -> Self {
        self.drop_gauge = Some(gauge);
        self
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        // ordering: Relaxed — a statistic read; dump() does its own
        // per-slot synchronisation.
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap: everything recorded beyond what the ring
    /// can still hold.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event (wait-free; overwrites the oldest when full).
    pub fn record(
        &self,
        kind: EventKind,
        name_id: u32,
        span: u64,
        parent: u64,
        value: u64,
        time_ns: u64,
    ) {
        // ordering: Relaxed — the ticket only claims a unique slot index;
        // publication happens through the slot's own seq word below.
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let capacity = self.slots.len() as u64;
        if ticket >= capacity {
            // This write overwrites the oldest event; keep the loss gauge
            // current so exporters can report it without polling.
            if let Some(gauge) = &self.drop_gauge {
                gauge.set(ticket + 1 - capacity);
            }
        }
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        let published = 2 * (ticket + 1);
        // ordering: Relaxed — the odd seq marks the slot mid-write; the
        // Release fence below is what orders it before the field stores.
        slot.seq.store(published - 1, Ordering::Relaxed);
        // ordering: Release fence — any reader whose loads see a field store
        // below also sees the odd seq on its re-check (module docs).
        fence(Ordering::Release);
        // ordering: Relaxed — fields are ordered by the fences above/below.
        slot.time.store(time_ns, Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.name_id.store(u64::from(name_id), Ordering::Relaxed);
        // ordering: Relaxed — still inside the seq-word write window.
        slot.span.store(span, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        // ordering: Release — the even seq publishes the fields to readers.
        slot.seq.store(published, Ordering::Release);
    }

    /// Decodes the surviving events, oldest first. Slots caught mid-write
    /// are skipped (see the module docs on best-effort reads).
    pub fn dump(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for slot in &self.slots {
            // ordering: Acquire — pairs with the writer's even Release store
            // so the field loads below see at least that write's values.
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            // ordering: Relaxed — bracketed by the seq re-check below.
            let time_ns = slot.time.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let name_id = slot.name_id.load(Ordering::Relaxed);
            // ordering: Relaxed — still bracketed by the seq re-check.
            let span = slot.span.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            // ordering: Acquire fence — keeps the field loads above from
            // being satisfied after the re-check (module docs).
            fence(Ordering::Acquire);
            // ordering: Relaxed — ordered after the field loads by the fence;
            // a changed seq means a concurrent rewrite, so skip the slot.
            if slot.seq.load(Ordering::Relaxed) != before {
                continue;
            }
            let Some(kind) = EventKind::from_code(kind) else { continue };
            out.push(SpanEvent {
                seq: before / 2,
                time_ns,
                kind,
                name: registry().name_of(u32::try_from(name_id).unwrap_or(u32::MAX)),
                span,
                parent,
                value,
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }
}

/// The process-wide flight recorder (4096 most recent events). Its ring
/// wrap is published on the `obs.recorder.dropped` gauge.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| {
        FlightRecorder::with_capacity(4096)
            .with_drop_gauge(registry().gauge("obs.recorder.dropped"))
    })
}

/// Installs a panic hook that dumps the flight recorder (as JSONL, to
/// stderr) before delegating to the previous hook — the post-mortem view of
/// whatever the pipeline was doing when it died. Safe to call more than
/// once; each call chains onto the hook installed before it.
pub fn install_panic_dump() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        use std::io::Write;
        let events = recorder().dump();
        let mut stderr = std::io::stderr().lock();
        let _ = writeln!(stderr, "--- cad3-obs flight recorder ({} events) ---", events.len());
        let _ = stderr.write_all(crate::export::events_jsonl(&events).as_bytes());
        let _ = writeln!(stderr, "--- end flight recorder ---");
        previous(info);
    }));
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn name_id(name: &'static str) -> u32 {
        registry().intern_name(name)
    }

    #[test]
    fn record_and_dump_round_trip() {
        let r = FlightRecorder::with_capacity(8);
        let id = name_id("test.event");
        r.record(EventKind::Enter, id, 1, 0, 42, 100);
        r.record(EventKind::Exit, id, 1, 0, 7, 150);
        let events = r.dump();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::Enter);
        assert_eq!(events[0].name, "test.event");
        assert_eq!(events[0].value, 42);
        assert_eq!(events[1].kind, EventKind::Exit);
        assert!(events[0].seq < events[1].seq);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder::with_capacity(4);
        let id = name_id("test.ring");
        for i in 0..10u64 {
            r.record(EventKind::Point, id, i, 0, i, i);
        }
        let events = r.dump();
        assert_eq!(events.len(), 4);
        // The survivors are the last four tickets, in order.
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn drop_gauge_tracks_ring_wrap() {
        let gauge = std::sync::Arc::new(crate::Gauge::new());
        let r = FlightRecorder::with_capacity(4).with_drop_gauge(std::sync::Arc::clone(&gauge));
        let id = name_id("test.ring.gauge");
        for i in 0..3u64 {
            r.record(EventKind::Point, id, i, 0, i, i);
        }
        assert_eq!((r.dropped(), gauge.value()), (0, 0), "no wrap yet");
        for i in 0..7u64 {
            r.record(EventKind::Point, id, i, 0, i, i);
        }
        assert_eq!(r.dropped(), 6);
        assert_eq!(gauge.value(), 6, "gauge mirrors the overwrite loss");
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_dump() {
        let r = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        let id = name_id("test.concurrent");
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        r.record(EventKind::Point, id, t, 0, i, i);
                    }
                })
            })
            .collect();
        // Dump while writers are active: every decoded event must be
        // internally consistent.
        for _ in 0..50 {
            for e in r.dump() {
                assert_eq!(e.name, "test.concurrent");
                assert!(e.value < 500);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.recorded(), 2000);
        assert_eq!(r.dump().len(), 64);
    }
}
