//! Distributed tracing: per-record context propagation, a bounded span-event
//! sink, and causal assembly with critical-path attribution.
//!
//! The span machinery in [`crate::span`] times *stages* on one thread; this
//! module gives one vehicle record an identity that survives the stream
//! substrate, the emulated DSRC/wired links and — the CAD3-specific part — a
//! handover, where the CO-DATA summary carries the originating lineage so
//! the next RSU's `rsu.handover.fuse` span links back to the previous RSU's
//! spans (Dapper-style propagation; see DESIGN.md "Distributed tracing").
//!
//! # Model
//!
//! * A [`TraceContext`] is minted per record at emission ([`mint`]), subject
//!   to head-based sampling: the decision is made once at the root and
//!   inherited by every child span. The sampled-out path is `None` end to
//!   end — no allocation, no event, one relaxed load + branch at the mint
//!   site (the default rate is 0, so an untraced run pays nothing else).
//! * Trace spans are emitted as **complete intervals** ([`emit`] /
//!   [`crate::trace_span!`]): one event carrying `start_ns..end_ns` of
//!   *virtual* time supplied by the caller. There is no enter/exit pairing
//!   to reorder, so assembly is inherently order-independent.
//! * Events land in a bounded process-wide [`TraceSink`]; past capacity
//!   they are counted as dropped (`obs.trace.dropped`) instead of blocking
//!   or growing without bound.
//! * [`assemble`] groups drained events by trace id and rebuilds the span
//!   tree, tolerating out-of-order arrival, duplicates and missing parents
//!   (orphans are kept and reported, not silently attached).
//!
//! All timestamps are caller-supplied virtual nanoseconds (the simulator's
//! `SimTime`); this module never reads the wall clock.

use crate::sync::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sampling threshold on a 16-bit scale: 0 = never, `1 << 16` = always.
/// Plain std atomic by design — a process-wide singleton outside the loom
/// facade, like the enable gate (see `sync.rs`).
static SAMPLE_SCALE: AtomicU32 = AtomicU32::new(0);

/// Trace-id allocator (never 0; 0 means "no trace"). Same singleton policy
/// as [`SAMPLE_SCALE`].
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

const SCALE_ONE: u32 = 1 << 16;

/// SplitMix64 finalizer — decorrelates the sequential trace ids so the
/// sampling decision is unbiased across id ranges.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sets the head-sampling rate (clamped to `0.0..=1.0`). The decision is
/// made per trace at [`mint`]; records already in flight keep the decision
/// minted with them.
pub fn set_sample_rate(rate: f64) {
    let scaled = (rate.clamp(0.0, 1.0) * f64::from(SCALE_ONE)).round();
    // `scaled` is in 0..=65536 by the clamp above; the cast cannot truncate.
    // ordering: Relaxed — an advisory knob; mint sites read it independently
    // and no data is published through it.
    SAMPLE_SCALE.store(scaled as u32, Ordering::Relaxed);
}

/// The current head-sampling rate in `0.0..=1.0`.
pub fn sample_rate() -> f64 {
    // ordering: Relaxed — see [`set_sample_rate`].
    f64::from(SAMPLE_SCALE.load(Ordering::Relaxed)) / f64::from(SCALE_ONE)
}

/// The compact per-record trace context carried through the pipeline.
///
/// `Copy` and 24 bytes, so it rides in a stream-record header slot without
/// allocation. A context only ever exists for *sampled* traces — the
/// sampled-out path carries `None` instead — but the decision bit is kept
/// explicit so a lineage decoded off the wire states its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    trace_id: u64,
    parent_span: u64,
    hop: u8,
    sampled: bool,
}

impl TraceContext {
    /// Rebuilds a context from its wire parts (used by the CO-DATA lineage
    /// codec in `cad3-types`/`cad3`; `mint` is the normal entry point).
    pub fn from_parts(trace_id: u64, parent_span: u64, hop: u8) -> Self {
        TraceContext { trace_id, parent_span, hop, sampled: true }
    }

    /// The trace this record belongs to (never 0).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The span id the *next* emitted span should attach under.
    pub fn parent_span(&self) -> u64 {
        self.parent_span
    }

    /// Propagation hops so far (incremented when the record crosses a
    /// network boundary or an RSU handover).
    pub fn hop(&self) -> u8 {
        self.hop
    }

    /// The head-sampling decision minted at the root.
    pub fn sampled(&self) -> bool {
        self.sampled
    }

    /// The context downstream spans on the *same* hop should carry:
    /// re-parented under `span`, hop count unchanged.
    pub fn child(&self, span: u64) -> Self {
        TraceContext { parent_span: span, ..*self }
    }

    /// The context for the far side of a network boundary or handover:
    /// re-parented under `span` with the hop count bumped.
    pub fn next_hop(&self, span: u64) -> Self {
        TraceContext { parent_span: span, hop: self.hop.saturating_add(1), ..*self }
    }
}

/// Mints the trace context for a newly emitted record, or `None` if the
/// trace is sampled out. At the default rate (0) this is one relaxed load
/// and an untaken branch.
pub fn mint() -> Option<TraceContext> {
    // ordering: Relaxed — advisory sampling knob; see [`set_sample_rate`].
    let threshold = SAMPLE_SCALE.load(Ordering::Relaxed);
    if threshold == 0 {
        return None;
    }
    // ordering: Relaxed — ids only need uniqueness, which fetch_add's
    // atomicity alone guarantees.
    let id = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
    if threshold < SCALE_ONE && (splitmix64(id) & 0xFFFF) >= u64::from(threshold) {
        return None;
    }
    Some(TraceContext { trace_id: id, parent_span: 0, hop: 0, sampled: true })
}

/// One complete trace span: a closed `start_ns..end_ns` interval of virtual
/// time attributed to `name` on `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's process-unique id.
    pub span: u64,
    /// The parent span id (0 for a trace root).
    pub parent: u64,
    /// Catalogue name (see [`crate::names`]).
    pub name: &'static str,
    /// Interval start, virtual nanoseconds.
    pub start_ns: u64,
    /// Interval end, virtual nanoseconds.
    pub end_ns: u64,
    /// Which node did the work (RSU index; `u32::MAX` for shared links).
    pub node: u32,
    /// Free payload (queue delay, batch size, …).
    pub value: u64,
}

/// A bounded collector of [`TraceEvent`]s. Usually accessed through the
/// process-wide [`sink`]; tests may build private instances.
///
/// # Lock hierarchy
///
/// `TraceSink::events` is a leaf lock (rank 95 in `lockranks.toml`): spans
/// are emitted from inside RSU shard and registry-adjacent critical
/// sections, so the sink must never acquire another workspace lock.
#[derive(Debug)]
pub struct TraceSink {
    events: Mutex<Vec<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceSink {
    /// Creates a sink retaining at most `capacity` undrained events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            events: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one event, or counts it dropped when the sink is full.
    /// Returns whether the event was retained.
    pub fn push(&self, event: TraceEvent) -> bool {
        let retained = {
            let _held = cad3_lockrank::rank_scope!("cad3_obs::TraceSink::events");
            let mut events = self.events.lock();
            if events.len() < self.capacity {
                events.push(event);
                true
            } else {
                false
            }
        };
        if !retained {
            // ordering: Relaxed — a statistic; the drop decision was made
            // under the events lock above.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        retained
    }

    /// Takes every buffered event, leaving the sink empty. The dropped
    /// count is cumulative and not reset by draining.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let _held = cad3_lockrank::rank_scope!("cad3_obs::TraceSink::events");
        std::mem::take(&mut *self.events.lock())
    }

    /// Events rejected because the sink was full, since process start.
    pub fn dropped(&self) -> u64 {
        // ordering: Relaxed — a statistic read.
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The process-wide trace sink (65 536 undrained events).
pub fn sink() -> &'static TraceSink {
    static SINK: OnceLock<TraceSink> = OnceLock::new();
    SINK.get_or_init(|| TraceSink::with_capacity(65_536))
}

/// Emits one complete span on `ctx`'s trace and returns the new span id —
/// callers chain it into [`TraceContext::child`]/[`TraceContext::next_hop`]
/// so later spans attach underneath. Usually called through
/// [`crate::trace_span!`] so the lint pass can check the name literal.
pub fn emit(
    ctx: &TraceContext,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    node: u32,
    value: u64,
) -> u64 {
    emit_at(crate::span::next_span_id(), ctx, name, start_ns, end_ns, node, value)
}

/// Reserves a contiguous block of `n` span ids and returns the first.
/// Reserve on the coordinating thread before fanning work out, then hand
/// each worker its slice to [`emit_at`]: span ids follow input order
/// instead of worker schedule, keeping replay artifacts byte-stable.
pub fn reserve_ids(n: u64) -> u64 {
    crate::span::reserve_span_ids(n)
}

/// [`emit`] with a caller-supplied span id from [`reserve_ids`] — the
/// parallel-stage variant. The id must be unique for the process; reusing
/// one makes the assembler drop the second copy as a duplicate.
pub fn emit_at(
    span: u64,
    ctx: &TraceContext,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    node: u32,
    value: u64,
) -> u64 {
    let retained = sink().push(TraceEvent {
        trace_id: ctx.trace_id,
        span,
        parent: ctx.parent_span,
        name,
        start_ns,
        end_ns: end_ns.max(start_ns),
        node,
        value,
    });
    if !retained {
        crate::gauge!("obs.trace.dropped").set(sink().dropped());
    }
    span
}

/// One span inside an assembled [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span id.
    pub span: u64,
    /// Parent span id (0 at the root).
    pub parent: u64,
    /// Catalogue name.
    pub name: &'static str,
    /// Interval start, virtual nanoseconds.
    pub start_ns: u64,
    /// Interval end, virtual nanoseconds.
    pub end_ns: u64,
    /// Node that did the work.
    pub node: u32,
    /// Free payload.
    pub value: u64,
    /// Child span ids, ordered by `(start_ns, span)`.
    pub children: Vec<u64>,
}

impl SpanNode {
    /// The span's own duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One reassembled trace: a span tree plus the defects found while
/// rebuilding it (extra roots, spans whose parent never arrived).
#[derive(Debug, Clone)]
pub struct Trace {
    /// The trace id every member span carried.
    pub trace_id: u64,
    spans: BTreeMap<u64, SpanNode>,
    root: Option<u64>,
    orphans: Vec<u64>,
}

impl Trace {
    /// The root span (parent id 0), when exactly identifiable — the
    /// earliest-starting root if several arrived.
    pub fn root(&self) -> Option<&SpanNode> {
        self.root.and_then(|id| self.spans.get(&id))
    }

    /// The span with `id`, if present.
    pub fn span(&self, id: u64) -> Option<&SpanNode> {
        self.spans.get(&id)
    }

    /// Every member span, keyed by span id.
    pub fn spans(&self) -> &BTreeMap<u64, SpanNode> {
        &self.spans
    }

    /// Span ids whose parent id is non-zero but never arrived, plus any
    /// extra roots beyond the elected one.
    pub fn orphans(&self) -> &[u64] {
        &self.orphans
    }

    /// Whether the trace reassembled without defects: one root, no
    /// orphans, and every span reachable from the root.
    pub fn is_complete(&self) -> bool {
        let Some(root) = self.root else { return false };
        if !self.orphans.is_empty() {
            return false;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if let Some(node) = self.spans.get(&id) {
                stack.extend(node.children.iter().copied());
            }
        }
        seen.len() == self.spans.len()
    }

    /// The distinct nodes (RSU indices, link sentinels) the trace touched.
    pub fn nodes(&self) -> BTreeSet<u32> {
        self.spans.values().map(|s| s.node).collect()
    }

    /// End-to-end extent: latest span end minus earliest span start.
    pub fn end_to_end_ns(&self) -> u64 {
        let start = self.spans.values().map(|s| s.start_ns).min().unwrap_or(0);
        let end = self.spans.values().map(|s| s.end_ns).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Critical-path length from the root:
    /// `cp(span) = max(own duration, Σ cp(children))`.
    ///
    /// With children tiling their parent's interval this equals the root's
    /// own duration; with an instant root (the `vehicle.emit` point) it is
    /// the longest causal chain below it.
    pub fn critical_path_ns(&self) -> u64 {
        let Some(root) = self.root else { return 0 };
        let mut cp: BTreeMap<u64, u64> = BTreeMap::new();
        let mut visiting: BTreeSet<u64> = BTreeSet::new();
        let mut stack = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            let Some(node) = self.spans.get(&id) else { continue };
            if expanded {
                visiting.remove(&id);
                let below: u64 =
                    node.children.iter().map(|c| cp.get(c).copied().unwrap_or(0)).sum();
                cp.insert(id, node.duration_ns().max(below));
            } else if visiting.insert(id) {
                // Defensive cycle guard; parent links reachable from a
                // 0-parent root cannot actually cycle.
                stack.push((id, true));
                for &c in &node.children {
                    if !visiting.contains(&c) {
                        stack.push((c, false));
                    }
                }
            }
        }
        cp.get(&root).copied().unwrap_or(0)
    }

    /// `(name, own duration)` of every member span — the input to per-stage
    /// percentile attribution.
    pub fn stage_durations(&self) -> Vec<(&'static str, u64)> {
        self.spans.values().map(|s| (s.name, s.duration_ns())).collect()
    }

    /// A Fig.-6a-style text waterfall: the span tree indented by depth,
    /// with intervals relative to the trace start.
    pub fn waterfall(&self) -> String {
        let mut out = String::new();
        let base = self.spans.values().map(|s| s.start_ns).min().unwrap_or(0);
        let _ = writeln!(
            out,
            "trace {:#018x}: {} spans, end_to_end={}ns, critical_path={}ns{}",
            self.trace_id,
            self.spans.len(),
            self.end_to_end_ns(),
            self.critical_path_ns(),
            if self.is_complete() { "" } else { " [INCOMPLETE]" },
        );
        let mut stack: Vec<(u64, usize)> = self.root.map(|r| (r, 0)).into_iter().collect();
        let mut seen = BTreeSet::new();
        while let Some((id, depth)) = stack.pop() {
            let Some(node) = self.spans.get(&id) else { continue };
            if !seen.insert(id) {
                continue;
            }
            let _ = writeln!(
                out,
                "{:indent$}[{:>10} .. {:>10}] node {:>2}  {}",
                "",
                node.start_ns.saturating_sub(base),
                node.end_ns.saturating_sub(base),
                node.node,
                node.name,
                indent = depth * 2,
            );
            // Reverse so the earliest child pops (and prints) first.
            for &c in node.children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
        for &id in &self.orphans {
            if let Some(node) = self.spans.get(&id) {
                let _ = writeln!(
                    out,
                    "  (orphan) [{:>10} .. {:>10}] node {:>2}  {} (parent {} missing)",
                    node.start_ns.saturating_sub(base),
                    node.end_ns.saturating_sub(base),
                    node.node,
                    node.name,
                    node.parent,
                );
            }
        }
        out
    }
}

/// Rebuilds traces from span events, in ascending trace-id order.
///
/// Tolerance envelope: events may arrive in any order and duplicated (the
/// first copy of a span id wins); a span whose parent never arrived is kept
/// and listed in [`Trace::orphans`] rather than dropped or re-attached; a
/// trace with several parentless spans elects the earliest as root and
/// lists the rest as orphans.
pub fn assemble(events: &[TraceEvent]) -> Vec<Trace> {
    let mut by_trace: BTreeMap<u64, BTreeMap<u64, SpanNode>> = BTreeMap::new();
    for e in events {
        by_trace.entry(e.trace_id).or_default().entry(e.span).or_insert_with(|| SpanNode {
            span: e.span,
            parent: e.parent,
            name: e.name,
            start_ns: e.start_ns,
            end_ns: e.end_ns,
            node: e.node,
            value: e.value,
            children: Vec::new(),
        });
    }
    by_trace
        .into_iter()
        .map(|(trace_id, mut spans)| {
            let starts: BTreeMap<u64, u64> =
                spans.iter().map(|(id, s)| (*id, s.start_ns)).collect();
            let ids: Vec<u64> = spans.keys().copied().collect();
            let mut roots: Vec<u64> = Vec::new();
            let mut orphans: Vec<u64> = Vec::new();
            for id in ids {
                let parent = spans[&id].parent;
                if parent == 0 {
                    roots.push(id);
                } else if let Some(p) = spans.get_mut(&parent) {
                    p.children.push(id);
                } else {
                    orphans.push(id);
                }
            }
            // Children sorted by (start_ns, span) for a deterministic tree.
            for node in spans.values_mut() {
                node.children.sort_by_key(|c| (starts.get(c).copied().unwrap_or(0), *c));
            }
            roots.sort_by_key(|r| (starts.get(r).copied().unwrap_or(0), *r));
            let root = roots.first().copied();
            orphans.extend(roots.iter().skip(1).copied());
            orphans.sort_unstable();
            Trace { trace_id, spans, root, orphans }
        })
        .collect()
}

/// Renders assembled traces as one JSON object per line (the
/// `results/artifacts/traces.jsonl` artifact).
pub fn traces_jsonl(traces: &[Trace]) -> String {
    let mut out = String::new();
    for t in traces {
        let _ = write!(
            out,
            "{{\"trace_id\":{},\"complete\":{},\"critical_path_ns\":{},\"end_to_end_ns\":{},\"nodes\":[",
            t.trace_id,
            t.is_complete(),
            t.critical_path_ns(),
            t.end_to_end_ns(),
        );
        for (i, n) in t.nodes().iter().enumerate() {
            let _ = write!(out, "{}{n}", if i == 0 { "" } else { "," });
        }
        let _ = write!(out, "],\"spans\":[");
        for (i, s) in t.spans.values().enumerate() {
            let _ = write!(
                out,
                "{}{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"node\":{},\"value\":{}}}",
                if i == 0 { "" } else { "," },
                s.span,
                s.parent,
                crate::export::json_escape(s.name),
                s.start_ns,
                s.end_ns,
                s.node,
                s.value,
            );
        }
        let _ = writeln!(out, "]}}");
    }
    out
}

/// Nearest-rank percentile over an ascending-sorted slice (`q` in
/// `0.0..=100.0`); 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 100.0) / 100.0) * (n as f64)).ceil();
    // `rank` is in 0.0..=n by the clamp; the cast cannot truncate.
    let idx = (rank as usize).clamp(1, n) - 1;
    sorted[idx]
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn ev(trace: u64, span: u64, parent: u64, name: &'static str, s: u64, e: u64) -> TraceEvent {
        TraceEvent {
            trace_id: trace,
            span,
            parent,
            name,
            start_ns: s,
            end_ns: e,
            node: 0,
            value: 0,
        }
    }

    #[test]
    fn default_rate_mints_nothing() {
        let _serial = crate::testutil::serial();
        set_sample_rate(0.0);
        assert_eq!(mint(), None);
        assert_eq!(sample_rate(), 0.0);
    }

    #[test]
    fn full_rate_mints_everything_with_fresh_ids() {
        let _serial = crate::testutil::serial();
        set_sample_rate(1.0);
        let a = mint().expect("sampled");
        let b = mint().expect("sampled");
        set_sample_rate(0.0);
        assert_ne!(a.trace_id(), b.trace_id());
        assert_eq!(a.parent_span(), 0);
        assert_eq!(a.hop(), 0);
        assert!(a.sampled());
    }

    #[test]
    fn partial_rate_is_roughly_proportional() {
        let _serial = crate::testutil::serial();
        set_sample_rate(0.25);
        let sampled = (0..4000).filter(|_| mint().is_some()).count();
        set_sample_rate(0.0);
        assert!((600..=1400).contains(&sampled), "sampled {sampled}/4000 at 25%");
    }

    #[test]
    fn child_and_next_hop_reparent() {
        let ctx = TraceContext::from_parts(7, 0, 0);
        let c = ctx.child(42);
        assert_eq!((c.trace_id(), c.parent_span(), c.hop()), (7, 42, 0));
        let h = c.next_hop(43);
        assert_eq!((h.trace_id(), h.parent_span(), h.hop()), (7, 43, 1));
    }

    #[test]
    fn sink_bounds_and_counts_drops() {
        let s = TraceSink::with_capacity(2);
        assert!(s.push(ev(1, 1, 0, "a", 0, 1)));
        assert!(s.push(ev(1, 2, 1, "b", 1, 2)));
        assert!(!s.push(ev(1, 3, 1, "c", 2, 3)));
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.drain().len(), 2);
        assert!(s.drain().is_empty());
        // Capacity freed by the drain; dropped count stays cumulative.
        assert!(s.push(ev(1, 4, 1, "d", 3, 4)));
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn assemble_rebuilds_a_tree_from_shuffled_events() {
        let events = vec![
            ev(9, 30, 20, "c", 250, 300),
            ev(9, 10, 0, "root", 0, 400),
            ev(9, 20, 10, "b", 100, 300),
            ev(9, 21, 10, "a", 0, 100),
            ev(9, 30, 20, "c", 250, 300), // duplicate: first copy wins
        ];
        let traces = assemble(&events);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.trace_id, 9);
        assert!(t.is_complete(), "{t:?}");
        assert_eq!(t.spans().len(), 4);
        let root = t.root().expect("root");
        assert_eq!(root.name, "root");
        // Children ordered by start time: a (0) before b (100).
        assert_eq!(root.children, vec![21, 20]);
        assert_eq!(t.span(20).expect("b").children, vec![30]);
        // cp(b) = max(200, 50) = 200; cp(root) = max(400, 100 + 200) = 400.
        assert_eq!(t.critical_path_ns(), 400);
        assert_eq!(t.end_to_end_ns(), 400);
    }

    #[test]
    fn orphan_and_extra_root_are_reported_not_dropped() {
        let events = vec![
            ev(5, 1, 0, "root", 0, 10),
            ev(5, 2, 99, "lost", 3, 5),
            ev(5, 3, 0, "late_root", 4, 6),
        ];
        let t = &assemble(&events)[0];
        assert!(!t.is_complete());
        assert_eq!(t.root().expect("elected").span, 1);
        assert_eq!(t.orphans(), &[2, 3]);
        assert_eq!(t.spans().len(), 3);
    }

    #[test]
    fn traces_group_by_id() {
        let events = vec![ev(2, 4, 0, "r2", 0, 1), ev(1, 3, 0, "r1", 0, 1), ev(2, 5, 4, "x", 0, 1)];
        let traces = assemble(&events);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].trace_id, 1);
        assert_eq!(traces[1].trace_id, 2);
        assert_eq!(traces[1].spans().len(), 2);
    }

    #[test]
    fn emit_feeds_the_global_sink() {
        let ctx = TraceContext::from_parts(u64::MAX, 0, 0);
        let span = emit(&ctx, "rsu.detect", 10, 20, 1, 3);
        assert_ne!(span, 0);
        let mine: Vec<TraceEvent> =
            sink().drain().into_iter().filter(|e| e.trace_id == u64::MAX).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].span, span);
        assert_eq!(mine[0].name, "rsu.detect");
        assert_eq!((mine[0].start_ns, mine[0].end_ns, mine[0].node, mine[0].value), (10, 20, 1, 3));
    }

    #[test]
    fn waterfall_and_jsonl_render() {
        let events = vec![ev(3, 1, 0, "root", 0, 100), ev(3, 2, 1, "leaf", 10, 60)];
        let traces = assemble(&events);
        let wf = traces[0].waterfall();
        assert!(wf.contains("root"), "{wf}");
        assert!(wf.contains("  ["), "child indented: {wf}");
        let jsonl = traces_jsonl(&traces);
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"complete\":true"), "{jsonl}");
        assert!(jsonl.contains("\"name\":\"leaf\""), "{jsonl}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
    }
}
