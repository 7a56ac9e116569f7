//! Continuous stage-time profiler: always-on attribution of elapsed time
//! to the active span stack.
//!
//! Every non-inert span ([`crate::span!`]) and profile-only stage
//! ([`crate::profile_span!`]) pushes a frame onto a thread-local stack; on
//! exit the frame's elapsed time is split into **self-time** (time not
//! covered by child stages on the same thread) and accumulated into sharded
//! per-(thread-class, stage-path) tree nodes. The result is exportable two
//! ways:
//!
//! * [`ProfileSnapshot`] — a `MetricsSnapshot`-style map from folded stage
//!   paths (`main;rsu.micro_batch;rsu.detect;ml.nb.sweep`) to
//!   `{calls, self_ns, total_ns}` totals;
//! * [`ProfileSnapshot::folded`] — folded-stack lines
//!   (`main;rsu.micro_batch;rsu.detect 1234567`, weight = self-time)
//!   consumable by standard flamegraph tooling.
//!
//! # Accounting model
//!
//! Self/child splitting is **per thread**: a frame's `child_ns` only
//! accumulates stages popped on the same thread, so a parallel stage's
//! workers do not subtract from the coordinating thread's self-time (their
//! CPU time overlaps its wall time). Worker threads instead *adopt* the
//! coordinator's current position ([`current_token`] / [`adopt`]) so their
//! stages attribute under the right path; summed self-time is therefore
//! CPU time, which over parallel regions legitimately exceeds wall time.
//! On one thread the invariant is exact: the self-times of a stage subtree
//! sum to the root stage's elapsed wall time (property-tested below).
//!
//! # Overhead policy
//!
//! Everything here is behind the same one relaxed [`crate::enabled`] load
//! as the rest of the substrate: disabled spans never open a stage frame.
//! When enabled, a push/pop pair costs a thread-local stack op and three
//! relaxed `fetch_add`s on a cache-padded shard — the profiler mutex (rank
//! 92, a leaf like the registry's) is only taken the first time a thread
//! sees a new (class, parent, stage) edge, after which the node handle
//! comes from a thread-local cache.

use crate::metrics::SHARDS;
use crate::registry::registry;
use crate::sync::{Arc, AtomicU64, Mutex, Ordering};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Cap on distinct (thread-class, stage-path) tree nodes; pushes past it
/// are counted in [`ProfileSnapshot::dropped`] instead of allocating
/// unboundedly (the analogue of the registry's dynamic-family cap).
const MAX_NODES: usize = 4096;

/// Sentinel "no parent" in node keys: the node is a path root under its
/// thread class.
const NO_PARENT: u32 = u32::MAX;

/// One cache line of accumulation per shard, so parallel workers popping
/// the same stage do not false-share (the [`crate::metrics`] layout).
#[repr(align(64))]
#[derive(Debug)]
struct NodeShard {
    calls: AtomicU64,
    self_ns: AtomicU64,
    total_ns: AtomicU64,
}

/// One (thread-class, stage-path) tree node with sharded totals.
#[derive(Debug)]
struct StageNode {
    /// Thread-class index of the path's root.
    class: u32,
    /// Parent node index, or [`NO_PARENT`].
    parent: u32,
    /// Interned stage name ([`crate::Registry::intern_name`]).
    name_id: u32,
    shards: Vec<NodeShard>,
}

impl StageNode {
    fn new(class: u32, parent: u32, name_id: u32) -> Self {
        StageNode {
            class,
            parent,
            name_id,
            shards: (0..SHARDS)
                .map(|_| NodeShard {
                    calls: AtomicU64::new(0),
                    self_ns: AtomicU64::new(0),
                    total_ns: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Accumulates one completed stage entry into this thread's shard.
    fn add(&self, self_ns: u64, total_ns: u64) {
        // hotpath-exempt(panic): shard_index() is reduced modulo SHARDS and
        // the shards vec is built with exactly SHARDS entries in new().
        let shard = &self.shards[crate::metrics::shard_index()];
        // ordering: Relaxed — independent monotone statistics, merged at
        // snapshot time (the metrics module's ordering policy).
        shard.calls.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — same statistic family as above.
        shard.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        // ordering: Relaxed — same statistic family as above.
        shard.total_ns.fetch_add(total_ns, Ordering::Relaxed);
    }

    /// Merges every shard into one totals value.
    fn totals(&self) -> StageTotals {
        let mut out = StageTotals::default();
        for shard in &self.shards {
            // ordering: Relaxed — merging monotone statistics; exact once
            // writers are quiescent, like histogram snapshots.
            out.calls = out.calls.saturating_add(shard.calls.load(Ordering::Relaxed));
            // ordering: Relaxed — same statistic merge as above.
            out.self_ns = out.self_ns.saturating_add(shard.self_ns.load(Ordering::Relaxed));
            // ordering: Relaxed — same statistic merge as above.
            out.total_ns = out.total_ns.saturating_add(shard.total_ns.load(Ordering::Relaxed));
        }
        out
    }
}

struct Inner {
    /// (class, parent-or-[`NO_PARENT`], name id) → node index.
    index: BTreeMap<(u32, u32, u32), u32>,
    nodes: Vec<Arc<StageNode>>,
    classes: Vec<&'static str>,
    dropped: u64,
}

/// The process-wide stage-path tree. Normally used through the module-level
/// function [`snapshot`]; the type is public so the
/// determinism contract can name its entry points.
pub struct Profiler {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler").finish_non_exhaustive()
    }
}

impl Profiler {
    fn new() -> Self {
        Profiler {
            inner: Mutex::new(Inner {
                index: BTreeMap::new(),
                nodes: Vec::new(),
                classes: Vec::new(),
                dropped: 0,
            }),
        }
    }

    /// Interns a thread-class name, returning its dense id.
    fn class_id(&self, name: &'static str) -> u32 {
        let _held = cad3_lockrank::rank_scope!("cad3_obs::Profiler::inner");
        let mut inner = self.inner.lock();
        if let Some(pos) = inner.classes.iter().position(|c| *c == name) {
            return pos as u32;
        }
        inner.classes.push(name);
        (inner.classes.len() - 1) as u32
    }

    /// The node for edge (class, parent, name), created on first use.
    /// `None` once [`MAX_NODES`] distinct paths exist (counted as dropped).
    fn node(&self, class: u32, parent: u32, name_id: u32) -> Option<(u32, Arc<StageNode>)> {
        let _held = cad3_lockrank::rank_scope!("cad3_obs::Profiler::inner");
        let mut inner = self.inner.lock();
        if let Some(&i) = inner.index.get(&(class, parent, name_id)) {
            return inner.nodes.get(i as usize).map(|n| (i, Arc::clone(n)));
        }
        if inner.nodes.len() >= MAX_NODES {
            inner.dropped = inner.dropped.saturating_add(1);
            return None;
        }
        let i = inner.nodes.len() as u32;
        let node = Arc::new(StageNode::new(class, parent, name_id));
        inner.nodes.push(Arc::clone(&node));
        inner.index.insert((class, parent, name_id), i);
        Some((i, node))
    }

    /// Merges the whole stage tree into one snapshot. Stage
    /// names resolve through the registry *after* the profiler lock is
    /// released (ranks 92 and 90 must not nest that way round).
    pub fn snapshot(&self) -> ProfileSnapshot {
        let (nodes, classes, dropped) = {
            let _held = cad3_lockrank::rank_scope!("cad3_obs::Profiler::inner");
            let inner = self.inner.lock();
            (inner.nodes.clone(), inner.classes.clone(), inner.dropped)
        };
        // Parents always precede children in the nodes vec (a child is
        // created while its parent's frame is live), so one forward pass
        // resolves every folded path.
        let mut paths: Vec<String> = Vec::with_capacity(nodes.len());
        let mut stages: BTreeMap<String, StageTotals> = BTreeMap::new();
        for node in &nodes {
            let name = registry().name_of(node.name_id);
            let path = match paths.get(node.parent as usize) {
                Some(parent) => format!("{parent};{name}"),
                None => {
                    let class = classes.get(node.class as usize).copied().unwrap_or("?");
                    format!("{class};{name}")
                }
            };
            let totals = node.totals();
            let entry = stages.entry(path.clone()).or_default();
            entry.calls = entry.calls.saturating_add(totals.calls);
            entry.self_ns = entry.self_ns.saturating_add(totals.self_ns);
            entry.total_ns = entry.total_ns.saturating_add(totals.total_ns);
            paths.push(path);
        }
        ProfileSnapshot { stages, dropped }
    }
}

/// The process-wide profiler every span guard accounts into.
pub fn profiler() -> &'static Profiler {
    static PROFILER: OnceLock<Profiler> = OnceLock::new();
    PROFILER.get_or_init(Profiler::new)
}

/// Completed-entry totals of one stage path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Completed entries of this exact path.
    pub calls: u64,
    /// Nanoseconds not covered by child stages on the same thread.
    pub self_ns: u64,
    /// Nanoseconds including child stages.
    pub total_ns: u64,
}

/// A point-in-time view of the stage tree: folded stage paths
/// (`class;stage;…;leaf`) to their totals. The profile analogue of
/// [`crate::MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Totals per folded stage path.
    pub stages: BTreeMap<String, StageTotals>,
    /// Pushes not attributed because the node table hit its cap.
    pub dropped: u64,
}

impl ProfileSnapshot {
    /// Renders folded-stack lines — `path self_ns` per completed stage,
    /// path-sorted — the input format of standard flamegraph tooling
    /// (weight = self-time, so frame widths sum correctly).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, t) in &self.stages {
            if t.calls == 0 {
                continue;
            }
            let _ = writeln!(out, "{path} {}", t.self_ns);
        }
        out
    }

    /// Totals of stage `name` summed over every path it terminates —
    /// "how much time is spent *in* `rsu.detect`, wherever it appears".
    /// When called with a literal, the name is anchored to the
    /// [`crate::names`] catalogue by `cargo xtask lint`'s `profile-names`
    /// rule.
    pub fn stage_totals(&self, name: &str) -> StageTotals {
        let mut out = StageTotals::default();
        for (path, t) in &self.stages {
            if path.rsplit(';').next() == Some(name) {
                out.calls = out.calls.saturating_add(t.calls);
                out.self_ns = out.self_ns.saturating_add(t.self_ns);
                out.total_ns = out.total_ns.saturating_add(t.total_ns);
            }
        }
        out
    }
}

/// A copyable capture of the calling thread's current stage position,
/// for handing to worker threads (see [`adopt`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileToken {
    /// (node index, class of that node's path root), if any stage is live.
    node: Option<(u32, u32)>,
}

/// Restores the previous adoption base when dropped (see [`adopt`]).
#[derive(Debug)]
pub struct AdoptGuard {
    prev: Option<(u32, u32)>,
    /// Thread-bound like the state it restores.
    _not_send: PhantomData<*const ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        STATE.with(|s| {
            if let Ok(mut st) = s.try_borrow_mut() {
                st.base = self.prev;
            }
        });
    }
}

/// An open stage on the calling thread.
struct Frame {
    /// The tree node this frame accounts into (`None` past the node cap).
    node: Option<(u32, Arc<StageNode>)>,
    name_id: u32,
    start_ns: u64,
    /// Elapsed time of child frames popped on this thread.
    child_ns: u64,
}

struct ThreadState {
    class: &'static str,
    class_id: Option<u32>,
    /// Adopted parent (node, class) used when the frame stack is empty.
    base: Option<(u32, u32)>,
    frames: Vec<Frame>,
    /// (class, parent, name) → node, so steady-state pushes never lock.
    cache: BTreeMap<(u32, u32, u32), (u32, Arc<StageNode>)>,
}

impl ThreadState {
    const fn new() -> Self {
        ThreadState {
            class: "main",
            class_id: None,
            base: None,
            frames: Vec::new(),
            cache: BTreeMap::new(),
        }
    }
}

thread_local! {
    static STATE: RefCell<ThreadState> = const { RefCell::new(ThreadState::new()) };
}

/// Declares the calling thread's class for path roots (literals are anchored to [`crate::names::THREAD_CLASSES`] by the
/// `profile-names` lint). Threads default to `"main"`; the engine executor
/// marks its pool threads `"worker"`.
pub fn set_thread_class(class: &'static str) {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        if st.class != class {
            st.class = class;
            st.class_id = None;
        }
    });
}

/// Captures the calling thread's innermost attributed stage (falling back
/// to its own adoption base), for worker threads to [`adopt`].
pub fn current_token() -> ProfileToken {
    STATE.with(|s| {
        let st = s.borrow();
        let node = st
            .frames
            .iter()
            .rev()
            .find_map(|f| f.node.as_ref().map(|(i, n)| (*i, n.class)))
            .or(st.base);
        ProfileToken { node }
    })
}

/// Attributes this thread's root-level stages under `token`'s stage until
/// the returned guard drops — how a parallel stage's workers appear inside
/// the coordinating thread's path (`main;rsu.detect;ml.nb.sweep`) instead
/// of rooting their own.
pub fn adopt(token: ProfileToken) -> AdoptGuard {
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let prev = st.base;
        st.base = token.node;
        AdoptGuard { prev, _not_send: PhantomData }
    })
}

/// The process-wide profile snapshot (see [`Profiler::snapshot`]).
pub fn snapshot() -> ProfileSnapshot {
    profiler().snapshot()
}

fn ensure_class(st: &mut ThreadState) -> u32 {
    match st.class_id {
        Some(id) => id,
        None => {
            let id = profiler().class_id(st.class);
            st.class_id = Some(id);
            id
        }
    }
}

/// Opens a stage frame at `start_ns`. Called from span guards only —
/// every call site is already behind the [`crate::enabled`] gate.
pub(crate) fn push(name_id: u32, start_ns: u64) {
    STATE.with(|s| {
        let Ok(mut st) = s.try_borrow_mut() else { return };
        let parent = match st.frames.last() {
            Some(f) => match &f.node {
                Some((i, n)) => Some((*i, n.class)),
                // An unattributed parent (node-table cap): children stay
                // unattributed too rather than re-rooting mid-stack.
                None => {
                    st.frames.push(Frame { node: None, name_id, start_ns, child_ns: 0 });
                    return;
                }
            },
            None => st.base,
        };
        let (class, parent_idx) = match parent {
            Some((i, c)) => (c, i),
            None => (ensure_class(&mut st), NO_PARENT),
        };
        let key = (class, parent_idx, name_id);
        let node = match st.cache.get(&key) {
            Some(hit) => Some((hit.0, Arc::clone(&hit.1))),
            None => {
                let created = profiler().node(class, parent_idx, name_id);
                if let Some((i, n)) = &created {
                    st.cache.insert(key, (*i, Arc::clone(n)));
                }
                created
            }
        };
        st.frames.push(Frame { node, name_id, start_ns, child_ns: 0 });
    });
}

/// Closes the innermost open frame named `name_id` at `end_ns`, splitting
/// its elapsed time into self vs child and crediting the elapsed total to
/// the enclosing frame's `child_ns`. Name-matched (not strictly LIFO) so
/// out-of-order guard drops — possible but discouraged, as in
/// `crate::span` — skew attribution without corrupting the stack.
pub(crate) fn pop(name_id: u32, end_ns: u64) {
    STATE.with(|s| {
        let Ok(mut st) = s.try_borrow_mut() else { return };
        let Some(pos) = st.frames.iter().rposition(|f| f.name_id == name_id) else {
            return;
        };
        let frame = st.frames.remove(pos);
        let elapsed = end_ns.saturating_sub(frame.start_ns);
        let self_ns = elapsed.saturating_sub(frame.child_ns);
        if pos > 0 {
            if let Some(parent) = st.frames.get_mut(pos - 1) {
                parent.child_ns = parent.child_ns.saturating_add(elapsed);
            }
        }
        if let Some((_, node)) = &frame.node {
            node.add(self_ns, elapsed);
        }
    });
}

/// RAII guard for a profile-only stage: accounts into the stage tree like
/// a span, but never touches the flight recorder,
/// span-id counter or any histogram. This is the form safe inside
/// parallel workers, where recorder writes or id allocation would make
/// replay artifacts schedule-dependent (see DESIGN.md "Continuous
/// profiling & exemplars"). Entered via [`crate::profile_span!`].
#[derive(Debug)]
pub struct StageGuard {
    /// The interned name to pop, `None` for an inert (disabled) guard.
    name_id: Option<u32>,
}

impl StageGuard {
    /// Enters the stage unless the substrate is disabled (one relaxed
    /// load, like [`crate::SpanGuard::enter`]).
    pub fn enter(name_id: u32) -> StageGuard {
        if !crate::enabled() {
            return StageGuard { name_id: None };
        }
        push(name_id, crate::clock::now_nanos());
        StageGuard { name_id: Some(name_id) }
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if let Some(name_id) = self.name_id {
            pop(name_id, crate::clock::now_nanos());
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn intern(name: &'static str) -> u32 {
        registry().intern_name(name)
    }

    #[test]
    fn nested_frames_split_self_and_child_time() {
        let outer = intern("test.prof.outer");
        let inner = intern("test.prof.inner");
        push(outer, 1_000);
        push(inner, 1_200);
        pop(inner, 1_700);
        pop(outer, 2_000);
        let snap = snapshot();
        let o = snap.stage_totals("test.prof.outer");
        assert_eq!(o.calls, 1);
        assert_eq!(o.total_ns, 1_000);
        assert_eq!(o.self_ns, 500, "outer self excludes the 500 ns child");
        let i = snap.stage_totals("test.prof.inner");
        assert_eq!((i.calls, i.self_ns, i.total_ns), (1, 500, 500));
        assert!(
            snap.stages.contains_key("main;test.prof.outer;test.prof.inner"),
            "paths: {:?}",
            snap.stages.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn sibling_frames_accumulate_into_one_node() {
        let name = intern("test.prof.sibling");
        push(name, 0);
        pop(name, 10);
        push(name, 50);
        pop(name, 90);
        let t = snapshot().stage_totals("test.prof.sibling");
        assert_eq!(t.calls, 2);
        assert_eq!(t.self_ns, 50);
    }

    #[test]
    fn workers_adopt_the_coordinator_path() {
        let outer = intern("test.prof.adopt.outer");
        let inner = intern("test.prof.adopt.inner");
        push(outer, 0);
        let token = current_token();
        std::thread::spawn(move || {
            set_thread_class("worker");
            let _adopted = adopt(token);
            push(inner, 100);
            pop(inner, 160);
        })
        .join()
        .expect("worker");
        pop(outer, 1_000);
        let snap = snapshot();
        let path = "main;test.prof.adopt.outer;test.prof.adopt.inner";
        assert_eq!(snap.stages.get(path).map(|t| t.total_ns), Some(60), "{:?}", snap.stages);
        // Per-thread accounting: the worker's 60 ns do not reduce the
        // coordinator's self-time.
        assert_eq!(snap.stage_totals("test.prof.adopt.outer").self_ns, 1_000);
    }

    #[test]
    fn adopt_guard_restores_the_previous_base() {
        let name = intern("test.prof.restore");
        push(name, 0);
        let token = current_token();
        {
            let _adopted = adopt(token);
        }
        pop(name, 10);
        assert!(current_token().node.is_none(), "base restored to none after the pop");
    }

    #[test]
    fn stage_guard_is_inert_when_disabled() {
        let _serial = crate::testutil::serial();
        crate::set_enabled(false);
        let before = snapshot().stage_totals("test.prof.gated");
        {
            let _g = crate::profile_span!("test.prof.gated");
        }
        let after = snapshot().stage_totals("test.prof.gated");
        assert_eq!(before, after);
    }

    #[test]
    fn stage_guard_accounts_when_enabled() {
        let _serial = crate::testutil::serial();
        crate::set_enabled(true);
        {
            let _g = crate::profile_span!("test.prof.guard");
        }
        crate::set_enabled(false);
        assert!(snapshot().stage_totals("test.prof.guard").calls >= 1);
    }

    #[test]
    fn folded_renders_one_line_per_called_path() {
        let mut snap = ProfileSnapshot::default();
        snap.stages.insert(
            "main;rsu.micro_batch;rsu.detect".to_owned(),
            StageTotals { calls: 3, self_ns: 1_234_567, total_ns: 2_000_000 },
        );
        snap.stages.insert(
            "main;rsu.micro_batch".to_owned(),
            StageTotals { calls: 3, self_ns: 400, total_ns: 2_000_400 },
        );
        snap.stages.insert("main;cold".to_owned(), StageTotals::default());
        // Path-sorted, weight = self-time, and the zero-call path is skipped.
        assert_eq!(
            snap.folded(),
            "main;rsu.micro_batch 400\nmain;rsu.micro_batch;rsu.detect 1234567\n"
        );
    }

    /// A generated stage tree: `gap_ns` self-time interleaved with the
    /// children. Node names cycle by depth so paths stay bounded.
    #[derive(Debug, Clone)]
    struct Tree {
        gap_ns: u64,
        children: Vec<Tree>,
    }

    /// Builds a depth-bounded tree deterministically from a flat script of
    /// (self-gap, child-count) pairs (the vendored proptest stub has no
    /// recursive strategies).
    fn build_tree(script: &mut std::slice::Iter<'_, (u64, usize)>, depth: usize) -> Tree {
        let &(gap_ns, nchild) = script.next().unwrap_or(&(1, 0));
        let nchild = if depth >= 3 { 0 } else { nchild };
        Tree { gap_ns, children: (0..nchild).map(|_| build_tree(script, depth + 1)).collect() }
    }

    fn replay(tree: &Tree, depth: usize, names: &[u32], t: u64) -> u64 {
        let name = names[depth.min(names.len() - 1)];
        push(name, t);
        let mut now = t;
        for child in &tree.children {
            now = replay(child, depth + 1, names, now);
        }
        now += tree.gap_ns;
        pop(name, now);
        now
    }

    fn wall(tree: &Tree) -> u64 {
        tree.gap_ns + tree.children.iter().map(wall).sum::<u64>()
    }

    proptest! {
        /// Satellite invariant: on one thread, the self-times of a stage
        /// subtree sum exactly to the root's elapsed wall time, and every
        /// node's total equals its self plus its children's totals.
        #[test]
        fn stage_tree_self_times_sum_to_wall_time(
            script in prop::collection::vec((1u64..200, 0usize..3), 1..30),
        ) {
            let tree = build_tree(&mut script.iter(), 0);
            let names: Vec<u32> = [
                "test.prof.sum.d0",
                "test.prof.sum.d1",
                "test.prof.sum.d2",
                "test.prof.sum.d3",
                "test.prof.sum.d4",
            ]
            .iter()
            .map(|n| intern(n))
            .collect();
            let before = snapshot();
            let end = replay(&tree, 0, &names, 1);
            prop_assert_eq!(end - 1, wall(&tree));
            let after = snapshot();
            // The global tree accumulates across proptest cases; the
            // invariant holds on the per-case delta.
            let prefix = "main;test.prof.sum.d0";
            let mut self_sum = 0u64;
            for (path, t) in &after.stages {
                if !path.starts_with(prefix) {
                    continue;
                }
                let prev = before.stages.get(path).copied().unwrap_or_default();
                self_sum += t.self_ns - prev.self_ns;
                prop_assert!(t.total_ns - prev.total_ns >= t.self_ns - prev.self_ns);
            }
            prop_assert_eq!(self_sum, wall(&tree), "self-times sum to the root's wall time");
        }
    }
}
