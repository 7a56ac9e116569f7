use crate::sync::{Arc, AtomicU64, Mutex, Ordering, RwLock};
use crate::{Record, SharedTopic, StreamError, TopicName};
use bytes::Bytes;
use cad3_types::len_u32;
use std::collections::HashMap;

#[derive(Debug, Default)]
struct GroupState {
    generation: u64,
    /// member id -> subscribed topics
    subscriptions: HashMap<u64, Vec<TopicName>>,
    /// group-committed offsets
    committed: HashMap<(TopicName, u32), u64>,
}

/// A message broker: a registry of topics plus consumer-group coordination.
///
/// One broker is instantiated per emulated RSU, mirroring the paper's
/// one-Kafka-broker-per-RSU deployment. All methods take `&self`; the broker
/// is internally synchronised so it can be shared across threads in the
/// real-time integration tests and across simulated actors in virtual time.
///
/// Topics are [`SharedTopic`]s in a small registry — an RSU has three —
/// searched by name compare. The by-name methods (`produce`,
/// `produce_traced`, `fetch`, ...) use the topic under the registry's read
/// guard and clone nothing, so a by-name produce costs one uncontended read
/// lock and a short string compare on top of the partition append.
/// [`Broker::topic_handle`] still hands out `Arc` handles for callers that
/// keep one (the consumer, the RSU's `OUT-DATA` and `CO-DATA` legs). The
/// by-name methods call [`SharedTopic`] by path so that `cargo xtask
/// analyze`, which follows only calls it can resolve to one function, sees
/// the registry → partition nesting.
///
/// # Lock hierarchy
///
/// Stream locks are acquired strictly in this order (enforced by
/// `cargo xtask analyze` statically and the `cad3-lockrank` runtime
/// witness in debug builds):
///
/// 1. `topics` registry `RwLock` (rank 20) — a by-name method holds its
///    read guard across the partition lock below,
/// 2. a [`SharedTopic`] partition `Mutex` (rank 30) — never two at once,
/// 3. the `groups` coordination `Mutex` (rank 40).
///
/// Any method needing topic data *and* group state reads the topic side
/// first, drops those guards, then locks `groups` — never the reverse.
#[derive(Debug)]
pub struct Broker {
    name: String,
    topics: RwLock<Vec<Arc<SharedTopic>>>,
    groups: Mutex<HashMap<String, GroupState>>,
    next_member: AtomicU64,
}

/// The contiguous partition range assigned to one member rank by range
/// assignment: `partitions` split among `members` ranks, with the first
/// `partitions % members` ranks taking one extra partition.
///
/// Pure function of its inputs; the proptest in
/// `tests/assignment_props.rs` checks that the ranges over all ranks are
/// disjoint and cover `0..partitions` exactly.
pub fn range_assignment(partitions: u32, members: u32, rank: u32) -> std::ops::Range<u32> {
    debug_assert!(rank < members, "rank {rank} out of {members} members");
    let base = partitions / members;
    let extra = partitions % members;
    let start = rank * base + rank.min(extra);
    let count = base + u32::from(rank < extra);
    start..start + count
}

/// Debug-only invariant: the ranges over all ranks are mutually disjoint and
/// cover `0..partitions` exactly (each range starts where the previous one
/// ended, and the last ends at `partitions`).
fn debug_assert_covering(partitions: u32, members: u32) {
    #[cfg(debug_assertions)]
    {
        let mut next = 0;
        for rank in 0..members {
            let r = range_assignment(partitions, members, rank);
            debug_assert_eq!(r.start, next, "rank {rank}/{members} range is not contiguous");
            next = r.end;
        }
        debug_assert_eq!(next, partitions, "{members} ranges do not cover {partitions} partitions");
    }
    #[cfg(not(debug_assertions))]
    let _ = (partitions, members);
}

/// The registered topic named `name`, by linear compare: the registry holds
/// a handful of topics, so this beats hashing the name on every record.
fn find<'a>(
    topics: &'a [Arc<SharedTopic>],
    name: &str,
) -> Result<&'a Arc<SharedTopic>, StreamError> {
    topics
        .iter()
        .find(|t| &**t.name() == name)
        .ok_or_else(|| StreamError::UnknownTopic(name.to_owned()))
}

impl Broker {
    /// Creates a broker with a human-readable name (e.g. `"rsu-motorway"`).
    pub fn new(name: impl Into<String>) -> Self {
        Broker {
            name: name.into(),
            topics: RwLock::new(Vec::new()),
            groups: Mutex::new(HashMap::new()),
            next_member: AtomicU64::new(1),
        }
    }

    /// Broker name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a topic.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::TopicExists`] for duplicates and
    /// [`StreamError::InvalidPartitionCount`] for zero partitions.
    pub fn create_topic(&self, name: &str, partitions: u32) -> Result<(), StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let mut topics = self.topics.write();
        if find(&topics, name).is_ok() {
            return Err(StreamError::TopicExists(name.to_owned()));
        }
        topics.push(Arc::new(SharedTopic::new(name, partitions)?));
        Ok(())
    }

    /// Names of all topics on this broker.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = {
            let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
            self.topics.read().iter().map(|t| t.name().to_string()).collect()
        };
        names.sort();
        names
    }

    /// Looks up the shared handle for a topic.
    ///
    /// A caller that keeps the handle bypasses the registry on every later
    /// call, taking only the target partition's mutex. Topics are never
    /// removed once created, so a kept handle stays valid for the broker's
    /// lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn topic_handle(&self, topic: &str) -> Result<Arc<SharedTopic>, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        find(&topics, topic).map(Arc::clone)
    }

    /// Partition count of a topic.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn partition_count(&self, topic: &str) -> Result<u32, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        Ok(SharedTopic::partition_count(find(&topics, topic)?))
    }

    /// Appends a record to a topic. Returns `(partition, offset)`.
    ///
    /// Runs [`SharedTopic::append`], which is where the produce metrics
    /// live, under the registry's read guard.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] or
    /// [`StreamError::UnknownPartition`].
    pub fn produce(
        &self,
        topic: &str,
        partition: Option<u32>,
        key: Option<Bytes>,
        value: Bytes,
        timestamp: u64,
    ) -> Result<(u32, u64), StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::append(find(&topics, topic)?, partition, key, value, timestamp)
    }

    /// [`Broker::produce`] with an optional distributed-trace header: the
    /// context rides the record through the log and back out of
    /// `Consumer::poll*` unchanged.
    ///
    /// This is the ingest path (one call per vehicle status record), so it
    /// neither hashes the name nor touches a reference count: the topic is
    /// found by compare and appended to while the read guard is held.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] or
    /// [`StreamError::UnknownPartition`].
    pub fn produce_traced(
        &self,
        topic: &str,
        partition: Option<u32>,
        key: Option<Bytes>,
        value: Bytes,
        timestamp: u64,
        trace: Option<cad3_obs::TraceContext>,
    ) -> Result<(u32, u64), StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::append_traced(find(&topics, topic)?, partition, key, value, timestamp, trace)
    }

    /// Fetches up to `max` records from `topic`/`partition` at `offset`.
    ///
    /// Runs [`SharedTopic::fetch`], which is where the fetch metrics live,
    /// under the registry's read guard.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`], [`StreamError::UnknownPartition`]
    /// or [`StreamError::OffsetOutOfRange`].
    pub fn fetch(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max: usize,
    ) -> Result<Vec<Record>, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::fetch(find(&topics, topic)?, partition, offset, max)
    }

    /// The end (next-produced) offset of a partition.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] or [`StreamError::UnknownPartition`].
    pub fn end_offset(&self, topic: &str, partition: u32) -> Result<u64, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::end_offset(find(&topics, topic)?, partition)
    }

    /// The earliest retained offset of a partition.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] or [`StreamError::UnknownPartition`].
    pub fn earliest_offset(&self, topic: &str, partition: u32) -> Result<u64, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        SharedTopic::earliest_offset(find(&topics, topic)?, partition)
    }

    /// Total retained records in a topic.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::UnknownTopic`] if the topic does not exist.
    pub fn topic_len(&self, topic: &str) -> Result<usize, StreamError> {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let topics = self.topics.read();
        Ok(SharedTopic::len(find(&topics, topic)?))
    }

    // ---- consumer-group coordination -------------------------------------

    /// Allocates a broker-unique consumer member id.
    pub fn allocate_member_id(&self) -> u64 {
        // ordering: Relaxed — ids only need uniqueness, which fetch_add's
        // atomicity alone guarantees; no other memory is published with them.
        self.next_member.fetch_add(1, Ordering::Relaxed)
    }

    /// Joins (or re-subscribes) a member to a group, bumping the group
    /// generation so other members rebalance.
    pub fn join_group(&self, group: &str, member: u64, topics: Vec<String>) -> u64 {
        let topics: Vec<TopicName> = topics.into_iter().map(TopicName::from).collect();
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::groups");
        let mut groups = self.groups.lock();
        let state = groups.entry(group.to_owned()).or_default();
        state.subscriptions.insert(member, topics);
        state.generation += 1;
        state.generation
    }

    /// Removes a member from a group, bumping the generation.
    pub fn leave_group(&self, group: &str, member: u64) {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::groups");
        let mut groups = self.groups.lock();
        if let Some(state) = groups.get_mut(group) {
            if state.subscriptions.remove(&member).is_some() {
                state.generation += 1;
            }
        }
    }

    /// Current generation of a group (0 if the group does not exist).
    pub fn group_generation(&self, group: &str) -> u64 {
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::groups");
        self.groups.lock().get(group).map_or(0, |s| s.generation)
    }

    /// Computes the member's current partition assignment by range
    /// assignment: for each topic, partitions are split contiguously among
    /// the subscribing members in member-id order.
    pub fn assignments(&self, group: &str, member: u64) -> Vec<(TopicName, u32)> {
        // Partition counts are snapshotted before `groups` is locked: the
        // registry read (rank 20) must never happen under the rank-40
        // groups mutex. Partition counts are immutable topic metadata, so
        // the snapshot takes no per-topic lock at all. A topic created
        // between the snapshot and the lock is simply not assigned until
        // the next rebalance, which is indistinguishable from the
        // subscription racing the topic creation.
        let partition_counts: HashMap<TopicName, u32> = {
            let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
            let topics = self.topics.read();
            topics.iter().map(|t| (TopicName::clone(t.name()), t.partition_count())).collect()
        };
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::groups");
        let groups = self.groups.lock();
        let Some(state) = groups.get(group) else { return Vec::new() };
        let Some(my_topics) = state.subscriptions.get(&member) else { return Vec::new() };
        let mut out = Vec::new();
        for topic in my_topics {
            let Some(&partitions) = partition_counts.get(topic) else { continue };
            // Members subscribed to this topic, sorted for determinism.
            let mut members: Vec<u64> = state
                .subscriptions
                .iter()
                .filter(|(_, ts)| ts.contains(topic))
                .map(|(m, _)| *m)
                .collect();
            members.sort_unstable();
            let n = len_u32(members.len());
            let Some(rank) = members.iter().position(|m| *m == member) else { continue };
            debug_assert_covering(partitions, n);
            for p in range_assignment(partitions, n, len_u32(rank)) {
                out.push((TopicName::clone(topic), p));
            }
        }
        out
    }

    /// Commits a group offset for a topic partition.
    ///
    /// Debug builds check the committed-≤-end invariant: a group cannot
    /// acknowledge records that were never produced.
    pub fn commit_offset(&self, group: &str, topic: &str, partition: u32, offset: u64) {
        self.commit_offset_at(group, &TopicName::from(topic), partition, offset);
    }

    /// [`Broker::commit_offset`] for an already-interned topic name, so the
    /// per-batch consumer commit clones a refcount instead of the string.
    pub(crate) fn commit_offset_at(
        &self,
        group: &str,
        topic: &TopicName,
        partition: u32,
        offset: u64,
    ) {
        // The end offset is read before `groups` is locked (lock hierarchy:
        // partition mutexes before groups). The log only ever grows, so an
        // offset valid against this earlier snapshot is still valid when
        // the commit lands.
        #[cfg(debug_assertions)]
        if let Ok(end) = self.end_offset(topic, partition) {
            debug_assert!(
                offset <= end,
                "group {group} commits offset {offset} past end {end} on {topic}/{partition}"
            );
        }
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::groups");
        let mut groups = self.groups.lock();
        let state = groups.entry(group.to_owned()).or_default();
        state.committed.insert((TopicName::clone(topic), partition), offset);
    }

    /// The committed group offset for a topic partition, if any.
    pub fn committed_offset(&self, group: &str, topic: &str, partition: u32) -> Option<u64> {
        let key = (TopicName::from(topic), partition);
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::groups");
        self.groups.lock().get(group).and_then(|s| s.committed.get(&key).copied())
    }

    /// Total committed-vs-head lag of a group: the records its subscribed
    /// topics hold beyond the group's committed offsets, summed over all
    /// partitions. Backs the `stream.consumer.lag.<group>` gauge.
    ///
    /// Partitions without a committed offset count from the earliest
    /// retained offset — what a fresh member would have to replay.
    ///
    /// The group snapshot is taken under the rank-40 `groups` mutex and the
    /// guard dropped *before* any topic lock is touched, keeping the caller
    /// inside the lock hierarchy. Only the subscribed topics' committed
    /// entries are copied out — not the whole committed map, which also
    /// carries offsets for topics the group no longer subscribes to. A
    /// topic produced to between the two phases shows up as slightly higher
    /// lag, which is the honest reading of a moving head.
    pub fn group_lag(&self, group: &str) -> u64 {
        let (topics, committed) = {
            let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::groups");
            let groups = self.groups.lock();
            let Some(state) = groups.get(group) else { return 0 };
            let mut topics: Vec<TopicName> =
                state.subscriptions.values().flatten().map(TopicName::clone).collect();
            topics.sort_unstable();
            topics.dedup();
            let committed: HashMap<(TopicName, u32), u64> = state
                .committed
                .iter()
                .filter(|((t, _), _)| topics.binary_search(t).is_ok())
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            (topics, committed)
        };
        let mut lag = 0u64;
        let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
        let registry = self.topics.read();
        for topic in &topics {
            let Ok(t) = find(&registry, topic) else { continue };
            for partition in 0..t.partition_count() {
                let Ok(end) = SharedTopic::end_offset(t, partition) else { continue };
                let base = committed
                    .get(&(TopicName::clone(topic), partition))
                    .copied()
                    .or_else(|| SharedTopic::earliest_offset(t, partition).ok())
                    .unwrap_or(0);
                lag += end.saturating_sub(base);
            }
        }
        lag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn create_produce_fetch_round_trip() {
        let b = Broker::new("rsu-1");
        b.create_topic("IN-DATA", 3).unwrap();
        let (p, o) = b.produce("IN-DATA", None, Some(val("k")), val("v"), 7).unwrap();
        let recs = b.fetch("IN-DATA", p, o, 10).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].value, val("v"));
        assert_eq!(recs[0].timestamp, 7);
    }

    #[test]
    fn duplicate_topic_rejected() {
        let b = Broker::new("rsu-1");
        b.create_topic("T", 1).unwrap();
        assert_eq!(b.create_topic("T", 1).unwrap_err(), StreamError::TopicExists("T".into()));
    }

    #[test]
    fn unknown_topic_errors() {
        let b = Broker::new("rsu-1");
        assert!(matches!(
            b.produce("nope", None, None, val("v"), 0),
            Err(StreamError::UnknownTopic(_))
        ));
        assert!(matches!(b.fetch("nope", 0, 0, 1), Err(StreamError::UnknownTopic(_))));
        assert!(matches!(b.topic_handle("nope"), Err(StreamError::UnknownTopic(_))));
    }

    #[test]
    fn topic_names_sorted() {
        let b = Broker::new("rsu-1");
        b.create_topic("OUT-DATA", 1).unwrap();
        b.create_topic("CO-DATA", 1).unwrap();
        b.create_topic("IN-DATA", 1).unwrap();
        assert_eq!(b.topic_names(), vec!["CO-DATA", "IN-DATA", "OUT-DATA"]);
    }

    #[test]
    fn topic_handle_bypasses_registry() {
        let b = Broker::new("rsu-1");
        b.create_topic("T", 2).unwrap();
        let h = b.topic_handle("T").unwrap();
        assert_eq!(&**h.name(), "T");
        let (p, o) = h.append(None, None, val("v"), 1).unwrap();
        // The handle and the registry see the same log.
        assert_eq!(b.fetch("T", p, o, 1).unwrap().len(), 1);
        assert_eq!(b.end_offset("T", p).unwrap(), o + 1);
    }

    #[test]
    fn range_assignment_single_member_gets_all() {
        let b = Broker::new("rsu-1");
        b.create_topic("T", 3).unwrap();
        let m = b.allocate_member_id();
        b.join_group("g", m, vec!["T".into()]);
        let a = b.assignments("g", m);
        assert_eq!(a, vec![("T".into(), 0), ("T".into(), 1), ("T".into(), 2)]);
    }

    #[test]
    fn range_assignment_splits_without_overlap() {
        let b = Broker::new("rsu-1");
        b.create_topic("T", 3).unwrap();
        let m1 = b.allocate_member_id();
        let m2 = b.allocate_member_id();
        b.join_group("g", m1, vec!["T".into()]);
        b.join_group("g", m2, vec!["T".into()]);
        let a1 = b.assignments("g", m1);
        let a2 = b.assignments("g", m2);
        let mut all: Vec<u32> = a1.iter().chain(a2.iter()).map(|(_, p)| *p).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "partitions covered exactly once");
        assert_eq!(a1.len(), 2, "first member takes the larger range");
        assert_eq!(a2.len(), 1);
    }

    #[test]
    fn generation_bumps_on_membership_change() {
        let b = Broker::new("rsu-1");
        b.create_topic("T", 2).unwrap();
        let m1 = b.allocate_member_id();
        assert_eq!(b.group_generation("g"), 0);
        b.join_group("g", m1, vec!["T".into()]);
        assert_eq!(b.group_generation("g"), 1);
        let m2 = b.allocate_member_id();
        b.join_group("g", m2, vec!["T".into()]);
        assert_eq!(b.group_generation("g"), 2);
        b.leave_group("g", m1);
        assert_eq!(b.group_generation("g"), 3);
        // After m1 leaves, m2 owns everything.
        assert_eq!(b.assignments("g", m2).len(), 2);
        assert!(b.assignments("g", m1).is_empty());
    }

    #[test]
    fn committed_offsets_round_trip() {
        let b = Broker::new("rsu-1");
        assert_eq!(b.committed_offset("g", "T", 0), None);
        b.commit_offset("g", "T", 0, 41);
        assert_eq!(b.committed_offset("g", "T", 0), Some(41));
        b.commit_offset("g", "T", 0, 42);
        assert_eq!(b.committed_offset("g", "T", 0), Some(42));
    }

    #[test]
    fn group_lag_counts_committed_vs_head() {
        let b = Broker::new("rsu-1");
        b.create_topic("T", 2).unwrap();
        let m = b.allocate_member_id();
        b.join_group("g", m, vec!["T".into()]);
        assert_eq!(b.group_lag("g"), 0, "empty topic, no lag");
        for i in 0..6u64 {
            b.produce("T", None, Some(val(&format!("k{i}"))), val("v"), i).unwrap();
        }
        assert_eq!(b.group_lag("g"), 6, "nothing committed: lag from earliest");
        // Commit everything on partition 0 only.
        let end0 = b.end_offset("T", 0).unwrap();
        b.commit_offset("g", "T", 0, end0);
        let end1 = b.end_offset("T", 1).unwrap();
        assert_eq!(b.group_lag("g"), end1, "partition 1 still uncommitted");
        b.commit_offset("g", "T", 1, end1);
        assert_eq!(b.group_lag("g"), 0);
        assert_eq!(b.group_lag("absent"), 0, "unknown group has no lag");
    }

    #[test]
    fn group_lag_ignores_unsubscribed_topics() {
        let b = Broker::new("rsu-1");
        b.create_topic("T", 1).unwrap();
        b.create_topic("OTHER", 1).unwrap();
        let m = b.allocate_member_id();
        b.join_group("g", m, vec!["T".into()]);
        // A stale committed offset on an unsubscribed topic must not leak
        // into the group's lag.
        b.commit_offset("g", "OTHER", 0, 0);
        for i in 0..4u64 {
            b.produce("OTHER", Some(0), None, val("v"), i).unwrap();
        }
        assert_eq!(b.group_lag("g"), 0, "lag counts subscribed topics only");
        b.produce("T", Some(0), None, val("v"), 0).unwrap();
        assert_eq!(b.group_lag("g"), 1);
    }

    #[test]
    fn broker_is_shareable_across_threads() {
        use std::sync::Arc;
        let b = Arc::new(Broker::new("rsu-1"));
        b.create_topic("T", 4).unwrap();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    b.produce("T", Some(t as u32), None, val(&i.to_string()), i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.topic_len("T").unwrap(), 400);
        for p in 0..4 {
            // Per-partition offsets are dense: every fetch sees 100 in order.
            let recs = b.fetch("T", p, 0, 1000).unwrap();
            assert_eq!(recs.len(), 100);
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(r.offset, i as u64);
            }
        }
    }
}
