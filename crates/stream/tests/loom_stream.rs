//! Loom model checks of the streaming substrate's concurrent state machine.
//!
//! Built and run only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p cad3-stream --test loom_stream
//! ```
//!
//! Each test wraps a small concurrent scenario in `loom::model`, which
//! re-executes the body across many perturbed schedules (see
//! `vendor/loom`). The scenarios target the concurrency the paper's
//! pipeline depends on: per-partition log integrity under concurrent
//! producers, sibling partitions appended and fetched at once, a topic
//! created while a by-name produce holds the registry, a commit-driven
//! trim on append racing a fetch, and a horizon trim racing a poll's
//! retry. The crate is compiled with
//! `debug_assertions`, so the partition log's layout check (chunk
//! capacities and lengths, the spare empty) runs after every append of
//! every explored schedule. Every read goes through
//! `SharedTopic::fetch_each`, the walk `Consumer::poll_each` runs (through
//! `support::window`, or a `Consumer` itself).
#![cfg(loom)]

use cad3_stream::{Broker, Consumer, OffsetReset, StreamError};
use loom::sync::Arc;
use loom::thread;
use support::window;

mod support;

/// Two producers appending concurrently: every partition log stays dense
/// and a reader sees each record exactly once.
#[test]
fn concurrent_produce_and_fetch_preserve_log_integrity() {
    loom::model(|| {
        let broker = Arc::new(Broker::new("rsu"));
        broker.create_topic("IN-DATA", 2).expect("fresh topic");
        let handles: Vec<_> = (0..2u32)
            .map(|part| {
                let broker = Arc::clone(&broker);
                thread::spawn(move || {
                    for i in 0..3u64 {
                        let value = vec![part as u8].into();
                        broker
                            .produce_traced("IN-DATA", Some(part), None, value, i, None)
                            .expect("send succeeds");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer thread");
        }
        let topic = broker.topic_handle("IN-DATA").expect("topic exists");
        for part in 0..2u32 {
            let records = window(&topic, part, 0, 16).expect("fetch succeeds");
            assert_eq!(records.len(), 3, "partition {part} lost or duplicated records");
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.offset, i as u64, "offsets must be dense");
            }
        }
    });
}

/// The sharded topic under its worst case: one thread appends to partition
/// 0 while a second appends to sibling partition 1 and a reader fetches
/// partition 0 concurrently. Each partition has its own mutex, so all three
/// interleave freely; every explored schedule must still leave both logs
/// dense and give the reader a prefix of partition 0's final contents.
#[test]
fn sharded_partitions_interleave_without_losing_records() {
    loom::model(|| {
        let topic = Arc::new(cad3_stream::SharedTopic::new("IN-DATA", 2).expect("fresh topic"));
        let sibling = {
            let topic = Arc::clone(&topic);
            thread::spawn(move || {
                for i in 0..2u64 {
                    topic.append(Some(1), None, vec![1u8].into(), i, None).expect("sibling append");
                }
            })
        };
        let reader = {
            let topic = Arc::clone(&topic);
            thread::spawn(move || window(&topic, 0, 0, 16).expect("fetch succeeds"))
        };
        for i in 0..2u64 {
            topic.append(Some(0), None, vec![0u8].into(), i, None).expect("append");
        }
        let snapshot = reader.join().expect("reader thread");
        sibling.join().expect("sibling thread");
        // The reader raced the appends, so it saw some dense prefix.
        assert!(snapshot.len() <= 2, "reader saw more records than were appended");
        for (i, r) in snapshot.iter().enumerate() {
            assert_eq!(r.offset, i as u64, "fetched prefix must be dense from 0");
        }
        for part in 0..2u32 {
            let records = window(&topic, part, 0, 16).expect("final fetch");
            assert_eq!(records.len(), 2, "partition {part} lost or duplicated records");
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.offset, i as u64, "offsets must be dense");
            }
        }
    });
}

/// The registry under a writer: `create_topic("B")` takes the registry's
/// write lock while a by-name `produce_traced` to `A` holds its read guard
/// across the partition lock, and a third thread lists the topics. In every
/// schedule the record lands exactly once, at offset 0 with its header, and
/// the listing is either side of the creation, never torn.
#[test]
fn topic_creation_races_by_name_produce() {
    loom::model(|| {
        let broker = Arc::new(Broker::new("rsu"));
        broker.create_topic("A", 1).expect("fresh topic");
        let creator = {
            let broker = Arc::clone(&broker);
            thread::spawn(move || broker.create_topic("B", 1).expect("fresh topic"))
        };
        let lister = {
            let broker = Arc::clone(&broker);
            thread::spawn(move || broker.topic_names())
        };
        let ctx = cad3_obs::TraceContext::from_parts(7, 1, 0);
        let landed = broker
            .produce_traced("A", None, None, vec![7u8].into(), 0, Some(ctx))
            .expect("produce succeeds");
        creator.join().expect("creator thread");
        let listed = lister.join().expect("lister thread");
        assert_eq!(landed, (0, 0), "the record lands at partition 0, offset 0");
        assert!(listed == ["A"] || listed == ["A", "B"], "torn topic listing: {listed:?}");
        let topic = broker.topic_handle("A").expect("topic exists");
        let records = window(&topic, 0, 0, 16).expect("fetch succeeds");
        assert_eq!(records.len(), 1, "the record lands exactly once");
        assert_eq!((records[0].offset, records[0].trace), (0, Some(ctx)));
        assert_eq!(broker.topic_names(), ["A", "B"], "names are complete after join");
    });
}

/// The trim against a reader: a commit of offset 2 on a three-record
/// partition, then one thread appends (the append trims offsets 0 and 1)
/// while a second commits offset 3 and a third fetches from offset 0. In
/// every schedule the fetch either returns the dense window from 0 that
/// was there before the append, or `OffsetOutOfRange` naming the earliest
/// offset the log then held, and the log ends holding exactly what the last
/// append's floor left: offsets 2 and 3 if it ran before the second commit,
/// 3 alone if after.
#[test]
fn commit_driven_trim_races_a_fetch() {
    loom::model(|| {
        let topic = Arc::new(cad3_stream::SharedTopic::new("IN-DATA", 1).expect("fresh topic"));
        for i in 0..3u64 {
            topic.append(Some(0), None, vec![0u8].into(), i, None).expect("append");
        }
        topic.commit(0, 2).expect("partition 0 exists");
        let appender = {
            let topic = Arc::clone(&topic);
            thread::spawn(move || {
                topic.append(Some(0), None, vec![1u8].into(), 3, None).expect("append")
            })
        };
        let committer = {
            let topic = Arc::clone(&topic);
            thread::spawn(move || topic.commit(0, 3).expect("partition 0 exists"))
        };
        let fetched = window(&topic, 0, 0, 16);
        assert_eq!(appender.join().expect("appender thread"), (0, 3));
        committer.join().expect("committer thread");
        match fetched {
            Ok(records) => {
                let offsets: Vec<u64> = records.iter().map(|r| r.offset).collect();
                // The append that stores offset 3 trims offset 0 first, so
                // a fetch that found 0 ran before it.
                assert_eq!(offsets, [0, 1, 2], "an untrimmed fetch is the dense window");
            }
            Err(e) => {
                let earliest = topic.earliest_offset(0).expect("partition 0 exists");
                assert_eq!(e, StreamError::OffsetOutOfRange { requested: 0, earliest });
            }
        }
        let earliest = topic.earliest_offset(0).expect("partition 0 exists");
        assert!(earliest == 2 || earliest == 3, "the floor the append read: {earliest}");
        assert_eq!(topic.end_offset(0).expect("partition 0 exists"), 4);
        let rest = window(&topic, 0, earliest, 16).expect("fetch from the earliest offset");
        assert_eq!(rest.len() as u64, 4 - earliest, "the survivors are dense to the end");
    });
}

/// A poll against a horizon trim that keeps overtaking it. Partitions 0
/// and 1 of a topic whose horizon keeps one timestamp hold a record each;
/// one thread appends to partition 1 again and again, each append freeing
/// the one before, while a fleet consumer polls until the appender is done
/// and once more. A poll reads partition 0 first, so partition 0's record
/// is already in the poll's output when partition 1's fetch is overtaken,
/// and another append can land between that fetch and its retry. In every
/// schedule no poll fails, no record arrives twice, and every record of
/// either partition is delivered or counted in `stream.consumer.skipped`.
#[test]
fn poll_survives_trims_racing_its_retry() {
    const TRIMMING_APPENDS: u64 = 6;
    loom::model(|| {
        // Left on: no other model in this binary depends on the obs gate.
        cad3_obs::set_enabled(true);
        let skipped = || cad3_obs::registry().counter("stream.consumer.skipped").value();
        let broker = Arc::new(Broker::new("rsu"));
        broker.create_topic("OUT-DATA", 2).expect("fresh topic");
        let topic = broker.topic_handle("OUT-DATA").expect("topic exists");
        topic.set_horizon(0);
        for part in 0..2u32 {
            topic.append(Some(part), None, vec![0u8].into(), 0, None).expect("append");
        }
        let mut fleet = Consumer::new(Arc::clone(&broker), "fleet", OffsetReset::Earliest);
        fleet.subscribe(&["OUT-DATA"]).expect("topic exists");
        let skipped_before = skipped();
        let appender = {
            let topic = Arc::clone(&topic);
            thread::spawn(move || {
                for ts in 1..=TRIMMING_APPENDS {
                    topic.append(Some(1), None, vec![1u8].into(), ts, None).expect("append");
                }
            })
        };
        let mut delivered = Vec::new();
        let mut poll = || {
            let records = fleet.poll(16).expect("a trim never fails a poll");
            delivered.extend(records.iter().map(|r| (r.partition, r.offset)));
        };
        while !appender.is_finished() {
            poll();
        }
        appender.join().expect("appender thread");
        poll();

        let mut unique = delivered.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), delivered.len(), "a record arrived twice: {delivered:?}");
        assert!(delivered.contains(&(0, 0)), "partition 0's record is delivered: {delivered:?}");
        let appended = 2 + TRIMMING_APPENDS;
        let lost = skipped() - skipped_before;
        assert_eq!(
            delivered.len() as u64 + lost,
            appended,
            "every record is delivered or counted as skipped: {delivered:?}, {lost} skipped"
        );
    });
}
