//! Property-based tests of the streaming substrate's core invariants.

use bytes::Bytes;
use cad3_obs::TraceContext;
use cad3_stream::{Broker, Consumer, OffsetReset, PartitionLog, RecordView};
use proptest::prelude::*;
use std::sync::Arc;
use support::Topic;

mod support;

/// Everything a poll hands out of one record, owned.
type Seen = (u32, u64, Option<Vec<u8>>, Vec<u8>, u64, Option<TraceContext>);

fn seen(r: RecordView<'_>) -> Seen {
    (r.partition, r.offset, r.key.map(|k| k.to_vec()), r.value.to_vec(), r.timestamp, r.trace)
}

/// `stream.consumer.skipped` so far. Only the visiting-poll property
/// overtakes a reader in this binary, so a delta around one of its polls
/// is that poll's.
fn skipped() -> u64 {
    cad3_obs::registry().counter("stream.consumer.skipped").value()
}

/// A broker with one three-partition topic `T` and an earliest-reset
/// consumer of it.
fn reader() -> (Arc<Broker>, Consumer) {
    let broker = Arc::new(Broker::new("b"));
    broker.create_topic("T", 3).unwrap();
    let mut consumer = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
    consumer.subscribe(&["T"]).unwrap();
    (broker, consumer)
}

proptest! {
    /// Appending any sequence yields dense offsets and a faithful replay.
    #[test]
    fn log_replay_is_faithful(values in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..200)) {
        let mut log = PartitionLog::new();
        for (i, v) in values.iter().enumerate() {
            let off = log.append(None, Bytes::copy_from_slice(v), i as u64);
            prop_assert_eq!(off, i as u64);
        }
        let fetched = log.fetch(0, values.len()).unwrap();
        prop_assert_eq!(fetched.len(), values.len());
        for (rec, v) in fetched.iter().zip(&values) {
            prop_assert_eq!(&rec.value[..], &v[..]);
        }
    }

    /// The floor and the horizon never change the identity of surviving
    /// records: an append stamped `i` after a commit of `floor` keeps
    /// exactly the newest records from `max(floor, i - horizon)` on.
    #[test]
    fn the_trim_keeps_a_suffix(
        n in 1usize..300,
        floor in 0usize..320,
        horizon in 0usize..60,
    ) {
        let mut log = PartitionLog::new();
        log.set_horizon(horizon as u64);
        let last = n - 1;
        for i in 0..n {
            if i == last {
                log.commit(floor as u64);
            }
            log.append(None, Bytes::from(i.to_string()), i as u64);
        }
        let earliest = floor.min(last).max(last.saturating_sub(horizon));
        prop_assert_eq!(log.earliest_offset(), earliest as u64);
        prop_assert_eq!(log.len(), n - earliest);
        let recs = log.fetch(earliest as u64, n).unwrap();
        prop_assert_eq!(recs.len(), n - earliest);
        for (j, rec) in recs.iter().enumerate() {
            let expected = earliest + j;
            let expected_bytes = expected.to_string();
            prop_assert_eq!(&rec.value[..], expected_bytes.as_bytes());
            prop_assert_eq!(rec.offset, expected as u64);
        }
    }

    /// The key partitioner is deterministic and in range.
    #[test]
    fn partitioner_is_stable(key in prop::collection::vec(any::<u8>(), 0..32), parts in 1u32..16) {
        let topic = Topic::new("t", parts).unwrap();
        let p1 = topic.partition_for_key(&key);
        let p2 = topic.partition_for_key(&key);
        prop_assert_eq!(p1, p2);
        prop_assert!(p1 < parts);
    }

    /// Across any produce schedule, a consumer that commits after every
    /// poll sees every record exactly once, with per-key order preserved;
    /// once it has committed the lot, one more append to each partition
    /// leaves nothing else behind.
    #[test]
    fn consumer_sees_everything_exactly_once(
        sends in prop::collection::vec((0u8..6, any::<u16>()), 1..300),
        poll_every in 1usize..40,
    ) {
        let broker = Arc::new(Broker::new("b"));
        broker.create_topic("T", 3).unwrap();
        let mut consumer = Consumer::new(Arc::clone(&broker), "g", OffsetReset::Earliest);
        consumer.subscribe(&["T"]).unwrap();

        let mut seen: Vec<(u8, u16)> = Vec::new();
        for (i, (key, val)) in sends.iter().enumerate() {
            let value = Bytes::copy_from_slice(&val.to_be_bytes());
            broker.produce("T", None, Some(Bytes::copy_from_slice(&[*key])), value, i as u64).unwrap();
            if i % poll_every == 0 {
                for rec in consumer.poll(usize::MAX).unwrap() {
                    let k = rec.key.as_ref().unwrap()[0];
                    let v = u16::from_be_bytes([rec.value[0], rec.value[1]]);
                    seen.push((k, v));
                }
                consumer.commit().unwrap();
            }
        }
        for rec in consumer.poll(usize::MAX).unwrap() {
            let k = rec.key.as_ref().unwrap()[0];
            let v = u16::from_be_bytes([rec.value[0], rec.value[1]]);
            seen.push((k, v));
        }
        prop_assert_eq!(seen.len(), sends.len());
        // Per-key subsequences match the send order.
        for key in 0u8..6 {
            let sent: Vec<u16> =
                sends.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v).collect();
            let got: Vec<u16> =
                seen.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v).collect();
            prop_assert_eq!(sent, got, "key {}", key);
        }
        consumer.commit().unwrap();
        for p in 0..3 {
            broker.produce("T", Some(p), None, Bytes::from_static(b"end"), 0).unwrap();
        }
        prop_assert_eq!(broker.topic_len("T").unwrap(), 3);
    }

    /// `poll_each` visits exactly what `poll` returns — partition, offset,
    /// key, value, timestamp and trace, in order — and both count the same
    /// `stream.consumer.skipped`, across any schedule of keyed and traced
    /// appends, commits, horizons and poll sizes. Two brokers take the same
    /// schedule: one is read by `poll`, the other by `poll_each`.
    #[test]
    fn poll_each_visits_what_poll_returns(
        ops in prop::collection::vec(
            (0u8..6, 0u32..3, 0u64..8, 0u64..24, 1usize..24, any::<bool>()),
            1..200,
        ),
    ) {
        // Left on: counters are all obs-on changes, and no other test in
        // this binary reads one.
        cad3_obs::set_enabled(true);
        let (by_poll, mut polled) = reader();
        let (by_visit, mut visited) = reader();
        let mut now = 0u64;
        for (i, (op, partition, step, horizon, max, traced)) in ops.into_iter().enumerate() {
            match op {
                // Appends, half of the schedule: two in three keyed, some
                // traced, stamps ascending by a random step so horizons trim.
                0..=2 => {
                    now += step;
                    let key = (op != 2).then(|| Bytes::copy_from_slice(&i.to_be_bytes()));
                    let value = Bytes::from(format!("v{i}"));
                    let trace = traced.then(|| TraceContext::from_parts(i as u64 + 1, now, 0));
                    for broker in [&by_poll, &by_visit] {
                        let (key, value) = (key.clone(), value.clone());
                        broker.produce_traced("T", Some(partition), key, value, now, trace).unwrap();
                    }
                }
                3 => {
                    polled.commit().unwrap();
                    visited.commit().unwrap();
                }
                4 => {
                    for broker in [&by_poll, &by_visit] {
                        broker.topic_handle("T").unwrap().set_horizon(horizon);
                    }
                }
                _ => {
                    let before = skipped();
                    let want: Vec<Seen> = polled
                        .poll(max)
                        .unwrap()
                        .iter()
                        .map(|r| {
                            let (key, trace) = (r.key.as_ref(), r.trace);
                            seen(RecordView {
                                partition: r.partition,
                                offset: r.offset,
                                key,
                                value: &r.value,
                                timestamp: r.timestamp,
                                trace,
                            })
                        })
                        .collect();
                    let poll_skipped = skipped() - before;
                    let before = skipped();
                    let mut got: Vec<Seen> = Vec::new();
                    let n = visited.poll_each(max, |r| got.push(seen(r))).unwrap();
                    let visit_skipped = skipped() - before;
                    prop_assert_eq!(n, got.len());
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(visit_skipped, poll_skipped);
                }
            }
        }
    }
}
