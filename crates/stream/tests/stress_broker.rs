//! Threaded stress test of the sharded broker under the lock-rank witness.
//!
//! Ignored by default (it spins real threads for a few seconds); CI runs it
//! explicitly in the `lockrank` job with
//!
//! ```sh
//! cargo test -p cad3-stream --test stress_broker -- --ignored
//! ```
//!
//! where the `rank_scope!` witness is compiled in, so every acquisition the
//! stress mix performs — by-name produces (a per-partition lock under the
//! registry's read guard) and consumer polls — is checked against the
//! hierarchy in `lockranks.toml` on a real (not model-checked) schedule.

use bytes::Bytes;
use cad3_stream::{Broker, Consumer, OffsetReset};
use std::sync::Arc;
use support::window;

mod support;

const TOPICS: [&str; 3] = ["IN-DATA", "OUT-RESULT", "GLOBAL-ABNORMAL"];
const RECORDS_PER_PRODUCER: u64 = 5_001;
const PRODUCERS: usize = 4;

/// Four producers and three polling consumers all hammer one broker.
/// Afterwards every topic must hold exactly the records sent to it, with
/// dense offsets, and each consumer must have seen every record of its
/// topic exactly once.
#[test]
#[ignore = "threaded stress mix; run explicitly via -- --ignored (lockrank CI job)"]
fn stress_sharded_broker_under_lockrank_witness() {
    let broker = Arc::new(Broker::new("rsu-stress"));
    for topic in TOPICS {
        broker.create_topic(topic, 3).expect("fresh topic");
    }

    let mut handles = Vec::new();

    // Producers: each cycles through all topics, mixing keyed, keyless, and
    // explicit-partition sends so every routing path crosses threads.
    for _ in 0..PRODUCERS {
        let broker = Arc::clone(&broker);
        handles.push(std::thread::spawn(move || {
            let mut sent = 0u64;
            for i in 0..RECORDS_PER_PRODUCER {
                let topic = TOPICS[(i % 3) as usize];
                let value = Bytes::copy_from_slice(&i.to_be_bytes());
                let (partition, key) = match i % 3 {
                    0 => (None, Some(Bytes::from_static(b"veh-7"))),
                    1 => (None, None),
                    _ => (Some((i % 3) as u32), None),
                };
                broker
                    .produce_traced(topic, partition, key, value, i, None)
                    .expect("send succeeds");
                sent += 1;
            }
            sent
        }));
    }

    // Consumers: one per topic drains everything.
    let mut consumers = Vec::new();
    for topic in TOPICS {
        let broker = Arc::clone(&broker);
        consumers.push(std::thread::spawn(move || {
            let mut consumer = Consumer::new(broker, topic, OffsetReset::Earliest);
            consumer.subscribe(&[topic]).expect("subscribe succeeds");
            let mut seen = 0usize;
            let mut idle_rounds = 0u32;
            // Producers send RECORDS_PER_PRODUCER / 3 records to each topic
            // (the cycle length divides the count evenly).
            let expected = PRODUCERS * (RECORDS_PER_PRODUCER as usize / 3);
            // An empty poll is cheap, so an idle round waits a little: the
            // consumer gives up only after about a second without progress.
            while seen < expected && idle_rounds < 10_000 {
                let got = consumer.poll(256).expect("poll succeeds").len();
                seen += got;
                if got == 0 {
                    idle_rounds += 1;
                    std::thread::sleep(std::time::Duration::from_micros(100));
                } else {
                    idle_rounds = 0;
                }
            }
            (seen, expected)
        }));
    }

    let mut produced_total = 0u64;
    for h in handles {
        produced_total += h.join().expect("producer thread");
    }
    assert_eq!(produced_total, PRODUCERS as u64 * RECORDS_PER_PRODUCER);
    for c in consumers {
        let (seen, expected) = c.join().expect("consumer thread");
        assert_eq!(seen, expected, "consumer saw every record exactly once");
    }

    // Terminal integrity sweep: per-topic totals and dense per-partition logs.
    for topic in TOPICS {
        let expected = PRODUCERS * (RECORDS_PER_PRODUCER as usize / 3);
        assert_eq!(broker.topic_len(topic).expect("topic exists"), expected);
        let handle = broker.topic_handle(topic).expect("topic exists");
        let mut total = 0usize;
        for partition in 0..handle.partition_count() {
            let end = handle.end_offset(partition).expect("partition exists");
            let records = window(&handle, partition, 0, usize::MAX).expect("full fetch succeeds");
            assert_eq!(records.len() as u64, end, "offsets must be dense to the end");
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.offset, i as u64, "offsets must be dense from 0");
            }
            total += records.len();
        }
        assert_eq!(total, expected, "{topic}: partition totals must add up");
    }
}
