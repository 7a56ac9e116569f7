//! Threaded stress test of the sharded broker under the lock-rank witness.
//!
//! Ignored by default (it spins seven real threads for a fraction of a
//! second); CI runs it explicitly in the `lockrank` job with
//!
//! ```sh
//! cargo test -p cad3-stream --test stress_broker -- --ignored
//! ```
//!
//! where the `rank_scope!` witness is compiled in, so every acquisition the
//! stress mix performs — by-name produces (a per-partition lock under the
//! registry's read guard) and consumer polls — is checked against the
//! hierarchy in `lockranks.toml` on a real (not model-checked) schedule.
//! The producers and consumers overlap by construction, not by luck: all
//! start behind one barrier, and every [`CHECKPOINT`] records a producer
//! waits until each consumer has polled again.

use bytes::Bytes;
use cad3_stream::{Broker, Consumer, OffsetReset};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use support::window;

mod support;

const TOPICS: [&str; 3] = ["IN-DATA", "OUT-RESULT", "GLOBAL-ABNORMAL"];
const RECORDS_PER_PRODUCER: u64 = 5_001;
const PRODUCERS: usize = 4;
/// Records a producer sends between two waits for every consumer's poll.
const CHECKPOINT: u64 = 500;

/// Four producers and three polling consumers all hammer one broker.
/// Afterwards every topic must hold exactly the records sent to it, with
/// dense offsets, and each consumer must have seen every record of its
/// topic exactly once, at least ten polls of it while producers still ran.
#[test]
#[ignore = "threaded stress mix; run explicitly via -- --ignored (lockrank CI job)"]
fn stress_sharded_broker_under_lockrank_witness() {
    let broker = Arc::new(Broker::new("rsu-stress"));
    for topic in TOPICS {
        broker.create_topic(topic, 3).expect("fresh topic");
    }
    let start = Arc::new(Barrier::new(PRODUCERS + TOPICS.len()));
    // Per consumer, the polls it has made.
    let polls: Arc<[AtomicU64; 3]> = Arc::new(Default::default());
    let producers_running = Arc::new(AtomicUsize::new(PRODUCERS));

    let mut handles = Vec::new();

    // Producers: each cycles through all topics, mixing keyed, keyless, and
    // explicit-partition sends so every routing path crosses threads.
    for _ in 0..PRODUCERS {
        let broker = Arc::clone(&broker);
        let start = Arc::clone(&start);
        let polls = Arc::clone(&polls);
        let producers_running = Arc::clone(&producers_running);
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut sent = 0u64;
            for i in 0..RECORDS_PER_PRODUCER {
                if i > 0 && i % CHECKPOINT == 0 {
                    // Every consumer polls at least once after the records
                    // sent so far are in the log.
                    // ordering: SeqCst — a count read here is one a later poll bumps.
                    let seen: Vec<u64> = polls.iter().map(|p| p.load(Ordering::SeqCst)).collect();
                    // A consumer that gave up fails the test instead of
                    // hanging it.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    // ordering: SeqCst — the bump follows that poll's records.
                    while polls.iter().zip(&seen).any(|(p, &s)| p.load(Ordering::SeqCst) == s) {
                        assert!(Instant::now() < deadline, "a consumer stopped polling");
                        std::thread::yield_now();
                    }
                }
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
            // ordering: SeqCst — after the producer's last send.
            producers_running.fetch_sub(1, Ordering::SeqCst);
            sent
        }));
    }

    // Consumers: one per topic drains everything, and keeps polling until
    // the last producer is done, since producers wait on its polls.
    let mut consumers = Vec::new();
    for (c, topic) in TOPICS.into_iter().enumerate() {
        let broker = Arc::clone(&broker);
        let start = Arc::clone(&start);
        let polls = Arc::clone(&polls);
        let producers_running = Arc::clone(&producers_running);
        consumers.push(std::thread::spawn(move || {
            let mut consumer = Consumer::new(broker, topic, OffsetReset::Earliest);
            consumer.subscribe(&[topic]).expect("subscribe succeeds");
            start.wait();
            let mut seen = 0usize;
            let mut overlapped = 0usize;
            let mut idle_rounds = 0u32;
            // Producers send RECORDS_PER_PRODUCER / 3 records to each topic
            // (the cycle length divides the count evenly).
            let expected = PRODUCERS * (RECORDS_PER_PRODUCER as usize / 3);
            // An empty poll is cheap, so an idle round waits a little: the
            // consumer gives up only after about a second without progress.
            // ordering: SeqCst — pairs with the producers' `fetch_sub`.
            while (seen < expected || producers_running.load(Ordering::SeqCst) > 0)
                && idle_rounds < 10_000
            {
                let got = consumer.poll(256).expect("poll succeeds").len();
                seen += got;
                // ordering: SeqCst — read before this poll's bump below, so a
                // producer waiting on the bump is still counted as running.
                if got > 0 && producers_running.load(Ordering::SeqCst) > 0 {
                    overlapped += 1;
                }
                // ordering: SeqCst — published after the poll it counts.
                polls[c].fetch_add(1, Ordering::SeqCst);
                if got == 0 {
                    idle_rounds += 1;
                    std::thread::sleep(Duration::from_micros(100));
                } else {
                    idle_rounds = 0;
                }
            }
            (seen, expected, overlapped)
        }));
    }

    let mut produced_total = 0u64;
    for h in handles {
        produced_total += h.join().expect("producer thread");
    }
    assert_eq!(produced_total, PRODUCERS as u64 * RECORDS_PER_PRODUCER);
    for c in consumers {
        let (seen, expected, overlapped) = c.join().expect("consumer thread");
        assert_eq!(seen, expected, "consumer saw every record exactly once");
        // Each of a producer's ten checkpoints is followed by a poll that
        // finds the records sent since the one before, or comes after a
        // poll that did.
        assert!(overlapped >= 10, "only {overlapped} non-empty polls while producers ran");
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
