//! The stream layer's share of the cad3-obs overhead policy: with obs on, a
//! record that is not head-sampled costs no wall-clock read.
//!
//! Single `#[test]` in a binary of its own on purpose: the obs gate, the
//! sample rate and the clock read count are process-global, and this binary
//! owns them. Debug builds only, because `clock::reads` only counts there.
#![cfg(debug_assertions)]

use bytes::Bytes;
use cad3_obs::{clock, registry, TraceContext};
use cad3_stream::{Broker, Consumer, OffsetReset};
use std::sync::Arc;

#[test]
fn only_traced_appends_read_the_clock() {
    let broker = Arc::new(Broker::new("rsu"));
    broker.create_topic("IN-DATA", 3).unwrap();
    let produce = |i: u64, trace: Option<TraceContext>| {
        let key = Bytes::copy_from_slice(&i.to_be_bytes());
        broker.produce_traced("IN-DATA", None, Some(key), Bytes::from_static(b"x"), i, trace)
    };
    cad3_obs::set_enabled(true);
    cad3_obs::trace::set_sample_rate(0.0);

    let before = registry().snapshot();
    let reads = clock::reads();
    for i in 0..10_000 {
        produce(i, cad3_obs::trace::mint()).unwrap();
    }
    assert_eq!(clock::reads() - reads, 0, "an unsampled append reads no clock");
    let untraced = registry().snapshot();
    assert_eq!(
        untraced.counter("stream.broker.produce") - before.counter("stream.broker.produce"),
        10_000,
        "the produce counter stays exact per record"
    );
    let timed = |snap: &cad3_obs::MetricsSnapshot| {
        snap.histogram("stream.broker.produce_ns").map_or(0, |h| h.count)
    };
    assert_eq!(timed(&untraced), timed(&before));

    let reads = clock::reads();
    for i in 0..100 {
        produce(10_000 + i, Some(TraceContext::from_parts(1 + i, 7, 1))).unwrap();
    }
    assert_eq!(clock::reads() - reads, 200, "a traced append reads the clock twice");
    assert_eq!(timed(&registry().snapshot()) - timed(&untraced), 100);

    // The headers ride the log and come back out of the consumer unchanged.
    let mut consumer = Consumer::new(Arc::clone(&broker), "budget", OffsetReset::Earliest);
    consumer.subscribe(&["IN-DATA"]).unwrap();
    let polled = consumer.poll(usize::MAX).unwrap();
    cad3_obs::set_enabled(false);
    assert_eq!(polled.len(), 10_100);
    let mut traced: Vec<TraceContext> = polled.iter().filter_map(|r| r.trace).collect();
    traced.sort_unstable_by_key(TraceContext::trace_id);
    let expected: Vec<TraceContext> =
        (0..100).map(|i| TraceContext::from_parts(1 + i, 7, 1)).collect();
    assert_eq!(traced, expected);
}
