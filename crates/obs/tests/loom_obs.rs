//! Loom model checks of the metric primitives' sharded-cell merge and the
//! flight recorder's seqlock.
//!
//! Built and run only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p cad3-obs --test loom_obs
//! ```
//!
//! The metrics module's ordering policy is that every cell is an
//! independent relaxed statistic: a snapshot taken mid-write may lag, but
//! once writers are quiescent the merge is *exact*. These models hold that
//! claim across perturbed schedules — concurrent writers (and a racing
//! reader) never lose an observation, and the post-join merge conserves
//! count, sum and max. The recorder's model holds its seqlock to the
//! promise in its module docs: a dump racing a write skips the slot, it
//! never returns an event mixing two writes.
#![cfg(loom)]

use cad3_obs::{registry, Counter, EventKind, FlightRecorder, Histogram, SpanEvent};
use loom::sync::Arc;
use loom::thread;

/// Two writers and a racing reader: the concurrent snapshot is a plausible
/// partial view, and the quiescent merge is exact.
#[test]
fn histogram_sharded_merge_conserves_observations() {
    const PER_THREAD: [&[u64]; 2] = [&[0, 3, 900], &[1, 4, 1000]];
    loom::model(|| {
        let hist = Arc::new(Histogram::new());
        let writers: Vec<_> = PER_THREAD
            .iter()
            .map(|values| {
                let hist = Arc::clone(&hist);
                thread::spawn(move || {
                    for &v in *values {
                        hist.observe(v);
                    }
                })
            })
            .collect();
        // A racing reader: mid-flight merges may lag the writers but must
        // stay internally consistent (count always equals the bucket total
        // by construction) and within the final bounds.
        let racer = {
            let hist = Arc::clone(&hist);
            thread::spawn(move || {
                let s = hist.snapshot();
                assert!(s.count <= 6, "phantom observations: {}", s.count);
                assert!(s.max <= 1000, "max exceeds any observed value: {}", s.max);
                assert_eq!(s.count, s.buckets.iter().sum::<u64>());
            })
        };
        for w in writers {
            w.join().expect("writer thread");
        }
        racer.join().expect("reader thread");

        let s = hist.snapshot();
        assert_eq!(s.count, 6, "quiescent merge must conserve the count");
        assert_eq!(s.sum, 1908, "quiescent merge must conserve the sum");
        assert_eq!(s.max, 1000, "CAS-loop max must survive contention");
        assert_eq!(s.buckets[0], 1, "value 0");
        assert_eq!(s.buckets[1], 1, "value 1");
        assert_eq!(s.buckets[2], 1, "value 3");
        assert_eq!(s.buckets[3], 1, "value 4");
        assert_eq!(s.buckets[10], 2, "900 and 1000 both have 10 significant bits");
    });
}

/// The flight recorder's seqlock: one writer records two events into a
/// one-slot ring, every field of the first set to 1 and of the second to 2
/// (its ticket makes `seq` follow suit). A racing dump sees nothing or
/// exactly one complete event — never a mix of the two writes.
#[test]
fn recorder_dump_is_torn_free() {
    const NAMES: [&str; 2] = ["test.loom.recorder.1", "test.loom.recorder.2"];
    fn event(v: u64) -> SpanEvent {
        let (kind, name) =
            if v == 1 { (EventKind::Enter, NAMES[0]) } else { (EventKind::Exit, NAMES[1]) };
        SpanEvent { seq: v, time_ns: v, kind, name, span: v, parent: v, value: v }
    }
    loom::model(|| {
        let ids = NAMES.map(|n| registry().intern_name(n));
        let rec = Arc::new(FlightRecorder::with_capacity(1));
        let writer = {
            let rec = Arc::clone(&rec);
            // Both records happen on this one thread, racing only the dump.
            thread::spawn(move || {
                rec.record(EventKind::Enter, ids[0], 1, 1, 1, 1);
                rec.record(EventKind::Exit, ids[1], 2, 2, 2, 2);
            })
        };
        let reader = {
            let rec = Arc::clone(&rec);
            thread::spawn(move || match rec.dump().as_slice() {
                [] => {}
                [e] => assert!(*e == event(1) || *e == event(2), "torn event: {e:?}"),
                more => panic!("one slot dumped {} events", more.len()),
            })
        };
        writer.join().expect("writer thread");
        reader.join().expect("reader thread");
        // Quiescent: the second event has overwritten the first, whole.
        assert_eq!(rec.dump(), vec![event(2)]);
    });
}

/// Counter increments from concurrent threads all land in the merge.
#[test]
fn counter_sharded_merge_is_exact_after_join() {
    loom::model(|| {
        let counter = Arc::new(Counter::new());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || {
                    counter.inc();
                    counter.add(2);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }
        assert_eq!(counter.value(), 6, "no increment may be lost");
    });
}
