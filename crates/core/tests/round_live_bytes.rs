//! Live heap bytes stay flat across rounds of fresh RSUs.
//!
//! `bench_e2e`'s `handover_2rsu` builds two fresh `RsuNode`s every round,
//! each on its own six-worker executor, drives them, hands summaries from
//! the first to the second and drops them. Its per-round resident set
//! climbs for as long as a run lasts. This binary replays that shape for
//! [`ROUNDS`] rounds under a `GlobalAlloc` that counts the bytes live on
//! every thread, and holds the live bytes after each round to those after
//! round 2 plus [`MARGIN`]: whatever the rounds leave behind, no structure
//! grows with their number. Round 1 may keep more than round 0 did before
//! it (lazily built process-wide state); round 2 is the baseline.
//!
//! It runs one test, so no other test's allocations land in its count.
//! Each round starts 12 worker threads and joins them before the next.

use bytes::Bytes;
use cad3::detector::{train_all, DetectionConfig, Detector};
use cad3::{ProcessingCostModel, RsuNode};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_engine::Executor;
use cad3_stream::TOPIC_IN_DATA;
use cad3_types::{GeoPoint, RsuId, SimDuration, SimTime, VehicleStatus, WireEncode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting the bytes live across all threads.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only an atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            // ordering: a tally read after the threads that moved it are joined.
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            // ordering: as in `alloc`.
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // ordering: as in `alloc`.
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        // ordering: as in `alloc`.
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Rounds driven; the assertion covers rounds 3 onwards.
const ROUNDS: usize = 24;
/// Micro-batches per RSU per round.
const STEPS: u64 = 40;
/// Status packets per RSU per micro-batch.
const PER_STEP: usize = 64;
/// Live bytes a round may keep beyond round 2's: well under one round's
/// records (2 × 40 × 64 packets of 200 B is 1 MB) or either broker.
const MARGIN: usize = 64 * 1024;

/// One round's `(key, value)` status packets, encoded once for every round.
fn packets() -> (Arc<dyn Detector>, Vec<(Bytes, Bytes)>) {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(7));
    let models = train_all(&ds.features, &DetectionConfig::default()).expect("trainable corpus");
    let packets = ds
        .features
        .iter()
        .take(2 * STEPS as usize * PER_STEP)
        .enumerate()
        .map(|(i, rec)| {
            let sent = SimTime::ZERO + SimDuration::from_millis(i as u64);
            let status = VehicleStatus::from_feature(rec, GeoPoint::default(), sent, i as u32);
            (Bytes::copy_from_slice(&rec.vehicle.raw().to_be_bytes()), status.encode_to_bytes())
        })
        .collect();
    (Arc::new(models.cad3), packets)
}

/// Two fresh RSUs on six workers each: batches, warnings, one export from
/// the first received by the second, then everything dropped.
fn round(detector: &Arc<dyn Detector>, packets: &[(Bytes, Bytes)]) -> usize {
    let mut rsus = [0, 1].map(|i| {
        let name = ["rsu-motorway", "rsu-motorway-link"][i];
        let executor = Executor::new(6);
        let detector = Arc::clone(detector);
        RsuNode::with_executor(
            RsuId(i as u32),
            name,
            detector,
            ProcessingCostModel::default(),
            executor,
        )
    });
    let mut warnings = 0;
    let mut batches = packets.chunks(PER_STEP);
    for step in 0..STEPS {
        let now = SimTime::ZERO + SimDuration::from_millis(50).mul(step + 1);
        for rsu in &mut rsus {
            for (key, value) in batches.next().unwrap_or_default() {
                let broker = rsu.broker();
                let (key, value, at) = (Some(key.clone()), value.clone(), now.as_nanos());
                broker.produce_traced(TOPIC_IN_DATA, None, key, value, at, None).expect("IN-DATA");
            }
            let batch = rsu.run_batch(now).expect("batch runs");
            for warning in &batch.warnings {
                rsu.publish_warning_traced(warning, None).expect("OUT-DATA");
            }
            warnings += batch.warnings.len();
        }
        if step == STEPS / 2 {
            let [from, to] = &rsus;
            for summary in from.export_summaries(now) {
                to.receive_summary_at(&summary, now).expect("CO-DATA");
            }
        }
    }
    warnings
}

#[test]
fn live_bytes_stay_flat_across_rounds() {
    let (detector, packets) = packets();
    let mut live = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        assert!(round(&detector, &packets) > 0, "a round publishes warnings");
        // ordering: the round joined every thread that moved the tally.
        live.push(LIVE.load(Ordering::Relaxed));
    }
    let baseline = live[1];
    for (n, &bytes) in live.iter().enumerate().skip(2) {
        assert!(
            bytes <= baseline + MARGIN,
            "round {}: {bytes} live bytes, round 2 left {baseline}; all rounds: {live:?}",
            n + 1,
        );
    }
}
