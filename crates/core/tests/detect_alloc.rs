//! A warm `detect_batch` allocates nothing, and a scalar `detect` nothing
//! at all.
//!
//! Every built-in detector takes its sweep buffers from a per-thread scratch
//! that keeps its capacity between calls. This binary counts the heap
//! allocations of the calling thread and holds each detector to zero on a
//! call no wider than one it has already run, with the collaboration hook
//! live: the tracker knows every vehicle already, on the road it is on, and
//! each carries a `CO-DATA` summary, so CAD3's stage-2 tree sweep runs too.
//! The scalar path runs one row through the same models, with no scratch.
//! The summary tracker's handover keeps running totals, so a vehicle it
//! already knows changes road without allocating.

use cad3::detector::{train_all, DetectionConfig, Detector, RoutedDetector};
use cad3::{SummaryTracker, VehicleSummary};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_types::{FeatureRecord, RoadId, VehicleId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation and reallocation made
/// by the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `recs` re-keyed so every vehicle drives one road: vehicle *v* is the
/// road's id, and a tracker that has seen each vehicle once observes every
/// later record without a handover (no history to grow).
fn one_road_per_vehicle(recs: &[FeatureRecord]) -> Vec<FeatureRecord> {
    recs.iter().map(|r| FeatureRecord { vehicle: VehicleId(r.road.0), ..*r }).collect()
}

/// A tracker holding every vehicle of `recs` on its road, each with a
/// `CO-DATA` summary of earlier roads.
fn warm_tracker(det: &dyn Detector, recs: &[FeatureRecord]) -> SummaryTracker {
    let mut tracker = det.new_tracker();
    for rec in recs {
        let summary = VehicleSummary { mean_probability: 0.6, count: 4, last_class: 0 };
        tracker.seed(rec.vehicle, summary);
        tracker.observe(rec.vehicle, rec.road, 0.5);
    }
    tracker
}

/// Warms `det` on `warm` and holds a call over each of `calls` (none wider
/// than `warm`) to zero allocations.
fn assert_warm_call_allocates_nothing(
    det: &dyn Detector,
    warm: &[FeatureRecord],
    calls: &[&[FeatureRecord]],
) {
    let mut tracker = warm_tracker(det, warm);
    let mut out = Vec::with_capacity(warm.len());
    let mut observe = |recs: &[FeatureRecord], i: usize, p1: f64| -> Option<VehicleSummary> {
        let rec: &FeatureRecord = recs.get(i)?;
        tracker.observe(rec.vehicle, rec.road, p1)
    };
    det.detect_batch(warm, &mut |i, p1| observe(warm, i, p1), &mut out);
    assert_eq!(out.len(), warm.len());
    for recs in calls {
        out.clear();
        let mut summaries = 0usize;
        let n = allocations_in(|| {
            det.detect_batch(
                recs,
                &mut |i, p1| {
                    let summary = observe(recs, i, p1);
                    summaries += usize::from(summary.is_some());
                    summary
                },
                &mut out,
            );
        });
        assert_eq!(out.len(), recs.len());
        assert!(out.iter().all(Option::is_some), "{}: every record detected", det.name());
        assert_eq!(summaries, recs.len(), "{}: the hook fused every record", det.name());
        assert_eq!(n, 0, "{}: a warm call of {} records allocated", det.name(), recs.len());
    }
}

#[test]
fn warm_detect_batch_allocates_nothing() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(7));
    let cut = ds.features.len() * 8 / 10;
    let (train, test) = ds.features.split_at(cut);
    let recs = one_road_per_vehicle(&test[..1024]);
    let calls: [&[FeatureRecord]; 4] = [&recs, &recs[..1], &recs[100..197], &recs[..0]];
    assert!(recs.iter().any(|r| r.road != recs[0].road), "fixture: many roads");

    let cfg = DetectionConfig::default();
    let detectors: [Box<dyn Detector>; 4] = [
        Box::new(train_all(train, &cfg).unwrap().cad3),
        Box::new(RoutedDetector::ad3(train).unwrap()),
        Box::new(RoutedDetector::logistic(train).unwrap()),
        Box::new(RoutedDetector::centralized(train).unwrap()),
    ];
    for det in &detectors {
        assert_warm_call_allocates_nothing(det.as_ref(), &recs, &calls);
    }
}

#[test]
fn scalar_detect_allocates_nothing() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(7));
    let cut = ds.features.len() * 8 / 10;
    let (train, test) = ds.features.split_at(cut);
    let cfg = DetectionConfig::default();
    let detectors: [Box<dyn Detector>; 4] = [
        Box::new(train_all(train, &cfg).unwrap().cad3),
        Box::new(RoutedDetector::ad3(train).unwrap()),
        Box::new(RoutedDetector::logistic(train).unwrap()),
        Box::new(RoutedDetector::centralized(train).unwrap()),
    ];
    let summary = VehicleSummary { mean_probability: 0.6, count: 4, last_class: 0 };
    for det in &detectors {
        let mut detected = 0usize;
        let n = allocations_in(|| {
            for rec in &test[..512] {
                let p1 = det.stage1_p_abnormal(rec);
                let alone = det.detect(rec, None);
                let fused = det.detect(rec, Some(&summary));
                detected += usize::from(p1.is_ok() && alone.is_ok() && fused.is_ok());
            }
        });
        assert_eq!(detected, 512, "{}: every record detected", det.name());
        assert_eq!(n, 0, "{}: the scalar path allocated", det.name());
    }
}

#[test]
fn tracker_handovers_allocate_nothing() {
    // Unbounded history: a handover adds the finished road to the vehicle's
    // running totals and keeps no per-road list, so it allocates nothing
    // however many roads the vehicle has driven.
    let mut tracker = SummaryTracker::new();
    let v = VehicleId(7);
    tracker.observe(v, RoadId(0), 0.5);
    tracker.observe(v, RoadId(1), 0.5);
    let mut summaries = 0u32;
    let n = allocations_in(|| {
        for road in 2..10_002u64 {
            let p = if road % 3 == 0 { 0.9 } else { 0.2 };
            summaries += u32::from(tracker.observe(v, RoadId(road), p).is_some());
        }
    });
    assert_eq!(summaries, 10_000, "every record after the first road has a summary");
    assert_eq!(
        tracker.export(v, cad3_types::RsuId(0), cad3_types::SimTime::ZERO).unwrap().count,
        10_002
    );
    assert_eq!(n, 0, "10 000 handovers of a known vehicle allocated");
}
