//! The batched detect path must be bit-identical to the scalar loop.
//!
//! Each built-in detector implements `Detector::detect_batch` with
//! column-major sweeps of its models; this test runs the same records
//! through a delegating wrapper whose `detect_batch` is the per-record
//! loop over `stage1_p_abnormal`, the observe hook and `detect`, and
//! asserts that every detection and the full collaboration-tracker end
//! state come out bit-for-bit equal.

use cad3::detector::{train_all, Detection, DetectionConfig, Detector, RoutedDetector};
use cad3::{SummaryTracker, VehicleSummary};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_types::{FeatureRecord, Label, RoadType, RsuId, SimTime};

/// Delegates everything except `detect_batch`, which is the scalar
/// reference loop against the same underlying model.
struct ScalarRef<'a, D: Detector + ?Sized>(&'a D);

impl<D: Detector + ?Sized> Detector for ScalarRef<'_, D> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn detect(
        &self,
        rec: &FeatureRecord,
        summary: Option<&VehicleSummary>,
    ) -> Result<Detection, cad3::CoreError> {
        self.0.detect(rec, summary)
    }
    fn stage1_p_abnormal(&self, rec: &FeatureRecord) -> Result<f64, cad3::CoreError> {
        self.0.stage1_p_abnormal(rec)
    }
    fn new_tracker(&self) -> SummaryTracker {
        self.0.new_tracker()
    }
    /// Per record, in record order: stage 1, the observation, then
    /// classification with the summary it returned.
    fn detect_batch(
        &self,
        recs: &[FeatureRecord],
        observe: &mut dyn FnMut(usize, f64) -> Option<VehicleSummary>,
        out: &mut Vec<Option<Detection>>,
    ) {
        for (i, rec) in recs.iter().enumerate() {
            let Ok(p1) = self.stage1_p_abnormal(rec) else {
                out.push(None);
                continue;
            };
            let summary = observe(i, p1);
            out.push(self.detect(rec, summary.as_ref()).ok());
        }
    }
}

/// Runs `det.detect_batch` over `records` in micro-batches against a live
/// tracker, returning the detections and the tracker end state.
fn run(
    det: &dyn Detector,
    records: &[FeatureRecord],
    chunk: usize,
) -> (Vec<Option<Detection>>, SummaryTracker) {
    let mut tracker = det.new_tracker();
    let mut out = Vec::with_capacity(records.len());
    for batch in records.chunks(chunk) {
        det.detect_batch(
            batch,
            &mut |i, p1| tracker.observe(batch[i].vehicle, batch[i].road, p1),
            &mut out,
        );
    }
    (out, tracker)
}

fn assert_equivalent(fast: &dyn Detector, scalar: &dyn Detector, records: &[FeatureRecord]) {
    // An empty slice pushes nothing and observes nothing.
    let mut none = Vec::new();
    fast.detect_batch(&[], &mut |_, _| panic!("empty batch observed a record"), &mut none);
    assert!(none.is_empty());
    // Widths from a single row up, with odd sizes so batches straddle trip
    // boundaries; every width reaches the column-major sweeps.
    for chunk in [1usize, 2, 7, 8, 9, 97, 1024] {
        let (batched, t_batched) = run(fast, records, chunk);
        let (expected, t_expected) = run(scalar, records, chunk);
        assert_eq!(batched.len(), records.len());
        assert_eq!(expected.len(), records.len());
        for (i, (b, e)) in batched.iter().zip(&expected).enumerate() {
            match (b, e) {
                (Some(b), Some(e)) => {
                    assert_eq!(b.label, e.label, "record {i} (chunk {chunk})");
                    assert_eq!(
                        b.p_abnormal.to_bits(),
                        e.p_abnormal.to_bits(),
                        "record {i} (chunk {chunk}): {} vs {}",
                        b.p_abnormal,
                        e.p_abnormal
                    );
                }
                (None, None) => {}
                _ => panic!("record {i} (chunk {chunk}): {b:?} vs {e:?}"),
            }
        }
        // The collaboration state the next batch would see must match too.
        assert_eq!(t_batched.vehicles(), t_expected.vehicles(), "chunk {chunk}");
        for v in t_batched.vehicles() {
            let b = t_batched.export(v, RsuId(0), SimTime::ZERO);
            let e = t_expected.export(v, RsuId(0), SimTime::ZERO);
            match (b, e) {
                (Some(b), Some(e)) => {
                    assert_eq!(b.count, e.count, "vehicle {v:?} (chunk {chunk})");
                    assert_eq!(b.last_class, e.last_class, "vehicle {v:?} (chunk {chunk})");
                    assert_eq!(
                        b.mean_probability.to_bits(),
                        e.mean_probability.to_bits(),
                        "vehicle {v:?} (chunk {chunk})"
                    );
                }
                (None, None) => {}
                (b, e) => panic!("vehicle {v:?} (chunk {chunk}): {b:?} vs {e:?}"),
            }
        }
    }
}

/// A detection as comparable bits.
fn bits(out: &[Option<Detection>]) -> Vec<Option<(Label, u64)>> {
    out.iter().map(|d| d.map(|d| (d.label, d.p_abnormal.to_bits()))).collect()
}

/// Widths a thread's sweep scratch is put through back to back: wide, then
/// narrower than every buffer, odd, empty, wider than ever, and narrow again.
const SCRATCH_WIDTHS: [usize; 6] = [1024, 1, 97, 0, 2048, 3];

/// Runs `det` over consecutive `records` (cycled) at [`SCRATCH_WIDTHS`] on
/// one thread and one tracker, appending every call to an `out` that starts
/// non-empty.
fn run_widths(det: &dyn Detector, records: &[FeatureRecord]) -> Vec<Option<Detection>> {
    let mut tracker = det.new_tracker();
    let mut out = vec![Some(Detection::from_p_abnormal(0.25)), None];
    let mut recs = records.iter().copied().cycle();
    for width in SCRATCH_WIDTHS {
        let batch: Vec<FeatureRecord> = recs.by_ref().take(width).collect();
        det.detect_batch(
            &batch,
            &mut |i, p1| tracker.observe(batch[i].vehicle, batch[i].road, p1),
            &mut out,
        );
    }
    out
}

/// Runs `det` over `outer` with a hook that, every 16th record, runs
/// `det.detect_batch` over `inner` on its own tracker while the outer call
/// is mid-sweep. Returns the outer detections and every inner run's.
fn run_reentrant(
    det: &dyn Detector,
    outer: &[FeatureRecord],
    inner: &[FeatureRecord],
) -> (Vec<Option<Detection>>, Vec<Option<Detection>>) {
    let mut tracker = det.new_tracker();
    let mut inner_tracker = det.new_tracker();
    let (mut out, mut inner_out) = (Vec::new(), Vec::new());
    det.detect_batch(
        outer,
        &mut |i, p1| {
            if i % 16 == 0 {
                det.detect_batch(
                    inner,
                    &mut |j, p| inner_tracker.observe(inner[j].vehicle, inner[j].road, p),
                    &mut inner_out,
                );
            }
            tracker.observe(outer[i].vehicle, outer[i].road, p1)
        },
        &mut out,
    );
    (out, inner_out)
}

/// The thread's reused sweep scratch leaks nothing from one call into the
/// next, whatever the widths, and a re-entrant call neither panics nor
/// disturbs the call it interrupts.
fn assert_scratch_is_clean(fast: &dyn Detector, scalar: &dyn Detector, records: &[FeatureRecord]) {
    let total: usize = SCRATCH_WIDTHS.iter().sum();
    assert!(records.len() * 2 > total, "fixture: the widths cycle the records at most twice");
    let (got, want) = (run_widths(fast, records), run_widths(scalar, records));
    assert_eq!(got.len(), 2 + total);
    assert_eq!(bits(&got), bits(&want), "{}: widths {SCRATCH_WIDTHS:?}", fast.name());

    let (outer, inner) = records.split_at(300);
    let inner = &inner[..40];
    let (got, got_inner) = run_reentrant(fast, outer, inner);
    let (want, want_inner) = run_reentrant(scalar, outer, inner);
    assert_eq!(got_inner.len(), 40 * outer.len().div_ceil(16), "{}: inner runs", fast.name());
    assert_eq!(bits(&got), bits(&want), "{}: outer call", fast.name());
    assert_eq!(bits(&got_inner), bits(&want_inner), "{}: re-entrant calls", fast.name());
}

fn corpus() -> SyntheticDataset {
    SyntheticDataset::generate(&DatasetConfig::small(7))
}

#[test]
fn ad3_batch_matches_scalar() {
    let ds = corpus();
    let cut = ds.features.len() * 8 / 10;
    let det = RoutedDetector::ad3(&ds.features[..cut]).unwrap();
    assert_equivalent(&det, &ScalarRef(&det), &ds.features[cut..]);
    assert_scratch_is_clean(&det, &ScalarRef(&det), &ds.features[cut..]);
}

#[test]
fn cad3_batch_matches_scalar() {
    let ds = corpus();
    let cut = ds.features.len() * 8 / 10;
    let cfg = DetectionConfig::default();
    let det = train_all(&ds.features[..cut], &cfg).unwrap().cad3;
    assert_equivalent(&det, &ScalarRef(&det), &ds.features[cut..]);
    assert_scratch_is_clean(&det, &ScalarRef(&det), &ds.features[cut..]);
}

#[test]
fn centralized_batch_matches_scalar() {
    let ds = corpus();
    let cut = ds.features.len() * 8 / 10;
    let det = RoutedDetector::centralized(&ds.features[..cut]).unwrap();
    assert_equivalent(&det, &ScalarRef(&det), &ds.features[cut..]);
    assert_scratch_is_clean(&det, &ScalarRef(&det), &ds.features[cut..]);
}

#[test]
fn logistic_batch_matches_scalar() {
    let ds = corpus();
    let cut = ds.features.len() * 8 / 10;
    let det = RoutedDetector::logistic(&ds.features[..cut]).unwrap();
    assert_equivalent(&det, &ScalarRef(&det), &ds.features[cut..]);
    assert_scratch_is_clean(&det, &ScalarRef(&det), &ds.features[cut..]);
}

#[test]
fn every_detector_shares_one_threads_scratch_cleanly() {
    // CAD3 and the three single-stage detectors, back to back on this one thread: each
    // call's sweep buffers hold the previous detector's rows and widths.
    let ds = corpus();
    let cut = ds.features.len() * 8 / 10;
    let (train, test) = ds.features.split_at(cut);
    let cfg = DetectionConfig::default();
    let detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(train_all(train, &cfg).unwrap().cad3),
        Box::new(RoutedDetector::ad3(train).unwrap()),
        Box::new(RoutedDetector::logistic(train).unwrap()),
        Box::new(RoutedDetector::centralized(train).unwrap()),
    ];
    for _ in 0..2 {
        for det in &detectors {
            assert_eq!(
                bits(&run_widths(det.as_ref(), test)),
                bits(&run_widths(&ScalarRef(det.as_ref()), test)),
                "{}",
                det.name()
            );
        }
    }
}

#[test]
fn missing_models_stay_none_in_batch() {
    // Train on motorway records only; link records must come back `None`
    // from both paths (scalar: `NoModelForRoadType`), at every position.
    let ds = corpus();
    let motorway_only: Vec<FeatureRecord> =
        ds.features.iter().filter(|f| f.road_type == RoadType::Motorway).copied().collect();
    let det = RoutedDetector::ad3(&motorway_only).unwrap();
    assert_equivalent(&det, &ScalarRef(&det), &ds.features);
    let (out, _) = run(&det, &ds.features, 64);
    let n_links = ds.features.iter().filter(|f| f.road_type != RoadType::Motorway).count();
    assert!(n_links > 0, "corpus has link records");
    assert_eq!(out.iter().filter(|d| d.is_none()).count(), n_links);
}
