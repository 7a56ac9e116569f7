//! Pins the order of everything `RsuNode::run_batch` hands back.
//!
//! The shard workers each return vectors that the batch thread concatenates,
//! so the order of `warnings`, `warning_traces` and `warning_arrivals` (each
//! warning's record's produce stamp) is a property of that merge: shard by
//! shard (keyed vehicle id modulo the worker count), arrival order within a
//! shard.
//! The reference here is the straight-line loop over the same records —
//! `stage1_p_abnormal` → `SummaryTracker::observe` → `detect` — in exactly
//! that order, on one worker and on six — and, on six, for two sparse batches
//! (records in two of the six shards; no records at all), where only the
//! buckets that hold records are dispatched.
//!
//! Every traced record keeps its `rsu.queue` span, on the first of its two
//! reserved span ids, whether it decodes or not; a processed one adds its
//! `rsu.detect` span on the second.
//!
//! One `#[test]`: traced records reserve span ids from a process-global
//! counter and write to the process-global sink.

use bytes::Bytes;
use cad3::detector::{train_all, DetectionConfig, Detector};
use cad3::{ProcessingCostModel, RsuNode, SummaryTracker};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_engine::Executor;
use cad3_obs::trace::{self, TraceEvent};
use cad3_obs::TraceContext;
use cad3_stream::{Consumer, FetchedRecord, OffsetReset, TOPIC_IN_DATA};
use cad3_types::{
    FeatureRecord, GeoPoint, RoadType, RsuId, SimTime, VehicleId, VehicleStatus, WarningKind,
    WarningMessage, WireDecode, WireEncode,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The road type the detector is trained without.
const UNTRAINED: RoadType = RoadType::MotorwayLink;
const VEHICLES: u64 = 24;
const NOW: SimTime = SimTime::from_millis(500);

/// One record as produced to `IN-DATA`.
struct Input {
    key: Option<Bytes>,
    value: Bytes,
    arrived: SimTime,
    trace: Option<TraceContext>,
}

fn key_of(vehicle: u64) -> Option<Bytes> {
    Some(Bytes::copy_from_slice(&vehicle.to_be_bytes()))
}

fn status(vehicle: u64, rec: &FeatureRecord, sent_ms: u64, seq: u32) -> VehicleStatus {
    VehicleStatus::from_feature(
        &FeatureRecord { vehicle: VehicleId(vehicle), ..*rec },
        GeoPoint::new(114.06, 22.54),
        SimTime::from_millis(sent_ms),
        seq,
    )
}

/// Three well-formed statuses from each of [`VEHICLES`] vehicles, with one of
/// every kind of record `run_batch` drops or treats specially mixed in.
fn inputs(det: &dyn Detector, trained: &[FeatureRecord], untrained: &FeatureRecord) -> Vec<Input> {
    let mut out = Vec::new();
    let mut traced = [false; 2];
    for round in 0..3u32 {
        for v in 1..=VEHICLES {
            // Neighbouring vehicles replay neighbouring stretches of the
            // corpus: mostly the same roads, at different speeds.
            let rec = &trained[(v as usize * 3 + round as usize * 40) % trained.len()];
            let st = status(v, rec, 100 + u64::from(round), round + 1);
            // Head-sample the first abnormal and the first normal opener: on
            // a vehicle's first record the verdict is `detect(.., None)`.
            let verdict = det.detect(&st.to_feature(), None).expect("trained road type");
            let slot = usize::from(verdict.label.is_abnormal());
            let trace = (round == 0 && !std::mem::replace(&mut traced[slot], true))
                .then(|| TraceContext::from_parts(9000 + v, 1, 1));
            out.push(Input {
                key: key_of(v),
                value: st.encode_to_bytes(),
                arrived: SimTime::from_millis(200 + v + u64::from(round) * 50),
                trace,
            });
        }
    }
    assert_eq!(traced, [true; 2], "fixture: one normal and one abnormal opener to trace");
    let good = status(3, &trained[0], 150, 9);
    let odd = [
        // A truncated payload, traced.
        Input {
            key: key_of(5),
            value: good.encode_to_bytes().slice(..120),
            arrived: SimTime::from_millis(210),
            trace: Some(TraceContext::from_parts(9101, 1, 1)),
        },
        // A payload keyed by another vehicle, traced.
        Input {
            key: key_of(4),
            value: good.encode_to_bytes(),
            arrived: SimTime::from_millis(220),
            trace: Some(TraceContext::from_parts(9102, 1, 1)),
        },
        // A keyless record.
        Input {
            key: None,
            value: good.encode_to_bytes(),
            arrived: SimTime::from_millis(230),
            trace: None,
        },
        // A road type with no model.
        Input {
            key: key_of(7),
            value: status(7, untrained, 150, 9).encode_to_bytes(),
            arrived: SimTime::from_millis(240),
            trace: None,
        },
    ];
    // Spread through the batch rather than appended to it.
    for (i, input) in odd.into_iter().enumerate() {
        out.insert(10 + i * 15, input);
    }
    out
}

/// What `run_batch` must return for `batch`, by the straight-line loop.
struct Expected {
    warnings: Vec<WarningMessage>,
    /// Trace id behind each warning, aligned with `warnings`.
    warning_trace_ids: Vec<Option<u64>>,
    /// Produce stamp of each warning's record, aligned with `warnings`.
    warning_arrivals: Vec<SimTime>,
    processed: u64,
    /// Trace ids of the traced records that were processed.
    detected_traces: BTreeSet<u64>,
}

fn keyed_vehicle(rec: &FetchedRecord) -> u64 {
    rec.key.as_deref().and_then(|k| <[u8; 8]>::try_from(k).ok()).map_or(0, u64::from_be_bytes)
}

fn reference(
    det: &dyn Detector,
    batch: &[FetchedRecord],
    shards: u64,
    detected_at: SimTime,
) -> Expected {
    let mut tracker = SummaryTracker::new();
    let mut exp = Expected {
        warnings: Vec::new(),
        warning_trace_ids: Vec::new(),
        warning_arrivals: Vec::new(),
        processed: 0,
        detected_traces: BTreeSet::new(),
    };
    for shard in 0..shards {
        for rec in batch.iter().filter(|r| keyed_vehicle(r) % shards == shard) {
            let Ok(st) = VehicleStatus::decode(&mut rec.value.clone()) else { continue };
            if st.vehicle.raw() != keyed_vehicle(rec) {
                continue;
            }
            let feat = st.to_feature();
            let Ok(p1) = det.stage1_p_abnormal(&feat) else { continue };
            let summary = tracker.observe(feat.vehicle, feat.road, p1);
            let Ok(detection) = det.detect(&feat, summary.as_ref()) else { continue };
            exp.processed += 1;
            exp.detected_traces.extend(rec.trace.map(|ctx| ctx.trace_id()));
            if detection.label.is_abnormal() {
                exp.warnings.push(WarningMessage {
                    vehicle: st.vehicle,
                    road: st.road,
                    kind: WarningKind::classify(st.speed_kmh, st.road_speed_kmh, st.accel_mps2),
                    probability: detection.p_abnormal,
                    source_sent_at: st.sent_at,
                    detected_at,
                    source_seq: st.seq,
                });
                exp.warning_trace_ids.push(rec.trace.map(|ctx| ctx.trace_id()));
                exp.warning_arrivals.push(SimTime::from_nanos(rec.timestamp));
            }
        }
    }
    exp
}

/// Runs `inputs` as one batch on a fresh RSU with `workers` workers and holds
/// everything it hands back against the reference. Returns the reference.
fn run_against_reference(
    det: &Arc<dyn Detector>,
    workers: usize,
    case: &str,
    inputs: &[Input],
) -> Expected {
    let mut rsu = RsuNode::with_executor(
        RsuId(1),
        format!("order-{case}"),
        Arc::clone(det),
        ProcessingCostModel::default(),
        Executor::new(workers),
    );
    let broker = rsu.broker();
    for input in inputs {
        broker
            .produce_traced(
                TOPIC_IN_DATA,
                None,
                input.key.clone(),
                input.value.clone(),
                input.arrived.as_nanos(),
                input.trace,
            )
            .unwrap();
    }
    // A second group reads the batch in the order `run_batch` polls it.
    let mut reader = Consumer::new(Arc::clone(&broker), "reference", OffsetReset::Earliest);
    reader.subscribe(&[TOPIC_IN_DATA]).unwrap();
    let batch = reader.poll(usize::MAX).unwrap();
    assert_eq!(batch.len(), inputs.len());

    let _ = trace::sink().drain();
    let result = rsu.run_batch(NOW).unwrap();
    let events = trace::sink().drain();
    let exp = reference(&**det, &batch, workers as u64, NOW + result.processing);

    assert_eq!(result.records, inputs.len(), "{case}");
    assert_eq!(result.warnings, exp.warnings, "{case}: warnings and their order");
    let trace_ids: Vec<Option<u64>> =
        result.warning_traces.iter().map(|t| t.map(|ctx| ctx.trace_id())).collect();
    assert_eq!(trace_ids, exp.warning_trace_ids, "{case}: trace alignment");
    assert_eq!(result.warning_arrivals.len(), result.warnings.len(), "{case}");
    assert_eq!(result.warning_arrivals, exp.warning_arrivals, "{case}: arrival alignment");
    assert_eq!(rsu.records_processed(), exp.processed, "{case}");
    assert_eq!(rsu.warnings_produced(), exp.warnings.len() as u64, "{case}");
    assert_spans(case, &batch, &events, &exp, NOW + result.processing);
    exp
}

/// The one event named `name` in `trace_id`'s trace.
fn span_of<'a>(events: &'a [TraceEvent], trace_id: u64, name: &str) -> Option<&'a TraceEvent> {
    let mut found = events.iter().filter(|e| e.trace_id == trace_id && e.name == name);
    let first = found.next();
    assert!(found.next().is_none(), "trace {trace_id}: one {name} span");
    first
}

/// Every traced record of `batch` has its `rsu.queue` span (arrival to
/// batch start, under the record's context), the queue spans' ids step by
/// two in poll order, and exactly the processed ones have an `rsu.detect`
/// span on the next id, under the queue span.
fn assert_spans(
    case: &str,
    batch: &[FetchedRecord],
    events: &[TraceEvent],
    exp: &Expected,
    detected_at: SimTime,
) {
    let mut queue_ids = Vec::new();
    for (rec, ctx) in batch.iter().filter_map(|rec| Some((rec, rec.trace?))) {
        let id = ctx.trace_id();
        let queue = span_of(events, id, "rsu.queue")
            .unwrap_or_else(|| panic!("{case}: trace {id} has its rsu.queue span"));
        assert_eq!(queue.parent, ctx.parent_span(), "{case}: trace {id}");
        assert_eq!((queue.start_ns, queue.end_ns), (rec.timestamp, NOW.as_nanos()), "{case}");
        queue_ids.push(queue.span);
        let detect = span_of(events, id, "rsu.detect");
        assert_eq!(detect.is_some(), exp.detected_traces.contains(&id), "{case}: trace {id}");
        if let Some(detect) = detect {
            assert_eq!((detect.span, detect.parent), (queue.span + 1, queue.span), "{case}");
            assert_eq!((detect.start_ns, detect.end_ns), (NOW.as_nanos(), detected_at.as_nanos()));
        }
    }
    assert!(queue_ids.windows(2).all(|w| w[1] == w[0] + 2), "{case}: ids {queue_ids:?}");
    let traced = queue_ids.len() + exp.detected_traces.len();
    assert_eq!(events.len(), traced, "{case}: no other spans");
}

#[test]
fn merged_shard_outputs_keep_shard_then_arrival_order() {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(53));
    let trained: Vec<FeatureRecord> =
        ds.features.iter().filter(|f| f.road_type != UNTRAINED).copied().collect();
    let untrained = ds.features_of_type(UNTRAINED)[0];
    let models = train_all(&trained, &DetectionConfig::default()).unwrap();
    let det: Arc<dyn Detector> = Arc::new(models.cad3);
    assert!(det.stage1_p_abnormal(&untrained).is_err(), "fixture: a road type with no model");
    let inputs = inputs(&*det, &trained, &untrained);

    for workers in [1usize, 6] {
        let exp = run_against_reference(&det, workers, &format!("{workers}-workers"), &inputs);
        // The fixture reaches every branch it claims to.
        assert_eq!(exp.processed, 3 * VEHICLES, "the four odd records are not processed");
        assert!(!exp.warnings.is_empty() && exp.warnings.len() < exp.processed as usize);
        assert!(exp.warning_trace_ids.iter().any(Option::is_some), "a traced record warned");
        assert!(exp.warning_trace_ids.iter().any(Option::is_none));
        assert_eq!(exp.detected_traces.len(), 2, "the two traced odd records are not processed");
    }

    // Sparse batches on six workers, where only the buckets that hold records
    // are dispatched: three vehicles in two of the six shards (2 and 8 share
    // shard 2, 5 is alone in shard 5), and a poll that returned nothing.
    let sparse: Vec<Input> = [2u64, 5, 8, 2]
        .into_iter()
        .zip(0u32..)
        .map(|(v, i)| Input {
            key: key_of(v),
            value: status(v, &trained[i as usize * 7], 100, i + 1).encode_to_bytes(),
            arrived: SimTime::from_millis(200 + u64::from(i)),
            trace: None,
        })
        .collect();
    let exp = run_against_reference(&det, 6, "sparse", &sparse);
    assert_eq!(exp.processed, 4, "fixture: every sparse record is processed");
    let exp = run_against_reference(&det, 6, "empty", &[]);
    assert_eq!(exp.processed, 0);
}
