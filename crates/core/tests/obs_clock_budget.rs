//! The RSU loop's share of the cad3-obs overhead policy: with obs on and no
//! record head-sampled, a step's wall-clock reads come from per-batch spans
//! and per-fetch timing only, so they do not grow with the batch. Beside it,
//! the one lag signal the obs-on loop publishes: `rsu.lag.<rsu>`.
//!
//! The obs gate, the sample rate and the clock read count are
//! process-global and this binary owns them; each test takes `GATE` so
//! none flips them, or reads the clock, under another. Debug builds only,
//! because `clock::reads` only counts there.
#![cfg(debug_assertions)]

use bytes::Bytes;
use cad3::detector::{train_all, DetectionConfig, Detector};
use cad3::{ProcessingCostModel, RsuNode, VehicleAgent};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_engine::Executor;
use cad3_obs::clock;
use cad3_stream::{Consumer, OffsetReset, TOPIC_IN_DATA, TOPIC_OUT_DATA};
use cad3_types::{FeatureRecord, RsuId, SimTime, VehicleId, WireEncode};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const VEHICLES: u64 = 8;

static GATE: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn trained_detector() -> (Arc<dyn Detector>, SyntheticDataset) {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(57));
    let models = train_all(&ds.features, &DetectionConfig::default()).expect("trainable corpus");
    (Arc::new(models.cad3), ds)
}

/// Clock reads and warnings of one ingest → `run_batch` → publish → fleet
/// poll step over `per_vehicle` records from each of the eight vehicles,
/// after one identical warm-up step (call-site handles register once).
fn step(
    detector: &Arc<dyn Detector>,
    rows: &[FeatureRecord],
    workers: usize,
    per_vehicle: u64,
) -> (u64, usize) {
    let mut rsu = RsuNode::with_executor(
        RsuId(1),
        "budget",
        Arc::clone(detector),
        ProcessingCostModel::default(),
        Executor::new(workers),
    );
    let broker = rsu.broker();
    let mut fleet = Consumer::new(Arc::clone(&broker), "fleet", OffsetReset::Earliest);
    fleet.subscribe(&[TOPIC_OUT_DATA]).expect("RsuNode creates OUT-DATA");
    let mut agents: Vec<VehicleAgent> =
        (1..=VEHICLES).map(|v| VehicleAgent::new(VehicleId(v), rows.to_vec())).collect();

    let mut measured = (0, 0);
    for round in 0..2u64 {
        let reads = clock::reads();
        for i in 0..per_vehicle {
            let sent = SimTime::from_millis(round * 1_000 + i);
            for agent in &mut agents {
                let status = agent.next_status(sent);
                let key = status.vehicle.raw().to_be_bytes();
                broker
                    .produce_traced(
                        TOPIC_IN_DATA,
                        None,
                        Some(Bytes::copy_from_slice(&key)),
                        status.encode_to_bytes(),
                        sent.as_nanos() + 1,
                        cad3_obs::trace::mint(),
                    )
                    .expect("IN-DATA exists");
            }
        }
        let result = rsu.run_batch(SimTime::from_millis(round * 1_000 + 500)).expect("batch runs");
        assert_eq!(result.records as u64, VEHICLES * per_vehicle);
        for (warning, trace) in result.warnings.iter().zip(&result.warning_traces) {
            rsu.publish_warning_traced(warning, *trace).expect("OUT-DATA exists");
        }
        let delivered = fleet.poll(usize::MAX).expect("fleet polls").len();
        assert_eq!(delivered, result.warnings.len());
        measured = (clock::reads() - reads, delivered);
    }
    measured
}

#[test]
fn step_clock_reads_do_not_grow_with_the_batch() {
    let _serial = serial();
    let (detector, ds) = trained_detector();
    let rows = &ds.features[..400];
    cad3_obs::set_enabled(true);
    cad3_obs::trace::set_sample_rate(0.0);

    for workers in [1, cad3_engine::PAPER_WORKERS] {
        let (small_reads, _) = step(&detector, rows, workers, 1);
        let (large_reads, warnings) = step(&detector, rows, workers, 16);
        assert!(small_reads > 0, "obs is on: the per-batch spans do read the clock");
        assert!(warnings > 0, "the 128-record step must exercise the publish path");
        assert_eq!(
            small_reads, large_reads,
            "{workers} worker(s): an 8-record and a 128-record step read the clock equally often"
        );
    }
    cad3_obs::set_enabled(false);
}

/// Two RSUs publish their own backlogs under their own names, each gauge
/// drains to 0 on a batch with nothing new, and no per-consumer lag family
/// exists beside them.
#[test]
fn rsu_lag_is_each_rsus_own_backlog() {
    let _serial = serial();
    let (detector, ds) = trained_detector();
    let mut rsus = [("lag-a", 7u64), ("lag-b", 3)].map(|(name, records)| {
        let rsu = RsuNode::with_executor(
            RsuId(1),
            name,
            Arc::clone(&detector),
            ProcessingCostModel::default(),
            Executor::new(1),
        );
        (rsu, records)
    });
    cad3_obs::set_enabled(true);
    for (rsu, records) in &mut rsus {
        let mut agent = VehicleAgent::new(VehicleId(1), ds.features[..400].to_vec());
        for i in 0..*records {
            let status = agent.next_status(SimTime::from_millis(i));
            let key = status.vehicle.raw().to_be_bytes();
            rsu.broker()
                .produce_traced(
                    TOPIC_IN_DATA,
                    None,
                    Some(Bytes::copy_from_slice(&key)),
                    status.encode_to_bytes(),
                    SimTime::from_millis(i + 1).as_nanos(),
                    None,
                )
                .expect("IN-DATA exists");
        }
    }
    let batch = |rsus: &mut [(RsuNode, u64)], at_ms: u64| {
        for (rsu, _) in rsus.iter_mut() {
            rsu.run_batch(SimTime::from_millis(at_ms)).expect("batch runs");
        }
        cad3_obs::registry().snapshot()
    };
    let first = batch(&mut rsus, 100);
    let second = batch(&mut rsus, 200);
    cad3_obs::set_enabled(false);

    assert_eq!(first.gauge("rsu.lag.lag-a"), 7, "a's backlog, under a's name");
    assert_eq!(first.gauge("rsu.lag.lag-b"), 3, "b's backlog, under b's name");
    assert_eq!(second.gauge("rsu.lag.lag-a"), 0, "a drained its backlog");
    assert_eq!(second.gauge("rsu.lag.lag-b"), 0, "b drained its backlog");
    // The consumer publishes counters only; no per-consumer gauge (the old
    // lag family) exists beside `rsu.lag`.
    let stray: Vec<&String> =
        second.gauges.keys().filter(|k| k.starts_with("stream.consumer.")).collect();
    assert!(stray.is_empty(), "rsu.lag is the one lag signal: {stray:?}");
}
