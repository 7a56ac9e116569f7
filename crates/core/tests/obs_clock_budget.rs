//! The RSU loop's share of the cad3-obs overhead policy: with obs on and no
//! record head-sampled, a step's wall-clock reads come from per-batch spans
//! and per-fetch timing only, so they do not grow with the batch.
//!
//! Single `#[test]` on purpose: the obs gate, the sample rate and the clock
//! read count are process-global, and this binary owns them. Debug builds
//! only, because `clock::reads` only counts there.
#![cfg(debug_assertions)]

use bytes::Bytes;
use cad3::detector::{train_all, DetectionConfig, Detector};
use cad3::{ProcessingCostModel, RsuNode, VehicleAgent};
use cad3_data::{DatasetConfig, SyntheticDataset};
use cad3_engine::Executor;
use cad3_obs::clock;
use cad3_stream::{Consumer, OffsetReset, TOPIC_IN_DATA, TOPIC_OUT_DATA};
use cad3_types::{FeatureRecord, RsuId, SimTime, VehicleId, WireEncode};
use std::sync::Arc;

const VEHICLES: u64 = 8;

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
    let ds = SyntheticDataset::generate(&DatasetConfig::small(57));
    let models = train_all(&ds.features, &DetectionConfig::default()).expect("trainable corpus");
    let detector: Arc<dyn Detector> = Arc::new(models.cad3);
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
