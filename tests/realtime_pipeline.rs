//! Live wall-clock integration test: the same `RsuNode::run_batch` loop the
//! virtual-time testbed drives, but on real threads — producers pushing
//! status packets into the RSU's broker while the test's own thread runs
//! the micro-batch every 20 ms and publishes its warnings, as on the
//! paper's physical testbed.

use bytes::Bytes;
use cad3_repro::core::detector::{train_all, DetectionConfig};
use cad3_repro::core::{ProcessingCostModel, RsuNode};
use cad3_repro::data::{DatasetConfig, SyntheticDataset};
use cad3_repro::stream::{Consumer, OffsetReset};
use cad3_repro::types::{
    RsuId, SimDuration, SimTime, VehicleId, WarningMessage, WireDecode, WireEncode,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn realtime_rsu_detects_and_disseminates() {
    // Offline stage.
    let ds = SyntheticDataset::generate(&DatasetConfig::small(301));
    let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();

    // The RSU: broker with the paper's topics plus the micro-batch loop,
    // run every 20 ms of wall clock (and of the virtual clock it stamps
    // detections with).
    const TICK_MS: u64 = 20;
    let mut rsu =
        RsuNode::new(RsuId(1), "rsu-live", Arc::new(models.ad3), ProcessingCostModel::default());
    let broker = rsu.broker();

    // Vehicle producers on real threads: 8 vehicles × 50 records.
    let mut handles = Vec::new();
    for v in 0..8u64 {
        let broker = Arc::clone(&broker);
        let pool: Vec<_> = ds
            .features
            .iter()
            .filter(|f| f.vehicle == VehicleId(v % 20 + 1))
            .take(50)
            .copied()
            .collect();
        handles.push(std::thread::spawn(move || {
            let mut agent = cad3_repro::core::VehicleAgent::new(
                VehicleId(900 + v),
                if pool.is_empty() { vec![] } else { pool },
            );
            for i in 0..50u64 {
                let status = agent.next_status(SimTime::from_millis(i * 10));
                let key = Bytes::copy_from_slice(&status.vehicle.raw().to_be_bytes());
                broker.produce("IN-DATA", None, Some(key), status.encode_to_bytes(), i).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    // The micro-batch loop, racing the producers until every status is in.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut next_tick = Instant::now() + Duration::from_millis(TICK_MS);
    let mut now = SimTime::ZERO;
    let mut batched = 0usize;
    while rsu.records_processed() < 400 && Instant::now() < deadline {
        std::thread::sleep(next_tick.saturating_duration_since(Instant::now()));
        next_tick += Duration::from_millis(TICK_MS);
        now += SimDuration::from_millis(TICK_MS);
        let batch = rsu.run_batch(now).unwrap();
        for warning in &batch.warnings {
            rsu.publish_warning(warning).unwrap();
        }
        batched += batch.records;
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(rsu.records_processed(), 400, "every status processed exactly once");
    assert_eq!(batched, 400);

    // A vehicle-side consumer sees the warnings.
    let mut fleet = Consumer::new(broker, "fleet", OffsetReset::Earliest);
    fleet.subscribe(&["OUT-DATA"]).unwrap();
    let warnings = fleet.poll(100_000).unwrap();
    assert!(!warnings.is_empty(), "abnormal traffic produced warnings");
    for w in warnings.iter().take(5) {
        let mut buf = w.value.clone();
        let decoded = WarningMessage::decode(&mut buf).unwrap();
        assert!((0.0..=1.0).contains(&decoded.probability));
    }
}
