//! Live wall-clock integration test: the same `RsuNode::run_batch` loop the
//! virtual-time testbed drives, but on real threads — producers pushing
//! status packets into the RSU's broker while the test's own thread runs
//! the micro-batch every 20 ms and publishes its warnings, and a vehicle
//! fleet polls `OUT-DATA` every tick, as on the paper's physical testbed.

use bytes::Bytes;
use cad3_repro::core::detector::{train_all, DetectionConfig};
use cad3_repro::core::{ProcessingCostModel, RsuNode, WARNING_DEADLINE};
use cad3_repro::data::{DatasetConfig, SyntheticDataset};
use cad3_repro::stream::{Consumer, FetchedRecord, OffsetReset};
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
    // run every 20 ms of wall clock. The virtual clock it stamps detections
    // with advances by the paper's 50 ms batch interval a tick, so the
    // producers' ≥ 100 ms of sends span more than one warning deadline.
    const TICK_MS: u64 = 20;
    const BATCH_MS: u64 = 50;
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
                let value = status.encode_to_bytes();
                broker.produce_traced("IN-DATA", None, Some(key), value, i, None).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    // A vehicle-side consumer, subscribed before the loop and polling every
    // tick, as the fleet does.
    let mut fleet = Consumer::new(Arc::clone(&broker), "fleet", OffsetReset::Earliest);
    fleet.subscribe(&["OUT-DATA"]).unwrap();
    let mut delivered: Vec<FetchedRecord> = Vec::new();

    // The micro-batch loop, racing the producers until every status is in.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut next_tick = Instant::now() + Duration::from_millis(TICK_MS);
    let mut now = SimTime::ZERO;
    let mut batched = 0usize;
    while rsu.records_processed() < 400 && Instant::now() < deadline {
        std::thread::sleep(next_tick.saturating_duration_since(Instant::now()));
        next_tick += Duration::from_millis(TICK_MS);
        now += SimDuration::from_millis(BATCH_MS);
        let batch = rsu.run_batch(now).unwrap();
        for warning in &batch.warnings {
            rsu.publish_warning_traced(warning, None).unwrap();
        }
        batched += batch.records;
        delivered.extend(fleet.poll(usize::MAX).unwrap());
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(rsu.records_processed(), 400, "every status processed exactly once");
    assert_eq!(batched, 400);

    // The polling fleet receives every warning, once.
    assert!(!delivered.is_empty(), "abnormal traffic produced warnings");
    assert_eq!(delivered.len() as u64, rsu.warnings_produced(), "every warning, exactly once");
    let decode = |r: &FetchedRecord| WarningMessage::decode(&mut r.value.clone()).unwrap();
    for w in &delivered {
        assert!((0.0..=1.0).contains(&decode(w).probability));
    }

    // A late subscriber sees only what the warning deadline kept: in each
    // partition, the warnings stamped within one deadline of its newest.
    let mut late = Consumer::new(broker, "late", OffsetReset::Earliest);
    late.subscribe(&["OUT-DATA"]).unwrap();
    let seen: Vec<(u32, u64)> =
        late.poll(usize::MAX).unwrap().iter().map(|r| (r.partition, r.offset)).collect();
    let newest = |p: u32| delivered.iter().filter(|r| r.partition == p).map(|r| r.timestamp).max();
    let mut kept: Vec<(u32, u64)> = (delivered.iter())
        .filter(|r| newest(r.partition).unwrap() - r.timestamp <= WARNING_DEADLINE.as_nanos())
        .map(|r| (r.partition, r.offset))
        .collect();
    kept.sort_unstable();
    assert!(!seen.is_empty(), "the newest warnings are still there");
    assert!(seen.len() < delivered.len(), "the oldest are gone");
    assert_eq!(seen, kept, "the late subscriber sees exactly the last deadline's warnings");
    for r in &delivered {
        assert_eq!(r.timestamp, decode(r).detected_at.as_nanos(), "stamped at detection");
    }
}
