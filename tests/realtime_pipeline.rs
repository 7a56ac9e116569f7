//! Live wall-clock integration test: the same `RsuNode::run_batch` loop the
//! virtual-time testbed drives, but on real threads — producers pushing
//! status packets into the RSU's broker while a real-time scheduler ticks
//! the micro-batch and publishes its warnings, as on the paper's physical
//! testbed.

use cad3_repro::core::detector::{train_all, DetectionConfig};
use cad3_repro::core::{CoreError, ProcessingCostModel, RsuNode};
use cad3_repro::data::{DatasetConfig, SyntheticDataset};
use cad3_repro::engine::RealtimeScheduler;
use cad3_repro::stream::{Consumer, OffsetReset, Producer, StreamError};
use cad3_repro::types::{
    RsuId, SimDuration, SimTime, VehicleId, WarningMessage, WireDecode, WireEncode,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `run_batch` and `publish_warning` only ever propagate stream errors.
fn stream_error(e: CoreError) -> StreamError {
    match e {
        CoreError::Stream(e) => e,
        other => panic!("the RSU loop surfaced a non-stream error: {other}"),
    }
}

#[test]
fn realtime_rsu_detects_and_disseminates() {
    // Offline stage.
    let ds = SyntheticDataset::generate(&DatasetConfig::small(301));
    let models = train_all(&ds.features, &DetectionConfig::default()).unwrap();

    // The RSU: broker with the paper's topics plus the micro-batch loop,
    // ticked every 20 ms of wall clock (and of the virtual clock it stamps
    // detections with).
    const TICK_MS: u64 = 20;
    let mut rsu =
        RsuNode::new(RsuId(1), "rsu-live", Arc::new(models.ad3), ProcessingCostModel::default());
    let broker = rsu.broker();
    let processed = Arc::new(AtomicU64::new(0));
    let processed2 = Arc::clone(&processed);
    let mut now = SimTime::ZERO;
    let scheduler = RealtimeScheduler::start(Duration::from_millis(TICK_MS), move || {
        now += SimDuration::from_millis(TICK_MS);
        let batch = rsu.run_batch(now).map_err(stream_error)?;
        for warning in &batch.warnings {
            rsu.publish_warning(warning).map_err(stream_error)?;
        }
        // ordering: Relaxed — a progress counter; the final read below
        // happens after `stop()` joins the ticker thread.
        processed2.store(rsu.records_processed(), Ordering::Relaxed);
        Ok(batch.records)
    });

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
            let producer = Producer::new(broker);
            let mut agent = cad3_repro::core::VehicleAgent::new(
                VehicleId(900 + v),
                if pool.is_empty() { vec![] } else { pool },
            );
            for i in 0..50u64 {
                let status = agent.next_status(SimTime::from_millis(i * 10));
                producer
                    .send(
                        "IN-DATA",
                        Some(&status.vehicle.raw().to_be_bytes()),
                        status.encode_to_bytes(),
                        i,
                    )
                    .unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Wait for the scheduler to drain, then stop it.
    let deadline = Instant::now() + Duration::from_secs(10);
    // ordering: Relaxed — polling a monotone counter; timing only.
    while processed.load(Ordering::Relaxed) < 400 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = scheduler.stop().unwrap();
    // ordering: Relaxed — `stop()` joined the ticker, so this is the final value.
    assert_eq!(processed.load(Ordering::Relaxed), 400, "every status processed exactly once");
    assert_eq!(metrics.iter().map(|m| m.records).sum::<usize>(), 400);

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
