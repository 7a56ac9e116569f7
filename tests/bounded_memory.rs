//! Bounded memory by default: 256 vehicles driven through one `RsuNode`
//! keep each of its three topics under a ceiling written down before the
//! run, however long it runs.
//!
//! Virtual time advances in 10 ms ticks, the fleet's `OUT-DATA` poll
//! period. Each vehicle sends one status every 100 ms, on its own tick of
//! the ten; the RSU runs a micro-batch every 50 ms and publishes its
//! warnings at their detection instant; every 2 s it exports its summaries
//! into its own `CO-DATA`, standing in for an upstream neighbour's
//! handover. The ceilings, each what the topic can hold at worst:
//!
//! * `IN-DATA`: two batches. The batch's commit frees what it read at the
//!   next append, so the topic holds one batch at most, whatever the run's
//!   length; the second is margin.
//! * `OUT-DATA`: one [`WARNING_DEADLINE`] of warnings — every record of the
//!   batches whose warnings are stamped within one deadline of the newest,
//!   as if each record were a warning.
//! * `CO-DATA`: one export, a summary per vehicle.
//!
//! `two_virtual_minutes` runs in the default test pass;
//! `one_virtual_hour` is ignored there and run in release:
//!
//! ```sh
//! cargo test --release --test bounded_memory -- --ignored
//! ```

use bytes::Bytes;
use cad3_repro::core::detector::{train_all, DetectionConfig};
use cad3_repro::core::{ProcessingCostModel, RsuNode, VehicleAgent, WARNING_DEADLINE};
use cad3_repro::data::{DatasetConfig, SyntheticDataset};
use cad3_repro::engine::Executor;
use cad3_repro::stream::{Consumer, OffsetReset, TOPIC_CO_DATA, TOPIC_IN_DATA, TOPIC_OUT_DATA};
use cad3_repro::types::{RsuId, SimDuration, SimTime, VehicleId, WireEncode};
use std::sync::Arc;

const VEHICLES: u64 = 256;
/// Virtual time of one tick, the fleet's `OUT-DATA` poll period.
const TICK: SimDuration = SimDuration::from_millis(10);
/// Ticks between a vehicle's status updates (100 ms).
const UPDATE_TICKS: u64 = 10;
/// Ticks between micro-batches (50 ms).
const BATCH_TICKS: u64 = 5;
/// Micro-batches between summary exports (2 s).
const EXPORT_BATCHES: u64 = 40;
/// Ticks before the ceilings are held: the first export and one deadline.
const WARMUP_TICKS: u64 = EXPORT_BATCHES * BATCH_TICKS + UPDATE_TICKS;

/// The most records one micro-batch can collect: the busiest ticks' senders.
const BATCH_RECORDS: u64 = VEHICLES.div_ceil(UPDATE_TICKS) * BATCH_TICKS;
const IN_DATA_CEILING: u64 = 2 * BATCH_RECORDS;
/// Batches whose warnings can sit within one deadline of the newest: a
/// deadline's worth of batch intervals, and the batch at its far edge.
const OUT_DATA_CEILING: u64 =
    (WARNING_DEADLINE.as_nanos() / (TICK.as_nanos() * BATCH_TICKS) + 1) * BATCH_RECORDS;
const CO_DATA_CEILING: u64 = VEHICLES;

/// Drives the fleet for `ticks` ticks, holding every topic under its ceiling
/// after warm-up and the polling fleet to every warning, and returns the
/// most each topic held after warm-up.
fn drive(ticks: u64) -> [u64; 3] {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(73));
    let models = train_all(&ds.features, &DetectionConfig::default()).expect("trainable corpus");
    let mut rsu = RsuNode::with_executor(
        RsuId(1),
        "rsu-bounded",
        Arc::new(models.cad3),
        ProcessingCostModel::default(),
        Executor::new(1),
    );
    let broker = rsu.broker();
    let mut fleet = Consumer::new(Arc::clone(&broker), "fleet", OffsetReset::Earliest);
    fleet.subscribe(&[TOPIC_OUT_DATA]).expect("RsuNode creates OUT-DATA");
    // Every vehicle replays abnormal driving, so nearly every record is a
    // warning and `OUT-DATA` runs up against its ceiling.
    let pool: Vec<_> =
        ds.features.iter().filter(|f| f.label.is_abnormal()).take(400).copied().collect();
    let mut agents: Vec<VehicleAgent> =
        (1..=VEHICLES).map(|v| VehicleAgent::new(VehicleId(v), pool.clone())).collect();

    let mut pending = Vec::new();
    let mut delivered = 0u64;
    let mut most = [0u64; 3];
    for tick in 0..ticks {
        let now = SimTime::ZERO + TICK.mul(tick);
        for agent in
            agents.iter_mut().filter(|a| a.id().raw() % UPDATE_TICKS == tick % UPDATE_TICKS)
        {
            let status = agent.next_status(now);
            let key = Bytes::copy_from_slice(&status.vehicle.raw().to_be_bytes());
            let value = status.encode_to_bytes();
            let at = now.as_nanos();
            broker
                .produce_traced(TOPIC_IN_DATA, None, Some(key), value, at, None)
                .expect("IN-DATA");
        }
        if tick % BATCH_TICKS == 0 {
            let batch = rsu.run_batch(now).expect("batch runs");
            pending.extend(batch.warnings);
            if (tick / BATCH_TICKS) % EXPORT_BATCHES == EXPORT_BATCHES - 1 {
                for summary in rsu.export_summaries(now) {
                    rsu.receive_summary_at(&summary, now).expect("CO-DATA exists");
                }
            }
        }
        // Warnings go out at their detection instant, rounded up to a tick.
        let (due, later): (Vec<_>, Vec<_>) = pending.drain(..).partition(|w| w.detected_at <= now);
        pending = later;
        for warning in &due {
            rsu.publish_warning_traced(warning, None).expect("OUT-DATA exists");
        }
        delivered += fleet.poll(usize::MAX).expect("fleet polls").len() as u64;

        if tick >= WARMUP_TICKS {
            let ceilings = [IN_DATA_CEILING, OUT_DATA_CEILING, CO_DATA_CEILING];
            for (i, topic) in [TOPIC_IN_DATA, TOPIC_OUT_DATA, TOPIC_CO_DATA].iter().enumerate() {
                let len = broker.topic_len(topic).expect("RsuNode creates the topic") as u64;
                assert!(len <= ceilings[i], "{topic} holds {len} > {} at tick {tick}", ceilings[i]);
                most[i] = most[i].max(len);
            }
        }
    }
    assert_eq!(delivered + pending.len() as u64, rsu.warnings_produced(), "no warning missed");
    most
}

#[test]
fn two_virtual_minutes() {
    let [in_data, out_data, co_data] = drive(2 * 60 * 100);
    assert!(in_data > 0 && out_data > 0 && co_data > 0, "every topic carried traffic");
}

#[test]
#[ignore = "an hour of virtual time: run in release, `-- --ignored`"]
fn one_virtual_hour() {
    drive(60 * 60 * 100);
}
