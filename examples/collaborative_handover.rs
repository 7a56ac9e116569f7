//! The microscopic scenario of the paper's Figs. 3–4, driven through the
//! actual RSU pipeline objects: a motorway RSU detects anomalies with
//! Naïve Bayes, hands a per-vehicle prediction summary over `CO-DATA` to
//! the motorway-link RSU, which fuses it (Eq. 1) into its Decision Tree.
//!
//! Run with:
//! ```text
//! cargo run --release --example collaborative_handover
//! ```

use cad3_repro::core::detector::{train_all, DetectionConfig};
use cad3_repro::core::{ProcessingCostModel, RsuNode};
use cad3_repro::data::{DatasetConfig, SyntheticDataset};
use cad3_repro::stream::TOPIC_IN_DATA;
use cad3_repro::types::{
    DriverProfile, Label, RoadType, RsuId, SimDuration, SimTime, VehicleStatus, WireEncode,
};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = SyntheticDataset::generate(&DatasetConfig::small(7));
    let models = train_all(&ds.features, &DetectionConfig::default())?;

    // Two RSUs: the motorway one runs the standalone stage, the link one
    // runs the collaborative detector.
    let mut motorway_rsu = RsuNode::new(
        RsuId(1),
        "rsu-motorway",
        Arc::new(models.cad3.clone()),
        ProcessingCostModel::default(),
    );
    let mut link_rsu = RsuNode::new(
        RsuId(2),
        "rsu-motorway-link",
        Arc::new(models.cad3),
        ProcessingCostModel::default(),
    );

    // Pick an aggressive driver's motorway→link trip from the corpus.
    let (vehicle, trip) = ds
        .trips
        .iter()
        .find(|t| {
            ds.profiles[&t.vehicle] == DriverProfile::Aggressive
                && t.roads.len() >= 2
                && ds.network.road(t.roads[0]).map(|r| r.road_type) == Some(RoadType::Motorway)
        })
        .map(|t| (t.vehicle, t.trip))
        .expect("corpus contains an aggressive motorway trip");
    println!("Replaying {vehicle} ({}) through two RSUs...\n", ds.profiles[&vehicle]);

    let records: Vec<_> = ds.features.iter().filter(|f| f.trip == trip).collect();
    let mut now = SimTime::ZERO;
    let mut seq = 0u32;
    let mut motorway_warnings = 0;
    let mut link_warnings = 0;
    let mut link_records = 0;

    for rec in &records {
        seq += 1;
        now += SimDuration::from_millis(100);
        let status =
            VehicleStatus::from_feature(rec, ds.network.road(rec.road).unwrap().start(), now, seq);
        let target = if rec.road_type == RoadType::Motorway { &motorway_rsu } else { &link_rsu };
        target.broker().produce_traced(
            TOPIC_IN_DATA,
            None,
            Some(bytes_of(vehicle.raw())),
            status.encode_to_bytes(),
            now.as_nanos(),
            None,
        )?;

        // Run micro-batches every 5 records and forward summaries on the
        // motorway→link boundary (the Fig. 3 handover).
        if seq.is_multiple_of(5) {
            motorway_warnings += motorway_rsu.run_batch(now)?.warnings.len();
            link_warnings += {
                let batch = link_rsu.run_batch(now)?;
                link_records += batch.records;
                batch.warnings.len()
            };
            for summary in motorway_rsu.export_summaries(now) {
                link_rsu.receive_summary_at(&summary, summary.sent_at)?;
            }
        }
    }
    // Drain the tail.
    now += SimDuration::from_millis(100);
    motorway_warnings += motorway_rsu.run_batch(now)?.warnings.len();
    link_warnings += link_rsu.run_batch(now)?.warnings.len();

    let abnormal_truth = records.iter().filter(|r| r.label == Label::Abnormal).count();
    println!("trip records: {} ({} truly abnormal)", records.len(), abnormal_truth);
    println!("motorway RSU: {} warnings", motorway_warnings);
    println!("link RSU:     {} warnings over {} link records", link_warnings, link_records);
    println!(
        "\nThe link RSU received the motorway's CO-DATA summary, so the driver's\n\
         history followed them across the handover — the paper's driver-awareness."
    );
    Ok(())
}

fn bytes_of(v: u64) -> bytes::Bytes {
    bytes::Bytes::copy_from_slice(&v.to_be_bytes())
}
